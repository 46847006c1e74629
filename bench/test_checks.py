"""Tests of the benchmark's output checks: each passes on the program's real
report and fails on a copy with any one count off by one.

    python3 -m unittest discover -s bench -p 'test_*.py'

Run from the checkout root.  The reports come from running the workloads'
commands in this process; kan-diagonal-eg runs at --max-dim 3 to stay fast,
and its check is told that dimension.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# integer fields of the reports that the checks pin; pointwise ``max_search``
# depends on the search order and has no closed form, so it is not pinned
COUNT_KEYS = {
    "families", "filled", "families_checked", "problems", "problems_checked",
    "families_verified_compatible", "candidates_examined",
}


def run_report(argv: list[str]) -> dict:
    from kancheck import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(argv + ["--format", "structured"])
    return json.loads(out.getvalue())


def count_paths(node, path=()):
    """Paths to every pinned count in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in COUNT_KEYS and isinstance(value, int) and not isinstance(value, bool):
                yield path + (key,)
            else:
                yield from count_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from count_paths(value, path + (i,))


def off_by_one(report: dict):
    """Every copy of the report with one count moved by +1 or -1."""
    for path in count_paths(report):
        for delta in (1, -1):
            changed = copy.deepcopy(report)
            node = changed
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += delta
            yield path, delta, changed


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        os.chdir(BENCH.parent)
        worker.import_kancheck()

    def assert_detects_every_count(self, report: dict, check) -> None:
        self.assertEqual(check(report), [])
        paths = list(count_paths(report))
        self.assertTrue(paths)
        for path, delta, changed in off_by_one(report):
            with self.subTest(path=path, delta=delta):
                self.assertNotEqual(check(changed), [])

    def test_kan_diagonal_eg(self) -> None:
        argv = list(workloads.COMMANDS["kan-diagonal-eg"])
        argv[argv.index("--max-dim") + 1] = "3"
        report = run_report(argv)
        self.assert_detects_every_count(
            report, lambda r: checks.check_kan_diagonal_eg(r, max_dim=3)
        )

    def test_pointwise_eg(self) -> None:
        report = run_report(workloads.COMMANDS["pointwise-eg"])
        self.assert_detects_every_count(report, checks.check_pointwise_eg)

    def test_not_kan_s4(self) -> None:
        from kancheck import cli

        report = run_report(workloads.COMMANDS["not-kan-s4"])
        diag = workloads.build_checked_object("not-kan-s4")
        self.assert_detects_every_count(report, lambda r: checks.check_not_kan_s4(r, diag))
        self.assertEqual(checks.check_tampering_rejected(report, cli), [])
        path = ("checks", 0, "details", "report", "failure", "candidates_examined")
        off = [changed for p, _, changed in off_by_one(report) if p == path]
        self.assertNotEqual(checks.check_tampering_rejected(off[0], cli), [])

    def test_s4_products(self) -> None:
        data = workloads.load_s4_input()
        self.assertEqual(checks.check_s4_products_differ(data), [])
        commuting = dict(data, subgroup_b=data["subgroup_a"])
        self.assertNotEqual(checks.check_s4_products_differ(commuting), [])

    def test_parse_cycles(self) -> None:
        self.assertEqual(checks.parse_cycles("id", 4), (1, 2, 3, 4))
        self.assertEqual(checks.parse_cycles("(1,3,2,4)", 4), (3, 4, 2, 1))
        self.assertEqual(checks.parse_cycles("(1,2)(3,4)", 4), (2, 1, 4, 3))


if __name__ == "__main__":
    unittest.main()
