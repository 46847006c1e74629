"""The verdicts of the README's command lines, compared with committed copies.

Each file under ``tests/golden`` holds ``RunReport.verdict_dict()`` of one
README command, or of one of the ``PINNED`` commands that cover the other
constructions and the pointwise precondition failure, as JSON.  Any change
that moves a verdict, a count, a certificate id or a label fails here, and
each committed verdict must re-verify by re-running its own config.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest
from oracles import unrecorded_copy

import kancheck.cli
import kancheck.kan
import kancheck.pointwise
import kancheck.presets
from kancheck import product
from kancheck.cli import RunReport, reverify_report, run

HERE = Path(__file__).parent

COMMANDS = {
    "identities": "identities --max-n 6",
    "kan-s3-double-nerve-diagonal":
        "kan --preset s3-counterexample --construction double-nerve-diagonal --max-dim 2",
    "kan-s3-column": "kan --preset s3-counterexample --construction column --max-dim 3",
    "pointwise-eg-tensor": "pointwise --preset eg-tensor --max-total-dim 3",
    "pointwise-z2-commuting": "pointwise --preset z2-commuting --max-total-dim 2",
    "counterexample-s3": "counterexample --preset s3-counterexample",
    "counterexample-eg-tensor": "counterexample --preset eg-tensor",
}

# commands the README does not list, pinned the same way
PINNED = {
    "kan-eg-tensor-diagonal":
        "kan --preset eg-tensor --construction eg-tensor-diagonal --max-dim 3",
    "kan-s3-row": "kan --preset s3-counterexample --construction row --max-dim 3",
    "kan-s3-nerve": "kan --preset s3-counterexample --construction nerve --max-dim 3",
    "pointwise-s3-counterexample": "pointwise --preset s3-counterexample --max-total-dim 2",
    # the benchmark's kan-diagonal-eg command, and the eg-tensor sweep one
    # dimension past the README's (2320 problems)
    "kan-eg-tensor-diagonal-dim4":
        "kan --preset eg-tensor --construction eg-tensor-diagonal --max-dim 4",
    "pointwise-eg-tensor-dim4": "pointwise --preset eg-tensor --max-total-dim 4",
    # the benchmark's not-kan-s4 command: an --input double nerve at dim 3
    "kan-s4-pair-double-nerve-diagonal":
        "kan --input bench/inputs/s4_pair.json --construction double-nerve-diagonal --max-dim 3",
    # the S3 eg-tensor sweep (8784 problems), whose diagonal Kan check is
    # decided from its factor EG(S3), searched once
    "pointwise-s3-eg-tensor": "pointwise --input tests/inputs/s3.json --max-total-dim 2",
}


def test_commands_are_the_readme_commands():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    listed = {line[len("kancheck "):] for line in readme.splitlines() if line.startswith("kancheck ")}
    assert listed == set(COMMANDS.values())


@pytest.mark.parametrize("name", sorted(COMMANDS) + sorted(PINNED))
def test_verdict_matches_golden(name, capsys, monkeypatch):
    # config records an --input path as given, relative to the repo root
    monkeypatch.chdir(HERE.parent)
    _, report = run({**COMMANDS, **PINNED}[name].split())
    capsys.readouterr()
    expected = json.loads((HERE / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    assert json.loads(json.dumps(report.verdict_dict())) == expected
    # re-running the committed verdict's config reproduces it
    assert reverify_report(RunReport.from_dict(expected))


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name", sorted(COMMANDS) + sorted(PINNED))
def test_verdict_is_the_same_in_small_blocks(name, rows, capsys, monkeypatch):
    # no benchmark cell outgrows the default block, so shrink it: every cell
    # is cut over many blocks, and a failure can fall on any row of one
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
    longest = 0
    searched = []  # the families of each searched cell that its blocks held
    for module in (kancheck.kan, kancheck.pointwise):
        def blocks(f, n, indices, grow=module._blocks):
            cell = len(searched)
            searched.append(0)
            for ys, xs in grow(f, n, indices):
                searched[cell] += len(ys)
                yield ys, xs

        monkeypatch.setattr(module, "_blocks", blocks)
        for check_name in ("_all_compatible", "_check_witnesses"):
            def recording(f, n, indices, ys, *columns, check=getattr(module, check_name)):
                nonlocal longest
                longest = max(longest, len(ys))
                return check(f, n, indices, ys, *columns)

            monkeypatch.setattr(module, check_name, recording)
    _, report = run({**COMMANDS, **PINNED}[name].split())
    capsys.readouterr()
    expected = json.loads((HERE / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    assert json.dumps(report.verdict_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
    # the checks saw blocks of up to ``rows`` rows, and some that long, or
    # as long as the largest searched cell (0 when no cell is searched)
    assert longest == min(rows, max(searched, default=0))


def test_s3_diagonal_spans_many_default_blocks(capsys, monkeypatch):
    # the eg-tensor diagonal of S3 at dim 2: each dim-2 cell has 46656 rows,
    # about three blocks at the default BLOCK_ROWS, where no golden cell
    # outgrows one; the verdict is pinned by the hash of its sorted-key JSON.
    # The command decides EG x EG from its factors; here it gets the
    # product itself, built with no factors recorded, so every family is
    # searched
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(
        kancheck.cli, "product_stages", lambda A, B: unrecorded_copy(product(A, B))
    )
    sizes = []

    def recording(f, n, indices, ys, *columns, check=kancheck.kan._check_witnesses):
        sizes.append(len(ys))
        return check(f, n, indices, ys, *columns)

    monkeypatch.setattr(kancheck.kan, "_check_witnesses", recording)
    code, report = run(
        "kan --input tests/inputs/s3.json --construction eg-tensor-diagonal --max-dim 2".split()
    )
    capsys.readouterr()
    assert code == 0
    # each dim-2 cell fills in two full blocks and the rest
    assert sizes.count(kancheck.kan.BLOCK_ROWS) == 6
    verdict = report.verdict_dict()
    cells = verdict["checks"][0]["details"]["report"]["cells"]
    assert [c["families"] for c in cells] == [36, 36, 46656, 46656, 46656]
    assert sum(c["families"] for c in cells) == 140040
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "80f1247e7dcb8e420fb5dba1a3d868b9dc4f1805026bc0332810dd39ddef60ce"
    )


def test_s3_diagonal_is_checked_on_its_quotient(capsys, monkeypatch):
    # the same command on the product rule: EG(S3) x EG(S3) is decided from
    # its factor, checked once, whose two dim-1 cells of 6 families each are
    # searched and whose dim-2 cells of 216 families each (46656 = 216^2)
    # are counted, as EG is 0-coskeletal; the verdict is the full search's,
    # hash for hash
    monkeypatch.chdir(HERE.parent)
    sizes = []

    def recording(f, n, indices, ys, *columns, check=kancheck.kan._check_witnesses):
        sizes.append(len(ys))
        return check(f, n, indices, ys, *columns)

    monkeypatch.setattr(kancheck.kan, "_check_witnesses", recording)
    code, report = run(
        "kan --input tests/inputs/s3.json --construction eg-tensor-diagonal --max-dim 2".split()
    )
    capsys.readouterr()
    assert code == 0
    assert sizes == [6, 6]
    text = json.dumps(report.verdict_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "80f1247e7dcb8e420fb5dba1a3d868b9dc4f1805026bc0332810dd39ddef60ce"
    )


def test_s3_diagonal_dim3_rung(capsys, monkeypatch):
    # the S3 eg-tensor diagonal at dim 3: 6858504 families, decided from
    # the 5844 of EG(S3); pinned by its per-cell counts and the hash of its
    # structured-format verdict (the config records the format)
    monkeypatch.chdir(HERE.parent)
    code, report = run(
        "kan --input tests/inputs/s3.json --construction eg-tensor-diagonal --max-dim 3"
        " --format structured".split()
    )
    capsys.readouterr()
    assert code == 0
    verdict = report.verdict_dict()
    cells = verdict["checks"][0]["details"]["report"]["cells"]
    assert [(c["n"], c["families"], c["filled"]) for c in cells] == (
        [(1, 36, 36)] * 2 + [(2, 46656, 46656)] * 3 + [(3, 1679616, 1679616)] * 4
    )
    assert sum(c["families"] for c in cells) == 6858504
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "cc44bb75761fc61070f2a5db171d44c2daf83fb8d617287cde2e1bf511e29929"
    )


def test_s3_diagonal_dim6_rung(capsys, monkeypatch):
    # the S3 eg-tensor diagonal at dim 6: 561919032072 families, decided
    # from EG(S3), whose 2 cells at dim 1 are searched and whose cells from
    # dim 2 up are counted, as EG is 0-coskeletal; pinned by the hash
    # that the search of every cell of EG(S3) gave (in about 7-10 s and
    # 285 MB as one CLI process)
    monkeypatch.chdir(HERE.parent)
    searched = []

    def recording(f, n, indices, count_cell=kancheck.kan._count_cell):
        searched.append(n)
        return count_cell(f, n, indices)

    monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
    code, report = run(
        "kan --input tests/inputs/s3.json --construction eg-tensor-diagonal --max-dim 6"
        " --format structured".split()
    )
    capsys.readouterr()
    assert code == 0
    assert searched == [1, 1]
    verdict = report.verdict_dict()
    assert verdict["checks"][0]["details"]["report"]["families_checked"] == 561919032072
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "57d33f66046effaf7de1fa1bc22a40980e8f16a0f510875205ed533737d92272"
    )


def test_s3_pointwise_dim3_rung(capsys, monkeypatch):
    # the S3 eg-tensor sweep at total dim 3: 122832 problems, 61416 in each
    # direction, swept on the factor EG(S3) with no line of the tensor, no
    # bimap and no diagonal map built; pinned by the hash of its
    # structured-format verdict, which the sweep on the tensor's lines and
    # diagonal gave (in about 11 s and 2 GB)
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(kancheck.pointwise, "to_point_bimap", None)
    monkeypatch.setattr(kancheck.pointwise, "diagonal_map", None)
    start = time.perf_counter()
    code, report = run(
        "pointwise --input tests/inputs/s3.json --max-total-dim 3 --format structured".split()
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    verdict = report.verdict_dict()
    sweep = verdict["checks"][0]["details"]["report"]
    assert sweep["passed"] and sweep["problems_checked"] == 122832
    assert sum(c["problems"] for c in sweep["direct_cells"]) == 61416
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "539a969016f927d93118998f1c2d94ef148505183654d57b41eb2f51a7f74100"
    )
    assert elapsed < 2


@pytest.mark.parametrize("source, max_dim", [
    ("--preset eg-tensor", 4), ("--input tests/inputs/s3.json", 2),
    ("--input tests/inputs/s3.json", 4),
], ids=["Z2-4", "S3-2", "S3-4"])
def test_double_nerve_route_is_the_eg_tensor_diagonal(source, max_dim, capsys, monkeypatch):
    # on a single group, double-nerve-diagonal checks the same unbuilt
    # EG x EG as eg-tensor-diagonal, with no tensor grid: at S3 dim 4 the
    # grid's row 4 would be over the size budget at its level 3
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(kancheck.presets, "tensor", None)
    reports = []
    for construction in ("double-nerve-diagonal", "eg-tensor-diagonal"):
        code, report = run(
            f"kan {source} --construction {construction} --max-dim {max_dim}".split()
        )
        capsys.readouterr()
        assert code == 0
        reports.append(report.verdict_dict()["checks"][0]["details"]["report"])
    assert reports[0] == reports[1] and reports[0]["passed"]
    assert len(reports[0]["cells"]) == (max_dim + 1) * (max_dim + 2) // 2 - 1
