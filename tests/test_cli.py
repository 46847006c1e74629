import argparse
import json
import os
import random
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from oracles import unrecorded_copy
from test_kan import standard_simplex

import kancheck.cli as cli
import kancheck.presets
import kancheck.simplicial
from kancheck import (
    check_kan_to_point,
    cyclic_group,
    eg_construction,
    nerve,
    one_object_groupoid,
    product,
    symmetric_group_preset,
)
from kancheck.cli import RunReport, build_parser, main, reverify_report, run
from kancheck.errors import InternalInvariantError, RejectedInput
from kancheck.bisimplicial import product_stages
from kancheck.serialize import fibration_report_to_dict, simplicial_to_dict
from kancheck.simplicial import MAX_LEVEL_ENTRIES


def run_report(argv):
    code, report = run(argv)
    assert report is not None
    return code, report


def detached_dict(report):
    """A copy of ``report.to_dict()`` that shares no dict with the report."""
    return json.loads(json.dumps(report.to_dict()))


class TestIdentitiesCommand:
    def test_pass(self, capsys):
        code, report = run_report(["identities", "--max-n", "4"])
        assert code == 0
        assert report.overall_ok
        out = capsys.readouterr().out
        assert "operator-identities" in out

    def test_cap(self, capsys):
        code, _ = run(["identities", "--max-n", "11"])
        assert code == 2

    @pytest.mark.parametrize("max_n", ["-1", "-3"])
    def test_max_n_below_zero_rejected(self, capsys, max_n):
        # no identity holds vacuously: a negative bound is bad input, not a PASS
        assert run(["identities", "--max-n", max_n]) == (2, None)
        assert "error: max-n must be at least 0" in capsys.readouterr().err


class TestKanCommand:
    def test_nerve_preset_passes(self):
        code, report = run_report(
            ["kan", "--preset", "z2-commuting", "--construction", "nerve", "--max-dim", "3"]
        )
        assert code == 0

    def test_s3_diagonal_fails(self):
        code, report = run_report(
            ["kan", "--preset", "s3-counterexample",
             "--construction", "double-nerve-diagonal", "--max-dim", "2"]
        )
        assert code == 1
        assert not report.checks[0].passed

    def test_eg_tensor_diagonal_passes(self):
        code, report = run_report(
            ["kan", "--preset", "eg-tensor",
             "--construction", "eg-tensor-diagonal", "--max-dim", "2"]
        )
        assert code == 0

    def test_eg_tensor_diagonal_builds_no_grid(self, tmp_path, monkeypatch):
        # the diagonal of EG (x) EG is the product EG x EG, built directly
        def refuse(*args):
            raise AssertionError("the eg-tensor diagonal built the tensor grid")

        monkeypatch.setattr(kancheck.presets, "tensor", refuse)
        monkeypatch.setattr(cli, "diagonal", refuse)
        golden = Path(__file__).parent / "golden" / "kan-eg-tensor-diagonal.json"
        expected = json.loads(golden.read_text(encoding="utf-8"))["checks"]
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]}}))
        # a pair preset's diagonal is its group's: z2-commuting's group is Z2
        for source in (["--preset", "eg-tensor"], ["--input", str(path)],
                       ["--preset", "z2-commuting"]):
            code, report = run_report(
                ["kan", *source, "--construction", "eg-tensor-diagonal", "--max-dim", "3"]
            )
            assert code == 0
            assert report.verdict_dict()["checks"] == expected

    @pytest.mark.parametrize("argv, bounds", [
        (["--preset", "s3-counterexample", "--construction", "row", "--index", "2",
          "--max-dim", "1"], (1, 2)),
        (["--preset", "s3-counterexample", "--construction", "column", "--index", "3",
          "--max-dim", "1"], (3, 1)),
        (["--preset", "eg-tensor", "--construction", "row", "--max-dim", "3"], (3, 2)),
        (["--preset", "eg-tensor", "--construction", "column", "--index", "0",
          "--max-dim", "2"], (0, 2)),
    ])
    def test_lines_build_only_their_bounds(self, monkeypatch, argv, bounds):
        # a row q to max_dim needs bounds (max_dim, q), a column p (p, max_dim)
        built = []

        def recording(*args, build=cli.source_bisimplicial):
            X = build(*args)
            built.append(X.bounds)
            return X

        monkeypatch.setattr(cli, "source_bisimplicial", recording)
        assert run(["kan", *argv])[0] == 0
        assert built == [bounds]

    def test_rows_and_columns(self):
        code, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        assert code == 0
        assert len(report.checks) == 3

    def test_input_file_group(self, tmp_path):
        payload = {"group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]}}
        path = tmp_path / "group.json"
        path.write_text(json.dumps(payload))
        argv = ["kan", "--input", str(path), "--construction", "nerve", "--max-dim", "2"]
        code, report = run_report(argv)
        assert code == 0
        # a group entry missing its labels or degree, or with a number for its
        # table, is rejected input, not a crash
        for entry in (
            {"table": [[0, 1], [1, 0]]}, {"generators": [[2, 1]]},
            {"labels": ["e", "g"], "table": 7},
        ):
            path.write_text(json.dumps({"group": entry}))
            assert run(argv) == (2, None)
            # the report of the unedited file no longer re-verifies
            assert reverify_report(report) is False

    @pytest.mark.parametrize("entry", [
        {"labels": ["e", "g"], "table": [[0, True], [True, 0]]},
        {"degree": True, "generators": [[1]]},
        {"degree": 1, "generators": [[True]]},
    ], ids=["table-entry", "degree", "generator-entry"])
    def test_input_group_bool_is_not_an_int(self, tmp_path, capsys, entry):
        # JSON true is no int: read as 1 it made Z2 or the trivial group
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"group": entry}))
        argv = ["kan", "--input", str(path), "--construction", "nerve", "--max-dim", "2"]
        assert run(argv) == (2, None)
        assert "must be a int, not bool" in capsys.readouterr().err

    def test_input_file_explicit_set(self, tmp_path, z2_nerve):
        payload = {"simplicial_set": simplicial_to_dict(z2_nerve)}
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        argv = ["kan", "--input", str(path), "--construction", "simplicial-set", "--max-dim", "3"]
        code, report = run_report(argv)
        assert code == 0
        # a record missing a table entry, or with a face table at dimension 0,
        # is rejected input, not a crash or a silently different set
        for key in ("counts", "faces", "degeneracies", None):
            record = simplicial_to_dict(z2_nerve)
            if key is None:
                record["faces"][0] = [[0]]
            else:
                del record[key]
            path.write_text(json.dumps({"simplicial_set": record}))
            assert run(argv) == (2, None)
        # so is a file that is not JSON, a missing file, a set given as a
        # list and faces given as a number; re-verification says False
        with_number_faces = dict(simplicial_to_dict(z2_nerve), faces=3)
        for text in (
            "not json", None, json.dumps({"simplicial_set": [1, 2]}),
            json.dumps({"simplicial_set": with_number_faces}),
        ):
            if text is None:
                path.unlink()
            else:
                path.write_text(text)
            assert run(argv) == (2, None)
            assert reverify_report(report) is False

    def test_input_with_group_and_record_serves_both(self, tmp_path, z2_nerve):
        # a file holding a group and a simplicial_set record serves the
        # constructions of either: here both are the nerve of Z2
        path = tmp_path / "both.json"
        path.write_text(json.dumps({
            "group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]},
            "simplicial_set": simplicial_to_dict(z2_nerve),
        }))
        reports = []
        for construction in ("nerve", "simplicial-set", "eg-tensor-diagonal"):
            code, report = run_report(["kan", "--input", str(path), "--construction",
                                       construction, "--max-dim", "2"])
            assert code == 0
            reports.append(report.checks[0].details["report"])
        assert reports[0] == reports[1]

    def test_input_set_breaking_a_law_rejected(self, capsys):
        # two vertices and one edge from 1 to 0 whose degeneracy s_0 sends
        # both vertices to it: d_1 s_0 != id at vertex 0, so this is not a
        # simplicial set, and it gets no Kan verdict
        path = Path(__file__).parent / "inputs" / "lawless_set.json"
        argv = ["kan", "--input", str(path), "--construction", "simplicial-set", "--max-dim", "1"]
        assert run(argv) == (2, None)
        assert capsys.readouterr().err == (
            "error: simplicial-set record breaks the simplicial identities: "
            "face-degen-cancel at n=0, i=1, j=0, simplex 0: 0#1 != 0#0\n"
        )

    def test_missing_source_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["kan", "--construction", "nerve"])

    @pytest.mark.parametrize("argv", [
        ["kan", "--preset", "s3-counterexample", "--input", "bench/inputs/s4_pair.json",
         "--construction", "double-nerve-diagonal"],
        ["pointwise", "--preset", "eg-tensor", "--input", "/nonexistent"],
    ], ids=["kan", "pointwise"])
    def test_preset_and_input_exclusive(self, capsys, argv):
        # one source per run: the parser refuses both before any file is read
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "error: argument --input: not allowed with argument --preset" in (
            capsys.readouterr().err
        )

    def test_simplicial_set_construction_names_the_missing_record(self, capsys):
        # an input file with no simplicial_set record is named as such, not
        # as a missing file
        argv = ["kan", "--construction", "simplicial-set", "--max-dim", "1"]
        assert run(argv + ["--input", "tests/inputs/s3.json"]) == (2, None)
        assert capsys.readouterr().err == (
            "error: construction simplicial-set needs a simplicial_set record, "
            "and the input file has none\n"
        )
        assert run(argv + ["--preset", "eg-tensor"]) == (2, None)
        assert capsys.readouterr().err == (
            "error: construction simplicial-set needs a simplicial_set record, "
            "and preset eg-tensor has none\n"
        )

    def test_index_outside_lines_rejected(self, capsys):
        argv = ["kan", "--preset", "eg-tensor", "--construction", "nerve", "--max-dim", "2"]
        assert run(argv + ["--index", "7"]) == (2, None)
        assert "error: --index applies only to" in capsys.readouterr().err
        assert run(argv)[0] == 0

    def test_repeated_index_rejected(self, capsys):
        # a repeated index would check its line twice under one check name
        argv = ["kan", "--preset", "s3-counterexample", "--construction", "column",
                "--index", "1", "--max-dim", "1"]
        assert run(argv + ["--index", "1"]) == (2, None)
        assert capsys.readouterr().err == "error: --index values must be distinct\n"
        code, report = run_report(argv + ["--index", "0"])
        assert code == 0
        assert [c.name for c in report.checks] == ["kan-column-1", "kan-column-0"]

    def test_oversized_nerve_rejected_quickly(self, capsys):
        # row 40 needs the vertical bound 40, so this asks for a 1 x 40
        # double nerve: column 0 alone would reach 2^40 strings; its first
        # level over the budget, level 20 with 21 face tables of 2^20
        # entries, is refused before it is allocated
        argv = ["kan", "--preset", "s3-counterexample", "--construction", "row",
                "--index", "40", "--max-dim", "1"]
        start = time.perf_counter()
        assert run(argv) == (2, None)
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"error: nerve level 20 would hold {2 ** 20} simplices in {21 * 2 ** 20} "
            f"face-table entries, over the limit of {MAX_LEVEL_ENTRIES}\n"
        )

    def test_failing_double_nerve_verdict_does_not_grow_with_max_dim(self):
        # the S4 pair's diagonal fails at n = 2, and its double nerve is
        # built a level at a time under the check, so every bound gives the
        # n = 2 certificate at the cost of the build to level 2: level 6,
        # whose rows hold up to 520192 simplices, is never reached
        def verdict(max_dim):
            argv = ["kan", "--input", "bench/inputs/s4_pair.json",
                    "--construction", "double-nerve-diagonal", "--max-dim", str(max_dim)]
            code, report = run_report(argv)
            assert code == 1
            data = report.verdict_dict()
            assert data["config"].pop("max_dim") == max_dim
            [check] = data["checks"]
            assert check["details"].pop("max_dim") == max_dim
            assert check["details"]["report"].pop("max_dim") == max_dim
            return data

        expected = verdict(3)
        assert expected["checks"][0]["details"]["report"]["failure"]["family"]["n"] == 2
        for max_dim in (4, 5, 6):
            # the best of three runs, so that one descheduling is not read as
            # a build of the levels above 2 (0.1 s at 4 and 1 s at 5 when it
            # was built, and a refusal at 6)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert verdict(max_dim) == expected
                times.append(time.perf_counter() - start)
            assert min(times) < 0.02

    def test_oversized_product_rejected_quickly(self, capsys):
        # the S3 eg-tensor diagonal at dim 4 and 5 is decided from its factor
        # EG(S3), so it is never built: at 5 its top level would hold 6^12
        # simplices, over the size budget
        for max_dim, families in ((4, 309189384), (5, 13369883400)):
            argv = ["kan", "--input", "tests/inputs/s3.json", "--construction",
                    "eg-tensor-diagonal", "--max-dim", str(max_dim), "--format", "structured"]
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["checks"][0]["details"]["report"]["families_checked"] == families
        # built directly, that product is refused before its levels are
        # allocated.  Given as its stages with a factor that fails (Delta[3]
        # is not Kan, and its level 5 has 84 simplices, which would put the
        # product's level 5 over the budget), it is searched on its stages,
        # which stop at the failing level 2: the report is the full search's
        # of the product built to 2, and no stage above 2 is built
        eg = eg_construction(symmetric_group_preset(3), 5)
        start = time.perf_counter()
        with pytest.raises(RejectedInput) as direct:
            product(eg, eg)
        stages = product_stages(eg, standard_simplex(3, 5))
        staged = fibration_report_to_dict(check_kan_to_point(stages, 5))
        assert time.perf_counter() - start < 2
        assert str(direct.value) == (
            f"product level 4 would hold {6 ** 10} simplices in {5 * 6 ** 10} "
            f"face-table entries, over the limit of {MAX_LEVEL_ENTRIES}"
        )
        assert len(stages._stages) == 3
        small = product(eg_construction(symmetric_group_preset(3), 2), standard_simplex(3, 2))
        full = fibration_report_to_dict(check_kan_to_point(unrecorded_copy(small), 2))
        assert (staged.pop("max_dim"), full.pop("max_dim")) == (5, 2)
        assert staged == full
        assert not staged["passed"] and staged["failure"]["family"]["n"] == 2

    def test_oversized_tensor_rejected_quickly(self, capsys):
        # the S3 eg-tensor at total dim 4 has levels of up to 7776^2
        # bisimplices, but its sweep reads the factor EG(S3) and builds no
        # line, so it passes with its closed-form problem count
        argv = ["pointwise", "--input", "tests/inputs/s3.json", "--max-total-dim", "4",
                "--format", "structured"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["details"]["report"]["problems_checked"] == 1273680
        # a line is held to the budget when it is built: row 4 of the tensor
        # at bounds (5, 4) would hold 6^4 * 6^5 bisimplices at its level 3,
        # in 4 face tables, and is refused before that level is allocated
        argv = ["kan", "--input", "tests/inputs/s3.json", "--construction", "row",
                "--index", "4", "--max-dim", "5"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"error: row 4 level 3 would hold {6 ** 4 * 6 ** 5} simplices in "
            f"{4 * 6 ** 4 * 6 ** 5} face-table entries, over the limit of {MAX_LEVEL_ENTRIES}\n"
        )

    def test_oversized_eg_rejected_quickly(self, capsys):
        # EG(S4)'s level 4 would hold 24^5 simplices in 5 face tables, over
        # the budget: refused before any table is built
        argv = ["kan", "--input", "bench/inputs/s4_pair.json", "--construction",
                "eg-tensor-diagonal", "--max-dim", "4"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"error: EG level 4 would hold {24 ** 5} simplices in {5 * 24 ** 5} "
            f"face-table entries, over the limit of {MAX_LEVEL_ENTRIES}\n"
        )

    def test_oversized_eg_refused_by_its_count(self, capsys, table_builds):
        # EG(S3)'s level 8 would hold 6^9 simplices: every level's count is
        # known in closed form, so the refusal comes before any table or
        # layout is built
        argv = ["kan", "--input", "tests/inputs/s3.json", "--construction",
                "eg-tensor-diagonal", "--max-dim", "8"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"error: EG level 8 would hold {6 ** 9} simplices in {9 * 6 ** 9} "
            f"face-table entries, over the limit of {MAX_LEVEL_ENTRIES}\n"
        )
        assert (9 * 6 ** 9, MAX_LEVEL_ENTRIES) == (90699264, 16777216)
        assert table_builds == []

    def test_oversized_level_refused_when_the_check_reaches_it(self, capsys, monkeypatch):
        # the z2-commuting diagonal passes, so its check reaches level 3,
        # where row 2's layout would hold 2048 simplices in 4 face tables
        # (at dim 2 no level holds more than 768 entries): refused with the
        # message the build gives in full
        monkeypatch.setattr(kancheck.simplicial, "MAX_LEVEL_ENTRIES", 4000)
        argv = ["kan", "--preset", "z2-commuting", "--construction", "double-nerve-diagonal"]
        assert run(argv + ["--max-dim", "2"])[0] == 0
        capsys.readouterr()
        assert run(argv + ["--max-dim", "3"]) == (2, None)
        assert capsys.readouterr().err == (
            "error: nerve level 3 would hold 2048 simplices in 8192 face-table entries, "
            "over the limit of 4000\n"
        )


MATRIX_SOURCES = {
    **{name: ["--preset", name] for name in ("s3-counterexample", "z2-commuting", "eg-tensor")},
    **{Path(path).stem: ["--input", path] for path in (
        "tests/inputs/lawless_set.json", "tests/inputs/s3.json", "tests/inputs/z2_nerve.json",
        "bench/inputs/s4_pair.json",
    )},
}
KAN_CONSTRUCTIONS = ("nerve", "double-nerve-diagonal", "eg-tensor-diagonal", "row", "column",
                     "simplicial-set")


def matrix_refusal(source, construction):
    """What a source and a construction (or ``pointwise``) are refused with
    at dim 1, or None when the run exits 0."""
    if construction == "simplicial-set":
        if source == "lawless_set":
            return ("simplicial-set record breaks the simplicial identities: "
                    "face-degen-cancel at n=0, i=1, j=0, simplex 0: 0#1 != 0#0")
        if source != "z2_nerve":
            lacking = "the input file" if source in ("s3", "s4_pair") else f"preset {source}"
            return f"construction simplicial-set needs a simplicial_set record, and {lacking} has none"
        return None
    if source in ("lawless_set", "z2_nerve"):
        # a record-only input has no group, which every other construction needs
        what = "command pointwise" if construction == "pointwise" else f"construction {construction}"
        return f"{what} needs a group, and the input file has none"
    # every preset and every group input is accepted, the pair presets by
    # eg-tensor-diagonal too (on their group, as for the S4 pair input)
    return None


class TestSourceMatrix:
    @pytest.mark.parametrize("construction", KAN_CONSTRUCTIONS + ("pointwise",))
    @pytest.mark.parametrize("source", MATRIX_SOURCES)
    def test_source_and_construction(self, capsys, source, construction):
        # each source against each construction: the exit status and stderr
        # are pinned, and a refusal names the construction or command and
        # what the source lacks
        if construction == "pointwise":
            argv = ["pointwise", *MATRIX_SOURCES[source], "--max-total-dim", "1"]
        else:
            argv = ["kan", *MATRIX_SOURCES[source], "--construction", construction,
                    "--max-dim", "1"]
        refusal = matrix_refusal(source, construction)
        assert main(argv) == (0 if refusal is None else 2)
        captured = capsys.readouterr()
        assert captured.err == ("" if refusal is None else f"error: {refusal}\n")
        assert (captured.out == "") == (refusal is not None)


class TestExitStatus:
    """0 as expected, 1 a check otherwise, 2 rejected input, 3 a crash."""

    KAN = ["kan", "--preset", "eg-tensor", "--construction", "eg-tensor-diagonal",
           "--max-dim", "2"]

    @pytest.mark.parametrize("raised", [
        InternalInvariantError("a product's levels are not\nits factors' products"),
        MemoryError(),
        KeyError(3),
    ], ids=["invariant", "memory", "other"])
    def test_crash_exits_3(self, capsys, monkeypatch, raised):
        def crashing(X, max_dim):
            raise raised

        monkeypatch.setattr(cli, "check_kan_to_point", crashing)
        assert main(self.KAN) == cli.CRASHED == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"internal error: {type(raised).__name__}")
        # run's contract is unchanged: the exception reaches its caller
        with pytest.raises(type(raised)):
            run(self.KAN)

    def test_verdicts_and_refusals_keep_their_status(self, capsys):
        assert main(self.KAN) == 0
        s3_diagonal = ["kan", "--preset", "s3-counterexample",
                       "--construction", "double-nerve-diagonal", "--max-dim", "2"]
        assert main(s3_diagonal) == 1
        assert main(self.KAN[:-1] + ["0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["kan", "--input", "", "--construction", "nerve"],
        ["pointwise", "--input", ""],
    ], ids=["kan", "pointwise"])
    def test_empty_input_path_is_read_and_refused(self, capsys, argv):
        # an empty path is a path: it is read, and refused, not taken for
        # no input
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot read input file '': ")

    @pytest.mark.parametrize("max_dim", ["0", "-1"])
    def test_max_dim_below_one_refused_before_any_build(self, capsys, monkeypatch, max_dim):
        # a build would crash here (exit 3): the bound is refused first
        monkeypatch.setattr(cli, "_build_kan_objects", None)
        assert main(self.KAN[:-1] + [max_dim]) == 2
        assert capsys.readouterr().err == "error: max_dim must be at least 1\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)

# valid records and the kan construction that reads each
VALID_INPUTS = (
    ({"group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]}}, "nerve"),
    ({"group": {"degree": 3, "generators": [[2, 1, 3]]}}, "nerve"),
    ({"group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]},
      "subgroup_a": ["e"], "subgroup_b": ["e", "g"]}, "double-nerve-diagonal"),
    ({"simplicial_set": simplicial_to_dict(nerve(one_object_groupoid(cyclic_group(2)), 2))},
     "simplicial-set"),
)


def node_paths(node, path=()):
    """The path to every node of a JSON value, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(tmp_path_factory, data):
    # any one node of a valid record replaced by any JSON value gives a verdict
    # or rejected input (exit 2), never a traceback
    record, construction = data.draw(st.sampled_from(VALID_INPUTS))
    record = json.loads(json.dumps(record))
    path = data.draw(st.sampled_from(list(node_paths(record))))
    value = data.draw(JSON_VALUES)
    if path:
        node = record
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        record = value
    source = tmp_path_factory.mktemp("mutated") / "input.json"
    source.write_text(json.dumps(record))
    code, _ = run(["kan", "--input", str(source), "--construction", construction,
                   "--max-dim", "2"])
    assert code in (0, 1, 2)


class TestPointwiseCommand:
    def test_eg_tensor_passes(self):
        code, report = run_report(
            ["pointwise", "--preset", "eg-tensor", "--max-total-dim", "2"]
        )
        assert code == 0

    def test_s3_precondition_fails(self):
        code, report = run_report(
            ["pointwise", "--preset", "s3-counterexample", "--max-total-dim", "2"]
        )
        assert code == 1
        assert report.checks[0].name == "diagonal-kan-precondition"

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dim_below_one_rejected(self, capsys, dim):
        # a bad argument exits 2; it is not a failed precondition check
        assert run(["pointwise", "--preset", "eg-tensor", "--max-total-dim", dim]) == (2, None)
        assert "error: max-total-dim must be at least 1" in capsys.readouterr().err


class TestCounterexampleCommand:
    def test_s3_certificate(self):
        code, report = run_report(["counterexample", "--preset", "s3-counterexample"])
        assert code == 0
        names = [c.name for c in report.checks]
        assert "subgroup-products-differ" in names
        assert "diagonal-horn-unfillable" in names
        assert sum(1 for n in names if n.startswith("column-")) == 3
        assert sum(1 for n in names if n.startswith("row-")) == 3

    def test_z2_inapplicable(self):
        code, report = run_report(["counterexample", "--preset", "z2-commuting"])
        assert code == 0
        check = report.checks[0]
        assert not check.passed and not check.expected_to_pass

    def test_eg_tensor_certificate(self):
        code, report = run_report(["counterexample", "--preset", "eg-tensor"])
        assert code == 0
        by_name = {c.name: c for c in report.checks}
        assert by_name["diagonal-trivial-fibration"].passed
        assert by_name["rows-not-contractible"].details["pi0_by_row"] == [2, 4, 8]


class TestReportContract:
    def test_round_trip_lossless(self):
        _, report = run_report(["counterexample", "--preset", "eg-tensor"])
        data = report.to_dict()
        json.dumps(data)
        again = RunReport.from_dict(data)
        assert again.to_dict() == data

    def test_structured_output_parses(self, capsys):
        code, _ = run(["identities", "--max-n", "3", "--format", "structured"])
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["overall_ok"] is True

    def test_verdicts_reproducible(self):
        _, a = run_report(["counterexample", "--preset", "s3-counterexample"])
        _, b = run_report(["counterexample", "--preset", "s3-counterexample"])
        assert a.verdict_dict() == b.verdict_dict()


# the two reports that carry a failure certificate, each with the path to
# its certificate: the kan report's failure, and the counterexample's horn
CERTIFIED_REPORTS = {
    "kan-failure": (
        ["kan", "--preset", "s3-counterexample",
         "--construction", "double-nerve-diagonal", "--max-dim", "2"],
        lambda data: data["checks"][0]["details"]["report"]["failure"],
    ),
    "counterexample-horn": (
        ["counterexample", "--preset", "s3-counterexample"],
        lambda data: next(
            c for c in data["checks"] if c["name"] == "diagonal-horn-unfillable"
        )["details"]["certificate"],
    ),
}


def face_ref(family, t):
    """The record of the family's face at its t-th index."""
    return family["faces"][str(family["index_set"][t])]


# every field of a certificate's family, each changed on its own
FAMILY_TAMPERS = {
    "first-face-id": lambda fam: face_ref(fam, 0).update(id=face_ref(fam, 0)["id"] + 1),
    "second-face-id": lambda fam: face_ref(fam, 1).update(id=face_ref(fam, 1)["id"] - 1),
    "face-label": lambda fam: face_ref(fam, 0).update(label="forged"),
    "target-id": lambda fam: fam["target"].update(id=fam["target"]["id"] + 1),
    "index-set": lambda fam: fam.update(index_set=fam["index_set"][::-1]),
    "n": lambda fam: fam.update(n=fam["n"] + 1),
}


class TestReverify:
    @pytest.mark.parametrize("field", sorted(FAMILY_TAMPERS))
    @pytest.mark.parametrize("source", sorted(CERTIFIED_REPORTS))
    def test_tampered_certificate_family_detected(self, source, field):
        argv, certificate = CERTIFIED_REPORTS[source]
        _, report = run_report(argv)
        assert reverify_report(report)
        data = detached_dict(report)
        family = certificate(data)["family"]
        FAMILY_TAMPERS[field](family)
        assert family != certificate(detached_dict(report))["family"]
        assert not reverify_report(RunReport.from_dict(data))

    def test_counterexample_witnesses_reverify(self):
        _, report = run_report(["counterexample", "--preset", "s3-counterexample"])
        assert reverify_report(report)

    def test_kan_failure_witness_reverifies(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample",
             "--construction", "double-nerve-diagonal", "--max-dim", "2"]
        )
        assert reverify_report(report)

    def test_tampered_witness_detected(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample",
             "--construction", "double-nerve-diagonal", "--max-dim", "2"]
        )
        data = detached_dict(report)
        failure = data["checks"][0]["details"]["report"]["failure"]
        failure["outcome"] = "filled"
        failure["witness"] = {"dim": 2, "id": 0, "label": "forged"}
        assert not reverify_report(RunReport.from_dict(data))
        assert reverify_report(report)

    def test_passing_report_reverifies(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        assert report.overall_ok
        assert reverify_report(RunReport.from_dict(report.to_dict()))

    def test_reverify_prints_nothing(self, capsys):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3", "--format", "structured"]
        )
        capsys.readouterr()
        assert reverify_report(report)
        assert capsys.readouterr().out == ""

    def test_tampered_passing_count_detected(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        data = detached_dict(report)
        data["checks"][0]["details"]["report"]["families_checked"] = 999999
        assert not reverify_report(RunReport.from_dict(data))

    def test_consistently_tampered_counts_detected(self):
        # every cell one family larger, every cell still full, the total re-summed:
        # a report whose counts agree with each other, but not with a re-run
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        data = detached_dict(report)
        for check in data["checks"]:
            embedded = check["details"]["report"]
            for cell in embedded["cells"]:
                cell["families"] += 1
                cell["filled"] += 1
            embedded["families_checked"] = sum(c["families"] for c in embedded["cells"])
        assert not reverify_report(RunReport.from_dict(data))
        assert reverify_report(report)

    @pytest.mark.parametrize("tamper", [
        lambda data: data["checks"][0]["details"]["report"].update(passed=False),
        # with as_expected and overall_ok flipped to match, so it reads back
        lambda data: (
            data["checks"][0].update(passed=False, as_expected=False),
            data.update(overall_ok=False),
        ),
        lambda data: data["checks"][0]["details"]["report"]["cells"][0].update(filled=0),
    ], ids=["report-passed", "check-passed", "cell-filled"])
    def test_tampered_passing_verdict_detected(self, tamper):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        data = detached_dict(report)
        tamper(data)
        assert not reverify_report(RunReport.from_dict(data))

    @pytest.mark.parametrize("tamper", [
        lambda data: data.update(overall_ok=False),
        lambda data: data["checks"][0].update(as_expected=False),
        lambda data: (data.update(overall_ok=False), data["checks"][0].update(as_expected=False)),
        lambda data: data["checks"][0].update(passed=False),
    ], ids=["overall-ok", "as-expected", "both", "passed"])
    def test_tampered_expectation_rejected(self, tamper):
        # as_expected and overall_ok follow from passed and expected_to_pass,
        # so a report that records other values is not read back at all
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        assert report.overall_ok
        data = detached_dict(report)
        tamper(data)
        with pytest.raises(RejectedInput):
            RunReport.from_dict(data)

    @pytest.mark.parametrize("malformed", [
        lambda data: {"command": "kan"},
        lambda data: {
            **data,
            "checks": [{k: v for k, v in data["checks"][0].items() if k != "passed"}],
        },
        lambda data: {**data, "checks": 5},
    ], ids=["no-config", "check-without-passed", "checks-not-a-list"])
    def test_malformed_report_rejected(self, malformed):
        # a report with a missing or ill-typed entry is refused, not crashed on
        _, report = run_report(["identities", "--max-n", "4"])
        with pytest.raises(RejectedInput):
            RunReport.from_dict(malformed(detached_dict(report)))

    def test_tampered_sweep_totals_detected(self):
        _, report = run_report(
            ["pointwise", "--preset", "eg-tensor", "--max-total-dim", "2"]
        )
        assert reverify_report(report)
        for field in ("problems_checked", "families_verified_compatible"):
            data = detached_dict(report)
            data["checks"][0]["details"]["report"][field] += 1
            assert not reverify_report(RunReport.from_dict(data))

    def test_failed_sweep_does_not_reverify(self):
        # a consistent report of a sweep failure, which no real run can produce:
        # the last transposed horn is recorded as unfilled
        _, report = run_report(
            ["pointwise", "--preset", "eg-tensor", "--max-total-dim", "2"]
        )
        data = detached_dict(report)
        check = data["checks"][0]
        sweep = check["details"]["report"]
        last = sweep["transposed_cells"][-1]
        last["filled"] -= 1
        sweep["failure"] = {
            "transposed": True, "p": last["p"], "q": last["q"], "missing": last["missing"],
        }
        sweep["passed"] = check["passed"] = check["as_expected"] = data["overall_ok"] = False
        check["summary"] = "a pointwise horn problem could not be filled"
        failed = RunReport.from_dict(data)
        assert not failed.overall_ok
        assert reverify_report(failed) is False


def test_parser_lists_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for cmd in ("identities", "kan", "pointwise", "counterexample"):
        assert cmd in help_text


SOURCE = ["--preset", "eg-tensor"]

# argv forms over every command: help, a missing required argument, a bad
# choice, a bad int, an unknown option, a stray word, "--", an abbreviated
# option, "=", and the argvs no command's parser reads
PARSE_CORPUS = {
    "no-words": [],
    "unknown-command": ["frobnicate", "--preset", "eg-tensor"],
    "help": ["--help"],
    "h": ["-h"],
    "option-first": ["--format", "text", "kan", *SOURCE, "--construction", "nerve"],
    "dashes-first": ["--", "identities"],
    "identities": ["identities"],
    "identities-help": ["identities", "-h"],
    "identities-max-n": ["identities", "--max-n", "2", "--format", "structured"],
    "identities-bad-int": ["identities", "--max-n", "six"],
    "identities-no-value": ["identities", "--max-n"],
    "identities-stray": ["identities", "stray"],
    "kan-help": ["kan", "--help"],
    "kan-help-last": ["kan", *SOURCE, "--construction", "nerve", "--help"],
    "kan-no-construction": ["kan", *SOURCE],
    "kan-no-source": ["kan", "--construction", "nerve"],
    "kan-bad-choice": ["kan", "--preset", "nope", "--construction", "nerve"],
    "kan-bad-index": ["kan", *SOURCE, "--construction", "row", "--index", "x"],
    "kan-bogus": ["kan", *SOURCE, "--construction", "nerve", "--bogus"],
    "kan-dashes": ["kan", "--", *SOURCE, "--construction", "nerve"],
    "kan-dashes-last": ["kan", *SOURCE, "--construction", "nerve", "--"],
    "kan-abbreviated": ["kan", "--pre", "eg-tensor", "--construction", "nerve"],
    "kan-equals": ["kan", "--preset=eg-tensor", "--construction=row", "--index", "0",
                   "--index=2", "--max-dim", "2"],
    "pointwise-help": ["pointwise", "--help"],
    "pointwise-no-source": ["pointwise"],
    "pointwise-both-sources": ["pointwise", *SOURCE, "--input", "s3.json"],
    "pointwise-stray": ["pointwise", *SOURCE, "stray", "--max-total-dim", "2"],
    "pointwise-input": ["pointwise", "--input", "s3.json", "--max-total-dim", "2",
                        "--format", "structured"],
    "counterexample-help": ["counterexample", "--help"],
    "counterexample-no-preset": ["counterexample"],
    "counterexample-bad-format": ["counterexample", *SOURCE, "--format", "xml"],
    "counterexample": ["counterexample", "--preset", "s3-counterexample"],
}


# values a seeded argv draws besides an argument's good and bad ones: the empty
# string, and values led by "-", which the table route leaves to argparse
ODD_VALUES = ("", "-1", "-", "-x")


def drawn_value(rng, keywords):
    """A good value of the argument four times in five, else a bad or odd one."""
    if "choices" in keywords:
        good, bad = keywords["choices"], ("nope", *ODD_VALUES)
    elif keywords.get("type") is int:
        good, bad = ("0", "1", "2"), ("x", "1.5", *ODD_VALUES)
    else:
        good, bad = ("s3.json",), ODD_VALUES
    return rng.choice(good if rng.random() < 0.8 else bad)


def seeded_argvs(seed, count):
    """``count`` argvs drawn from ``cli.COMMANDS``: each argument given zero to
    two times, one source, both or neither, and now and then a stray word, an
    unknown, abbreviated or ``--flag=value`` flag, or a trailing flag with no
    value."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(cli.COMMANDS))
        _, _, source, arguments = cli.COMMANDS[command]
        pairs = []
        for flag, keywords in (*arguments, cli.FORMAT):
            weights = (1, 8, 1) if keywords.get("required") else (5, 4, 1)
            times = rng.choices((0, 1, 2), weights)[0]
            pairs += [[flag, drawn_value(rng, keywords)] for _ in range(times)]
        if source:
            chosen = rng.choices((1, 2, 0), (8, 1, 1))[0]
            sources = rng.sample(source, len(source))[:chosen]
            pairs += [[flag, drawn_value(rng, keywords)] for flag, keywords in sources]
        rng.shuffle(pairs)
        if pairs and rng.random() < 0.1:
            pair = rng.choice(pairs)
            pair[:] = ["=".join(pair)]
        if pairs and rng.random() < 0.1:
            pair = rng.choice(pairs)
            pair[0] = pair[0][:5]
        if rng.random() < 0.1:
            pairs.insert(rng.randint(0, len(pairs)), [rng.choice(("stray", "--bogus"))])
        words = [command] + [word for pair in pairs for word in pair]
        if rng.random() < 0.1:
            words.append(rng.choice([flag for flag, _ in (*source, *arguments, cli.FORMAT)]))
        yield words


class TestParseRoutes:
    """``run`` reads a valid argv from ``cli.COMMANDS`` with no parser, and
    leaves any other to the full parser; every argv must come out as the
    full parser reads it."""

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result, status = parse(argv), None
        except SystemExit as exc:
            result, status = None, exc.code
        captured = capsys.readouterr()
        return result, status, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
    def test_routes_agree(self, argv, capsys):
        expected = self.outcome(build_parser().parse_args, argv, capsys)
        if expected[1] is None:
            # a valid argv: the same Namespace, and nothing printed
            assert self.outcome(cli._parse, argv, capsys) == expected
        else:
            # the same exit status, help or error, byte for byte
            assert self.outcome(main, argv, capsys) == expected

    def test_seeded_argvs_agree(self, capsys):
        read = argparse_only = refused = 0
        for argv in seeded_argvs(seed=37, count=400):
            expected = self.outcome(build_parser().parse_args, argv, capsys)
            if expected[1] is None:
                # a valid argv: the same Namespace, and nothing printed
                assert self.outcome(cli._parse, argv, capsys) == expected, argv
                if cli._read(argv) is None:
                    argparse_only += 1
                else:
                    read += 1
            else:
                # no command runs: the table route refuses the argv, and the
                # full parser prints the same help or error, byte for byte
                assert cli._read(argv) is None, argv
                assert self.outcome(main, argv, capsys) == expected, argv
                refused += 1
        # the draw reaches each route
        assert min(read, argparse_only, refused) >= 40, (read, argparse_only, refused)

    def test_a_run_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        # an empty cache of this test's own, so that earlier tests' parser
        # does not count
        monkeypatch.setattr(cli, "_parser", cache(cli.build_parser))
        code, report = run(TestExitStatus.KAN)
        assert code == 0 and reverify_report(report)
        assert built == []
        # an abbreviated flag is the full parser's to read: it is built once
        abbreviated = ["kan", "--pre", "eg-tensor", "--construction", "nerve", "--max-dim", "2"]
        assert run(abbreviated)[0] == run(abbreviated)[0] == 0
        assert built == ["kancheck"] + [f"kancheck {name}" for name in cli.COMMANDS]

    def test_a_run_imports_no_locale(self, tmp_path):
        # argparse imports locale for its first message; a valid run prints
        # none, so in a fresh process it never imports it
        script = (
            "import sys\n"
            "from kancheck.cli import reverify_report, run\n"
            f"code, report = run({TestExitStatus.KAN!r} + ['--format', 'structured'])\n"
            "assert code == 0 and reverify_report(report)\n"
            "print(sorted({'argparse', 'locale'} & set(sys.modules)))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path, check=True)
        assert done.stdout.splitlines()[-1] == "['argparse']"
