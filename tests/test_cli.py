import json
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import kancheck.cli as cli
from kancheck import cyclic_group, nerve, one_object_groupoid
from kancheck.cli import RunReport, build_parser, main, reverify_report, run
from kancheck.errors import RejectedInput
from kancheck.groupoids import MAX_LEVEL
from kancheck.serialize import simplicial_to_dict


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

        monkeypatch.setattr(cli, "tensor", refuse)
        monkeypatch.setattr(cli, "diagonal", refuse)
        golden = Path(__file__).parent / "golden" / "kan-eg-tensor-diagonal.json"
        expected = json.loads(golden.read_text(encoding="utf-8"))["checks"]
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]}}))
        for source in (["--preset", "eg-tensor"], ["--input", str(path)]):
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

        def recording(*args, build=cli._bisimplicial_from_source):
            X = build(*args)
            built.append(X.bounds)
            return X

        monkeypatch.setattr(cli, "_bisimplicial_from_source", recording)
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

    def test_input_set_breaking_a_law_rejected(self, tmp_path, capsys):
        # two vertices and one edge from 1 to 0 whose degeneracy s_0 sends
        # both vertices to it: d_1 s_0 != id at vertex 0, so this is not a
        # simplicial set, and it gets no Kan verdict
        record = {
            "kind": "simplicial-set", "counts": [2, 1],
            "faces": [[], [[0], [1]]], "degeneracies": [[[0, 0]], []],
        }
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"simplicial_set": record}))
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

    def test_index_outside_lines_rejected(self, capsys):
        argv = ["kan", "--preset", "eg-tensor", "--construction", "nerve", "--max-dim", "2"]
        assert run(argv + ["--index", "7"]) == (2, None)
        assert "error: --index applies only to" in capsys.readouterr().err
        assert run(argv)[0] == 0

    def test_oversized_nerve_rejected_quickly(self, capsys):
        # row 40 needs the vertical bound 40, so this asks for a 1 x 40
        # double nerve: column 0 alone would reach 2^40 strings; its first
        # level over the limit is refused before it is allocated
        argv = ["kan", "--preset", "s3-counterexample", "--construction", "row",
                "--index", "40", "--max-dim", "1"]
        start = time.perf_counter()
        assert run(argv) == (2, None)
        assert time.perf_counter() - start < 2
        assert f"simplices, over the limit of {MAX_LEVEL}" in capsys.readouterr().err


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


class TestReverify:
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
