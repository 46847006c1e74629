import json

import pytest

from kancheck.cli import RunReport, build_parser, main, reverify_report, run


def run_report(argv):
    code, report = run(argv)
    assert report is not None
    return code, report


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
        code, report = run_report(
            ["kan", "--input", str(path), "--construction", "nerve", "--max-dim", "2"]
        )
        assert code == 0

    def test_input_file_explicit_set(self, tmp_path, z2_nerve):
        from kancheck.serialize import simplicial_to_dict

        payload = {"simplicial_set": simplicial_to_dict(z2_nerve)}
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        code, report = run_report(
            ["kan", "--input", str(path), "--construction", "simplicial-set",
             "--max-dim", "3"]
        )
        assert code == 0

    def test_missing_source_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["kan", "--construction", "nerve"])


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
        failure = report.checks[0].details["report"]["failure"]
        failure["outcome"] = "filled"
        failure["witness"] = {"dim": 2, "id": 0, "label": "forged"}
        assert not reverify_report(report)

    def test_passing_report_reverifies(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        assert report.overall_ok
        assert reverify_report(RunReport.from_dict(report.to_dict()))

    def test_tampered_passing_count_detected(self):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        data = report.to_dict()
        data["checks"][0]["details"]["report"]["families_checked"] = 999999
        assert not reverify_report(RunReport.from_dict(data))

    @pytest.mark.parametrize("tamper", [
        lambda check: check["details"]["report"].update(passed=False),
        lambda check: check.update(passed=False),
        lambda check: check["details"]["report"]["cells"][0].update(filled=0),
    ], ids=["report-passed", "check-passed", "cell-filled"])
    def test_tampered_passing_verdict_detected(self, tamper):
        _, report = run_report(
            ["kan", "--preset", "s3-counterexample", "--construction", "column",
             "--max-dim", "3"]
        )
        data = report.to_dict()
        tamper(data["checks"][0])
        assert not reverify_report(RunReport.from_dict(data))

    def test_tampered_sweep_totals_detected(self):
        _, report = run_report(
            ["pointwise", "--preset", "eg-tensor", "--max-total-dim", "2"]
        )
        assert reverify_report(report)
        for field in ("problems_checked", "families_verified_compatible"):
            data = report.to_dict()
            data["checks"][0]["details"]["report"][field] += 1
            assert not reverify_report(RunReport.from_dict(data))

    def test_failed_sweep_does_not_reverify(self, monkeypatch):
        import kancheck.pointwise
        from kancheck.cli import _report_consistent
        from kancheck.kan import FillCertificate

        # a consistent report of a sweep failure, which no real run can produce
        monkeypatch.setattr(
            kancheck.pointwise, "fill_partial_horn",
            lambda family: FillCertificate(family, None, 0),
        )
        code, report = run_report(
            ["pointwise", "--preset", "eg-tensor", "--max-total-dim", "2"]
        )
        monkeypatch.undo()
        assert code == 1
        check = report.checks[0]
        assert check.details["report"]["failure"] is not None
        assert _report_consistent(check.passed, check.details["report"])
        assert reverify_report(RunReport.from_dict(report.to_dict())) is False


def test_parser_lists_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for cmd in ("identities", "kan", "pointwise", "counterexample"):
        assert cmd in help_text
