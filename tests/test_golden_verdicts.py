"""The verdicts of the README's command lines, compared with committed copies.

Each file under ``tests/golden`` holds ``RunReport.verdict_dict()`` of one
README command, or of one of the ``PINNED`` commands that cover the other
constructions and the pointwise precondition failure, as JSON.  Any change
that moves a verdict, a count, a certificate id or a label fails here, and
each committed verdict must re-verify by re-running its own config.
"""

import hashlib
import json
from pathlib import Path

import pytest

import kancheck.cli
import kancheck.kan
import kancheck.pointwise
from kancheck import product
from kancheck.cli import RunReport, reverify_report, run
from kancheck.simplicial import TruncatedSimplicialSet

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
    # the S3 eg-tensor sweep (8784 problems), whose diagonal Kan check
    # searches one family per orbit of S3 x S3 (|H_0| = 36)
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
    for module in (kancheck.kan, kancheck.pointwise):
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
    # the checks saw blocks of up to ``rows`` rows, and some that long
    assert longest == (0 if name == "identities" else rows)


def without_action(X):
    """The same tables as X, with no group action: the full search runs."""
    return TruncatedSimplicialSet(X.counts, X._faces, X._degens)


def test_s3_diagonal_spans_many_default_blocks(capsys, monkeypatch):
    # the eg-tensor diagonal of S3 at dim 2: each dim-2 cell has 46656 rows,
    # about three blocks at the default BLOCK_ROWS, where no golden cell
    # outgrows one; the verdict is pinned by the hash of its sorted-key JSON.
    # The product is built without its action, so every family is searched
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(kancheck.cli, "product", lambda A, B: without_action(product(A, B)))
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


def test_s3_diagonal_searches_one_family_per_orbit(capsys, monkeypatch):
    # the same command on the product with its action: S3 x S3 acts freely,
    # so each dim-2 cell searches 46656 / 36 = 1296 representatives, and the
    # verdict is the full search's, hash for hash
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
    assert sizes == [1, 1, 1296, 1296, 1296]
    text = json.dumps(report.verdict_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "80f1247e7dcb8e420fb5dba1a3d868b9dc4f1805026bc0332810dd39ddef60ce"
    )


def test_s3_diagonal_dim3_rung(capsys, monkeypatch):
    # the S3 eg-tensor diagonal at dim 3: 6858504 families, of which the
    # orbit search visits one in 36; pinned by its per-cell counts and the
    # hash of its structured-format verdict (the config records the format)
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
