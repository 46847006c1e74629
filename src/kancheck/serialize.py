"""Structured (JSON-ready) forms of sets, certificates and reports.

Simplicial data serializes to plain dictionaries of counts and tables;
witnesses reference simplices by dimension and id together with their label,
so certificates can be re-verified against a freshly rebuilt object.
"""

from __future__ import annotations

from typing import Any

from .errors import RejectedInput
from .kan import CompatibleFamily, FibrationReport, FillCertificate
from .pointwise import PointwiseSweepReport
from .simplicial import Simplex, TruncatedSimplicialSet


def simplicial_to_dict(X: TruncatedSimplicialSet) -> dict[str, Any]:
    return {
        "kind": "simplicial-set",
        "bound": X.bound,
        "counts": list(X.counts),
        "faces": [[list(t) for t in X._faces[n]] for n in range(X.bound + 1)],
        "degeneracies": [[list(t) for t in X._degens[n]] for n in range(X.bound + 1)],
        "labels": None if X._labels is None else [X.labels_at(n) for n in range(X.bound + 1)],
    }


def required_entry(data: dict[str, Any], key: str, record: str) -> Any:
    """``data[key]``, or a rejection naming the key the record lacks."""
    try:
        return data[key]
    except KeyError:
        raise RejectedInput(f"{record} has no {key!r} entry") from None


def json_shape(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is a ``kind`` (dict, list, int, bool or str), else a rejection."""
    if not isinstance(value, kind):
        raise RejectedInput(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def json_int_array(value: Any, depth: int, what: str) -> Any:
    """``value`` when it is integers nested ``depth`` lists deep, else a rejection."""
    if depth == 0:
        return json_shape(value, int, what)
    return [json_int_array(v, depth - 1, what) for v in json_shape(value, list, what)]


def simplicial_from_dict(data: dict[str, Any]) -> TruncatedSimplicialSet:
    record = "simplicial-set record"
    if json_shape(data, dict, record).get("kind") != "simplicial-set":
        raise RejectedInput("expected a simplicial-set record")
    labels = data.get("labels")
    return TruncatedSimplicialSet(
        json_int_array(required_entry(data, "counts", record), 1, "counts"),
        json_int_array(required_entry(data, "faces", record), 3, "faces"),
        json_int_array(required_entry(data, "degeneracies", record), 3, "degeneracies"),
        None if labels is None else [
            json_shape(level, list, "labels") for level in json_shape(labels, list, "labels")
        ],
    )


def simplex_ref(X: TruncatedSimplicialSet, x: Simplex) -> dict[str, Any]:
    return {"dim": x.dim, "id": x.idx, "label": X.label(x)}


def family_to_dict(family: CompatibleFamily) -> dict[str, Any]:
    X, Y = family.f.domain, family.f.codomain
    return {
        "n": family.n,
        "index_set": list(family.index_set),
        "faces": {str(i): simplex_ref(X, x) for i, x in family.items()},
        "target": simplex_ref(Y, family.target),
    }


def certificate_to_dict(cert: FillCertificate) -> dict[str, Any]:
    X = cert.family.f.domain
    return {
        "outcome": "filled" if cert.filled else "unfillable",
        "family": family_to_dict(cert.family),
        "witness": None if cert.witness is None else simplex_ref(X, cert.witness),
        "candidates_examined": cert.candidates_examined,
        # a fill that stops keeps no trail of where, so no certificate carries one
        "failed_subfamily": None,
    }


def fibration_report_to_dict(report: FibrationReport) -> dict[str, Any]:
    return {
        "kind": report.kind,
        "max_dim": report.max_dim,
        "passed": report.passed,
        "base_point_missing": report.base_point_missing,
        "cells": [
            {"n": c.n, "k": c.k, "families": c.families, "filled": c.filled}
            for c in report.cells
        ],
        "families_checked": report.families_checked,
        "failure": None if report.failure is None else certificate_to_dict(report.failure),
    }


def sweep_report_to_dict(report: PointwiseSweepReport) -> dict[str, Any]:
    def cells(cs):
        return [
            {
                "p": c.p, "q": c.q, "missing": c.missing,
                "problems": c.problems, "filled": c.filled, "max_search": c.max_search,
            }
            for c in cs
        ]

    return {
        "kind": "pointwise-sweep",
        "max_total_dim": report.max_total_dim,
        "passed": report.passed,
        "problems_checked": report.problems_checked,
        "families_verified_compatible": report.families_verified_compatible,
        "direct_cells": cells(report.direct_cells),
        "transposed_cells": cells(report.transposed_cells),
        # a pointwise horn that does not fill raises, so no sweep carries a failure
        "failure": None,
    }
