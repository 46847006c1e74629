"""Structured (JSON-ready) forms of sets, certificates and reports.

Simplicial data serializes to plain dictionaries of counts and tables;
witnesses reference simplices by dimension and id together with their label,
so certificates can be re-verified against a freshly rebuilt object.
"""

from __future__ import annotations

from typing import Any

from .bisimplicial import BiSimplex, TruncatedBisimplicialSet
from .errors import RejectedInput
from .kan import CompatibleFamily, FibrationReport, FillCertificate
from .pointwise import PointwiseSweepReport, missing_index
from .simplicial import Simplex, SimplicialMap, TruncatedSimplicialSet


def simplicial_to_dict(X: TruncatedSimplicialSet) -> dict[str, Any]:
    return {
        "kind": "simplicial-set",
        "bound": X.bound,
        "counts": list(X.counts),
        "faces": [[list(t) for t in X._faces[n]] for n in range(X.bound + 1)],
        "degeneracies": [[list(t) for t in X._degens[n]] for n in range(X.bound + 1)],
        "labels": None if X._labels is None else [list(l) for l in X._labels],
    }


def simplicial_from_dict(data: dict[str, Any]) -> TruncatedSimplicialSet:
    if data.get("kind") != "simplicial-set":
        raise RejectedInput("expected a simplicial-set record")
    return TruncatedSimplicialSet(
        data["counts"], data["faces"], data["degeneracies"], data.get("labels")
    )


def bisimplicial_to_dict(X: TruncatedBisimplicialSet) -> dict[str, Any]:
    P, Q = X.bounds

    def grid(tables):
        return [[[list(t) for t in tables(p, q)] for q in range(Q + 1)] for p in range(P + 1)]

    return {
        "kind": "bisimplicial-set",
        "bounds": [P, Q],
        "counts": [list(level) for level in X.counts],
        "h_faces": grid(lambda p, q: X.rows[q]._faces[p]),
        "h_degeneracies": grid(lambda p, q: X.rows[q]._degens[p]),
        "v_faces": grid(lambda p, q: X.columns[p]._faces[q]),
        "v_degeneracies": grid(lambda p, q: X.columns[p]._degens[q]),
        "labels": None if X.columns[0]._labels is None else [
            [list(level) for level in col._labels] for col in X.columns
        ],
    }


def bisimplicial_from_dict(data: dict[str, Any]) -> TruncatedBisimplicialSet:
    if data.get("kind") != "bisimplicial-set":
        raise RejectedInput("expected a bisimplicial-set record")
    return TruncatedBisimplicialSet(
        data["counts"],
        data["h_faces"],
        data["h_degeneracies"],
        data["v_faces"],
        data["v_degeneracies"],
        data.get("labels"),
    )


def simplex_ref(X: TruncatedSimplicialSet, x: Simplex) -> dict[str, Any]:
    return {"dim": x.dim, "id": x.idx, "label": X.label(x)}


def bisimplex_ref(X: TruncatedBisimplicialSet, x: BiSimplex) -> dict[str, Any]:
    return {"p": x.p, "q": x.q, "id": x.idx, "label": X.label(x)}


def family_to_dict(family: CompatibleFamily) -> dict[str, Any]:
    X, Y = family.f.domain, family.f.codomain
    return {
        "n": family.n,
        "index_set": list(family.index_set),
        "faces": {str(i): simplex_ref(X, x) for i, x in family.items()},
        "target": simplex_ref(Y, family.target),
    }


def family_from_dict(f: SimplicialMap, data: dict[str, Any]) -> CompatibleFamily:
    n = int(data["n"])
    faces = {
        int(i): Simplex(ref["dim"], ref["id"]) for i, ref in data["faces"].items()
    }
    target = Simplex(data["target"]["dim"], data["target"]["id"])
    return CompatibleFamily.from_mapping(f, n, faces, target)


def certificate_to_dict(cert: FillCertificate) -> dict[str, Any]:
    X = cert.family.f.domain
    return {
        "outcome": "filled" if cert.filled else "unfillable",
        "family": family_to_dict(cert.family),
        "witness": None if cert.witness is None else simplex_ref(X, cert.witness),
        "candidates_examined": cert.candidates_examined,
        "failed_subfamily": (
            None if cert.failed_subfamily is None else family_to_dict(cert.failed_subfamily)
        ),
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

    failure = None
    if report.failure is not None:
        lift = report.failure.lift
        failure = {
            "transposed": report.failure.transposed,
            "p": lift.p,
            "q": lift.horn.n,
            "missing": missing_index(lift.horn),
            "diagonal_certificate": certificate_to_dict(lift.certificate),
        }
    return {
        "kind": "pointwise-sweep",
        "max_total_dim": report.max_total_dim,
        "passed": report.passed,
        "problems_checked": report.problems_checked,
        "families_verified_compatible": report.families_verified_compatible,
        "direct_cells": cells(report.direct_cells),
        "transposed_cells": cells(report.transposed_cells),
        "failure": failure,
    }
