import json

from kancheck import (
    Simplex,
    brute_force_fill,
    check_kan_fibration,
    diagonal,
    to_point_bimap,
    to_point_map,
    verify_pointwise_fillers,
)
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import (
    certificate_to_dict,
    fibration_report_to_dict,
    simplicial_from_dict,
    simplicial_to_dict,
    sweep_report_to_dict,
)


class TestSetRoundTrips:
    def test_simplicial(self, z2_nerve):
        data = simplicial_to_dict(z2_nerve)
        json.dumps(data)  # JSON-clean
        back = simplicial_from_dict(data)
        assert back == z2_nerve
        # == ignores labels; the records compare them too
        assert simplicial_to_dict(back) == data
        assert data["labels"][2][3] == z2_nerve.label(Simplex(2, 3))


class TestCertificates:
    def test_certificate_embeds_witness(self, z2_nerve_map):
        X = z2_nerve_map.domain
        cert = brute_force_fill(z2_nerve_map, 2, (0,), (X.face(0, Simplex(2, 3)).idx,), 0)
        data = certificate_to_dict(cert)
        json.dumps(data)
        assert data["outcome"] == "filled"
        assert data["witness"] == {
            "dim": 2, "id": cert.witness, "label": X.label(Simplex(2, cert.witness))
        }
        assert data["family"]["faces"]["0"]["label"] == X.label(X.face(0, Simplex(2, 3)))

    def test_fibration_report_dict(self, z2_nerve_map):
        data = fibration_report_to_dict(check_kan_fibration(z2_nerve_map, 3))
        json.dumps(data)
        assert data["passed"] is True
        assert data["failure"] is None

    def test_unfillable_certificate_survives(self):
        X = diagonal(preset_bisimplicial("s3-counterexample", 2, 2))
        report = check_kan_fibration(to_point_map(X), 2)
        data = fibration_report_to_dict(report)
        assert data["failure"]["outcome"] == "unfillable"
        record = data["failure"]["family"]
        faces = {int(i): ref["id"] for i, ref in record["faces"].items()}
        again = brute_force_fill(
            to_point_map(X), record["n"], record["index_set"],
            [faces[i] for i in record["index_set"]], record["target"]["id"],
        )
        assert not again.filled
        assert again.candidates_examined == data["failure"]["candidates_examined"]

    def test_sweep_report_dict(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        data = sweep_report_to_dict(report)
        json.dumps(data)
        assert data["passed"] is True
        assert data["problems_checked"] == report.problems_checked
