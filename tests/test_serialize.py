import json

from kancheck import (
    CompatibleFamily,
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
        fam = CompatibleFamily.from_mapping(
            z2_nerve_map, 2, {0: X.face(0, Simplex(2, 3))}, Simplex(2, 0)
        )
        cert = brute_force_fill(fam)
        data = certificate_to_dict(cert)
        json.dumps(data)
        assert data["outcome"] == "filled"
        assert data["witness"]["id"] == cert.witness.idx

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
        fam = CompatibleFamily.from_mapping(
            to_point_map(X),
            record["n"],
            {int(i): Simplex(ref["dim"], ref["id"]) for i, ref in record["faces"].items()},
            Simplex(record["target"]["dim"], record["target"]["id"]),
        )
        again = brute_force_fill(fam)
        assert not again.filled
        assert again.candidates_examined == data["failure"]["candidates_examined"]

    def test_sweep_report_dict(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        data = sweep_report_to_dict(report)
        json.dumps(data)
        assert data["passed"] is True
        assert data["problems_checked"] == report.problems_checked
