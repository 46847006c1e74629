import pytest

import kancheck.groupoids
from kancheck import (
    cyclic_group,
    eg_construction,
    nerve,
    one_object_groupoid,
    symmetric_group_preset,
    tensor,
    to_point_bimap,
    to_point_map,
)
from kancheck.groupoids import NerveLayout
from kancheck.presets import preset_bisimplicial, s3_counterexample
from kancheck.simplicial import TruncatedSimplicialSet


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_preset(3)


@pytest.fixture(scope="session")
def z2_nerve(z2):
    return nerve(one_object_groupoid(z2), 3)


@pytest.fixture(scope="session")
def s3_nerve(s3):
    return nerve(one_object_groupoid(s3), 3)


@pytest.fixture(scope="session")
def z2_nerve_map(z2_nerve):
    return to_point_map(z2_nerve)


@pytest.fixture(scope="session")
def s3_nerve_map(s3_nerve):
    return to_point_map(s3_nerve)


@pytest.fixture(scope="session")
def eg_z2(z2):
    return eg_construction(z2, 3)


@pytest.fixture(scope="session")
def eg_tensor_3(eg_z2):
    return tensor(eg_z2, eg_z2)


@pytest.fixture(scope="session")
def eg_tensor_map(eg_tensor_3):
    return to_point_bimap(eg_tensor_3)


@pytest.fixture(scope="session")
def s3_pair():
    return s3_counterexample()


@pytest.fixture(scope="session")
def s3_double_nerve():
    return preset_bisimplicial("s3-counterexample", 3, 3)


@pytest.fixture
def table_builds(monkeypatch):
    """The names of the table builders called while the test runs, in call
    order: EG's run writer, a simplicial set's constructor and ``extended``,
    and a nerve layout."""
    calls = []

    def recording(owner, name, label):
        original = getattr(owner, name)

        def record(*args, **kwargs):
            calls.append(label)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)

    recording(kancheck.groupoids, "_runs", "_runs")
    recording(TruncatedSimplicialSet, "__init__", "TruncatedSimplicialSet")
    recording(TruncatedSimplicialSet, "extended", "extended")
    recording(NerveLayout, "__init__", "NerveLayout")
    return calls
