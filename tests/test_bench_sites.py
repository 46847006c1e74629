"""Every lookup site the benchmark's tracer wraps still names a callable.

The tracer skips a site that no longer resolves, so its layer silently reads
0; a refactor that renames or moves a traced function fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# pointwise fills only through kan.fill_partial_horn, so it no longer imports
# brute_force_fill; its sweep enumerates horns with the id engine kan._blocks,
# so it no longer imports iter_compatible_families either.  The sweep fills on
# ids alone and raises on a horn that does not fill, so the object lift
# (build_diagonal_family, diagonal_lift) is gone and pointwise no longer
# imports fill_partial_horn; those layers already read 0 on every passing run
RETIRED = {
    "kancheck.pointwise:brute_force_fill",
    "kancheck.pointwise:build_diagonal_family",
    "kancheck.pointwise:diagonal_lift",
    "kancheck.pointwise:fill_partial_horn",
    "kancheck.pointwise:iter_compatible_families",
}

SITES = sorted({site for sites in tracing.SITES.values() for site in sites})


def resolve(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize("site", [s for s in SITES if s not in RETIRED])
def test_site_resolves_to_a_callable(site):
    assert callable(resolve(site)), f"{site} no longer names a callable"


@pytest.mark.parametrize("site", sorted(RETIRED))
def test_retired_site_is_gone(site):
    # a retired site that comes back belongs in the checked list again
    assert site in SITES
    assert resolve(site) is None
