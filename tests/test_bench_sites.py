"""Every lookup site the benchmark's tracer wraps still names a callable.

The tracer skips a site that no longer resolves, so its layer silently reads
0; a refactor that renames or moves a traced function fails here instead.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from kancheck.cli import run



def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")

# pointwise fills only through kan.fill_partial_horn, so it no longer imports
# brute_force_fill; its sweep enumerates horns with the id engine kan._blocks,
# so it no longer imports iter_compatible_families either.  The sweep fills on
# ids alone and raises on a horn that does not fill, so the object lift
# (build_diagonal_family, diagonal_lift) is gone and pointwise no longer
# imports fill_partial_horn; those layers already read 0 on every passing run.
# Certificates are made on raw ids, by kan.brute_force_fill alone, so kan no
# longer has the per-family iter_compatible_families or fill_partial_horn;
# nothing in the program called them, so kan.enumerate and kan.partial_fill
# already read 0 on every workload.  A source's bisimplicial set is built by
# presets.source_bisimplicial, so cli no longer imports tensor; its layer is
# read through kancheck.presets:tensor.  The s3-counterexample checks find
# their horn's faces by square id on a plain double nerve, so cli no longer
# imports double_nerve_indexed
RETIRED = {
    "kancheck.cli:double_nerve_indexed",
    "kancheck.cli:tensor",
    "kancheck.kan:fill_partial_horn",
    "kancheck.kan:iter_compatible_families",
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


@pytest.mark.parametrize("workload, layers", [
    ("kan-diagonal-eg", {"groupoids.eg_construction"}),
    ("pointwise-eg", {"groupoids.eg_construction", "bisimplicial.tensor"}),
])
def test_build_layers_see_the_workload(monkeypatch, capsys, workload, layers):
    # the workload's command builds its set through sites the tracer wraps,
    # so these layers read its build time and not 0
    calls = Counter()
    for layer in layers:
        for site in tracing.SITES[layer]:
            if site in RETIRED:
                continue
            module_name, _, attr = site.partition(":")
            module = importlib.import_module(module_name)

            def counting(*args, fn=getattr(module, attr), layer=layer, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)
    assert run(workloads.COMMANDS[workload])[0] == 0
    assert set(calls) == layers
