"""Span tracing of kancheck's layers from outside the program.

``install`` replaces public functions where the program looks them up (a
module attribute read at call time) with wrappers that record one span per
call, or one span per ``next()`` for generators.  A span stack charges each
layer its self time: a span's duration minus the time its child spans cover.
That matters because ``fill_partial_horn`` recurses and calls the full-horn
filler, and the pointwise lift calls both.

Spans are kept in memory as ``(id, parent, layer, start, end)`` and written out
when the traced run ends.  A site that no longer exists (a later refactor moved
the name) is skipped and listed as missing, so its layer reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# layer -> the lookup sites "module:attribute" the program calls it through.
SITES: dict[str, tuple[str, ...]] = {
    "kan.enumerate": (
        "kancheck.kan:iter_compatible_families",
        "kancheck.pointwise:iter_compatible_families",
    ),
    "kan.fill": (
        "kancheck.kan:brute_force_fill",
        "kancheck.pointwise:brute_force_fill",
        "kancheck.cli:brute_force_fill",
    ),
    "kan.partial_fill": (
        "kancheck.kan:fill_partial_horn",
        "kancheck.pointwise:fill_partial_horn",
    ),
    "pointwise.build_family": ("kancheck.pointwise:build_diagonal_family",),
    "pointwise.lift": ("kancheck.pointwise:diagonal_lift",),
    "groupoids.eg_construction": (
        "kancheck.presets:eg_construction",
        "kancheck.cli:eg_construction",
    ),
    "bisimplicial.tensor": (
        "kancheck.presets:tensor",
        "kancheck.cli:tensor",
    ),
    "doublegroupoid.double_nerve": (
        "kancheck.doublegroupoid:double_nerve",
        "kancheck.doublegroupoid:double_nerve_indexed",
        "kancheck.presets:double_nerve",
        "kancheck.cli:double_nerve_indexed",
    ),
    "bisimplicial.diagonal": (
        "kancheck.bisimplicial:diagonal",
        "kancheck.pointwise:diagonal_map",
        "kancheck.cli:diagonal",
    ),
    "bisimplicial.lines": (
        "kancheck.bisimplicial:row",
        "kancheck.bisimplicial:column",
        "kancheck.bisimplicial:transpose",
        "kancheck.pointwise:column_map",
        "kancheck.pointwise:transpose_map",
        "kancheck.cli:row",
        "kancheck.cli:column",
    ),
    "serialize.report": (
        "kancheck.cli:fibration_report_to_dict",
        "kancheck.cli:sweep_report_to_dict",
        "kancheck.cli:certificate_to_dict",
    ),
    "cli.render": (
        "kancheck.cli:RunReport.to_dict",
        "kancheck.cli:json.dumps",
    ),
    "cli.reverify": ("kancheck.cli:reverify_report",),
    "cli.run": ("kancheck.cli:run",),
}


class Tracer:
    """An in-memory span recorder with per-layer self time and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing_sites: list[str] = []
        self._stack: list[list[Any]] = []  # [id, layer, start, child_time]
        self._next_id = 0

    def enter(self, layer: str) -> None:
        self._stack.append([self._next_id, layer, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, layer, start, child_time = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - child_time
        self.calls[layer] += 1
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, layer, start, end))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "layer", "start", "end"],
                    "spans": self.spans,
                    "missing_sites": self.missing_sites,
                },
                handle,
            )


def _wrap_call(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if layer == "kan.fill":
            tracer.counts["kan.candidates"] += result.candidates_examined
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.counts[f"{layer}.items"] += 1
            yield item

    return wrapper


class _ModuleProxy:
    """Stands in for a module inside one importer, with one attribute replaced."""

    def __init__(self, module: Any, name: str, value: Any) -> None:
        self._module = module
        setattr(self, name, value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap every site in SITES; record the ones that no longer exist."""
    for layer, sites in SITES.items():
        for site in sites:
            module_name, _, path = site.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                tracer.missing_sites.append(site)
                continue
            *parents, attr = path.split(".")
            owner: Any = module
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                tracer.missing_sites.append(site)
                continue
            wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
            wrapped = wrap(tracer, layer, fn)
            if parents and inspect.ismodule(owner):
                # a module seen through an importer (cli's ``json``) is patched
                # for that importer only, never for the whole process
                setattr(module, parents[0], _ModuleProxy(owner, attr, wrapped))
            else:
                setattr(owner, attr, wrapped)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced command and its re-verification."""
    fills = tracer.calls["kan.fill"]
    candidates = tracer.counts["kan.candidates"]
    self_time = tracer.self_time
    return {
        "kan.enumerate_s": self_time["kan.enumerate"],
        "kan.fill_s": self_time["kan.fill"],
        "kan.partial_fill_s": self_time["kan.partial_fill"],
        "kan.families": tracer.counts["kan.enumerate.items"],
        "kan.fills": fills,
        "kan.candidates": candidates,
        "kan.candidates_per_fill": candidates / fills if fills else 0.0,
        "pointwise.build_family_s": self_time["pointwise.build_family"],
        "pointwise.lift_s": self_time["pointwise.lift"],
        "pointwise.problems": tracer.calls["pointwise.lift"],
        "groupoids.eg_construction_s": self_time["groupoids.eg_construction"],
        "bisimplicial.tensor_s": self_time["bisimplicial.tensor"],
        "doublegroupoid.double_nerve_s": self_time["doublegroupoid.double_nerve"],
        "bisimplicial.diagonal_s": self_time["bisimplicial.diagonal"],
        "bisimplicial.lines_s": self_time["bisimplicial.lines"],
        "serialize.report_s": self_time["serialize.report"],
        "cli.render_s": self_time["cli.render"],
        "cli.reverify_s": self_time["cli.reverify"],
        "cli.run_self_s": self_time["cli.run"],
    }
