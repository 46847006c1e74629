"""Benchmark of the kancheck command line: time to a verdict, set-up time,
time to a re-verified certificate and peak memory, on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the kancheck under ``src/``.
Every timed command runs in a fresh worker process (``bench/worker.py``), one
at a time, with ``--threads`` left at its default of 1, because a command-line
user pays every cost on every invocation.

A run repeats whole rounds until ``--seconds`` have passed (at least one
round).  With ``--trace 0`` it first times SETUPS set-ups, each in its own
process, and a round is one command process; the end-to-end metrics are
medians over the run.  With ``--trace 1`` a round is one untraced and one
traced command; the per-layer metrics are medians over the traced commands,
and ``trace.overhead_s`` is the median of traced minus untraced ``verdict_s``.

Every time is reported at a fixed host speed.  Each worker also times a fixed
reference loop (``worker.reference_loop``) before kancheck is imported, every
half second during the measured work, and after it, and a time t is reported
as t * REFERENCE_S / (mean reference time).  The CPU is shared with other
tenants, and its speed shifts by up to 1.5x for tens of seconds at a time;
medians within a run cannot remove a shift that lasts the whole run, and the
scaling does.  The raw times stay in the per-run record.

Every report is checked (``checks.py``); the verdict hash must agree across the
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The inputs are fixed,
so ``--seed`` changes nothing but the name of the per-run record written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 5
# Times are reported at a fixed host speed: the one at which the worker's
# reference loop takes REFERENCE_S.  See "How a run measures" in README.md.
REFERENCE_S = 0.012
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "certified_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kan.enumerate_s": "s",
    "kan.fill_s": "s",
    "kan.partial_fill_s": "s",
    "kan.families": "count",
    "kan.fills": "count",
    "kan.candidates": "count",
    "kan.candidates_per_fill": "ratio",
    "pointwise.build_family_s": "s",
    "pointwise.lift_s": "s",
    "pointwise.problems": "count",
    "groupoids.eg_construction_s": "s",
    "bisimplicial.tensor_s": "s",
    "doublegroupoid.double_nerve_s": "s",
    "bisimplicial.diagonal_s": "s",
    "bisimplicial.lines_s": "s",
    "serialize.report_s": "s",
    "cli.render_s": "s",
    "cli.reverify_s": "s",
    "cli.run_self_s": "s",
    "trace.overhead_s": "s",
}


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "machine": platform.machine(),
    }


class Run:
    """The samples, checks and failures of one benchmark run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.diag = None  # the not-kan-s4 diagonal, for its output check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: set[str] = set()
        self.setups: list[dict] = []
        self.commands: list[dict] = []
        self.traced: list[dict] = []
        self.first_report: dict | None = None

    def worker(self, mode: str, *extra: str, counted: bool = True) -> dict | None:
        if counted:
            self.attempted += 1
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, self.workload, *extra]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            done = None
        if done is None or done.returncode != 0:
            detail = "timed out" if done is None else done.stderr.strip()[-2000:]
            print(f"worker {mode} {self.workload} failed: {detail}", file=sys.stderr)
            if counted:
                self.failed += 1
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup(self) -> None:
        result = self.worker("setup")
        if result is not None:
            self.setups.append(result)

    def command(self, trace_file: Path | None = None) -> dict | None:
        extra = () if trace_file is None else ("--trace-file", str(trace_file))
        result = self.worker("command", *extra)
        if result is None:
            return None
        self.check(result)
        return result

    def check(self, result: dict) -> None:
        import checks

        report = result.pop("report")
        errors = checks.check_report(self.workload, report, self.diag)
        expected_code = 0 if report["overall_ok"] else 1
        if result["exit_code"] != expected_code:
            errors.append(f"exit code {result['exit_code']} with overall_ok={report['overall_ok']}")
        if not result["reverified"]:
            errors.append("reverify_report rejects the report as printed")
        if result.get("missing_sites"):
            print(f"trace sites that no longer exist read 0: {result['missing_sites']}", file=sys.stderr)
        self.hashes.add(result["verdict_sha256"])
        if len(self.hashes) > 1:
            errors.append(f"verdict hashes differ within the run: {sorted(self.hashes)}")
        self.errors.extend(errors)
        if self.first_report is None:
            self.first_report = report


def per_run_checks(run: Run) -> None:
    """Checks made once per run: the not-Kan input and tamper rejection."""
    if run.workload != "not-kan-s4" or run.first_report is None:
        return
    import checks
    from kancheck import cli

    from workloads import load_s4_input

    run.errors.extend(checks.check_s4_products_differ(load_s4_input()))
    run.errors.extend(checks.check_tampering_rejected(run.first_report, cli))


def at_reference_speed(result: dict, name: str) -> float:
    """A time from one worker, scaled to the host speed fixed by REFERENCE_S."""
    return result[name] * REFERENCE_S / result["reference_s"]


def scaled_layers(traced: dict, plain: dict) -> dict[str, float]:
    """The per-layer figures of a traced command, times at reference speed."""
    factor = REFERENCE_S / traced["reference_s"]
    layers = {
        name: value * factor if name.endswith("_s") else value
        for name, value in traced["layers"].items()
    }
    layers["trace.overhead_s"] = (
        at_reference_speed(traced, "verdict_s") - at_reference_speed(plain, "verdict_s")
    )
    return layers


def measure(run: Run, seconds: float, trace: bool, seed: int) -> dict[str, float]:
    if not trace:
        for _ in range(SETUPS):
            run.setup()
    layer_samples: list[dict[str, float]] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        if trace:
            plain = run.command()
            traced = run.command(OUT / f"trace-{run.workload}-seed{seed}-round{rounds}.json")
            if plain is not None and traced is not None:
                run.traced.append(traced)
                layer_samples.append(scaled_layers(traced, plain))
        else:
            result = run.command()
            if result is not None:
                run.commands.append(result)
    if trace:
        if not layer_samples:
            return {}
        return {name: statistics.median(s[name] for s in layer_samples) for name in PER_LAYER_UNITS}
    if not run.commands or not run.setups:
        return {}
    metrics = {"setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in run.setups)}
    for name in ("verdict_s", "certified_s"):
        metrics[name] = statistics.median(at_reference_speed(r, name) for r in run.commands)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in run.commands)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="kancheck benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    from workloads import COMMANDS, build_checked_object

    if args.workload not in COMMANDS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(COMMANDS)}")
    if not (ROOT / "src" / "kancheck" / "__init__.py").is_file():
        print(f"no kancheck sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.chdir(ROOT)

    run = Run(args.workload)
    if run.worker("import", counted=False) is None:
        return 2
    if args.workload == "not-kan-s4":
        import worker

        worker.import_kancheck()
        run.diag = build_checked_object(args.workload)

    metrics = measure(run, args.seconds, bool(args.trace), args.seed)
    per_run_checks(run)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        print("no command completed; nothing to report", file=sys.stderr)
        return 1
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "verdict_sha256": sorted(run.hashes),
        "setup_s": run.setups,
        "commands": run.commands,
        "traced": run.traced,
        "errors": run.errors,
        "metrics": metrics,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
