"""One measured kancheck invocation in a fresh process; run.py starts it.

    python3 bench/worker.py import  <workload>
    python3 bench/worker.py setup   <workload>
    python3 bench/worker.py command <workload> [--trace-file PATH]

``import`` loads the package and exits (it warms the bytecode cache).
``setup`` times building the workload's checked object.  ``command`` times
``kancheck.cli.run(argv + ["--format", "structured"])`` with stdout captured,
then parsing the printed report back and re-verifying it; with
``--trace-file`` the layers are traced and the spans written to that path.

Both also sample the host's speed with a fixed reference loop: before
kancheck is imported, every PROBE_INTERVAL_S during the measured work, and
after it.  The probes' own time is taken out of the measured times, and the
mean probe time is reported as ``reference_s``.  The result is one JSON object
on the last line of standard output.  Run it from the checkout root: the
kancheck it measures is the one under ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.5
EDGE_PROBES = 5  # probes before kancheck is imported, and after the work


def reference_loop() -> float:
    """Time a fixed pure-Python loop (about 15 ms): the host's speed now.

    It builds and looks up small tuples in dicts, as the program's table code
    does, and touches nothing of kancheck.  The cyclic collector is off while
    it runs, so a large heap left behind by the program cannot slow it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = [[(i * 31 + j) % 97 for j in range(8)] for i in range(1024)]
        for r in range(40):
            seen: dict = {}
            for i in range(1024):
                row = table[i]
                key = (row[r % 8], row[(r + 3) % 8], i & 15)
                seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Runs the reference loop every PROBE_INTERVAL_S while a block runs.

    SIGALRM runs it in the main thread between two bytecodes of the measured
    work.  ``elapsed_s`` is the block's wall time minus the probes' time.
    """

    def __init__(self, samples: list[float]) -> None:
        self.samples = samples
        self.elapsed_s = 0.0

    def _probe(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def __enter__(self) -> "SpeedProbe":
        self._first = len(self.samples)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.elapsed_s = end - self._start - sum(self.samples[self._first:])


def edge_probes(samples: list[float]) -> None:
    samples.extend(reference_loop() for _ in range(EDGE_PROBES))


def import_kancheck():
    """Import kancheck from this checkout's ``src/`` and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kancheck
    import kancheck.cli
    import kancheck.presets

    if Path(kancheck.__file__).resolve().parent != (src / "kancheck").resolve():
        raise SystemExit(f"kancheck was imported from {kancheck.__file__}, not from {src}")
    return kancheck


def verdict_sha256(report) -> str:
    text = json.dumps(report.verdict_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def time_setup(name: str, samples: list[float]) -> dict:
    from workloads import build_checked_object

    with SpeedProbe(samples) as probe:
        build_checked_object(name)
    edge_probes(samples)
    return {"setup_s": probe.elapsed_s}


def time_command(name: str, trace_file: str | None, samples: list[float]) -> dict:
    from kancheck import cli

    from workloads import COMMANDS

    tracer = None
    if trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = io.StringIO()
    with SpeedProbe(samples) as command, contextlib.redirect_stdout(out):
        code, report = cli.run(COMMANDS[name] + ["--format", "structured"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with SpeedProbe(samples) as recheck:
        printed = json.loads(out.getvalue())
        reverified = cli.reverify_report(cli.RunReport.from_dict(printed))
    edge_probes(samples)
    result = {
        "verdict_s": command.elapsed_s,
        "certified_s": command.elapsed_s + recheck.elapsed_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": code,
        "reverified": reverified,
    }
    if tracer is not None:
        # taken before verdict_dict() below adds spans of its own
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing_sites"] = tracer.missing_sites
        tracer.write(trace_file)
    result["verdict_sha256"] = verdict_sha256(report)
    result["report"] = printed
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("import", "setup", "command"))
    parser.add_argument("workload")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    if args.mode == "import":
        import_kancheck()
        print("{}")
        return
    samples: list[float] = []
    edge_probes(samples)  # before kancheck is even imported
    import_kancheck()
    if args.mode == "setup":
        result = time_setup(args.workload, samples)
    else:
        result = time_command(args.workload, args.trace_file, samples)
    result["reference_s"] = sum(samples) / len(samples)
    result["probes"] = len(samples)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
