"""Benchmark of nanocob's command-line workloads.

    python3 perfbench/run.py --workload classify|check-slice|verify \
        --seed N --seconds S --trace 0|1 [--spans FILE]

Run it from the root of a nanocob source tree; it imports the package from
``src/`` beside this directory and from nowhere else.  Every operation calls
``nanocob.cli.main`` in this process with stdout captured, one at a time
(a closed loop with one client, ``--jobs 1``).  After the timed loop every
output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run does the same untraced work, then replays exactly the same
operations with the tracer installed, and reports per-layer metrics and the
tracing overhead; ``--spans FILE`` also writes the traced spans there.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Outcome, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # before the timed loop, and again after it
TAIL_MIN_OPS = 50  # ten samples beyond the 80th percentile


@dataclass
class Timed:
    passes: list
    ops: list
    outcomes: list
    op_s: list
    pass_s: list


def fresh_import():
    """Import the package afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "nanocob" or n.startswith("nanocob.")]:
        del sys.modules[name]
    importlib.import_module("nanocob.cli")


def setup(workload, seed: int) -> tuple[list[float], list]:
    """Import plus input generation, repeated; returns the times and the
    inputs of the last repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_import()
        inputs = workload.inputs(seed)
        times.append(time.perf_counter() - start)
    return times, inputs


def call(argv: list[str]) -> Outcome:
    cli = sys.modules["nanocob.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=err)
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def run_passes(workload, passes, seconds: float) -> Timed:
    timed = Timed([], [], [], [], [])
    start = time.perf_counter()
    for batch in passes:
        pass_start = time.perf_counter()
        for op in batch:
            op_start = time.perf_counter()
            outcome = [call(argv) for argv in op.argvs]
            timed.op_s.append(time.perf_counter() - op_start)
            timed.ops.append(op)
            timed.outcomes.append(outcome)
        timed.pass_s.append(time.perf_counter() - pass_start)
        timed.passes.append(batch)
        elapsed = time.perf_counter() - start
        if not workload.more(elapsed, seconds, len(timed.ops), timed.pass_s[-1]):
            break
    return timed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_ms(op_s: list[float]) -> float:
    """The 80th percentile latency when at least TAIL_MIN_OPS operations
    ran, else the slowest."""
    if len(op_s) >= TAIL_MIN_OPS:
        return statistics.quantiles(op_s, n=5)[-1] * 1000.0
    return max(op_s) * 1000.0


def end_to_end(setup_times: list[float], timed: Timed, rss: float) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(timed.pass_s), "s"),
        "op_p50_ms": (statistics.median(timed.op_s) * 1000.0, "ms"),
        "op_tail_ms": (tail_ms(timed.op_s), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_metrics(workload, untraced: Timed, spans_path) -> tuple[dict, Timed]:
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, iter(untraced.passes), float("inf"))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    wall, base = sum(traced.pass_s), sum(untraced.pass_s)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (base, "s")
    metrics["trace.overhead_frac"] = (wall / base - 1.0, "ratio")
    if spans_path:
        tracer.write_spans(spans_path)
    return metrics, traced


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nanocob" / "cli.py").is_file():
        print(f"run.py: no nanocob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    setup_times, inputs = setup(workload, args.seed)
    package = Path(sys.modules["nanocob"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"run.py: imported nanocob from {package}, not {SRC}", file=sys.stderr)
        return 2

    untraced = run_passes(workload, workload.passes(inputs), args.seconds)
    rss = peak_rss_mb()
    runs = [untraced]
    if args.trace:
        metrics, traced = traced_metrics(workload, untraced, args.spans)
        runs.append(traced)
    else:
        # set up again half a minute later, so that the median spans more
        # than one state of a host whose speed drifts
        setup_times += setup(workload, args.seed)[0]
        metrics = end_to_end(setup_times, untraced, rss)

    attempted = failed = 0
    for timed in runs:
        problems = check(workload, timed.ops, timed.outcomes)
        for _, message in problems[:20]:
            print(f"FAILED {message}", file=sys.stderr)
        attempted += len(timed.ops)
        failed += len({index for index, _ in problems})

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
