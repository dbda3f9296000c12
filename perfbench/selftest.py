"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs a tiny size of each workload and expects every check to pass and every
metric named in BENCHMARK.json to be reported; then plants one wrong answer
per workload in the CLI's output and expects it to be counted as a failure;
then expects run.py to refuse to run in a directory without the sources.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, check, ground_of, obstructions

ROOT = run.ROOT
SEED = 1


def plant_classify(argv, out):
    """Turn the first obstructed linked pair of the two-orbit table slice."""
    if "--allow-large" not in argv:
        return out
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if ",L1 L2 L1 L2," in line and "NotSlice(" in line:
            lines[i] = re.sub(r"NotSlice\([a-z]+\)", "Slice(1 moves)", line)
            break
    return "\n".join(lines) + "\n"


def plant_check_slice(argv, out):
    """Drop the last move of a witness, or name a vanishing obstruction."""
    verdict, *log = out.splitlines()
    if verdict.startswith("Slice(") and log:
        return "\n".join([f"Slice({len(log) - 1} moves)", *log[:-1]]) + "\n"
    if verdict.startswith("NotSlice("):
        from nanocob.explorer import invariant_record
        from nanocob.words import Nanoword

        ground = ground_of(argv[argv.index("--alphabet") + 1])
        proj = dict(kv.split("=") for kv in argv[argv.index("--proj") + 1].split())
        w = Nanoword.from_names(ground, argv[argv.index("--word") + 1], proj)
        vanishing = [k for k, v in obstructions(invariant_record(w)).items() if not v]
        if vanishing:
            return f"NotSlice({vanishing[0]})\n"
    return out


def plant_verify(argv, out):
    return out.replace("PASS", "FAIL", 1)


PLANTS = {
    "classify": plant_classify,
    "check-slice": plant_check_slice,
    "verify": plant_verify,
}


def planted_main(real_main, plant):
    """A CLI entry point that runs the real one and rewrites its output."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(argv)
        sys.stdout.write(plant(argv, buf.getvalue()))
        return code

    return main


def failures(workload, timed) -> set[int]:
    return {i for i, _ in check(workload, timed.ops, timed.outcomes)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_e2e = {m["name"] for m in bench["end_to_end"]}
    expected_layer = {m["name"] for m in bench["per_layer"]}
    errors = []
    sys.path.insert(0, str(run.SRC))
    for name, cls in WORKLOADS.items():
        workload = cls(tiny=True)
        setup_times, inputs = run.setup(workload, SEED)
        timed = run.run_passes(workload, workload.passes(inputs), 0)
        bad = check(workload, timed.ops, timed.outcomes)
        if bad:
            errors.append(f"{name}: tiny run failed its checks: {bad[:3]}")
        e2e = run.end_to_end(setup_times, timed, run.peak_rss_mb())
        if set(e2e) != expected_e2e:
            errors.append(f"{name}: end-to-end metrics {sorted(e2e)} != BENCHMARK.json")
        if any(value <= 0 for value, _ in e2e.values()):
            errors.append(f"{name}: an end-to-end metric is not positive: {e2e}")
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            spans = Path(tmp) / "spans.tsv"
            layers, traced = run.traced_metrics(workload, timed, str(spans))
            if not spans.read_text().startswith("id\tparent\tname"):
                errors.append(f"{name}: spans file not written")
        if set(layers) != expected_layer:
            errors.append(
                f"{name}: per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layers) ^ expected_layer)}"
            )
        if failures(workload, traced):
            errors.append(f"{name}: traced replay failed its checks")

        cli = sys.modules["nanocob.cli"]
        real_main = cli.main
        cli.main = planted_main(real_main, PLANTS[name])
        try:
            planted = run.run_passes(workload, iter(timed.passes), float("inf"))
        finally:
            cli.main = real_main
        if not failures(workload, planted):
            errors.append(f"{name}: planted wrong answer passed the checks")
        print(f"{name}: tiny run ok={not bad}, planted failures={len(failures(workload, planted))}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "classify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    for error in errors:
        print(f"SELFTEST FAILED: {error}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
