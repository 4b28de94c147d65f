"""Steadiness check of the benchmark: two sets of runs, compared per metric.

    python3 bench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --workloads eqpa_program,factor
    python3 bench/steady.py --overhead --seed 1  # traced against untraced run

Runs ``bench/run.py`` once per (set, seed, workload), one process at a
time: set 1 takes seeds 1-10, set 2 seeds 11-20.  For every end-to-end
metric it prints each set's median and quartiles, the interquartile spread
as a share of the median, and how far the second median is worse than the
first, both against the metric's bound in ``BENCHMARK.json``; either one
past the bound, in either direction for the shift, fails the check.  It
also checks that the share of failed operations is the same in every run.
Raw results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

RUNS = 10  # runs per set, each with its own seed
SETS = 2
FIRST_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    return (second - first) / first * (1 if better == "lower" else -1)


def steadiness(spec: dict, workloads: list[str], seconds: int) -> bool:
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for j in range(RUNS):
            seed = FIRST_SEED + k * RUNS + j
            for w in workloads:
                started = time.perf_counter()
                out = run(w, seed, seconds)
                results[w][k].append(out)
                print(f"set {k + 1} seed {seed} {w}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(results))

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'shift':>8}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[w][k]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                shift = worse_by(medians[0], med, metric["better"]) if k else 0.0
                flag = ""
                if spread > bound:
                    flag, ok = "  SPREAD > BOUND", False
                if abs(shift) > bound:
                    flag, ok = flag + "  SHIFT > BOUND", False
                print(f"  {name:<18}{k + 1:>4}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{spread:>8.3f}{shift:>8.3f}{bound:>7.2f}{flag}")
        shares = {r["failed"] / r["attempted"] for s in results[w] for r in s}
        correct = all(r["correct"] for s in results[w] for r in s)
        print(f"  failed share {sorted(shares)}; all correct: {correct}")
        ok = ok and len(shares) == 1 and correct
    return ok


def overhead(workloads: list[str], seed: int, seconds: int) -> None:
    """Untraced against traced run of the same seed, per end-to-end metric,
    then the traced run's nonzero per-layer metrics."""
    layers = {}
    print(f"{'workload':<14}{'metric':<18}{'untraced':>12}{'traced':>12}{'ratio':>8}")
    for w in workloads:
        plain = run(w, seed, seconds)["metrics"]
        layers[w] = run(w, seed, seconds, trace=1)["metrics"]
        with gzip.open(RESULTS / f"trace-{w}-s{seed}.json.gz", "rt") as f:
            traced = json.load(f)["traced"]
        for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mib"):
            a, b = plain[name]["value"], traced[name]
            print(f"{w:<14}{name:<18}{a:>12.4f}{b:>12.4f}{b / a:>8.3f}")
    for w, metrics in layers.items():
        print(f"\n{w}")
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<34}{m['value']:>14.4f} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--seed", type=int, default=1, help="seed of the --overhead runs")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.overhead:
        overhead(workloads, args.seed, args.seconds)
        return 0
    return 0 if steadiness(spec, workloads, args.seconds) else 1


if __name__ == "__main__":
    sys.exit(main())
