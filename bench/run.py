"""Benchmark of qperiod: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload eqpa_block --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run sets up several times (import qperiod afresh, then one untimed warm-up
pass over the workload's operations) and reports the median as
``setup_s``.  It then repeats whole passes over the same seeded operations
until ``--seconds`` have gone by, timing each call and checking each output
outside the timed span.  The last line of standard output is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (see ``tracing.py``), whose
spans are also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile


def import_fresh():
    """Import qperiod from the checkout's src/, discarding any earlier copy
    so that its caches (prime list, order-finding marginals) start empty."""
    for name in [n for n in sys.modules if n == "qperiod" or n.startswith("qperiod.")]:
        del sys.modules[name]
    return importlib.import_module("qperiod")


def set_up(workload, tracer):
    """Import qperiod, bind the operations and run one warm-up pass."""
    start = time.perf_counter()
    qp = import_fresh()
    wrap_f = lambda fn: fn  # noqa: E731
    if tracer is not None:
        tracer.install(qp)
        wrap_f = tracer.wrap_evaluator
        tracer.on = True
    calls = workload.bind(qp, wrap_f)
    for call in calls:
        try:
            call()
        except Exception:  # counted when the timed passes meet it
            pass
    if tracer is not None:
        tracer.on = False
    return qp, calls, time.perf_counter() - start


def timed_passes(workload, qp, calls, seconds, tracer):
    """Whole passes until both the time and the operation floor are reached.

    Returns every completed call's latency and, per pass, the summed time
    of its calls (checks excluded).
    """
    latencies, pass_times, errors = [], [], {}
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_OPS:
        busy = 0.0
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.op = attempted
                tracer.on = True
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # an operation that raises counts as failed
                busy += time.perf_counter() - t0
                failed += 1
                errors.setdefault(i, repr(exc)[:200])
                continue
            finally:
                if tracer is not None:
                    tracer.on = False
            elapsed = time.perf_counter() - t0
            busy += elapsed
            latencies.append(elapsed)
            try:
                workload.check(i, out, qp)
            except CheckFailed as exc:
                wrong += 1
                errors.setdefault(i, f"wrong output: {exc}")
            if tracer is not None:
                tracer.op_counts.append(workload.trace_counts(out))
        pass_times.append(busy)
    return latencies, pass_times, attempted, failed, wrong, errors


def end_to_end(latencies, pass_times, attempted, failed, setups):
    """Throughput comes from the median pass, so a burst of load from outside
    the process that slows a few passes does not move it."""
    p50, p90 = np.percentile(np.asarray(latencies) * 1000.0, [50, 90])
    completed_per_pass = (attempted - failed) / len(pass_times)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_ops_s": {"value": completed_per_pass / statistics.median(pass_times), "unit": "1/s"},
        "latency_p50_ms": {"value": float(p50), "unit": "ms"},
        "latency_p90_ms": {"value": float(p90), "unit": "ms"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qperiod" / "__init__.py").is_file():
        print(f"qperiod sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUPS):
        qp, calls, seconds = set_up(workload, tracer)
        setups.append(seconds)

    gc.collect()  # garbage of the earlier set-ups is not the timed phase's
    latencies, pass_times, attempted, failed, wrong, errors = timed_passes(
        workload, qp, calls, args.seconds, tracer)
    for i, text in sorted(errors.items()):
        print(f"operation {i}: {text}", file=sys.stderr)

    e2e = end_to_end(latencies, pass_times, attempted, failed, setups)
    if tracer is None:
        metrics = e2e
    else:
        layer = tracer.metrics(attempted)
        warm = tracer.metrics(1, phase_warmup=True)
        for name in ("qstate.dft.calls", "qstate.dft.ms", "factorint.primes.ms", "factorint.order_find.ms"):
            layer[f"warmup.{name}"] = warm[name]
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-s{args.seed}.json.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "attempted": attempted,
                            "failed": failed, "setup_s": setups[0],
                            "traced": {k: v["value"] for k, v in e2e.items()}})
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
