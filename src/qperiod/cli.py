"""Command-line runner for the algorithms and protocols.

Every subcommand prints one JSON object to stdout with a fixed key order
(command, inputs, output, counters, seed, elapsed_ms) and is byte-for-byte
deterministic for a given seed and flag set; wall-clock timing is therefore
suppressed unless --timing is passed.  Exit codes: 0 success, 2 input
error, 3 failed leakage audit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import factorint, mpqc, periodfind

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECT = 3


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _parse_sets(text: str) -> list[list[int]]:
    return [_parse_ints(part) if part.strip() else [] for part in text.split(";")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qperiod", description=__doc__)
    parser.add_argument("--timing", action="store_true", help="report real elapsed_ms (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    modular = argparse.ArgumentParser(add_help=False)
    modular.add_argument("--r", type=int, required=True)
    modular.add_argument("--m", type=int, required=True)

    p = sub.add_parser("eqpa", parents=[modular, seed], help="exact period finding for f(x) = x mod r over Z_m")
    p.add_argument("--trace", type=str, default=None, help="write per-iteration JSONL trace here")
    p.set_defaults(run=_eqpa)

    p = sub.add_parser("qpa-compare", parents=[modular, seed], help="exact vs probabilistic period finding success rates")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(run=_qpa_compare)

    p = sub.add_parser("factor", parents=[seed], help="full prime factorization with simulated order finding")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_factor)

    for name in ("lcm", "gcd"):
        p = sub.add_parser(name, parents=[seed], help=f"simulated multiparty {name} protocol")
        p.add_argument("--inputs", type=str, required=True, help="comma-separated secrets, e.g. 4,6,10")
        p.add_argument("--bits", type=int, required=True)
        p.add_argument("--transcript", type=str, default=None, help="write transcript JSONL here")
        p.set_defaults(run=_protocol, protocol=name)

    for name in ("psu", "psi"):
        kind = "union" if name == "psu" else "intersection"
        p = sub.add_parser(name, parents=[seed], help=f"simulated multiparty private set {kind}")
        p.add_argument("--sets", type=str, required=True, help="semicolon-separated sets, e.g. '1,2;2,3'")
        p.add_argument("--universe", type=int, required=True)
        p.add_argument("--transcript", type=str, default=None)
        p.set_defaults(run=_protocol, protocol=name)

    p = sub.add_parser("audit", parents=[seed], help="run a protocol and leakage-audit its transcript")
    p.add_argument("--protocol", choices=("lcm", "gcd", "psu", "psi"), required=True)
    p.add_argument("--inputs", type=str, default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--sets", type=str, default=None)
    p.add_argument("--universe", type=int, default=None)
    p.set_defaults(run=_audit)

    p = sub.add_parser("bench", parents=[modular, seed], help="counter statistics over repeated runs")
    p.add_argument("--algo", choices=("eqpa", "qpa"), default="eqpa")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(run=_bench)

    return parser


def _modular(args) -> periodfind.PeriodicFunction:
    """f(x) = x mod r over Z_m, for the commands that take --r and --m."""
    if args.r < 1 or args.m < 1 or args.m % args.r != 0:
        raise ValueError(f"m={args.m} must be a positive multiple of r={args.r}")
    return periodfind.PeriodicFunction.modular(args.r, args.m)


def _eqpa(args):
    period, trace = periodfind.eqpa(_modular(args), np.random.default_rng(args.seed))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.writelines(json.dumps(rec._asdict()) + "\n" for rec in trace.records)
    counters = {"fourier_calls": trace.fourier_calls, "oracle_passes": trace.fourier_calls}
    return {"r": args.r, "m": args.m}, period, counters, EXIT_OK


def _qpa_compare(args):
    f = _modular(args)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    eqpa_hits = qpa_hits = calls = 0
    for i in range(args.trials):
        rng = np.random.default_rng(args.seed + i)
        period, trace = periodfind.eqpa(f, rng)
        calls += trace.fourier_calls
        eqpa_hits += period == args.r
        qpa_hits += periodfind.standard_qpa(f, rng, samples=1) == args.r
    report = {
        "eqpa_success_rate": eqpa_hits / args.trials,
        "qpa_single_sample_success_rate": qpa_hits / args.trials,
        "fourier_calls_each": {"eqpa_mean": calls / args.trials, "qpa_single_sample": 1},
    }
    return {"r": args.r, "m": args.m, "trials": args.trials}, report, {"fourier_calls": calls}, EXIT_OK


def _factor(args):
    if args.n < 1:
        raise ValueError("n must be >= 1")
    result = factorint.factorize(args.n, np.random.default_rng(args.seed))
    output = {"factors": list(result.factors), "methods": list(result.methods), "trials": result.trials}
    return {"n": args.n}, output, {}, EXIT_OK


def _run_protocol(args):
    if args.protocol in ("lcm", "gcd"):
        if args.inputs is None or args.bits is None:
            raise ValueError("--inputs and --bits are required")
        secrets = _parse_ints(args.inputs)
        fn = mpqc.lcm_protocol if args.protocol == "lcm" else mpqc.gcd_protocol
        return fn(secrets, args.bits, seed=args.seed), {"inputs": secrets, "bits": args.bits}
    if args.sets is None or args.universe is None:
        raise ValueError("--sets and --universe are required")
    sets = _parse_sets(args.sets)
    fn = mpqc.psu_protocol if args.protocol == "psu" else mpqc.psi_protocol
    return fn(sets, args.universe, seed=args.seed), {"sets": [sorted(s) for s in sets], "universe": args.universe}


def _protocol(args):
    result, inputs = _run_protocol(args)
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(result.transcript.to_jsonl())
    output = sorted(result.output) if isinstance(result.output, frozenset) else result.output
    return inputs, output, result.counters, EXIT_OK


def _audit(args):
    result, inputs = _run_protocol(args)
    # the run's top-layer inputs: the secrets, or the set encodings
    report = mpqc.leakage_audit(result, result.layer_inputs[0][1])
    output = {
        "protocol": args.protocol,
        "passed": report.passed,
        "violations": list(report.violations),
        "messages_checked": report.messages_checked,
    }
    return inputs, output, result.counters, EXIT_OK if report.passed else EXIT_REJECT


def _bench(args):
    f = _modular(args)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    calls, sweeps, hits = [], [], 0
    for i in range(args.trials):
        rng = np.random.default_rng(args.seed + i)
        if args.algo == "eqpa":
            period, trace = periodfind.eqpa(f, rng)
            calls.append(trace.fourier_calls)
            sweeps.append(trace.sweeps)
        else:
            period = periodfind.standard_qpa(f, rng, samples=1)
            calls.append(1)
            sweeps.append(1)
        hits += period == args.r
    report = {
        "trials": args.trials,
        "success_rate": hits / args.trials,
        "fourier_calls": {"min": min(calls), "max": max(calls), "mean": sum(calls) / len(calls)},
        "sweeps": {"min": min(sweeps), "max": max(sweeps)},
    }
    inputs = {"algo": args.algo, "r": args.r, "m": args.m, "trials": args.trials}
    return inputs, report, {"fourier_calls": sum(calls)}, EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Time one subcommand and write its record; bad input exits 2 instead."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed < 0:  # numpy refuses a negative seed without naming the flag
            raise ValueError("--seed must be >= 0")
        inputs, output, counters, code = args.run(args)
    except (ValueError, OSError) as exc:  # ProtocolError, PromiseViolation and unwritable paths included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    record = {
        "command": args.command,
        "inputs": inputs,
        "output": output,
        "counters": {key: counters.get(key, 0) for key in ("fourier_calls", "oracle_passes", "rounds")},
        "seed": args.seed,
        # real timing only on request; the default output stays byte-deterministic
        "elapsed_ms": (time.perf_counter() - started) * 1000.0 if args.timing else None,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
