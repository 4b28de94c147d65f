"""Command-line runner for the algorithms and protocols.

Every subcommand prints one JSON object to stdout with a fixed key order
(command, inputs, output, counters, seed, elapsed_ms) and is byte-for-byte
deterministic for a given seed and flag set; wall-clock timing is therefore
suppressed unless --timing is passed.  Exit codes: 0 success, 2 input
error, 3 protocol reject.
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


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _emit(command: str, inputs: dict, output, counters: dict, seed: int, elapsed_ms) -> None:
    record = {
        "command": command,
        "inputs": inputs,
        "output": output,
        "counters": {
            "fourier_calls": counters.get("fourier_calls", 0),
            "oracle_passes": counters.get("oracle_passes", 0),
            "rounds": counters.get("rounds", 0),
        },
        "seed": seed,
        "elapsed_ms": elapsed_ms,
    }
    sys.stdout.write(json.dumps(record) + "\n")


def _maybe_elapsed(args, started: float):
    """Real timing only on request; the default output stays byte-deterministic."""
    if getattr(args, "timing", False):
        return (time.perf_counter() - started) * 1000.0
    return None


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _parse_sets(text: str) -> list[list[int]]:
    return [_parse_ints(part) if part.strip() else [] for part in text.split(";")]


def _write_trace(path: str, trace: periodfind.EqpaTrace) -> None:
    with open(path, "w") as fh:
        for rec in trace.records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def _write_transcript(path: str, transcript: mpqc.Transcript) -> None:
    with open(path, "w") as fh:
        fh.write(transcript.to_jsonl())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qperiod", description=__doc__)
    parser.add_argument("--timing", action="store_true", help="report real elapsed_ms (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eqpa", help="exact period finding for f(x) = x mod r over Z_m")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=str, default=None, help="write per-iteration JSONL trace here")

    p = sub.add_parser("qpa-compare", help="exact vs probabilistic period finding success rates")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("factor", help="full prime factorization with simulated order finding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    for name in ("lcm", "gcd"):
        p = sub.add_parser(name, help=f"simulated multiparty {name} protocol")
        p.add_argument("--inputs", type=str, required=True, help="comma-separated secrets, e.g. 4,6,10")
        p.add_argument("--bits", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--transcript", type=str, default=None, help="write transcript JSONL here")

    for name in ("psu", "psi"):
        p = sub.add_parser(name, help=f"simulated multiparty private set {'union' if name == 'psu' else 'intersection'}")
        p.add_argument("--sets", type=str, required=True, help="semicolon-separated sets, e.g. '1,2;2,3'")
        p.add_argument("--universe", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--transcript", type=str, default=None)

    p = sub.add_parser("audit", help="run a protocol and leakage-audit its transcript")
    p.add_argument("--protocol", choices=("lcm", "gcd", "psu", "psi"), required=True)
    p.add_argument("--inputs", type=str, default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--sets", type=str, default=None)
    p.add_argument("--universe", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="counter statistics over repeated runs")
    p.add_argument("--algo", choices=("eqpa", "qpa"), default="eqpa")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_eqpa(args) -> int:
    if args.r < 1 or args.m < 1 or args.m % args.r != 0:
        return _fail(f"m={args.m} must be a positive multiple of r={args.r}")
    f = periodfind.PeriodicFunction.modular(args.r, args.m)
    started = time.perf_counter()
    period, trace = periodfind.eqpa(f, np.random.default_rng(args.seed))
    if args.trace:
        _write_trace(args.trace, trace)
    counters = {"fourier_calls": trace.fourier_calls, "oracle_passes": trace.oracle_calls, "rounds": 0}
    _emit("eqpa", {"r": args.r, "m": args.m}, period, counters, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK


def _cmd_qpa_compare(args) -> int:
    if args.r < 1 or args.m % args.r != 0:
        return _fail(f"m={args.m} must be a positive multiple of r={args.r}")
    if args.trials < 1:
        return _fail("trials must be >= 1")
    f = periodfind.PeriodicFunction.modular(args.r, args.m)
    started = time.perf_counter()
    eqpa_hits = 0
    qpa_hits = 0
    calls = 0
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
    _emit("qpa-compare", {"r": args.r, "m": args.m, "trials": args.trials}, report,
          {"fourier_calls": calls}, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK


def _cmd_factor(args) -> int:
    if args.n < 1:
        return _fail("n must be >= 1")
    started = time.perf_counter()
    result = factorint.factorize(args.n, np.random.default_rng(args.seed))
    output = {"factors": list(result.factors), "methods": list(result.methods), "trials": result.trials}
    _emit("factor", {"n": args.n}, output, {}, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK


def _run_protocol(args):
    name = args.protocol if args.command == "audit" else args.command
    if name in ("lcm", "gcd"):
        if args.inputs is None or args.bits is None:
            raise ValueError("--inputs and --bits are required")
        secrets = _parse_ints(args.inputs)
        fn = mpqc.lcm_protocol if name == "lcm" else mpqc.gcd_protocol
        result = fn(secrets, args.bits, seed=args.seed)
        return result, {"inputs": secrets, "bits": args.bits}, secrets
    if args.sets is None or args.universe is None:
        raise ValueError("--sets and --universe are required")
    sets = _parse_sets(args.sets)
    fn = mpqc.psu_protocol if name == "psu" else mpqc.psi_protocol
    result = fn(sets, args.universe, seed=args.seed)
    audit_basis = [factorint.encode_set(s) for s in sets]
    return result, {"sets": [sorted(s) for s in sets], "universe": args.universe}, audit_basis


def _cmd_protocol(args) -> int:
    started = time.perf_counter()
    result, inputs, _ = _run_protocol(args)
    if args.transcript:
        _write_transcript(args.transcript, result.transcript)
    if not result.accept:
        _emit(args.command, inputs, None, result.counters, args.seed, _maybe_elapsed(args, started))
        return EXIT_REJECT
    output = sorted(result.output) if isinstance(result.output, frozenset) else result.output
    _emit(args.command, inputs, output, result.counters, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK


def _cmd_audit(args) -> int:
    started = time.perf_counter()
    result, inputs, basis = _run_protocol(args)
    report = mpqc.leakage_audit(result, basis)
    output = {
        "protocol": args.protocol,
        "passed": report.passed,
        "violations": list(report.violations),
        "messages_checked": report.messages_checked,
    }
    _emit("audit", inputs, output, result.counters, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK if report.passed else EXIT_REJECT


def _cmd_bench(args) -> int:
    if args.r < 1 or args.m % args.r != 0:
        return _fail(f"m={args.m} must be a positive multiple of r={args.r}")
    f = periodfind.PeriodicFunction.modular(args.r, args.m)
    started = time.perf_counter()
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
    _emit("bench", {"algo": args.algo, "r": args.r, "m": args.m, "trials": args.trials},
          report, {"fourier_calls": sum(calls)}, args.seed, _maybe_elapsed(args, started))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eqpa":
            return _cmd_eqpa(args)
        if args.command == "qpa-compare":
            return _cmd_qpa_compare(args)
        if args.command == "factor":
            return _cmd_factor(args)
        if args.command in ("lcm", "gcd", "psu", "psi"):
            return _cmd_protocol(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except ValueError as exc:  # ProtocolError and PromiseViolation included
        return _fail(str(exc))
    return _fail(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
