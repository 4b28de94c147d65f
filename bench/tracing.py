"""Outside-in spans around the public functions of each qperiod layer.

The tracer rebinds every module's own copy of a wrapped name (``mpqc``
imports ``apply_oracle`` and ``eqpa`` directly, ``amplify`` imports
``dft``, and so on), so calls between layers pass through the wrappers.
Each span records name, start, end, parent span and operation id; spans
stay in memory and are written once, when the run ends.  EQPA phases are
timed through the public ``on_iteration`` hook, chained in front of any
callback the caller passed.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from time import perf_counter

import numpy as np

# (home module, function) -> span name
WRAPPED = {
    ("qstate", "dft"): "qstate.dft",
    ("qstate", "apply_oracle"): "qstate.oracle",
    ("qstate", "measure"): "qstate.measure",
    ("qstate", "measure_joint"): "qstate.measure",
    ("qstate", "uniform_prep"): "qstate.other",
    ("qstate", "controlled_subtract"): "qstate.other",
    ("qstate", "phase_flip"): "qstate.other",
    ("qstate", "good_mass"): "qstate.other",
    ("amplify", "boost_from_half"): "amplify.boost",
    ("periodfind", "eqpa"): "periodfind.eqpa",
    ("factorint", "factorize"): "factorint.factorize",
    ("factorint", "order_find"): "factorint.order_find",
    ("factorint", "nth_prime"): "factorint.primes",
    ("factorint", "prime_index"): "factorint.primes",
    ("factorint", "primes_below"): "factorint.primes",
    ("factorint", "decode_set"): "factorint.decode_set",
    ("mpqc", "lcm_protocol"): "mpqc.protocol",
    ("mpqc", "gcd_protocol"): "mpqc.protocol",
    ("mpqc", "psu_protocol"): "mpqc.protocol",
    ("mpqc", "psi_protocol"): "mpqc.protocol",
    ("mpqc", "divisibility_vote"): "mpqc.vote",
    ("mpqc", "leakage_audit"): "mpqc.audit",
}
QSTATE = ("qstate.dft", "qstate.oracle", "qstate.measure", "qstate.other")
WARMUP = -1

# span fields
NAME, START, END, PARENT, OP, N_IN, N_OUT = range(7)


def _entries(value) -> int:
    """num_entries of a SparseState, or of the state inside a (outcome, state) pair."""
    if isinstance(value, tuple):
        value = value[-1]
    return getattr(value, "num_entries", 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.eqpa_runs: list[dict] = []
        self.op_counts: list[dict] = []
        self._stack: list[int] = []
        self.op = WARMUP
        self.on = False

    # -- recording -----------------------------------------------------

    def _open(self, name: str, n_in: int = 0) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op, n_in, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            n_in = _entries(args[0]) if name in QSTATE else 0
            span = tracer._open(name, n_in)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name in QSTATE:
                span[N_OUT] = _entries(out)
            elif name == "factorint.factorize":
                span[N_OUT] = out.trials
            return out

        return wrapper

    def _wrap_eqpa(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, rng, engine="block", on_iteration=None):
            if not tracer.on:
                return fn(f, rng, engine=engine, on_iteration=on_iteration)
            run = {"op": tracer.op, "enter": [], "exit": [], "updated": 0}

            def hook(record):
                run["enter"].append(perf_counter())
                run["updated"] += record.updated
                if on_iteration is not None:
                    span = tracer._open("mpqc.ring_log")
                    try:
                        on_iteration(record)
                    finally:
                        tracer._close(span)
                run["exit"].append(perf_counter())

            span = tracer._open("periodfind.eqpa")
            run["start"] = span[START]
            try:
                period, trace = fn(f, rng, engine=engine, on_iteration=hook)
            finally:
                tracer._close(span)
                run["end"] = span[END]
                tracer.eqpa_runs.append(run)
            run["fourier_calls"] = trace.fourier_calls
            return period, trace

        return wrapper

    def wrap_evaluator(self, fn):
        """Span around the benchmark's own promise-function evaluator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(x):
            if not tracer.on:
                return fn(x)
            span = tracer._open("periodfind.f", int(np.size(x)))
            try:
                return fn(x)
            finally:
                tracer._close(span)

        return wrapper

    def install(self, qp) -> None:
        modules = [qp, qp.qstate, qp.amplify, qp.periodfind, qp.factorint, qp.mpqc]
        originals = {key: getattr(getattr(qp, key[0]), key[1]) for key in WRAPPED}
        for (home, fname), name in WRAPPED.items():
            orig = originals[(home, fname)]
            wrapper = self._wrap_eqpa(orig) if name == "periodfind.eqpa" else self._wrap(name, orig)
            for mod in modules:
                if mod.__dict__.get(fname) is orig:
                    setattr(mod, fname, wrapper)

    # -- summary -------------------------------------------------------

    def metrics(self, ops: int, phase_warmup: bool = False) -> dict:
        """Per-layer metrics of the timed phase, per operation where a total."""
        keep = (lambda op: op == WARMUP) if phase_warmup else (lambda op: op != WARMUP)
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        tot: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        n_in: dict[str, int] = {}
        peak = prep = attempts = 0.0
        for i, s in enumerate(spans):
            if not keep(s[OP]):
                continue
            name, dur = s[NAME], s[END] - s[START]
            tot[name] = tot.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + dur - child[i]
            n_in[name] = n_in.get(name, 0) + s[N_IN]
            if name in QSTATE:
                peak = max(peak, s[N_IN], s[N_OUT])
                if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "mpqc.protocol":
                    prep += dur
            elif name == "factorint.factorize":
                attempts += s[N_OUT]
        runs = [r for r in self.eqpa_runs if keep(r["op"])]
        first = sum(r["enter"][0] - r["start"] for r in runs if r["enter"])
        final = sum(r["end"] - r["exit"][-1] for r in runs if r["exit"])
        gaps = [b - a for r in runs for a, b in zip(r["exit"], r["enter"][1:])]
        iterations = sum(len(r["enter"]) for r in runs)
        counts = {k: sum(c.get(k, 0) for c in self.op_counts) for k in ("messages", "rounds", "handoffs")}

        per = 1.0 / ops
        ms = 1000.0 * per

        def t(name):
            return tot.get(name, 0.0) * ms

        return {
            "qstate.dft.calls": calls.get("qstate.dft", 0) * per,
            "qstate.dft.ms": t("qstate.dft"),
            "qstate.dft.entries_in": n_in.get("qstate.dft", 0) * per,
            "qstate.oracle.ms": t("qstate.oracle"),
            "qstate.measure.ms": t("qstate.measure"),
            "qstate.other.ms": t("qstate.other"),
            "qstate.peak_entries": peak,
            "amplify.boost.calls": calls.get("amplify.boost", 0) * per,
            "amplify.boost.self_ms": self_ms.get("amplify.boost", 0.0) * ms,
            "periodfind.eqpa.calls": calls.get("periodfind.eqpa", 0) * per,
            "periodfind.eqpa.self_ms": self_ms.get("periodfind.eqpa", 0.0) * ms,
            "periodfind.first_iteration_ms": first * ms,
            "periodfind.iteration_ms": 1000.0 * statistics.median(gaps) if gaps else 0.0,
            "periodfind.final_check_ms": final * ms,
            "periodfind.iterations": iterations * per,
            "periodfind.fourier_calls": sum(r.get("fourier_calls", 0) for r in runs) * per,
            "periodfind.informative_ratio": sum(r["updated"] for r in runs) / iterations if iterations else 0.0,
            "periodfind.f_points": n_in.get("periodfind.f", 0) * per,
            "periodfind.f_ms": t("periodfind.f"),
            "factorint.factorize.calls": calls.get("factorint.factorize", 0) * per,
            "factorint.factorize.self_ms": self_ms.get("factorint.factorize", 0.0) * ms,
            "factorint.order_find.calls": calls.get("factorint.order_find", 0) * per,
            "factorint.order_find.ms": t("factorint.order_find"),
            "factorint.split_attempts": attempts * per,
            "factorint.primes.ms": t("factorint.primes"),
            "factorint.decode_set.ms": t("factorint.decode_set"),
            "mpqc.protocol.self_ms": (self_ms.get("mpqc.protocol", 0.0) + self_ms.get("mpqc.ring_log", 0.0)) * ms,
            "mpqc.prep_pass.ms": prep * ms,
            "mpqc.audit.ms": t("mpqc.audit"),
            "mpqc.vote.ms": t("mpqc.vote"),
            "mpqc.messages": counts["messages"] * per,
            "mpqc.rounds": counts["rounds"] * per,
            "mpqc.handoff_share": counts["handoffs"] / counts["messages"] if counts["messages"] else 0.0,
        }

    def write(self, path, extra: dict) -> None:
        """All spans and EQPA phase marks, written once at the end of the run."""
        with gzip.open(path, "wt") as out:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent", "op", "n_in", "n_out"],
                       "spans": self.spans, "eqpa_runs": self.eqpa_runs}, out)
