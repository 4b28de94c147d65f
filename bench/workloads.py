"""Seeded inputs, operations and output checks of the four benchmark workloads.

Inputs are made from the workload seed with numpy's generator and never
from ``qperiod`` itself; the expected outputs (periods, lcm/gcd, set union
and intersection, prime factors) are fixed when the inputs are made, so
every check compares against a value computed apart from the program.

A run repeats one fixed list of operation slots, and the figures of runs
with different seeds must be comparable, so the cost of a pass may move
little with the seed:

* sizes are drawn by stratified sampling: each of the n slots of a pass
  takes one random point from its own 1/n slice of the size range, so the
  marginal law is the one each workload states (log-uniform r, log-uniform
  smallest prime factor) while the sorted costs stay close to a fixed curve;
* secondary sizes (the multiplier c of m = c*r, the shape of a protocol
  call) follow a fixed design per slot rather than a random draw;
* the program's own randomness -- a protocol's ``seed`` argument, which
  fixes the parties' masks and so the joint modulus k, and factorize's rng
  -- is the slot number in every run (common random numbers), while the
  secrets, sets and integers come from the workload seed.
"""

from __future__ import annotations

import math

import numpy as np

# Universe element u encodes as the (u+1)-th prime; universes hold 4-6 elements.
UNIVERSE_PRIMES = (2, 3, 5, 7, 11, 13)

# A PeriodicFunction modulus is at most 2^40, and the joint LCM modulus is a
# product of n masked values below 2^(bits+1).
MODULUS_BITS = 40

# Promise analysis and the block sampler cost O(r); large r is what
# eqpa_block measures, so the protocol inputs keep the joint period small.
PROTOCOL_MAX_LCM = 1 << 13


class CheckFailed(AssertionError):
    """An operation returned an output that differs from the expected one."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _ceil_log2(x: int) -> int:
    return max(x - 1, 0).bit_length()


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [0, 1), one uniform draw inside each slice [i/n, (i+1)/n)."""
    return (np.arange(n) + rng.random(n)) / n


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first twelve prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_odd_prime(rng: np.random.Generator, bits: int) -> int:
    """Uniform odd candidate with the top bit set, redrawn until prime."""
    while True:
        n = int(rng.integers(1 << (bits - 1), 1 << bits)) | 1
        if _is_prime(n):
            return n


def _small_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _design(n: int) -> np.ndarray:
    """n fixed, evenly spread points in [0, 1) (golden-ratio sequence)."""
    return (np.arange(n) * 0.6180339887498949) % 1.0


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 1 << 31, size=n)]


# ---------------------------------------------------------------------------
# EQPA workloads


class _EqpaWorkload:
    """Generic promise functions f(x) = perm[x mod r] with perm a seeded
    permutation of Z_r, on Z_m with m = c*r."""

    engine = "block"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        rs, cs = self._sizes(rng)
        self.specs = [
            (r, c * r, rng.permutation(r).astype(np.int64), s)
            for r, c, s in zip(rs, cs, _seeds(rng, len(rs)))
        ]
        self._reference: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.specs)

    def bind(self, qp, wrap_f) -> list:
        self._functions = []
        for r, m, perm, _ in self.specs:
            def evaluate(x, perm=perm, r=r):
                return perm[x % r]

            self._functions.append(qp.periodfind.PeriodicFunction(modulus=m, evaluator=wrap_f(evaluate)))
        return [lambda f=f, s=spec[3]: qp.periodfind.eqpa(f, np.random.default_rng(s), engine=self.engine)
                for f, spec in zip(self._functions, self.specs)]

    def check(self, i: int, out, qp) -> None:
        r, m, _, _ = self.specs[i]
        period, trace = out
        _check(period == r, f"period {period} != {r} (m={m})")
        calls_bound = 4 * (m.bit_length() - 1 + 2) * (_ceil_log2(r) + 1)
        _check(trace.fourier_calls <= calls_bound,
               f"fourier_calls {trace.fourier_calls} > {calls_bound} (r={r}, m={m})")
        _check(trace.sweeps <= _ceil_log2(r) + 1,
               f"sweeps {trace.sweeps} > {_ceil_log2(r) + 1} (r={r}, m={m})")

    def trace_counts(self, out) -> dict:
        return {}


class EqpaBlock(_EqpaWorkload):
    """r log-uniform over [2, 2^17], m = c*r with c in 1..8 (m <= 2^20)."""

    name = "eqpa_block"
    size = 128

    def _sizes(self, rng):
        rs = np.clip(np.rint(2.0 ** (1 + 16 * _strata(rng, self.size))), 2, 1 << 17).astype(int)
        # each octave of r (eight strata) meets every multiplier 1..8 once
        cs = 1 + np.arange(self.size) % 8
        order = rng.permutation(self.size)
        return [int(v) for v in rs[order]], [int(v) for v in cs[order]]


class EqpaProgram(_EqpaWorkload):
    """r log-uniform over [2, 20], m = c*r <= 80, literal program engine.

    Each pass is also checked against the block engine: the same seed must
    give the same per-iteration outcomes and, within 1e-9, the same masses.
    """

    name = "eqpa_program"
    engine = "program"
    size = 38

    def _sizes(self, rng):
        rs = np.clip(np.rint(2.0 * 10.0 ** _strata(rng, self.size)), 2, 20).astype(int)
        cs = [1 + int(u * (80 // int(r))) for r, u in zip(rs, _design(self.size))]
        order = rng.permutation(self.size)
        return [int(v) for v in rs[order]], [cs[i] for i in order]

    def check(self, i: int, out, qp) -> None:
        super().check(i, out, qp)
        if i not in self._reference:
            _, _, _, s = self.specs[i]
            _, ref = qp.periodfind.eqpa(self._functions[i], np.random.default_rng(s), engine="block")
            self._reference[i] = ref.records
        ref = self._reference[i]
        got = out[1].records
        _check(len(got) == len(ref), f"program engine made {len(got)} iterations, block {len(ref)}")
        for a, b in zip(got, ref):
            _check((a.k, a.b, a.chi, a.d_before, a.d_after) == (b.k, b.b, b.chi, b.d_before, b.d_after),
                   f"iteration outcome differs from the block engine: {a} vs {b}")
            _check(abs(a.good_mass - b.good_mass) <= 1e-9,
                   f"good_mass {a.good_mass} vs block engine {b.good_mass}")


# ---------------------------------------------------------------------------
# protocols


def _encode(s) -> int:
    return math.prod(UNIVERSE_PRIMES[u] for u in s)


def _radical(n: int) -> int:
    return math.prod(set(_small_factors(n)))


class Protocols:
    """A fixed mix of LCM, GCD, PSU and PSI calls, each followed by its
    leakage audit.  2-5 parties, secrets of 4-6 bits (values in [8, 2^bits)),
    sets from universes of 4-6 elements."""

    name = "protocols"
    # The joint modulus of an LCM over n inputs of at most b bits lies in
    # [2^(n*b), 2^(n*(b+1))), and the literal preparation pass runs when it is
    # at most 2^18.  Each slot fixes n and b, with b the bit length of the
    # largest secret, radical (GCD) or set encoding (PSU, PSI), to a pair
    # whose whole range lies on one side of 2^18, so the seed never moves a
    # call across that limit.
    # (parties, bits) of the LCM calls: 70 of 94 run the literal pass.
    LCM_SHAPES = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)] * 14 + \
                 [(3, 6), (4, 5), (4, 6), (5, 4), (5, 5), (5, 6)] * 4
    # (parties, bits) of the GCD calls: the inner union runs on radicals
    GCD_SHAPES = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)] * 4
    # (parties, universe size, bits of the largest encoding), for PSU and for PSI
    SET_SHAPES = [(2, 4, 5), (2, 5, 8), (3, 4, 5), (2, 6, 7),
                  (2, 6, 12), (3, 5, 9), (4, 5, 7), (5, 4, 6)] * 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        slots = ([("lcm", n, b, b) for n, b in self.LCM_SHAPES]
                 + [("gcd", n, b, b) for n, b in self.GCD_SHAPES]
                 + [(kind, *shape) for kind in ("psu", "psi") for shape in self.SET_SHAPES])
        specs = []
        for slot, (kind, n, param, bits) in enumerate(slots):
            if kind == "lcm":
                inputs = self._secrets(rng, n, bits, lambda xs: max(xs).bit_length())
            elif kind == "gcd":
                inputs = self._secrets(rng, n, bits, lambda xs: max(_radical(x) for x in xs).bit_length(),
                                       common=True)
            else:
                inputs = self._sets(rng, n, param, bits)
            specs.append((kind, inputs, param, slot))  # the slot number is the protocol seed
        self.specs = [specs[i] for i in rng.permutation(len(specs))]

    def __len__(self) -> int:
        return len(self.specs)

    @staticmethod
    def _secrets(rng, n, bits, width, common=False):
        """n secrets in [8, 2^bits) whose ``width`` is ``bits``; GCD inputs
        share a random factor below 8."""
        while True:
            g = int(rng.integers(1, 8)) if common else 1
            xs = [g * int(rng.integers(-(-8 // g), ((1 << bits) - 1) // g + 1)) for _ in range(n)]
            if width(xs) == bits and math.lcm(*xs) <= PROTOCOL_MAX_LCM:
                return xs

    @staticmethod
    def _sets(rng, n, size, bits):
        """n non-empty subsets of range(size), the largest encoding of ``bits`` bits."""
        assert n * (bits + 1) <= MODULUS_BITS
        while True:
            sets = [sorted(int(u) for u in rng.choice(size, int(rng.integers(1, size + 1)), replace=False))
                    for _ in range(n)]
            if max(_encode(s) for s in sets).bit_length() == bits:
                return sets

    def bind(self, qp, wrap_f) -> list:
        mpqc = qp.mpqc
        calls = []
        for kind, inputs, param, s in self.specs:
            fn = {"lcm": mpqc.lcm_protocol, "gcd": mpqc.gcd_protocol,
                  "psu": mpqc.psu_protocol, "psi": mpqc.psi_protocol}[kind]
            basis = inputs if kind in ("lcm", "gcd") else [_encode(x) for x in inputs]

            def call(fn=fn, inputs=inputs, param=param, s=s, basis=basis):
                result = fn(inputs, param, seed=s)
                return result, mpqc.leakage_audit(result, basis)

            calls.append(call)
        return calls

    def check(self, i: int, out, qp) -> None:
        kind, inputs, _, _ = self.specs[i]
        result, audit = out
        if kind == "lcm":
            expected = math.lcm(*inputs)
        elif kind == "gcd":
            expected = math.gcd(*inputs)
        elif kind == "psu":
            expected = frozenset().union(*map(frozenset, inputs))
        else:
            expected = frozenset(inputs[0]).intersection(*inputs[1:])
        _check(result.accept, f"{kind} {inputs} rejected")
        _check(result.output == expected, f"{kind} {inputs} gave {result.output}, expected {expected}")
        _check(audit.passed, f"{kind} {inputs} failed its audit: {audit.violations[:3]}")
        _check(result.repetitions == 0, f"{kind} {inputs} repeated {result.repetitions} times")
        t = result.transcript
        _check(t.rounds == len(inputs) * t.oracle_passes,
               f"{kind} {inputs}: rounds {t.rounds} != {len(inputs)} x {t.oracle_passes} passes")
        _check(t.verify_handoff_chain(), f"{kind} {inputs}: broken handoff chain")

    def trace_counts(self, out) -> dict:
        t = out[0].transcript
        return {
            "messages": len(t.messages),
            "rounds": t.rounds,
            "handoffs": sum(1 for m in t.messages if m.kind == "register-handoff"),
        }


# ---------------------------------------------------------------------------
# factoring


class Factor:
    """factorint.factorize with a seeded rng over a fixed list per pass.

    Trial division costs about the smallest prime factor p, so p (not the
    bit length) is log-uniform: 2^13.8..2^20.7 for semiprimes p*q with
    p < q < 1.5p, 2^9.35..2^13.6 for products of three primes within 30% of
    each other.  Both kinds land in 28-42 bits.
    """

    name = "factor"
    # Semiprimes are the majority, so both percentiles fall inside the
    # continuous spread of their costs rather than between two kinds.
    SEMIPRIMES, TRIPLES, POWERS = 56, 12, 10
    # odd composites <= 64, each once, times a random power of two
    SMALL = [n for n in range(9, 65, 2) if not _is_prime(n)]
    # Both fail today: _perfect_power takes float roots, which overflow for
    # n >= 2^1024.  They do not depend on the seed.
    OVERFLOW = ((3**700, [3] * 700), ((2**521 - 1) ** 2, [2**521 - 1] * 2))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        cases = []
        for u in _strata(rng, self.SEMIPRIMES):
            p = _next_prime(int(2 ** (13.8 + 6.9 * u)))
            q = self._prime_between(rng, p, p * 3 // 2, {p})
            cases.append((p * q, [p, q]))
        for u in _strata(rng, self.TRIPLES):
            p = _next_prime(int(2 ** (9.35 + 4.25 * u)))
            q = self._prime_between(rng, p, p * 13 // 10, {p})
            s = self._prime_between(rng, p, p * 13 // 10, {p, q})
            cases.append((p * q * s, [p, q, s]))
        for n in self.SMALL:
            e = int(rng.integers(0, 41))
            cases.append((n << e, _small_factors(n) + [2] * e))
        # perfect powers of an odd prime of 2-32 bits, below 2^1024; factorize
        # recurses once per factor 2, so large powers of two would overflow
        # the interpreter stack (see CHANGES.md)
        for u in _strata(rng, self.POWERS):
            p = _random_odd_prime(rng, 2 + int(u * 31))
            e = int(rng.integers(2, int(1023 / math.log2(p)) + 1))
            cases.append((p**e, [p] * e))
        # the slot number seeds factorize's rng (common random numbers), so the
        # bases drawn for order finding, and the marginals cached for them, do
        # not change with the workload seed
        specs = [(n, sorted(f), slot) for slot, (n, f) in enumerate(cases + list(self.OVERFLOW))]
        tail = len(self.OVERFLOW)
        self.specs = [specs[i] for i in rng.permutation(len(specs) - tail)] + specs[-tail:]

    @staticmethod
    def _prime_between(rng, lo, hi, exclude):
        while True:
            n = int(rng.integers(lo, hi))
            if n not in exclude and _is_prime(n):
                return n

    def __len__(self) -> int:
        return len(self.specs)

    def bind(self, qp, wrap_f) -> list:
        return [lambda n=n, s=s: qp.factorint.factorize(n, np.random.default_rng(s))
                for n, _, s in self.specs]

    def check(self, i: int, out, qp) -> None:
        n, expected, _ = self.specs[i]
        _check(sorted(out.factors) == expected, f"factorize({n}) gave {out.factors}")

    def trace_counts(self, out) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (EqpaBlock, EqpaProgram, Protocols, Factor)}
