"""Fourier sampling, the probabilistic period-finding baseline, and the
exact period finder (EQPA).

Given a function f on Z_m with the promise f(x) = f(y) iff x = y (mod r)
for a hidden period r dividing m, Fourier sampling of sum_j |j>|f(j)> puts
the index marginal exactly on the multiples of m/r, each with mass 1/r.
Any sampled index k with d*k != 0 (mod m) improves a maintained divisor d
of r via d <- lcm(d, m/gcd(m, k)).

The exact finder makes every round of that loop deterministic-in-success:
the round with window exponent j marks outcomes (k, b) good when
rep(d*k) >= m/2, or when b = 1 and 0 < rep(d*k) <= 2^j, where rep is the
representative of d*k mod m in [0, m).  When r/d is even the j = -1 round
has good mass exactly 1/2, and when q = r/d is odd the round with
j* = ceil(log2(m/q)) does; a single amplitude amplification with phases i
then boosts the good mass to 1, so the measured index is informative with
certainty.  A sweep at d runs j = -1 and j = lo..floor(log2 m), where
lo = ceil(log2(d*2^v)) for 2^v the largest power of two dividing m/d: an
odd q divides the odd part of m/d, so j* >= lo.  So each d != r is updated
(at least doubled) within its sweep, and the sweep of d = r ends the run.

Two samplers drive the same loop: ``engine="block"`` evaluates the boosted
measurement distribution in the invariant 2r-dimensional block basis
|k>|G_k>|b>|mark> (exact and fast: the residual function-register states
G_k are orthonormal, so they never affect the index marginal), while
``engine="program"`` runs the literal program composition step by step:
its (d, j)-free prefix (index, f, Fourier transform, coin) once per run,
then one literal boost per distinct good set on the support (d and the
clipped window of 2^j), whose (index, b, good) marginal it keeps, so
repeated iterations draw from the cached marginal.
Both consume one rng draw per iteration and produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .amplify import (
    MASS_TOL,
    DftStep,
    OracleStep,
    PrepStep,
    ReversibleProgram,
    amplification_operator,
)
from .qstate import (
    ClassicalOracle,
    GoodPredicate,
    RegisterLayout,
    _walk,
    good_mass,
    joint_marginal,
)

# Largest period _analyze accepts, a period equal to the modulus too (its
# scan, the values it keeps and its residue table grow with the period;
# declared functions are never scanned), and the cap of factorint's sieve.
_MAX_PERIOD = 1 << 24


class PromiseViolation(ValueError):
    """The function does not satisfy the exact-period promise."""


@dataclass(frozen=True)
class PeriodicFunction:
    """A function on Z_m promised to be exactly periodic with r | m.

    ``evaluator`` takes int64 arrays of points, so a function that is
    evaluated (any undeclared one) needs m <= 2^63.  It must return a new
    array on each call: the promise check keeps the arrays it gets back.
    ``table``, set by :meth:`from_table`, holds every value, so the promise
    check reads all of it instead of spot points.  ``residues`` declares
    that f(x) is an injective function of (x mod x_0, ..., x mod x_{n-1}):
    by the CRT its period is then exactly lcm(x_i), and the promise holds
    whenever that lcm divides the modulus, so the block engine takes the
    period from the declaration without evaluating f.
    """

    modulus: int
    evaluator: Callable[..., object]
    table: np.ndarray | None = field(default=None, compare=False, repr=False)
    residues: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if self.residues is not None and not all(x >= 1 for x in self.residues):
            raise ValueError("declared residue moduli must be positive")

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=np.int64)), dtype=np.int64)

    @classmethod
    def modular(cls, period: int, modulus: int) -> "PeriodicFunction":
        """f(x) = x mod period, the canonical promise-satisfying family."""
        if period < 1:
            raise ValueError("period must be positive")
        return cls(modulus=modulus, evaluator=lambda x: x % period)

    @classmethod
    def from_table(cls, values: Sequence[int]) -> "PeriodicFunction":
        table = np.asarray(list(values), dtype=np.int64)
        return cls(modulus=len(table), evaluator=lambda x: table[x], table=table)


_CHUNK = 4096  # points per evaluator call of _analyze's scan


class _Seeded(np.random.bit_generator.ISeedSequence):
    """``SeedSequence(seed)``'s PCG64 state words, hashed once: ``PCG64(self)`` starts as ``default_rng(seed)``."""

    def __init__(self, seed: int):
        self.words = np.random.SeedSequence(seed).generate_state(4, np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


_SPOT_SEEDS = _Seeded(0x5EED), _Seeded(0xD00D)


def _analyze(f: PeriodicFunction) -> int:
    """Detect the exact period of ``f``, verify the promise and return the period.

    Under the promise, f(j) first revisits f(0) at j = r exactly, so a
    forward scan in chunks of 4096 points, the first [0, min(4096, m)),
    finds r with at most r + 4096 evaluations; a period past
    ``_MAX_PERIOD`` (r = m included) raises :class:`ValueError` after at
    most ``_MAX_PERIOD + 1``.  The values of one period are checked for a
    repeat in linear time: each marks its residue mod the least power of
    two >= 2r in a table, so r distinct residues prove r distinct values,
    and only a residue collision sorts them to decide exactly.  Periodicity
    is verified on every point when the first chunk holds all of f (m <=
    4096) or f is a table, else on 64 fixed spot points against their
    residue mod r and 64 against a shift by r.  The block engine evaluates
    f nowhere else.  A modulus past 2^63 raises :class:`ValueError` before
    any point is evaluated or drawn: its points do not fit int64.
    """
    m = f.modulus
    if m > 1 << 63:
        raise ValueError(f"modulus {m} of an undeclared function exceeds 2^63: its points must fit int64")
    end = min(m, _MAX_PERIOD + 1)  # a period past the budget shows as no repeat before end
    chunks = [f(np.arange(min(_CHUNK, m), dtype=np.int64))]
    f0 = chunks[0][0]
    hits = (chunks[0][1:] == f0).nonzero()[0] + 1
    start = len(chunks[0])  # the end of the scan so far
    while not hits.size and start < end:
        part = f(np.arange(start, min(start + _CHUNK, end), dtype=np.int64))
        chunks.append(part)
        hits = (part == f0).nonzero()[0] + start
        start += len(part)
    r = int(hits[0]) if hits.size else m
    if r > _MAX_PERIOD:
        raise ValueError(f"period exceeds the budget of {_MAX_PERIOD} points")
    if m % r:
        raise PromiseViolation(f"detected period {r} does not divide modulus {m}")
    whole = chunks[0] if m <= _CHUNK else f.table
    if whole is not None:
        periodic = bool((whole.reshape(-1, r) == whole[:r]).all())
    else:
        x, y = (np.random.Generator(np.random.PCG64(seed)).integers(0, m, size=64) for seed in _SPOT_SEEDS)
        # (y + r) mod m; a sum past 2^63 only falls in lanes that take y - (m - r)
        shifted = np.where(y < m - r, y + r, y - (m - r))
        periodic = np.array_equal(f(np.concatenate((x, y))), f(np.concatenate((x % r, shifted))))
    if not periodic:
        raise PromiseViolation("function is not periodic with the detected period")
    chunks[-1] = chunks[-1][: r - (start - len(chunks[-1]))]  # f on [0, r) exactly
    size = 1 << (2 * r - 1).bit_length()  # the least power of two >= 2r
    marked = np.zeros(size, dtype=bool)
    residues = np.empty(len(chunks[0]), dtype=np.int64)
    for part in chunks:
        marked[np.bitwise_and(part, size - 1, out=residues[: len(part)])] = True
    if np.count_nonzero(marked) < r:  # two values share a residue: the sort decides
        values = np.sort(np.concatenate(chunks))
        if np.any(values[1:] == values[:-1]):
            raise PromiseViolation("function repeats a value inside one period")
    return r


def _period(f: PeriodicFunction) -> int:
    """The declared period of ``f`` if it has one, else :func:`_analyze`'s."""
    if f.residues is None:
        return _analyze(f)
    r = math.lcm(*f.residues)
    if f.modulus % r:
        raise PromiseViolation(f"declared period {r} does not divide modulus {f.modulus}")
    return r


# ---------------------------------------------------------------------------
# programs and predicates


def fourier_sampling_program(f: PeriodicFunction) -> ReversibleProgram:
    """[prepare index; evaluate f into the value register; Fourier on index]."""
    m = f.modulus
    layout = RegisterLayout.of(("index", m), ("value", m))
    oracle = ClassicalOracle(("index",), "value", f.evaluator)
    return ReversibleProgram(layout, (PrepStep("index"), OracleStep(oracle), DftStep("index")))


def goodness(d: int, m: int, j: int) -> GoodPredicate:
    """The marking predicate on (index, b) for divisor d and window exponent j.

    Good iff rep(d*k) >= m/2, or b = 1 and 0 < rep(d*k) <= 2^j.  For j = -1
    the window (0, 2^j] is empty.  The predicate is int64 arithmetic, so
    d * (m - 1) must stay below 2^62, as it does for every DFT dimension.
    """
    if not -1 <= j <= max(m.bit_length() - 1, 0):
        raise ValueError(f"j={j} outside -1..floor(log2 {m})")
    if d * (m - 1) >= 1 << 62:
        raise ValueError(f"d*(m-1) = {d * (m - 1)} overflows the int64 predicate")
    threshold = (1 << j) if j >= 0 else 0

    def fn(k, b):
        k = np.asarray(k, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        r = (d * k) % m
        return (2 * r >= m) | ((b == 1) & (r > 0) & (r <= threshold))

    return GoodPredicate(("index", "b"), fn, name=f"mark(d={d},j={j})")


def marked_program(f: PeriodicFunction, d: int, j: int) -> ReversibleProgram:
    """Fourier sampling extended with a coin register b and the mark bit.

    Prepares (1/sqrt 2) sum_{k,b} |k>|G_k>|b>|mark_j(k,b)> so that one
    boost-from-half application can be run against the mark predicate.
    """
    if d < 1 or f.modulus % d:
        raise ValueError("d must be a positive divisor of the modulus")
    m = f.modulus
    layout = RegisterLayout.of(("index", m), ("value", m), ("b", 2), ("good", 2))
    f_oracle = ClassicalOracle(("index",), "value", f.evaluator)
    mark = goodness(d, m, j)
    mark_oracle = ClassicalOracle(("index", "b"), "good", mark.fn)
    return ReversibleProgram(
        layout,
        (
            PrepStep("index"),
            OracleStep(f_oracle),
            DftStep("index"),
            PrepStep("b"),
            OracleStep(mark_oracle),
        ),
    )


# ---------------------------------------------------------------------------
# traces


class EqpaRecord(NamedTuple):
    """One iteration of an EQPA run.

    A named tuple because one is built per iteration, and it builds in a
    fraction of a frozen dataclass's time.
    """

    sweep: int
    j: int
    d_before: int
    k: int
    b: int
    chi: int
    good_mass: float
    at_half_mass: bool
    updated: bool
    d_after: int
    fourier_calls: int


@dataclass
class EqpaTrace:
    """Per-iteration log of one exact period-finding run."""

    records: list[EqpaRecord] = field(default_factory=list)
    fourier_calls: int = 0  # each transform comes with one oracle pass, so this counts both
    sweeps: int = 0


# ---------------------------------------------------------------------------
# samplers: one boosted-and-measured iteration per ``sample(d, j, rng)``
# call, one rng draw each


_TWO53 = 1 << 53  # numpy's doubles from rng.random() are U / 2^53 for an integer U < 2^53


def _mark_run(r: int, step: int, d: int, j: int) -> tuple[int, int]:
    """(r', window) of the mark of (d, j), d | r, on the support k = step*t, t < r.

    With r' = r/d the rep of d*k is step*d*v_t, v_t = t mod r': (k, b) is
    good for both coins when v_t >= ceil(r'/2), and for b = 1 alone when
    1 <= v_t <= window = min(floor(2^j / (step*d)), ceil(r'/2) - 1).  So on
    the support the mark depends on j only through the window, 0 at d = r.
    """
    rb = r // d
    return rb, min(((1 << j) if j >= 0 else 0) // (step * d), (rb + 1) // 2 - 1)


class _BlockSampler:
    """Exact iteration in the invariant block basis |k>|G_k>|b>|mark>.

    The prepared state is uniform over 2r blocks (r support indices times
    the coin), and the boost acts by two scalar factors (good/bad).  The
    sampler takes d | r, as every divisor :func:`eqpa` holds is: the rep
    of support index t then has period r' = r/d in t, so the 2r outcomes
    are d copies of one run of 2r' outcomes (t, b), t < r', marked as
    :func:`_mark_run` describes with v_t = t.  With N = 2r' outcomes of
    which G are good, a = G/N, the boost with both phases i scales good
    amplitudes by 1 - 2i(1-a) and bad ones by -i(1-2a), so a good outcome
    has weight N^2 + 4(N-G)^2 and a bad one (N-2G)^2, in units of
    1/(d N^3): a run sums to N^3.

    In lexicographic order the pairs (t, 0), (t, 1) of a run fall into
    four segments of constant pair weight: t = 0 is (bad, bad), 1 <= t <=
    window is (bad, good), window < t < ceil(r'/2) is (bad, bad) and t >=
    ceil(r'/2) is (good, good).  One rng draw picks the copy, then one
    divmod inside the segment its target falls in gives t and one
    comparison gives b, so an iteration costs O(1) and allocates no array.
    At d = r the run is r' = 1, two bad outcomes (0, b) of weight 4, so
    k = floor(U*r/2^53)*step and b is bit 52 of U*r for the draw U/2^53.
    """

    def __init__(self, m: int, r: int):
        self.r, self.step = r, m // r

    def sample(self, d: int, j: int, rng: np.random.Generator) -> tuple[int, int, int, float]:
        rb, window = _mark_run(self.r, self.step, d, j)
        half, n = (rb + 1) // 2, 2 * rb
        n_good = 2 * (rb - half) + window  # window < ceil(r'/2) <= r'
        weight = (n - 2 * n_good) ** 2, n * n + 4 * (n - n_good) ** 2  # bad, good
        # the draw u = U/2^53 picks copy q = floor(u*d) <= d - 1, then the
        # first outcome of that copy whose cumulative weight exceeds
        # (u*d - q)*N^3; the weights are integers, so they exceed it iff
        # they exceed its floor x
        q, rest = divmod(int(rng.random() * _TWO53) * d, _TWO53)
        x = rest * n**3 >> 53
        start = 0
        for end, good0, good1 in (1, 0, 0), (window + 1, 0, 1), (half, 0, 0), (rb, 1, 1):
            pair = weight[good0] + weight[good1]
            if x < (end - start) * pair:
                t, x = divmod(x, pair)
                b = int(x >= weight[good0])
                return (q * rb + start + t) * self.step, b, good1 if b else good0, n_good / n
            x -= (end - start) * pair
            start = end


class _ProgramSampler:
    """Literal iteration: the marked program, one boost, one measurement.

    The value register has dimension m, so f is loaded as the rank of its
    value among the r sorted in-period values f(0), ..., f(r-1), read once
    here: the same level sets as f, with values in [0, r) that cannot
    collide mod m whatever f's range.

    Only the mark oracle, the last step of :func:`marked_program`, depends
    on (d, j), so the state before it is prepared once per run.  The
    oracle meets only indices on the support k = (m/r)*t, inside the boost
    too, where the key (d, window) of :func:`_mark_run` fixes the mark.
    Each distinct key is boosted once, literally, and only the boosted
    state's (index, b, good) marginal (at most 2r rows, where the state
    holds up to 2r^2 entries) and the good mass before the boost are kept.
    Every iteration, repeats included, draws from that marginal with the
    one rng draw :func:`measure_joint` would take on the boosted state.
    """

    def __init__(self, f: PeriodicFunction, r: int):
        values = np.sort(f(np.arange(r)))
        self.f = PeriodicFunction(modulus=f.modulus, evaluator=lambda x: np.searchsorted(values, f(x)))
        self.r, self.step = r, f.modulus // r
        program = marked_program(self.f, 1, -1)
        self.unmarked = ReversibleProgram(program.layout, program.steps[:-1]).run()
        self.marginals: dict[tuple[int, int], tuple[list, np.ndarray, float]] = {}

    def sample(self, d: int, j: int, rng: np.random.Generator) -> tuple[int, int, int, float]:
        key = d, _mark_run(self.r, self.step, d, j)[1]
        cached = self.marginals.get(key)
        if cached is None:
            program = marked_program(self.f, d, j)
            good = goodness(d, self.f.modulus, j)
            prepared = program.steps[-1].apply(self.unmarked)
            boosted = amplification_operator(program, good, 1j, 1j, prepared)
            outcomes, _, mass = joint_marginal(boosted, ("index", "b", "good"))
            cached = self.marginals[key] = (outcomes.tolist(), np.cumsum(mass), good_mass(prepared, good))
        outcomes, cumulative, mass_before = cached
        k, b, chi = outcomes[_walk(cumulative, rng)]
        return k, b, chi, mass_before


# ---------------------------------------------------------------------------
# the algorithms


def _sweep(m: int, d: int) -> list[int]:
    """The windows of a sweep at d, which the module docstring proves certify d: -1, then lo..floor(log2 m)."""
    rest = m // d
    return [-1, *range((d * (rest & -rest) - 1).bit_length(), m.bit_length())]


def eqpa(
    f: PeriodicFunction,
    rng: np.random.Generator,
    engine: str = "block",
    on_iteration: Callable[[EqpaRecord], None] | None = None,
) -> tuple[int, EqpaTrace]:
    """Find the exact period of ``f`` given that it divides the modulus.

    Returns the period and a per-iteration trace.  The result is
    seed-independent; only the trace contents vary with the rng, which
    gives one draw to each iteration in order, whichever engine runs.
    ``on_iteration`` is called with each record as it is built.  Raises
    :class:`PromiseViolation` if the promise fails.  It is verified once,
    before either engine runs: from declared ``residues`` without
    evaluating f (block engine only), or by :func:`_analyze`, which returns
    only the verified period.  The final check is then exact: d is a
    period iff the verified period divides it.
    """
    m = f.modulus
    if engine == "block":
        r = _period(f)
        sampler: _BlockSampler | _ProgramSampler = _BlockSampler(m, r)
    elif engine == "program":
        r = _analyze(f)  # the literal oracle evaluates f, so f itself is checked
        sampler = _ProgramSampler(f, r)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    trace = EqpaTrace()
    records = trace.records
    d = 1
    while True:  # one sweep per d: it updates d unless d = r, whose sweep ends the run
        trace.sweeps += 1
        for j in _sweep(m, d):
            k, b, chi, mass = sampler.sample(d, j, rng)
            trace.fourier_calls += 3  # A, A^{-1}, A each carry one transform
            informative = (d * k) % m != 0
            d_after = math.lcm(d, m // math.gcd(m, k)) if informative else d
            record = EqpaRecord(trace.sweeps, j, d, k, b, chi, mass, abs(mass - 0.5) <= MASS_TOL,
                                informative, d_after, trace.fourier_calls)
            records.append(record)
            if on_iteration is not None:
                on_iteration(record)
            if informative:
                break
        else:
            break  # nothing updated d: at d = r nothing can, and the final check refuses any other d
        d = d_after

    _final_check(f, d, r)
    return d, trace


def _final_check(f: PeriodicFunction, d: int, r: int | None = None) -> None:
    """Raise PromiseViolation unless f's period (declared, else ``r``) divides d."""
    if d % (math.lcm(*f.residues) if f.residues is not None else r):
        raise PromiseViolation(f"returned divisor {d} is not a period of the function")


def standard_qpa(f: PeriodicFunction, rng: np.random.Generator, samples: int = 1) -> int:
    """Probabilistic baseline: sample Fourier indices, return m/gcd(m, k_1..k_s).

    The candidate is always a divisor of the true period and equals it only
    with the usual probabilistic guarantee.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m, r = f.modulus, _period(f)
    g = m
    for _ in range(samples):
        k = int(rng.integers(r)) * (m // r)  # exact marginal: uniform on multiples of m/r
        g = math.gcd(g, k)
    return m // g


def brute_force_period(f: PeriodicFunction, bound: int) -> int:
    """Smallest positive shift under which f repeats on [0, m); test oracle."""
    m = f.modulus
    vals = np.asarray(f(np.arange(m, dtype=np.int64)))
    for candidate in range(1, min(bound, m) + 1):
        if np.array_equal(vals[: m - candidate], vals[candidate:]):
            return candidate
    raise ValueError(f"no period up to {bound} found")
