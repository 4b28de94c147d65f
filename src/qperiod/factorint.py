"""Order finding, integer factorization, and prime set encodings.

Factoring reduces to order finding: for random a coprime to N, the order r
of a mod N is even with good probability, and gcd(a^{r/2} - 1, N) then
splits N.  :func:`order_find` simulates order finding with the standard
probabilistic pipeline: the exact closed-form index marginal of Fourier
sampling over Z_{2^t}, 2^t >= N^2 (the literal program is the tests'
reference), continued-fraction recovery of the denominator, candidate
repair, classical verification.

Sets over a finite universe encode as products of primes (element u maps to
the (u+1)-th prime), which turns union into lcm and intersection into gcd;
decoding is factorization.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable

import numpy as np

from .periodfind import _MAX_PERIOD

# Deterministic Miller-Rabin witnesses, valid far beyond desk scale.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Quantum order finding is simulated only up to this modulus; its index
# marginal costs two FFTs of 2^t >= N^2 points.
QUANTUM_SIM_LIMIT = 128
QUANTUM_BOUND = 64

_MAX_ATTEMPTS = 10_000

# Pollard rho steps one classical split may take over all its walks, about
# 1 s of Python-int arithmetic: enough for any n below 2^64, whose
# smallest prime factor is below 2^32 and found in about 2^17 steps.
_MAX_RHO_STEPS = 1 << 20
_RHO_BLOCK = 64


class NoQuantumSplitNeeded(ValueError):
    """The input is prime or a prime power; no quantum splitting applies."""


class SplitBudgetExceeded(ValueError):
    """A classical split took ``_MAX_RHO_STEPS`` rho steps without a divisor."""


# ---------------------------------------------------------------------------
# classical number theory


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


# Every prime below _SIEVED, a power of two no larger than periodfind's scan budget.
_SIEVED, _PRIMES = 16, [2, 3, 5, 7, 11, 13]


def _sieve(limit: int) -> None:
    """Grow the cache to every prime below ``limit``; ValueError past the cap."""
    global _SIEVED, _PRIMES
    if limit > _MAX_PERIOD:
        raise ValueError(f"prime request past the sieve cap of {_MAX_PERIOD}")
    if limit > _SIEVED:
        n = 1 << (limit - 1).bit_length()  # the sieve doubles until it covers limit
        sieve = np.ones(n, dtype=bool)
        for p in range(2, math.isqrt(n - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        _SIEVED, _PRIMES = n, np.flatnonzero(sieve)[2:].tolist()  # 0 and 1 are not prime


def nth_prime(i: int) -> int:
    """1-based: nth_prime(1) == 2."""
    if i < 1:
        raise ValueError("prime index must be >= 1")
    while len(_PRIMES) < i:
        _sieve(2 * _SIEVED)
    return _PRIMES[i - 1]


def prime_index(p: int) -> int:
    """0-based position of a prime in the prime sequence (2 -> 0, 3 -> 1)."""
    _sieve(p + 1)
    i = bisect_left(_PRIMES, p)
    if _PRIMES[i:i + 1] != [p]:
        raise ValueError(f"{p} is not prime")
    return i


def primes_below(limit: int) -> list[int]:
    _sieve(limit)
    return _PRIMES[:bisect_left(_PRIMES, limit)]


def _iroot(n: int, k: int) -> int:
    """Exact floor of the k-th root of n >= 0, by Newton's method on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) exceeds the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (base, exponent >= 2) when n is a perfect power, else None."""
    # b^(pq) is also the p-th power of b^q, so the smallest exponent is prime
    for e in primes_below(n.bit_length()):
        b = _iroot(n, e)
        if b**e == n:
            return b, e
    return None


def _split(n: int) -> int:
    """A nontrivial divisor of an odd composite n that is not a perfect power.

    Pollard's rho on x -> x^2 + c with Brent's cycle detection (Brent 1980):
    y walks one step at a time while x is parked at each power of two.  A
    walk whose cycle closes without splitting n is retried with c + 1, so the
    result is deterministic.  As in Brent's paper, one gcd of the product
    of (x - y) mod n serves up to ``_RHO_BLOCK`` steps that end before the
    next park and within the budget; a block whose gcd is not 1 is replayed
    step by step, so the divisor is the one a gcd per step finds.  Rho
    needs about sqrt(p) steps for the smallest prime factor p, so after
    ``_MAX_RHO_STEPS`` steps over all walks it raises
    :class:`SplitBudgetExceeded`.
    """
    budget = _MAX_RHO_STEPS
    for c in count(1):
        x = y = 2
        g = steps = limit = 1
        while g == 1:
            if steps == limit:
                x, steps, limit = y, 0, 2 * limit
            if not budget:
                raise SplitBudgetExceeded(f"no factor of {n} within {_MAX_RHO_STEPS} Pollard rho steps")
            block, start, product = min(_RHO_BLOCK, limit - steps, budget), y, 1
            for _ in range(block):
                y = (y * y + c) % n
                product = product * (x - y) % n
            if math.gcd(product, n) == 1:
                budget, steps = budget - block, steps + block
                continue
            y = start
            while g == 1:  # the first step of the block that shares a factor with n
                budget, steps = budget - 1, steps + 1
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# order finding


_MARGINAL_CACHE: dict[tuple[int, int], tuple[int, np.ndarray]] = {}


def _fourier_index_cdf(a: int, N: int) -> tuple[int, np.ndarray]:
    """Exact index-register measurement cdf for f(x) = a^x mod N over Z_{2^t}.

    With r the order of a and q, rem = divmod(m, r), the index register
    beside a^s holds the comb s, s + r, ... of q + 1 points for s < rem and
    of q points otherwise.  A shift changes a comb's transform only by a
    phase, so the marginal is (rem |FFT(comb_{q+1})|^2 + (r - rem)
    |FFT(comb_q)|^2) / m^2 with combs from 0.  Cached per (a, N).
    """
    key = (a, N)
    if key in _MARGINAL_CACHE:
        return _MARGINAL_CACHE[key]
    t = max(N * N - 1, 2).bit_length()  # smallest t with 2^t >= N^2
    m = 1 << t
    r, v = 1, a % N
    while v != 1:
        r, v = r + 1, v * a % N
    q, rem = divmod(m, r)
    dense = np.zeros(m)
    for points, weight in ((q, r - rem), (q + 1, rem)):
        comb = np.zeros(m)
        comb[: points * r : r] = 1.0
        dense += weight * np.abs(np.fft.fft(comb)) ** 2
    cdf = np.cumsum(dense / (m * m))
    _MARGINAL_CACHE[key] = (m, cdf)
    return m, cdf


def _order_from_multiple(a: int, N: int, multiple: int) -> int:
    """Exact order of a mod N given any multiple of it (strip prime factors)."""
    r = multiple
    for p in set(factorize(multiple).factors):
        while r % p == 0 and pow(a, r // p, N) == 1:
            r //= p
    return r


def order_find(a: int, N: int, rng: np.random.Generator) -> int:
    """Multiplicative order of a mod N via simulated Fourier sampling.

    Samples the exact index marginal, recovers a denominator candidate by
    continued fractions (capped at N), repairs it with small multiples, and
    verifies classically; resamples until the verified order is found.
    """
    if N < 2:
        raise ValueError("modulus must be >= 2")
    a %= N
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not coprime to {N}")
    if N > QUANTUM_SIM_LIMIT:
        raise ValueError(f"quantum order finding simulated only for N <= {QUANTUM_SIM_LIMIT}")
    m, cdf = _fourier_index_cdf(a, N)
    for _ in range(_MAX_ATTEMPTS):
        k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        k = min(k, m - 1)
        q = Fraction(k, m).limit_denominator(N).denominator
        for mult in range(1, 7):
            candidate = q * mult
            if candidate >= 1 and pow(a, candidate, N) == 1:
                return _order_from_multiple(a, N, candidate)
    raise RuntimeError("order finding did not converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# factoring


def _shor_split_attempt(N: int, rng: np.random.Generator) -> int | None:
    """One factoring attempt: random base, order finding, gcd extraction."""
    a = int(rng.integers(2, N - 1))
    g = math.gcd(a, N)
    if g > 1:
        return g  # lucky draw already shares a factor
    r = order_find(a, N, rng)
    if r % 2:
        return None
    x = pow(a, r // 2, N)
    if x == N - 1:
        return None
    g = math.gcd(x - 1, N)
    return g if 1 < g < N else None


def _shor_split(N: int, rng: np.random.Generator) -> tuple[int, int]:
    """(divisor, attempts): a nontrivial divisor of an odd composite N that is not a prime power."""
    if N % 2 == 0:
        raise ValueError("N must be odd")
    if is_prime(N):
        raise NoQuantumSplitNeeded(f"{N} is prime")
    if _perfect_power(N) is not None:
        raise NoQuantumSplitNeeded(f"{N} is a prime power or perfect power")
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        d = _shor_split_attempt(N, rng)
        if d is not None:
            return d, attempt
    raise RuntimeError("factoring did not converge")  # pragma: no cover


@dataclass(frozen=True)
class FactorizationResult:
    n: int
    factors: tuple[int, ...]
    methods: tuple[str, ...]
    trials: int


# Names every classical path, whichever splitter runs.
METHOD_TRIAL = "trial-division"
METHOD_QUANTUM = "quantum-order-finding"


def factorize(N: int, rng: np.random.Generator | None = None) -> FactorizationResult:
    """Full prime factorization.

    Even parts and perfect powers are stripped classically.  Odd composite
    cofactors up to ``QUANTUM_BOUND`` are split by simulated order finding
    when an rng is supplied; larger ones peel off their smallest prime
    first, so the quantum splits land on the same cofactors whatever the
    classical splitter.  A peeled cofactor carries the rest of that one
    rng-less factorization for its next peel.  Without an rng every split
    is classical.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    found: list[tuple[int, str]] = []
    trials = 0
    # depth-first: a divisor before its cofactor; primes are the sorted
    # prime factors of n when already known, else ()
    work: list[tuple[int, str, tuple[int, ...]]] = [(N, METHOD_TRIAL, ())]
    while work:
        n, tag, primes = work.pop()
        if n == 1:
            continue
        twos = (n & -n).bit_length() - 1
        if twos:
            found.extend([(2, METHOD_TRIAL)] * twos)
            work.append((n >> twos, tag, ()))
        elif is_prime(n):
            found.append((n, tag))
        elif (power := _perfect_power(n)) is not None:
            base, exponent = power
            work.extend([(base, tag, ())] * exponent)
        elif rng is not None and n <= QUANTUM_BOUND:
            divisor, attempts = _shor_split(n, rng)
            trials += attempts
            work.extend([(n // divisor, METHOD_QUANTUM, ()), (divisor, METHOD_QUANTUM, ())])
        elif rng is not None:
            primes = primes or factorize(n).factors
            work.extend([(n // primes[0], METHOD_TRIAL, primes[1:]), (primes[0], METHOD_TRIAL, ())])
        else:
            divisor = _split(n)
            work.extend([(n // divisor, METHOD_TRIAL, ()), (divisor, METHOD_TRIAL, ())])
    found.sort()
    return FactorizationResult(
        n=N,
        factors=tuple(p for p, _ in found),
        methods=tuple(m for _, m in found),
        trials=trials,
    )


# ---------------------------------------------------------------------------
# prime encodings of sets


def prime_encode(u: int) -> int:
    """Universe element u (0-based) maps to the (u+1)-th prime."""
    if u < 0:
        raise ValueError("universe elements are non-negative")
    return nth_prime(u + 1)


def encode_set(elements: Iterable[int]) -> int:
    """Product of the element primes; the empty set encodes as 1."""
    return math.prod(prime_encode(u) for u in sorted(set(int(e) for e in elements)))


def decode_set(x: int, universe_size: int | None = None) -> frozenset[int]:
    """Invert :func:`encode_set` by factorization.

    Raises if the integer is not squarefree or contains a prime outside the
    universe map.
    """
    if x < 1:
        raise ValueError("encoded set must be >= 1")
    if x == 1:
        return frozenset()
    factors = factorize(x).factors
    if len(set(factors)) < len(factors):
        raise ValueError(f"{x} is not squarefree; not a valid set encoding")
    indices = {prime_index(p) for p in factors}
    if universe_size is not None and any(i >= universe_size for i in indices):
        raise ValueError(f"{x} contains a prime outside the universe of size {universe_size}")
    return frozenset(indices)
