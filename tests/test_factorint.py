"""Tests for order finding, factoring, and prime set encodings."""

import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import sympy

from qperiod.factorint import (
    METHOD_QUANTUM,
    METHOD_TRIAL,
    QUANTUM_BOUND,
    FactorizationResult,
    NoQuantumSplitNeeded,
    SplitBudgetExceeded,
    _iroot,
    _perfect_power,
    _shor_split,
    _split,
    decode_set,
    encode_set,
    factorize,
    is_prime,
    nth_prime,
    order_find,
    prime_encode,
    prime_index,
    primes_below,
)
from qperiod import factorint
from qperiod.periodfind import PeriodicFunction, fourier_sampling_program


def brute_force_order(a, N):
    """Test oracle: scan powers until the identity."""
    v, r = a % N, 1
    while v != 1:
        v = v * a % N
        r += 1
    return r


def _trial_division_factor(n):
    """Smallest prime factor of composite odd n."""
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def reference_factorize(N, rng=None, quantum_bound=64):
    """Test oracle: the recursive trial-division factorize that the
    Pollard-Brent worklist version must reproduce draw for draw."""
    if N < 1:
        raise ValueError("N must be >= 1")
    found: list[tuple[int, str]] = []
    trials = 0

    def recurse(n: int, tag: str) -> None:
        nonlocal trials
        if n == 1:
            return
        twos = (n & -n).bit_length() - 1
        if twos:
            found.extend([(2, METHOD_TRIAL)] * twos)
            recurse(n >> twos, tag)
            return
        if is_prime(n):
            found.append((n, tag))
            return
        power = _perfect_power(n)
        if power is not None:
            base, exponent = power
            for _ in range(exponent):
                recurse(base, tag)
            return
        if rng is not None and n <= quantum_bound:
            divisor, attempts = _shor_split(n, rng)
            trials += attempts
            recurse(divisor, METHOD_QUANTUM)
            recurse(n // divisor, METHOD_QUANTUM)
            return
        divisor = _trial_division_factor(n)
        recurse(divisor, METHOD_TRIAL)
        recurse(n // divisor, METHOD_TRIAL)

    recurse(N, METHOD_TRIAL)
    found.sort()
    return FactorizationResult(
        n=N,
        factors=tuple(p for p, _ in found),
        methods=tuple(m for _, m in found),
        trials=trials,
    )


class TestPrimeHelpers:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(2, 32):
            assert is_prime(n) == (n in primes)

    def test_nth_prime(self):
        assert [nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]

    def test_prime_index_inverts_nth_prime(self):
        for i in range(1, 30):
            assert prime_index(nth_prime(i)) == i - 1

    def test_primes_below(self):
        assert primes_below(32) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def test_primes_below_every_small_limit(self):
        for limit in range(-1, 200):
            assert primes_below(limit) == [p for p in range(2, limit) if is_prime(p)]

    def test_sieve_matches_sympy_up_to_the_cap(self):
        rng = random.Random(24)
        cap = factorint._MAX_PERIOD
        for _ in range(12):
            i = rng.randrange(1, sympy.primepi(cap) + 1)
            assert nth_prime(i) == sympy.prime(i)
            p = sympy.prevprime(rng.randrange(3, cap + 1))
            assert prime_index(p) == sympy.primepi(p) - 1
            limit = rng.randrange(cap + 1)
            below = primes_below(limit)
            assert len(below) == sympy.primepi(limit - 1)
            assert below[-50:] == list(sympy.primerange(limit - 2000, limit))[-50:]
        assert primes_below(1 << 16) == list(sympy.primerange(1 << 16))
        assert nth_prime(sympy.primepi(cap)) == sympy.prevprime(cap)
        assert all(type(x) is int for x in (nth_prime(9), prime_index(23), *primes_below(30)))

    def test_prime_index_rejects_a_composite(self):
        for n in (0, 1, 4, 561, (1 << 23) + 1):
            with pytest.raises(ValueError, match="not prime"):
                prime_index(n)

    def test_requests_past_the_sieve_cap_raise_at_once(self):
        for call in (lambda: nth_prime(2_000_000), lambda: prime_index(sympy.nextprime(1 << 24)),
                     lambda: primes_below((1 << 24) + 1)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="sieve cap"):
                call()
            assert time.perf_counter() - start < 1.0


class TestOrderFind:
    @pytest.mark.parametrize("a,N", [(2, 15), (4, 15), (7, 15), (2, 21), (5, 21), (10, 33)])
    def test_matches_brute_force(self, a, N):
        for seed in range(5):
            assert order_find(a, N, np.random.default_rng(seed)) == brute_force_order(a, N)

    def test_identity_element(self):
        assert order_find(1, 15, np.random.default_rng(0)) == 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            order_find(6, 15, np.random.default_rng(0))

    def test_result_verified_and_minimal(self):
        for a, N in [(2, 15), (5, 21), (2, 33), (7, 33)]:
            r = order_find(a, N, np.random.default_rng(0))
            assert pow(a, r, N) == 1
            for p in {p for p in range(2, r + 1) if r % p == 0 and is_prime(p)}:
                assert pow(a, r // p, N) != 1

    @pytest.mark.parametrize("a,N", [(1, 15), (2, 15), (7, 15), (2, 21), (10, 33), (5, 119)])
    def test_index_cdf_matches_the_literal_program(self, monkeypatch, a, N):
        # (2, 15) has r | m, so most of its bins are exactly zero in the program's marginal
        monkeypatch.setattr(factorint, "_MARGINAL_CACHE", {})
        m, cdf = factorint._fourier_index_cdf(a, N)
        assert m >= N * N > m // 2
        state = fourier_sampling_program(PeriodicFunction.from_table([pow(a, x, N) for x in range(m)])).run()
        dense = np.zeros(m)
        np.add.at(dense, state.values_column("index"), state.probabilities())
        reference = np.cumsum(dense)
        np.testing.assert_allclose(cdf, reference, rtol=0, atol=1e-12)
        draws = np.random.default_rng(N).random(10_000)
        # order_find's draw: searchsorted against each cdf's own total
        picks = [np.minimum(np.searchsorted(c, draws * c[-1], side="right"), m - 1) for c in (cdf, reference)]
        np.testing.assert_array_equal(picks[0], picks[1])

    def test_index_cdf_peak_memory_is_a_few_arrays(self, monkeypatch):
        monkeypatch.setattr(factorint, "_MARGINAL_CACHE", {})
        tracemalloc.start()
        try:
            factorint._fourier_index_cdf(5, 119)  # m = 2^14
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestShorFactor:
    def test_fifteen(self):
        d = _shor_split(15, np.random.default_rng(0))[0]
        assert d in (3, 5) and 15 % d == 0

    def test_twentyone(self):
        d = _shor_split(21, np.random.default_rng(1))[0]
        assert d in (3, 7) and 21 % d == 0

    def test_prime_rejected(self):
        with pytest.raises(NoQuantumSplitNeeded):
            _shor_split(7, np.random.default_rng(0))

    def test_prime_power_rejected(self):
        with pytest.raises(NoQuantumSplitNeeded):
            _shor_split(27, np.random.default_rng(0))

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            _shor_split(30, np.random.default_rng(0))


class TestFactorize:
    def test_sixty(self):
        assert factorize(60, np.random.default_rng(0)).factors == (2, 2, 3, 5)

    def test_one(self):
        assert factorize(1).factors == ()

    def test_105_by_divisor_check(self):
        result = factorize(105, np.random.default_rng(2))
        assert math.prod(result.factors) == 105
        assert all(105 % p == 0 for p in result.factors)
        assert result.factors == (3, 5, 7)

    def test_quantum_path_tagged(self):
        result = factorize(15, np.random.default_rng(1))
        assert result.factors == (3, 5)
        assert set(result.methods) == {"quantum-order-finding"}
        assert result.trials >= 1

    def test_classical_only_without_rng(self):
        result = factorize(15)
        assert result.factors == (3, 5)
        assert set(result.methods) == {"trial-division"}

    def test_large_cofactor_falls_back_to_trial_division(self):
        result = factorize(30030, np.random.default_rng(0))  # 2*3*5*7*11*13
        assert result.factors == (2, 3, 5, 7, 11, 13)

    @pytest.mark.parametrize("n", [2, 4, 9, 16, 128, 243, 1001, 5040])
    def test_product_and_primality_invariants(self, n):
        result = factorize(n, np.random.default_rng(n))
        assert math.prod(result.factors) == n
        assert all(is_prime(p) for p in result.factors)
        assert len(result.methods) == len(result.factors)


class TestSetEncoding:
    def test_prime_encode_first_three(self):
        assert [prime_encode(u) for u in (0, 1, 2)] == [2, 3, 5]

    def test_encode_pair(self):
        assert encode_set({0, 2}) == 10

    def test_decode_pair(self):
        assert decode_set(10) == frozenset({0, 2})

    def test_empty_set(self):
        assert encode_set(set()) == 1
        assert decode_set(1) == frozenset()

    def test_roundtrip_all_subsets_of_six_universe(self):
        for bits in range(64):
            subset = {u for u in range(6) if bits >> u & 1}
            assert decode_set(encode_set(subset), 6) == frozenset(subset)

    def test_prime_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            decode_set(encode_set({5}), universe_size=4)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            decode_set(12)

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError):
            prime_encode(-1)


class TestSuccessRate:
    def test_single_attempt_rate_meets_bound(self):
        # k = 2 distinct odd prime factors: bound 1 - 1/2^{k-1} - 0.05 = 0.45
        from qperiod.factorint import _shor_split_attempt

        for N in (15, 21, 33):
            hits = sum(
                _shor_split_attempt(N, np.random.default_rng(seed)) is not None
                for seed in range(300)
            )
            assert hits / 300 >= 1 - 0.5 - 0.05, N


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=6))
def test_encode_decode_roundtrip_property(subset):
    assert decode_set(encode_set(subset), 10) == frozenset(subset)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 50))
def test_factorize_property(n, seed):
    result = factorize(n, np.random.default_rng(seed))
    assert math.prod(result.factors) == n
    assert all(is_prime(p) for p in result.factors)
    assert tuple(sorted(result.factors)) == result.factors


class TestLargePowers:
    """Inputs whose size once broke the float root or the per-two recursion."""

    def test_power_of_two_beyond_recursion_limit(self):
        assert factorize(2**1000).factors == (2,) * 1000

    def test_odd_cofactor_after_many_twos(self):
        assert factorize(3 * 2**5000).factors == (2,) * 5000 + (3,)

    def test_square_of_prime_above_two_to_64(self):
        p = 2**64 + 13
        assert is_prime(p)
        assert _perfect_power(p * p) == (p, 2)

    def test_power_too_large_for_a_float(self):
        assert factorize(3**700).factors == (3,) * 700

    def test_square_of_mersenne_prime(self):
        p = 2**521 - 1
        assert factorize(p * p).factors == (p, p)


def reference_perfect_power(n):
    """``_perfect_power`` before it tried prime exponents only, verbatim."""
    for e in range(2, n.bit_length()):
        b = _iroot(n, e)
        if b**e == n:
            return b, e
    return None


def test_perfect_power_matches_every_exponent_reference():
    large = [(2**64 + 13) ** 2, 3**700, (2**521 - 1) ** 2, 2**1000, 6**64, 10**60, 15**77, 7**81 + 1]
    for n in [*range(1, 300001), *large]:
        assert _perfect_power(n) == reference_perfect_power(n), n


# Products of small odd primes reach the quantum bound only after peels, so
# they pin which prime a classical split takes first.
_small_odd_products = st.lists(st.sampled_from([3, 5, 7, 11, 13, 17]), min_size=3, max_size=7).map(math.prod)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**6) | _small_odd_products.filter(lambda n: n <= 10**6), seed=st.integers(0, 50))
@example(n=245, seed=4)
@example(n=1155, seed=0)
def test_factorize_matches_trial_division_reference(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result, expected = factorize(n, rng), reference_factorize(n, ref_rng)
    assert (result.factors, result.methods, result.trials) == (
        expected.factors, expected.methods, expected.trials)
    assert rng.random() == ref_rng.random()


class TestPollardBrent:
    """Cofactors far past the reach of trial division."""

    SEMIPRIME_61 = 1073741789 * 2147483647

    def test_61_bit_semiprime(self):
        start = time.perf_counter()
        assert _split(self.SEMIPRIME_61) in (1073741789, 2147483647)
        assert factorize(self.SEMIPRIME_61).factors == (1073741789, 2147483647)
        assert factorize(self.SEMIPRIME_61, np.random.default_rng(0)).factors == (1073741789, 2147483647)
        assert time.perf_counter() - start < 1.0

    def test_three_primes_near_a_million(self):
        n = 999983 * 1000003 * 1000033
        d = _split(n)
        assert 1 < d < n and n % d == 0
        result = factorize(n, np.random.default_rng(3))
        assert result.factors == (999983, 1000003, 1000033)
        assert set(result.methods) == {METHOD_TRIAL}

    def test_two_primes_of_31_and_32_bits(self):
        p, q = 2**31 - 1, 4294967291
        assert is_prime(p) and is_prime(q)
        assert _split(p * q) in (p, q)
        assert factorize(p * q).factors == (p, q)

    def test_split_gives_up_past_its_step_budget(self, monkeypatch):
        # rho needs about 2^15 steps for 1073741789; a budget of 2^10 runs out
        monkeypatch.setattr(factorint, "_MAX_RHO_STEPS", 1 << 10)
        with pytest.raises(SplitBudgetExceeded, match="1024 Pollard rho steps"):
            factorize(self.SEMIPRIME_61)
        assert issubclass(SplitBudgetExceeded, ValueError)
        assert factorize(1001 * 65537).factors == (7, 11, 13, 65537)

    @pytest.mark.parametrize("n", [15, 21, 45, 91, 1001, 3 * 5 * 7 * 11 * 13 * 17 * 19])
    def test_split_divides_small_composites(self, n):
        d = _split(n)
        assert 1 < d < n and n % d == 0


_MAX_RHO_STEPS = factorint._MAX_RHO_STEPS


def reference_split(n: int) -> int:
    """``_split`` with one gcd per rho step, verbatim."""
    budget = _MAX_RHO_STEPS
    for c in count(1):
        x = y = 2
        g = steps = limit = 1
        while g == 1:
            if steps == limit:
                x, steps, limit = y, 0, 2 * limit
            if not budget:
                raise SplitBudgetExceeded(f"no factor of {n} within {_MAX_RHO_STEPS} Pollard rho steps")
            budget -= 1
            y = (y * y + c) % n
            steps += 1
            g = math.gcd(x - y, n)
        if g != n:
            return g


def _split_outcome(split, n):
    try:
        return split(n)
    except SplitBudgetExceeded as exc:
        return str(exc)


def _odd_composites_not_prime_powers(seed, count_):
    """Random odd composites below 2^48 with at least two distinct primes."""
    rng = random.Random(seed)
    while count_:
        n = rng.randrange(9, 1 << 48, 2)
        if not is_prime(n) and len(sympy.factorint(n)) > 1:
            count_ -= 1
            yield n


def _odd_semiprimes(seed, count_):
    """p * q for distinct random primes in [2^14, 2^24): rho needs about
    2^7 to 2^12 steps for them, on both sides of a 2^10 budget."""
    rng = random.Random(seed)
    while count_:
        p, q = (sympy.nextprime(rng.randrange(1 << 14, 1 << 24)) for _ in range(2))
        if p != q:
            count_ -= 1
            yield p * q


def test_batched_split_matches_the_step_by_step_reference():
    for n in _odd_composites_not_prime_powers(12, 1000):
        assert _split(n) == reference_split(n), n


def test_batched_split_runs_out_of_budget_where_the_reference_does(monkeypatch):
    monkeypatch.setattr(factorint, "_MAX_RHO_STEPS", 1 << 10)
    monkeypatch.setitem(globals(), "_MAX_RHO_STEPS", 1 << 10)
    cases = [*_odd_composites_not_prime_powers(13, 150), *_odd_semiprimes(14, 150)]
    outcomes = [_split_outcome(_split, n) for n in cases]
    assert outcomes == [_split_outcome(reference_split, n) for n in cases]
    assert sum(isinstance(o, str) for o in outcomes) >= 30  # both outcomes are exercised
    assert sum(isinstance(o, int) for o in outcomes) >= 30


def refactoring_factorize(N, rng=None):
    """Test oracle: the worklist factorize whose smallest-prime peel ran a
    fresh rng-less factorization of every cofactor it peeled."""
    if N < 1:
        raise ValueError("N must be >= 1")
    found: list[tuple[int, str]] = []
    trials = 0
    work = [(N, METHOD_TRIAL)]  # depth-first: a divisor before its cofactor
    while work:
        n, tag = work.pop()
        if n == 1:
            continue
        twos = (n & -n).bit_length() - 1
        if twos:
            found.extend([(2, METHOD_TRIAL)] * twos)
            work.append((n >> twos, tag))
        elif is_prime(n):
            found.append((n, tag))
        elif (power := _perfect_power(n)) is not None:
            base, exponent = power
            work.extend([(base, tag)] * exponent)
        elif rng is not None and n <= QUANTUM_BOUND:
            divisor, attempts = _shor_split(n, rng)
            trials += attempts
            work.extend([(n // divisor, METHOD_QUANTUM), (divisor, METHOD_QUANTUM)])
        else:
            divisor = refactoring_factorize(n).factors[0] if rng is not None else _split(n)
            work.extend([(n // divisor, METHOD_TRIAL), (divisor, METHOD_TRIAL)])
    found.sort()
    return FactorizationResult(
        n=N,
        factors=tuple(p for p, _ in found),
        methods=tuple(m for _, m in found),
        trials=trials,
    )


def test_factorize_peels_like_the_refactoring_reference():
    for n in range(1, 20001):
        rng, ref_rng = np.random.default_rng(n % 7), np.random.default_rng(n % 7)
        result, expected = factorize(n, rng), refactoring_factorize(n, ref_rng)
        assert (result.factors, result.methods, result.trials) == (
            expected.factors, expected.methods, expected.trials), n
        assert rng.random() == ref_rng.random(), n


@pytest.mark.parametrize("n", [3**5 * 5**3 * 7**2 * 1009, 67 * 71 * 73 * 79 * 83, 101**3 * 103 * 65537])
def test_factorize_peels_large_cofactors_like_the_reference(n):
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result, expected = factorize(n, rng), refactoring_factorize(n, ref_rng)
        assert (result.factors, result.methods, result.trials) == (
            expected.factors, expected.methods, expected.trials)
        assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# sympy as an independent oracle


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2**64), seed=st.integers(0, 50) | st.none())
@example(n=2**64, seed=None)
@example(n=4294967279 * 4294967291, seed=None)  # the two largest primes below 2^32
@example(n=4294967279 * 4294967291, seed=3)
@example(n=4294967291**2, seed=None)
@example(n=18446744073709551557, seed=1)  # the largest prime below 2^64
@example(n=3 * 5 * 7 * 11 * 13 * 2**40, seed=0)
def test_factorize_matches_sympy(n, seed):
    sympy = pytest.importorskip("sympy")
    rng = None if seed is None else np.random.default_rng(seed)
    result = factorize(n, rng)
    assert Counter(result.factors) == sympy.factorint(n)
    assert list(result.factors) == sorted(result.factors)


@pytest.mark.parametrize("call, message", [
    (lambda: order_find(2, 1, np.random.default_rng(0)), "modulus must be >= 2"),
    (lambda: order_find(2, 129, np.random.default_rng(0)), "quantum order finding simulated only for N <= 128"),
    (lambda: nth_prime(0), "prime index must be >= 1"),
    (lambda: factorize(0), "N must be >= 1"),
    (lambda: decode_set(0), "encoded set must be >= 1"),
], ids=["order-modulus-1", "order-past-sim-limit", "nth-prime-0", "factorize-0", "decode-set-0"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
