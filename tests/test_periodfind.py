"""Tests for Fourier sampling, the probabilistic baseline, and the exact finder."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qperiod.periodfind import (
    EqpaRecord,
    EqpaTrace,
    PeriodicFunction,
    PromiseViolation,
    brute_force_period,
    eqpa,
    fourier_sampling_program,
    goodness,
    marked_program,
    standard_qpa,
)
from qperiod.amplify import boost_from_half
from qperiod import periodfind
from qperiod.periodfind import _MAX_PERIOD, _analyze, _BlockSampler, _final_check
from qperiod.qstate import QStateError, good_mass, measure_joint


def ceil_log2(x: int) -> int:
    return max(x - 1, 0).bit_length()


def index_marginal(state, m):
    out = np.zeros(m)
    for values, amp in state.entries():
        out[values[0]] += abs(amp) ** 2
    return out


class TestFourierSampling:
    def test_mod3_over_12(self):
        state = fourier_sampling_program(PeriodicFunction.modular(3, 12)).run()
        marg = index_marginal(state, 12)
        for k in range(12):
            expected = 1 / 3 if k % 4 == 0 else 0.0
            assert marg[k] == pytest.approx(expected, abs=1e-9)

    def test_constant_function_concentrates_on_zero(self):
        state = fourier_sampling_program(PeriodicFunction.modular(1, 8)).run()
        marg = index_marginal(state, 8)
        assert marg[0] == pytest.approx(1.0, abs=1e-9)
        assert marg[1:].max() < 1e-12

    def test_injective_function_is_flat(self):
        # independent oracle: dense DFT of each residue column
        m = 8
        state = fourier_sampling_program(PeriodicFunction.modular(m, m)).run()
        marg = index_marginal(state, m)
        omega = np.exp(2j * np.pi / m)
        dense = np.zeros(m)
        for j in range(m):  # f injective: each j is its own group
            for k in range(m):
                dense[k] += abs(omega ** (j * k) / m) ** 2
        np.testing.assert_allclose(marg, dense, atol=1e-9)
        np.testing.assert_allclose(marg, np.full(m, 1 / m), atol=1e-9)


class TestGoodness:
    def test_large_representative_marks_good(self):
        assert goodness(1, 12, -1)(7, 0) == 1  # rep 7 >= 6

    def test_window_needs_coin(self):
        assert goodness(1, 12, 1)(2, 1) == 1  # 0 < 2 <= 2
        assert goodness(1, 12, 1)(2, 0) == 0

    def test_zero_residue_never_good(self):
        for j in range(-1, 4):
            for b in (0, 1):
                assert goodness(3, 12, j)(4, b) == 0  # 3*4 = 0 mod 12

    def test_zero_residue_maps_to_zero_not_m(self):
        # 6*2 = 12: read as m, it would pass the 2r >= m test for every j and b
        for j in range(-1, 4):
            for b in (0, 1):
                assert goodness(6, 12, j)(2, b) == 0

    def test_j_range_checked(self):
        with pytest.raises(ValueError):
            goodness(1, 12, 4)
        with pytest.raises(ValueError):
            goodness(1, 12, -2)

    def test_int64_overflow_refused(self):
        with pytest.raises(ValueError, match="int64"):
            goodness(1 << 40, (1 << 40) + 1, 0)
        with pytest.raises(ValueError, match="int64"):
            goodness(1 << 31, (1 << 31) + 1, 0)  # d*(m-1) = 2^62

    def test_largest_admitted_product_is_exact(self):
        d, m = (1 << 31) - 1, (1 << 31) + 1  # d*(m-1) just below 2^62
        pred = goodness(d, m, 5)
        ks = np.array([1, 2, m // 2, m - 2, m - 1, 12345678])
        reps = [(d * int(k)) % m for k in ks]
        assert list(pred(ks, np.ones_like(ks))) == [int(2 * r >= m or 0 < r <= 32) for r in reps]

    def test_vectorized_matches_scalar(self):
        pred = goodness(2, 24, 2)
        ks = np.arange(24)
        bs = np.tile([0, 1], 12)
        vec = pred(ks, bs)
        for k, b, v in zip(ks, bs, vec):
            assert pred(int(k), int(b)) == v


class TestMarkedProgram:
    def test_third_mass_at_bottom_window(self):
        # support {0,4,8}; rep >= 6 only for k=8 -> mass 1/3 over both coins
        f = PeriodicFunction.modular(3, 12)
        mass = good_mass(marked_program(f, 1, -1).run(), goodness(1, 12, -1))
        assert mass == pytest.approx(1 / 3, abs=1e-9)

    def test_even_residual_half_mass_at_j_minus_one(self):
        f = PeriodicFunction.modular(4, 8)
        mass = good_mass(marked_program(f, 1, -1).run(), goodness(1, 8, -1))
        assert mass == pytest.approx(0.5, abs=1e-9)

    def test_odd_residual_half_mass_at_critical_j(self):
        f = PeriodicFunction.modular(3, 12)
        j = ceil_log2(12 // 3)  # d = 1, window just catches m/r
        assert j == 2
        mass = good_mass(marked_program(f, 1, j).run(), goodness(1, 12, j))
        assert mass == pytest.approx(0.5, abs=1e-9)

    def test_d_must_divide_modulus(self):
        with pytest.raises(ValueError):
            marked_program(PeriodicFunction.modular(3, 12), 5, 0)

    @pytest.mark.parametrize("r,c", [(2, 2), (6, 2), (4, 3), (9, 1), (12, 2)])
    def test_critical_half_mass_all_divisors(self, r, c):
        m = c * r
        f = PeriodicFunction.modular(r, m)
        for d in (d for d in range(1, r) if r % d == 0):
            rho = r // d
            j = -1 if rho % 2 == 0 else ceil_log2(d * m // r)
            mass = good_mass(marked_program(f, d, j).run(), goodness(d, m, j))
            assert mass == pytest.approx(0.5, abs=1e-9), (r, m, d, j)


class TestEqpa:
    def test_mod3_over_12(self):
        f = PeriodicFunction.modular(3, 12)
        period, _ = eqpa(f, np.random.default_rng(0))
        assert period == brute_force_period(f, 12) == 3

    def test_constant_function(self):
        period, trace = eqpa(PeriodicFunction.modular(1, 8), np.random.default_rng(1))
        assert period == 1
        assert trace.sweeps == 1  # nothing to learn: first sweep is already clean

    def test_seed_independence(self):
        f = PeriodicFunction.modular(6, 12)
        results = {eqpa(f, np.random.default_rng(seed))[0] for seed in range(25)}
        assert results == {6}

    @pytest.mark.parametrize("r,m", [(1, 1), (1, 8), (2, 4), (5, 5), (8, 64), (12, 36), (7, 63)])
    def test_matches_brute_force(self, r, m):
        f = PeriodicFunction.modular(r, m)
        period, _ = eqpa(f, np.random.default_rng(3))
        assert period == brute_force_period(f, m)

    def test_table_function(self):
        # injective-per-residue table, not of the plain modular shape
        table = [[10, 17, 3, 10, 17, 3][i % 6] for i in range(24)]
        f = PeriodicFunction.from_table(table)
        period, _ = eqpa(f, np.random.default_rng(9))
        assert period == 3

    def test_engines_produce_identical_traces(self):
        for r, m in [(3, 12), (6, 12), (4, 8), (1, 8), (12, 24)]:
            f = PeriodicFunction.modular(r, m)
            for seed in range(5):
                p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
                p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
                assert p1 == p2 == r
                seq1 = [(rec.j, rec.k, rec.b, rec.chi, rec.d_after) for rec in t1.records]
                seq2 = [(rec.j, rec.k, rec.b, rec.chi, rec.d_after) for rec in t2.records]
                assert seq1 == seq2

    def test_trace_fields_and_monotone_divisor(self):
        f = PeriodicFunction.modular(12, 48)
        period, trace = eqpa(f, np.random.default_rng(4))
        assert period == 12
        ds = [rec.d_before for rec in trace.records] + [trace.records[-1].d_after]
        assert all(a <= b for a, b in zip(ds, ds[1:]))
        assert 48 % trace.records[-1].d_after == 0
        for rec in trace.records:
            if rec.updated:
                assert rec.d_after >= 2 * rec.d_before  # lcm update at least doubles

    def test_fourier_call_bound(self):
        for r, m in [(3, 12), (12, 48), (16, 64), (60, 420)]:
            f = PeriodicFunction.modular(r, m)
            for seed in range(5):
                _, trace = eqpa(f, np.random.default_rng(seed))
                bound = 4 * (m.bit_length() - 1 + 2) * (ceil_log2(r) + 1)
                assert trace.fourier_calls <= bound
                assert trace.sweeps <= ceil_log2(r) + 1

    def test_at_half_mass_annotation(self):
        f = PeriodicFunction.modular(4, 8)
        _, trace = eqpa(f, np.random.default_rng(7))
        first = trace.records[0]  # j = -1 with d = 1, rho = 4 even: exactly 1/2
        assert first.j == -1 and first.at_half_mass

    def test_promise_violation_rejected(self):
        # period 5 does not divide 12
        f = PeriodicFunction.modular(5, 12)
        with pytest.raises(PromiseViolation):
            eqpa(f, np.random.default_rng(0))

    def test_value_collision_rejected(self):
        # f(0) == f(1): not injective inside one period
        f = PeriodicFunction.from_table([0, 0, 1, 0, 0, 1])
        with pytest.raises(PromiseViolation):
            eqpa(f, np.random.default_rng(0))

    def test_informative_k_divides_period(self):
        f = PeriodicFunction.modular(24, 96)
        _, trace = eqpa(f, np.random.default_rng(11))
        for rec in trace.records:
            if rec.updated:
                assert 24 % (96 // math.gcd(96, rec.k)) == 0


class TestStandardQpa:
    def test_always_divisor_of_period(self):
        f = PeriodicFunction.modular(6, 12)
        for seed in range(200):
            out = standard_qpa(f, np.random.default_rng(seed), samples=1)
            assert 6 % out == 0

    def test_constant_function(self):
        f = PeriodicFunction.modular(1, 16)
        assert standard_qpa(f, np.random.default_rng(0)) == 1

    def test_single_sample_success_rate_matches_enumeration(self):
        # support {0,2,4,6,8,10}; m/gcd(12,k) = 6 only for k in {2,10}: rate 1/3
        f = PeriodicFunction.modular(6, 12)
        candidates = [12 // math.gcd(12, k) for k in range(0, 12, 2)]
        exact = candidates.count(6) / len(candidates)
        assert exact == pytest.approx(1 / 3)
        hits = sum(
            standard_qpa(f, np.random.default_rng(seed), samples=1) == 6 for seed in range(3000)
        )
        assert hits / 3000 == pytest.approx(exact, abs=0.05)

    def test_more_samples_help(self):
        f = PeriodicFunction.modular(6, 12)
        hits = sum(
            standard_qpa(f, np.random.default_rng(seed), samples=4) == 6 for seed in range(500)
        )
        assert hits / 500 > 0.8

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            standard_qpa(PeriodicFunction.modular(2, 4), np.random.default_rng(0), samples=0)


class TestBruteForce:
    def test_mod5(self):
        assert brute_force_period(PeriodicFunction.modular(5, 10), 10) == 5

    def test_constant(self):
        assert brute_force_period(PeriodicFunction.modular(1, 9), 9) == 1

    def test_injective(self):
        assert brute_force_period(PeriodicFunction.modular(8, 8), 8) == 8

    def test_no_period_found(self):
        f = PeriodicFunction.from_table([0, 1, 2, 3])
        with pytest.raises(ValueError):
            brute_force_period(f, 2)


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(1, 24),
    c=st.integers(1, 8),
    seed=st.integers(0, 100),
)
def test_eqpa_equals_brute_force_property(r, c, seed):
    f = PeriodicFunction.modular(r, r * c)
    period, _ = eqpa(f, np.random.default_rng(seed))
    assert period == brute_force_period(f, r * c)


# ---------------------------------------------------------------------------
# the block sampler against its full-length form, and the promise paths


def _full_length_sample(m, r, d, j, rng):
    """The block sampler's walk over all 2r outcomes, kept as the reference."""
    step = m // r
    ts = np.arange(r, dtype=np.int64)
    reps = (ts * ((step * d) % m)) % m
    threshold = (1 << j) if j >= 0 else 0
    good = np.empty((r, 2), dtype=bool)
    good[:, 0] = 2 * reps >= m
    good[:, 1] = good[:, 0] | ((reps > 0) & (reps <= threshold))
    a = good.sum() / (2 * r)
    ip = (1.0 - a) + 1j * a
    factor_good = -(1j + (1j - 1.0) * ip)
    factor_bad = -(1.0 + (1j - 1.0) * ip)
    p_good = abs(factor_good) ** 2 / (2 * r)
    p_bad = abs(factor_bad) ** 2 / (2 * r)
    probs = np.where(good, p_good, p_bad).ravel()
    cum = np.cumsum(probs)
    target = rng.random() * cum[-1]
    idx = min(int(np.searchsorted(cum, target, side="right")), 2 * r - 1)
    t, b = divmod(idx, 2)
    return int(ts[t] * step), b, int(good[t, b]), float(a)


@st.composite
def _sampler_cases(draw):
    r = draw(st.integers(1, 1 << 14))
    m = r * draw(st.integers(1, 8))
    d = draw(st.sampled_from([x for x in range(1, math.isqrt(r) + 1) if r % x == 0]))
    d = draw(st.sampled_from(sorted({d, r // d})))  # eqpa's divisors all divide r
    j = draw(st.integers(-1, m.bit_length() - 1))
    return m, r, d, j, draw(st.integers(0, 2**32 - 1))


def test_block_sampler_matches_full_length_walk():
    run_lengths = []

    @settings(max_examples=300, deadline=None)
    @given(case=_sampler_cases())
    @example(case=(48, 12, 4, 2, 5))  # r' = 3
    @example(case=(40, 20, 10, -1, 1))  # r' = 2
    def check(case):
        m, r, d, j, seed = case
        got = _BlockSampler(m, r).sample(d, j, np.random.default_rng(seed))
        want = _full_length_sample(m, r, d, j, np.random.default_rng(seed))
        assert got[:3] == want[:3]
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        run_lengths.append((r // math.gcd(d, r), r))

    check()
    assert any(1 < rb < r for rb, r in run_lengths)


@pytest.mark.parametrize("m", [4097, 10**6, 1 << 40, 1 << 63])
def test_spot_points_are_the_seeded_default_rng_draws(m):
    calls = []
    f = PeriodicFunction(modulus=m, evaluator=lambda x: calls.append(x.copy()) or x % 1)
    assert _analyze(f) == 1
    want = [np.random.default_rng(seed).integers(0, m, size=64) for seed in (0x5EED, 0xD00D)]
    assert len(calls) == 3  # the scan's first chunk, then the spot points and their shifts
    assert np.array_equal(calls[1], np.concatenate(want))


def test_in_period_collision_rejected_on_sampled_branch():
    # m > 4096 checks periodicity on spot points only; the in-period
    # uniqueness check must still see f(r-2) == f(r-1)
    r, m = 5000, 10000
    table = np.arange(m) % r
    table[table == r - 1] = r - 2
    with pytest.raises(PromiseViolation, match="repeats a value"):
        eqpa(PeriodicFunction.from_table(table), np.random.default_rng(0))


def test_engines_agree_on_generic_permutation():
    r, m = 12, 48
    perm = np.random.default_rng(12).permutation(r)
    f = PeriodicFunction.from_table(perm[np.arange(m) % r])
    divisors = set()
    for seed in range(4):  # seeds 0 and 3 pass through d = 4, 2 and 6
        p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
        p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
        assert p1 == p2 == r
        for a, b in zip(t1.records, t2.records, strict=True):
            assert (a.j, a.k, a.b, a.chi, a.d_after) == (b.j, b.k, b.b, b.chi, b.d_after)
            assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)
            divisors.add(a.d_before)
    assert {2, 4, 6} <= divisors


def test_period_past_budget_is_a_value_error():
    f = PeriodicFunction.modular(1 << 25, 1 << 26)
    with pytest.raises(ValueError, match="budget of 16777216 points") as info:
        eqpa(f, np.random.default_rng(0))
    assert not isinstance(info.value, PromiseViolation)


# ---------------------------------------------------------------------------
# declared residue moduli


def _never_evaluated(x):
    raise AssertionError("a declared function is not evaluated on the block path")


def test_declared_period_past_the_scan_budget():
    f = PeriodicFunction(modulus=1 << 26, evaluator=_never_evaluated, residues=(1 << 25,))
    assert eqpa(f, np.random.default_rng(0))[0] == 1 << 25
    assert standard_qpa(f, np.random.default_rng(0), samples=8) in {1 << e for e in range(26)}


def test_declared_residues_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        PeriodicFunction(modulus=12, evaluator=_never_evaluated, residues=(4, 0))


def test_declared_period_not_dividing_the_modulus_is_a_promise_violation():
    f = PeriodicFunction(modulus=60, evaluator=_never_evaluated, residues=(4, 6, 7))
    with pytest.raises(PromiseViolation, match="declared period 84"):
        eqpa(f, np.random.default_rng(0))
    with pytest.raises(PromiseViolation):
        standard_qpa(f, np.random.default_rng(0))


def test_declared_final_check_is_exact():
    f = PeriodicFunction(modulus=72, evaluator=_never_evaluated, residues=(4, 6, 9))
    _final_check(f, 36)
    for d in (4, 9, 12, 18):
        with pytest.raises(PromiseViolation, match=f"returned divisor {d} "):
            _final_check(f, d)


def test_program_engine_analyzes_a_declared_function(monkeypatch):
    f = PeriodicFunction(modulus=48, evaluator=lambda x: x % 4 + 4 * (x % 6), residues=(4, 6))
    analyzed = []
    monkeypatch.setattr(periodfind, "_analyze", lambda g: analyzed.append(g) or _analyze(g))
    for seed in range(3):
        p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
        assert analyzed == []
        p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
        assert analyzed == [f]
        analyzed.clear()
        assert p1 == p2 == 12
        for a, b in zip(t1.records, t2.records, strict=True):
            assert a._replace(good_mass=0.0) == b._replace(good_mass=0.0)
            assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)


@pytest.mark.parametrize("r, m", [(64, 256), (96, 384)])
def test_engines_agree_on_wider_generic_permutations(r, m):
    perm = np.random.default_rng(r).permutation(r)
    f = PeriodicFunction.from_table(perm[np.arange(m) % r])
    for seed in range(2):
        p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
        p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
        assert p1 == p2 == r
        for a, b in zip(t1.records, t2.records, strict=True):
            assert (a.k, a.b, a.chi, a.d_before, a.d_after) == (b.k, b.b, b.chi, b.d_before, b.d_after)
            assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)


# ---------------------------------------------------------------------------
# the closed-form walk: weights, exact ties


@st.composite
def _wide_sampler_cases(draw):
    rb = draw(st.integers(1, 1 << 17))
    g = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    r, m = rb * g, rb * g * c
    j = draw(st.integers(-1, m.bit_length() - 1))
    return m, r, g, j, draw(st.integers(0, 2**32 - 1))  # d = g: the run is r' = rb


def test_block_sampler_matches_full_length_walk_at_wide_runs():
    seen = set()

    @settings(max_examples=25, deadline=None)
    @given(case=_wide_sampler_cases())
    @example(case=(1 << 18, 1 << 17, 1, -1, 7))  # r' = 2^17 even, j = -1: a = 1/2, W_bad = 0
    @example(case=(3 * (1 << 17) - 6, (1 << 17) - 2, 2, 9, 0))  # g = 2, first draw 0.64: q = g - 1
    @example(case=(4 * 131071, 2 * 131071, 2, -1, 3))  # r' = 131071 odd, j = -1
    def check(case):
        m, r, d, j, seed = case
        got = _BlockSampler(m, r).sample(d, j, np.random.default_rng(seed))
        want = _full_length_sample(m, r, d, j, np.random.default_rng(seed))
        assert got[:3] == want[:3]
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        g = math.gcd(d, r)
        if got[3] == 0.5:
            seen.add("a = 1/2")
        if g > 1 and got[0] // (m // g) == g - 1:
            seen.add("q = g - 1")
        if j == -1:
            seen.add("j = -1")

    check()
    assert seen == {"a = 1/2", "q = g - 1", "j = -1"}


class _Run:
    """The 2r' outcomes (t, b), t < r', of one copy in the block basis,
    counted pair by pair: the reference for the sampler's four segments.

    The outcomes are marked as :func:`periodfind._mark_run` describes, with
    v_t = t; a good outcome weighs N^2 + 4(N-G)^2 and a bad one (N-2G)^2.
    """

    def __init__(self, rb, window):
        self.rb, self.window = rb, window
        self.half = (rb + 1) // 2
        self.n_good = count = 2 * (rb - self.half) + window
        n = 2 * rb
        self.w_good = n * n + 4 * (n - count) ** 2
        self.w_bad = (n - 2 * count) ** 2

    def good(self, t, b):
        return t >= self.half or (b == 1 and 1 <= t <= self.window)

    def weight_before(self, t):
        count = 2 * max(0, t - self.half) + max(0, min(t - 1, self.window))  # good among the 2t below t <= r'
        return self.w_good * count + self.w_bad * (2 * t - count)


@pytest.mark.parametrize("r, m", [(1, 4), (3, 12), (4, 8), (6, 12), (12, 24), (10, 40)])
def test_block_sampler_weights_are_boosted_state_masses(r, m):
    f = PeriodicFunction.modular(r, m)
    step = m // r
    for d in (x for x in range(1, r + 1) if r % x == 0):
        for j in range(-1, m.bit_length()):
            boost = boost_from_half(marked_program(f, d, j), goodness(d, m, j))
            masses = {}
            for (k, _, b, _), amp in boost.state.entries():
                masses[k, b] = masses.get((k, b), 0.0) + abs(amp) ** 2
            run = _Run(*periodfind._mark_run(r, step, d, j))
            n_cube = (2 * run.rb) ** 3
            assert run.w_good * run.n_good + run.w_bad * (2 * run.rb - run.n_good) == n_cube
            for k in range(m):
                for b in (0, 1):
                    if k % step:
                        want = 0.0
                    else:
                        weight = run.w_good if run.good(k // step % run.rb, b) else run.w_bad
                        want = weight / (r // run.rb * n_cube)
                    assert masses.get((k, b), 0.0) == pytest.approx(want, abs=1e-12), (d, j, k, b)


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _exact_full_length_sample(m, r, d, j, u):
    """The full-length walk in exact fractions: ties at cell boundaries
    resolve to the next outcome of positive weight, as side='right' does."""
    step = m // r
    threshold = (1 << j) if j >= 0 else 0
    cells = []
    for t in range(r):
        rep_ = (t * step * d) % m
        good0 = 2 * rep_ >= m
        cells += [(t, 0, good0), (t, 1, good0 or 0 < rep_ <= threshold)]
    a = Fraction(sum(good for *_, good in cells), 2 * r)
    w_good, w_bad = 1 + 4 * (1 - a) ** 2, (1 - 2 * a) ** 2
    target = Fraction(u) * (w_good * 2 * r * a + w_bad * 2 * r * (1 - a))
    cum = 0
    for t, b, good in cells:
        cum += w_good if good else w_bad
        if cum > target:
            return t * step, b, int(good), float(a)
    raise AssertionError("walk ran past the last outcome")


@pytest.mark.parametrize("r, c", [(2, 1), (6, 2), (12, 4), (20, 2), (30, 3), (42, 2), (60, 1)])
def test_block_sampler_resolves_exact_ties(r, c):
    m = r * c
    sampler = _BlockSampler(m, r)
    for d in (x for x in range(1, r + 1) if r % x == 0):
        g = math.gcd(d, r)
        # rng.random() draws are multiples of 2^-53: take the first, the
        # last, the middle, and the two nearest each copy boundary q/g for
        # q = 1, g/2 and g - 1 (one when q/g is itself a multiple)
        units = {0, 1 << 52, (1 << 53) - 1}
        for q in {1, g // 2, g - 1} & set(range(1, g)):
            units |= {q * (1 << 53) // g, -(-q * (1 << 53) // g)}
        for j in range(-1, m.bit_length()):
            for u in sorted(x / 2**53 for x in units):
                assert sampler.sample(d, j, _FixedDraw(u)) == _exact_full_length_sample(m, r, d, j, u), (d, j, u)


def test_block_engine_needs_no_int64_bound():
    f = PeriodicFunction.modular(1 << 22, 1 << 40)
    assert eqpa(f, np.random.default_rng(0))[0] == 1 << 22


def test_declared_function_past_int64():
    f = PeriodicFunction(modulus=1 << 80, evaluator=_never_evaluated, residues=(1 << 40, 1 << 79, 1 << 63))
    assert eqpa(f, np.random.default_rng(0))[0] == 1 << 79


@pytest.mark.parametrize("r, m", [(3, (1 << 63) - 2), (4, 1 << 63)])
def test_opaque_function_up_to_int64_points(r, m):
    # every point of Z_m fits int64, and so does the spot check's shift by r
    f = PeriodicFunction(modulus=m, evaluator=lambda x: x % r)
    assert eqpa(f, np.random.default_rng(0))[0] == r


def test_undeclared_modulus_past_int64_points_is_refused_before_evaluating():
    for m in ((1 << 63) + 1, 1 << 64):
        f = PeriodicFunction(modulus=m, evaluator=_never_evaluated)
        with pytest.raises(ValueError, match=rf"modulus {m} of an undeclared function exceeds 2\^63") as info:
            eqpa(f, np.random.default_rng(0))
        assert not isinstance(info.value, PromiseViolation)


def test_program_engine_refuses_past_capacity_before_allocating():
    # the index register alone would hold 2^23 entries, 384 MiB with the
    # four-register rows and amplitudes
    f = PeriodicFunction.modular(2, 1 << 23)
    tracemalloc.start()
    try:
        with pytest.raises(QStateError, match="exceeds sparse capacity"):
            eqpa(f, np.random.default_rng(0), engine="program")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_program_engine_leaves_numpy_ma_unimported():
    # a plain np.unique on an integer array imports numpy.ma (numpy 2.4),
    # about 1 MiB of resident objects that nothing here needs
    code = (
        "import sys, numpy as np\n"
        "from qperiod.periodfind import PeriodicFunction, eqpa\n"
        "f = PeriodicFunction.from_table([3, 0, 4, 1, 5, 2] * 4)\n"
        "assert eqpa(f, np.random.default_rng(1), engine='program')[0] == 6\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the program sampler's per-run cache


class _FreshBoostSampler(periodfind._ProgramSampler):
    """Reference program sampler: a fresh marked program, boost and joint
    measurement on every iteration, repeats of (d, j) included."""

    def __init__(self, f, r):
        values = np.sort(f(np.arange(r)))
        self.f = PeriodicFunction(modulus=f.modulus, evaluator=lambda x: np.searchsorted(values, f(x)))

    def sample(self, d, j, rng):
        boost = boost_from_half(marked_program(self.f, d, j), goodness(d, self.f.modulus, j))
        (k, b, chi), _ = measure_joint(boost.state, ("index", "b", "good"), rng)
        return k, b, chi, boost.mass_before


def _cache_sweep_functions():
    gen = np.random.default_rng(15)
    for _ in range(12):
        r = int(gen.integers(2, 25))
        m = r * int(gen.integers(1, 120 // r + 1))
        perm = gen.permutation(m)[:r]
        yield PeriodicFunction.from_table(perm[np.arange(m) % r])  # generic permutation
        yield PeriodicFunction.from_table((perm * m + 5)[np.arange(m) % r])  # values collide mod m
        yield PeriodicFunction.modular(r, r)  # r = m


def test_program_engine_matches_a_fresh_boost_per_iteration(monkeypatch):
    hits = 0  # iterations that draw from a marginal an earlier one boosted
    for seed, f in enumerate(_cache_sweep_functions()):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        p1, t1 = eqpa(f, rngs[0], engine="program")
        with monkeypatch.context() as patch:
            patch.setattr(periodfind, "_ProgramSampler", _FreshBoostSampler)
            p2, t2 = eqpa(f, rngs[1], engine="program")
        assert p1 == p2
        assert t1 == t2  # records, good_mass floats included, and counters
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        keys = {(rec.d_before, _support_window(p1, f.modulus, rec.d_before, rec.j)) for rec in t1.records}
        hits += len(t1.records) - len(keys)
    assert hits > 0


def _support_window(r, m, d, j):
    """The clipped window of the mark of (d, j) on the support, written out."""
    g = math.gcd(d, r)
    return min((2**j if j >= 0 else 0) // (m // r * g), (r // g + 1) // 2 - 1)


def test_program_engine_boosts_each_distinct_good_set_once(monkeypatch):
    boosted = []
    operator = periodfind.amplification_operator

    def counting(program, good, *args):
        boosted.append(good.name)
        return operator(program, good, *args)

    monkeypatch.setattr(periodfind, "amplification_operator", counting)
    r, m = 24, 216  # m/r = 9: the settled sweep at d = r runs j = -1, 5, 6, 7, all of window 0
    perm = np.random.default_rng(24).permutation(r)
    for seed in range(3):
        boosted.clear()
        _, trace = eqpa(PeriodicFunction.from_table(perm[np.arange(m) % r]), np.random.default_rng(seed),
                        engine="program")
        marks = [tuple(map(int, name[len("mark(d="):-1].split(",j="))) for name in boosted]
        keys = {(rec.d_before, _support_window(r, m, rec.d_before, rec.j)) for rec in trace.records}
        assert sorted((d, _support_window(r, m, d, j)) for d, j in marks) == sorted(keys)
        assert len(keys) < len({(rec.d_before, rec.j) for rec in trace.records})


@pytest.mark.parametrize("r, m", [(15, 60), (12, 96), (9, 72)])
def test_program_sampler_matches_a_fresh_boost_at_every_mark(r, m):
    # eqpa rarely meets two windows at one d (the first boosted draw there is
    # informative with high probability), so drive the sampler over every
    # (d, j) directly: a key coarser than the good set shows here
    f = PeriodicFunction.from_table(np.random.default_rng(r).permutation(m)[:r][np.arange(m) % r])
    cached, fresh = periodfind._ProgramSampler(f, r), _FreshBoostSampler(f, r)
    for d in (x for x in range(1, r + 1) if r % x == 0):
        for j in range(-1, m.bit_length()):
            for seed in range(3):
                assert cached.sample(d, j, np.random.default_rng(seed)) == fresh.sample(d, j, np.random.default_rng(seed))
    assert len(cached.marginals) == len({(d, _support_window(r, m, d, j)) for d in range(1, r + 1) if r % d == 0
                                         for j in range(-1, m.bit_length())})


@pytest.mark.parametrize("r", range(1, 25))
def test_mark_key_is_exactly_the_good_set_on_the_support(r):
    # two (d, j) share the program engine's boost key exactly when their
    # marks agree on every support outcome: a coarser key would draw from
    # the wrong marginal, a finer one boost the same good set twice
    for m in range(r, 97, r):
        step = m // r
        k = np.repeat(np.arange(r) * step, 2)
        b = np.tile([0, 1], r)
        bits = {}
        for d in (x for x in range(1, r + 1) if r % x == 0):
            for j in range(-1, m.bit_length()):
                key = d, periodfind._mark_run(r, step, d, j)[1]
                assert key[1] == _support_window(r, m, d, j)
                bits.setdefault(key, set()).add(goodness(d, m, j).fn(k, b).tobytes())
        assert all(len(patterns) == 1 for patterns in bits.values())
        assert len(set().union(*bits.values())) == len(bits)


def _digest_functions():
    """150 seeded functions with r <= 20 and m <= 80, a third of them with values colliding mod m."""
    gen = np.random.default_rng(33)
    for i in range(150):
        r = int(gen.integers(2, 21))
        m = r * int(gen.integers(1, 80 // r + 1))
        values = gen.permutation(m)[:r] + (m if i % 3 == 0 else 0)
        yield PeriodicFunction.from_table(values[np.arange(m) % r]), r, m


# recorded with qstate's lexsort grouping: the int64-keyed grouping must leave every byte as it was
_PROGRAM_SHA256 = "19f9d8b0e07f4901ab841219aaa8f3310bff1212cbe7fde227ccad581167035c"


def test_seeded_program_engine_is_byte_identical():
    # the literal engine's records, good_mass bytes included, and the rows
    # and amplitude bytes of one full boost per function
    digest = hashlib.sha256()
    for seed, (f, r, m) in enumerate(_digest_functions()):
        period, trace = eqpa(f, np.random.default_rng(seed), engine="program")
        digest.update(json.dumps([period, trace.sweeps, trace.fourier_calls]).encode())
        for rec in trace.records:
            digest.update(json.dumps([*rec[:6], rec.good_mass.hex(), *rec[7:]]).encode())
        d = r if seed % 2 else 1
        j = seed % (m.bit_length() + 1) - 1
        boosted = boost_from_half(marked_program(f, d, j), goodness(d, m, j)).state
        digest.update(boosted._vals.tobytes() + boosted._amps.tobytes())
    assert digest.hexdigest() == _PROGRAM_SHA256


def test_program_engine_peak_memory_is_one_boost():
    # the cache keeps the unmarked state and 2r-row marginals, never a
    # boosted state of up to 2r^2 entries per (d, j).  The later boosts
    # peak lower than the first, so a cache of boosted states would not
    # raise the run's peak here; it shows in the memory held between
    # iterations (about 0.1 of one boost's peak, 0.5 with boosted states)
    r, m = 64, 4096
    f = PeriodicFunction.modular(r, m)
    held = []
    tracemalloc.start()
    try:
        boost_from_half(marked_program(f, 1, -1), goodness(1, m, -1))
        one_boost = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        period, _ = eqpa(f, np.random.default_rng(0), engine="program",
                         on_iteration=lambda record: held.append(tracemalloc.get_traced_memory()[0]))
        one_run = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert period == r
    assert one_run <= 1.25 * one_boost
    assert max(held) <= 0.25 * one_boost


# ---------------------------------------------------------------------------
# generic promise functions against brute force


@st.composite
def _promise_tables(draw, max_modulus, wide_values, min_modulus=1):
    """f(x) = values[x mod r] for r distinct values: the promise holds with
    period r.  Narrow values lie in [0, m), the program engine's value
    register; wide ones span int64."""
    m = draw(st.integers(min_modulus, max_modulus))
    r = draw(st.sampled_from([x for x in range(1, m + 1) if m % x == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if wide_values:
        values = rng.permutation(r) * draw(st.integers(1, 1 << 20)) + draw(st.integers(-(2**40), 2**40))
    else:
        values = rng.permutation(m)[:r]
    return values.astype(np.int64)[np.arange(m) % r], r


@settings(max_examples=40, deadline=None)
@given(case=_promise_tables(96, wide_values=False), seed=st.integers(0, 2**32 - 1))
@example(case=(np.array([0, 2]), 2), seed=0)  # values that collide mod m
@example(case=(np.array([4, 0, 2, 6]), 4), seed=0)
def test_both_engines_exact_on_random_promise_tables(case, seed):
    table, r = case
    f = PeriodicFunction.from_table(table)
    p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
    p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
    assert p1 == p2 == brute_force_period(f, len(table)) == r
    for a, b in zip(t1.records, t2.records, strict=True):
        assert (a.k, a.b, a.chi, a.d_before, a.d_after) == (b.k, b.b, b.chi, b.d_before, b.d_after)
        assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(case=_promise_tables(20_000, wide_values=True), seed=st.integers(0, 2**32 - 1))
@example(case=(np.arange(20_000) % 5000, 5000), seed=0)
def test_block_engine_exact_on_random_promise_tables(case, seed):
    table, r = case
    f = PeriodicFunction.from_table(table)
    assert eqpa(f, np.random.default_rng(seed))[0] == brute_force_period(f, len(table)) == r


@settings(max_examples=15, deadline=None)
@given(case=_promise_tables(48, wide_values=True), seed=st.integers(0, 2**32 - 1))
def test_both_engines_exact_on_wide_value_tables(case, seed):
    # the program engine loads each value's rank among the in-period values,
    # so values far outside its m-dimensional value register are exact too
    table, r = case
    f = PeriodicFunction.from_table(table)
    p1, t1 = eqpa(f, np.random.default_rng(seed), engine="block")
    p2, t2 = eqpa(f, np.random.default_rng(seed), engine="program")
    assert p1 == p2 == r
    for a, b in zip(t1.records, t2.records, strict=True):
        assert (a.k, a.b, a.chi, a.d_before, a.d_after) == (b.k, b.b, b.chi, b.d_before, b.d_after)
        assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)


def _promise_holds(table):
    """Some r | m with f(x) = f(y) iff x = y (mod r); brute force."""
    m = len(table)
    return any(
        len(np.unique(table[:r])) == r and np.array_equal(table, table[np.arange(m) % r])
        for r in range(1, m + 1) if m % r == 0
    )


_VIOLATIONS = ("repeat", "non-dividing", "break")


@st.composite
def _violating_tables(draw, max_modulus, min_modulus=1, kinds=_VIOLATIONS):
    """Tables that break the promise one way each: a value repeated inside
    the period, a first return of f(0) that does not divide m, or one point
    beyond the first period that leaves the periodic pattern."""
    table, r = draw(_promise_tables(max_modulus, wide_values=False, min_modulus=min_modulus))
    m = len(table)
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        assume(r >= 3)
        i, k = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        values = table[:r].copy()
        values[i] = values[k]
        table = values[np.arange(m) % r]
    elif kind == "non-dividing":
        assume(m >= 3)
        r = draw(st.integers(2, m - 1).filter(lambda r: m % r))
        table = np.random.default_rng(r).permutation(m)[:r][np.arange(m) % r]
    else:
        assume(m > r)
        table = table.copy()
        table[draw(st.integers(r, m - 1))] = draw(st.integers(0, m - 1))
    assume(not _promise_holds(table))
    return table


@settings(max_examples=60, deadline=None)
@given(table=_violating_tables(96), seed=st.integers(0, 2**32 - 1))
def test_both_engines_reject_promise_violating_tables(table, seed):
    for engine in ("block", "program"):
        with pytest.raises(PromiseViolation):
            eqpa(PeriodicFunction.from_table(table), np.random.default_rng(seed), engine=engine)


@settings(max_examples=60, deadline=None)
@given(table=_violating_tables(20_000), seed=st.integers(0, 2**32 - 1))
@example(table=np.where(np.arange(8192) == 8190, 0, np.arange(8192) % 4096), seed=0)  # no spot point sees 8190
def test_block_engine_rejects_promise_violating_tables(table, seed):
    with pytest.raises(PromiseViolation):
        eqpa(PeriodicFunction.from_table(table), np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(table=_violating_tables(20_000, min_modulus=4097, kinds=("repeat", "non-dividing")))
def test_spot_checked_branch_rejects_repeats_and_non_dividing_returns(table):
    # an opaque evaluator past m = 4096 is checked on spot points only, so
    # one broken point beyond the first period can go unseen; the scan
    # itself sees a first return that does not divide m and a repeat inside
    # the period, except a repeat of f(0), which moves the first return and
    # breaks the pattern on a large share of all points
    f = PeriodicFunction(modulus=len(table), evaluator=lambda x: table[x])
    with pytest.raises(PromiseViolation):
        eqpa(f, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the sweep schedule against the per-iteration loop, and the closed form at d = r


def _certifying_sweep(m, d):
    """j = -1, then every j with 2^j >= d * 2^v, 2^v the largest power of
    two dividing m/d: eqpa's sweep at d, written out."""
    two = 1
    while (m // d) % (2 * two) == 0:
        two *= 2
    return [-1] + [j for j in range(m.bit_length()) if 2**j >= d * two]


def _per_iteration_eqpa(f, rng, pruned=True):
    """The block engine's loop written out, one ``sample`` call and one rng
    draw per iteration: the reference for eqpa's schedule and counters.
    Its draws take ``sample``'s closed form, which
    :func:`_generic_block_sample` checks.

    ``pruned`` runs eqpa's schedule: the windows of :func:`_certifying_sweep`,
    starting a new sweep at each update.  Otherwise it runs the paper's full
    schedule: every j = -1..floor(log2 m), sweep after sweep, until a whole
    sweep updates nothing."""
    sampler = _BlockSampler(f.modulus, _analyze(f))
    m = f.modulus
    trace = EqpaTrace()
    d = 1
    while True:
        trace.sweeps += 1
        swept_update = False
        for j in _certifying_sweep(m, d) if pruned else range(-1, m.bit_length()):
            k, b, chi, mass = sampler.sample(d, j, rng)
            trace.fourier_calls += 3
            informative = (d * k) % m != 0
            d_after = math.lcm(d, m // math.gcd(m, k)) if informative else d
            trace.records.append(
                EqpaRecord(
                    sweep=trace.sweeps,
                    j=j,
                    d_before=d,
                    k=k,
                    b=b,
                    chi=chi,
                    good_mass=mass,
                    at_half_mass=abs(mass - 0.5) <= 1e-9,
                    updated=informative,
                    d_after=d_after,
                    fourier_calls=trace.fourier_calls,
                )
            )
            if informative:
                d = d_after
                swept_update = True
                if pruned:
                    break
        if not swept_update:
            return d, trace


def test_every_sweep_holds_a_window_of_half_mass():
    # d | r | m with d != r: some window of the sweep at d has good mass
    # exactly 1/2 (n_good = r' of the 2r' outcomes of a run), so its boost
    # updates d with certainty
    cases = 0
    for m in range(1, 1025):
        divisors = [x for x in range(1, m + 1) if m % x == 0]
        for r in divisors:
            for d in (x for x in divisors if r % x == 0 and x != r):
                cases += 1
                runs = [_Run(*periodfind._mark_run(r, m // r, d, j)) for j in periodfind._sweep(m, d)]
                assert any(run.n_good == r // d for run in runs), (m, r, d)
    assert cases == 23081


@st.composite
def _permutation_functions(draw):
    """f(x) = perm[x mod r] on Z_m, m <= 2^12, for a seeded permutation of Z_r."""
    m = draw(st.integers(1, 1 << draw(st.integers(0, 12))))
    r = draw(st.sampled_from([x for x in range(1, m + 1) if m % x == 0]))
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(r)
    return perm[np.arange(m) % r], r


@settings(max_examples=150, deadline=None)
@given(case=_permutation_functions(), seed=st.integers(0, 2**32 - 1))
def test_pruned_sweeps_find_the_period_in_no_more_fourier_calls(case, seed):
    table, r = case
    f = PeriodicFunction.from_table(table)
    full_period, full = _per_iteration_eqpa(f, np.random.default_rng(seed), pruned=False)
    for engine in ("block", "program") if len(table) <= 128 else ("block",):
        period, trace = eqpa(f, np.random.default_rng(seed), engine=engine)
        assert period == full_period == r
        assert trace.fourier_calls <= full.fourier_calls


def test_settled_tail_matches_per_iteration_loop():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(1, 1 << 12),
        c=st.one_of(st.integers(1, 8), st.integers(1 << 20, 1 << 28)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(r=1, c=8, seed=0)  # settled from the first iteration
    @example(r=3, c=5, seed=379169)  # d reaches r at j = 3, the last j of sweep 1
    @example(r=4095, c=(1 << 28) + 3, seed=1)  # m just below 2^40
    def check(r, c, seed):
        f = PeriodicFunction.modular(r, r * c)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        seen_records = []
        period, trace = eqpa(f, rng, on_iteration=seen_records.append)
        ref_period, ref = _per_iteration_eqpa(f, ref_rng)
        full_period, full = _per_iteration_eqpa(f, np.random.default_rng(seed), pruned=False)
        assert period == ref_period == full_period == r
        assert trace.records == ref.records == seen_records
        assert (trace.fourier_calls, trace.sweeps) == (ref.fourier_calls, ref.sweeps)
        assert trace.sweeps == trace.records[-1].sweep
        assert trace.fourier_calls <= full.fourier_calls
        assert rng.random() == ref_rng.random()
        if r == 1:
            seen.add("r = 1")
        if any(rec.updated and rec.j == (r * c).bit_length() - 1 for rec in ref.records):
            seen.add("d = r at the last j")
        if r * c > 1 << 32:
            seen.add("m > 2^32")

    check()
    assert seen == {"r = 1", "d = r at the last j", "m > 2^32"}


@pytest.mark.parametrize("engine", ["block", "program"])
def test_hooked_and_unhooked_runs_match_per_iteration_loop(engine):
    for r, m, seed in [(1, 8, 0), (6, 48, 3), (12, 48, 1), (5, 40, 2), (16, 64, 7)]:
        f = PeriodicFunction.modular(r, m)
        seen = []
        hooked_rng = np.random.default_rng(seed)
        _, hooked = eqpa(f, hooked_rng, engine=engine, on_iteration=seen.append)
        rng = np.random.default_rng(seed)
        _, plain = eqpa(f, rng, engine=engine)
        ref_rng = np.random.default_rng(seed)
        _, ref = _per_iteration_eqpa(f, ref_rng)
        full_period, full = _per_iteration_eqpa(f, np.random.default_rng(seed), pruned=False)
        assert full_period == r and plain.fourier_calls <= full.fourier_calls
        assert plain.records == seen == hooked.records
        assert (plain.fourier_calls, plain.sweeps) == (hooked.fourier_calls, hooked.sweeps) == (ref.fourier_calls, ref.sweeps)
        assert rng.bit_generator.state == hooked_rng.bit_generator.state == ref_rng.bit_generator.state
        for a, b in zip(plain.records, ref.records, strict=True):
            assert a._replace(good_mass=0.0) == b._replace(good_mass=0.0)
            assert a.good_mass == pytest.approx(b.good_mass, abs=1e-9)
        if engine == "block":
            assert plain.records == ref.records


def _generic_block_sample(sampler, d, j, rng):
    """The walk that ``_BlockSampler.sample`` replaced: a binary search on
    the cumulative weight of the run of (d, j), which is r' = 1 at d = r.
    The reference for the sampler's four segments."""
    run = _Run(*periodfind._mark_run(sampler.r, sampler.step, d, j))
    rb = run.rb
    q, rest = divmod(int(rng.random() * periodfind._TWO53) * d, periodfind._TWO53)
    target = rest * (2 * rb) ** 3
    lo, hi, below = 0, rb, 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w = run.weight_before(mid)
        if w * periodfind._TWO53 > target:
            hi = mid
        else:
            lo, below = mid, w
    below += run.w_good if run.good(lo, 0) else run.w_bad
    b = 0 if below * periodfind._TWO53 > target else 1
    return (q * rb + lo) * sampler.step, b, int(run.good(lo, b)), run.n_good / (2 * rb)


_CLOSED_FORM_CASES = [
    (r, m)
    for r in (1, 2, 3, 4095, 1 << 17)
    for m in sorted({r, 2 * r, 3 * r, 8 * r, (1 << 20) * r, (1 << 40) // r * r})
]


def test_closed_form_at_d_equal_r_matches_the_generic_walk():
    # every draw of a run, replayed by the generic walk on a second generator
    # from the hook: equal outcomes and generator states after each draw, and
    # the last sweep is the whole sweep at d = r
    for r, m in _CLOSED_FORM_CASES:
        f = PeriodicFunction(modulus=m, evaluator=lambda x, r=r: x % r, residues=(r,))
        sampler = _BlockSampler(m, r)
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

            def replay(rec):
                assert (rec.k, rec.b, rec.chi, rec.good_mass) == _generic_block_sample(sampler, rec.d_before, rec.j, ref_rng)
                assert type(rec.good_mass) is float
                assert rng.bit_generator.state == ref_rng.bit_generator.state

            period, trace = eqpa(f, rng, on_iteration=replay)
            assert period == r
            settled = [rec for rec in trace.records if rec.d_before == r]
            assert [rec.j for rec in settled] == periodfind._sweep(m, r)
            assert trace.records[len(trace.records) - len(settled):] == settled
            assert all(rec.sweep == trace.sweeps and not rec.updated for rec in settled)


class _PlacedDraws:
    """A stand-in generator whose ``random()`` returns U / 2^53 for each given U in turn."""

    def __init__(self, us):
        self.us = iter(us)

    def random(self):
        return next(self.us) / (1 << 53)


def test_closed_form_at_d_equal_r_across_multiples_of_2_52():
    # U*r crosses n * 2^52 between U = u0 - 1 and u0: its bit 52 (the coin b)
    # or its bits from 53 up (the support index) change there
    two52 = 1 << 52
    for r in (1, 2, 3, 5, 4095, 1 << 17, (1 << 20) + 1):
        ns = range(1, 2 * r) if r <= 5 else (1, 2, 3, r - 1, r, r + 1, 2 * r - 1)
        for c in (1, 3, 1 << 10):
            sampler = _BlockSampler(r * c, r)
            for n in ns:
                u0 = -(-n * two52 // r)
                us = [u0 - 1, u0, u0 + 1]
                stub, ref_stub = _PlacedDraws(us), _PlacedDraws(us)
                got = [sampler.sample(r, -1, stub) for _ in us]
                assert got == [_generic_block_sample(sampler, r, -1, ref_stub) for _ in us], (r, c, n)
                assert got[0] != got[1]


def test_segments_match_the_walk_at_every_cumulative_weight_boundary(monkeypatch):
    # every run r' <= 32 and window < ceil(r'/2), for d = 1 and d = 3: U is
    # placed at each cumulative weight C of the 2r' outcomes (the least U
    # whose target in copy q = C mod d reaches C) and one either side, so
    # every segment's ends, each pair's split and the exact ties are drawn
    draws = 0
    for rb in range(1, 33):
        for window in range((rb + 1) // 2):
            monkeypatch.setattr(periodfind, "_mark_run", lambda r, step, d, j, key=(rb, window): key)
            run, n_cube = _Run(rb, window), (2 * rb) ** 3
            cums = {run.weight_before(t) for t in range(rb + 1)}
            cums |= {run.weight_before(t) + (run.w_good if run.good(t, 0) else run.w_bad) for t in range(rb)}
            for d in (1, 3):
                sampler = _BlockSampler(2 * rb * d, rb * d)
                us = []
                for c in sorted(cums):
                    u0 = -(-((c % d) * periodfind._TWO53 + -(-c * periodfind._TWO53 // n_cube)) // d)
                    us += [u for u in (u0 - 1, u0, u0 + 1) if 0 <= u < periodfind._TWO53]
                stub, ref_stub = _PlacedDraws(us), _PlacedDraws(us)
                for u in us:
                    assert sampler.sample(d, 0, stub) == _generic_block_sample(sampler, d, 0, ref_stub), (rb, window, d, u)
                draws += len(us)
    assert draws == 67_376


@pytest.mark.parametrize("rb", [(1 << 17) - 1, 1 << 17])
def test_segments_match_the_walk_at_the_widest_runs(monkeypatch, rb):
    for window in (0, 1, (rb + 1) // 2 - 1):
        monkeypatch.setattr(periodfind, "_mark_run", lambda r, step, d, j, key=(rb, window): key)
        for d in (1, 3):
            sampler = _BlockSampler(2 * rb * d, rb * d)
            rng, ref_rng = np.random.default_rng(rb + window + d), np.random.default_rng(rb + window + d)
            for _ in range(200):
                assert sampler.sample(d, 0, rng) == _generic_block_sample(sampler, d, 0, ref_rng), (window, d)


# ---------------------------------------------------------------------------
# one promise check before the run, against the earlier two-check design


def _two_check_analyze(f: PeriodicFunction) -> int:
    """``_analyze`` as it was when ``_final_check`` still evaluated f: the
    reference for the single promise check."""
    m = f.modulus
    scanned = [np.asarray(f(np.array([0]))).ravel()]
    f0 = int(scanned[0][0])
    r = m
    start, chunk = 1, 4096
    while start < m:
        if start > _MAX_PERIOD:
            raise ValueError(f"period exceeds the budget of {_MAX_PERIOD} points")
        part = np.asarray(f(np.arange(start, min(start + chunk, m), dtype=np.int64)))
        scanned.append(part)
        hits = np.nonzero(part == f0)[0]
        if hits.size:
            r = start + int(hits[0])
            break
        start += chunk
    if m % r:
        raise PromiseViolation(f"detected period {r} does not divide modulus {m}")
    vals = np.concatenate(scanned)  # f on [0, r) at least; all of [0, m) when m <= 4096
    if m <= 4096:
        periodic = np.array_equal(vals, vals[np.arange(m) % r])
    elif f.table is not None:
        periodic = bool((f.table.reshape(-1, r) == f.table[:r]).all())
    else:
        probe = np.random.default_rng(0x5EED).integers(0, m, size=64)
        periodic = np.array_equal(np.asarray(f(probe)), np.asarray(f(probe % r)))
    if not periodic:
        raise PromiseViolation("function is not periodic with the detected period")
    in_period = vals[:r]
    in_period.sort()  # vals is a fresh array; sorting in place saves a copy of r values
    if np.any(in_period[1:] == in_period[:-1]):
        raise PromiseViolation("function repeats a value inside one period")
    return r


def _two_check_final_check(f: PeriodicFunction, d: int) -> None:
    m = f.modulus
    if f.residues is not None:
        periodic = all(d % x == 0 for x in f.residues)
    else:
        if m <= 4096:
            xs = np.arange(m, dtype=np.int64)
        else:
            xs = np.random.default_rng(0xD00D).integers(0, m, size=64)
        periodic = np.array_equal(np.asarray(f(xs)), np.asarray(f((xs + d) % m)))
    if not periodic:
        raise PromiseViolation(f"returned divisor {d} is not a period of the function")


def _outcome(f, seed, engine):
    try:
        period, trace = eqpa(f, np.random.default_rng(seed), engine=engine)
    except ValueError as exc:  # PromiseViolation included
        return type(exc)
    return period, trace.records, (trace.fourier_calls, trace.sweeps)


_BREAKS = ("valid", "repeat", "non-dividing", "break", "residue probe", "shift probe", "shifted point")


def _sweep_function(rng):
    """A function from a seeded family: valid, or broken one way, as a
    table or an opaque evaluator, and the break's kind."""
    m = int(rng.choice([rng.integers(1, 81), rng.integers(81, 4097), rng.integers(4097, 20_001)]))
    divisors = [x for x in range(1, m + 1) if m % x == 0]
    r = int(rng.choice(divisors))
    values = rng.permutation(r) * int(rng.integers(1, 1 << 20)) + int(rng.integers(-(2**40), 2**40))
    table = values.astype(np.int64)[np.arange(m) % r]
    kind = _BREAKS[rng.integers(len(_BREAKS))]
    if kind == "repeat" and r >= 2:
        i, k = rng.choice(r, size=2, replace=False)
        table = table[:r].copy()
        table[i] = table[k]
        table = table[np.arange(m) % r]
    elif kind == "non-dividing" and m >= 3:
        r = int(rng.choice([x for x in range(2, m) if m % x] or [m]))
        table = rng.permutation(m)[:r][np.arange(m) % r].astype(np.int64)
    elif kind != "valid" and m > r:
        # "residue probe" and "shift probe" break a point that _analyze's
        # spot check compares against its residue or against a shift by r
        # (the points the earlier final check probed); "shifted point"
        # breaks the partner (x + r) mod m of a shift probe
        if kind == "residue probe":
            points = np.random.default_rng(0x5EED).integers(0, m, size=64)
        elif kind == "shift probe":
            points = np.random.default_rng(0xD00D).integers(0, m, size=64)
        elif kind == "shifted point":
            points = (np.random.default_rng(0xD00D).integers(0, m, size=64) + r) % m
        else:
            points = np.arange(r, m)
        points = points[points >= r]
        if points.size:
            table = table.copy()
            table[rng.choice(points)] = values[0] - 1 if rng.random() < 0.5 else values[rng.integers(r)] + 1
    if rng.random() < 0.5:
        return PeriodicFunction.from_table(table), kind
    return PeriodicFunction(modulus=m, evaluator=lambda x: table[x]), kind


def test_single_promise_check_matches_two_check_reference(monkeypatch):
    """Seeded sweep: the period, records and counters, or the exception
    class, are those of the design that re-checked f after the run."""
    rng = np.random.default_rng(2026)
    cases = [(_sweep_function(rng), seed) for seed in range(600)]
    outcomes = [
        [_outcome(f, seed, engine) for engine in ("block", "program")[: 2 if f.modulus <= 80 else 1]]
        for (f, _), seed in cases
    ]
    seen = set()
    final = []
    monkeypatch.setattr(periodfind, "_analyze", _two_check_analyze)
    monkeypatch.setattr(periodfind, "_final_check",
                        lambda f, d, r=None: final.append(d) or _two_check_final_check(f, d))
    for ((f, kind), seed), got in zip(cases, outcomes, strict=True):
        for engine, outcome in zip(("block", "program"), got):
            final.clear()
            assert outcome == _outcome(f, seed, engine), (kind, f.modulus, seed, engine)
            seen.add((kind, "m > 4096" if f.modulus > 4096 else "m <= 4096", "opaque" if f.table is None else "table"))
            seen.add(engine)
            if final and outcome is PromiseViolation:
                seen.add("seen by the shift probes only")
    assert {"block", "program", "seen by the shift probes only"} <= seen
    for kind in _BREAKS:
        for size in ("m > 4096", "m <= 4096"):
            assert {(kind, size, "opaque"), (kind, size, "table")} <= seen, (kind, size)


def test_block_engine_evaluates_an_undeclared_function_only_in_analyze(monkeypatch):
    points = {"analyze": 0, "elsewhere": 0}
    inside = []

    def evaluate(x):
        points["analyze" if inside else "elsewhere"] += np.size(x)
        return x % 12

    def analyze(g):
        inside.append(g)
        try:
            return _analyze(g)
        finally:
            inside.pop()

    monkeypatch.setattr(periodfind, "_analyze", analyze)
    for m in (48, 12 << 10):  # every point checked, and spot points only
        assert eqpa(PeriodicFunction(modulus=m, evaluator=evaluate), np.random.default_rng(m))[0] == 12
    assert points["elsewhere"] == 0 and points["analyze"] > 0


def test_final_check_rejects_a_divisor_the_verified_period_does_not_divide():
    f = PeriodicFunction(modulus=72, evaluator=_never_evaluated)
    for d in (12, 36, 72):
        _final_check(f, d, 12)
    for d in (4, 6, 9, 18):
        with pytest.raises(PromiseViolation, match=f"returned divisor {d} "):
            _final_check(f, d, 12)


# ---------------------------------------------------------------------------
# the promise check: chunked scan, residue table and its sort fallback


def _counting(values, table=False):
    """A function with the given values on Z_m, and the list of the point
    counts of its evaluator calls."""
    values = np.asarray(values, dtype=np.int64)
    sizes = []

    def evaluate(x):
        sizes.append(np.size(x))
        return values[x]

    return PeriodicFunction(modulus=len(values), evaluator=evaluate, table=values if table else None), sizes


@pytest.mark.parametrize("table", [False, True], ids=["opaque", "table"])
@pytest.mark.parametrize("r", [4095, 4096, 4097, 8192])
def test_periods_at_the_chunk_seams_are_found_exactly(r, table):
    rng = np.random.default_rng(r)
    for c in (1, 2, 3):
        for values in (np.arange(r), rng.permutation(r) * 7919 - (1 << 40)):
            f, _ = _counting(values[np.arange(c * r) % r], table)
            assert _analyze(f) == _two_check_analyze(f) == r


@pytest.mark.parametrize("table", [False, True], ids=["opaque", "table"])
@pytest.mark.parametrize("r", [4095, 4096, 4097, 8192])
def test_repeat_check_covers_exactly_one_period_at_the_chunk_seams(r, table):
    # f(r-1) repeats f(1): a scan trimmed one value short of [0, r) misses it
    values = np.arange(r)
    values[r - 1] = values[1]
    for c in (1, 2, 3):
        f, _ = _counting(values[np.arange(c * r) % r], table)
        with pytest.raises(PromiseViolation, match="repeats a value"):
            _analyze(f)


def test_scan_evaluates_at_most_r_plus_one_chunk():
    for r, c in [(1, 1), (1, 4096), (5, 800), (4095, 1), (4096, 1), (4096, 2), (4097, 2), (8191, 3), (12288, 2)]:
        values = (np.arange(r) * 3 + 1)[np.arange(c * r) % r]
        for table in (True, False):
            f, sizes = _counting(values, table)
            assert _analyze(f) == r
            if c * r <= 4096:  # the first chunk holds all of f: every point checked in one call
                assert sizes == [c * r], (r, c, table)
            elif not table:  # the scan, then 128 spot points in two calls
                assert sizes[-2:] == [128, 128], (r, c)
                sizes = sizes[:-2]
            assert sum(sizes) <= r + 4096, (r, c, table)


@pytest.mark.parametrize("table", [False, True], ids=["opaque", "table"])
@pytest.mark.parametrize("r", [2, 5, 4097, 5000])
def test_values_that_share_a_residue_take_the_exact_sort(r, table):
    # distinct multiples of the table size 2^ceil(log2 2r) all mark residue 0
    size = 1 << (2 * r - 1).bit_length()
    values = np.arange(r, dtype=np.int64) * size - (size << 20)
    f, _ = _counting(values[np.arange(2 * r) % r], table)
    assert _analyze(f) == r
    if r > 2:  # a real repeat among them, across chunks when r > 4096
        values[r - 1] = values[1]
        f, _ = _counting(values[np.arange(2 * r) % r], table)
        with pytest.raises(PromiseViolation, match="repeats a value"):
            _analyze(f)


@pytest.mark.parametrize("table", [False, True], ids=["opaque", "table"])
def test_scan_budget_bounds_the_period_exactly(monkeypatch, table):
    monkeypatch.setattr(periodfind, "_MAX_PERIOD", 3 * 4096)
    f, _ = _counting(np.arange(2 * 12288) % 12288, table)
    assert _analyze(f) == 12288
    f, _ = _counting(np.arange(2 * 12289) % 12289, table)
    with pytest.raises(ValueError, match="budget") as info:
        _analyze(f)
    assert not isinstance(info.value, PromiseViolation)


@pytest.mark.parametrize("table", [False, True], ids=["opaque", "table"])
def test_period_equal_to_the_modulus_is_held_to_the_budget(monkeypatch, table):
    # a scan that reaches m without a repeat takes r = m, which must still fit the budget
    monkeypatch.setattr(periodfind, "_MAX_PERIOD", 3 * 4096)

    def injective(m):
        return PeriodicFunction.from_table(np.arange(m)) if table else PeriodicFunction.modular(m, m)

    assert _analyze(injective(12288)) == 12288
    with pytest.raises(ValueError, match="budget") as info:
        _analyze(injective(12289))
    assert not isinstance(info.value, PromiseViolation)


@pytest.mark.parametrize("call, message", [
    (lambda: PeriodicFunction(modulus=0, evaluator=lambda x: x), "modulus must be positive"),
    (lambda: PeriodicFunction.modular(0, 4), "period must be positive"),
    (lambda: eqpa(PeriodicFunction.modular(2, 4), np.random.default_rng(0), engine="nope"), "unknown engine 'nope'"),
], ids=["modulus-0", "period-0", "unknown-engine"])
def test_invalid_function_or_engine_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
