"""Unit tests for the sparse qudit state and its primitive operations."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperiod import qstate
from qperiod.qstate import (
    ClassicalOracle,
    GoodPredicate,
    QStateError,
    RegisterLayout,
    SparseState,
    apply_oracle,
    basis_state,
    controlled_subtract,
    dft,
    good_mass,
    joint_marginal,
    measure,
    measure_joint,
    phase_flip,
    uniform_prep,
    zero_state,
)
from qperiod.qstate import (
    _DFT_CHUNK_CELLS,
    _MAX_DFT_DIM,
    _MAX_DFT_OUTPUT,
    _TWO_PI,
    PRUNE_EPS,
    _radix,
    _walk,
)


def dense_vector(state, dims):
    """Flatten a sparse state into a dense vector (test oracle, small dims)."""
    total = math.prod(dims)
    vec = np.zeros(total, dtype=np.complex128)
    for values, amp in state.entries():
        idx = 0
        for v, d in zip(values, dims):
            idx = idx * d + v
        vec[idx] += amp
    return vec


def dft_matrix(d, inverse=False):
    """Dense DFT oracle: out_c = d^{-1/2} sum_j w^{jc} amp_j."""
    sign = -1 if inverse else 1
    j, c = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(sign * 2j * np.pi * j * c / d) / math.sqrt(d)


class TestLayoutAndBasis:
    def test_basis_state_single(self):
        s = basis_state(RegisterLayout.of(("h", 4)), (0,))
        assert s.to_dict() == {(0,): 1 + 0j}

    def test_basis_state_two_registers(self):
        s = basis_state(RegisterLayout.of(("h", 4), ("t", 4)), (2, 3))
        assert s.to_dict() == {(2, 3): 1 + 0j}

    def test_basis_state_out_of_range(self):
        with pytest.raises(QStateError):
            basis_state(RegisterLayout.of(("h", 4)), (5,))

    def test_duplicate_register_names_rejected(self):
        with pytest.raises(QStateError):
            RegisterLayout.of(("h", 2), ("h", 3))

    def test_names_and_dims_follow_registers(self):
        lay = RegisterLayout.of(("h", 4), ("e", 2), ("b", 1))
        assert lay.names == tuple(name for name, _ in lay.registers) == ("h", "e", "b")
        assert lay.dims == tuple(dim for _, dim in lay.registers) == (4, 2, 1)
        assert [lay.index(name) for name in lay.names] == [0, 1, 2]

    def test_unknown_register_raises_once_lookups_are_cached(self):
        lay = RegisterLayout.of(("h", 4), ("e", 2))
        s = basis_state(lay, (1, 0))
        assert lay.index("e") == 1
        calls = [
            lambda: lay.index("x"),
            lambda: s._col("x"),
            lambda: dft(s, "x"),
            lambda: apply_oracle(s, ClassicalOracle(("h",), "x", lambda h: h)),
            lambda: apply_oracle(s, ClassicalOracle(("x",), "e", lambda x: x)),
        ]
        for call in calls:
            with pytest.raises(QStateError, match="no register named 'x'"):
                call()

    def test_equal_layouts_stay_equal_once_one_has_cached(self):
        a, b = RegisterLayout.of(("h", 4), ("e", 2)), RegisterLayout.of(("h", 4), ("e", 2))
        assert (a.names, a.dims, a.index("e")) == (("h", "e"), (4, 2), 1)
        assert a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert a != RegisterLayout.of(("h", 4), ("e", 3))


class TestUniformPrep:
    def test_dim_four(self):
        s = uniform_prep(zero_state(RegisterLayout.of(("h", 4))), "h")
        assert s.num_entries == 4
        for v in range(4):
            assert s.amplitude((v,)) == pytest.approx(0.5)

    def test_dim_one_is_identity(self):
        s = uniform_prep(zero_state(RegisterLayout.of(("h", 1))), "h")
        assert s.to_dict() == {(0,): 1 + 0j}

    def test_two_registers_normalised(self):
        lay = RegisterLayout.of(("h", 12), ("t", 12))
        s = uniform_prep(zero_state(lay), "h")
        assert s.num_entries == 12
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-9)

    def test_requires_zero_register(self):
        s = basis_state(RegisterLayout.of(("h", 4)), (1,))
        with pytest.raises(QStateError):
            uniform_prep(s, "h")


class TestOracle:
    def test_mod_three(self):
        lay = RegisterLayout.of(("t", 8), ("e", 4))
        s = basis_state(lay, (5, 0))
        oracle = ClassicalOracle(("t",), "e", lambda x: x % 3)
        assert apply_oracle(s, oracle).to_dict() == {(5, 2): 1 + 0j}

    def test_double_application_restores_bit_register(self):
        lay = RegisterLayout.of(("x", 4), ("b", 2))
        s = uniform_prep(zero_state(lay), "x")
        oracle = ClassicalOracle(("x",), "b", lambda x: x % 2)
        assert apply_oracle(apply_oracle(s, oracle), oracle).allclose(s)

    def test_superposition_entry_count_preserved(self):
        lay = RegisterLayout.of(("x", 12), ("e", 12))
        s = uniform_prep(zero_state(lay), "x")
        out = apply_oracle(s, ClassicalOracle(("x",), "e", lambda x: x % 5))
        assert out.num_entries == 12
        assert all(out.amplitude((j, j % 5)) == pytest.approx(1 / math.sqrt(12)) for j in range(12))

    def test_inverse_undoes_forward(self):
        lay = RegisterLayout.of(("x", 6), ("e", 6))
        s = uniform_prep(zero_state(lay), "x")
        oracle = ClassicalOracle(("x",), "e", lambda x: (x * x) % 6)
        assert apply_oracle(apply_oracle(s, oracle), oracle, inverse=True).allclose(s)

    def test_constant_oracle_adds_to_every_entry(self):
        lay = RegisterLayout.of(("x", 4), ("e", 3))
        s = uniform_prep(zero_state(lay), "x")
        oracle = ClassicalOracle(("x",), "e", lambda x: 1)
        out = apply_oracle(s, oracle)
        assert out.num_entries == 4
        assert all(out.amplitude((j, 1)) == pytest.approx(0.5) for j in range(4))
        assert apply_oracle(out, oracle, inverse=True).allclose(s)


class TestControlledSubtract:
    def test_equal_values_give_zero(self):
        lay = RegisterLayout.of(("h", 12), ("t", 12))
        assert controlled_subtract(basis_state(lay, (3, 3)), "h", "t").to_dict() == {(3, 0): 1 + 0j}

    def test_plain_difference(self):
        lay = RegisterLayout.of(("h", 12), ("t", 12))
        assert controlled_subtract(basis_state(lay, (3, 5)), "h", "t").to_dict() == {(3, 2): 1 + 0j}

    def test_subtract_then_add_restores(self):
        lay = RegisterLayout.of(("h", 7), ("t", 7))
        s = uniform_prep(zero_state(lay), "h")
        s = controlled_subtract(s, "h", "t", inverse=True)  # copy
        back = controlled_subtract(controlled_subtract(s, "h", "t"), "h", "t", inverse=True)
        assert back.allclose(s)

    def test_dimension_mismatch(self):
        lay = RegisterLayout.of(("h", 4), ("t", 5))
        with pytest.raises(QStateError):
            controlled_subtract(basis_state(lay, (0, 0)), "h", "t")


class TestPhaseFlip:
    def test_zero_tuple_gets_phase(self):
        lay = RegisterLayout.of(("h", 3))
        pred = GoodPredicate(("h",), lambda h: h == 0)
        s = phase_flip(basis_state(lay, (0,)), pred, 1j)
        assert s.amplitude((0,)) == pytest.approx(1j)

    def test_false_predicate_is_identity(self):
        lay = RegisterLayout.of(("h", 4))
        s = uniform_prep(zero_state(lay), "h")
        out = phase_flip(s, GoodPredicate(("h",), lambda h: h > 99), -1)
        assert out.allclose(s)

    def test_minus_one_twice_is_identity(self):
        lay = RegisterLayout.of(("h", 4))
        s = uniform_prep(zero_state(lay), "h")
        pred = GoodPredicate(("h",), lambda h: h % 2 == 0)
        assert phase_flip(phase_flip(s, pred, -1), pred, -1).allclose(s)

    def test_non_unit_phase_rejected(self):
        s = zero_state(RegisterLayout.of(("h", 2)))
        with pytest.raises(QStateError):
            phase_flip(s, GoodPredicate(("h",), lambda h: h == 0), 0.5)


class TestDft:
    def test_dim_two_zero_to_plus(self):
        s = dft(basis_state(RegisterLayout.of(("h", 2)), (0,)), "h")
        assert s.amplitude((0,)) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude((1,)) == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("m", [2, 3, 8, 12, 30])
    def test_uniform_maps_to_zero(self, m):
        s = uniform_prep(zero_state(RegisterLayout.of(("h", m))), "h")
        out = dft(s, "h")
        assert out.to_dict() == {(0,): pytest.approx(1 + 0j)}

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 17, 24, 64])
    def test_matches_dense_matrix_oracle(self, d):
        rng = np.random.default_rng(d)
        lay = RegisterLayout.of(("h", d))
        support = rng.choice(d, size=min(d, 5), replace=False)
        amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        amps /= np.linalg.norm(amps)
        state = SparseState(lay, support.reshape(-1, 1), amps)
        got = dense_vector(dft(state, "h"), (d,))
        want = dft_matrix(d).T @ dense_vector(state, (d,))
        np.testing.assert_allclose(got, want, atol=1e-9)
        got_inv = dense_vector(dft(state, "h", inverse=True), (d,))
        want_inv = dft_matrix(d, inverse=True).T @ dense_vector(state, (d,))
        np.testing.assert_allclose(got_inv, want_inv, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 7, 12, 64])
    def test_roundtrip_on_random_sparse_state(self, d):
        rng = np.random.default_rng(100 + d)
        lay = RegisterLayout.of(("h", d), ("e", 3))
        rows = np.column_stack([rng.integers(0, d, 6), rng.integers(0, 3, 6)])
        rows = np.unique(rows, axis=0)
        amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        amps /= np.linalg.norm(amps)
        state = SparseState(lay, rows, amps)
        back = dft(dft(state, "h"), "h", inverse=True)
        assert back.allclose(state, atol=1e-9)

    def test_grouping_respects_other_registers(self):
        # |0>|0> + |1>|1| on (h, e): each e-group transforms independently
        lay = RegisterLayout.of(("h", 2), ("e", 2))
        vals = np.array([[0, 0], [1, 1]])
        amps = np.array([1, 1]) / math.sqrt(2)
        state = SparseState(lay, vals, amps)
        out = dft(state, "h")
        assert out.amplitude((0, 0)) == pytest.approx(0.5)
        assert out.amplitude((1, 1)) == pytest.approx(-0.5)


class TestMeasure:
    def test_uniform_marginals_match_good_mass(self):
        lay = RegisterLayout.of(("h", 4))
        s = uniform_prep(zero_state(lay), "h")
        for v in range(4):
            pred = GoodPredicate(("h",), lambda h, v=v: h == v)
            assert good_mass(s, pred) == pytest.approx(0.25, abs=1e-9)

    def test_basis_state_is_certain(self):
        lay = RegisterLayout.of(("h", 5))
        outcome, post = measure(basis_state(lay, (3,)), "h", np.random.default_rng(0))
        assert outcome == 3
        assert post.to_dict() == {(3,): 1 + 0j}

    def test_same_seed_same_sequence(self):
        lay = RegisterLayout.of(("h", 8))
        s = uniform_prep(zero_state(lay), "h")

        def sequence(seed):
            rng = np.random.default_rng(seed)
            return [measure(s, "h", rng)[0] for _ in range(20)]

        assert sequence(42) == sequence(42)
        assert sequence(42) != sequence(43)  # astronomically unlikely to collide

    def test_collapse_renormalises(self):
        lay = RegisterLayout.of(("h", 4), ("e", 2))
        s = uniform_prep(zero_state(lay), "h")
        s = apply_oracle(s, ClassicalOracle(("h",), "e", lambda h: h % 2))
        _, post = measure(s, "e", np.random.default_rng(1))
        assert post.norm_sq() == pytest.approx(1.0, abs=1e-9)
        assert post.num_entries == 2

    def test_joint_measure_consumes_one_draw(self):
        lay = RegisterLayout.of(("h", 4), ("e", 2))
        s = apply_oracle(uniform_prep(zero_state(lay), "h"),
                         ClassicalOracle(("h",), "e", lambda h: h % 2))
        rng = np.random.default_rng(5)
        baseline = np.random.default_rng(5)
        measure_joint(s, ("h", "e"), rng)
        baseline.random()
        assert rng.random() == baseline.random()

    def test_joint_outcome_consistent_with_state(self):
        lay = RegisterLayout.of(("h", 6), ("e", 6))
        s = apply_oracle(uniform_prep(zero_state(lay), "h"),
                         ClassicalOracle(("h",), "e", lambda h: h % 3))
        (h, e), _ = measure_joint(s, ("h", "e"), np.random.default_rng(9))
        assert e == h % 3


class TestGoodMass:
    def test_always_true_gives_one(self):
        lay = RegisterLayout.of(("h", 6))
        s = uniform_prep(zero_state(lay), "h")
        assert good_mass(s, GoodPredicate(("h",), lambda h: h >= 0)) == pytest.approx(1.0)

    def test_always_false_gives_zero(self):
        lay = RegisterLayout.of(("h", 6))
        s = uniform_prep(zero_state(lay), "h")
        assert good_mass(s, GoodPredicate(("h",), lambda h: h < 0)) == 0.0

    def test_half_of_uniform(self):
        lay = RegisterLayout.of(("h", 4))
        s = uniform_prep(zero_state(lay), "h")
        assert good_mass(s, GoodPredicate(("h",), lambda h: h <= 1)) == pytest.approx(0.5)

    def test_constant_predicate_broadcasts(self):
        s = uniform_prep(zero_state(RegisterLayout.of(("h", 4))), "h")
        always = GoodPredicate(("h",), lambda h: True)
        assert good_mass(s, always) == 1.0
        np.testing.assert_array_equal(phase_flip(s, always, 1j)._amps, s._amps * 1j)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 48), seed=st.integers(0, 10_000))
def test_unitarity_of_random_operation_chain(d, seed):
    """Norm stays 1 within 1e-9 under prep/oracle/dft/subtract/phase chains."""
    lay = RegisterLayout.of(("a", d), ("b", d))
    s = uniform_prep(zero_state(lay), "a")
    s = apply_oracle(s, ClassicalOracle(("a",), "b", lambda x: (x * 7 + 3) % d))
    if seed % 2:
        s = controlled_subtract(s, "a", "b")
    s = dft(s, "a")
    s = phase_flip(s, GoodPredicate(("a",), lambda a: (a % 3) == 0), -1)
    s = dft(s, "b", inverse=True)
    assert abs(s.norm_sq() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 32), shift=st.integers(1, 31))
def test_permutation_ops_preserve_magnitude_multiset(d, shift):
    lay = RegisterLayout.of(("x", d), ("y", d))
    s = uniform_prep(zero_state(lay), "x")
    s = phase_flip(s, GoodPredicate(("x",), lambda x: x % 2 == 0), 1j)
    before = sorted(np.round(np.abs(s.probabilities()), 12))
    s = apply_oracle(s, ClassicalOracle(("x",), "y", lambda x: (x * shift) % d))
    s = controlled_subtract(s, "x", "y")
    after = sorted(np.round(np.abs(s.probabilities()), 12))
    assert before == after


def test_measure_marginal_equals_single_outcome_good_mass():
    lay = RegisterLayout.of(("h", 12), ("e", 12))
    s = apply_oracle(uniform_prep(zero_state(lay), "h"),
                     ClassicalOracle(("h",), "e", lambda h: h % 4))
    s = dft(s, "h")
    entries = list(s.entries())
    for v in sorted({values[0] for values, _ in entries}):
        pred = GoodPredicate(("h",), lambda h, v=v: h == v)
        direct = sum(abs(amp) ** 2 for values, amp in entries if values[0] == v)
        assert good_mass(s, pred) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched dft and the sort-based grouping against their loop forms


def reference_dft(state, reg, inverse=False):
    """The per-group loop dft ran before it was batched, kept as the reference."""
    col = state._col(reg)
    d = state.layout.dims[col]
    if d == 1:
        return state._replace(state._vals.copy(), state._amps.copy())
    if d > _MAX_DFT_DIM:
        raise QStateError(f"register dimension {d} too large for exact DFT")

    others = np.delete(state._vals, col, axis=1)
    if others.shape[1] == 0 or state.num_entries == 1:
        group_rows = [np.arange(state.num_entries)]
        group_keys = [others[:1]]
    else:
        uniq, inv = np.unique(others, axis=0, return_inverse=True)
        inv = np.asarray(inv).reshape(-1)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
        group_rows = [order[bounds[i] : bounds[i + 1]] for i in range(len(uniq))]
        group_keys = [uniq[i : i + 1] for i in range(len(uniq))]

    inv_sqrt_d = 1.0 / math.sqrt(d)
    out_vals: list[np.ndarray] = []
    out_amps: list[np.ndarray] = []
    total_out = 0
    for rows, key in zip(group_rows, group_keys):
        j = state._vals[rows, col]
        amp = state._amps[rows]
        a0 = int(j.min())
        diffs = j - a0
        step = int(np.gcd.reduce(diffs)) if len(j) > 1 else 0
        p = math.gcd(step, d)  # gcd(0, d) == d covers the single-entry group
        length = d // p
        vec = np.zeros(length, dtype=np.complex128)
        vec[diffs // p] = amp
        spectrum = np.fft.fft(vec) if inverse else length * np.fft.ifft(vec)
        bins = np.nonzero(np.abs(spectrum) > PRUNE_EPS * math.sqrt(d))[0]
        if bins.size == 0:
            continue
        total_out += bins.size * p
        if total_out > _MAX_DFT_OUTPUT:
            raise QStateError("DFT output exceeds sparse capacity")
        cs = (bins[:, None] + length * np.arange(p, dtype=np.int64)[None, :]).ravel()
        expo = (cs * a0) % d
        if inverse:
            expo = (d - expo) % d
        twiddle = np.exp((_TWO_PI / d) * 1j * expo)
        amps_out = np.repeat(spectrum[bins], p) * twiddle * inv_sqrt_d
        vals_out = np.empty((cs.size, state._vals.shape[1]), dtype=np.int64)
        vals_out[:, :col] = key[0, :col]
        vals_out[:, col] = cs
        vals_out[:, col + 1 :] = key[0, col:]
        out_vals.append(vals_out)
        out_amps.append(amps_out)

    if not out_vals:
        return state._replace(
            np.empty((0, state._vals.shape[1]), dtype=np.int64),
            np.empty(0, dtype=np.complex128),
        )
    return state._replace(np.concatenate(out_vals), np.concatenate(out_amps))


def reference_measure_joint(state, regs, rng):
    """measure_joint as it grouped rows with np.unique, kept as the reference."""
    cols = [state._col(r) for r in regs]
    sub = state._vals[:, cols]
    uniq, inv = np.unique(sub, axis=0, return_inverse=True)
    inv = np.asarray(inv).reshape(-1)
    probs = state.probabilities()
    mass = np.zeros(len(uniq))
    np.add.at(mass, inv, probs)
    pick = _walk(np.cumsum(mass), rng)
    outcome = tuple(int(v) for v in uniq[pick])
    keep = inv == pick
    amps = state._amps[keep] / math.sqrt(float(mass[pick]))
    return outcome, state._replace(state._vals[keep], amps)


def random_sparse_state(dims, n, seed, stride=1):
    """Up to n distinct random basis rows in random order, with random amplitudes.

    All rows are taken when n reaches the joint dimension.  The first
    register's values are rounded down to multiples of ``stride``, so its
    groups lie on coarser progressions.
    """
    rng = np.random.default_rng(seed)
    total = math.prod(dims)
    flat = rng.choice(total, size=min(n, total), replace=False)
    rows = np.column_stack(np.unravel_index(flat, dims)).astype(np.int64)
    rows[:, 0] -= rows[:, 0] % stride
    rows = np.unique(rows, axis=0)
    rows = rows[rng.permutation(len(rows))]
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    lay = RegisterLayout.of(*((f"r{i}", d) for i, d in enumerate(dims)))
    return SparseState(lay, rows, amps / np.linalg.norm(amps))


def assert_same_state(got, want):
    assert got.layout == want.layout
    np.testing.assert_array_equal(got._vals, want._vals)
    assert got._amps.view(float).tobytes() == want._amps.view(float).tobytes()


def group_lengths(state, col):
    """(entries, transform length) of every group dft forms on one column."""
    d = state.layout.dims[col]
    others = np.delete(state._vals, col, axis=1)
    inv = np.unique(others, axis=0, return_inverse=True)[1].reshape(-1)
    out = []
    for g in range(inv.max() + 1):
        j = state._vals[inv == g, col]
        out.append((len(j), d // math.gcd(int(np.gcd.reduce(j - j.min())), d)))
    return out


@st.composite
def _dft_cases(draw):
    dims = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
    n = draw(st.integers(1, 3000))
    stride = draw(st.integers(1, dims[0]))
    col = draw(st.integers(0, len(dims) - 1))
    return dims, n, draw(st.integers(0, 2**32 - 1)), stride, col, draw(st.booleans())


def test_dft_matches_per_group_loop():
    seen = []

    @settings(max_examples=150, deadline=None)
    @given(case=_dft_cases())
    @example(case=([64, 64, 2], 8192, 1, 1, 0, False))  # 128 groups of length 64
    @example(case=([12, 64], 200, 2, 2, 0, True))  # lengths 1, 2, 3 and 6 in one call
    def check(case):
        dims, n, seed, stride, col, inverse = case
        state = random_sparse_state(dims, n, seed, stride)
        reg = f"r{col}"
        assert_same_state(dft(state, reg, inverse), reference_dft(state, reg, inverse))
        if dims[col] > 1:
            seen.append(group_lengths(state, col))

    check()
    assert any(size == 1 for groups in seen for size, _ in groups)
    assert any(len({L for _, L in groups}) >= 3 for groups in seen)
    bucket_cells = [L * k for groups in seen for L, k in Counter(L for _, L in groups).items()]
    assert max(bucket_cells) > _DFT_CHUNK_CELLS  # some bucket spans two chunks


def staggered_state(d, lengths, seed):
    """A state on (e, h, f) whose g-th group, (e, f) = divmod(g, 3), has
    transform length ``lengths[g]`` on h: offsets 0, 1 and a random subset
    of 2..L-1 of a progression with step d/L."""
    rng = np.random.default_rng(seed)
    rows = []
    for g, L in enumerate(lengths):
        p = d // L
        steps = [0] if L == 1 else [0, 1, *rng.choice(np.arange(2, L), rng.integers(0, L - 1), replace=False)]
        a = int(rng.integers(p))
        rows += [(g // 3, a + p * int(s), g % 3) for s in steps]
    rows = np.array(rows)[rng.permutation(len(rows))]
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    lay = RegisterLayout.of(("e", len(lengths) // 3 + 1), ("h", d), ("f", 3))
    return SparseState(lay, rows, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("seed", [0, 1])
def test_dft_chunk_seams_at_a_small_chunk(monkeypatch, seed):
    monkeypatch.setattr(qstate, "_DFT_CHUNK_CELLS", 8)
    lengths = np.random.default_rng(seed).permutation([1, 2, 3, 4, 8, 24] * 10)
    state = staggered_state(24, lengths, seed)
    counts = Counter(L for _, L in group_lengths(state, 1))
    assert counts == Counter(lengths.tolist())
    # every length spreads over more than one chunk of 8 cells
    assert all(k > max(1, 8 // L) for L, k in counts.items())
    for inverse in (False, True):
        assert_same_state(dft(state, "h", inverse), reference_dft(state, "h", inverse))


def test_dft_peak_memory_is_about_its_output():
    # 48 groups of 1024 entries with step 16 in a 2^14 register: every group
    # keeps its 1024 bins and each bin spreads over 16 outputs
    d, groups, L = 1 << 14, 48, 1024
    e, s = np.divmod(np.arange(groups * L), L)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=len(e)) + 1j * rng.normal(size=len(e))
    state = SparseState(RegisterLayout.of(("h", d), ("e", groups)), np.column_stack([e % 16 + 16 * s, e]), amps)
    tracemalloc.start()
    try:
        out = dft(state, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_entries == groups * d
    assert peak < 1.5 * (out._vals.nbytes + out._amps.nbytes)


def test_dft_of_empty_state_is_empty():
    for dims in [(5,), (5, 3)]:
        lay = RegisterLayout.of(*((f"r{i}", d) for i, d in enumerate(dims)))
        empty = SparseState(lay, np.empty((0, len(dims)), dtype=np.int64), np.empty(0))
        for inverse in (False, True):
            out = dft(empty, "r0", inverse)
            assert out.layout == lay and out.num_entries == 0


def test_dft_rejects_register_above_exact_limit():
    state = basis_state(RegisterLayout.of(("h", _MAX_DFT_DIM + 1)), (0,))
    with pytest.raises(QStateError, match="too large for exact DFT"):
        dft(state, "h")


def test_dft_output_cap_raises_before_allocating():
    # one entry in a 2^23 register spreads over 2^23 > _MAX_DFT_OUTPUT outputs,
    # 192 MiB of rows and amplitudes had they been allocated
    d = 1 << 23
    assert d > _MAX_DFT_OUTPUT
    state = basis_state(RegisterLayout.of(("h", d), ("e", 3)), (5, 1))
    tracemalloc.start()
    try:
        with pytest.raises(QStateError, match="exceeds sparse capacity"):
            dft(state, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("entries, d", [(1, _MAX_DFT_OUTPUT + 1), (2, _MAX_DFT_OUTPUT // 2 + 1)])
def test_uniform_prep_cap_raises_before_allocating(entries, d):
    # entries * d is just past the cap
    lay = RegisterLayout.of(("e", 2), ("h", d))
    state = SparseState(lay, np.array([[i, 0] for i in range(entries)]), np.full(entries, math.sqrt(1 / entries)))
    tracemalloc.start()
    try:
        with pytest.raises(QStateError, match="exceeds sparse capacity"):
            uniform_prep(state, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dft_buffer_cap_raises_before_allocating():
    # entries {0, 1} in a 2^30 register form one group of length 2^30, whose
    # FFT buffer alone would take 16 GiB
    d = 1 << 30
    state = SparseState(RegisterLayout.of(("h", d)), np.array([[0], [1]]), np.full(2, math.sqrt(0.5)))
    tracemalloc.start()
    try:
        with pytest.raises(QStateError, match="exceeds sparse capacity"):
            dft(state, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def _measure_cases(draw):
    dims = draw(st.lists(st.sampled_from([1, 2, 3, 7, 64, 1 << 40]), min_size=1, max_size=4))
    k = len(dims)
    regs = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    return dims, draw(st.integers(1, 400)), regs, draw(st.integers(0, 2**32 - 1))


def test_measure_joint_matches_unique_grouping():
    @settings(max_examples=150, deadline=None)
    @given(case=_measure_cases())
    @example(case=([1 << 40, 4], 300, [0, 1], 3))
    def check(case):
        dims, n, regs, seed = case
        # a 2^40 register holds five values spread over its whole range
        base = random_sparse_state([5 if d == 1 << 40 else d for d in dims], n, seed)
        big = np.array([d == 1 << 40 for d in dims])
        vals = np.where(big, base._vals * ((1 << 40) // 5) + 3, base._vals)
        lay = RegisterLayout.of(*((f"r{i}", d) for i, d in enumerate(dims)))
        state = SparseState(lay, vals, base._amps)
        names = [f"r{i}" for i in regs]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome, post = measure_joint(state, names, rng)
        want_outcome, want_post = reference_measure_joint(state, names, ref_rng)
        assert outcome == want_outcome
        assert_same_state(post, want_post)
        assert rng.random() == ref_rng.random()

    check()


def test_measure_joint_of_empty_state_raises():
    lay = RegisterLayout.of(("h", 4), ("e", 2))
    empty = SparseState(lay, np.empty((0, 2), dtype=np.int64), np.empty(0))
    with pytest.raises(QStateError, match="no entries"):
        measure_joint(empty, ("h",), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the int64-keyed grouping against the lexsort grouping it replaced


def lexsort_group_rows(keys):
    """_group_rows as it was before rows were grouped by one int64 key."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(keys.shape[0])
    srt = keys[order]
    new = (srt[1:] != srt[:-1]).any(axis=1)
    bounds = np.concatenate(([True], new, [True])).nonzero()[0]
    return order, bounds[:-1], bounds[1:] - bounds[:-1]


def lexsort_dft(state, reg, inverse=False):
    """dft as it was before rows were grouped by one int64 key, kept as the reference."""
    col = state._col(reg)
    d = state.layout.dims[col]
    if d > _MAX_DFT_DIM:
        raise QStateError(f"register dimension {d} too large for exact DFT")
    if d == 1 or state.num_entries == 0:
        return state

    others = [i for i in range(state._vals.shape[1]) if i != col]
    order, starts, sizes = lexsort_group_rows(state._vals[:, others])
    gid = np.arange(len(starts)).repeat(sizes)  # group of each sorted entry
    j = state._vals[order, col]
    amp = state._amps[order]
    a0 = np.minimum.reduceat(j, starts)
    diffs = j - a0[gid]
    p = np.gcd(np.gcd.reduceat(diffs, starts), d)  # gcd(0, d) == d for single entries
    length = d // p
    pos = diffs // p[gid]
    lens = sorted(set(length.tolist()))
    # a chunk buffer holds max(_DFT_CHUNK_CELLS, L) cells at most: check L first
    if lens[-1] > _MAX_DFT_OUTPUT:
        raise QStateError("DFT buffer exceeds sparse capacity")
    cut = PRUNE_EPS * math.sqrt(d)
    inv_sqrt_d = 1.0 / math.sqrt(d)
    a0 = -a0 if inverse else a0  # the inverse twiddle conjugates: exponent -c*a mod d
    total, kept = 0, []
    for L in lens:
        of_len = length == L
        groups = of_len.nonzero()[0]
        rows = of_len[gid].nonzero()[0]  # their entries, in group order
        slot = (of_len.cumsum() - 1)[gid[rows]]  # matrix row of each entry
        per = max(1, _DFT_CHUNK_CELLS // L)
        for q in range(0, len(groups), per):
            lo, hi = slot.searchsorted((q, q + per)).tolist()
            mat = np.zeros((min(per, len(groups) - q), L), dtype=np.complex128)
            mat[slot[lo:hi] - q, pos[rows[lo:hi]]] = amp[rows[lo:hi]]
            spectrum = np.fft.fft(mat) if inverse else L * np.fft.ifft(mat)
            r_idx, bins = (np.abs(spectrum) > cut).nonzero()
            total += len(bins) * (d // L)
            if total > _MAX_DFT_OUTPUT:
                raise QStateError("DFT output exceeds sparse capacity")
            kept.append((L, groups[q + r_idx], bins, spectrum[r_idx, bins]))
    vals, amps = np.empty((total, len(others) + 1), np.int64), np.empty(total, np.complex128)
    first, end = state._vals[order[starts]], 0
    for L, g, bins, spec in kept:
        cs = bins[:, None] + np.arange(0, d, L)
        twiddle = np.exp((_TWO_PI / d) * 1j * ((cs * a0[g][:, None]) % d))
        at, end = end, end + cs.size
        amps[at:end] = (spec[:, None] * twiddle * inv_sqrt_d).ravel()
        vals[at:end] = first[g].repeat(d // L, axis=0)
        vals[at:end, col] = cs.ravel()
    if len(lens) > 1:
        back = np.concatenate([g.repeat(d // L) for L, g, _, _ in kept]).argsort(kind="stable")
        vals, amps = vals[back], amps[back]
    return state._replace(vals, amps)


def lexsort_joint_marginal(state, regs):
    """joint_marginal as it was before rows were grouped by one int64 key."""
    sub = state._vals[:, [state._col(r) for r in regs]]
    order, starts, sizes = lexsort_group_rows(sub)
    group = np.empty(state.num_entries, dtype=np.int64)
    group[order] = np.repeat(np.arange(len(starts)), sizes)
    return sub[order[starts]], group, np.bincount(group, weights=state.probabilities(), minlength=len(starts))


def spread_state(dims, n, seed, stride=1):
    """random_sparse_state over ``dims``, where a register past 2^20 holds
    up to 64 values spread over its whole range."""
    small = [d if d <= 1 << 20 else 64 for d in dims]
    base = random_sparse_state(small, n, seed, stride)
    big = np.array([d > 1 << 20 for d in dims])
    scale = np.array([(d - 1) // 63 if d > 1 << 20 else 1 for d in dims], dtype=np.int64)
    lay = RegisterLayout.of(*((f"r{i}", d) for i, d in enumerate(dims)))
    return SparseState(lay, np.where(big, base._vals * scale, base._vals), base._amps)


_PAST_INT64 = [3 << 59, 8]  # 1.5 * 2^63: a key over both registers would wrap


@pytest.mark.parametrize("dims, n, stride, col", [
    ([24, 5, 3], 60, 1, 0),  # several lengths in one call
    ([12, 64], 200, 2, 0),  # lengths 1, 2, 3 and 6
    ([64, 64, 2], 8192, 1, 0),  # 128 groups of one length over two chunks
    ([64, 200, 2], 1000, 1, 0),  # several lengths, length 64 over several chunks
    ([2, 40, 7], 300, 1, 0),  # d = 2: pairs and single entries
    ([5, 9, 4], 3, 1, 1),  # three single-entry groups
    ([16, 2, 2, 2], 64, 2, 0),  # the marked program's shape: (index, value, b, good)
    (_PAST_INT64, 400, 1, 1),  # keyed dimensions past 2^63 but not 2^64: the lexsort path
    ([8, 1 << 40, 1 << 40], 300, 1, 0),  # 2^83: the lexsort path, a small register first
])
@pytest.mark.parametrize("seed", [0, 1])
def test_keyed_grouping_is_byte_identical_to_the_lexsort_grouping(dims, n, stride, col, seed):
    state = spread_state(dims, n, seed, stride)
    reg = f"r{col}"
    assert (_radix(dims) is None) == (math.prod(dims) >= 1 << 63)
    for inverse in (False, True):
        assert_same_state(dft(state, reg, inverse), lexsort_dft(state, reg, inverse))
    for regs in ([reg], [f"r{i}" for i in range(len(dims))][::-1], [f"r{(col + 1) % len(dims)}", reg]):
        got, want = joint_marginal(state, regs), lexsort_joint_marginal(state, regs)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_mixed_radix_keys_stop_short_of_int64():
    # the key of the largest row is the product of the dimensions minus one
    assert _radix((2**63 - 1,)) == [1]
    assert _radix((2**62 - 1, 2)) == [2, 1]
    for dims in [(2**62, 2), (2**63,), (3 << 59, 8), (1 << 40, 1 << 40)]:
        assert _radix(dims) is None
        assert RegisterLayout.of(*((f"r{i}", d) for i, d in enumerate(dims)))._dft_strides is None


_ONE_REGISTER = RegisterLayout.of(("x", 2))


@pytest.mark.parametrize("call, message", [
    (lambda: RegisterLayout.of(("x", 0)), "register 'x' has dimension 0 < 1"),
    (lambda: basis_state(_ONE_REGISTER, [0, 1]), "wrong number of basis values for layout"),
    (lambda: SparseState(_ONE_REGISTER, np.zeros((1, 2)), np.ones(1)), "basis value array shape does not match layout"),
    (lambda: SparseState(_ONE_REGISTER, np.zeros((1, 1)), np.ones(2)), "amplitude array length does not match basis rows"),
], ids=["zero-dimension", "basis-values", "vals-shape", "amps-length"])
def test_malformed_layout_or_state_is_refused(call, message):
    with pytest.raises(QStateError) as info:
        call()
    assert str(info.value) == message
