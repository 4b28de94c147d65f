"""Tests for reversible programs and the amplitude amplification operator."""

import math

import numpy as np
import pytest

from qperiod.amplify import (
    MASS_TOL,
    OracleStep,
    PhaseFlipStep,
    PrepStep,
    ReversibleProgram,
    amplification_operator,
    boost_from_half,
)
from qperiod.qstate import (
    ClassicalOracle,
    GoodPredicate,
    RegisterLayout,
    good_mass,
    phase_flip,
    zero_predicate,
    zero_state,
)


def uniform_program(d, extra_phases=False):
    """Uniform preparation over Z_d, optionally decorated with diagonal phases.

    Diagonal phase steps keep every amplitude magnitude at d^{-1/2}, so a
    size-g good set always has mass exactly g/d.
    """
    lay = RegisterLayout.of(("x", d))
    steps = [PrepStep("x")]
    if extra_phases:
        steps.append(PhaseFlipStep(GoodPredicate(("x",), lambda x: x % 3 == 1), 1j))
        steps.append(PhaseFlipStep(GoodPredicate(("x",), lambda x: x % 5 == 2), -1))
    return ReversibleProgram(lay, tuple(steps))


def subset_predicate(values):
    chosen = np.asarray(sorted(values))
    return GoodPredicate(("x",), lambda x: np.isin(x, chosen))


class TestRun:
    def test_uniform_prep_dim_two(self):
        s = uniform_program(2).run()
        assert s.amplitude((0,)) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude((1,)) == pytest.approx(1 / math.sqrt(2))

    def test_empty_program_gives_zero_state(self):
        lay = RegisterLayout.of(("x", 5))
        s = ReversibleProgram(lay, ()).run()
        assert s.to_dict() == {(0,): 1 + 0j}

    def test_fourier_sampling_program_support_law(self):
        # uniform + residue oracle + transform: index mass 1/r on multiples of m/r
        from qperiod.periodfind import PeriodicFunction, fourier_sampling_program

        s = fourier_sampling_program(PeriodicFunction.modular(3, 12)).run()
        for k in range(12):
            pred = GoodPredicate(("index",), lambda i, k=k: i == k)
            expected = 1 / 3 if k % 4 == 0 else 0.0
            assert good_mass(s, pred) == pytest.approx(expected, abs=1e-9)


class TestRoundtrip:
    @pytest.mark.parametrize("d", [2, 6, 16])
    def test_forward_then_backward_returns_zero_state(self, d):
        prog = uniform_program(d, extra_phases=True)
        back = prog.apply_inverse(prog.run())
        assert abs(back.amplitude((0,)) - 1) < 1e-9

    def test_roundtrip_with_oracle_and_dft(self):
        from qperiod.periodfind import PeriodicFunction, marked_program

        prog = marked_program(PeriodicFunction.modular(4, 8), 1, 1)
        back = prog.apply_inverse(prog.run())
        assert abs(back.amplitude((0, 0, 0, 0)) - 1) < 1e-9
        assert back.norm_sq() == pytest.approx(1.0, abs=1e-9)


class TestAmplificationOperator:
    def test_definition_matches_manual_composition(self):
        prog = uniform_program(8, extra_phases=True)
        good = subset_predicate([1, 5, 6])
        state = prog.run()
        via_op = amplification_operator(prog, good, 1j, -1, state)
        manual = phase_flip(state, good, -1)
        manual = prog.apply_inverse(manual)
        manual = phase_flip(manual, zero_predicate(prog.layout), 1j)
        manual = prog.apply(manual)
        negated = {k: -v for k, v in manual.to_dict().items()}
        assert all(abs(via_op.amplitude(k) - v) < 1e-12 for k, v in negated.items())

    def test_half_mass_single_grover_step(self):
        # a = 1/2: one application with phases -1 gives sin^2(3*pi/4) = 1/2
        prog = uniform_program(4)
        good = subset_predicate([0, 1])
        out = amplification_operator(prog, good, -1, -1, prog.run())
        assert good_mass(out, good) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("d,good_values", [(8, [3]), (16, [0, 9, 10]), (6, [1, 2])])
    def test_grover_law(self, d, good_values):
        prog = uniform_program(d, extra_phases=True)
        good = subset_predicate(good_values)
        state = prog.run()
        a = good_mass(state, good)
        theta = math.asin(math.sqrt(a))
        for j in range(1, 9):
            state = amplification_operator(prog, good, -1, -1, state)
            assert good_mass(state, good) == pytest.approx(
                math.sin((2 * j + 1) * theta) ** 2, abs=1e-9
            )

    def test_norm_preserved(self):
        prog = uniform_program(12)
        good = subset_predicate([2, 3, 5])
        state = amplification_operator(prog, good, 1j, 1j, prog.run())
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-9)

    def test_support_confined_to_preparation_image(self):
        prog = uniform_program(9, extra_phases=True)
        good = subset_predicate([4, 7])
        support = set(k for k, _ in prog.run().entries())
        state = prog.run()
        for _ in range(5):
            state = amplification_operator(prog, good, -1, -1, state)
        stray = [abs(a) for k, a in state.entries() if k not in support]
        assert not stray or max(stray) < 1e-12

    def test_layout_mismatch_rejected(self):
        prog = uniform_program(4)
        other = zero_state(RegisterLayout.of(("y", 4)))
        with pytest.raises(ValueError):
            amplification_operator(prog, subset_predicate([1]), -1, -1, other)


class TestBoostFromHalf:
    def test_uniform_two_single_good(self):
        res = boost_from_half(uniform_program(2), subset_predicate([1]))
        assert res.at_expected_mass
        assert res.mass_after == pytest.approx(1.0, abs=1e-9)
        # up to global phase the state is |1>
        assert abs(res.state.amplitude((1,))) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_four_two_good(self):
        res = boost_from_half(uniform_program(4), subset_predicate([0, 1]))
        assert res.mass_after == pytest.approx(1.0, abs=1e-9)

    def test_quarter_mass_input_flagged(self):
        res = boost_from_half(uniform_program(4), subset_predicate([3]))
        assert not res.at_expected_mass
        assert res.mass_before == pytest.approx(0.25, abs=1e-9)
        assert abs(res.mass_after - 1.0) > 1e-3

    @pytest.mark.parametrize("seed", range(8))
    def test_randomised_exactness(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 33)) * 2  # even so that d/2 goods exist
        prog = uniform_program(d, extra_phases=bool(seed % 2))
        chosen = rng.choice(d, size=d // 2, replace=False)
        res = boost_from_half(prog, subset_predicate(chosen))
        assert res.at_expected_mass
        assert res.mass_after == pytest.approx(1.0, abs=1e-9)


def boost_with_phases_minus_one(program, good):
    """Good mass before and after one amplification with both phases -1."""
    prepared = program.run()
    boosted = amplification_operator(program, good, -1, -1, prepared)
    return good_mass(prepared, good), good_mass(boosted, good)


class TestBoostFromQuarter:
    def test_uniform_four_single_good(self):
        before, after = boost_with_phases_minus_one(uniform_program(4), subset_predicate([3]))
        assert abs(before - 0.25) <= MASS_TOL
        assert after == pytest.approx(1.0, abs=1e-9)

    def test_uniform_eight_two_good(self):
        _, after = boost_with_phases_minus_one(uniform_program(8), subset_predicate([2, 7]))
        assert after == pytest.approx(1.0, abs=1e-9)

    def test_half_mass_input_flagged(self):
        before, after = boost_with_phases_minus_one(uniform_program(4), subset_predicate([0, 2]))
        assert abs(before - 0.25) > MASS_TOL
        # theta = pi/4, one iteration lands at sin^2(3*pi/4) = 1/2
        assert after == pytest.approx(0.5, abs=1e-9)
