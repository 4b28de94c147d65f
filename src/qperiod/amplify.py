"""Generalized amplitude amplification over reversible state-prep programs.

The amplification operator is ``Q = -A S0 A^{-1} S_good``: flip the phase of
the "good" entries, undo the preparation ``A``, flip the phase of the
all-zero tuple, re-run ``A``, then negate globally.  With both phases equal
to ``-1`` this is the familiar Grover iteration; with both phases equal to
``i`` a single application turns success probability exactly 1/2 into 1,
the only regime the exact period finder uses.  With phases ``-1`` a single
application also turns exactly 1/4 into 1 (Brassard-Hoyer-Mosca-Tapp); that
regime remains a property of :func:`amplification_operator`, which the
tests check.

``A^{-1}`` is realised by running the list of step inverses in reverse
order, never by matrix inversion, so sparsity and exactness are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qstate import (
    ClassicalOracle,
    GoodPredicate,
    RegisterLayout,
    SparseState,
    apply_oracle,
    dft,
    good_mass,
    phase_flip,
    uniform_prep,
    zero_predicate,
    zero_state,
)

MASS_TOL = 1e-9


@dataclass(frozen=True)
class PrepStep:
    """Uniform preparation of one register.

    Forward acts as the register's Fourier transform, which coincides with
    the plain uniform split whenever the register currently holds 0 (the
    only situation a well-formed program meets on its first pass) but stays
    a total unitary inside amplification sandwiches, where the register is
    no longer all-zero when ``A`` is re-applied.
    """

    reg: str

    def apply(self, state: SparseState) -> SparseState:
        col = state.layout.index(self.reg)
        if not state._vals[:, col].any():
            return uniform_prep(state, self.reg)
        return dft(state, self.reg)

    def apply_inverse(self, state: SparseState) -> SparseState:
        return dft(state, self.reg, inverse=True)


@dataclass(frozen=True)
class OracleStep:
    oracle: ClassicalOracle

    def apply(self, state: SparseState) -> SparseState:
        return apply_oracle(state, self.oracle)

    def apply_inverse(self, state: SparseState) -> SparseState:
        return apply_oracle(state, self.oracle, inverse=True)


@dataclass(frozen=True)
class DftStep:
    reg: str

    def apply(self, state: SparseState) -> SparseState:
        return dft(state, self.reg)

    def apply_inverse(self, state: SparseState) -> SparseState:
        return dft(state, self.reg, inverse=True)


@dataclass(frozen=True)
class PhaseFlipStep:
    predicate: GoodPredicate
    phase: complex

    def apply(self, state: SparseState) -> SparseState:
        return phase_flip(state, self.predicate, self.phase)

    def apply_inverse(self, state: SparseState) -> SparseState:
        return phase_flip(state, self.predicate, complex(self.phase).conjugate())


@dataclass(frozen=True)
class ReversibleProgram:
    """Measurement-free preparation program with a step-wise inverse."""

    layout: RegisterLayout
    steps: tuple = ()

    def run(self) -> SparseState:
        """Apply the program to the all-zero basis state."""
        return self.apply(zero_state(self.layout))

    def apply(self, state: SparseState) -> SparseState:
        for step in self.steps:
            state = step.apply(state)
        return state

    def apply_inverse(self, state: SparseState) -> SparseState:
        for step in reversed(self.steps):
            state = step.apply_inverse(state)
        return state


@dataclass(frozen=True)
class BoostResult:
    """Outcome of a one-shot boost, including the tolerance-gated check.

    ``at_expected_mass`` records whether the preparation really had the
    success probability the regime assumes; the boosted state is returned
    either way so callers that iterate over off-regime rounds can proceed.
    """

    state: SparseState
    mass_before: float
    mass_after: float
    at_expected_mass: bool


def amplification_operator(
    program: ReversibleProgram,
    good: GoodPredicate,
    phase_zero: complex,
    phase_good: complex,
    state: SparseState,
) -> SparseState:
    """One application of ``-A S0 A^{-1} S_good`` to ``state``.

    The leading global ``-1`` is applied literally so intermediate states
    match the operator algebra; measurement statistics are insensitive to it.
    """
    if state.layout != program.layout:
        raise ValueError("state layout does not match program layout")
    state = phase_flip(state, good, phase_good)
    state = program.apply_inverse(state)
    state = phase_flip(state, zero_predicate(program.layout), phase_zero)
    state = program.apply(state)
    return state._replace(state._vals, -state._amps)


def boost_from_half(program: ReversibleProgram, good: GoodPredicate) -> BoostResult:
    """One amplification with phases i, exact when the good mass is 1/2."""
    prepared = program.run()
    before = good_mass(prepared, good)
    boosted = amplification_operator(program, good, 1j, 1j, prepared)
    after = good_mass(boosted, good)
    return BoostResult(boosted, before, after, abs(before - 0.5) <= MASS_TOL)
