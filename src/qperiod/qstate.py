"""Sparse statevector simulation over named qudit registers.

A state is a finite map from computational-basis tuples (one integer per
register) to complex amplitudes.  Register dimensions are arbitrary positive
integers, so composite moduli are modeled directly instead of being padded
out to qubit strings.  The joint Hilbert dimension (the product of all
register dimensions) may be astronomically large; it is never materialised
densely, only nonzero amplitudes are stored, as parallel numpy arrays.

All operations except :func:`measure` are unitary and preserve the squared
norm to double precision.  :func:`dft` prunes amplitudes below ``PRUNE_EPS``
afterwards, so structural zeros produced by interference stay exactly
absent and the support of a Fourier-sampled state is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9

# c*a exponent products must stay inside int64, and a spectrum denser than
# this is beyond desk scale anyway.
_MAX_DFT_DIM = 1 << 31
_MAX_DFT_OUTPUT = 1 << 22
# dft transforms equal-length groups in 2-D batches of at most this many
# cells, which bounds its scratch memory.
_DFT_CHUNK_CELLS = 1 << 12

_TWO_PI = 2.0 * math.pi


class QStateError(ValueError):
    """Raised on layout mismatches, range errors and violated preconditions."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered collection of named registers with integer dimensions."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise QStateError(f"duplicate register names in {names}")
        for name, dim in self.registers:
            if dim < 1:
                raise QStateError(f"register {name!r} has dimension {dim} < 1")

    @classmethod
    def of(cls, *registers: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple((str(n), int(d)) for n, d in registers))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.registers):
            if n == name:
                return i
        raise QStateError(f"no register named {name!r}")


class SparseState:
    """Immutable sparse state: basis-value rows plus complex amplitudes."""

    __slots__ = ("layout", "_vals", "_amps")

    def __init__(self, layout: RegisterLayout, vals: np.ndarray, amps: np.ndarray):
        self.layout = layout
        self._vals = np.ascontiguousarray(vals, dtype=np.int64)
        self._amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if self._vals.ndim != 2 or self._vals.shape[1] != len(layout.registers):
            raise QStateError("basis value array shape does not match layout")
        if self._amps.shape != (self._vals.shape[0],):
            raise QStateError("amplitude array length does not match basis rows")

    # -- introspection -------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._vals.shape[0]

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._amps) ** 2))

    def values_column(self, reg: str) -> np.ndarray:
        """Basis values of one register across all stored entries (copy)."""
        return self._vals[:, self.layout.index(reg)].copy()

    def probabilities(self) -> np.ndarray:
        return np.abs(self._amps) ** 2

    def amplitude(self, values: Sequence[int]) -> complex:
        return self.to_dict().get(tuple(int(v) for v in values), 0j)

    def entries(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        for row, amp in zip(self._vals, self._amps):
            yield tuple(int(v) for v in row), complex(amp)

    def to_dict(self) -> dict[tuple[int, ...], complex]:
        return dict(self.entries())

    def allclose(self, other: "SparseState", atol: float = NORM_TOL) -> bool:
        if self.layout != other.layout:
            return False
        mine, theirs = self.to_dict(), other.to_dict()
        keys = set(mine) | set(theirs)
        return all(abs(mine.get(k, 0j) - theirs.get(k, 0j)) <= atol for k in keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseState({self.num_entries} entries over {self.layout.names})"

    # -- internal helpers ----------------------------------------------

    def _replace(self, vals: np.ndarray, amps: np.ndarray) -> "SparseState":
        return SparseState(self.layout, vals, amps)

    def _col(self, reg: str) -> int:
        return self.layout.index(reg)


@dataclass(frozen=True)
class ClassicalOracle:
    """Reversible classical function applied in superposition.

    The function value is accumulated into the output register modulo its
    dimension (plain XOR when the output is a bit), which makes the induced
    basis map a permutation regardless of the function.  ``fn`` receives one
    int64 array per input register.
    """

    inputs: tuple[str, ...]
    output: str
    fn: Callable[..., object]
    name: str = ""

    def values_for(self, state: SparseState) -> np.ndarray:
        cols = [state._vals[:, state._col(r)] for r in self.inputs]
        out = np.asarray(self.fn(*cols), dtype=np.int64)
        if out.shape != (state.num_entries,):
            out = np.broadcast_to(out, (state.num_entries,)).astype(np.int64)
        return out


@dataclass(frozen=True)
class GoodPredicate:
    """Boolean predicate over basis tuples, reading only named registers."""

    registers: tuple[str, ...]
    fn: Callable[..., object]
    name: str = ""

    def mask(self, state: SparseState) -> np.ndarray:
        cols = [state._vals[:, state._col(r)] for r in self.registers]
        return np.asarray(self.fn(*cols), dtype=bool).reshape(state.num_entries)

    def __call__(self, *values):
        return self.fn(*values)


# ---------------------------------------------------------------------------
# state constructors


def basis_state(layout: RegisterLayout, values: Sequence[int]) -> SparseState:
    """Single-entry state |values> with amplitude 1."""
    vals = [int(v) for v in values]
    if len(vals) != len(layout.registers):
        raise QStateError("wrong number of basis values for layout")
    for v, (name, dim) in zip(vals, layout.registers):
        if not 0 <= v < dim:
            raise QStateError(f"value {v} out of range for register {name!r} (dim {dim})")
    return SparseState(layout, np.array([vals], dtype=np.int64), np.ones(1, dtype=np.complex128))


def zero_state(layout: RegisterLayout) -> SparseState:
    return basis_state(layout, [0] * len(layout.registers))


# ---------------------------------------------------------------------------
# unitary operations


def uniform_prep(state: SparseState, reg: str) -> SparseState:
    """Split every entry into a uniform superposition over one register.

    Requires the register to hold 0 in every stored entry; this is the
    state-preparation facet of the Fourier transform (identical output,
    cheaper bookkeeping), and shares its output cap, checked before
    anything is allocated.
    """
    col = state._col(reg)
    d = state.layout.dims[col]
    if np.any(state._vals[:, col] != 0):
        raise QStateError(f"uniform_prep requires register {reg!r} to be 0 everywhere")
    if d == 1:
        return state._replace(state._vals.copy(), state._amps.copy())
    n = state.num_entries
    if n * d > _MAX_DFT_OUTPUT:
        raise QStateError("uniform preparation exceeds sparse capacity")
    vals = np.repeat(state._vals, d, axis=0)
    vals[:, col] = np.tile(np.arange(d, dtype=np.int64), n)
    amps = np.repeat(state._amps / math.sqrt(d), d)
    return state._replace(vals, amps)


def apply_oracle(state: SparseState, oracle: ClassicalOracle, inverse: bool = False) -> SparseState:
    """Accumulate (or un-accumulate) the oracle value into its output register."""
    for r in (*oracle.inputs, oracle.output):
        state._col(r)  # raises on unknown register
    out_col = state._col(oracle.output)
    d = state.layout.dims[out_col]
    fvals = oracle.values_for(state) % d
    vals = state._vals.copy()
    if inverse:
        vals[:, out_col] = (vals[:, out_col] - fvals) % d
    else:
        vals[:, out_col] = (vals[:, out_col] + fvals) % d
    return state._replace(vals, state._amps.copy())


def controlled_subtract(state: SparseState, src: str, dst: str, inverse: bool = False) -> SparseState:
    """Map |j>|x> to |j>|x-j mod d| (or |x+j mod d| when inverted).

    ``src`` and ``dst`` must have equal dimension; the inverse direction is
    the controlled addition used to copy a fresh register (|j>|0> -> |j>|j>).
    """
    s, t = state._col(src), state._col(dst)
    d = state.layout.dims[t]
    if state.layout.dims[s] != d:
        raise QStateError(f"registers {src!r} and {dst!r} differ in dimension")
    vals = state._vals.copy()
    if inverse:
        vals[:, t] = (vals[:, t] + vals[:, s]) % d
    else:
        vals[:, t] = (vals[:, t] - vals[:, s]) % d
    return state._replace(vals, state._amps.copy())


def phase_flip(state: SparseState, predicate: GoodPredicate, phase: complex) -> SparseState:
    """Multiply amplitudes of entries satisfying ``predicate`` by a unit phase."""
    phase = complex(phase)
    if abs(abs(phase) - 1.0) > 1e-12:
        raise QStateError(f"phase {phase} is not of unit modulus")
    mask = predicate.mask(state)
    amps = state._amps.copy()
    amps[mask] *= phase
    return state._replace(state._vals.copy(), amps)


def zero_predicate(layout: RegisterLayout) -> GoodPredicate:
    """Predicate selecting the all-zero basis tuple."""

    def all_zero(*cols):
        mask = np.ones_like(cols[0], dtype=bool)
        for c in cols:
            mask &= c == 0
        return mask

    return GoodPredicate(layout.names, all_zero, name="zero")


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a non-empty 2-D array with one stable sort.

    Returns ``(order, starts)``: group g holds the row indices
    ``order[starts[g]:starts[g + 1]]`` (the last group runs to the end) in
    ascending order, and the groups follow the lexicographic order of their
    rows, the order ``np.unique(keys, axis=0)`` gives.
    """
    n = keys.shape[0]
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(n)
    srt = keys[order]
    new = np.any(srt[1:] != srt[:-1], axis=1)
    return order, np.flatnonzero(np.concatenate(([True], new)))


def dft(state: SparseState, reg: str, inverse: bool = False) -> SparseState:
    """Exact discrete Fourier transform over Z_d on one register.

    Convention: forward maps |j> to d^{-1/2} sum_c w^{jc} |c> with
    w = exp(2*pi*i/d).  Entries are grouped by the values of all other
    registers; within a group the stored basis values always lie on an
    arithmetic progression ``a + p*s`` with ``p | d`` (p is the gcd of the
    offsets and d), so the transform reduces to a length-(d/p) FFT plus an
    exact twiddle whose angle is reduced modulo d before any trigonometry.
    Groups of equal length are transformed together, one 2-D FFT per chunk
    of at most ``_DFT_CHUNK_CELLS`` cells.  Outputs below ``PRUNE_EPS`` are
    dropped; the output lists the groups in lexicographic order of the other
    registers, each group's outputs by spectrum bin, then by copy.
    """
    col = state._col(reg)
    d = state.layout.dims[col]
    n = state.num_entries
    if d > _MAX_DFT_DIM:
        raise QStateError(f"register dimension {d} too large for exact DFT")
    if d == 1 or n == 0:
        return state._replace(state._vals.copy(), state._amps.copy())

    order, starts = _group_rows(np.delete(state._vals, col, axis=1))
    sizes = np.diff(starts, append=n)
    j = state._vals[order, col]
    amp = state._amps[order]
    a0 = np.minimum.reduceat(j, starts)
    diffs = j - np.repeat(a0, sizes)
    p = np.gcd(np.gcd.reduceat(diffs, starts), d)  # gcd(0, d) == d for single entries
    length = d // p
    pos = diffs // np.repeat(p, sizes)

    # Pass 1: transform the groups bucket by bucket of equal length and keep
    # each group's bins above the cut, with their rank inside the group.
    by_len = np.argsort(length, kind="stable")
    run_end = np.cumsum(sizes[by_len])  # the groups' entries laid out in by_len order
    run_start = run_end - sizes[by_len]
    entry = np.repeat(starts[by_len] - run_start, sizes[by_len]) + np.arange(n)
    cut = PRUNE_EPS * math.sqrt(d)
    counts = np.zeros(len(starts), dtype=np.int64)
    kept = []
    lens, firsts = np.unique(length[by_len], return_index=True)
    # a chunk buffer holds max(_DFT_CHUNK_CELLS, L) cells at most: check L first
    if lens[-1] > _MAX_DFT_OUTPUT:
        raise QStateError("DFT buffer exceeds sparse capacity")
    for L, lo, hi in zip(lens.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(starts)]):
        per = max(1, _DFT_CHUNK_CELLS // L)
        for q in range(lo, hi, per):
            q_end = min(q + per, hi)
            groups = by_len[q:q_end]
            rows = entry[run_start[q] : run_end[q_end - 1]]
            mat = np.zeros((len(groups), L), dtype=np.complex128)
            mat[np.repeat(np.arange(len(groups)), sizes[groups]), pos[rows]] = amp[rows]
            spectrum = np.fft.fft(mat, axis=1) if inverse else L * np.fft.ifft(mat, axis=1)
            mask = np.abs(spectrum) > cut
            per_row = np.count_nonzero(mask, axis=1)
            counts[groups] = per_row
            r_idx, bins = np.nonzero(mask)
            rank = np.arange(len(r_idx)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
            kept.append((L, groups[r_idx], rank, bins, spectrum[r_idx, bins]))

    # Pass 2: each kept bin b of a group yields the d/L outputs c = b + L*t,
    # written straight to the group's block of the preallocated output.
    out_sizes = counts * p
    total = int(out_sizes.sum())
    if total > _MAX_DFT_OUTPUT:
        raise QStateError("DFT output exceeds sparse capacity")
    offset = np.cumsum(out_sizes) - out_sizes
    vals = np.repeat(state._vals[order[starts]], out_sizes, axis=0)
    amps = np.empty(total, dtype=np.complex128)
    inv_sqrt_d = 1.0 / math.sqrt(d)
    for L, g, rank, bins, spec in kept:
        t = np.arange(d // L)
        cs = bins[:, None] + L * t
        expo = (cs * a0[g][:, None]) % d
        if inverse:
            expo = (d - expo) % d
        twiddle = np.exp((_TWO_PI / d) * 1j * expo)
        dest = (offset[g] + rank * (d // L))[:, None] + t
        amps[dest] = spec[:, None] * twiddle * inv_sqrt_d
        vals[dest, col] = cs
    return state._replace(vals, amps)


# ---------------------------------------------------------------------------
# measurement and diagnostics


def good_mass(state: SparseState, predicate: GoodPredicate) -> float:
    """Total probability mass on entries satisfying the predicate."""
    mask = predicate.mask(state)
    return float(np.sum(np.abs(state._amps[mask]) ** 2))


def _walk(cum: np.ndarray, rng: np.random.Generator) -> int:
    """One rng draw, then a cumulative walk; robust to sub-ulp norm drift."""
    target = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, target, side="right")), len(cum) - 1)


def measure(state: SparseState, reg: str, rng: np.random.Generator) -> tuple[int, SparseState]:
    """Sample one register from its exact marginal and collapse the state."""
    (outcome,), post = measure_joint(state, (reg,), rng)
    return outcome, post


def joint_marginal(
    state: SparseState, regs: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact joint marginal of several registers.

    Returns ``(outcomes, group, mass)``: the distinct values of the
    registers, one row per outcome in lexicographic order; the outcome
    index of every stored entry; and each outcome's probability mass.
    """
    cols = [state._col(r) for r in regs]
    if state.num_entries == 0:
        raise QStateError("cannot measure a state with no entries")
    sub = state._vals[:, cols]
    order, starts = _group_rows(sub)
    group = np.empty(state.num_entries, dtype=np.int64)
    group[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    mass = np.bincount(group, weights=state.probabilities(), minlength=len(starts))
    return sub[order[starts]], group, mass


def measure_joint(
    state: SparseState, regs: Sequence[str], rng: np.random.Generator
) -> tuple[tuple[int, ...], SparseState]:
    """Jointly sample several registers with a single rng draw."""
    outcomes, group, mass = joint_marginal(state, regs)
    pick = _walk(np.cumsum(mass), rng)
    keep = group == pick
    amps = state._amps[keep] / math.sqrt(float(mass[pick]))
    return tuple(int(v) for v in outcomes[pick]), state._replace(state._vals[keep], amps)
