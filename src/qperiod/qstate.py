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

    def dim(self, name: str) -> int:
        return self.registers[self.index(name)][1]

    def total_dim(self) -> int:
        """Joint dimension as an exact Python integer (may be huge)."""
        return math.prod(self.dims)


class SparseState:
    """Immutable sparse state: basis-value rows plus complex amplitudes."""

    __slots__ = ("layout", "_vals", "_amps", "_lookup")

    def __init__(self, layout: RegisterLayout, vals: np.ndarray, amps: np.ndarray):
        self.layout = layout
        self._vals = np.ascontiguousarray(vals, dtype=np.int64)
        self._amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if self._vals.ndim != 2 or self._vals.shape[1] != len(layout.registers):
            raise QStateError("basis value array shape does not match layout")
        if self._amps.shape != (self._vals.shape[0],):
            raise QStateError("amplitude array length does not match basis rows")
        self._lookup: dict[tuple[int, ...], int] | None = None

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
        if self._lookup is None:
            self._lookup = {
                tuple(int(v) for v in row): i for i, row in enumerate(self._vals)
            }
        idx = self._lookup.get(tuple(int(v) for v in values))
        return complex(self._amps[idx]) if idx is not None else 0j

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
    int64 array per input register when ``vectorized`` is true, otherwise
    plain Python integers row by row.
    """

    inputs: tuple[str, ...]
    output: str
    fn: Callable[..., object]
    vectorized: bool = True
    name: str = ""

    def values_for(self, state: SparseState) -> np.ndarray:
        cols = [state._vals[:, state._col(r)] for r in self.inputs]
        if self.vectorized:
            out = np.asarray(self.fn(*cols), dtype=np.int64)
            if out.shape != (state.num_entries,):
                out = np.broadcast_to(out, (state.num_entries,)).astype(np.int64)
            return out
        rows = zip(*(c.tolist() for c in cols)) if cols else [()] * state.num_entries
        return np.fromiter(
            (int(self.fn(*row)) for row in rows), dtype=np.int64, count=state.num_entries
        )


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
    cheaper bookkeeping).
    """
    col = state._col(reg)
    d = state.layout.dims[col]
    if np.any(state._vals[:, col] != 0):
        raise QStateError(f"uniform_prep requires register {reg!r} to be 0 everywhere")
    if d == 1:
        return state._replace(state._vals.copy(), state._amps.copy())
    n = state.num_entries
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


def phase_flip(state: SparseState, predicate, phase: complex) -> SparseState:
    """Multiply amplitudes of entries satisfying ``predicate`` by a unit phase."""
    phase = complex(phase)
    if abs(abs(phase) - 1.0) > 1e-12:
        raise QStateError(f"phase {phase} is not of unit modulus")
    mask = _predicate_mask(state, predicate)
    amps = state._amps.copy()
    amps[mask] *= phase
    return state._replace(state._vals.copy(), amps)


def _predicate_mask(state: SparseState, predicate) -> np.ndarray:
    if isinstance(predicate, GoodPredicate):
        return predicate.mask(state)
    # plain callable over full basis tuples (slow path, test convenience)
    return np.fromiter(
        (bool(predicate(tuple(int(v) for v in row))) for row in state._vals),
        dtype=bool,
        count=state.num_entries,
    )


def zero_predicate(layout: RegisterLayout) -> GoodPredicate:
    """Predicate selecting the all-zero basis tuple."""

    def all_zero(*cols):
        mask = np.ones_like(cols[0], dtype=bool)
        for c in cols:
            mask &= c == 0
        return mask

    return GoodPredicate(layout.names, all_zero, name="zero")


def dft(state: SparseState, reg: str, inverse: bool = False) -> SparseState:
    """Exact discrete Fourier transform over Z_d on one register.

    Convention: forward maps |j> to d^{-1/2} sum_c w^{jc} |c> with
    w = exp(2*pi*i/d).  Entries are grouped by the values of all other
    registers; within a group the stored basis values always lie on an
    arithmetic progression ``a + p*s`` with ``p | d`` (p is the gcd of the
    offsets and d), so the transform reduces to a length-(d/p) FFT plus an
    exact twiddle whose angle is reduced modulo d before any trigonometry.
    Outputs below ``PRUNE_EPS`` are dropped.
    """
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


# ---------------------------------------------------------------------------
# measurement and diagnostics


def good_mass(state: SparseState, predicate) -> float:
    """Total probability mass on entries satisfying the predicate."""
    mask = _predicate_mask(state, predicate)
    return float(np.sum(np.abs(state._amps[mask]) ** 2))


def _walk(cum: np.ndarray, rng: np.random.Generator) -> int:
    """One rng draw, then a cumulative walk; robust to sub-ulp norm drift."""
    target = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, target, side="right")), len(cum) - 1)


def measure(state: SparseState, reg: str, rng: np.random.Generator) -> tuple[int, SparseState]:
    """Sample one register from its exact marginal and collapse the state."""
    (outcome,), post = measure_joint(state, (reg,), rng)
    return outcome, post


def measure_joint(
    state: SparseState, regs: Sequence[str], rng: np.random.Generator
) -> tuple[tuple[int, ...], SparseState]:
    """Jointly sample several registers with a single rng draw."""
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
