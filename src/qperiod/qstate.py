"""Sparse statevector simulation over named qudit registers.

A state is a finite map from computational-basis tuples (one integer per
register) to complex amplitudes.  Register dimensions are arbitrary positive
integers, so composite moduli are modeled directly instead of being padded
out to qubit strings.  The joint Hilbert dimension (the product of all
register dimensions) may be astronomically large; it is never materialised
densely, only nonzero amplitudes are stored, as parallel numpy arrays.  No
operation writes into a state's arrays, so results share those left unchanged.

All operations except :func:`measure` are unitary and preserve the squared
norm to double precision.  :func:`dft` prunes amplitudes below ``PRUNE_EPS``
afterwards, so structural zeros produced by interference stay exactly
absent and the support of a Fourier-sampled state is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    # cached once per layout, outside the fields that equality and hashing read
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _dft_strides(self) -> np.ndarray | None:
        """Row c: place values that key a row by the other registers, then by register c; None past int64."""
        place = _radix(self.dims)
        return None if place is None else np.array(
            [[1 if i == c else v * (d if i > c else 1) for i, v in enumerate(place)] for c, d in enumerate(self.dims)],
            dtype=np.int64)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise QStateError(f"no register named {name!r}") from None


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
        if vals.dtype == np.int64 and amps.dtype == np.complex128 and vals.flags.c_contiguous and amps.flags.c_contiguous:
            new = SparseState.__new__(SparseState)  # arrays as the constructor leaves them: skip its copies and checks
            new.layout, new._vals, new._amps = self.layout, vals, amps
            return new
        return SparseState(self.layout, vals, amps)

    def _col(self, reg: str) -> int:
        return self.layout.index(reg)


@dataclass(frozen=True)
class ClassicalOracle:
    """Reversible classical function applied in superposition.

    The function value is accumulated into the output register modulo its
    dimension (plain XOR when the output is a bit), which makes the induced
    basis map a permutation regardless of the function.  ``fn`` receives one
    int64 array per input register and returns one value per entry, or one
    value for all of them.
    """

    inputs: tuple[str, ...]
    output: str
    fn: Callable[..., object]


@dataclass(frozen=True)
class GoodPredicate:
    """Boolean predicate over basis tuples, reading only named registers."""

    registers: tuple[str, ...]
    fn: Callable[..., object]
    name: str = ""

    def mask(self, state: SparseState) -> np.ndarray:
        cols = [state._vals[:, state._col(r)] for r in self.registers]
        out = np.asarray(self.fn(*cols), dtype=bool)
        if out.shape != (state.num_entries,):
            out = np.broadcast_to(out, (state.num_entries,))
        return out

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
    if state._vals[:, col].any():
        raise QStateError(f"uniform_prep requires register {reg!r} to be 0 everywhere")
    if d == 1:
        return state
    n = state.num_entries
    if n * d > _MAX_DFT_OUTPUT:
        raise QStateError("uniform preparation exceeds sparse capacity")
    vals = state._vals.repeat(d, axis=0)
    vals.reshape(n, d, -1)[:, :, col] = np.arange(d)
    return state._replace(vals, (state._amps / math.sqrt(d)).repeat(d))


def apply_oracle(state: SparseState, oracle: ClassicalOracle, inverse: bool = False) -> SparseState:
    """Accumulate (or un-accumulate) the oracle value into its output register."""
    cols = [state._col(r) for r in oracle.inputs]  # raises on an unknown register
    out_col = state._col(oracle.output)
    d = state.layout.dims[out_col]
    fvals = np.asarray(oracle.fn(*(state._vals[:, c] for c in cols)), dtype=np.int64) % d
    vals = state._vals.copy()
    out = vals[:, out_col]  # a view: the updates write into vals
    (np.subtract if inverse else np.add)(out, fvals, out=out)
    out %= d
    return state._replace(vals, state._amps)


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
    return state._replace(vals, state._amps)


def phase_flip(state: SparseState, predicate: GoodPredicate, phase: complex) -> SparseState:
    """Multiply amplitudes of entries satisfying ``predicate`` by a unit phase."""
    phase = complex(phase)
    if abs(abs(phase) - 1.0) > 1e-12:
        raise QStateError(f"phase {phase} is not of unit modulus")
    return state._replace(state._vals, np.where(predicate.mask(state), state._amps * phase, state._amps))


def zero_predicate(layout: RegisterLayout) -> GoodPredicate:
    """Predicate selecting the all-zero basis tuple."""

    def all_zero(*cols):
        return np.bitwise_or.reduce(cols) == 0

    return GoodPredicate(layout.names, all_zero, name="zero")


def _radix(dims: Sequence[int]) -> list[int] | None:
    """Place values of a mixed-radix row key over ``dims``; None past int64."""
    return None if math.prod(dims) >> 63 else [math.prod(dims[i + 1 :]) for i in range(len(dims))]


def _row_key(rows: np.ndarray, radix: list[int] | None) -> np.ndarray:
    """An int64 per row that sorts as the rows do: ``rows @ radix``, else the row's rank by one lexsort."""
    if radix is not None:
        return rows @ radix
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    return np.concatenate(([0], (srt[1:] != srt[:-1]).any(axis=1).cumsum()))[order.argsort()]


def _group_rows(key: np.ndarray, d: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows by their int64 ``key`` with one stable argsort and group them by
    ``key // d``: returns the order, each sorted row's ``key % d``, the group starts
    and each sorted row's group.  Keys from :func:`_row_key` sort as their rows do,
    so the groups follow the rows' lexicographic order."""
    order = key.argsort(kind="stable")
    high, low = np.divmod(key[order], d)
    new = np.concatenate(([True], high[1:] != high[:-1]))
    return order, low, new.nonzero()[0], new.cumsum() - 1


def dft(state: SparseState, reg: str, inverse: bool = False) -> SparseState:
    """Exact discrete Fourier transform over Z_d on one register.

    Convention: forward maps |j> to d^{-1/2} sum_c w^{jc} |c> with
    w = exp(2*pi*i/d).  Entries are grouped by the values of all other
    registers; within a group the stored basis values always lie on an
    arithmetic progression ``a + p*s`` with ``p | d`` (p is the gcd of the
    offsets and d), so the transform reduces to a length-(d/p) FFT plus an
    exact twiddle whose angle is reduced modulo d before any trigonometry.
    One stable argsort of an int64 key (the other registers in mixed radix,
    then this one) groups the entries, values ascending; past int64,
    ``np.lexsort`` ranks the other registers, with the same output bytes.
    Groups of equal length L are transformed together, one 2-D FFT per
    chunk of at most ``_DFT_CHUNK_CELLS`` cells (several lengths first sort
    the groups by length), and bins below ``PRUNE_EPS`` are dropped.  Once
    the outputs are counted, each kept bin b expands into its d/L outputs
    c = b + L*t, in the order the bins were kept.  That is the documented
    order for one length: groups in lexicographic order of the other
    registers, each group's outputs by spectrum bin, then by copy.  For
    several lengths, one stable sort on the group restores it.
    """
    col = state._col(reg)
    d = state.layout.dims[col]
    if d > _MAX_DFT_DIM:
        raise QStateError(f"register dimension {d} too large for exact DFT")
    if d == 1 or state.num_entries == 0:
        return state

    strides = state.layout._dft_strides  # None past int64: rank the other registers' rows
    key = state._vals @ strides[col] if strides is not None else (
        _row_key(np.delete(state._vals, col, axis=1), None) * d + state._vals[:, col])
    order, j, starts, gid = _group_rows(key, d)
    amp = state._amps[order]
    a0 = j[starts]
    diffs = j - a0[gid]
    p = np.gcd(np.gcd.reduceat(diffs, starts), d)  # gcd(0, d) == d for single entries
    length = d // p
    pos = diffs // p[gid]
    lens = sorted(set(length.tolist()))
    # a chunk buffer holds max(_DFT_CHUNK_CELLS, L) cells at most: check L first
    if lens[-1] > _MAX_DFT_OUTPUT:
        raise QStateError("DFT buffer exceeds sparse capacity")
    first = state._vals[order[starts]]
    if len(lens) > 1:  # renumber the groups by length, stably, and move their entries along
        by_len = length.argsort(kind="stable")
        gid = by_len.argsort()[gid]
        moved = gid.argsort(kind="stable")
        gid, pos, amp = gid[moved], pos[moved], amp[moved]
        length, a0, first = length[by_len], a0[by_len], first[by_len]
    cut = PRUNE_EPS * math.sqrt(d)
    inv_sqrt_d = 1.0 / math.sqrt(d)
    a0 = -a0 if inverse else a0  # the inverse twiddle conjugates: exponent -c*a mod d
    total, kept, end = 0, [], 0
    for L in lens:  # its groups are q..end-1, their entries contiguous
        q, end = end, int(length.searchsorted(L, "right"))
        per = max(1, _DFT_CHUNK_CELLS // L)
        for q in range(q, end, per):
            top = min(q + per, end)
            mat = np.zeros((top - q, L), dtype=np.complex128)
            if top - q == len(starts):  # one chunk holds every group
                mat[gid, pos] = amp
            else:
                lo, hi = gid.searchsorted((q, top)).tolist()
                mat[gid[lo:hi] - q, pos[lo:hi]] = amp[lo:hi]
            spectrum = np.fft.fft(mat) if inverse else L * np.fft.ifft(mat)
            r_idx, bins = (np.abs(spectrum) > cut).nonzero()
            total += len(bins) * (d // L)
            if total > _MAX_DFT_OUTPUT:
                raise QStateError("DFT output exceeds sparse capacity")
            kept.append((L, r_idx + q, bins, spectrum[r_idx, bins]))
    vals, amps, end = np.empty((total, state._vals.shape[1]), np.int64), np.empty(total, np.complex128), 0
    for L, g, bins, spec in kept:
        cs = bins[:, None] + np.arange(0, d, L)
        twiddle = np.exp((_TWO_PI / d) * 1j * ((cs * a0[g][:, None]) % d))
        at, end = end, end + cs.size
        amps[at:end] = (spec[:, None] * twiddle * inv_sqrt_d).ravel()
        vals[at:end] = first[g].repeat(d // L, axis=0)
        vals[at:end, col] = cs.ravel()
    if len(lens) > 1:
        back = np.concatenate([by_len[g].repeat(d // L) for L, g, _, _ in kept]).argsort(kind="stable")
        vals, amps = vals[back], amps[back]
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
    order, _, starts, gid = _group_rows(_row_key(sub, _radix([state.layout.dims[c] for c in cols])))
    group = np.empty(state.num_entries, dtype=np.int64)
    group[order] = gid
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
