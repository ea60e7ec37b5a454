"""Dense pure-state engine for small registers of labeled qudits.

A state is one complex amplitude vector over an ordered list of labeled
subsystems. Index order is mixed-radix with the FIRST listed subsystem as
the most significant digit, i.e. a C-order reshape over the subsystem
dimensions. Everything here is immutable; operations return new objects.

The engine tracks global phase faithfully: nothing ever rotates a state to
a canonical phase behind the caller's back. Only `fidelity` is phase-blind.

Model limits: pure states only, dense storage, total dimension capped at
MAX_AMPLITUDES. Mixed states are handled by the callers via trajectory
sampling, not density matrices.

`tensor`, `apply_unitary`, `measure`, `factor` and `relabel` answer a
repeat of an exact input (same labels, dimensions, amplitude bytes, targets,
and the same operator or basis object) from one bounded table, so each
distinct result is computed and validated once and then shared. A stored
result is the one a fresh computation returns, bit for bit: `measure` keeps
the Born probabilities the engine computed, so the random stream sees the
same floats and picks the same outcome. Failed calls are never stored.
`memo_stats` reports how the table did.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .memo import MemoStats, MemoTable, memoized
from .rng import Rng

__all__ = [
    "NORM_TOL",
    "ZERO_PROB",
    "MAX_AMPLITUDES",
    "LabelError",
    "DimensionError",
    "ZeroProbabilityError",
    "FactorizationError",
    "StateVector",
    "UnitaryOp",
    "MeasurementBasis",
    "basis_state",
    "tensor",
    "apply_unitary",
    "measure",
    "memo_stats",
    "MEMO_LIMIT",
    "fidelity",
    "factor",
    "relabel",
]

# Tolerance for algebraic identities (norms, unitarity, orthonormality).
NORM_TOL = 1e-9
# Probabilities below this cutoff count as impossible outcomes.
ZERO_PROB = 1e-12
# Dense-storage cap on the total amplitude count of any one state.
MAX_AMPLITUDES = 2**16
# Size limit of the operation memo, in units of one complex128 amplitude
# (16 bytes), so 2**16 is 1 MiB. An entry is charged for the amplitudes it
# keeps alive (its key's bytes plus its result) plus MEMO_ENTRY_COST for its
# Python objects (measured at about 0.8 KiB). Entries often share buffers
# (one op's result is the next op's key), so the charge is an upper bound.
# Protocol rounds revisit a small set of states (prime-d rotations are
# Clifford and channel kicks are Paulis, so every state is a stabilizer
# state), but noisy multi-hop runs at large d mostly do not repeat, and a
# larger table then only costs memory.
MEMO_LIMIT = 2**16
MEMO_ENTRY_COST = 64


class LabelError(ValueError):
    """Unknown, duplicate, or otherwise malformed subsystem labels."""


class DimensionError(ValueError):
    """Dimension bookkeeping violated (sizes, caps, mismatched operands)."""


class ZeroProbabilityError(ValueError):
    """A measurement picked an outcome of probability ~ 0."""


class FactorizationError(ValueError):
    """A subsystem split was requested across entanglement."""


def _as_complex_vector(values, length: int | None = None) -> np.ndarray:
    """A read-only flat copy of `values`, held in an immutable bytes object.

    The bytes object is the array's `base`. It doubles as the state's memo
    key, so a lookup copies nothing, and the bytes compute their hash once.
    """
    arr = np.frombuffer(np.asarray(values, dtype=np.complex128).tobytes(), dtype=np.complex128)
    if length is not None and arr.size != length:
        raise DimensionError(f"expected {length} amplitudes, got {arr.size}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise DimensionError("amplitudes must be finite (no NaN/Inf)")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over labeled qudit subsystems.

    labels: subsystem names, unique, in significance order (first = most
        significant mixed-radix digit).
    dims:   per-subsystem dimensions, each >= 2.
    amps:   complex amplitude vector of length prod(dims), unit norm
        within NORM_TOL.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        dims = tuple(int(x) for x in self.dims)
        if len(labels) != len(dims) or not labels:
            raise LabelError("labels and dims must be non-empty and same length")
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate subsystem labels in {labels}")
        if any(d < 2 for d in dims):
            raise DimensionError("every subsystem dimension must be >= 2")
        total = prod(dims)
        if total > MAX_AMPLITUDES:
            raise DimensionError(
                f"state of dimension {total} exceeds cap {MAX_AMPLITUDES}"
            )
        amps = _as_complex_vector(self.amps, total)
        nrm = float(np.vdot(amps, amps).real)
        if abs(nrm - 1.0) > NORM_TOL:
            raise DimensionError(f"state norm^2 = {nrm!r}, not 1 within {NORM_TOL}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"no subsystem labeled {label!r} in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def __reduce__(self):
        # Copies and unpickled states go through the constructor too, so
        # their amplitudes sit in bytes like every other state's.
        return StateVector, (self.labels, self.dims, self.amps)


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Unitary matrix acting on a dim-dimensional space (or target group)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = int(self.dim)
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        if mat.shape != (dim, dim):
            raise DimensionError(f"matrix shape {mat.shape} != ({dim}, {dim})")
        defect = np.abs(mat @ mat.conj().T - np.eye(dim)).max()
        if defect > NORM_TOL:
            raise DimensionError(f"matrix is not unitary (defect {defect:.3e})")
        mat.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", mat)

    def inverse(self) -> "UnitaryOp":
        return UnitaryOp(self.dim, self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal basis defining a projective measurement.

    vectors[j] is the outcome-j vector; there are exactly dim of them.
    """

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        dim = int(self.dim)
        vecs = np.asarray(self.vectors, dtype=np.complex128).copy()
        if vecs.shape != (dim, dim):
            raise DimensionError(f"need {dim} vectors of length {dim}, got {vecs.shape}")
        gram = vecs.conj() @ vecs.T
        defect = np.abs(gram - np.eye(dim)).max()
        if defect > NORM_TOL:
            raise DimensionError(f"basis is not orthonormal (defect {defect:.3e})")
        vecs.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", vecs)


_memo = MemoTable(MEMO_LIMIT)


def _state_key(state: StateVector) -> tuple:
    """Labels, dims and the exact amplitude bytes (the amps' own buffer)."""
    return state.labels, state.dims, state.amps.base


def _amplitudes(value) -> int:
    """Amplitudes a result keeps alive: in its states, arrays and tuples of them."""
    if isinstance(value, StateVector):
        return value.amps.size
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, tuple):
        return sum(map(_amplitudes, value))
    return 0


def _memo_call(key: tuple, key_size: int, compute, *args):
    """`compute(*args)`, or the result stored under `key` by an earlier call.

    key_size is the amplitude count of the state bytes inside `key`. An
    exception propagates and leaves nothing stored.
    """
    value = _memo.get(key)
    if value is None:
        value = compute(*args)
        _memo.put(key, value, key_size + _amplitudes(value) + MEMO_ENTRY_COST)
    return value


def memo_stats() -> MemoStats:
    """Counters of the operation memo since the process started.

    Every call of `tensor`, `apply_unitary`, `factor` and `relabel` makes one
    lookup; a measurement makes two, one for the outcome distribution and
    one for the post-state of the outcome drawn. `held` is in the units of
    MEMO_LIMIT and never exceeds it.
    """
    return _memo.stats()


@memoized
def basis_state(d: int, value: int, label: str) -> StateVector:
    """Computational basis state |value> of a single d-level subsystem."""
    if not 0 <= value < d:
        raise DimensionError(f"value {value} outside 0..{d - 1}")
    amps = np.zeros(d, dtype=np.complex128)
    amps[value] = 1.0
    return StateVector((label,), (d,), amps)


def _tensor(parts: tuple[StateVector, ...]) -> StateVector:
    labels: tuple[str, ...] = ()
    dims: tuple[int, ...] = ()
    amps = np.ones(1, dtype=np.complex128)
    for part in parts:
        labels += part.labels
        dims += part.dims
        if prod(dims) > MAX_AMPLITUDES:
            raise DimensionError(
                f"tensor product dimension {prod(dims)} exceeds cap {MAX_AMPLITUDES}"
            )
        # The products np.kron forms for vectors, without its shape handling.
        amps = np.multiply.outer(amps, part.amps).reshape(-1)
    return StateVector(labels, dims, amps)


def tensor(parts: Sequence[StateVector]) -> StateVector:
    """Tensor product of states, subsystems concatenated in the given order."""
    parts = tuple(parts)
    if not parts:
        raise LabelError("tensor needs at least one state")
    key = ("tensor",) + tuple(_state_key(part) for part in parts)
    return _memo_call(key, sum(part.amps.size for part in parts), _tensor, parts)


def _target_axes(state: StateVector, targets: Sequence[str]) -> tuple[int, ...]:
    targets = tuple(targets)
    if not targets:
        raise LabelError("need at least one target label")
    if len(set(targets)) != len(targets):
        raise LabelError(f"duplicate target labels {list(targets)}")
    return tuple(state.axis(t) for t in targets)


@memoized
def _axis_orders(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose order that brings `axes` to the front, in order, and its inverse.

    The same views np.moveaxis makes, without its per-call axis checks.
    """
    order = axes + tuple(i for i in range(ndim) if i not in axes)
    return order, tuple(order.index(i) for i in range(ndim))


def _target_matrix(state: StateVector, targets: Sequence[str]):
    """Amplitudes as a (target_group_dim, rest_dim) matrix.

    Target axes come first, in the order the caller listed them; the other
    subsystems keep their relative order. Returns the matrix, the target
    axes, and the layout `_rebuild` needs to put a result back.
    """
    axes = _target_axes(state, targets)
    order, inverse = _axis_orders(len(state.dims), axes)
    moved = state.amps.reshape(state.dims).transpose(order)
    tdim = prod(moved.shape[: len(axes)])
    return moved.reshape(tdim, -1), axes, (moved.shape, inverse)


def _rebuild(state: StateVector, layout, flat: np.ndarray) -> StateVector:
    shape, inverse = layout
    arr = flat.reshape(shape).transpose(inverse)
    return StateVector(state.labels, state.dims, arr.reshape(-1))


def _apply_unitary(state: StateVector, op: UnitaryOp, targets: tuple[str, ...]) -> StateVector:
    mat, _, layout = _target_matrix(state, targets)
    if mat.shape[0] != op.dim:
        raise DimensionError(
            f"operator dim {op.dim} != target group dim {mat.shape[0]}"
        )
    return _rebuild(state, layout, op.matrix @ mat)


def apply_unitary(state: StateVector, op: UnitaryOp, targets: Sequence[str]) -> StateVector:
    """Apply `op` to the listed subsystems (in listed significance order)."""
    targets = tuple(targets)
    # Operators compare by identity, and the key's reference keeps the
    # operator alive, so a recycled id can never alias an entry.
    key = ("apply_unitary",) + _state_key(state) + (op, targets)
    return _memo_call(key, state.amps.size, _apply_unitary, state, op, targets)


def _outcome_amplitudes(state: StateVector, targets: Sequence[str], basis: MeasurementBasis):
    mat, _, layout = _target_matrix(state, targets)
    if mat.shape[0] != basis.dim:
        raise DimensionError(
            f"basis dim {basis.dim} != target group dim {mat.shape[0]}"
        )
    branch = basis.vectors.conj() @ mat  # row w: unnormalized rest-state for outcome w
    probs = np.einsum("wr,wr->w", branch, branch.conj()).real
    return branch, probs, layout


def _collapse(
    state: StateVector,
    basis: MeasurementBasis,
    branch_row: np.ndarray,
    prob: float,
    outcome: int,
    layout,
) -> StateVector:
    rest = branch_row / np.sqrt(prob)
    full = np.multiply.outer(basis.vectors[outcome], rest)
    return _rebuild(state, layout, full)


def measure(
    state: StateVector,
    targets: Sequence[str],
    basis: MeasurementBasis,
    rng: Rng,
) -> tuple[int, StateVector, float]:
    """Projective measurement of the target group in `basis`.

    Returns (outcome_index, post_state, probability). The post state keeps
    the targets, collapsed onto the outcome vector. The outcome is
    `rng.pick(probs)`, called exactly once whether or not the input was seen
    before; any object with that method will do, so a caller fixes an
    outcome with a picker that returns it. A pick of probability below
    ZERO_PROB raises ZeroProbabilityError and stores no post state.
    """
    targets = tuple(targets)
    # Bases, like operators, are held by the key. Each post-state entry
    # holds the distribution's key, so it is charged for the key bytes too.
    key = ("measure",) + _state_key(state) + (targets, basis)
    size = state.amps.size
    branch, probs, layout = _memo_call(key, size, _outcome_amplitudes, state, targets, basis)
    outcome = rng.pick(probs)
    prob = float(probs[outcome])
    if prob < ZERO_PROB:
        raise ZeroProbabilityError(
            f"outcome {outcome} has probability {prob!r}, below {ZERO_PROB}"
        )
    post = _memo_call(
        (key, outcome), size, _collapse, state, basis, branch[outcome], prob, outcome, layout
    )
    return outcome, post, prob


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase. Labels must match as a set."""
    if set(a.labels) != set(b.labels):
        raise LabelError(f"label sets differ: {a.labels} vs {b.labels}")
    if a.labels == b.labels:
        if a.dims != b.dims:
            raise DimensionError("subsystem dimensions differ")
        overlap = np.vdot(a.amps, b.amps)
    else:
        src = [b.axis(l) for l in a.labels]
        arr = np.moveaxis(b.amps.reshape(b.dims), src, range(len(src)))
        if arr.shape != tuple(a.dims):
            raise DimensionError("subsystem dimensions differ")
        overlap = np.vdot(a.amps, arr.reshape(-1))
    return float(min(abs(overlap) ** 2, 1.0))


def _factor(state: StateVector, labels: tuple[str, ...]) -> tuple[StateVector, StateVector]:
    if len(labels) >= len(state.labels):
        raise LabelError("factor must leave at least one subsystem behind")
    mat, axes, _ = _target_matrix(state, labels)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if len(s) > 1 and s[1] > 1e-6:
        raise FactorizationError(
            f"subsystems {list(labels)} are entangled with the rest (second Schmidt "
            f"coefficient {s[1]:.3e})"
        )
    part = u[:, 0]
    rest = s[0] * vh[0]
    lead = part[int(np.argmax(np.abs(part)))]
    phase = lead / abs(lead)
    part = part / phase
    rest = rest * phase
    part_dims = tuple(state.dims[i] for i in axes)
    rest_labels = tuple(l for l in state.labels if l not in labels)
    rest_dims = tuple(state.dims[state.axis(l)] for l in rest_labels)
    return (
        StateVector(labels, part_dims, part),
        StateVector(rest_labels, rest_dims, rest),
    )


def factor(state: StateVector, labels: Sequence[str]) -> tuple[StateVector, StateVector]:
    """Split a product state into (part on `labels`, part on the rest).

    Requires the split to be exact (Schmidt rank 1 across the cut); raises
    FactorizationError otherwise. Global phase stays on the product: the
    extracted part gets a real-positive leading amplitude and the remainder
    carries the rest of the phase.
    """
    labels = tuple(labels)
    key = ("factor",) + _state_key(state) + (labels,)
    return _memo_call(key, state.amps.size, _factor, state, labels)


def _relabel(state: StateVector, mapping: dict[str, str]) -> StateVector:
    for old in mapping:
        state.axis(old)  # raises LabelError on unknown names
    new_labels = tuple(mapping.get(l, l) for l in state.labels)
    return StateVector(new_labels, state.dims, state.amps)


def relabel(state: StateVector, mapping: dict[str, str]) -> StateVector:
    """Rename subsystems; order and amplitudes are untouched."""
    key = ("relabel",) + _state_key(state) + (tuple(mapping.items()),)
    return _memo_call(key, state.amps.size, _relabel, state, mapping)
