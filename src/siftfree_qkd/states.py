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

`tensor`, `apply_unitary`, `measure`, `relabel` and `teleport`'s swap step
answer a repeat of an exact input (same labels, dimensions, amplitude bytes,
targets, and the same operator or basis object) from one bounded table, so
each distinct result is computed and validated once and then shared. A
stored result is the one a fresh computation returns, bit for bit:
`measure` and the swap keep the Born probabilities the engine computed, so
the random stream sees the same floats and picks the same outcome. Failed
calls are never stored. `memo_stats` reports how the table did.

A measurement and an entanglement swap are one step group, `_Group`, and
one table entry under its step key: the outcome distribution with its
cumulative edges, and the result of each outcome drawn so far. A
measurement's result is the post state; a swap's is what `teleport.recycle`
leaves once it has split, recycled and checked the measured group.
`measure`, `teleport` and `teleport_ghz` are one group, one lookup and one
`rng.pick`. A protocol stage (`measure_rounds` and the teleport stages) is
one loop, `_stage`: rounds with the same input objects share a group, and a
round only bisects its group's edges at its draw, the same index `rng.pick`
returns for that draw.

The public `StateVector` constructor checks everything. States the engine
computes from checked states skip what the engine guarantees (label and
dimension types, sizes, the cap) and keep the norm and finiteness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .memo import MemoStats, MemoTable, memoized
from .rng import Rng, cumulative, pick_index

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
    "measure_rounds",
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
# (16 bytes), so 2**18 is 4 MiB as charged. An entry is charged for the
# amplitudes it keeps alive (its key's bytes plus what it stores) plus
# MEMO_ENTRY_COST per stored object (measured at about 0.8 KiB each). A step
# group is one entry with its distribution and its outcome results. Entries
# share buffers (one op's result is often the next op's key), so the
# amplitude charge runs about 1.4x the amplitude bytes really held on the
# workloads below, and about 1.1x on a full table from a noisy d=7 chain.
# Protocol rounds revisit a finite set of states (prime-d rotations are
# Clifford and channel kicks are Paulis, so every state is a stabilizer
# state), and LRU over a cyclic working set larger than the table hits
# almost nothing. So the limit must hold a whole session's set. Measured
# with memo_stats() after repeated experiments, the sets stop growing at:
# two_party d=3 substituted N=256, 206 entries / 45,365 units; third_party
# trusted d=2 purified N=256, 634 / 91,044 units; pre_check d=2 loss,
# 32 / 3,940 units. Noisy multi-hop runs at d=7 never settle and hit only a
# few percent at any limit; for them a full table only costs memory (~2.6 MB
# of amplitudes held at this limit).
MEMO_LIMIT = 2**18
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
    return arr


def _check_norm(amps: np.ndarray) -> None:
    """DimensionError unless the amplitudes are finite and of unit norm."""
    nrm = float(np.vdot(amps, amps).real)
    # Every term |a|^2 is >= 0, so a finite norm rules out NaN and Inf.
    if not isfinite(nrm) and not np.all(np.isfinite(amps.view(np.float64))):
        raise DimensionError("amplitudes must be finite (no NaN/Inf)")
    if abs(nrm - 1.0) > NORM_TOL:
        raise DimensionError(f"state norm^2 = {nrm!r}, not 1 within {NORM_TOL}")


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
        _check_unique(labels)
        if any(d < 2 for d in dims):
            raise DimensionError("every subsystem dimension must be >= 2")
        total = prod(dims)
        if total > MAX_AMPLITUDES:
            raise DimensionError(
                f"state of dimension {total} exceeds cap {MAX_AMPLITUDES}"
            )
        amps = _as_complex_vector(self.amps, total)
        _check_norm(amps)
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


def _engine_state(labels: tuple[str, ...], dims: tuple[int, ...], amps) -> StateVector:
    """A state the engine computed from states that passed the constructor.

    Their labels are strings, their dimensions ints >= 2, and every result
    stays within the cap (`_tensor` checks the one op that grows a state),
    so only the amplitudes are checked here: finite and of unit norm. The
    callers that can produce a duplicate label, `_tensor` and `_relabel`,
    check it themselves.
    """
    amps = _as_complex_vector(amps)
    _check_norm(amps)
    state = object.__new__(StateVector)
    state.__dict__.update(labels=labels, dims=dims, amps=amps)
    return state


def _check_unique(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise LabelError(f"duplicate subsystem labels in {labels}")


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


def _memo_call(key: tuple, held: int, compute, *args) -> StateVector:
    """`compute(*args)`, or the state stored under `key` by an earlier call.

    held is the amplitude count of the states inside `key`; the entry is
    charged for those, the result's amplitudes and MEMO_ENTRY_COST. An
    exception propagates and leaves nothing stored.
    """
    value = _memo.get(key)
    if value is None:
        value = compute(*args)
        _memo.put(key, value, held + value.amps.size + MEMO_ENTRY_COST)
    return value


def memo_stats() -> MemoStats:
    """Counters of the operation memo since the process started.

    Every call of `tensor`, `apply_unitary` and `relabel` makes one lookup,
    and so does every step group (a measurement, or `teleport`'s swap): its
    entry also holds the result of each outcome drawn from it so far, the
    post state or the recycled rest. `measure` and a teleport are one group
    and one draw, so one lookup; a stage makes one per set of rounds with
    the same input objects.
    `held` is in the units of MEMO_LIMIT and never exceeds it.
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
    _check_unique(labels)
    return _engine_state(labels, dims, amps)


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
    axes, and the layout `_rebuild` needs to put a result back: the state's
    labels and dimensions and how the matrix was moved.
    """
    axes = _target_axes(state, targets)
    order, inverse = _axis_orders(len(state.dims), axes)
    moved = state.amps.reshape(state.dims).transpose(order)
    tdim = prod(moved.shape[: len(axes)])
    return moved.reshape(tdim, -1), axes, (state.labels, state.dims, moved.shape, inverse)


def _rebuild(layout, flat: np.ndarray) -> StateVector:
    """`flat`, laid out as `_target_matrix` gave it, as a state again."""
    labels, dims, shape, inverse = layout
    arr = flat.reshape(shape).transpose(inverse)
    return _engine_state(labels, dims, arr.reshape(-1))


def _apply_unitary(state: StateVector, op: UnitaryOp, targets: tuple[str, ...]) -> StateVector:
    mat, _, layout = _target_matrix(state, targets)
    if mat.shape[0] != op.dim:
        raise DimensionError(
            f"operator dim {op.dim} != target group dim {mat.shape[0]}"
        )
    return _rebuild(layout, op.matrix @ mat)


def apply_unitary(state: StateVector, op: UnitaryOp, targets: Sequence[str]) -> StateVector:
    """Apply `op` to the listed subsystems (in listed significance order)."""
    targets = tuple(targets)
    # Operators compare by identity, and the key's reference keeps the
    # operator alive, so a recycled id can never alias an entry.
    key = ("apply_unitary",) + _state_key(state) + (op, targets)
    return _memo_call(key, state.amps.size, _apply_unitary, state, op, targets)


class _Group:
    """A step group: one measurement, and the result of each outcome drawn.

    One table entry, under its step key: the input states' labels,
    dimensions and amplitude bytes, the targets, the basis, any operator
    and a swap's recycle table. It keeps the outcome distribution, not the
    joint state: `branch` row w is outcome w's unnormalized rest, `probs`
    the engine's Born probabilities, `edges` their cumulative sums, and
    `layout` what `_rebuild` needs. Each new result in `results` adds its
    charge to `cost`, and the group is put again under its key.

    A measurement's result is its post state. A swap's `finish` is
    (recycle, recycle_ops, canonical); its result is what
    recycle(post, targets, recycle_ops[outcome], canonical()) leaves once
    it has split off, recycled and checked the measured group.
    """

    __slots__ = (
        "key", "branch", "probs", "edges", "layout", "results", "cost", "targets", "basis", "finish"
    )

    def __init__(self, key: tuple, parts: tuple, targets: tuple, basis, op=None, finish=None):
        """Measure `targets` of tensor(parts) in `basis`, after `op` on them if given.

        Stores the group, not the joint or rotated state; an exception stores nothing.
        """
        state = parts[0] if len(parts) == 1 else _tensor(parts)
        if op is not None:
            state = _apply_unitary(state, op, targets)
        mat, _, self.layout = _target_matrix(state, targets)
        if mat.shape[0] != basis.dim:
            raise DimensionError(f"basis dim {basis.dim} != target group dim {mat.shape[0]}")
        self.branch = basis.vectors.conj() @ mat
        self.probs = np.einsum("wr,wr->w", self.branch, self.branch.conj()).real
        self.edges, self.results = cumulative(self.probs), {}
        self.key, self.targets, self.basis, self.finish = key, targets, basis, finish
        held = sum(part.amps.size for part in parts)
        self.cost = held + self.branch.size + basis.dim + MEMO_ENTRY_COST
        _memo.put(key, self, self.cost)

    def check(self, outcome: int) -> float:
        """The outcome's probability; ZeroProbabilityError below ZERO_PROB."""
        prob = float(self.probs[outcome])
        if prob < ZERO_PROB:
            raise ZeroProbabilityError(
                f"outcome {outcome} has probability {prob!r}, below {ZERO_PROB}"
            )
        return prob

    def result(self, outcome: int) -> tuple[StateVector, float]:
        """The outcome's result and probability; a failed check stores no result."""
        prob = self.check(outcome)
        result = self.results.get(outcome)
        if result is None:
            rest = self.branch[outcome] / np.sqrt(prob)
            result = _rebuild(self.layout, np.multiply.outer(self.basis.vectors[outcome], rest))
            if self.finish is not None:
                recycle, ops, canonical = self.finish
                result = recycle(result, self.targets, ops[outcome], canonical())
            self.results[outcome] = result
            self.cost += result.amps.size + MEMO_ENTRY_COST
            _memo.put(self.key, self, self.cost)
        return result, prob


def _measure_group(state: StateVector, op, targets: tuple, basis: MeasurementBasis) -> _Group:
    """Measuring `targets` of `state` in `basis`, after `op` on them if given.

    Bases and operators, like in `apply_unitary`, are held by the key.
    """
    key = ("measure",) + _state_key(state) + (targets, basis) + (() if op is None else (op,))
    group = _memo.get(key)
    return _Group(key, (state,), targets, basis, op) if group is None else group


def _swap_group(parts: tuple, targets: tuple, basis: MeasurementBasis, finish: tuple) -> _Group:
    """Measuring `targets` of tensor(parts) in `basis`; results are recycled rests.

    The recycle table joins the key, since a group keeps its results. A
    stored group takes the caller's `finish`, so every new result goes
    through the `recycle` the caller passed.
    """
    key = ("swap",) + tuple(_state_key(part) for part in parts) + (targets, basis, finish[1])
    group = _memo.get(key)
    if group is None:
        return _Group(key, parts, targets, basis, None, finish)
    group.finish = finish
    return group


def _pick(rng: Rng, group: _Group) -> tuple[int, StateVector, float]:
    """One `rng.pick` on the group's probabilities: outcome, result, probability."""
    outcome = rng.pick(group.probs)
    return (outcome, *group.result(outcome))


def _stage(
    rounds: Iterable[tuple], draws: Iterable[float], build, results: bool = True
) -> tuple[list[int], list[StateVector]]:
    """One draw per round from the group `build(*inputs)` of its inputs.

    Rounds whose input tuples hold the same objects share one group.
    draws[i] is the first `random()` of round i's stream; the outcome is
    the index `_pick` draws with that stream, bisected from the group's
    edges. Returns the outcomes and, if `results`, their results (else an
    empty list, each outcome still checked). A result a group holds was
    checked when it was computed.
    """
    groups: dict = {}
    outcomes: list[int] = []
    out: list[StateVector] = []
    for inputs, u in zip(rounds, draws):
        group = groups.get(inputs)
        if group is None:
            group = groups[inputs] = build(*inputs)
        outcome = pick_index(group.edges, u)
        outcomes.append(outcome)
        if results:
            result = group.results.get(outcome)
            if result is None:
                result = group.result(outcome)[0]
            out.append(result)
        else:
            group.check(outcome)
    return outcomes, out


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
    return _pick(rng, _measure_group(state, None, tuple(targets), basis))


def measure_rounds(
    rounds: Iterable[tuple[StateVector, Optional[UnitaryOp], Sequence[str], MeasurementBasis]],
    draws: Iterable[float],
    posts: bool = True,
) -> tuple[list[int], list[StateVector]]:
    """One measurement per round: `op` on the targets if given, then `measure`.

    Each round is (state, op or None, targets as a tuple, basis), and
    draws[i] is the first `random()` of round i's stream: the outcome is the
    one `measure` picks with that stream, and the post state the one it
    returns, so `apply_unitary` then `measure` gives the same floats. Rounds
    with the same inputs share one step group. Returns the outcomes and, if
    `posts`, the post states (an empty list otherwise).
    """
    return _stage(rounds, draws, _measure_group, posts)


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


def factor(state: StateVector, labels: Sequence[str]) -> tuple[StateVector, StateVector]:
    """Split a product state into (part on `labels`, part on the rest).

    Requires the split to be exact (Schmidt rank 1 across the cut); raises
    FactorizationError otherwise. Global phase stays on the product: the
    extracted part gets a real-positive leading amplitude and the remainder
    carries the rest of the phase.
    """
    labels = tuple(labels)
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
    rest_axes = [i for i in range(len(state.dims)) if i not in axes]
    return (
        _engine_state(
            tuple(state.labels[i] for i in axes), tuple(state.dims[i] for i in axes), part
        ),
        _engine_state(
            tuple(state.labels[i] for i in rest_axes), tuple(state.dims[i] for i in rest_axes),
            rest,
        ),
    )


def _relabel(state: StateVector, mapping: dict[str, str]) -> StateVector:
    for old in mapping:
        state.axis(old)  # raises LabelError on unknown names
    # New names enter here, so they are coerced like the constructor's.
    new_labels = tuple(str(mapping.get(l, l)) for l in state.labels)
    _check_unique(new_labels)
    return _engine_state(new_labels, state.dims, state.amps)


def relabel(state: StateVector, mapping: dict[str, str]) -> StateVector:
    """Rename subsystems; order and amplitudes are untouched."""
    key = ("relabel",) + _state_key(state) + (tuple(mapping.items()),)
    return _memo_call(key, state.amps.size, _relabel, state, mapping)
