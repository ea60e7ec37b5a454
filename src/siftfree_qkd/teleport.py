"""Qudit teleportation with byproduct tracking and pair recycling.

Teleporting |input> through the (0,0) maximally entangled pair leaves the
receiver holding X^l Z^(-k) |input> up to global phase, where (k, l) is the
sender's entangled-measurement outcome. The sender's two qudits collapse
onto the (k, l) basis vector, which two local Pauli factors turn back into
the canonical pair: nothing is consumed except the classical outcome.

Pair teleports and the middleman's triple measurement share one swap step,
`_Swap`: measure in an entangled basis, split the measured group off,
recycle it with the outcome's local Paulis and check it; none skips that.
`teleport` and `teleport_ghz` draw with `rng.pick`; `teleport_rounds` and
`teleport_ghz_rounds` run a protocol stage, one swap per group of rounds
with the same inputs, and pick each round's outcome at its draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Iterable, Optional

from .bases import (
    bell_basis, bell_pair, bell_recycle_ops, ghz_basis, ghz_recycle_ops, ghz_state, pauli_matrix,
)
from .rng import Rng
from .states import (
    NORM_TOL, DimensionError, MeasurementBasis, StateVector, UnitaryOp, _Step,
    _apply_unitary, _collapse, _memo_call, _pick, _pick_at, _state_key, _step, _tensor,
    factor, fidelity,
)

__all__ = [
    "TeleportOutcome", "teleport", "teleport_rounds", "correction_op", "recycle", "teleport_ghz",
    "teleport_ghz_rounds",
]


@dataclass(frozen=True)
class TeleportOutcome:
    """Result of one teleportation.

    k, l: entangled-measurement outcome, each in 0..d-1.
    receiver_state: everything that was not measured; for a clean pair this
        is the receiver's single qudit.
    probability: Born probability of this outcome (1/d^2 for a clean pair).
    """

    k: int
    l: int
    receiver_state: StateVector
    probability: float


def recycle(
    post: StateVector, targets: tuple[str, ...], ops: tuple[UnitaryOp, ...], canonical: StateVector
) -> StateVector:
    """Split the measured `targets` off `post`, recycle them, return the rest.

    `post` holds the targets collapsed onto one entangled-basis vector.
    ops[i] acts on targets[i + 1]; together they must turn that vector back
    into `canonical` up to global phase, or this raises AssertionError.
    """
    group, rest = factor(post, targets)
    for op, label in zip(ops, targets[1:]):
        group = _apply_unitary(group, op, (label,))
    if fidelity(group, canonical) < 1.0 - NORM_TOL:
        raise AssertionError(f"recycled {list(targets)} failed to restore the canonical state")
    return rest


def _swap_distribution(
    key: tuple, parts: tuple[StateVector, ...], targets: tuple[str, ...], basis: MeasurementBasis
) -> _Step:
    """The step of measuring `targets` of tensor(parts) in `basis`."""
    return _step(key, _tensor(parts), targets, basis)


def _swap_rest(
    targets: tuple[str, ...], basis: MeasurementBasis, branch_row, prob: float, outcome: int,
    layout, ops: tuple[UnitaryOp, ...], canonical: Callable[[], StateVector],
) -> StateVector:
    """The post state of `outcome`, recycled and checked; what is left of it."""
    post = _collapse(basis, branch_row, prob, outcome, layout)
    return recycle(post, targets, ops, canonical())


class _Swap:
    """Measure `targets` of tensor(parts) in `basis`; recycle and check them.

    Two lookups in the operation memo: the parts, targets and basis give
    the step (the outcome distribution), and its key plus an outcome and
    that outcome's operators recycle_ops[outcome] give the rest, so each
    post state is checked once and a failed check stores nothing. Neither
    entry keeps the joint state or the post state. The keys leave out
    `canonical`, which the targets and their dimensions fix; it is built
    only when a rest is computed. Rounds that swap the same parts share one
    `_Swap`, and each outcome's rest is looked up once.
    """

    __slots__ = ("step", "held", "targets", "basis", "recycle_ops", "canonical", "rests")

    def __init__(
        self, parts: tuple[StateVector, ...], targets: tuple[str, ...], basis: MeasurementBasis,
        recycle_ops: tuple[tuple[UnitaryOp, ...], ...], canonical: Callable[[], StateVector],
    ):
        key = ("swap",) + tuple(_state_key(part) for part in parts) + (targets, basis)
        sizes = [part.amps.size for part in parts]
        self.held = sum(sizes)
        self.step = _memo_call(
            key, self.held + prod(sizes) + basis.dim, _swap_distribution, key, parts, targets, basis
        )
        self.targets, self.basis = targets, basis
        self.recycle_ops, self.canonical = recycle_ops, canonical
        self.rests: dict[int, StateVector] = {}

    def rest(self, outcome: int, prob: float) -> StateVector:
        """What is left once `outcome`'s measured group is recycled and checked."""
        rest = self.rests.get(outcome)
        if rest is None:
            step, ops = self.step, self.recycle_ops[outcome]
            rest = self.rests[outcome] = _memo_call(
                (step.key, outcome, ops), self.held + step.branch.size // self.basis.dim,
                _swap_rest, self.targets, self.basis, step.branch[outcome], prob, outcome,
                step.layout, ops, self.canonical,
            )
        return rest


def _swap_rounds(
    rounds: Iterable[tuple[StateVector, ...]], draws: Iterable[float], swap_args: Callable
) -> tuple[list[int], list[StateVector]]:
    """One swap per round of its parts, the outcome picked at its draw.

    swap_args(*parts) validates a group's parts and gives the rest of its
    `_Swap` arguments; it runs once per group of rounds with the same parts.
    """
    groups: dict[tuple[StateVector, ...], _Swap] = {}
    outcomes: list[int] = []
    rests: list[StateVector] = []
    for parts, u in zip(rounds, draws):
        swap = groups.get(parts)
        if swap is None:
            swap = groups[parts] = _Swap(parts, *swap_args(*parts))
        outcome, prob = _pick_at(swap.step, u)
        outcomes.append(outcome)
        rests.append(swap.rest(outcome, prob))
    return outcomes, rests


def _teleport_args(input_state: StateVector, pair: StateVector, carrier: Optional[str]):
    """Validate a teleport; its swap's targets, basis, recycle table and canonical pair."""
    if carrier is None:
        if len(input_state.labels) != 1:
            raise DimensionError("input must be a single qudit, or name its carrier")
        carrier = input_state.labels[0]
    d = input_state.dim_of(carrier)
    if len(pair.labels) < 2:
        raise DimensionError("pair must hold at least two subsystems")
    if pair.dims[0] != d or pair.dims[1] != d:
        raise DimensionError(f"pair subsystem dims {pair.dims[:2]} do not match input dim {d}")
    if set(input_state.labels) & set(pair.labels):
        raise DimensionError("input label collides with a pair label")
    targets = (carrier, pair.labels[0])
    return targets, bell_basis(d), bell_recycle_ops(d), partial(bell_pair, d, targets)


def teleport(
    input_state: StateVector, pair: StateVector, rng: Rng, carrier: Optional[str] = None
) -> TeleportOutcome:
    """Teleport one qudit through the first two subsystems of `pair`.

    The qudit is `input_state` itself, or its subsystem `carrier` when the
    input holds more registers (a state relayed by earlier hops). Extra
    registers of either argument (channel ancillas, an eavesdropper's
    registers) travel along inside receiver_state. `rng` picks the outcome
    as in `measure`: outcome (k, l) is index k*d + l. The sender's measured
    pair is recycled with `bell_recycle_ops` and checked against the
    canonical pair.
    """
    swap = _Swap((input_state, pair), *_teleport_args(input_state, pair, carrier))
    outcome, prob = _pick(rng, swap.step)
    k, l = divmod(outcome, pair.dims[0])
    return TeleportOutcome(k, l, swap.rest(outcome, prob), prob)


def teleport_rounds(
    inputs: Iterable[StateVector], pairs: Iterable[StateVector], draws: Iterable[float],
    carrier: Optional[str] = None,
) -> tuple[list[int], list[StateVector]]:
    """`teleport` of each round's input through its pair, at its draw.

    draws[i] is the first `random()` of round i's stream: the outcome is
    the one `teleport` picks with that stream. Returns each round's outcome
    index k*d + l and its receiver state. Rounds with the same input and
    pair objects share one swap.
    """
    return _swap_rounds(zip(inputs, pairs), draws, partial(_teleport_args, carrier=carrier))


def correction_op(d: int, k: int, l: int) -> UnitaryOp:
    """Z^k X^(-l): applied by the receiver, restores |input> exactly."""
    return pauli_matrix(d, k % d, (-l) % d)


def _ghz_args(flying: StateVector, ghz: StateVector):
    """Validate a triple measurement; its swap's targets, basis, recycles, canonical state."""
    if len(flying.labels) != 2 or flying.dims != (2, 2):
        raise DimensionError("flying register must be exactly two qubits")
    if len(ghz.labels) < 3 or ghz.dims[0] != 2:
        raise DimensionError("ghz argument must start with the creator's qubit")
    if set(flying.labels) & set(ghz.labels):
        raise DimensionError("flying labels collide with ghz labels")
    targets = flying.labels + ghz.labels[:1]
    return targets, ghz_basis(), ghz_recycle_ops(), partial(ghz_state, targets)


def teleport_ghz(flying: StateVector, ghz: StateVector, rng: Rng) -> tuple[int, StateVector]:
    """Measure (flying qubits + creator's qubit) in the entangled triple basis.

    `ghz` lists the creator's retained qubit first; the remaining subsystems
    (the distributed halves, plus any extra registers) come back as the
    second element. Outcomes 0,1,4,5 leave a clean distributed pair in
    (|00>+|11>)/sqrt2 and outcomes 2,3,6,7 in (|00>-|11>)/sqrt2. The
    measured triple is recycled with `ghz_recycle_ops` and checked against
    the canonical GHZ state, as `teleport` does for pairs. `rng` picks the
    outcome as in `measure`.
    """
    swap = _Swap((flying, ghz), *_ghz_args(flying, ghz))
    outcome, prob = _pick(rng, swap.step)
    return outcome, swap.rest(outcome, prob)


def teleport_ghz_rounds(
    flying: StateVector, ghzs: Iterable[StateVector], draws: Iterable[float]
) -> tuple[list[int], list[StateVector]]:
    """`teleport_ghz` of `flying` with each round's triple, at its draw.

    As `teleport_rounds`: returns each round's outcome and rest, and rounds
    with the same triple object share one swap.
    """
    return _swap_rounds(((flying, ghz) for ghz in ghzs), draws, _ghz_args)
