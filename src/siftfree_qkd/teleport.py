"""Qudit teleportation with byproduct tracking and pair recycling.

Teleporting |input> through the (0,0) maximally entangled pair leaves the
receiver holding X^l Z^(-k) |input> up to global phase, where (k, l) is the
sender's entangled-measurement outcome. The sender's two qudits collapse
onto the (k, l) basis vector, which two local Pauli factors turn back into
the canonical pair: nothing is consumed except the classical outcome.

This module holds the physics: each swap's argument checks, its entangled
basis, recycle table and canonical state, and `recycle`. Pair teleports
and the middleman's triple measurement are both a swap step group of
`states` (measure in the entangled basis; each outcome's result is what
`recycle` leaves once it has split, recycled and checked the measured
group), so none skips the check. `teleport` and `teleport_ghz` are one
group and one `rng.pick`; `teleport_rounds` and `teleport_ghz_rounds` run
a protocol stage through the stage loop of `states`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Iterable, Optional

from .bases import (
    bell_basis, bell_pair, bell_recycle_ops, ghz_basis, ghz_recycle_ops, ghz_state, pauli_matrix,
)
from .rng import Rng
from .states import (
    NORM_TOL, DimensionError, StateVector, UnitaryOp, _pick, _stage, _swap_group, factor, fidelity,
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
    # Plain products, not `apply_unitary`: the swap group memoizes what
    # recycling leaves, and the recycled group is never asked for again.
    amps, dims = group.amps, group.dims
    for axis, op in enumerate(ops, 1):
        amps = op.matrix @ amps.reshape(prod(dims[:axis]), dims[axis], -1)
    restored = StateVector(group.labels, dims, amps.reshape(-1))
    if fidelity(restored, canonical) < 1.0 - NORM_TOL:
        raise AssertionError(f"recycled {list(targets)} failed to restore the canonical state")
    return rest


def _teleport_group(input_state: StateVector, pair: StateVector, carrier: Optional[str] = None):
    """Validate a teleport; the swap group of its Bell measurement."""
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
    return _swap_group(
        (input_state, pair), targets, bell_basis(d),
        (recycle, bell_recycle_ops(d), partial(bell_pair, d, targets)),
    )


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
    outcome, rest, prob = _pick(rng, _teleport_group(input_state, pair, carrier))
    k, l = divmod(outcome, pair.dims[0])
    return TeleportOutcome(k, l, rest, prob)


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
    return _stage(zip(inputs, pairs), draws, partial(_teleport_group, carrier=carrier))


def correction_op(d: int, k: int, l: int) -> UnitaryOp:
    """Z^k X^(-l): applied by the receiver, restores |input> exactly."""
    return pauli_matrix(d, k % d, (-l) % d)


def _ghz_group(flying: StateVector, ghz: StateVector):
    """Validate a triple measurement; the swap group of its GHZ-basis measurement."""
    if len(flying.labels) != 2 or flying.dims != (2, 2):
        raise DimensionError("flying register must be exactly two qubits")
    if len(ghz.labels) < 3 or ghz.dims[0] != 2:
        raise DimensionError("ghz argument must start with the creator's qubit")
    if set(flying.labels) & set(ghz.labels):
        raise DimensionError("flying labels collide with ghz labels")
    targets = flying.labels + ghz.labels[:1]
    return _swap_group(
        (flying, ghz), targets, ghz_basis(),
        (recycle, ghz_recycle_ops(), partial(ghz_state, targets)),
    )


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
    outcome, rest, _ = _pick(rng, _ghz_group(flying, ghz))
    return outcome, rest


def teleport_ghz_rounds(
    flying: StateVector, ghzs: Iterable[StateVector], draws: Iterable[float]
) -> tuple[list[int], list[StateVector]]:
    """`teleport_ghz` of `flying` with each round's triple, at its draw.

    As `teleport_rounds`: returns each round's outcome and rest, and rounds
    with the same triple object share one swap.
    """
    return _stage(((flying, ghz) for ghz in ghzs), draws, _ghz_group)
