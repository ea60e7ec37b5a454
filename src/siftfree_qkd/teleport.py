"""Qudit teleportation with byproduct tracking and pair recycling.

Teleporting |input> through the (0,0) maximally entangled pair leaves the
receiver holding X^l Z^(-k) |input> up to global phase, where (k, l) is the
sender's entangled-measurement outcome. The sender's two qudits collapse
onto the (k, l) basis vector, which two local Pauli factors turn back into
the canonical pair: nothing is consumed except the classical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import bell_basis, ghz_basis, pauli_matrix
from .memo import memoized
from .rng import Rng
from .states import (
    DimensionError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    factor,
    measure,
    measure_forced,
    tensor,
)

__all__ = [
    "TeleportOutcome",
    "teleport",
    "teleport_forced",
    "correction_op",
    "recycle",
    "teleport_ghz",
    "teleport_ghz_forced",
]


@dataclass(frozen=True)
class TeleportOutcome:
    """Result of one teleportation.

    k, l: entangled-measurement outcome, each in 0..d-1.
    sender_residual: the sender's two qudits, collapsed onto the (k, l)
        basis vector (ready for `recycle`).
    receiver_state: everything that was not measured; for a clean pair this
        is the receiver's single qudit.
    probability: Born probability of this outcome (1/d^2 for a clean pair).
    """

    k: int
    l: int
    sender_residual: StateVector
    receiver_state: StateVector
    probability: float


def _check_teleport_args(input_state: StateVector, pair: StateVector) -> int:
    if len(input_state.labels) != 1:
        raise DimensionError("input must be a single qudit")
    d = input_state.dims[0]
    if len(pair.labels) < 2:
        raise DimensionError("pair must hold at least two subsystems")
    if pair.dims[0] != d or pair.dims[1] != d:
        raise DimensionError(
            f"pair subsystem dims {pair.dims[:2]} do not match input dim {d}"
        )
    if input_state.labels[0] in pair.labels:
        raise DimensionError("input label collides with a pair label")
    return d


def _split_outcome(joint, targets, outcome, post, prob, d) -> TeleportOutcome:
    k, l = divmod(outcome, d)
    residual, receiver = factor(post, targets)
    return TeleportOutcome(k, l, residual, receiver, float(prob))


def teleport(input_state: StateVector, pair: StateVector, rng: Rng) -> TeleportOutcome:
    """Teleport a single qudit through the first two subsystems of `pair`.

    `pair` may carry extra subsystems (channel ancillas, an eavesdropper's
    registers); they travel along inside receiver_state.
    """
    d = _check_teleport_args(input_state, pair)
    joint = tensor([input_state, pair])
    targets = [input_state.labels[0], pair.labels[0]]
    outcome, post, prob = measure(joint, targets, bell_basis(d), rng)
    return _split_outcome(joint, targets, outcome, post, prob, d)


def teleport_forced(
    input_state: StateVector, pair: StateVector, k: int, l: int
) -> TeleportOutcome:
    """Teleport with a fixed (k, l) outcome; probability comes back exact."""
    d = _check_teleport_args(input_state, pair)
    joint = tensor([input_state, pair])
    targets = [input_state.labels[0], pair.labels[0]]
    basis = bell_basis(d)
    outcome = basis.index(k, l)
    post, prob = measure_forced(joint, targets, basis, outcome)
    return _split_outcome(joint, targets, outcome, post, prob, d)


def correction_op(d: int, k: int, l: int) -> UnitaryOp:
    """Z^k X^(-l): applied by the receiver, restores |input> exactly."""
    return pauli_matrix(d, k % d, (-l) % d)


@memoized
def _recycle_fix(d: int, k: int, l: int) -> UnitaryOp:
    """X^(-l) Z^(-k), the second-qudit fix-up after outcome (k, l)."""
    return pauli_matrix(d, 0, (-l) % d) @ pauli_matrix(d, (-k) % d, 0)


def recycle(residual: StateVector, k: int, l: int) -> StateVector:
    """Restore a collapsed sender pair to the canonical (0, 0) pair.

    Applies X^(-l) Z^(-k) to the second qudit; the result matches
    bell_pair(d) up to global phase.
    """
    if len(residual.labels) != 2 or residual.dims[0] != residual.dims[1]:
        raise DimensionError("residual must be a pair of equal-dimension qudits")
    d = residual.dims[0]
    return apply_unitary(residual, _recycle_fix(d, k % d, l % d), [residual.labels[1]])


def _check_ghz_args(flying: StateVector, ghz: StateVector) -> list[str]:
    if len(flying.labels) != 2 or flying.dims != (2, 2):
        raise DimensionError("flying register must be exactly two qubits")
    if len(ghz.labels) < 3 or ghz.dims[0] != 2:
        raise DimensionError("ghz argument must start with the creator's qubit")
    if set(flying.labels) & set(ghz.labels):
        raise DimensionError("flying labels collide with ghz labels")
    return list(flying.labels) + [ghz.labels[0]]


def teleport_ghz(
    flying: StateVector, ghz: StateVector, rng: Rng
) -> tuple[int, StateVector]:
    """Measure (flying qubits + creator's qubit) in the entangled triple basis.

    `ghz` lists the creator's retained qubit first; the remaining subsystems
    (the distributed halves, plus any extra registers) come back as the
    second element. Outcomes 0,1,4,5 leave a clean distributed pair in
    (|00>+|11>)/sqrt2 and outcomes 2,3,6,7 in (|00>-|11>)/sqrt2.
    """
    targets = _check_ghz_args(flying, ghz)
    joint = tensor([flying, ghz])
    outcome, post, _ = measure(joint, targets, ghz_basis(), rng)
    _, rest = factor(post, targets)
    return outcome, rest


def teleport_ghz_forced(
    flying: StateVector, ghz: StateVector, outcome: int
) -> tuple[StateVector, float]:
    """Forced-outcome variant of `teleport_ghz`; returns (rest, probability)."""
    targets = _check_ghz_args(flying, ghz)
    joint = tensor([flying, ghz])
    post, prob = measure_forced(joint, targets, ghz_basis(), outcome)
    _, rest = factor(post, targets)
    return rest, float(prob)
