"""Qudit teleportation with byproduct tracking and pair recycling.

Teleporting |input> through the (0,0) maximally entangled pair leaves the
receiver holding X^l Z^(-k) |input> up to global phase, where (k, l) is the
sender's entangled-measurement outcome. The sender's two qudits collapse
onto the (k, l) basis vector, which two local Pauli factors turn back into
the canonical pair: nothing is consumed except the classical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bases import bell_basis, bell_pair, ghz_basis, ghz_recycle_ops, ghz_state, pauli_matrix
from .memo import memoized
from .rng import Rng
from .states import (
    NORM_TOL,
    DimensionError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    factor,
    fidelity,
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
    "verify_recycle",
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


def _joint(
    input_state: StateVector, pair: StateVector, carrier: Optional[str]
) -> tuple[StateVector, list[str], int]:
    """Check the arguments; return the joint state, the two targets and d."""
    if carrier is None:
        if len(input_state.labels) != 1:
            raise DimensionError("input must be a single qudit, or name its carrier")
        carrier = input_state.labels[0]
    d = input_state.dim_of(carrier)
    if len(pair.labels) < 2:
        raise DimensionError("pair must hold at least two subsystems")
    if pair.dims[0] != d or pair.dims[1] != d:
        raise DimensionError(
            f"pair subsystem dims {pair.dims[:2]} do not match input dim {d}"
        )
    if set(input_state.labels) & set(pair.labels):
        raise DimensionError("input label collides with a pair label")
    return tensor([input_state, pair]), [carrier, pair.labels[0]], d


def _split_outcome(targets, outcome, post, prob, d) -> TeleportOutcome:
    k, l = divmod(outcome, d)
    residual, receiver = factor(post, targets)
    return TeleportOutcome(k, l, residual, receiver, float(prob))


def teleport(
    input_state: StateVector, pair: StateVector, rng: Rng, carrier: Optional[str] = None
) -> TeleportOutcome:
    """Teleport one qudit through the first two subsystems of `pair`.

    The qudit is `input_state` itself, or its subsystem `carrier` when the
    input holds more registers (a state relayed by earlier hops). Extra
    registers of either argument (channel ancillas, an eavesdropper's
    registers) travel along inside receiver_state.
    """
    joint, targets, d = _joint(input_state, pair, carrier)
    outcome, post, prob = measure(joint, targets, bell_basis(d), rng)
    return _split_outcome(targets, outcome, post, prob, d)


def teleport_forced(
    input_state: StateVector, pair: StateVector, k: int, l: int, carrier: Optional[str] = None
) -> TeleportOutcome:
    """Teleport with a fixed (k, l) outcome; probability comes back exact."""
    joint, targets, d = _joint(input_state, pair, carrier)
    basis = bell_basis(d)
    outcome = basis.index(k, l)
    post, prob = measure_forced(joint, targets, basis, outcome)
    return _split_outcome(targets, outcome, post, prob, d)


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


def verify_recycle(outcome: TeleportOutcome) -> StateVector:
    """Recycle the sender's residual; AssertionError unless it is the canonical pair."""
    residual = outcome.sender_residual
    restored = recycle(residual, outcome.k, outcome.l)
    if fidelity(restored, bell_pair(residual.dims[0], residual.labels)) < 1.0 - NORM_TOL:
        raise AssertionError("recycled pair failed to restore the canonical state")
    return restored


def _ghz_joint(flying: StateVector, ghz: StateVector) -> tuple[StateVector, list[str]]:
    """Check the arguments; return the joint state and the three targets."""
    if len(flying.labels) != 2 or flying.dims != (2, 2):
        raise DimensionError("flying register must be exactly two qubits")
    if len(ghz.labels) < 3 or ghz.dims[0] != 2:
        raise DimensionError("ghz argument must start with the creator's qubit")
    if set(flying.labels) & set(ghz.labels):
        raise DimensionError("flying labels collide with ghz labels")
    return tensor([flying, ghz]), list(flying.labels) + [ghz.labels[0]]


@memoized
def _ghz_fix(outcome: int) -> tuple[UnitaryOp, UnitaryOp]:
    """The fix-ups on qubits 2 and 3 of the triple measured as `outcome`."""
    op2, op3 = ghz_recycle_ops()[outcome]
    return op2.matrix(), op3.matrix()


def _recycle_ghz(post: StateVector, targets: list[str], outcome: int) -> StateVector:
    """Split off the measured triple, restore it to GHZ form, return the rest."""
    residual, rest = factor(post, targets)
    op2, op3 = _ghz_fix(outcome)
    restored = apply_unitary(residual, op2, [targets[1]])
    restored = apply_unitary(restored, op3, [targets[2]])
    if fidelity(restored, ghz_state(tuple(targets))) < 1.0 - NORM_TOL:
        raise AssertionError("recycled triple failed to restore canonical form")
    return rest


def teleport_ghz(
    flying: StateVector, ghz: StateVector, rng: Rng
) -> tuple[int, StateVector]:
    """Measure (flying qubits + creator's qubit) in the entangled triple basis.

    `ghz` lists the creator's retained qubit first; the remaining subsystems
    (the distributed halves, plus any extra registers) come back as the
    second element. Outcomes 0,1,4,5 leave a clean distributed pair in
    (|00>+|11>)/sqrt2 and outcomes 2,3,6,7 in (|00>-|11>)/sqrt2. The
    measured triple is recycled with `ghz_recycle_ops` and checked against
    the canonical GHZ state, as `verify_recycle` does for pairs.
    """
    joint, targets = _ghz_joint(flying, ghz)
    outcome, post, _ = measure(joint, targets, ghz_basis(), rng)
    return outcome, _recycle_ghz(post, targets, outcome)


def teleport_ghz_forced(
    flying: StateVector, ghz: StateVector, outcome: int
) -> tuple[StateVector, float]:
    """Forced-outcome variant of `teleport_ghz`; returns (rest, probability)."""
    joint, targets = _ghz_joint(flying, ghz)
    post, prob = measure_forced(joint, targets, ghz_basis(), outcome)
    return _recycle_ghz(post, targets, outcome), float(prob)
