"""Qudit teleportation with byproduct tracking and pair recycling.

Teleporting |input> through the (0,0) maximally entangled pair leaves the
receiver holding X^l Z^(-k) |input> up to global phase, where (k, l) is the
sender's entangled-measurement outcome. The sender's two qudits collapse
onto the (k, l) basis vector, which two local Pauli factors turn back into
the canonical pair: nothing is consumed except the classical outcome.

Pair teleports and the middleman's triple measurement share one swap step,
`_swap`: measure in an entangled basis, split the measured group off,
recycle it with the outcome's local Paulis and check it; none skips that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Optional

from .bases import (
    bell_basis, bell_pair, bell_recycle_ops, ghz_basis, ghz_recycle_ops, ghz_state, pauli_matrix,
)
from .rng import Rng
from .states import (
    NORM_TOL, DimensionError, MeasurementBasis, StateVector, UnitaryOp,
    _apply_unitary, _collapse, _memo_call, _outcome_amplitudes, _pick, _state_key, _tensor,
    factor, fidelity,
)

__all__ = ["TeleportOutcome", "teleport", "correction_op", "recycle", "teleport_ghz"]


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
    parts: tuple[StateVector, ...], targets: tuple[str, ...], basis: MeasurementBasis
):
    """Outcome branches, probabilities and layout of `targets` of tensor(parts)."""
    return _outcome_amplitudes(_tensor(parts), targets, basis)


def _swap_rest(
    targets: tuple[str, ...], basis: MeasurementBasis, branch_row, prob: float, outcome: int,
    layout, ops: tuple[UnitaryOp, ...], canonical: Callable[[], StateVector],
) -> StateVector:
    """The post state of `outcome`, recycled and checked; what is left of it."""
    post = _collapse(basis, branch_row, prob, outcome, layout)
    return recycle(post, targets, ops, canonical())


def _swap(
    parts: tuple[StateVector, ...], targets: tuple[str, ...], basis: MeasurementBasis,
    recycle_ops: tuple[tuple[UnitaryOp, ...], ...], canonical: Callable[[], StateVector],
    rng: Rng,
) -> tuple[int, StateVector, float]:
    """Measure `targets` of tensor(parts) in `basis`; recycle and check them.

    Returns (outcome, rest, probability); `rng` picks the outcome as in
    `measure`, and recycle_ops[outcome] recycles it. Two lookups in the
    operation memo: the parts, targets and basis give the outcome
    distribution, and that key plus the outcome and its operators give the
    rest, so each post state is checked once and a failed check stores
    nothing. Neither entry keeps the joint state or the post state. The
    keys leave out `canonical`, which the targets and their dimensions fix;
    it is built only when a rest is computed.
    """
    key = ("swap",) + tuple(_state_key(part) for part in parts) + (targets, basis)
    sizes = [part.amps.size for part in parts]
    held, joint = sum(sizes), prod(sizes)
    branch, probs, layout = _memo_call(
        key, held + joint + basis.dim, _swap_distribution, parts, targets, basis
    )
    outcome, prob = _pick(rng, probs)
    ops = recycle_ops[outcome]
    rest = _memo_call(
        (key, outcome, ops), held + joint // basis.dim, _swap_rest,
        targets, basis, branch[outcome], prob, outcome, layout, ops, canonical,
    )
    return outcome, rest, prob


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
    outcome, receiver, prob = _swap(
        (input_state, pair), targets, bell_basis(d), bell_recycle_ops(d),
        partial(bell_pair, d, targets), rng,
    )
    k, l = divmod(outcome, d)
    return TeleportOutcome(k, l, receiver, prob)


def correction_op(d: int, k: int, l: int) -> UnitaryOp:
    """Z^k X^(-l): applied by the receiver, restores |input> exactly."""
    return pauli_matrix(d, k % d, (-l) % d)


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
    if len(flying.labels) != 2 or flying.dims != (2, 2):
        raise DimensionError("flying register must be exactly two qubits")
    if len(ghz.labels) < 3 or ghz.dims[0] != 2:
        raise DimensionError("ghz argument must start with the creator's qubit")
    if set(flying.labels) & set(ghz.labels):
        raise DimensionError("flying labels collide with ghz labels")
    targets = flying.labels + ghz.labels[:1]
    outcome, rest, _ = _swap(
        (flying, ghz), targets, ghz_basis(), ghz_recycle_ops(), partial(ghz_state, targets), rng
    )
    return outcome, rest
