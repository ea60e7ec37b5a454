"""Transmission channel models, eavesdropper strategies, and attack reports.

A channel model describes what happens to the transmitted half of an
entangled state on its way to the receiver:

    Ideal             pass through untouched
    Depolarizing(p)   with probability p, apply one of the d^2 generalized
                      Paulis (identity included) chosen uniformly; sampled
                      per transmission, trajectory style
    Loss(p)           with probability p < 1 the carrier vanishes and the
                      session retransmits a fresh one
    SubstitutedAttack the eavesdropper keeps the real half and hands the
                      receiver one half of her own entangled pair
    PurifiedAttack    a fresh d-level ancilla |0> is attached and the
                      controlled shift |b>|e> -> |b>|e + b> couples carrier
                      and ancilla; Eve keeps the ancilla
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .bases import bell_pair, pauli_matrix
from .memo import memoized
from .rng import Rng
from .states import (
    DimensionError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    basis_state,
    relabel,
    tensor,
)

__all__ = [
    "Ideal",
    "Depolarizing",
    "Loss",
    "SubstitutedAttack",
    "PurifiedAttack",
    "ChannelModel",
    "ChannelResult",
    "added_dim",
    "apply_channel",
    "controlled_shift",
    "AttackReport",
    "attack_report",
]


@dataclass(frozen=True)
class Ideal:
    kind: str = field(default="ideal", init=False)


@dataclass(frozen=True)
class Depolarizing:
    p: float
    kind: str = field(default="depolarizing", init=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DimensionError(f"depolarizing probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class Loss:
    p: float
    kind: str = field(default="loss", init=False)

    def __post_init__(self):
        # p = 1 would lose every carrier and retransmit forever.
        if not 0.0 <= self.p < 1.0:
            raise DimensionError(f"loss probability {self.p} outside [0, 1)")


@dataclass(frozen=True)
class SubstitutedAttack:
    kind: str = field(default="substituted", init=False)


@dataclass(frozen=True)
class PurifiedAttack:
    kind: str = field(default="purified", init=False)


ChannelModel = Union[Ideal, Depolarizing, Loss, SubstitutedAttack, PurifiedAttack]


@dataclass(frozen=True)
class ChannelResult:
    """Post-transmission composite plus the registers the adversary kept.

    eve_labels lists the adversary's subsystems inside `state`; the first
    one is the register she decodes from. lost=True means the carrier never
    arrived and `state` is the untouched input.
    """

    state: StateVector
    eve_labels: tuple[str, ...] = ()
    lost: bool = False


def added_dim(model: ChannelModel, d: int) -> int:
    """Total dimension of the registers `model` adds to a sent d-level pair."""
    if isinstance(model, SubstitutedAttack):
        return d * d  # Eve keeps the sent half and one half of her own pair
    if isinstance(model, PurifiedAttack):
        return d  # the coupled ancilla
    return 1


def _fresh_label(state: StateVector, base: str) -> str:
    label = base
    n = 0
    while label in state.labels:
        n += 1
        label = f"{base}{n}"
    return label


def apply_channel(
    state: StateVector, b_label: str, model: ChannelModel, rng: Rng
) -> ChannelResult:
    """Send subsystem `b_label` of `state` through `model`.

    The receiver's subsystem keeps its label so downstream protocol code is
    channel-agnostic; adversary registers get fresh labels.
    """
    d = state.dim_of(b_label)
    if isinstance(model, Ideal):
        return ChannelResult(state)
    if isinstance(model, Loss):
        if rng.random() < model.p:
            return ChannelResult(state, lost=True)
        return ChannelResult(state)
    if isinstance(model, Depolarizing):
        if rng.random() < model.p:
            a = int(rng.integers(0, d))
            b = int(rng.integers(0, d))
            state = apply_unitary(state, pauli_matrix(d, a, b), [b_label])
        return ChannelResult(state)
    if isinstance(model, SubstitutedAttack):
        stolen = _fresh_label(state, f"{b_label}#eve")
        kept = _fresh_label(state, f"{b_label}#keep")
        grabbed = relabel(state, {b_label: stolen})
        return ChannelResult(tensor([grabbed, bell_pair(d, (b_label, kept))]), (stolen, kept))
    if isinstance(model, PurifiedAttack):
        anc = _fresh_label(state, f"{b_label}#anc")
        joint = tensor([state, basis_state(d, 0, anc)])
        joint = apply_unitary(joint, controlled_shift(d), [b_label, anc])
        return ChannelResult(joint, (anc,))
    raise DimensionError(f"unknown channel model {model!r}")


@memoized
def controlled_shift(d: int) -> UnitaryOp:
    """|b>|e> -> |b>|e + b mod d>, the textbook copy-style coupling.

    Memoized, so every session of an experiment shares one coupling object
    and the engine's memo (keyed on that object) answers across sessions.
    """
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for b in range(d):
        for e in range(d):
            mat[b * d + (e + b) % d, b * d + e] = 1.0
    return UnitaryOp(d * d, mat)


@dataclass(frozen=True)
class AttackReport:
    """Digit-level agreement rates over the final key positions."""

    bob_alice_match_rate: float
    eve_alice_match_rate: float
    detected: bool


def attack_report(key_result, d: int) -> AttackReport:
    """Summarize an attacked session of dimension d.

    Eve's rate is over the digits recorded in the session result; without
    an adversary it is the blind baseline 1/d.
    """
    alice = np.asarray(key_result.alice_digits)
    bob = np.asarray(key_result.bob_digits)
    checks = set(key_result.check_positions)
    key_pos = [r for r in range(len(alice)) if r not in checks]
    key_pos = [r for r in key_pos if alice[r] >= 0 and bob[r] >= 0]
    if not key_pos:
        raise DimensionError("session holds no comparable key positions")
    bob_rate = float(np.mean(alice[key_pos] == bob[key_pos]))
    if key_result.eve_digits is None:
        eve_rate = 1.0 / d
    else:
        eve = np.asarray(key_result.eve_digits)
        eve_rate = float(np.mean(alice[key_pos] == eve[key_pos]))
    return AttackReport(bob_rate, eve_rate, bool(key_result.aborted))
