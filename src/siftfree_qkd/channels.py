"""Transmission channel models, eavesdropper strategies, and attack analysis.

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
    PurifiedAttack    a fresh ancilla |0> is attached and a fixed unitary
                      couples carrier and ancilla; the most general
                      one-ancilla interaction up to the ancilla dimension

Also here: Monte Carlo estimation of the blind-guessing bound (a party who
never touches the carrier guesses a uniform secret dit with rate exactly
1/d, whatever state she shares and however she measures), and the exact
correspondence between a purified attack on this protocol and the standard
prepare-and-measure attack form U_E[U_i|s+l>|0>].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .bases import bell_pair, mub_family, pauli_matrix
from .memo import memoized
from .rng import Rng
from .states import (
    DimensionError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    basis_state,
    fidelity,
    relabel,
    tensor,
)
from .teleport import teleport_forced

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
    "haar_unitary",
    "haar_state",
    "controlled_shift",
    "blind_guess_monte_carlo",
    "bb84_correspondence_check",
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
    """u_e couples the carrier (first) with an ancilla of dim u_e.dim // d."""

    u_e: UnitaryOp
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


def _ancilla_dim(u_e: UnitaryOp, d: int) -> int:
    """Dimension of the ancilla that `u_e` couples to a d-level carrier."""
    if u_e.dim % d or u_e.dim < 2 * d:
        raise DimensionError(
            f"coupling unitary dim {u_e.dim} is not carrier {d} times an ancilla of dim >= 2"
        )
    return u_e.dim // d


def added_dim(model: ChannelModel, d: int) -> int:
    """Total dimension of the registers `model` adds to a sent d-level pair."""
    if isinstance(model, SubstitutedAttack):
        return d * d  # Eve keeps the sent half and one half of her own pair
    if isinstance(model, PurifiedAttack):
        return _ancilla_dim(model.u_e, d)
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
        joint = tensor([state, basis_state(_ancilla_dim(model.u_e, d), 0, anc)])
        joint = apply_unitary(joint, model.u_e, [b_label, anc])
        return ChannelResult(joint, (anc,))
    raise DimensionError(f"unknown channel model {model!r}")


def haar_unitary(dim: int, rng: Rng) -> UnitaryOp:
    """Haar-distributed unitary via QR of a complex gaussian matrix."""
    z = rng.complex_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return UnitaryOp(dim, q * (diag / np.abs(diag)))


def haar_state(dim: int, rng: Rng) -> np.ndarray:
    """Haar-distributed unit vector."""
    v = rng.complex_normal(dim)
    return v / np.linalg.norm(v)


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


def blind_guess_monte_carlo(
    d: int, n_strategies: int, trials_per: int, rng: Rng
) -> float:
    """Estimate the success rate of guessing a uniform secret dit blind.

    Each strategy draws a Haar-random shared pure state on two d-level
    registers and Haar-random projective measurements for both the guesser
    and her partner. The two measurements commute (disjoint registers), so
    one draw from their exact joint Born distribution per trial is a
    faithful sample. The pooled success rate estimates a quantity that is
    exactly 1/d for every strategy.
    """
    if n_strategies < 1 or trials_per < 1:
        raise DimensionError("need at least one strategy and one trial")
    hits = 0
    for strat in range(n_strategies):
        srng = rng.child(strat)
        eta = haar_state(d * d, srng).reshape(d, d)  # index (guesser, partner)
        guess_vecs = haar_unitary(d, srng).matrix.T  # row t: outcome-t vector
        partner_vecs = haar_unitary(d, srng).matrix.T
        amp = guess_vecs.conj() @ eta @ partner_vecs.conj().T
        joint = (np.abs(amp) ** 2).reshape(-1)
        trng = srng.child(0)
        for _ in range(trials_per):
            secret = int(trng.integers(0, d))
            outcome = trng.pick(joint)
            guess = outcome // d
            hits += int(guess == secret)
    return hits / (n_strategies * trials_per)


def bb84_correspondence_check(
    u_e: UnitaryOp,
    s: int,
    l: int,
    i: int,
    k: int = 0,
    d: int = 2,
    m: int = 2,
) -> float:
    """Fidelity between the protocol's receiver+ancilla state and the
    prepare-and-measure attack form U_E[(U_i |s+l>) |0>].

    The protocol side is computed end to end: rotate the pair half, couple
    the ancilla, teleport |s> with forced outcome (k, l). Equality (up to
    global phase, hence fidelity 1) says a purified attack on this protocol
    is exactly an attack on a prepare-and-measure scheme.
    """
    anc_dim = _ancilla_dim(u_e, d)
    fam = mub_family(d, m)
    rot = fam.unitaries[i]

    pair = bell_pair(d, ("A", "B"))
    pair = apply_unitary(pair, rot, ["B"])
    joint = tensor([pair, basis_state(anc_dim, 0, "E")])
    joint = apply_unitary(joint, u_e, ["B", "E"])
    out = teleport_forced(basis_state(d, s, "A_in"), joint, k, l)
    protocol_side = out.receiver_state  # subsystems B, E

    prepared = apply_unitary(basis_state(d, (s + l) % d, "B"), rot, ["B"])
    reference = tensor([prepared, basis_state(anc_dim, 0, "E")])
    reference = apply_unitary(reference, u_e, ["B", "E"])
    return fidelity(protocol_side, reference)


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
