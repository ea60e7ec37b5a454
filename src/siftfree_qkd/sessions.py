"""End-to-end key distribution sessions over qudit teleportation.

All variants share one idea: the sender teleports uniformly random secret
dits through maximally entangled pairs whose transmitted halves were
rotated by randomly chosen mutually-unbiased-basis unitaries, so nothing
about the encoding basis is public while any carrier is in flight. No
round is ever sifted away; eavesdropping is caught by comparing a random
subset of positions. Every teleportation leaves the sender's two qudits in
a known entangled state that two local Paulis restore, so the pairs are
recycled rather than consumed.

Variants:
    run_two_party    rotate-transmit-teleport, digit comparison at the end
    run_pre_check    entanglement is verified by basis measurements before
                     any secret dit is teleported; survivors carry the key
    run_third_party  an (un)trusted middleman distributes three-qubit
                     states and converts them to shared pairs by an
                     entangled measurement, publishing only the sign class
    run_chain        hop-by-hop teleportation across intermediaries with
                     all byproduct corrections deferred to the receiver

Classical traffic is recorded as an append-only transcript with a stable
line format, so runs are byte-for-byte reproducible from their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bases import (
    MubFamily,
    bell_basis,
    bell_pair,
    computational_basis,
    ghz_basis,
    ghz_recycle_ops,
    ghz_state,
    is_prime,
    mub_family,
    pauli_matrix,
)
from .channels import (
    ChannelModel,
    ChannelResult,
    Ideal,
    PurifiedAttack,
    SubstitutedAttack,
    apply_channel,
)
from .rng import Rng
from .states import (
    NORM_TOL,
    StateVector,
    apply_unitary,
    basis_state,
    factor,
    fidelity,
    measure,
    measure_forced,
    tensor,
)
from .teleport import recycle

__all__ = [
    "ConfigError",
    "ALICE",
    "BOB",
    "CHARLIE",
    "EVERYONE",
    "MESSAGE_KINDS",
    "ClassicalMessage",
    "serialize_transcript",
    "parse_transcript",
    "SessionConfig",
    "ChainConfig",
    "KeyResult",
    "run_two_party",
    "run_pre_check",
    "run_third_party",
    "run_chain",
]


class ConfigError(ValueError):
    """A session or experiment was configured inconsistently."""


ALICE = "alice"
BOB = "bob"
CHARLIE = "charlie"
EVERYONE = "all"

MESSAGE_KINDS = frozenset(
    {
        "ack_received",
        "publish_l",
        "publish_b",
        "publish_k",
        "check_positions",
        "check_values",
        "abort",
        "proceed",
        "charlie_mask_reveal",
        "pair_lost",
        "pair_retransmitted",
    }
)

# Purpose indices for child random streams. Each protocol variant draws a
# given quantity from the same child, which keeps e.g. the secret dits of a
# one-hop chain aligned with a plain two-party run under the same seed.
_R_ROTATIONS = 0
_R_SECRETS = 1
_R_CHANNEL = 2
_R_TELEPORT = 3
_R_RECEIVER = 4
_R_CHECK_POS = 5
_R_CHECK_BASIS = 6
_R_SENDER_MEAS = 7
_R_EVE = 8
_R_MASKS = 9
_R_TRIPLE = 10


@dataclass(frozen=True)
class ClassicalMessage:
    """One record on the public classical channel.

    payload is a sequence of small integers; its meaning per kind is part
    of the wire format documented in `serialize_transcript`.
    """

    sender: str
    recipient: str
    kind: str
    payload: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ConfigError(f"unknown message kind {self.kind!r}")
        object.__setattr__(self, "payload", tuple(int(x) for x in self.payload))


def serialize_transcript(messages: Sequence[ClassicalMessage]) -> str:
    """One message per line: `sender recipient kind payload`.

    The payload field is the comma-joined integer list, or `-` when empty.
    The result ends with a newline when any message exists.
    """
    lines = []
    for msg in messages:
        payload = ",".join(str(x) for x in msg.payload) if msg.payload else "-"
        lines.append(f"{msg.sender} {msg.recipient} {msg.kind} {payload}")
    return "".join(line + "\n" for line in lines)


def parse_transcript(text: str) -> tuple[ClassicalMessage, ...]:
    messages = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 4:
            raise ConfigError(f"transcript line {lineno} is malformed: {line!r}")
        sender, recipient, kind, payload = parts
        values = () if payload == "-" else tuple(int(x) for x in payload.split(","))
        messages.append(ClassicalMessage(sender, recipient, kind, values))
    return tuple(messages)


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one key distribution session.

    d: prime carrier dimension (dits of the key).
    m: number of mutually unbiased bases in play (2..d+1; 3 at most for d=2).
    key_length: N, the number of final key dits; 2N rounds run in total.
    abort_threshold: abort when the observed error rate exceeds this.
    check_mode: "final_digits" compares teleported digits afterwards;
        "pre_measurement" verifies entanglement before any digit flows.
    seed: 64-bit seed; together with the config it fixes every outcome.
    channel: model applied to each transmitted half.
    """

    d: int
    m: int
    key_length: int
    abort_threshold: float = 0.05
    check_mode: str = "final_digits"
    seed: int = 0
    channel: ChannelModel = field(default_factory=Ideal)

    def __post_init__(self):
        if not is_prime(self.d):
            raise ConfigError(f"d = {self.d} must be prime")
        limit = 3 if self.d == 2 else self.d + 1
        if not 2 <= self.m <= limit:
            raise ConfigError(f"m = {self.m} outside 2..{limit} for d = {self.d}")
        if self.key_length < 1:
            raise ConfigError("key_length must be >= 1")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError("abort_threshold must lie in [0, 1]")
        if self.check_mode not in ("final_digits", "pre_measurement"):
            raise ConfigError(f"unknown check_mode {self.check_mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ChainConfig:
    """A chain of adjacent teleportation links between sender and receiver.

    hops: number of links (>= 1); parties are sender, hops-1 relays,
        receiver. per_hop_channel gives one model per link and defaults to
        the base config's channel on every link.
    """

    base: SessionConfig
    hops: int
    per_hop_channel: Optional[tuple[ChannelModel, ...]] = None

    def __post_init__(self):
        if self.hops < 1:
            raise ConfigError("hops must be >= 1")
        if self.per_hop_channel is not None and len(self.per_hop_channel) != self.hops:
            raise ConfigError(
                f"per_hop_channel must list exactly {self.hops} models"
            )

    def channels(self) -> tuple[ChannelModel, ...]:
        if self.per_hop_channel is not None:
            return tuple(self.per_hop_channel)
        return tuple(self.base.channel for _ in range(self.hops))


@dataclass(frozen=True)
class KeyResult:
    """Outcome of a session.

    alice_key/bob_key are the final key dits (empty when aborted).
    alice_digits/bob_digits/eve_digits run over all 2N rounds with -1 where
    that party never produced a digit for the round (check rounds of the
    pre-measurement variants, or no adversary). observed_error_rate is the
    fraction of mismatches over the comparison set. recycled_pairs counts
    entangled resources restored to canonical form: 2N pairs for the plain
    run, N for the pre-measurement variant, 2N triples for the third-party
    variant, and hops*2N pair residuals across a chain.
    """

    aborted: bool
    alice_key: tuple[int, ...]
    bob_key: tuple[int, ...]
    observed_error_rate: float
    transcript: tuple[ClassicalMessage, ...]
    recycled_pairs: int
    alice_digits: tuple[int, ...]
    bob_digits: tuple[int, ...]
    eve_digits: Optional[tuple[int, ...]]
    check_positions: tuple[int, ...]


def _session_rng(config: SessionConfig, rng: Optional[Rng]) -> Rng:
    return rng if rng is not None else Rng(config.seed)


def _canonical_pair(ref: StateVector) -> StateVector:
    return bell_pair(ref.dims[0], (ref.labels[0], ref.labels[1]))


def _recycle_checked(residual: StateVector, k: int, l: int) -> None:
    restored = recycle(residual, k, l)
    if fidelity(restored, _canonical_pair(residual)) < 1.0 - NORM_TOL:
        raise AssertionError("recycled pair failed to restore the canonical state")


def _transmit(
    pair: StateVector,
    b_label: str,
    model: ChannelModel,
    crng: Rng,
    slot: int,
    transcript: list[ClassicalMessage],
    rebuild,
    sender: str,
    receiver: str,
) -> ChannelResult:
    """Send one carrier, retransmitting a freshly rebuilt state on loss."""
    attempt = 0
    while True:
        result = apply_channel(pair, b_label, model, crng.child(slot, attempt))
        if not result.lost:
            return result
        transcript.append(ClassicalMessage(receiver, sender, "pair_lost", (slot,)))
        transcript.append(
            ClassicalMessage(sender, receiver, "pair_retransmitted", (slot,))
        )
        attempt += 1
        pair = rebuild()


def _eve_decode_rule(model: ChannelModel) -> Optional[str]:
    if isinstance(model, SubstitutedAttack):
        return model.strategy.decode
    if isinstance(model, PurifiedAttack):
        return model.eve_measurement
    return None


def _measure_digit(
    state: StateVector,
    label: str,
    unrotate,
    shift: int,
    rng: Rng,
) -> tuple[int, StateVector]:
    """Undo a basis rotation, read the computational value, subtract shift."""
    if unrotate is not None:
        state = apply_unitary(state, unrotate, [label])
    d = state.dim_of(label)
    outcome, post, _ = measure(state, [label], computational_basis(d), rng)
    return (outcome - shift) % d, post


def _deterministic_outcome_map(d: int, basis) -> Optional[tuple[int, ...]]:
    """Receiver outcome implied by each sender outcome on a canonical pair.

    The sender's projection leaves the receiver in the conjugated basis
    vector, so re-measuring in the same basis is deterministic only when
    the basis is closed under conjugation up to a permutation. Bases where
    it is not (possible for d > 3 ... strictly, for the quadratic-phase
    members at odd d) are excluded from comparison checks.
    """
    pair = bell_pair(d, ("A", "B"))
    mapping = []
    for j in range(d):
        post, _ = measure_forced(pair, ["A"], basis, j)
        _, receiver = factor(post, ["A"])
        probs = np.abs(basis.vectors.conj() @ receiver.amps) ** 2
        best = int(np.argmax(probs))
        if probs[best] < 1.0 - NORM_TOL:
            return None
        mapping.append(best)
    return tuple(mapping)


def _usable_check_bases(fam: MubFamily) -> tuple[tuple[int, tuple[int, ...]], ...]:
    usable = []
    for i, basis in enumerate(fam.bases):
        mapping = _deterministic_outcome_map(fam.d, basis)
        if mapping is not None:
            usable.append((i, mapping))
    if not usable:
        raise ConfigError("no basis supports deterministic comparison checks")
    return tuple(usable)


def _draw_check_positions(rng: Rng, total: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(int(x) for x in rng.subset(total, count)))


def _unchecked_slots(total: int, checks: Sequence[int]) -> list[int]:
    """Rounds 0..total-1 that are not check positions, in order."""
    check_set = set(checks)
    return [r for r in range(total) if r not in check_set]


def _compare_digits(
    alice_vals: Sequence[int],
    bob_vals: Sequence[int],
    threshold: float,
) -> tuple[float, bool]:
    mism = sum(1 for a, b in zip(alice_vals, bob_vals) if a != b)
    rate = mism / len(alice_vals)
    return rate, rate > threshold


def _decision_message(transcript: list[ClassicalMessage], sender: str, aborted: bool):
    kind = "abort" if aborted else "proceed"
    transcript.append(ClassicalMessage(sender, EVERYONE, kind, ()))


def run_two_party(config: SessionConfig, rng: Optional[Rng] = None) -> KeyResult:
    """Plain two-party session: 2N rounds, N random positions compared.

    Round r: make a canonical pair, rotate the transmitted half by the
    randomly drawn basis unitary, send it, teleport the secret dit through
    it, recycle the sender's residual. Once every teleportation is done the
    sender publishes the shift string and the rotation string; the receiver
    unrotates, measures, and subtracts the shifts. Digits at the check
    positions are compared in public and the rest become the key.
    """
    rng = _session_rng(config, rng)
    d, m, n = config.d, config.m, config.key_length
    total = 2 * n
    fam = mub_family(d, m)
    bb = bell_basis(d)

    rotations = [int(x) for x in rng.child(_R_ROTATIONS).integers(0, m, size=total)]
    secrets = [int(x) for x in rng.child(_R_SECRETS).integers(0, d, size=total)]
    crng = rng.child(_R_CHANNEL)
    trng = rng.child(_R_TELEPORT)
    brng = rng.child(_R_RECEIVER)
    erng = rng.child(_R_EVE)

    transcript: list[ClassicalMessage] = []
    decode_rule = _eve_decode_rule(config.channel)
    receiver_states: list[StateVector] = []
    eve_regs: list[tuple[str, ...]] = []
    shifts: list[int] = []
    recycled = 0

    for r in range(total):
        def rebuild(r=r):
            pair = bell_pair(d, ("A", "B"))
            return apply_unitary(pair, fam.unitaries[rotations[r]], ["B"])

        sent = _transmit(
            rebuild(), "B", config.channel, crng, r, transcript, rebuild, ALICE, BOB
        )
        joint = tensor([basis_state(d, secrets[r], "A_in"), sent.state])
        outcome, post, _ = measure(joint, ["A_in", "A"], bb, trng.child(r))
        k, l = bb.kl(outcome)
        shifts.append(l)
        residual, rest = factor(post, ["A_in", "A"])
        _recycle_checked(residual, k, l)
        recycled += 1
        receiver_states.append(rest)
        eve_regs.append(sent.eve_labels)

    transcript.append(ClassicalMessage(BOB, ALICE, "ack_received", ()))
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_l", tuple(shifts)))
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_b", tuple(rotations)))

    bob_digits: list[int] = []
    post_states: list[StateVector] = []
    for r in range(total):
        digit, post = _measure_digit(
            receiver_states[r],
            "B",
            fam.inverses[rotations[r]],
            shifts[r],
            brng.child(r),
        )
        bob_digits.append(digit)
        post_states.append(post)

    eve_digits: Optional[list[int]] = None
    if decode_rule is not None:
        eve_digits = []
        for r in range(total):
            reg = eve_regs[r][0]
            unrot = fam.inverses[rotations[r]] if decode_rule == "protocol" else None
            digit, _ = _measure_digit(post_states[r], reg, unrot, shifts[r], erng.child(r))
            eve_digits.append(digit)

    checks = _draw_check_positions(rng.child(_R_CHECK_POS), total, n)
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_positions", checks))
    alice_checks = tuple(secrets[r] for r in checks)
    bob_checks = tuple(bob_digits[r] for r in checks)
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_values", alice_checks))
    transcript.append(ClassicalMessage(BOB, EVERYONE, "check_values", bob_checks))
    error_rate, aborted = _compare_digits(alice_checks, bob_checks, config.abort_threshold)
    _decision_message(transcript, ALICE, aborted)

    key_slots = _unchecked_slots(total, checks)
    alice_key = () if aborted else tuple(secrets[r] for r in key_slots)
    bob_key = () if aborted else tuple(bob_digits[r] for r in key_slots)
    return KeyResult(
        aborted=aborted,
        alice_key=alice_key,
        bob_key=bob_key,
        observed_error_rate=error_rate,
        transcript=tuple(transcript),
        recycled_pairs=recycled,
        alice_digits=tuple(secrets),
        bob_digits=tuple(bob_digits),
        eve_digits=None if eve_digits is None else tuple(eve_digits),
        check_positions=checks,
    )


def run_pre_check(config: SessionConfig, rng: Optional[Rng] = None) -> KeyResult:
    """Entanglement-verification-first session.

    The sender measures her half of N randomly chosen pairs in randomly
    chosen comparison bases and publishes positions, bases, outcomes, and
    the full rotation string; the receiver unrotates and measures the same
    bases. When every comparison matches its deterministic expectation
    within threshold, the surviving N pairs carry the secret dits with no
    further digit comparison. Only those N pairs are recycled.
    """
    config = replace(config, check_mode="pre_measurement")
    rng = _session_rng(config, rng)
    d, m, n = config.d, config.m, config.key_length
    total = 2 * n
    fam = mub_family(d, m)
    bb = bell_basis(d)
    usable = _usable_check_bases(fam)

    rotations = [int(x) for x in rng.child(_R_ROTATIONS).integers(0, m, size=total)]
    secrets = [int(x) for x in rng.child(_R_SECRETS).integers(0, d, size=total)]
    crng = rng.child(_R_CHANNEL)
    trng = rng.child(_R_TELEPORT)
    brng = rng.child(_R_RECEIVER)
    arng = rng.child(_R_SENDER_MEAS)
    erng = rng.child(_R_EVE)

    transcript: list[ClassicalMessage] = []
    decode_rule = _eve_decode_rule(config.channel)
    states: list[StateVector] = []
    eve_regs: list[tuple[str, ...]] = []

    for r in range(total):
        def rebuild(r=r):
            pair = bell_pair(d, ("A", "B"))
            return apply_unitary(pair, fam.unitaries[rotations[r]], ["B"])

        sent = _transmit(
            rebuild(), "B", config.channel, crng, r, transcript, rebuild, ALICE, BOB
        )
        states.append(sent.state)
        eve_regs.append(sent.eve_labels)

    transcript.append(ClassicalMessage(BOB, ALICE, "ack_received", ()))

    checks = _draw_check_positions(rng.child(_R_CHECK_POS), total, n)
    basis_rng = rng.child(_R_CHECK_BASIS)
    picked = [usable[int(basis_rng.integers(0, len(usable)))] for _ in checks]
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_positions", checks))
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_b", tuple(rotations)))

    alice_outcomes: list[int] = []
    bob_outcomes: list[int] = []
    expected: list[int] = []
    for (r, (basis_idx, mapping)) in zip(checks, picked):
        a_out, post, _ = measure(states[r], ["A"], fam.bases[basis_idx], arng.child(r))
        post = apply_unitary(post, fam.inverses[rotations[r]], ["B"])
        b_out, _, _ = measure(post, ["B"], fam.bases[basis_idx], brng.child(r))
        alice_outcomes.append(a_out)
        bob_outcomes.append(b_out)
        expected.append(mapping[a_out])
    transcript.append(
        ClassicalMessage(
            ALICE,
            EVERYONE,
            "check_values",
            tuple(idx for idx, _ in picked) + tuple(alice_outcomes),
        )
    )
    transcript.append(ClassicalMessage(BOB, EVERYONE, "check_values", tuple(bob_outcomes)))
    error_rate, aborted = _compare_digits(expected, bob_outcomes, config.abort_threshold)
    _decision_message(transcript, ALICE, aborted)

    alice_digits = [-1] * total
    bob_digits = [-1] * total
    eve_digits: Optional[list[int]] = [-1] * total if decode_rule is not None else None
    recycled = 0
    survivors = _unchecked_slots(total, checks)

    if aborted:
        return KeyResult(
            aborted=True,
            alice_key=(),
            bob_key=(),
            observed_error_rate=error_rate,
            transcript=tuple(transcript),
            recycled_pairs=0,
            alice_digits=tuple(alice_digits),
            bob_digits=tuple(bob_digits),
            eve_digits=None if eve_digits is None else tuple(eve_digits),
            check_positions=checks,
        )

    shifts: list[int] = []
    for r in survivors:
        joint = tensor([basis_state(d, secrets[r], "A_in"), states[r]])
        outcome, post, _ = measure(joint, ["A_in", "A"], bb, trng.child(r))
        k, l = bb.kl(outcome)
        shifts.append(l)
        residual, rest = factor(post, ["A_in", "A"])
        _recycle_checked(residual, k, l)
        recycled += 1
        alice_digits[r] = secrets[r]
        digit, post_rest = _measure_digit(
            rest, "B", fam.inverses[rotations[r]], l, brng.child(r)
        )
        bob_digits[r] = digit
        if eve_digits is not None:
            reg = eve_regs[r][0]
            unrot = (
                fam.inverses[rotations[r]]
                if decode_rule == "protocol"
                else None
            )
            e_digit, _ = _measure_digit(post_rest, reg, unrot, l, erng.child(r))
            eve_digits[r] = e_digit
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_l", tuple(shifts)))

    alice_key = tuple(alice_digits[r] for r in survivors)
    bob_key = tuple(bob_digits[r] for r in survivors)
    return KeyResult(
        aborted=False,
        alice_key=alice_key,
        bob_key=bob_key,
        observed_error_rate=error_rate,
        transcript=tuple(transcript),
        recycled_pairs=recycled,
        alice_digits=tuple(alice_digits),
        bob_digits=tuple(bob_digits),
        eve_digits=None if eve_digits is None else tuple(eve_digits),
        check_positions=checks,
    )


def run_third_party(
    config: SessionConfig, trusted: bool = False, rng: Optional[Rng] = None
) -> KeyResult:
    """Middleman session over three-qubit states (d = 2 only).

    The middleman prepares 2N triples, keeps one qubit of each, and sends
    the two others out (the receiver-bound leg goes through the configured
    channel). He then measures his retained qubit together with two fresh
    |+> qubits in the entangled triple basis, recycles the collapsed triple
    with two local Paulis, and publishes one bit per round: the sign class
    of the pair the two end parties now share. After the end parties align
    signs, N random pairs are verification-measured and the survivors carry
    the key exactly as in the verification-first variant; the sender
    implements the usual rotation on her own half (rotating either half of
    a canonical pair by the transposed unitary is the same state). In
    trusted mode the middleman additionally masks each outgoing qubit with
    a randomly chosen Hadamard-or-identity, revealed only after receipt is
    acknowledged.
    """
    if config.d != 2:
        raise ConfigError("third-party distribution is defined for d = 2 only")
    rng = _session_rng(config, rng)
    d, m, n = config.d, config.m, config.key_length
    total = 2 * n
    fam = mub_family(d, m)
    bb = bell_basis(d)
    usable = _usable_check_bases(fam)
    hadamard = mub_family(2, 2).unitaries[1]
    recycle_table = ghz_recycle_ops()
    triple_basis = ghz_basis()
    canonical_triple = ghz_state(("C1", "C2", "C"))

    rotations = [int(x) for x in rng.child(_R_ROTATIONS).integers(0, m, size=total)]
    secrets = [int(x) for x in rng.child(_R_SECRETS).integers(0, d, size=total)]
    mask_rng = rng.child(_R_MASKS)
    masks_a = [int(x) for x in mask_rng.integers(0, 2, size=total)] if trusted else [0] * total
    masks_b = [int(x) for x in mask_rng.integers(0, 2, size=total)] if trusted else [0] * total
    crng = rng.child(_R_CHANNEL)
    trng = rng.child(_R_TELEPORT)
    grng = rng.child(_R_TRIPLE)
    brng = rng.child(_R_RECEIVER)
    arng = rng.child(_R_SENDER_MEAS)
    erng = rng.child(_R_EVE)

    transcript: list[ClassicalMessage] = []
    decode_rule = _eve_decode_rule(config.channel)
    states: list[StateVector] = []
    eve_regs: list[tuple[str, ...]] = []

    for r in range(total):
        def rebuild(r=r):
            triple = ghz_state(("C", "A", "B"))
            if masks_a[r]:
                triple = apply_unitary(triple, hadamard, ["A"])
            if masks_b[r]:
                triple = apply_unitary(triple, hadamard, ["B"])
            return triple

        sent = _transmit(
            rebuild(), "B", config.channel, crng, r, transcript, rebuild, CHARLIE, BOB
        )
        states.append(sent.state)
        eve_regs.append(sent.eve_labels)

    transcript.append(ClassicalMessage(ALICE, CHARLIE, "ack_received", ()))
    transcript.append(ClassicalMessage(BOB, CHARLIE, "ack_received", ()))
    if trusted:
        transcript.append(
            ClassicalMessage(CHARLIE, EVERYONE, "charlie_mask_reveal", tuple(masks_a))
        )
        transcript.append(
            ClassicalMessage(CHARLIE, EVERYONE, "charlie_mask_reveal", tuple(masks_b))
        )
        for r in range(total):
            if masks_a[r]:
                states[r] = apply_unitary(states[r], hadamard, ["A"])
            if masks_b[r]:
                states[r] = apply_unitary(states[r], hadamard, ["B"])

    signs: list[int] = []
    recycled = 0
    pairs: list[StateVector] = []
    flying = tensor(
        [
            apply_unitary(basis_state(2, 0, "C1"), hadamard, ["C1"]),
            apply_unitary(basis_state(2, 0, "C2"), hadamard, ["C2"]),
        ]
    )
    for r in range(total):
        joint = tensor([flying, states[r]])
        outcome, post, _ = measure(joint, ["C1", "C2", "C"], triple_basis, grng.child(r))
        residual, rest = factor(post, ["C1", "C2", "C"])
        op2, op3 = recycle_table[outcome]
        restored = apply_unitary(residual, op2.matrix(), ["C2"])
        restored = apply_unitary(restored, op3.matrix(), ["C"])
        if fidelity(restored, canonical_triple) < 1.0 - NORM_TOL:
            raise AssertionError("recycled triple failed to restore canonical form")
        recycled += 1
        signs.append(0 if outcome in (0, 1, 4, 5) else 1)
        pairs.append(rest)
    transcript.append(ClassicalMessage(CHARLIE, EVERYONE, "publish_k", tuple(signs)))

    for r in range(total):
        if signs[r]:
            pairs[r] = apply_unitary(pairs[r], pauli_matrix(2, 1, 0), ["A"])

    checks = _draw_check_positions(rng.child(_R_CHECK_POS), total, n)
    basis_rng = rng.child(_R_CHECK_BASIS)
    picked = [usable[int(basis_rng.integers(0, len(usable)))] for _ in checks]
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_positions", checks))
    alice_outcomes: list[int] = []
    bob_outcomes: list[int] = []
    expected: list[int] = []
    for (r, (basis_idx, mapping)) in zip(checks, picked):
        a_out, post, _ = measure(pairs[r], ["A"], fam.bases[basis_idx], arng.child(r))
        b_out, _, _ = measure(post, ["B"], fam.bases[basis_idx], brng.child(r))
        alice_outcomes.append(a_out)
        bob_outcomes.append(b_out)
        expected.append(mapping[a_out])
    transcript.append(
        ClassicalMessage(
            ALICE,
            EVERYONE,
            "check_values",
            tuple(idx for idx, _ in picked) + tuple(alice_outcomes),
        )
    )
    transcript.append(ClassicalMessage(BOB, EVERYONE, "check_values", tuple(bob_outcomes)))
    error_rate, aborted = _compare_digits(expected, bob_outcomes, config.abort_threshold)
    _decision_message(transcript, ALICE, aborted)

    alice_digits = [-1] * total
    bob_digits = [-1] * total
    eve_digits: Optional[list[int]] = [-1] * total if decode_rule is not None else None
    survivors = _unchecked_slots(total, checks)

    if aborted:
        return KeyResult(
            aborted=True,
            alice_key=(),
            bob_key=(),
            observed_error_rate=error_rate,
            transcript=tuple(transcript),
            recycled_pairs=recycled,
            alice_digits=tuple(alice_digits),
            bob_digits=tuple(bob_digits),
            eve_digits=None if eve_digits is None else tuple(eve_digits),
            check_positions=checks,
        )

    shifts: list[int] = []
    key_rotations: list[int] = []
    for r in survivors:
        # Rotating the sender's own half by the transposed unitary equals
        # rotating the receiver-bound half, so the standard flow applies.
        rotated = apply_unitary(pairs[r], fam.transposes[rotations[r]], ["A"])
        joint = tensor([basis_state(d, secrets[r], "A_in"), rotated])
        outcome, post, _ = measure(joint, ["A_in", "A"], bb, trng.child(r))
        k, l = bb.kl(outcome)
        shifts.append(l)
        key_rotations.append(rotations[r])
        _, rest = factor(post, ["A_in", "A"])
        alice_digits[r] = secrets[r]
        digit, post_rest = _measure_digit(
            rest, "B", fam.inverses[rotations[r]], l, brng.child(r)
        )
        bob_digits[r] = digit
        if eve_digits is not None:
            reg = eve_regs[r][0]
            scratch = post_rest
            if trusted and masks_b[r] and isinstance(config.channel, SubstitutedAttack):
                scratch = apply_unitary(scratch, hadamard, [reg])
            unrot = (
                fam.inverses[rotations[r]]
                if decode_rule == "protocol"
                else None
            )
            e_digit, _ = _measure_digit(scratch, reg, unrot, l, erng.child(r))
            eve_digits[r] = e_digit
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_l", tuple(shifts)))
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_b", tuple(key_rotations)))

    alice_key = tuple(alice_digits[r] for r in survivors)
    bob_key = tuple(bob_digits[r] for r in survivors)
    return KeyResult(
        aborted=False,
        alice_key=alice_key,
        bob_key=bob_key,
        observed_error_rate=error_rate,
        transcript=tuple(transcript),
        recycled_pairs=recycled,
        alice_digits=tuple(alice_digits),
        bob_digits=tuple(bob_digits),
        eve_digits=None if eve_digits is None else tuple(eve_digits),
        check_positions=checks,
    )


def _party_name(index: int, hops: int) -> str:
    if index == 0:
        return ALICE
    if index == hops:
        return BOB
    return f"e{index}"


def run_chain(config: ChainConfig, rng: Optional[Rng] = None) -> KeyResult:
    """Hop-by-hop teleportation between sender and receiver.

    Link pairs stay unrotated; instead the sender teleports the rotated dit
    state itself. Every relay teleports whatever arrives, corrections and
    all, and publishes both components of its measurement outcome. The
    receiver undoes the accumulated byproduct (one Pauli with summed
    exponents equals the hop-by-hop composition up to global phase), then
    unrotates once the rotation string is public and reads the dit with no
    shift subtraction. The comparison stage matches the plain session.
    """
    base = config.base
    rng = _session_rng(base, rng)
    d, m, n = base.d, base.m, base.key_length
    hops = config.hops
    total = 2 * n
    fam = mub_family(d, m)
    bb = bell_basis(d)
    channels = config.channels()

    rotations = [int(x) for x in rng.child(_R_ROTATIONS).integers(0, m, size=total)]
    secrets = [int(x) for x in rng.child(_R_SECRETS).integers(0, d, size=total)]
    crng = rng.child(_R_CHANNEL)
    trng = rng.child(_R_TELEPORT)
    brng = rng.child(_R_RECEIVER)
    erng = rng.child(_R_EVE)

    transcript: list[ClassicalMessage] = []
    phase_rows = [[0] * total for _ in range(hops)]
    shift_rows = [[0] * total for _ in range(hops)]
    final_states: list[StateVector] = []
    carrier_labels: list[str] = []
    eve_sites: list[list[tuple[int, tuple[str, ...]]]] = []
    recycled = 0

    for r in range(total):
        carrier = apply_unitary(
            basis_state(d, secrets[r], "W"), fam.unitaries[rotations[r]], ["W"]
        )
        state = carrier
        carrier_label = "W"
        sites: list[tuple[int, tuple[str, ...]]] = []
        for h in range(1, hops + 1):
            near, far = f"L{h}a", f"L{h}b"

            def rebuild(near=near, far=far):
                return bell_pair(d, (near, far))

            sent = _transmit(
                rebuild(),
                far,
                channels[h - 1],
                crng.child(h),
                r,
                transcript,
                rebuild,
                _party_name(h - 1, hops),
                _party_name(h, hops),
            )
            if sent.eve_labels:
                sites.append((h, sent.eve_labels))
            joint = tensor([state, sent.state])
            outcome, post, _ = measure(joint, [carrier_label, near], bb, trng.child(r, h))
            k, l = bb.kl(outcome)
            phase_rows[h - 1][r] = k
            shift_rows[h - 1][r] = l
            residual, rest = factor(post, [carrier_label, near])
            _recycle_checked(residual, k, l)
            recycled += 1
            state = rest
            carrier_label = far
        final_states.append(state)
        carrier_labels.append(carrier_label)
        eve_sites.append(sites)

    for h in range(1, hops + 1):
        transcript.append(
            ClassicalMessage(
                _party_name(h, hops), _party_name(h - 1, hops), "ack_received", (h,)
            )
        )
    for i in range(hops):
        party = _party_name(i, hops)
        transcript.append(
            ClassicalMessage(party, EVERYONE, "publish_k", tuple(phase_rows[i]))
        )
        transcript.append(
            ClassicalMessage(party, EVERYONE, "publish_l", tuple(shift_rows[i]))
        )
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "publish_b", tuple(rotations)))

    bob_digits: list[int] = []
    post_states: list[StateVector] = []
    for r in range(total):
        k_sum = sum(phase_rows[i][r] for i in range(hops)) % d
        l_sum = sum(shift_rows[i][r] for i in range(hops)) % d
        state = apply_unitary(
            final_states[r], pauli_matrix(d, k_sum, (-l_sum) % d), [carrier_labels[r]]
        )
        digit, post = _measure_digit(
            state,
            carrier_labels[r],
            fam.inverses[rotations[r]],
            0,
            brng.child(r),
        )
        bob_digits.append(digit)
        post_states.append(post)

    eve_digits: Optional[list[int]] = None
    if any(_eve_decode_rule(ch) is not None for ch in channels):
        eve_digits = [-1] * total
        for r in range(total):
            if not eve_sites[r]:
                continue
            hop, labels = eve_sites[r][0]
            rule = _eve_decode_rule(channels[hop - 1])
            k_sum = sum(phase_rows[i][r] for i in range(hop)) % d
            l_sum = sum(shift_rows[i][r] for i in range(hop)) % d
            state = post_states[r]
            if rule == "protocol":
                state = apply_unitary(
                    state, pauli_matrix(d, k_sum, (-l_sum) % d), [labels[0]]
                )
                state = apply_unitary(
                    state, fam.inverses[rotations[r]], [labels[0]]
                )
                shift = 0
            else:
                shift = l_sum
            digit, _ = _measure_digit(state, labels[0], None, shift, erng.child(r))
            eve_digits[r] = digit

    checks = _draw_check_positions(rng.child(_R_CHECK_POS), total, n)
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_positions", checks))
    alice_checks = tuple(secrets[r] for r in checks)
    bob_checks = tuple(bob_digits[r] for r in checks)
    transcript.append(ClassicalMessage(ALICE, EVERYONE, "check_values", alice_checks))
    transcript.append(ClassicalMessage(BOB, EVERYONE, "check_values", bob_checks))
    error_rate, aborted = _compare_digits(alice_checks, bob_checks, base.abort_threshold)
    _decision_message(transcript, ALICE, aborted)

    key_slots = _unchecked_slots(total, checks)
    alice_key = () if aborted else tuple(secrets[r] for r in key_slots)
    bob_key = () if aborted else tuple(bob_digits[r] for r in key_slots)
    return KeyResult(
        aborted=aborted,
        alice_key=alice_key,
        bob_key=bob_key,
        observed_error_rate=error_rate,
        transcript=tuple(transcript),
        recycled_pairs=recycled,
        alice_digits=tuple(secrets),
        bob_digits=tuple(bob_digits),
        eve_digits=None if eve_digits is None else tuple(eve_digits),
        check_positions=checks,
    )
