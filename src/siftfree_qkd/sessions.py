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

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bases import (
    MubFamily,
    bell_pair,
    computational_basis,
    ghz_state,
    is_prime,
    mub_family,
    pauli_matrix,
)
from .channels import (
    ChannelModel,
    ChannelResult,
    Ideal,
    SubstitutedAttack,
    added_dim,
    apply_channel,
)
from .rng import Rng
from .states import (
    MAX_AMPLITUDES,
    NORM_TOL,
    StateVector,
    UnitaryOp,
    apply_unitary,
    basis_state,
    measure,
    tensor,
)
from .teleport import correction_op, teleport, teleport_ghz, verify_recycle

__all__ = [
    "ConfigError",
    "ALICE",
    "BOB",
    "CHARLIE",
    "EVERYONE",
    "MESSAGE_KINDS",
    "ClassicalMessage",
    "serialize_transcript",
    "SessionConfig",
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


def _eavesdropped(channel: ChannelModel, d: int) -> bool:
    return added_dim(channel, d) > 1


def _eve_unrotates(channel: ChannelModel) -> bool:
    """Eve undoes the rotation only on what she took: the sender's real half."""
    return isinstance(channel, SubstitutedAttack)


def _check_teleport_size(d: int, added: int, kind: str) -> None:
    """ConfigError unless a teleport fits within MAX_AMPLITUDES.

    It holds d**3 amplitudes times `added`, the dimension of the registers
    `kind` channels have added to the carried state and the sent pair.
    """
    if d**3 * added > MAX_AMPLITUDES:
        held = f"d**3 = {d**3}"
        if added > 1:
            held = f"d**3 * {added} ({kind} registers) = {d**3 * added}"
        raise ConfigError(
            f"d = {d} is too large: a teleport holds {held} amplitudes, "
            f"above the cap of {MAX_AMPLITUDES}"
        )


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one key distribution session.

    d: prime carrier dimension (dits of the key); the first teleport, d**3
        amplitudes times the registers the channel adds, must fit within
        MAX_AMPLITUDES.
    m: number of mutually unbiased bases in play (2..d+1; 3 at most for d=2).
    key_length: N, the number of final key dits; 2N rounds run in total.
    abort_threshold: abort when the observed error rate exceeds this.
    seed: 64-bit seed; together with the config it fixes every outcome.
    channel: model applied to each transmitted half.
    """

    d: int
    m: int
    key_length: int
    abort_threshold: float = 0.05
    seed: int = 0
    channel: ChannelModel = field(default_factory=Ideal)

    def __post_init__(self):
        if not is_prime(self.d):
            raise ConfigError(f"d = {self.d} must be prime")
        _check_teleport_size(self.d, added_dim(self.channel, self.d), self.channel.kind)
        limit = 3 if self.d == 2 else self.d + 1
        if not 2 <= self.m <= limit:
            raise ConfigError(f"m = {self.m} outside 2..{limit} for d = {self.d}")
        if self.key_length < 1:
            raise ConfigError("key_length must be >= 1")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError("abort_threshold must lie in [0, 1]")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


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


class _Verdict(NamedTuple):
    """Where the session compared, what it saw, and whether it aborted."""

    check_positions: tuple[int, ...]
    error_rate: float
    aborted: bool


class _Session:
    """What every variant shares: basis family, draws, streams, transcript.

    Rotations and secrets are drawn for all 2N rounds up front, and every
    per-round stream is a child of a per-purpose stream, so the order in
    which the stages run never changes a draw.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.rng = Rng(config.seed)
        self.d, self.n, self.total = config.d, config.key_length, 2 * config.key_length
        self.fam = mub_family(config.d, config.m)
        self.rotations = self._draw(_R_ROTATIONS, config.m)
        self.secrets = self._draw(_R_SECRETS, config.d)
        self.crng = self.rng.child(_R_CHANNEL)
        self.trng = self.rng.child(_R_TELEPORT)
        self.brng = self.rng.child(_R_RECEIVER)
        self.erng = self.rng.child(_R_EVE)
        self.transcript: list[ClassicalMessage] = []

    def _draw(self, purpose: int, high: int) -> list[int]:
        return [int(x) for x in self.rng.child(purpose).integers(0, high, size=self.total)]

    def say(self, sender: str, recipient: str, kind: str, payload: Sequence[int] = ()):
        self.transcript.append(ClassicalMessage(sender, recipient, kind, payload))


def _transmit(
    s: _Session,
    build: Callable[[], StateVector],
    b_label: str,
    model: ChannelModel,
    crng: Rng,
    slot: int,
    sender: str,
    receiver: str,
) -> ChannelResult:
    """Send one carrier built by `build`, building it afresh after each loss."""
    attempt = 0
    while True:
        result = apply_channel(build(), b_label, model, crng.child(slot, attempt))
        if not result.lost:
            return result
        s.say(receiver, sender, "pair_lost", (slot,))
        s.say(sender, receiver, "pair_retransmitted", (slot,))
        attempt += 1


def _send_rotated_pair(s: _Session, r: int) -> ChannelResult:
    """Round r's canonical pair, its half B rotated and sent to the receiver."""
    rotation = s.fam.unitaries[s.rotations[r]]
    build = partial(apply_unitary, bell_pair(s.d, ("A", "B")), rotation, ["B"])
    return _transmit(s, build, "B", s.config.channel, s.crng, r, ALICE, BOB)


def _arrivals(sent: Iterable[ChannelResult]) -> tuple[list[StateVector], list[tuple[str, ...]]]:
    """The states that arrived, and Eve's registers in each, round by round.

    Two flat lists: a long run holds every arrival, and a ChannelResult per
    round would cost more memory than the states themselves.
    """
    states, eve_regs = [], []
    for result in sent:
        states.append(result.state)
        eve_regs.append(result.eve_labels)
    return states, eve_regs


def _teleport_secret(
    s: _Session, r: int, pair: StateVector, recycled: bool = True
) -> tuple[StateVector, int]:
    """Teleport round r's secret through half A of `pair`: (rest, shift l)."""
    out = teleport(basis_state(s.d, s.secrets[r], "A_in"), pair, s.trng.child(r))
    if recycled:
        verify_recycle(out)
    return out.receiver_state, out.l


def _read_digit(
    s: _Session,
    reader: Rng,
    r: int,
    state: StateVector,
    label: str,
    unrotate: bool,
    shift: int,
) -> tuple[int, StateVector]:
    """Undo round r's rotation if asked, read `label`, subtract shift."""
    if unrotate:
        state = apply_unitary(state, s.fam.inverses[s.rotations[r]], [label])
    d = state.dim_of(label)
    outcome, post, _ = measure(state, [label], computational_basis(d), reader.child(r))
    return (outcome - shift) % d, post


def _usable_check_bases(fam: MubFamily) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each basis fit for comparison checks, with its outcome map.

    The map gives the receiver outcome implied by each sender outcome on a
    canonical pair. The sender's projection onto basis vector j leaves the
    receiver in its conjugate, so with the vectors as the rows of V the
    receiver reads outcome w with probability |(V V^T)[w, j]|^2.
    Re-measuring in the same basis is deterministic only when the basis is
    closed under conjugation up to a permutation. At odd prime d only bases
    0 (computational, j -> j) and 1 (Fourier, j -> -j mod d) are:
    conjugation turns quadratic-phase member t into member -t. At d = 2 all
    three are; the circular basis swaps its two outcomes.
    """
    usable = []
    for i, basis in enumerate(fam.bases):
        probs = np.abs(basis.vectors @ basis.vectors.T) ** 2
        if probs.max(axis=0).min() >= 1.0 - NORM_TOL:
            usable.append((i, tuple(int(w) for w in probs.argmax(axis=0))))
    if not usable:
        raise ConfigError("no basis supports deterministic comparison checks")
    return tuple(usable)


def _draw_check_positions(s: _Session) -> tuple[int, ...]:
    return tuple(sorted(int(x) for x in s.rng.child(_R_CHECK_POS).subset(s.total, s.n)))


def _key_slots(s: _Session, verdict: _Verdict) -> list[int]:
    """The rounds that are not check positions, in order; none after an abort."""
    if verdict.aborted:
        return []
    checks = set(verdict.check_positions)
    return [r for r in range(s.total) if r not in checks]


def _decide(
    s: _Session, checks: tuple[int, ...], expected: Sequence[int], observed: Sequence[int]
) -> _Verdict:
    """Compare, then announce abort or proceed."""
    rate = sum(1 for a, b in zip(expected, observed) if a != b) / len(expected)
    aborted = rate > s.config.abort_threshold
    s.say(ALICE, EVERYONE, "abort" if aborted else "proceed")
    return _Verdict(checks, rate, aborted)


def _verify_pairs(
    s: _Session, pairs: Sequence[StateVector], rotations_public: bool
) -> _Verdict:
    """Measure both halves of N random pairs in random comparison bases.

    Each check uses a basis in which the sender's outcome fixes the
    receiver's. With `rotations_public` the rotation string is published
    first and the receiver unrotates half B before measuring.
    """
    usable = _usable_check_bases(s.fam)
    checks = _draw_check_positions(s)
    basis_rng = s.rng.child(_R_CHECK_BASIS)
    picked = [usable[int(basis_rng.integers(0, len(usable)))] for _ in checks]
    s.say(ALICE, EVERYONE, "check_positions", checks)
    if rotations_public:
        s.say(ALICE, EVERYONE, "publish_b", s.rotations)
    arng = s.rng.child(_R_SENDER_MEAS)
    alice_outcomes: list[int] = []
    bob_outcomes: list[int] = []
    expected: list[int] = []
    for r, (basis_idx, mapping) in zip(checks, picked):
        basis = s.fam.bases[basis_idx]
        a_out, post, _ = measure(pairs[r], ["A"], basis, arng.child(r))
        if rotations_public:
            post = apply_unitary(post, s.fam.inverses[s.rotations[r]], ["B"])
        b_out, _, _ = measure(post, ["B"], basis, s.brng.child(r))
        alice_outcomes.append(a_out)
        bob_outcomes.append(b_out)
        expected.append(mapping[a_out])
    s.say(ALICE, EVERYONE, "check_values", [idx for idx, _ in picked] + alice_outcomes)
    s.say(BOB, EVERYONE, "check_values", bob_outcomes)
    return _decide(s, checks, expected, bob_outcomes)


def _result(
    s: _Session,
    verdict: _Verdict,
    bob_digits: Sequence[int],
    eve_digits: Optional[Sequence[int]],
    recycled: int,
    alice_digits: Optional[Sequence[int]] = None,
) -> KeyResult:
    alice_digits = s.secrets if alice_digits is None else alice_digits
    key_slots = _key_slots(s, verdict)
    return KeyResult(
        aborted=verdict.aborted,
        alice_key=tuple(alice_digits[r] for r in key_slots),
        bob_key=tuple(bob_digits[r] for r in key_slots),
        observed_error_rate=verdict.error_rate,
        transcript=tuple(s.transcript),
        recycled_pairs=recycled,
        alice_digits=tuple(alice_digits),
        bob_digits=tuple(bob_digits),
        eve_digits=None if eve_digits is None else tuple(eve_digits),
        check_positions=verdict.check_positions,
    )


def _read_and_compare(
    s: _Session,
    arrivals: Iterable[tuple[StateVector, str, int]],
    eve_digit: Optional[Callable[[int, StateVector], int]],
    recycled: int,
) -> KeyResult:
    """Receiver pass, Eve's pass, then the public final-digit comparison.

    The receiver reads each round's (state, carrier, shift); Eve, if any,
    then reads the receiver's post-states. Separate passes keep each pass's
    repeated states together, which the measurement memo serves best.
    """
    bob_digits: list[int] = []
    posts: list[StateVector] = []
    for r, (state, label, shift) in enumerate(arrivals):
        digit, post = _read_digit(s, s.brng, r, state, label, True, shift)
        bob_digits.append(digit)
        posts.append(post)
    eve_digits = None if eve_digit is None else [eve_digit(r, p) for r, p in enumerate(posts)]
    checks = _draw_check_positions(s)
    s.say(ALICE, EVERYONE, "check_positions", checks)
    alice_checks = [s.secrets[r] for r in checks]
    bob_checks = [bob_digits[r] for r in checks]
    s.say(ALICE, EVERYONE, "check_values", alice_checks)
    s.say(BOB, EVERYONE, "check_values", bob_checks)
    verdict = _decide(s, checks, alice_checks, bob_checks)
    return _result(s, verdict, bob_digits, eve_digits, recycled)


def _verify_then_key(
    s: _Session,
    pairs: Sequence[StateVector],
    eve_regs: Sequence[tuple[str, ...]],
    from_sender: bool,
    eve_masks: Sequence[int] = (),
) -> KeyResult:
    """Verify N random pairs; unless that aborts, the other N carry the key.

    `from_sender`: the sender made the pairs, so half B arrived rotated, the
    rotations go public before the checks, and key pairs are recycled.
    Otherwise a middleman made them (and recycled his triples); the sender
    rotates her half by the transpose and publishes the survivors'
    rotations last. Eve first unmasks the rounds flagged in `eve_masks`.
    """
    verdict = _verify_pairs(s, pairs, rotations_public=from_sender)
    survivors = _key_slots(s, verdict)
    alice = [-1] * s.total
    bob = [-1] * s.total
    eve = [-1] * s.total if _eavesdropped(s.config.channel, s.d) else None
    shifts: list[int] = []
    for r in survivors:
        pair = pairs[r]
        if not from_sender:
            pair = apply_unitary(pair, s.fam.transposes[s.rotations[r]], ["A"])
        state, l = _teleport_secret(s, r, pair, recycled=from_sender)
        shifts.append(l)
        alice[r] = s.secrets[r]
        bob[r], post = _read_digit(s, s.brng, r, state, "B", True, l)
        if eve is not None:
            reg = eve_regs[r][0]
            if eve_masks and eve_masks[r]:
                post = apply_unitary(post, mub_family(2, 2).unitaries[1], [reg])
            unrotate = _eve_unrotates(s.config.channel)
            eve[r], _ = _read_digit(s, s.erng, r, post, reg, unrotate, l)
    if survivors:
        s.say(ALICE, EVERYONE, "publish_l", shifts)
        if not from_sender:
            s.say(ALICE, EVERYONE, "publish_b", [s.rotations[r] for r in survivors])
    recycled = len(survivors) if from_sender else s.total
    return _result(s, verdict, bob, eve, recycled, alice_digits=alice)


def run_two_party(config: SessionConfig) -> KeyResult:
    """Plain two-party session: 2N rounds, N random positions compared.

    Round r: make a canonical pair, rotate the transmitted half by the
    randomly drawn basis unitary, send it, teleport the secret dit through
    it, recycle the sender's residual. Once every teleportation is done the
    sender publishes the shift string and the rotation string; the receiver
    unrotates, measures, and subtracts the shifts. Digits at the check
    positions are compared in public and the rest become the key.
    """
    s = _Session(config)
    received: list[tuple[StateVector, int, tuple[str, ...]]] = []
    for r in range(s.total):
        sent = _send_rotated_pair(s, r)
        state, l = _teleport_secret(s, r, sent.state)
        received.append((state, l, sent.eve_labels))
    s.say(BOB, ALICE, "ack_received")
    s.say(ALICE, EVERYONE, "publish_l", [l for _, l, _ in received])
    s.say(ALICE, EVERYONE, "publish_b", s.rotations)

    def eve_digit(r: int, post: StateVector) -> int:
        _, l, regs = received[r]
        return _read_digit(s, s.erng, r, post, regs[0], _eve_unrotates(config.channel), l)[0]

    arrivals = ((state, "B", l) for state, l, _ in received)
    has_eve = _eavesdropped(config.channel, config.d)
    return _read_and_compare(s, arrivals, eve_digit if has_eve else None, s.total)


def run_pre_check(config: SessionConfig) -> KeyResult:
    """Entanglement-verification-first session.

    The sender measures her half of N randomly chosen pairs in randomly
    chosen comparison bases and publishes positions, bases, outcomes, and
    the full rotation string; the receiver unrotates and measures the same
    bases. When every comparison matches its deterministic expectation
    within threshold, the surviving N pairs carry the secret dits with no
    further digit comparison. Only those N pairs are recycled.
    """
    s = _Session(config)
    states, eve_regs = _arrivals(_send_rotated_pair(s, r) for r in range(s.total))
    s.say(BOB, ALICE, "ack_received")
    return _verify_then_key(s, states, eve_regs, from_sender=True)


def run_third_party(config: SessionConfig, trusted: bool = False) -> KeyResult:
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
    s = _Session(config)
    hadamard = mub_family(2, 2).unitaries[1]
    mask_rng = s.rng.child(_R_MASKS)
    masks_a = [int(x) for x in mask_rng.integers(0, 2, size=s.total)] if trusted else [0] * s.total
    masks_b = [int(x) for x in mask_rng.integers(0, 2, size=s.total)] if trusted else [0] * s.total

    def masked(state: StateVector, r: int) -> StateVector:
        if masks_a[r]:
            state = apply_unitary(state, hadamard, ["A"])
        if masks_b[r]:
            state = apply_unitary(state, hadamard, ["B"])
        return state

    states, eve_regs = _arrivals(
        _transmit(
            s, partial(masked, ghz_state(("C", "A", "B")), r), "B",
            config.channel, s.crng, r, CHARLIE, BOB,
        )
        for r in range(s.total)
    )
    s.say(ALICE, CHARLIE, "ack_received")
    s.say(BOB, CHARLIE, "ack_received")
    if trusted:
        s.say(CHARLIE, EVERYONE, "charlie_mask_reveal", masks_a)
        s.say(CHARLIE, EVERYONE, "charlie_mask_reveal", masks_b)

    # The middleman's measurement leaves the end parties a pair of known
    # sign class; the sender flips the minus class to the plus class.
    flying = tensor([apply_unitary(basis_state(2, 0, c), hadamard, [c]) for c in ("C1", "C2")])
    grng = s.rng.child(_R_TRIPLE)
    signs: list[int] = []
    pairs: list[StateVector] = []
    for r, state in enumerate(states):
        outcome, pair = teleport_ghz(flying, masked(state, r), grng.child(r))
        signs.append(0 if outcome in (0, 1, 4, 5) else 1)
        pairs.append(apply_unitary(pair, pauli_matrix(2, 1, 0), ["A"]) if signs[-1] else pair)
    s.say(CHARLIE, EVERYONE, "publish_k", signs)
    # A substituted carrier was stolen before its Hadamard mask came off.
    stolen_masked = trusted and _eve_unrotates(config.channel)
    return _verify_then_key(
        s, pairs, eve_regs, from_sender=False, eve_masks=masks_b if stolen_masked else ()
    )


def run_chain(config: SessionConfig, hops: int) -> KeyResult:
    """Hop-by-hop teleportation between sender and receiver over `hops` links.

    The parties are the sender, hops - 1 relays and the receiver, and every
    link runs the config's channel. Link pairs stay unrotated; instead the
    sender teleports the rotated dit state itself. Every relay teleports
    whatever arrives, corrections and all, and publishes both components of
    its measurement outcome. The receiver undoes the accumulated byproduct
    (one Pauli with summed exponents equals the hop-by-hop composition up
    to global phase), then unrotates once the rotation string is public and
    reads the dit with no shift subtraction. The comparison stage matches
    the plain session.
    """
    if hops < 1:
        raise ConfigError("hops must be >= 1")
    d, channel = config.d, config.channel
    # The last hop's teleport is the largest: it carries the registers every
    # hop has added so far.
    _check_teleport_size(d, added_dim(channel, d) ** hops, channel.kind)
    s = _Session(config)
    parties = [ALICE] + [f"e{i}" for i in range(1, hops)] + [BOB]
    byproducts: list[list[tuple[int, int]]] = []
    # Per round: the carried state, its carrier label, and Eve's registers
    # from hop 1, the one she decodes from.
    arrived: list[tuple[StateVector, str, tuple[str, ...]]] = []
    for r in range(s.total):
        state = apply_unitary(
            basis_state(d, s.secrets[r], "W"), s.fam.unitaries[s.rotations[r]], ["W"]
        )
        carrier = "W"
        outcomes: list[tuple[int, int]] = []
        for h in range(1, hops + 1):
            near, far = f"L{h}a", f"L{h}b"
            sent = _transmit(
                s, partial(bell_pair, d, (near, far)), far, channel,
                s.crng.child(h), r, parties[h - 1], parties[h],
            )
            if h == 1:
                eve_regs = sent.eve_labels
            out = teleport(state, sent.state, s.trng.child(r, h), carrier=carrier)
            verify_recycle(out)
            outcomes.append((out.k, out.l))
            state, carrier = out.receiver_state, far
        byproducts.append(outcomes)
        arrived.append((state, carrier, eve_regs))

    for h in range(1, hops + 1):
        s.say(parties[h], parties[h - 1], "ack_received", (h,))
    for i in range(hops):
        s.say(parties[i], EVERYONE, "publish_k", [hop[i][0] for hop in byproducts])
        s.say(parties[i], EVERYONE, "publish_l", [hop[i][1] for hop in byproducts])
    s.say(ALICE, EVERYONE, "publish_b", s.rotations)

    def frame(r: int, upto: int) -> tuple[UnitaryOp, int]:
        """The correction for round r's first `upto` hops, and their summed l."""
        k_sum = sum(k for k, _ in byproducts[r][:upto]) % d
        l_sum = sum(l for _, l in byproducts[r][:upto]) % d
        return correction_op(d, k_sum, l_sum), l_sum

    def eve_digit(r: int, post: StateVector) -> int:
        reg = arrived[r][2][0]
        unrotate = _eve_unrotates(channel)
        fix, shift = frame(r, 1)
        if unrotate:
            post, shift = apply_unitary(post, fix, [reg]), 0
        return _read_digit(s, s.erng, r, post, reg, unrotate, shift)[0]

    arrivals = (
        (apply_unitary(state, frame(r, hops)[0], [carrier]), carrier, 0)
        for r, (state, carrier, _) in enumerate(arrived)
    )
    has_eve = _eavesdropped(channel, d)
    return _read_and_compare(s, arrivals, eve_digit if has_eve else None, s.total * hops)
