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
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

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
    Depolarizing,
    Ideal,
    Loss,
    SubstitutedAttack,
    added_dim,
    apply_channel,
)
from .rng import Rng, with_first_draws
from .states import (
    MAX_AMPLITUDES,
    NORM_TOL,
    StateVector,
    UnitaryOp,
    apply_unitary,
    basis_state,
    measure_rounds,
    tensor,
)
from .teleport import correction_op, teleport_ghz_rounds, teleport_rounds

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


def _channel_attempts(channel: ChannelModel) -> range:
    """Send attempts whose channel draw a session derives up front.

    Only noisy channels draw, one `random()` per send. A lost carrier is
    sent again; its first retransmit is common enough to derive as well,
    and a later one builds its own generator.
    """
    if isinstance(channel, Loss):
        return range(2)
    if isinstance(channel, Depolarizing):
        return range(1)
    return range(0)


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
        # The size cap first: it admits d <= 40 at most, so the trial
        # division below stays instant for any d.
        _check_teleport_size(self.d, added_dim(self.channel, self.d), self.channel.kind)
        if not is_prime(self.d):
            raise ConfigError(f"d = {self.d} must be prime")
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
    variant, and hops*2N pair residuals across a chain. The third-party
    variant's N key-pair teleports are recycled and checked as well, but
    recycled_pairs counts only its triples.
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
    which the stages run never changes a draw. Each per-round stream takes
    one `random()` before any other draw, so the first draw of every one a
    session will use is derived up front in one batch per path length
    (`with_first_draws`). A mode names the per-round purposes it draws;
    Eve's is added when the channel has an eavesdropper. A chain's streams
    are named by hop as well: round r's teleport on hop h is
    `stream(_R_TELEPORT, r, h)`, and each hop's channel has its own parent.

    The sessions run stage by stage, each stage over all its rounds at
    once. A measuring stage takes `draws`, each round's first draw of its
    purpose, and groups the rounds by their input objects, so each distinct
    step is looked up once per stage and a round only bisects its step's
    edges at its draw. Only the channel stage draws from streams: a noisy
    channel takes one per send.
    """

    def __init__(
        self, config: SessionConfig, purposes: Sequence[int], hops: Optional[int] = None
    ):
        self.config = config
        self.rng = Rng(config.seed)
        self.d, self.n, self.total = config.d, config.key_length, 2 * config.key_length
        self.has_eve = added_dim(config.channel, config.d) > 1
        self.fam = mub_family(config.d, config.m)
        self.rotations = self._draw(_R_ROTATIONS, config.m)
        self.secrets = self._draw(_R_SECRETS, config.d)
        rounds, crng = range(self.total), self.rng.child(_R_CHANNEL)
        hop_parents = [crng] if hops is None else [crng.child(h) for h in range(1, hops + 1)]
        teleports = (rounds,) if hops is None else (rounds, range(1, hops + 1))
        purposes = (*purposes, _R_EVE) if self.has_eve else tuple(purposes)
        grids = [
            (self.rng.child(p), teleports if p == _R_TELEPORT else (rounds,)) for p in purposes
        ]
        attempts = _channel_attempts(config.channel)
        grids += [(parent, (rounds, attempts)) for parent in hop_parents]
        streams = with_first_draws(*grids)
        self._streams = dict(zip(purposes, streams))
        # links[i]: the channel streams of hop i + 1, child (round, attempt).
        self.links = streams[len(purposes) :]
        self.transcript: list[ClassicalMessage] = []

    def stream(self, purpose: int, *path: int) -> Rng:
        """Per-round stream `path` of `purpose`, one the mode has named."""
        return self._streams[purpose].child(*path)

    def draws(self, purpose: int, rounds: Sequence[int], hop: Optional[int] = None) -> list[float]:
        """For each round r of `rounds`, the first `random()` of its stream of
        `purpose` (on `hop` in a chain): `stream(purpose, r[, hop]).random()`."""
        path = () if hop is None else (hop,)
        grid = self._streams[purpose].child_draws()
        if grid is None:  # a path entry too large to batch
            return [self.stream(purpose, r, *path).random() for r in rounds]
        if hop is not None:
            grid = grid[:, hop - 1]
        return grid[list(rounds)].tolist()

    def _draw(self, purpose: int, high: int) -> list[int]:
        return [int(x) for x in self.rng.child(purpose).integers(0, high, size=self.total)]

    def say(self, sender: str, recipient: str, kind: str, payload: Sequence[int] = ()):
        self.transcript.append(ClassicalMessage(sender, recipient, kind, payload))


def _transmit(
    s: _Session, state: StateVector, b_label: str, crng: Rng, slot: int, sender: str,
    receiver: str,
) -> ChannelResult:
    """Send one carrier through the config's channel, again after each loss."""
    attempt = 0
    while True:
        result = apply_channel(state, b_label, s.config.channel, crng.child(slot, attempt))
        if not result.lost:
            return result
        s.say(receiver, sender, "pair_lost", (slot,))
        s.say(sender, receiver, "pair_retransmitted", (slot,))
        attempt += 1


def _send(
    s: _Session, sends: Iterable[tuple[int, StateVector, str, Rng, str, str]]
) -> tuple[list[StateVector], list[tuple[str, ...]]]:
    """The channel stage: each (slot, state, label, link streams, sender,
    receiver) in order; the states that arrived and Eve's registers in each.

    A channel that draws nothing is the same map for every send, so sends
    of the same state and label share one `apply_channel`. Two flat lists:
    a long run holds every arrival, and a ChannelResult per round would
    cost more memory than the states themselves.
    """
    noisy = bool(_channel_attempts(s.config.channel))
    shared: dict[tuple[StateVector, str], ChannelResult] = {}
    states, eve_regs = [], []
    for slot, state, label, crng, sender, receiver in sends:
        if noisy:
            result = _transmit(s, state, label, crng, slot, sender, receiver)
        else:
            result = shared.get((state, label))
            if result is None:
                result = shared[state, label] = apply_channel(
                    state, label, s.config.channel, crng.child(slot, 0)
                )
        states.append(result.state)
        eve_regs.append(result.eve_labels)
    return states, eve_regs


def _apply_each(
    states: Iterable[StateVector], ops: Iterable[Optional[UnitaryOp]], labels: Iterable[str]
) -> list[StateVector]:
    """Each state with its op applied to its label; an op of None leaves it be.

    Rounds with the same state, op and label share one `apply_unitary`.
    """
    done: dict[tuple[StateVector, UnitaryOp, str], StateVector] = {}
    out = []
    for state, op, label in zip(states, ops, labels):
        if op is not None:
            after = done.get((state, op, label))
            if after is None:
                after = done[state, op, label] = apply_unitary(state, op, (label,))
            state = after
        out.append(state)
    return out


def _send_rotated_pairs(s: _Session) -> tuple[list[StateVector], list[tuple[str, ...]]]:
    """Each round's canonical pair, its half B rotated and sent to the receiver."""
    pair = bell_pair(s.d, ("A", "B"))
    rotated = {
        i: apply_unitary(pair, s.fam.unitaries[i], ("B",)) for i in dict.fromkeys(s.rotations)
    }
    return _send(
        s, ((r, rotated[i], "B", s.links[0], ALICE, BOB) for r, i in enumerate(s.rotations))
    )


def _teleport_secrets(
    s: _Session, rounds: Sequence[int], pairs: Iterable[StateVector]
) -> tuple[list[int], list[StateVector]]:
    """Teleport each round's secret through half A of its pair: shifts l, rests."""
    inputs = [basis_state(s.d, value, "A_in") for value in range(s.d)]
    outcomes, rests = teleport_rounds(
        (inputs[s.secrets[r]] for r in rounds), pairs, s.draws(_R_TELEPORT, rounds)
    )
    return [outcome % s.d for outcome in outcomes], rests


def _read(
    s: _Session,
    purpose: int,
    rounds: Sequence[int],
    states: Iterable[StateVector],
    labels: Iterable[str],
    unrotate: bool,
    shifts: Iterable[int],
    posts: bool = False,
) -> tuple[list[int], list[StateVector]]:
    """Each round's digit: undo round r's rotation on its label if asked, read
    the label with round r's draw of `purpose`, subtract its shift. With
    `posts`, the post states too."""
    basis = computational_basis(s.d)
    inverses = s.fam.inverses
    outcomes, after = measure_rounds(
        (
            (state, inverses[s.rotations[r]] if unrotate else None, (label,), basis)
            for r, state, label in zip(rounds, states, labels)
        ),
        s.draws(purpose, rounds),
        posts,
    )
    return [(outcome - shift) % s.d for outcome, shift in zip(outcomes, shifts)], after


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
    bases = [s.fam.bases[basis_idx] for basis_idx, _ in picked]
    alice_outcomes, posts = measure_rounds(
        ((pairs[r], None, ("A",), basis) for r, basis in zip(checks, bases)),
        s.draws(_R_SENDER_MEAS, checks),
    )
    inverses = s.fam.inverses
    bob_outcomes, _ = measure_rounds(
        (
            (post, inverses[s.rotations[r]] if rotations_public else None, ("B",), basis)
            for r, post, basis in zip(checks, posts, bases)
        ),
        s.draws(_R_RECEIVER, checks),
        posts=False,
    )
    expected = [mapping[a_out] for (_, mapping), a_out in zip(picked, alice_outcomes)]
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


def _compare(
    s: _Session, bob_digits: list[int], eve_digits: Optional[list[int]], recycled: int
) -> KeyResult:
    """The public final-digit comparison over N random rounds."""
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
    rotations go public before the checks, and the key pairs count as
    recycled. Otherwise a middleman made them, and his recycled triples
    count; the sender rotates her half by the transpose and publishes the
    survivors' rotations last. Every key-pair teleport is recycled and
    checked either way. Eve first unmasks the rounds flagged in `eve_masks`.
    """
    verdict = _verify_pairs(s, pairs, rotations_public=from_sender)
    survivors = _key_slots(s, verdict)
    key_pairs = [pairs[r] for r in survivors]
    if not from_sender:
        transposes = s.fam.transposes
        key_pairs = _apply_each(
            key_pairs, (transposes[s.rotations[r]] for r in survivors), repeat("A")
        )
    shifts, states = _teleport_secrets(s, survivors, key_pairs)
    read, posts = _read(s, _R_RECEIVER, survivors, states, repeat("B"), True, shifts, s.has_eve)
    alice = [-1] * s.total
    bob = [-1] * s.total
    for r, digit in zip(survivors, read):
        alice[r], bob[r] = s.secrets[r], digit
    eve = None
    if s.has_eve:
        regs = [eve_regs[r][0] for r in survivors]
        if eve_masks:
            hadamard = mub_family(2, 2).unitaries[1]
            masks = (hadamard if eve_masks[r] else None for r in survivors)
            posts = _apply_each(posts, masks, regs)
        unrotate = _eve_unrotates(s.config.channel)
        read, _ = _read(s, _R_EVE, survivors, posts, regs, unrotate, shifts)
        eve = [-1] * s.total
        for r, digit in zip(survivors, read):
            eve[r] = digit
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
    s = _Session(config, (_R_TELEPORT, _R_RECEIVER))
    rounds = range(s.total)
    sent, eve_regs = _send_rotated_pairs(s)
    shifts, states = _teleport_secrets(s, rounds, sent)
    s.say(BOB, ALICE, "ack_received")
    s.say(ALICE, EVERYONE, "publish_l", shifts)
    s.say(ALICE, EVERYONE, "publish_b", s.rotations)
    bob, posts = _read(s, _R_RECEIVER, rounds, states, repeat("B"), True, shifts, s.has_eve)
    eve = None
    if s.has_eve:
        regs = (labels[0] for labels in eve_regs)
        eve = _read(s, _R_EVE, rounds, posts, regs, _eve_unrotates(config.channel), shifts)[0]
    return _compare(s, bob, eve, s.total)


def run_pre_check(config: SessionConfig) -> KeyResult:
    """Entanglement-verification-first session.

    The sender measures her half of N randomly chosen pairs in randomly
    chosen comparison bases and publishes positions, bases, outcomes, and
    the full rotation string; the receiver unrotates and measures the same
    bases. When every comparison matches its deterministic expectation
    within threshold, the surviving N pairs carry the secret dits with no
    further digit comparison. Only those N pairs are recycled.
    """
    s = _Session(config, (_R_TELEPORT, _R_RECEIVER, _R_SENDER_MEAS))
    states, eve_regs = _send_rotated_pairs(s)
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
    s = _Session(config, (_R_TELEPORT, _R_RECEIVER, _R_SENDER_MEAS, _R_TRIPLE))
    rounds = range(s.total)
    hadamard = mub_family(2, 2).unitaries[1]
    mask_rng = s.rng.child(_R_MASKS)
    masks_a = [int(x) for x in mask_rng.integers(0, 2, size=s.total)] if trusted else [0] * s.total
    masks_b = [int(x) for x in mask_rng.integers(0, 2, size=s.total)] if trusted else [0] * s.total

    def masked(states: Iterable[StateVector]) -> list[StateVector]:
        """Each round's state with its masks applied (Hadamards undo themselves)."""
        states = _apply_each(states, (hadamard if a else None for a in masks_a), repeat("A"))
        return _apply_each(states, (hadamard if b else None for b in masks_b), repeat("B"))

    triples = masked(repeat(ghz_state(("C", "A", "B")), s.total))
    states, eve_regs = _send(
        s, ((r, triple, "B", s.links[0], CHARLIE, BOB) for r, triple in enumerate(triples))
    )
    s.say(ALICE, CHARLIE, "ack_received")
    s.say(BOB, CHARLIE, "ack_received")
    if trusted:
        s.say(CHARLIE, EVERYONE, "charlie_mask_reveal", masks_a)
        s.say(CHARLIE, EVERYONE, "charlie_mask_reveal", masks_b)

    # The middleman's measurement leaves the end parties a pair of known
    # sign class; the sender flips the minus class to the plus class.
    flying = tensor([apply_unitary(basis_state(2, 0, c), hadamard, [c]) for c in ("C1", "C2")])
    outcomes, pairs = teleport_ghz_rounds(flying, masked(states), s.draws(_R_TRIPLE, rounds))
    signs = [0 if outcome in (0, 1, 4, 5) else 1 for outcome in outcomes]
    flip = pauli_matrix(2, 1, 0)
    pairs = _apply_each(pairs, (flip if sign else None for sign in signs), repeat("A"))
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
    s = _Session(config, (_R_TELEPORT, _R_RECEIVER), hops)
    rounds = range(s.total)
    parties = [ALICE] + [f"e{i}" for i in range(1, hops)] + [BOB]
    # Per hop: its pair, the far label, its channel streams, and the parties
    # at either end.
    links = [
        (bell_pair(d, (f"L{h}a", f"L{h}b")), f"L{h}b", s.links[h - 1], parties[h - 1], parties[h])
        for h in range(1, hops + 1)
    ]
    # Every link carries its pair before any teleport, round by round and
    # hop by hop within a round; sent[r * hops + h - 1] is round r's hop h.
    sent, eve_regs = _send(s, ((r, *link) for r in rounds for link in links))

    inputs = [basis_state(d, value, "W") for value in range(d)]
    states = _apply_each(
        (inputs[value] for value in s.secrets),
        (s.fam.unitaries[i] for i in s.rotations),
        repeat("W"),
    )
    carrier = "W"
    # byproducts[h - 1][r]: hop h's outcome (k, l) in round r.
    byproducts: list[list[tuple[int, int]]] = []
    for h, (_, far, _, _, _) in enumerate(links, 1):
        outcomes, states = teleport_rounds(
            states, sent[h - 1 :: hops], s.draws(_R_TELEPORT, rounds, h), carrier=carrier
        )
        byproducts.append([divmod(outcome, d) for outcome in outcomes])
        carrier = far
    del sent

    for h in range(1, hops + 1):
        s.say(parties[h], parties[h - 1], "ack_received", (h,))
    for i, hop in enumerate(byproducts):
        s.say(parties[i], EVERYONE, "publish_k", [k for k, _ in hop])
        s.say(parties[i], EVERYONE, "publish_l", [l for _, l in hop])
    s.say(ALICE, EVERYONE, "publish_b", s.rotations)

    def frames(upto: int) -> tuple[list[UnitaryOp], list[int]]:
        """Each round's correction for its first `upto` hops, and their summed l."""
        ops, shifts = [], []
        for outcomes in zip(*byproducts[:upto]):
            k_sum = sum(k for k, _ in outcomes) % d
            l_sum = sum(l for _, l in outcomes) % d
            ops.append(correction_op(d, k_sum, l_sum))
            shifts.append(l_sum)
        return ops, shifts

    fixed = _apply_each(states, frames(hops)[0], repeat(carrier))
    bob, posts = _read(s, _R_RECEIVER, rounds, fixed, repeat(carrier), True, repeat(0), s.has_eve)
    eve = None
    if s.has_eve:
        # Eve decodes from her register of hop 1.
        regs = [labels[0] for labels in eve_regs[::hops]]
        unrotate = _eve_unrotates(channel)
        fixes, shifts = frames(1)
        if unrotate:
            posts, shifts = _apply_each(posts, fixes, regs), repeat(0)
        eve = _read(s, _R_EVE, rounds, posts, regs, unrotate, shifts)[0]
    return _compare(s, bob, eve, s.total * hops)
