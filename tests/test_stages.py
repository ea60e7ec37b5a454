"""Stage functions: one step per group of rounds, one bisect per round.

A stage (`measure_rounds`, `teleport_rounds`, `teleport_ghz_rounds`) takes
each round's first draw instead of its stream. These tests pin that the
draws are the streams' own, that a pick from a step's edges is `Rng.pick`'s,
and that a stage returns what the per-round public calls return.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siftfree_qkd import (
    Loss,
    MeasurementBasis,
    PurifiedAttack,
    Rng,
    SessionConfig,
    StateVector,
    SubstitutedAttack,
    ZeroProbabilityError,
    apply_unitary,
    basis_state,
    bell_basis,
    bell_pair,
    computational_basis,
    ghz_state,
    measure,
    mub_family,
    run_two_party,
    teleport,
    teleport_ghz,
)
from siftfree_qkd import states
from siftfree_qkd.memo import MemoTable
from siftfree_qkd.rng import cumulative
from siftfree_qkd.sessions import (
    _R_RECEIVER,
    _R_SENDER_MEAS,
    _R_TELEPORT,
    _R_TRIPLE,
    _Session,
)
from siftfree_qkd.states import MEMO_LIMIT, ZERO_PROB, measure_rounds, memo_stats
from siftfree_qkd.teleport import teleport_ghz_rounds, teleport_rounds

from test_states import random_state


class _Drawn(Rng):
    """A stream whose every `random()` is u."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def random(self, size=None):
        return self.u


# Sessions of every shape of stream grid: purposes by round, Eve's stream,
# a chain's teleports by round and hop, and a noisy channel's attempts.
_SESSIONS = [
    (SessionConfig(d=3, m=2, key_length=8, seed=21), (_R_TELEPORT, _R_RECEIVER), None),
    (
        SessionConfig(d=2, m=3, key_length=8, seed=22, channel=SubstitutedAttack()),
        (_R_TELEPORT, _R_RECEIVER, _R_SENDER_MEAS, _R_TRIPLE),
        None,
    ),
    (
        SessionConfig(d=5, m=2, key_length=4, seed=23, channel=Loss(0.4)),
        (_R_TELEPORT, _R_RECEIVER),
        3,
    ),
    (
        SessionConfig(d=3, m=2, key_length=4, seed=24, channel=PurifiedAttack()),
        (_R_TELEPORT, _R_RECEIVER),
        2,
    ),
]


def _every_draw(s, hops):
    """(purpose, hop) -> draws of all rounds, for every stream the session named."""
    drawn = {}
    rounds = range(s.total)
    for purpose in s._streams:
        for hop in range(1, hops + 1) if hops and purpose == _R_TELEPORT else (None,):
            drawn[purpose, hop] = s.draws(purpose, rounds, hop)
    return drawn


@pytest.mark.parametrize("config, purposes, hops", _SESSIONS)
def test_session_draws_are_the_round_streams_first_draws(config, purposes, hops, monkeypatch):
    s = _Session(config, purposes, hops)
    drawn = _every_draw(s, hops)
    assert {purpose for purpose, _ in drawn} >= set(purposes)
    for (purpose, hop), draws in drawn.items():
        path = () if hop is None else (hop,)
        assert draws == [s.stream(purpose, r, *path).random() for r in range(s.total)]
        assert all(type(u) is float for u in draws)
        # Any subset of rounds, in any order, picks the same draws.
        some = list(range(s.total))[::-3]
        assert s.draws(purpose, some, hop) == [draws[r] for r in some]
    # A session whose streams hold no batch draws from the streams themselves.
    monkeypatch.setattr(Rng, "child_draws", lambda self: None)
    assert _every_draw(_Session(config, purposes, hops), hops) == drawn


_WEIGHT = st.one_of(st.just(0.0), st.just(0.25), st.floats(0.0, 1e3, allow_subnormal=False))


def _group_of(weights):
    """A builder of the step group measuring one qudit with the weights as probabilities.

    The weights are normalized, and a single weight gets a zero beside it,
    since a subsystem has dimension >= 2.
    """
    padded = weights + [0.0] if len(weights) < 2 else weights
    amps = np.sqrt(np.asarray(padded) / sum(weights))
    state = StateVector(("A",), (amps.size,), amps)
    basis = MeasurementBasis(amps.size, np.eye(amps.size))
    return lambda: states._measure_group(state, None, ("A",), basis)


def _both_picks(group, u):
    """The per-call and the stage pick at draw u: (outcome, post bytes) or the error."""

    def outcome_of(pick):
        try:
            outcome, post = pick()
        except ZeroProbabilityError as exc:
            return str(exc)
        return outcome, post.amps.tobytes()

    per_call = outcome_of(lambda: states._pick(_Drawn(u), group())[:2])
    staged = outcome_of(lambda: [x[0] for x in states._stage([()], [u], group)])
    return per_call, staged


@given(
    weights=st.lists(_WEIGHT, min_size=1, max_size=49),
    u=st.one_of(
        st.just(0.0), st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True)
    ),
    at_edge=st.integers(0, 48),
)
@settings(max_examples=400, deadline=None)
def test_stage_pick_is_rng_pick(weights, u, at_edge):
    """Same outcome, post state and error as `Rng.pick` on the same draw.

    Both paths draw from one step group: the per-call pick calls
    `rng.pick` on its probabilities, a stage round bisects its edges.
    Zero weights and repeated weights make tied edges; `at_edge` moves u
    onto an edge, where the bisect's side decides.
    """
    assume(sum(weights) > 0)
    group = _group_of(weights)
    with mock.patch.object(states, "_memo", MemoTable(MEMO_LIMIT)):
        probs = group().step.probs
        edges = cumulative(probs)
        if at_edge < len(edges) and edges[at_edge] < edges[-1]:
            u = edges[at_edge] / edges[-1]
        per_call, staged = _both_picks(group, u)
    assert staged == per_call
    # Rng.pick is numpy's cumsum and searchsorted(side="right"), clipped.
    sums = np.cumsum(probs)
    index = min(int(np.searchsorted(sums, u * sums[-1], side="right")), len(probs) - 1)
    assert _Drawn(u).pick(probs) == index
    if isinstance(per_call, str):
        assert probs[index] < ZERO_PROB
    else:
        assert per_call[0] == index


def test_stage_pick_raises_below_zero_prob(monkeypatch):
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    per_call, staged = _both_picks(_group_of([1e-13, 1.0 - 1e-13]), 0.5e-13)
    assert per_call == staged
    assert re.fullmatch(r"outcome 0 has probability \S+e-14, below 1e-12", per_call)
    tiny = StateVector(("A",), (2,), np.sqrt([1e-13, 1.0 - 1e-13]))
    with pytest.raises(ZeroProbabilityError, match="outcome 0 has probability"):
        measure_rounds([(tiny, None, ("A",), computational_basis(2))], [0.0], posts=False)
    # Only steps were stored (one per basis object), no post state.
    assert [key[0] for key in states._memo._entries] == ["measure", "measure"]
    # Zero weights are never picked while a positive one is left.
    zeros = StateVector(("A", "B"), (3, 2), [0, 0, 1, 0, 0, 0])
    for u in (0.0, 1.0 - 2.0**-53):
        outcome, post, prob = measure(zeros, ("A",), computational_basis(3), _Drawn(u))
        assert (outcome, prob) == (1, 1.0)
        assert measure_rounds([(zeros, None, ("A",), computational_basis(3))], [u])[0] == [1]


def _states_and_streams(n, seed):
    """Round i's stream is Rng(seed, (i,)); its first draw is the stage's u."""
    streams = [Rng(seed, (i,)) for i in range(n)]
    return streams, [Rng(seed, (i,)).random() for i in range(n)]


def test_measure_rounds_equals_unitary_then_measure():
    """Grouped rounds read the same outcomes and post states as one call each."""
    shared = [random_state(("A", "B"), (3, 3), seed) for seed in (1, 2)]
    op = mub_family(3, 3).inverses[2]
    basis = computational_basis(3)
    rounds = [
        (shared[i % 2], op if i % 3 else None, ("B",) if i % 4 else ("A",), basis)
        for i in range(24)
    ]
    streams, draws = _states_and_streams(len(rounds), 5)
    outcomes, posts = measure_rounds(rounds, draws)
    assert measure_rounds(rounds, draws, posts=False) == (outcomes, [])
    for (state, rot, targets, basis), rng, outcome, post in zip(rounds, streams, outcomes, posts):
        if rot is not None:
            state = apply_unitary(state, rot, targets)
        want, want_post, _ = measure(state, targets, basis, rng)
        assert outcome == want
        assert (post.labels, post.amps.tobytes()) == (want_post.labels, want_post.amps.tobytes())


def test_teleport_rounds_equals_teleport():
    d = 3
    inputs = [basis_state(d, v, "A_in") for v in range(d)]
    pairs = [bell_pair(d), random_state(("A", "B", "E"), (3, 3, 2), 9)]
    rounds = [(inputs[i % d], pairs[i % 2]) for i in range(30)]
    streams, draws = _states_and_streams(len(rounds), 6)
    outcomes, rests = teleport_rounds((a for a, _ in rounds), (p for _, p in rounds), draws)
    for (state, pair), rng, outcome, rest in zip(rounds, streams, outcomes, rests):
        out = teleport(state, pair, rng)
        assert outcome == out.k * d + out.l
        assert rest.amps.tobytes() == out.receiver_state.amps.tobytes()


def test_teleport_ghz_rounds_equals_teleport_ghz():
    plus = StateVector(("F1", "F2"), (2, 2), np.full(4, 0.5))
    ghzs = [ghz_state(), apply_unitary(ghz_state(), mub_family(2, 2).unitaries[1], ["B"])]
    rounds = [ghzs[i % 3 == 0] for i in range(20)]
    streams, draws = _states_and_streams(len(rounds), 7)
    outcomes, rests = teleport_ghz_rounds(plus, rounds, draws)
    for ghz, rng, outcome, rest in zip(rounds, streams, outcomes, rests):
        want, want_rest = teleport_ghz(plus, ghz, rng)
        assert outcome == want
        assert rest.amps.tobytes() == want_rest.amps.tobytes()


def test_stage_validates_like_the_public_call():
    with pytest.raises(Exception) as public:
        teleport(basis_state(3, 0, "in"), bell_pair(2), Rng(0))
    with pytest.raises(type(public.value), match=re.escape(str(public.value))):
        teleport_rounds([basis_state(3, 0, "in")], [bell_pair(2)], [0.5])
    with pytest.raises(ValueError):
        measure_rounds([(bell_pair(2), None, ("A",), bell_basis(2))], [0.5])


def test_warm_two_party_makes_under_one_lookup_per_round(monkeypatch):
    """A warm session pays per distinct step, not per round.

    Two_party d=3 on the substituted channel at N=256, the benchmark's
    headline configuration: before stages it made 11 op-memo lookups per
    round, one per engine op. Stages look each distinct step up once, so
    the count per round falls as N grows; here it is about 0.8.
    """
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    config = SessionConfig(d=3, m=2, key_length=256, seed=3, channel=SubstitutedAttack())
    first = run_two_party(config)
    before = memo_stats()
    assert run_two_party(config) == first
    after = memo_stats()
    assert after.misses == before.misses
    assert (after.hits - before.hits) / (2 * config.key_length) < 1
