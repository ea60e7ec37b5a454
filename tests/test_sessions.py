"""Protocol sessions: completeness, transcripts, aborts, accounting."""

import numpy as np
import pytest

from siftfree_qkd import (
    ClassicalMessage,
    ConfigError,
    Depolarizing,
    Loss,
    PurifiedAttack,
    SessionConfig,
    SubstitutedAttack,
    attack_report,
    bell_pair,
    factor,
    measure,
    mub_family,
    run_chain,
    run_pre_check,
    run_third_party,
    run_two_party,
)
from siftfree_qkd.sessions import _usable_check_bases
from siftfree_qkd.states import NORM_TOL

from oracles import FixedOutcome, binomial_sigma, depolarizing_check_error


def kinds(result):
    return [m.kind for m in result.transcript]


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        SessionConfig(d=4, m=2, key_length=4)
    with pytest.raises(ConfigError):
        SessionConfig(d=2, m=4, key_length=4)
    with pytest.raises(ConfigError):
        SessionConfig(d=3, m=5, key_length=4)
    with pytest.raises(ConfigError):
        SessionConfig(d=2, m=2, key_length=0)
    with pytest.raises(ConfigError):
        SessionConfig(d=2, m=2, key_length=4, abort_threshold=1.5)
    # A teleport holds d^3 amplitudes: 37^3 fits the cap, 41^3 does not.
    SessionConfig(d=37, m=2, key_length=4)
    with pytest.raises(ConfigError, match="too large"):
        SessionConfig(d=41, m=2, key_length=4)
    # An attacked link adds registers to the first teleport: d^2 for a
    # substituted pair (7^5 fits, 11^5 does not), the ancilla when purified.
    SessionConfig(d=7, m=2, key_length=4, channel=SubstitutedAttack())
    with pytest.raises(ConfigError, match="too large"):
        SessionConfig(d=11, m=2, key_length=4, channel=SubstitutedAttack())
    SessionConfig(d=13, m=2, key_length=4, channel=PurifiedAttack())
    with pytest.raises(ConfigError, match="too large"):
        SessionConfig(d=17, m=2, key_length=4, channel=PurifiedAttack())
    with pytest.raises(ConfigError):
        run_chain(SessionConfig(d=2, m=2, key_length=4), 0)


def test_third_party_requires_qubits():
    with pytest.raises(ConfigError):
        run_third_party(SessionConfig(d=3, m=2, key_length=4))


# ---------------------------------------------------------------- completeness


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_two_party_noiseless_completeness(d, m):
    cfg = SessionConfig(d=d, m=m, key_length=12, seed=d * 10 + m)
    res = run_two_party(cfg)
    assert not res.aborted
    assert res.observed_error_rate == 0.0
    assert res.alice_key == res.bob_key
    assert len(res.alice_key) == 12
    assert res.recycled_pairs == 24


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_pre_check_noiseless_completeness(d, m):
    cfg = SessionConfig(d=d, m=m, key_length=12, seed=d * 10 + m)
    res = run_pre_check(cfg)
    assert not res.aborted
    assert res.observed_error_rate == 0.0
    assert res.alice_key == res.bob_key
    assert len(res.alice_key) == 12
    assert res.recycled_pairs == 12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("trusted", [False, True])
def test_third_party_noiseless_completeness(m, trusted):
    cfg = SessionConfig(d=2, m=m, key_length=10, seed=5 * m + trusted)
    res = run_third_party(cfg, trusted=trusted)
    assert not res.aborted
    assert res.observed_error_rate == 0.0
    assert res.alice_key == res.bob_key
    assert len(res.alice_key) == 10
    assert res.recycled_pairs == 20


@pytest.mark.parametrize("d,hops", [(2, 1), (2, 4), (3, 2), (5, 1)])
def test_chain_noiseless_completeness(d, hops):
    cfg = SessionConfig(d=d, m=2, key_length=8, seed=d + hops)
    res = run_chain(cfg, hops)
    assert not res.aborted
    assert res.alice_key == res.bob_key
    assert res.recycled_pairs == hops * 16


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_check_bases_are_computational_and_fourier_at_odd_d(d):
    """Of a full family, only bases closed under conjugation serve checks.

    At odd prime d that is the computational basis (sender outcome j
    implies j) and the Fourier basis (j implies -j mod d); at d = 2 the
    circular basis qualifies too, with its two outcomes swapped.
    """
    full = mub_family(d, 3 if d == 2 else d + 1)
    expected = ((0, tuple(range(d))), (1, tuple(-j % d for j in range(d))))
    if d == 2:
        expected += ((2, (1, 0)),)
    assert _usable_check_bases(full) == expected


def _engine_check_bases(fam):
    """The check bases and outcome maps, derived through the engine.

    For each sender outcome j: measure half A of the canonical pair with
    outcome j fixed, split off A, and read half B's outcome distribution in
    the same basis.
    """
    pair = bell_pair(fam.d, ("A", "B"))
    usable = []
    for i, basis in enumerate(fam.bases):
        reads = []
        for j in range(fam.d):
            _, post, _ = measure(pair, ["A"], basis, FixedOutcome(j))
            _, receiver = factor(post, ["A"])
            reads.append(np.abs(basis.vectors.conj() @ receiver.amps) ** 2)
        if min(probs.max() for probs in reads) >= 1.0 - NORM_TOL:
            usable.append((i, tuple(int(np.argmax(probs)) for probs in reads)))
    return tuple(usable)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_check_basis_closed_form_matches_the_engine(d):
    for m in range(2, (3 if d == 2 else d + 1) + 1):
        fam = mub_family(d, m)
        assert _usable_check_bases(fam) == _engine_check_bases(fam)


def test_chain_size_check_counts_every_hop(monkeypatch):
    """A hop-h teleport holds d^3 times the registers added by hops 1..h."""
    substituted = SessionConfig(d=5, m=2, key_length=2, channel=SubstitutedAttack())
    assert run_chain(substituted, 1).recycled_pairs == 4
    purified = SessionConfig(d=5, m=2, key_length=2, channel=PurifiedAttack())
    res = run_chain(purified, 3)
    assert len(res.bob_digits) == 4
    assert res.recycled_pairs == 3 * 4

    def no_build(*args):
        raise AssertionError("a basis was built")

    # 5^3 * 25^2 is over the cap, and the chain is rejected before any basis.
    monkeypatch.setattr("siftfree_qkd.sessions.mub_family", no_build)
    with pytest.raises(ConfigError, match="too large"):
        run_chain(substituted, 2)


def test_key_digit_uniformity():
    """Across seeds, each dit value shows up at frequency 1/d."""
    d = 3
    counts = np.zeros(d)
    total = 0
    for seed in range(12):
        res = run_two_party(SessionConfig(d=d, m=2, key_length=24, seed=seed))
        for v in res.alice_key:
            counts[v] += 1
            total += 1
    assert np.abs(counts / total - 1 / d).max() < 5 * binomial_sigma(1 / d, total)


# ---------------------------------------------------------------- transcripts


def test_two_party_transcript_shape():
    res = run_two_party(SessionConfig(d=2, m=2, key_length=6, seed=1))
    ks = kinds(res)
    assert ks.count("publish_l") == 1
    assert ks.count("publish_b") == 1
    assert ks.count("check_values") == 2
    assert ks[-1] == "proceed"
    # announcement happens only after the receiver confirms every carrier
    assert ks.index("ack_received") < ks.index("publish_l") < ks.index("publish_b")
    assert ks.index("publish_b") < ks.index("check_positions")


def test_pre_check_transcript_shape():
    res = run_pre_check(SessionConfig(d=3, m=3, key_length=6, seed=2))
    ks = kinds(res)
    assert ks.count("publish_b") == 1
    assert ks.count("publish_l") == 1
    assert ks.index("check_positions") < ks.index("publish_b")
    assert ks.index("proceed") < ks.index("publish_l")
    checks = next(m for m in res.transcript if m.kind == "check_positions")
    assert list(checks.payload) == sorted(checks.payload)
    assert len(checks.payload) == 6


def test_third_party_transcript_shape():
    res = run_third_party(SessionConfig(d=2, m=2, key_length=6, seed=3), trusted=True)
    ks = kinds(res)
    assert ks.count("ack_received") == 2
    assert ks.count("charlie_mask_reveal") == 2
    assert ks.count("publish_k") == 1
    reveal = ks.index("charlie_mask_reveal")
    assert ks.index("ack_received") < reveal < ks.index("publish_k")
    signs = next(m for m in res.transcript if m.kind == "publish_k")
    assert set(signs.payload) <= {0, 1}
    assert len(signs.payload) == 12


def test_untrusted_third_party_has_no_mask_reveal():
    res = run_third_party(SessionConfig(d=2, m=2, key_length=6, seed=4), trusted=False)
    assert "charlie_mask_reveal" not in kinds(res)


def test_chain_transcript_shape():
    cfg = SessionConfig(d=2, m=2, key_length=4, seed=5)
    res = run_chain(cfg, 3)
    ks = kinds(res)
    assert ks.count("ack_received") == 3
    assert ks.count("publish_k") == 3
    assert ks.count("publish_l") == 3
    assert ks.count("publish_b") == 1
    senders = [m.sender for m in res.transcript if m.kind == "publish_k"]
    assert senders == ["alice", "e1", "e2"]


def test_malformed_transcript_rejected():
    with pytest.raises(ConfigError):
        ClassicalMessage("alice", "bob", "interpretive_dance", ())


# ---------------------------------------------------------------- adversaries


@pytest.mark.parametrize("d", [2, 3])
def test_substituted_attack_detected(d):
    cfg = SessionConfig(d=d, m=2, key_length=96, seed=31, channel=SubstitutedAttack())
    res = run_two_party(cfg)
    expected = 1 - 1 / d
    assert abs(res.observed_error_rate - expected) < 3 * binomial_sigma(expected, 96)
    assert res.aborted
    assert res.alice_key == ()
    rep = attack_report(res, d)
    assert rep.eve_alice_match_rate == 1.0
    assert rep.detected
    assert kinds(res)[-1] == "abort"


def test_substituted_attack_detected_by_pre_check():
    cfg = SessionConfig(d=2, m=2, key_length=96, seed=32, channel=SubstitutedAttack())
    res = run_pre_check(cfg)
    assert abs(res.observed_error_rate - 0.5) < 3 * binomial_sigma(0.5, 96)
    assert res.aborted
    # abort precedes teleportation, so nothing was recycled
    assert res.recycled_pairs == 0
    assert res.alice_digits == (-1,) * 192


def test_substituted_attack_detected_by_third_party():
    cfg = SessionConfig(d=2, m=2, key_length=64, seed=33, channel=SubstitutedAttack())
    res = run_third_party(cfg, trusted=False)
    assert abs(res.observed_error_rate - 0.5) < 3 * binomial_sigma(0.5, 64)
    assert res.aborted
    # Charlie already converted and recycled every triple before the checks
    assert res.recycled_pairs == 128


def test_substituted_eve_decodes_even_when_masked():
    """Mask reveal happens in public, so it cannot hide anything from Eve."""
    cfg = SessionConfig(
        d=2,
        m=2,
        key_length=48,
        seed=34,
        abort_threshold=1.0,
        channel=SubstitutedAttack(),
    )
    res = run_third_party(cfg, trusted=True)
    assert not res.aborted
    rep = attack_report(res, 2)
    assert rep.eve_alice_match_rate == 1.0
    assert abs(rep.bob_alice_match_rate - 0.5) < 3 * binomial_sigma(0.5, 48)


def test_purified_controlled_shift_error_rate():
    cfg = SessionConfig(
        d=2,
        m=2,
        key_length=192,
        seed=35,
        channel=PurifiedAttack(),
    )
    res = run_two_party(cfg)
    assert abs(res.observed_error_rate - 0.25) < 3 * binomial_sigma(0.25, 192)
    assert res.aborted


def test_depolarizing_error_scales_with_p():
    errors = []
    for p in (0.0, 0.4, 1.0):
        cfg = SessionConfig(d=2, m=2, key_length=128, seed=36, channel=Depolarizing(p))
        errors.append(run_two_party(cfg).observed_error_rate)
    assert errors[0] == 0.0
    assert errors[0] < errors[1] < errors[2] + 1e-9


# ---------------------------------------------------------------- loss


def test_loss_retransmits_until_delivery():
    cfg = SessionConfig(d=2, m=2, key_length=12, seed=37, channel=Loss(0.35))
    res = run_two_party(cfg)
    assert not res.aborted
    assert res.alice_key == res.bob_key
    ks = kinds(res)
    lost = ks.count("pair_lost")
    assert lost > 0
    assert ks.count("pair_retransmitted") == lost
    assert res.recycled_pairs == 24


def test_loss_messages_name_the_slot():
    cfg = SessionConfig(d=2, m=2, key_length=8, seed=38, channel=Loss(0.5))
    res = run_two_party(cfg)
    for msg in res.transcript:
        if msg.kind in ("pair_lost", "pair_retransmitted"):
            assert len(msg.payload) == 1
            assert 0 <= msg.payload[0] < 16


# ---------------------------------------------------------------- determinism


def test_same_seed_reproduces_everything():
    cfg = SessionConfig(d=3, m=3, key_length=10, seed=40, channel=Depolarizing(0.2))
    a = run_two_party(cfg)
    b = run_two_party(cfg)
    assert a.alice_key == b.alice_key
    assert a.bob_digits == b.bob_digits
    assert a.transcript == b.transcript
    assert a.observed_error_rate == b.observed_error_rate


def test_different_seeds_give_different_keys():
    keys = {
        run_two_party(SessionConfig(d=2, m=2, key_length=16, seed=s)).alice_key
        for s in range(6)
    }
    assert len(keys) > 1


def test_chain_single_hop_matches_two_party_digits():
    """One relay-free link is the restated two-party protocol."""
    for seed in (0, 7, 123):
        cfg = SessionConfig(d=3, m=3, key_length=12, seed=seed)
        assert (
            run_chain(cfg, 1).bob_digits
            == run_two_party(cfg).bob_digits
        )


@pytest.mark.parametrize("d,hops", [(2, 3), (3, 2)])
def test_noisy_chain_check_error_compounds_over_hops(d, hops):
    """Depolarizing(p) on every hop acts like one hop at 1 - (1 - p)**hops.

    A product of independent uniform Paulis is uniform, and the MUB
    rotations are Clifford, so the hops' byproducts and noise commute into
    one Pauli applied with that probability.
    """
    p, n = 0.2, 256
    p_any = 1 - (1 - p) ** hops
    expected = depolarizing_check_error(d, p_any, 2)
    assert abs(expected - p_any * (d - 1) / d) < 1e-12
    cfg = SessionConfig(
        d=d, m=2, key_length=n, seed=410 + 10 * d + hops,
        abort_threshold=1.0, channel=Depolarizing(p),
    )
    res = run_chain(cfg, hops)
    assert abs(res.observed_error_rate - expected) < 3 * binomial_sigma(expected, n)


def test_two_party_check_digits_match_published_values():
    res = run_two_party(SessionConfig(d=2, m=3, key_length=8, seed=43))
    alice_vals = [m for m in res.transcript if m.kind == "check_values"][0]
    assert alice_vals.payload == tuple(res.alice_digits[r] for r in res.check_positions)


def test_eve_digits_absent_without_adversary():
    res = run_two_party(SessionConfig(d=2, m=2, key_length=4, seed=44))
    assert res.eve_digits is None
    res = run_two_party(
        SessionConfig(d=2, m=2, key_length=4, seed=44, channel=SubstitutedAttack())
    )
    assert res.eve_digits is not None and len(res.eve_digits) == 8
