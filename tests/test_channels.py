"""Channel models, adversary bookkeeping, and the detection estimators."""

import numpy as np
import pytest

from siftfree_qkd import (
    AttackReport,
    Depolarizing,
    DimensionError,
    Ideal,
    Loss,
    PurifiedAttack,
    Rng,
    SessionConfig,
    SubstitutedAttack,
    apply_channel,
    attack_report,
    bb84_correspondence_check,
    bell_pair,
    blind_guess_monte_carlo,
    controlled_shift,
    fidelity,
    haar_state,
    haar_unitary,
    run_two_party,
)

from oracles import binomial_sigma


def test_parameter_validation():
    with pytest.raises(ValueError):
        Depolarizing(1.5)
    with pytest.raises(ValueError):
        Loss(-0.1)
    with pytest.raises(ValueError):
        Loss(1.0)


def test_ideal_channel_is_identity():
    pair = bell_pair(3)
    out = apply_channel(pair, "B", Ideal(), Rng(0))
    assert out.state is pair
    assert out.eve_labels == ()
    assert not out.lost


def test_depolarizing_zero_probability_never_fires():
    pair = bell_pair(2)
    rng = Rng(4)
    for _ in range(50):
        out = apply_channel(pair, "B", Depolarizing(0.0), rng)
        assert fidelity(out.state, pair) > 1 - 1e-12


def test_depolarizing_full_probability_usually_disturbs():
    pair = bell_pair(2)
    rng = Rng(8)
    disturbed = 0
    n = 400
    for _ in range(n):
        out = apply_channel(pair, "B", Depolarizing(1.0), rng)
        if fidelity(out.state, pair) < 0.5:
            disturbed += 1
    # 3 of the 4 equally likely Paulis move the pair to an orthogonal state
    assert abs(disturbed / n - 0.75) < 5 * binomial_sigma(0.75, n)


def test_loss_marks_lost_without_touching_state():
    pair = bell_pair(2)
    rng = Rng(15)
    flags = [apply_channel(pair, "B", Loss(0.4), rng).lost for _ in range(500)]
    rate = np.mean(flags)
    assert abs(rate - 0.4) < 5 * binomial_sigma(0.4, 500)


def test_substituted_attack_relabels_and_splices():
    pair = bell_pair(2)
    out = apply_channel(pair, "B", SubstitutedAttack(), Rng(0))
    assert out.eve_labels == ("B#eve", "B#keep")
    assert set(out.state.labels) == {"A", "B", "B#eve", "B#keep"}
    stolen, _ = out.eve_labels
    # Eve's stolen half still forms the canonical pair with Alice's qudit
    from siftfree_qkd import factor, relabel

    hers, _ = factor(out.state, ["A", stolen])
    assert fidelity(hers, bell_pair(2, ("A", stolen))) > 1 - 1e-9


def test_purified_attack_adds_ancilla():
    out = apply_channel(bell_pair(2), "B", PurifiedAttack(controlled_shift(2)), Rng(0))
    assert out.eve_labels == ("B#anc",)
    assert out.state.dims == (2, 2, 2)


def test_purified_attack_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(bell_pair(2), "B", PurifiedAttack(controlled_shift(3)), Rng(0))
    # The ancilla must have at least two levels.
    from siftfree_qkd import UnitaryOp

    with pytest.raises(DimensionError):
        apply_channel(bell_pair(2), "B", PurifiedAttack(UnitaryOp(2, np.eye(2))), Rng(0))


def test_purified_identity_coupling_is_ideal():
    from siftfree_qkd import UnitaryOp

    u = UnitaryOp(4, np.eye(4))
    out = apply_channel(bell_pair(2), "B", PurifiedAttack(u), Rng(0))
    part, anc = out.state, out.eve_labels[0]
    from siftfree_qkd import factor

    pair, rest = factor(part, ["A", "B"])
    assert fidelity(pair, bell_pair(2)) > 1 - 1e-9
    assert rest.labels == (anc,)


def test_controlled_shift_matrix():
    u = controlled_shift(2).matrix
    # |b,e> -> |b, e+b>: only |10> and |11> swap
    expected = np.eye(4)[:, [0, 1, 3, 2]]
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, Rng(3)).matrix
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-9)


def test_haar_state_normalized():
    v = haar_state(7, Rng(9))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestBlindGuessBound:
    """Holding half of any fixed entangled state says nothing about a fresh
    uniform secret: pooled guessing success must sit at 1/d."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_pooled_rate(self, d):
        n = 40 * 250
        rate = blind_guess_monte_carlo(d, 40, 250, Rng(100 + d))
        assert abs(rate - 1.0 / d) < 3 * binomial_sigma(1.0 / d, n)

    def test_always_guess_zero_strategy(self):
        """Degenerate check: uniform secrets alone give exactly 1/d."""
        rng = Rng(55)
        hits = sum(1 for _ in range(3000) if int(rng.integers(0, 3)) == 0)
        assert abs(hits / 3000 - 1 / 3) < 3 * binomial_sigma(1 / 3, 3000)


class TestBb84Correspondence:
    def test_identity_coupling(self):
        from siftfree_qkd import UnitaryOp

        u = UnitaryOp(4, np.eye(4))
        for s in range(2):
            for l in range(2):
                for i in range(2):
                    f = bb84_correspondence_check(u, s=s, l=l, i=i)
                    assert f > 1 - 1e-9

    def test_controlled_shift_coupling(self):
        u = controlled_shift(2)
        for s in range(2):
            for l in range(2):
                for i in range(2):
                    for k in range(2):
                        f = bb84_correspondence_check(u, s=s, l=l, i=i, k=k)
                        assert f > 1 - 1e-9

    def test_haar_couplings(self):
        rng = Rng(77)
        for trial in range(5):
            u = haar_unitary(4, rng.child(trial))
            f = bb84_correspondence_check(u, s=1, l=1, i=1, k=1)
            assert f > 1 - 1e-9


class TestAttackReport:
    def _result(self, alice, bob, eve, checks, aborted):
        from siftfree_qkd import KeyResult

        return KeyResult(
            aborted=aborted,
            alice_key=(),
            bob_key=(),
            observed_error_rate=0.5,
            transcript=(),
            recycled_pairs=0,
            alice_digits=alice,
            bob_digits=bob,
            eve_digits=eve,
            check_positions=checks,
        )

    def test_rates_over_key_positions_only(self):
        res = self._result((0, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 2), True)
        rep = attack_report(res, 2)
        assert rep.bob_alice_match_rate == 1.0
        assert rep.eve_alice_match_rate == 1.0
        assert rep.detected

    def test_blind_baseline_without_adversary(self):
        res = self._result((0, 1, 2, 1), (0, 1, 2, 1), None, (0,), False)
        rep = attack_report(res, 3)
        assert abs(rep.eve_alice_match_rate - 1 / 3) < 1e-12
        assert not rep.detected

    def test_blind_baseline_is_one_over_the_session_dimension(self):
        # No key digit reaches 4 here, so the largest digit would suggest d <= 4.
        res = run_two_party(SessionConfig(d=5, m=2, key_length=2, seed=0))
        assert max(res.alice_key) < 4
        assert attack_report(res, 5).eve_alice_match_rate == 0.2

    def test_no_comparable_positions_raises(self):
        res = self._result((-1, -1), (-1, -1), None, (), True)
        with pytest.raises(DimensionError):
            attack_report(res, 2)

    def test_report_is_plain_record(self):
        rep = AttackReport(0.5, 1.0, True)
        assert rep.bob_alice_match_rate == 0.5
