"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints one [PASS] line when its criterion holds; a failing
criterion fails its test and prints nothing. Expected values come from the
independent reference computations in oracles.py or from closed-form
constants; tolerances are binomial-sigma bounds at the stated multiples.
Everything is seeded, so reruns are bit-for-bit stable.
"""

import numpy as np

from siftfree_qkd import (
    ExperimentSpec,
    Rng,
    SessionConfig,
    StateVector,
    SubstitutedAttack,
    Depolarizing,
    PurifiedAttack,
    apply_unitary,
    attack_report,
    basis_state,
    bell_pair,
    correction_op,
    emit_transcript,
    fidelity,
    ghz_basis,
    ghz_recycle_ops,
    ghz_state,
    mub_family,
    run_chain,
    run_experiment,
    run_pre_check,
    run_third_party,
    run_two_party,
    teleport,
    teleport_ghz,
    tensor,
)

from oracles import (
    FixedOutcome,
    bb84_correspondence_check,
    binomial_sigma,
    blind_guess_monte_carlo,
    complex_normal,
    depolarizing_check_error,
    ghz_bracket_expansion,
    haar_unitary,
)


def _random_input(d, rng, label="in"):
    amps = complex_normal(rng, d)
    return StateVector((label,), (d,), amps / np.linalg.norm(amps))


def test_criterion_01_teleport_round_trip():
    """d in {2,3,5}: every fixed (k,l) x 50 random inputs restores exactly."""
    worst = 1.0
    for d in (2, 3, 5):
        rng = Rng(1000 + d)
        for trial in range(50):
            state = _random_input(d, rng.child(trial))
            target = StateVector(("B",), (d,), state.amps)
            for k in range(d):
                for l in range(d):
                    out = teleport(state, bell_pair(d), FixedOutcome(k * d + l))
                    fixed = apply_unitary(
                        out.receiver_state, correction_op(d, k, l), ["B"]
                    )
                    worst = min(worst, fidelity(fixed, target))
    assert worst >= 1 - 1e-9
    print(f"[PASS] criterion 1: round-trip fidelity >= 1-1e-9 (worst {worst:.3e})")


def test_criterion_02_outcome_uniformity():
    """10^4 sampled teleportations at d=3: every (k,l) within 5 sigma of 1/9."""
    d = 3
    n = 10_000
    rng = Rng(2025)
    counts = np.zeros(d * d)
    pair = bell_pair(d)
    for i in range(n):
        state = _random_input(d, rng.child(0, i))
        out = teleport(state, pair, rng)
        counts[out.k * d + out.l] += 1
    freqs = counts / n
    sigma = binomial_sigma(1 / 9, n)
    deviation = np.abs(freqs - 1 / 9).max()
    assert deviation < 5 * sigma
    print(
        f"[PASS] criterion 2: outcome frequencies within 5 sigma of 1/9 "
        f"(max dev {deviation:.4f}, bound {5 * sigma:.4f})"
    )


def test_criterion_03_mub_families():
    """Full families for d in {2,3,5,7}: every cross overlap is 1/d exactly."""
    worst = 0.0
    for d in (2, 3, 5, 7):
        m = 3 if d == 2 else d + 1
        fam = mub_family(d, m)
        assert len(fam.bases) == m
        for i in range(m):
            for j in range(i + 1, m):
                overlap = (
                    np.abs(fam.bases[i].vectors.conj() @ fam.bases[j].vectors.T) ** 2
                )
                worst = max(worst, np.abs(overlap - 1 / d).max())
    assert worst < 1e-9
    print(f"[PASS] criterion 3: MUB overlaps at 1/d within 1e-9 (worst dev {worst:.2e})")


def test_criterion_04_noiseless_completeness():
    """Every mode, d in {2,3} (third-party d=2), m in {2,3}: perfect keys."""
    runs = 0

    def check(res, expected_recycled, n):
        nonlocal runs
        assert not res.aborted
        assert res.observed_error_rate == 0.0
        assert res.alice_key == res.bob_key
        assert len(res.alice_key) == n
        assert res.recycled_pairs == expected_recycled
        runs += 1

    for d in (2, 3):
        for m in (2, 3):
            n = 128
            cfg = SessionConfig(d=d, m=m, key_length=n, seed=400 + 10 * d + m)
            check(run_two_party(cfg), 2 * n, n)
            check(run_pre_check(cfg), n, n)
    for m in (2, 3):
        for trusted in (False, True):
            n = 128
            cfg = SessionConfig(d=2, m=m, key_length=n, seed=450 + m + trusted)
            check(run_third_party(cfg, trusted=trusted), 2 * n, n)
    for d, m, hops, n in ((2, 2, 5, 64), (3, 2, 2, 128), (2, 3, 3, 96)):
        cfg = SessionConfig(d=d, m=m, key_length=n, seed=470 + hops)
        check(run_chain(cfg, hops), hops * 2 * n, n)
    print(f"[PASS] criterion 4: noiseless completeness over {runs} mode/parameter runs")


def test_criterion_05_substituted_attack_detection():
    """d in {2,3}, N=512: error at 1-1/d, session aborts, Eve decodes the key."""
    for d in (2, 3):
        cfg = SessionConfig(
            d=d, m=2, key_length=512, seed=500 + d, channel=SubstitutedAttack()
        )
        res = run_two_party(cfg)
        expected = 1 - 1 / d
        sigma = binomial_sigma(expected, 512)
        assert abs(res.observed_error_rate - expected) < 3 * sigma
        assert res.aborted, "substituted attack must trip the 0.05 threshold"
        rep = attack_report(res, d)
        assert rep.eve_alice_match_rate >= 0.99
        print(
            f"[PASS] criterion 5: substituted attack at d={d} detected "
            f"(error {res.observed_error_rate:.4f} ~ {expected:.4f}, "
            f"eve match {rep.eve_alice_match_rate:.3f})"
        )


def test_criterion_06_blind_guess_monte_carlo():
    """Pooled guess rate over 10^5 samples sits at 1/d for d in {2,3}."""
    for d in (2, 3):
        n_strategies, trials_per = 200, 500
        n = n_strategies * trials_per
        rate = blind_guess_monte_carlo(d, n_strategies, trials_per, Rng(600 + d))
        sigma = binomial_sigma(1 / d, n)
        assert abs(rate - 1 / d) < 3 * sigma
        print(
            f"[PASS] criterion 6: blind guess rate {rate:.4f} ~ 1/{d} "
            f"over {n} samples (3 sigma = {3 * sigma:.4f})"
        )


def test_criterion_07_purified_attack_bb84_correspondence():
    """Coupled-ancilla states match the BB84 form; shift coupling errs at 1/4."""
    rng = Rng(700)
    worst = 1.0
    for trial in range(20):
        u_e = haar_unitary(4, rng.child(trial))
        for k in range(2):
            for l in range(2):
                for s in range(2):
                    for i in range(2):
                        f = bb84_correspondence_check(u_e, s=s, l=l, i=i, k=k)
                        worst = min(worst, f)
    assert worst >= 1 - 1e-9

    cfg = SessionConfig(
        d=2, m=2, key_length=512, seed=701,
        channel=PurifiedAttack(),
    )
    res = run_two_party(cfg)
    sigma = binomial_sigma(0.25, 512)
    assert abs(res.observed_error_rate - 0.25) < 3 * sigma
    print(
        f"[PASS] criterion 7: BB84 correspondence fidelity >= 1-1e-9 "
        f"(worst {worst:.3e}); shift-coupling error {res.observed_error_rate:.4f} ~ 0.25"
    )


def test_criterion_08_bracket_expansion_and_ghz_recycling():
    """The 8-outcome expansion: probabilities, sign classes, recycling."""
    probs, pair_states = ghz_bracket_expansion()
    assert np.abs(probs - 0.125).max() < 1e-9
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    plus_rot = mub_family(2, 2).unitaries[1]
    for outcome in range(8):
        target = phi_plus if outcome in (0, 1, 4, 5) else phi_minus
        assert abs(np.vdot(target, pair_states[outcome])) > 1 - 1e-9
        # engine agrees with the hand expansion outcome by outcome
        flying = tensor(
            [
                apply_unitary(basis_state(2, 0, "F1"), plus_rot, ["F1"]),
                apply_unitary(basis_state(2, 0, "F2"), plus_rot, ["F2"]),
            ]
        )
        picker = FixedOutcome(outcome)
        _, rest = teleport_ghz(flying, ghz_state(), picker)
        assert abs(picker.probability - 0.125) < 1e-9
        assert fidelity(rest, StateVector(("A", "B"), (2, 2), pair_states[outcome])) > 1 - 1e-9

    n = 8000
    rng = Rng(800)
    counts = np.zeros(8)
    for _ in range(n):
        flying = tensor(
            [
                apply_unitary(basis_state(2, 0, "F1"), plus_rot, ["F1"]),
                apply_unitary(basis_state(2, 0, "F2"), plus_rot, ["F2"]),
            ]
        )
        outcome, _ = teleport_ghz(flying, ghz_state(), rng)
        counts[outcome] += 1
    sigma = binomial_sigma(0.125, n)
    deviation = np.abs(counts / n - 0.125).max()
    assert deviation < 5 * sigma

    basis = ghz_basis()
    table = ghz_recycle_ops()
    canonical = ghz_state(("C1", "C2", "C"))
    for outcome in range(8):
        collapsed = StateVector(("C1", "C2", "C"), (2, 2, 2), basis.vectors[outcome])
        op2, op3 = table[outcome]
        restored = apply_unitary(collapsed, op2, ["C2"])
        restored = apply_unitary(restored, op3, ["C"])
        assert fidelity(restored, canonical) > 1 - 1e-12
    print(
        f"[PASS] criterion 8: bracket expansion exact, sampled within 5 sigma "
        f"(max dev {deviation:.4f}), all 8 recycle restorations at fidelity 1"
    )


def test_criterion_09_depolarizing_calibration():
    """d=2: observed check error tracks the enumerated flip-rate oracle."""
    for p in (0.1, 0.3):
        expected = depolarizing_check_error(2, p, 2)
        assert abs(expected - p / 2) < 1e-12  # the enumeration lands on p/2
        cfg = SessionConfig(
            d=2, m=2, key_length=512, seed=int(900 + 10 * p),
            abort_threshold=1.0, channel=Depolarizing(p),
        )
        res = run_two_party(cfg)
        sigma = binomial_sigma(expected, 512)
        assert abs(res.observed_error_rate - expected) < 3 * sigma
        print(
            f"[PASS] criterion 9: depolarizing p={p} error "
            f"{res.observed_error_rate:.4f} ~ oracle {expected:.4f} "
            f"(3 sigma = {3 * sigma:.4f})"
        )


def test_criterion_09_depolarizing_calibration_at_larger_d():
    """d in {5, 7}: the check error tracks the oracle's p (d-1)/d."""
    for d in (5, 7):
        for p in (0.1, 0.3):
            expected = depolarizing_check_error(d, p, 2)
            assert abs(expected - p * (d - 1) / d) < 1e-12
            cfg = SessionConfig(
                d=d, m=2, key_length=512, seed=9000 + 100 * d + round(10 * p),
                abort_threshold=1.0, channel=Depolarizing(p),
            )
            res = run_two_party(cfg)
            sigma = binomial_sigma(expected, 512)
            assert abs(res.observed_error_rate - expected) < 3 * sigma
            print(
                f"[PASS] criterion 9: d={d} depolarizing p={p} error "
                f"{res.observed_error_rate:.4f} ~ oracle {expected:.4f} "
                f"(3 sigma = {3 * sigma:.4f})"
            )


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Same spec, same master seed: summary, CSV, transcript all identical."""
    kwargs = dict(
        mode="chain", d=3, m=3, key_length=16, trials=4, master_seed=424242,
        hops=2, channel_kind="depolarizing", noise_p=0.15,
    )
    paths = {}
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        spec = ExperimentSpec(output_path=str(out), csv_path=str(csv), **kwargs)
        run_experiment(spec)
        paths[tag] = (out.read_bytes(), csv.read_bytes(), emit_transcript(spec, 2))
    assert paths["first"] == paths["second"]
    print("[PASS] criterion 10: rerun outputs byte-identical (summary, CSV, transcript)")
