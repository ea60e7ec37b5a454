"""Teleportation byproducts, corrections, recycling, triple measurements."""

import importlib

import numpy as np
import pytest

from siftfree_qkd import (
    DimensionError,
    Rng,
    SessionConfig,
    StateVector,
    apply_unitary,
    basis_state,
    bell_basis,
    bell_pair,
    bell_recycle_ops,
    computational_basis,
    correction_op,
    fidelity,
    ghz_recycle_ops,
    ghz_state,
    measure,
    mub_family,
    pauli_matrix,
    recycle,
    run_chain,
    run_pre_check,
    run_third_party,
    run_two_party,
    teleport,
    teleport_ghz,
    tensor,
)
from siftfree_qkd import states
from siftfree_qkd.memo import MemoTable
from siftfree_qkd.states import MEMO_LIMIT, NORM_TOL, MeasurementBasis, memo_stats

from oracles import (
    FixedOutcome,
    complex_normal,
    frame_x_shift,
    ghz_bracket_expansion,
    teleport_reference,
)

# The package's `teleport` attribute is the function; this is the module.
teleport_module = importlib.import_module("siftfree_qkd.teleport")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kicked_round_reads_secret_plus_pauli_frame_shift(d):
    """Every (basis, secret, k, l, kick on half B) against the exact oracle.

    The dense path of one round: rotate half B, kick it with X^x Z^z, teleport
    the secret with outcome (k, l), unrotate, read, subtract l. The digit must
    be certain and equal to the secret plus the X-exponent of U^dagger P U.
    """
    m = 3 if d == 2 else d + 1
    fam = mub_family(d, m)
    read = computational_basis(d)
    rng = Rng(0)
    for i in range(m):
        rotated = apply_unitary(bell_pair(d, ("A", "B")), fam.unitaries[i], ["B"])
        for x in range(d):
            for z in range(d):
                # pauli_matrix(d, z, x) is Z^z X^x, X^x Z^z up to phase.
                pair = apply_unitary(rotated, pauli_matrix(d, z, x), ["B"])
                shift = frame_x_shift(d, i, x, z)
                for secret in range(d):
                    for k in range(d):
                        for l in range(d):
                            secret_in = basis_state(d, secret, "A_in")
                            out = teleport(secret_in, pair, FixedOutcome(k * d + l))
                            held = apply_unitary(out.receiver_state, fam.inverses[i], ["B"])
                            outcome, _, prob = measure(held, ["B"], read, rng)
                            assert prob > 1.0 - NORM_TOL
                            assert (outcome - l) % d == (secret + shift) % d


def random_qudit(d, seed, label="psi"):
    amps = complex_normal(Rng(seed), d)
    return StateVector((label,), (d,), amps / np.linalg.norm(amps))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_forced_outcome_matches_reference(d):
    """Receiver state and outcome probability against the loop-built oracle."""
    state = random_qudit(d, 40 + d)
    for k in range(d):
        for l in range(d):
            out = teleport(state, bell_pair(d), FixedOutcome(k * d + l))
            ref_amps, ref_prob = teleport_reference(d, k, l, state.amps)
            got = out.receiver_state
            overlap = abs(np.vdot(ref_amps, got.amps))
            assert overlap > 1 - 1e-9
            assert abs(out.probability - ref_prob) < 1e-12
            assert abs(ref_prob - 1.0 / d**2) < 1e-12


def carried_state(d, seed):
    """A relayed carrier "psi", entangled with a register "E" listed first."""
    amps = complex_normal(Rng(seed), 3 * d)
    return StateVector(("E", "psi"), (3, d), amps / np.linalg.norm(amps))


@pytest.mark.parametrize(
    "d, carried",
    [(2, False), (3, False), (5, False), (2, True), (3, True), (5, True)],
    ids=["2", "3", "5", "carried-2", "carried-3", "carried-5"],
)
def test_correction_restores_input(d, carried):
    """The receiver's corrected qudit is the input, bystanders included."""
    if carried:
        state, carrier = carried_state(d, 7), "psi"
        target = StateVector(("E", "B"), (3, d), state.amps)
    else:
        state, carrier = random_qudit(d, 7), None
        target = StateVector(("B",), (d,), state.amps)
    for k in range(d):
        for l in range(d):
            out = teleport(state, bell_pair(d), FixedOutcome(k * d + l), carrier=carrier)
            assert set(out.receiver_state.labels) == set(target.labels)
            assert abs(out.probability - 1.0 / d**2) < 1e-12
            fixed = apply_unitary(out.receiver_state, correction_op(d, k, l), ["B"])
            assert fidelity(fixed, target) > 1 - 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_sampled_teleport_of_a_named_carrier(d):
    state = carried_state(d, 19)
    target = StateVector(("E", "B"), (3, d), state.amps)
    rng = Rng(29)
    for _ in range(20):
        out = teleport(state, bell_pair(d), rng, carrier="psi")
        fixed = apply_unitary(out.receiver_state, correction_op(d, out.k, out.l), ["B"])
        assert fidelity(fixed, target) > 1 - 1e-9


def collapsed(state, d, outcome):
    """`state` teleported through a fresh pair, measured with `outcome` drawn."""
    _, post, _ = measure(
        tensor([state, bell_pair(d)]), ("psi", "A"), bell_basis(d), FixedOutcome(outcome)
    )
    return post


def test_recycle_check_rejects_a_wrong_outcome():
    d, outcome = 3, 1 * 3 + 2
    post = collapsed(random_qudit(d, 2), d, outcome)
    canonical = bell_pair(d, ("psi", "A"))
    ops = bell_recycle_ops(d)
    recycle(post, ("psi", "A"), ops[outcome], canonical)
    with pytest.raises(AssertionError, match="canonical state"):
        recycle(post, ("psi", "A"), ops[2 * 3 + 2], canonical)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_recycle_restores_canonical_pair(d):
    """Every outcome's operators restore the pair; the rest is the receiver's."""
    state = random_qudit(d, 11)
    canonical = bell_pair(d, ("psi", "A"))
    for k in range(d):
        for l in range(d):
            post = collapsed(state, d, k * d + l)
            rest = recycle(post, ("psi", "A"), bell_recycle_ops(d)[k * d + l], canonical)
            out = teleport(state, bell_pair(d), FixedOutcome(k * d + l))
            assert rest.labels == out.receiver_state.labels == ("B",)
            np.testing.assert_array_equal(rest.amps, out.receiver_state.amps)


def test_sampled_outcomes_are_uniform():
    d = 2
    state = random_qudit(d, 3)
    counts = np.zeros(4)
    n = 2000
    rng = Rng(17)
    for _ in range(n):
        out = teleport(state, bell_pair(d), rng)
        counts[out.k * d + out.l] += 1
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.abs(counts / n - 0.25).max() < 5 * sigma


def test_teleport_through_rotated_pair():
    """With the transmitted half rotated, the receiver gets the rotated digit."""
    d = 3
    fam = mub_family(d, 3)
    for b in range(3):
        for s in range(d):
            for k in range(d):
                for l in range(d):
                    pair = apply_unitary(bell_pair(d), fam.unitaries[b], ["B"])
                    out = teleport(basis_state(d, s, "in"), pair, FixedOutcome(k * d + l))
                    expected = apply_unitary(
                        basis_state(d, (s + l) % d, "B"), fam.unitaries[b], ["B"]
                    )
                    assert fidelity(out.receiver_state, expected) > 1 - 1e-9


def test_extra_registers_ride_along():
    d = 2
    pair = tensor([bell_pair(d), basis_state(3, 1, "E")])
    out = teleport(random_qudit(d, 5), pair, FixedOutcome(0))
    assert set(out.receiver_state.labels) == {"B", "E"}


def test_input_validation():
    with pytest.raises(DimensionError):
        teleport(bell_pair(2, ("X", "Y")), bell_pair(2), FixedOutcome(0))
    with pytest.raises(DimensionError):
        teleport(basis_state(3, 0, "in"), bell_pair(2), FixedOutcome(0))
    with pytest.raises(DimensionError):
        teleport(basis_state(2, 0, "A"), bell_pair(2), FixedOutcome(0))
    # A named carrier must match the pair, and no register may collide.
    teleport(bell_pair(2, ("X", "Y")), bell_pair(2), FixedOutcome(0), carrier="Y")
    with pytest.raises(DimensionError):
        teleport(carried_state(2, 1), bell_pair(3), FixedOutcome(0), carrier="psi")
    with pytest.raises(DimensionError):
        teleport(bell_pair(2, ("B", "Y")), bell_pair(2), FixedOutcome(0), carrier="Y")


class TestTripleMeasurement:
    def test_forced_outcomes_match_bracket_oracle(self):
        """Pair left with Alice and Bob agrees with the expansion, all 8 ways."""
        probs, pair_states = ghz_bracket_expansion()
        plus = mub_family(2, 2).unitaries[1]
        for outcome in range(8):
            flying = tensor(
                [
                    apply_unitary(basis_state(2, 0, "F1"), plus, ["F1"]),
                    apply_unitary(basis_state(2, 0, "F2"), plus, ["F2"]),
                ]
            )
            picker = FixedOutcome(outcome)
            got, rest = teleport_ghz(flying, ghz_state(), picker)
            assert got == outcome
            assert abs(picker.probability - probs[outcome]) < 1e-9
            ref = StateVector(("A", "B"), (2, 2), pair_states[outcome])
            assert fidelity(rest, ref) > 1 - 1e-9

    def test_sign_classes(self):
        """Outcomes 0,1,4,5 leave the + pair; 2,3,6,7 leave the - pair."""
        _, pair_states = ghz_bracket_expansion()
        phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
        phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
        for outcome in range(8):
            target = phi_plus if outcome in (0, 1, 4, 5) else phi_minus
            assert abs(np.vdot(target, pair_states[outcome])) > 1 - 1e-9

    def test_sampled_outcome_distribution(self):
        plus = mub_family(2, 2).unitaries[1]
        counts = np.zeros(8)
        n = 1600
        rng = Rng(23)
        for _ in range(n):
            flying = tensor(
                [
                    apply_unitary(basis_state(2, 0, "F1"), plus, ["F1"]),
                    apply_unitary(basis_state(2, 0, "F2"), plus, ["F2"]),
                ]
            )
            outcome, _ = teleport_ghz(flying, ghz_state(), rng)
            counts[outcome] += 1
        sigma = np.sqrt(0.125 * 0.875 / n)
        assert np.abs(counts / n - 0.125).max() < 5 * sigma
        # Every outcome was drawn, and its triple passed the recycle check.
        assert counts.min() > 0

    def test_corrupted_triple_is_rejected(self, monkeypatch):
        """Measured in a basis with its outcomes shuffled, no triple recycles."""
        plus = mub_family(2, 2).unitaries[1]
        flying = tensor(
            [
                apply_unitary(basis_state(2, 0, "F1"), plus, ["F1"]),
                apply_unitary(basis_state(2, 0, "F2"), plus, ["F2"]),
            ]
        )
        shuffled = MeasurementBasis(8, np.roll(teleport_module.ghz_basis().vectors, 1, axis=0))
        monkeypatch.setattr(teleport_module, "ghz_basis", lambda: shuffled)
        for outcome in range(8):
            with pytest.raises(AssertionError, match="canonical state"):
                teleport_ghz(flying, ghz_state(), FixedOutcome(outcome))
        with pytest.raises(AssertionError, match="canonical state"):
            teleport_ghz(flying, ghz_state(), Rng(3))

    def test_flying_register_validation(self):
        with pytest.raises(DimensionError):
            teleport_ghz(basis_state(2, 0, "F1"), ghz_state(), FixedOutcome(0))
        with pytest.raises(DimensionError):
            teleport_ghz(bell_pair(2, ("F1", "F2")), bell_pair(2), FixedOutcome(0))


# Every mode at d = 2 on an ideal channel, so no check aborts before the
# key-pair teleports run.
_MODES = {
    "two_party": run_two_party,
    "pre_check": run_pre_check,
    "third_party": run_third_party,
    "chain": lambda config: run_chain(config, 2),
}
_CONFIG = SessionConfig(d=2, m=2, key_length=4, seed=5)


def _rolled(table):
    """The table with every outcome given the next outcome's operators."""
    return table[1:] + table[:1]


def _wrong_tables(monkeypatch, table):
    if table == "bell":
        right = bell_recycle_ops(2)
        monkeypatch.setattr(teleport_module, "bell_recycle_ops", lambda d: _rolled(right))
    else:
        right = ghz_recycle_ops()
        monkeypatch.setattr(teleport_module, "ghz_recycle_ops", lambda: _rolled(right))


_CASES = pytest.mark.parametrize(
    "mode, table",
    [(mode, "bell") for mode in _MODES] + [("third_party", "ghz")],
    ids=lambda x: x,
)


@_CASES
def test_every_mode_checks_every_recycle(mode, table, monkeypatch):
    """A wrong recycle table fails the first swap of every mode.

    The third-party key pairs come from the middleman's triples, and their
    teleports are checked like every other.
    """
    _wrong_tables(monkeypatch, table)
    with pytest.raises(AssertionError, match="canonical state"):
        _MODES[mode](_CONFIG)


@_CASES
def test_failed_recycle_check_stores_nothing(mode, table, monkeypatch):
    """On a warm table a failed run adds no entry, and a correct run still passes."""
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    first = _MODES[mode](_CONFIG)
    before = memo_stats()
    with monkeypatch.context() as patch:
        _wrong_tables(patch, table)
        with pytest.raises(AssertionError, match="canonical state"):
            _MODES[mode](_CONFIG)
    after = memo_stats()
    assert after.misses > before.misses  # the failed swap was computed, not stored
    assert (after.entries, after.held) == (before.entries, before.held)
    assert _MODES[mode](_CONFIG) == first
