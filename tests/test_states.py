"""Dense labeled-subsystem engine: construction, evolution, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftfree_qkd import (
    DimensionError,
    FactorizationError,
    LabelError,
    MeasurementBasis,
    Rng,
    StateVector,
    UnitaryOp,
    ZeroProbabilityError,
    apply_unitary,
    basis_state,
    bell_pair,
    computational_basis,
    factor,
    fidelity,
    measure,
    relabel,
    tensor,
)
from siftfree_qkd.states import memo_stats

from oracles import FixedOutcome, born_probabilities, fourier_basis


def random_state(labels, dims, seed):
    amps = Rng(seed).complex_normal(int(np.prod(dims)))
    return StateVector(tuple(labels), tuple(dims), amps / np.linalg.norm(amps))


class TestStateVector:
    def test_basis_state(self):
        s = basis_state(3, 2, "A")
        assert s.labels == ("A",)
        assert s.dims == (3,)
        np.testing.assert_allclose(s.amps, [0, 0, 1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(("A",), (2,), np.array([1.0, 1.0]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LabelError):
            StateVector(("A", "A"), (2, 2), np.eye(4)[0])

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            StateVector(("A",), (3,), np.array([1.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector(("A",), (2,), np.array([np.nan, 0.0]))

    def test_rejects_oversized_system(self):
        with pytest.raises(DimensionError):
            StateVector(tuple("q%d" % i for i in range(17)), (2,) * 17, None)

    def test_amps_read_only(self):
        s = basis_state(2, 0, "A")
        with pytest.raises(ValueError):
            s.amps[0] = 0.0

    def test_axis_and_dim_of(self):
        s = tensor([basis_state(2, 0, "A"), basis_state(3, 1, "B")])
        assert s.axis("B") == 1
        assert s.dim_of("B") == 3
        with pytest.raises(LabelError):
            s.axis("missing")


class TestTensorAndUnitaries:
    def test_tensor_ordering_is_first_major(self):
        s = tensor([basis_state(2, 1, "A"), basis_state(3, 2, "B")])
        # index = a*3 + b
        expected = np.zeros(6)
        expected[1 * 3 + 2] = 1.0
        np.testing.assert_allclose(s.amps, expected)

    def test_tensor_label_collision(self):
        with pytest.raises(LabelError):
            tensor([basis_state(2, 0, "A"), basis_state(2, 0, "A")])

    def test_apply_unitary_single_subsystem(self):
        x = UnitaryOp(2, np.array([[0, 1], [1, 0]]))
        s = tensor([basis_state(2, 0, "A"), basis_state(2, 0, "B")])
        s = apply_unitary(s, x, ["B"])
        expected = np.zeros(4)
        expected[1] = 1.0
        np.testing.assert_allclose(s.amps, expected, atol=1e-12)

    def test_apply_unitary_matches_kron_oracle(self):
        rng = Rng(5)
        s = random_state(["A", "B", "C"], (2, 3, 2), 17)
        u_raw = np.linalg.qr(rng.complex_normal((3, 3)))[0]
        u = UnitaryOp(3, u_raw)
        direct = apply_unitary(s, u, ["B"])
        oracle = (np.kron(np.kron(np.eye(2), u_raw), np.eye(2)) @ s.amps)
        np.testing.assert_allclose(direct.amps, oracle, atol=1e-12)

    def test_apply_unitary_on_pair_of_targets(self):
        """A two-target unitary sees the targets in the order given."""
        swap = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1.0
        s = tensor([basis_state(2, 1, "A"), basis_state(2, 0, "B")])
        out = apply_unitary(s, UnitaryOp(4, swap), ["A", "B"])
        expected = tensor([basis_state(2, 0, "A"), basis_state(2, 1, "B")])
        assert fidelity(out, expected) > 1 - 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(DimensionError):
            UnitaryOp(2, np.array([[1, 1], [0, 1]]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unitary_preserves_norm(self, seed):
        rng = Rng(seed)
        s = random_state(["A", "B"], (3, 3), seed)
        q = np.linalg.qr(rng.complex_normal((3, 3)))[0]
        out = apply_unitary(s, UnitaryOp(3, q), ["A"])
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


class TestMeasurement:
    def test_probabilities_match_projector_oracle(self):
        s = random_state(["A", "B", "C"], (2, 2, 3), 23)
        basis = fourier_basis(2)
        expected = born_probabilities(s.amps, s.dims, [1], basis.vectors)
        counts = np.zeros(2)
        n = 4000
        r = Rng(99)
        for _ in range(n):
            outcome, _, _ = measure(s, ["B"], basis, r)
            counts[outcome] += 1
        assert np.abs(counts / n - expected).max() < 5 * np.sqrt(0.25 / n)

    def test_forced_probability_matches_oracle(self):
        s = random_state(["A", "B"], (3, 3), 31)
        basis = fourier_basis(3)
        expected = born_probabilities(s.amps, s.dims, [0], basis.vectors)
        for j in range(3):
            _, _, prob = measure(s, ["A"], basis, FixedOutcome(j))
            assert abs(prob - expected[j]) < 1e-12

    def test_post_state_is_collapsed(self):
        """Re-measuring the same target must reproduce the outcome."""
        s = random_state(["A", "B"], (2, 2), 7)
        r = Rng(1)
        outcome, post, _ = measure(s, ["A"], computational_basis(2), r)
        again, _, prob = measure(post, ["A"], computational_basis(2), r)
        assert again == outcome
        assert abs(prob - 1.0) < 1e-9

    def test_zero_probability_forced_outcome_raises(self):
        """The pick raises before any post state is computed or stored."""
        s = basis_state(2, 0, "A")
        measure(s, ["A"], computational_basis(2), FixedOutcome(0))  # stores the distribution
        before = memo_stats()
        with pytest.raises(ZeroProbabilityError, match="outcome 1"):
            measure(s, ["A"], computational_basis(2), FixedOutcome(1))
        after = memo_stats()
        assert after.entries == before.entries
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_joint_measurement_of_two_targets(self):
        pair = bell_pair(2)
        vecs = np.eye(4)
        outcome, _, prob = measure(
            pair, ["A", "B"], MeasurementBasis(4, vecs), Rng(2)
        )
        assert outcome in (0, 3)
        assert abs(prob - 0.5) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_outcome_probabilities_sum_to_one(self, seed):
        s = random_state(["A", "B"], (2, 3), seed)
        basis = fourier_basis(3)
        probs = born_probabilities(s.amps, s.dims, [1], basis.vectors)
        assert abs(probs.sum() - 1.0) < 1e-9


class TestFidelityFactorRelabel:
    def test_fidelity_is_phase_blind(self):
        s = random_state(["A"], (3,), 3)
        rotated = StateVector(s.labels, s.dims, np.exp(0.7j) * s.amps)
        assert abs(fidelity(s, rotated) - 1.0) < 1e-12

    def test_fidelity_handles_label_permutation(self):
        a = tensor([basis_state(2, 0, "A"), basis_state(3, 1, "B")])
        b = tensor([basis_state(3, 1, "B"), basis_state(2, 0, "A")])
        assert abs(fidelity(a, b) - 1.0) < 1e-12

    def test_fidelity_label_mismatch(self):
        with pytest.raises(LabelError):
            fidelity(basis_state(2, 0, "A"), basis_state(2, 0, "B"))

    def test_factor_product_state(self):
        joint = tensor([random_state(["A"], (2,), 11), random_state(["B"], (3,), 12)])
        part, rest = factor(joint, ["A"])
        assert part.labels == ("A",)
        assert rest.labels == ("B",)
        assert fidelity(tensor([part, rest]), joint) > 1 - 1e-9

    def test_factor_entangled_state_fails(self):
        with pytest.raises(FactorizationError):
            factor(bell_pair(2), ["A"])

    def test_relabel(self):
        s = bell_pair(2, ("A", "B"))
        t = relabel(s, {"B": "E"})
        assert t.labels == ("A", "E")
        np.testing.assert_allclose(t.amps, s.amps)

    def test_relabel_collision(self):
        with pytest.raises(LabelError):
            relabel(bell_pair(2), {"B": "A"})
