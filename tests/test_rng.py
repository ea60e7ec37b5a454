"""Splittable random stream behavior everything else leans on."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftfree_qkd import Rng


def test_same_seed_same_stream():
    a = Rng(12345).integers(0, 1000, size=20)
    b = Rng(12345).integers(0, 1000, size=20)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = Rng(1).integers(0, 2**32, size=8)
    b = Rng(2).integers(0, 2**32, size=8)
    assert not np.array_equal(a, b)


def test_child_streams_are_stable():
    """child(i) must not depend on draws already made from the parent."""
    r1 = Rng(7)
    r1.integers(0, 100, size=50)
    r2 = Rng(7)
    assert np.array_equal(
        r1.child(3).integers(0, 2**32, size=4),
        r2.child(3).integers(0, 2**32, size=4),
    )


def test_sibling_children_differ():
    kids = [Rng(9).child(i).integers(0, 2**32, size=4) for i in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(kids[i], kids[j])


def test_nested_child_path():
    assert np.array_equal(
        Rng(4).child(1, 2).integers(0, 2**32, size=3),
        Rng(4).child(1).child(2).integers(0, 2**32, size=3),
    )


@pytest.mark.parametrize("path", [(), (0,), (3,), (3, 41), (2, 7, 0), (1000, 5, 1)])
def test_lazy_child_draws_like_an_eager_generator(path):
    """A stream built on first draw gives the draws of one built up front."""
    parent = Rng(2021)
    lazy = parent.child(*path) if path else parent
    assert "_gen" not in vars(lazy)  # naming a stream builds no generator
    eager = np.random.Generator(np.random.Philox(np.random.SeedSequence(2021, spawn_key=path)))
    assert np.array_equal(lazy.integers(0, 7, size=5), eager.integers(0, 7, size=5))
    assert lazy.random() == eager.random()
    assert np.array_equal(lazy.subset(20, 4), eager.choice(20, size=4, replace=False))
    assert "_gen" not in vars(lazy.child(1))


def test_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


def test_subset_properties():
    picked = Rng(11).subset(20, 7)
    assert len(picked) == 7
    assert len(set(int(x) for x in picked)) == 7
    assert all(0 <= int(x) < 20 for x in picked)


def test_pick_degenerate_distribution():
    r = Rng(3)
    assert all(r.pick([0.0, 1.0, 0.0]) == 1 for _ in range(20))


@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=30, deadline=None)
def test_pick_stays_in_range(seed):
    r = Rng(seed)
    probs = r.random(5)
    probs = probs / probs.sum()
    for _ in range(10):
        assert 0 <= r.pick(probs) < 5


def test_pick_frequency_roughly_matches():
    r = Rng(21)
    counts = np.zeros(3)
    probs = np.array([0.2, 0.5, 0.3])
    n = 6000
    for _ in range(n):
        counts[r.pick(probs)] += 1
    assert np.abs(counts / n - probs).max() < 5 * np.sqrt(0.5 * 0.5 / n)


def test_pick_matches_numpy_cumsum_and_searchsorted():
    """Same index as numpy's cumsum/searchsorted for the same draw.

    20,000 weight vectors of 1 to 49 entries (d=7 Bell outcomes need 49):
    normalized Born-like weights, raw scales and vectors with zeros.
    """
    gen = np.random.default_rng(20211018)
    picker, twin = Rng(31), Rng(31)
    with_zeros = 0
    for n in range(20_000):
        weights = gen.random(int(gen.integers(1, 50))) * 10.0 ** gen.integers(-3, 4)
        if n % 3 == 0:
            weights[gen.random(weights.size) < 0.4] = 0.0
            with_zeros += bool((weights == 0).any())
        if n % 3 == 1:
            weights = weights / weights.sum()
        edges = np.cumsum(weights)
        # pick's running sums are numpy's edges bit for bit, not just close.
        assert list(accumulate(weights.tolist())) == edges.tolist()
        expected = int(np.searchsorted(edges, twin.random() * edges[-1], side="right"))
        assert picker.pick(weights) == min(expected, weights.size - 1)
    assert with_zeros > 5_000


def test_complex_normal_shape_and_spread():
    z = Rng(8).complex_normal((200, 3))
    assert z.shape == (200, 3)
    # unit-variance complex gaussian: E|z|^2 = 1
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.15
