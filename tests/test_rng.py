"""Splittable random stream behavior everything else leans on.

The batched first draws are checked against numpy's own generator, so a
numpy release that changed its streams fails here before any output moves.
"""

from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftfree_qkd import Rng
from siftfree_qkd import rng as rng_module
from siftfree_qkd.rng import first_draws, with_first_draws

from oracles import complex_normal


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
    z = complex_normal(Rng(8), (200, 3))
    assert z.shape == (200, 3)
    # unit-variance complex gaussian: E|z|^2 = 1
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.15


# ------------------------------------------------ batched first draws


def numpy_stream(seed, path):
    """The generator numpy builds for stream (seed, path), eagerly."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_first_draws_match_numpy(seed, length):
    """Every path of entries 0 and 2**32 - 1, plus random 32-bit paths."""
    edges = [list(p) for p in product([0, 2**32 - 1], repeat=length)]
    rand = np.random.default_rng(seed % 2**32 + length).integers(0, 2**32, size=(16, length))
    paths = edges + rand.tolist()
    expected = [numpy_stream(seed, tuple(p)).random() for p in paths]
    assert first_draws(seed, paths).tolist() == expected


@given(
    seed=st.integers(0, 2**64 - 1),
    paths=st.integers(1, 5).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k),
                           min_size=1, max_size=8)
    ),
)
@settings(max_examples=150, deadline=None)
def test_first_draws_property(seed, paths):
    expected = [numpy_stream(seed, tuple(p)).random() for p in paths]
    assert first_draws(seed, paths).tolist() == expected


def test_first_draws_span_several_chunks():
    n = 2 * rng_module._CHUNK + 5
    paths = [[3, r] for r in range(n)]
    got = first_draws(20211018, paths)
    for r in (0, rng_module._CHUNK - 1, rng_module._CHUNK, n - 1):
        assert got[r] == numpy_stream(20211018, (3, r)).random()


@pytest.mark.parametrize("paths", [[[2**32]], [[1, 2**40]], [[-1]], [[]], [0, 1]])
def test_first_draws_reject_paths_that_are_not_one_word_per_entry(paths):
    with pytest.raises(ValueError):
        first_draws(5, paths)


@pytest.mark.parametrize(
    "name",
    [
        "_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R", "_XSHIFT",
        "_PHILOX_M0", "_PHILOX_M1", "_PHILOX_W0", "_PHILOX_W1", "_PHILOX_ROUNDS",
    ],
)
def test_every_spec_constant_is_checked(monkeypatch, name):
    """Flip one bit of any hash or Philox constant and the batch leaves numpy."""
    paths = [[3, r] for r in range(8)] + [[2, r, 0] for r in range(8)]
    expected = [numpy_stream(7, tuple(p)).random() for p in paths]
    monkeypatch.setattr(rng_module, name, getattr(rng_module, name) ^ 1)
    got = np.concatenate([first_draws(7, paths[:8]), first_draws(7, paths[8:])]).tolist()
    assert got != expected


def test_held_children_serve_numpys_first_draw():
    (trng,) = with_first_draws((Rng(99).child(3), (range(6),)))
    for r in range(6):
        kid = trng.child(r)
        assert kid.random() == numpy_stream(99, (3, r)).random()
        assert "_gen" not in vars(kid)  # served without building a generator


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.integers(0, 7, size=5),
        lambda g: g.subset(20, 4) if isinstance(g, Rng) else g.choice(20, size=4, replace=False),
        lambda g: g.random(3),
        lambda g: g.random(),
    ],
    ids=["integers", "subset", "random_size", "second_random"],
)
def test_draws_after_the_held_one_are_numpys(draw):
    """The Depolarizing path: one served random(), then other draws."""
    (crng,) = with_first_draws((Rng(2021).child(2), (range(4), range(1))))
    held, eager = crng.child(3, 0), numpy_stream(2021, (2, 3, 0))
    assert held.random() == eager.random()
    assert np.array_equal(draw(held), draw(eager))
    assert np.array_equal(held.integers(0, 9, size=4), eager.integers(0, 9, size=4))
    assert held.random() == eager.random()


def test_a_generator_built_first_ignores_the_held_draw():
    (trng,) = with_first_draws((Rng(8).child(3), (range(4),)))
    kid, eager = trng.child(2), numpy_stream(8, (3, 2))
    assert np.array_equal(kid.integers(0, 5, size=3), eager.integers(0, 5, size=3))
    assert kid.random() == eager.random()
    assert kid.random() == eager.random()


def test_child_is_a_fresh_stream_on_every_call():
    (trng,) = with_first_draws((Rng(4).child(3), (range(4),)))
    first = trng.child(1)
    assert first.random() == trng.child(1).random()
    eager = numpy_stream(4, (3, 1))
    assert [eager.random(), eager.random()] == [trng.child(1).random(), first.random()]


def test_children_outside_the_grid_build_their_own():
    """A retransmit attempt >= 1, or a round past the grid, is not held."""
    (crng,) = with_first_draws((Rng(12).child(2), (range(4), range(1))))
    for path in [(1, 1), (4, 0), (1,), (1, 0, 0), (-1, 0)]:
        kid = crng.child(*path)
        assert kid._held is None
        if path != (-1, 0):
            assert kid.random() == numpy_stream(12, (2,) + path).random()


@pytest.mark.parametrize(
    "parent, ranges",
    [
        (Rng(6).child(2**32), (range(3),)),
        (Rng(6).child(2), (range(2**32 - 1, 2**32 + 1),)),
        (Rng(6).child(1, 2**40), (range(2), range(2))),
    ],
)
def test_grids_with_wide_entries_fall_back(parent, ranges):
    """An entry of 2**32 or more takes two spawn-key words: numpy builds it."""
    (twin,) = with_first_draws((parent, ranges))
    for tail in product(*ranges):
        kid = twin.child(*tail)
        assert kid._held is None
        assert kid.random() == numpy_stream(6, parent.path + tail).random()


def test_one_call_serves_several_seeds_and_lengths():
    grids = [
        (Rng(1).child(3), (range(5),)),
        (Rng(2).child(4), (range(5),)),
        (Rng(1).child(2).child(7), (range(3), range(1, 4))),
        (Rng(1).child(8), (range(2),)),
    ]
    for (parent, ranges), twin in zip(grids, with_first_draws(*grids)):
        assert (twin.seed, twin.path) == (parent.seed, parent.path)
        for tail in product(*ranges):
            expected = numpy_stream(parent.seed, parent.path + tail).random()
            assert twin.child(*tail).random() == expected


def test_child_keeps_its_parents_validated_seed_and_path():
    kid = Rng(2**64 - 1, (np.uint32(5),)).child(np.int64(3), 4)
    assert (kid.seed, kid.path) == (2**64 - 1, (5, 3, 4))
    assert all(type(p) is int for p in kid.path)
    assert kid.random() == numpy_stream(2**64 - 1, (5, 3, 4)).random()
