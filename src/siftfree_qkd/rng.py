"""Deterministic, splittable random streams for seeded simulations.

Built on numpy's Philox bit generator, which is counter-based: a stream is
fully named by (seed, spawn path), so any child stream can be re-derived
from the master seed alone. Identical seed plus identical call sequence
yields identical outputs on every platform.

Both algorithms under a stream are frozen specs: numpy's `SeedSequence`
is the seed_seq-style hash mixer of NEP 19, and Philox4x64-10 is the
counter-based generator of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3" (SC'11). So `first_draws` computes the first `random()`
of many streams in one numpy pass, bit for bit what numpy's generator
returns, and a protocol round takes its one draw without building one.
`Rng.pick` is `pick_index(cumulative(probs), u)` for its draw u, so a
caller holding a round's draw and the edges picks what the stream would.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from math import prod
from typing import Sequence

import numpy as np

__all__ = ["Rng", "first_draws", "with_first_draws", "cumulative", "pick_index"]

# SeedSequence's hash mixer (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_M32 = 0xFFFFFFFF

# Philox4x64-10: round multipliers and Weyl key increments (Random123).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# Streams per numpy pass: bounds the temporaries of one batch.
_CHUNK = 4096


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, its multiplier stepped per call.

    The multipliers do not depend on the data, so they run in Python ints.
    """
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        before, const = const, (const * mult) & _M32
        value = (value ^ np.uint32(before)) * np.uint32(const)
        return value ^ (value >> np.uint32(_XSHIFT))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return z ^ (z >> np.uint32(_XSHIFT))


def _philox_keys(seed: int, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key `SeedSequence(seed, spawn_key=path).generate_state(2, uint64)`.

    One row of uint32 `paths` per stream, each entry one word of the spawn
    key. With a spawn key the seed's words are padded to the pool size, so
    a seed below 2**64 always fills exactly the first four words.
    """
    seed_words = [np.full(len(paths), (seed >> (32 * i)) & _M32, np.uint32) for i in range(4)]
    entropy = seed_words + list(paths.T)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(word).astype(np.uint64) for word in pool]
    # Little-endian pairs of 32-bit words make each 64-bit key word.
    shift = np.uint64(32)
    return state[0] | state[1] << shift, state[2] | state[3] << shift


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, multiplied in 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _M32), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(_M32), x >> np.uint64(32)
    shift, low = np.uint64(32), np.uint64(_M32)
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = (lo_lo >> shift) + (lo_hi & low) + (hi_lo & low)
    hi = x_hi * m_hi + (lo_hi >> shift) + (hi_lo >> shift) + (carry >> shift)
    return hi, x * np.uint64(m)


def _philox_first_word(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """First output word of Philox4x64-10 on counter 1 under keys (k0, k1)."""
    c0 = np.ones_like(k0)
    c1 = c2 = c3 = np.zeros_like(k0)
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0 = k0 + np.uint64(_PHILOX_W0)
            k1 = k1 + np.uint64(_PHILOX_W1)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def cumulative(probs) -> array:
    """Running sums of a weight vector: the edges `Rng.pick` bisects.

    Summed in Python floats, the same edges as numpy's cumsum at a fraction
    of the cost for the few dozen weights of a measurement. Held as a
    compact array of doubles, since a measurement step keeps its edges.
    """
    return array("d", accumulate(np.asarray(probs, dtype=float).tolist()))


def pick_index(edges: Sequence[float], u: float) -> int:
    """The index `Rng.pick` draws from cumulative `edges` when its draw is `u`.

    numpy's searchsorted(side="right") of u times the total, clipped to the
    last index.
    """
    return min(bisect_right(edges, u * edges[-1]), len(edges) - 1)


def first_draws(seed: int, paths) -> np.ndarray:
    """The first `random()` of each stream `Rng(seed, path)`, one per row.

    `paths` is a 2-d array of path entries, each in [0, 2**32) so that it
    is one word of the spawn key, and at least one per row. The result is
    bit for bit numpy's first draw: 53 high bits of the first Philox word.
    """
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.shape[1] == 0:
        raise ValueError("paths must be a 2-d array with at least one entry per row")
    if paths.size and not (0 <= int(paths.min()) and int(paths.max()) <= _M32):
        raise ValueError("every path entry must lie in [0, 2**32)")
    out = np.empty(len(paths), dtype=np.float64)
    for lo in range(0, len(paths), _CHUNK):
        k0, k1 = _philox_keys(int(seed), paths[lo : lo + _CHUNK].astype(np.uint32))
        word = _philox_first_word(k0, k1)
        out[lo : lo + _CHUNK] = (word >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out


class Rng:
    """Seeded random stream that can mint independent child streams.

    Children are addressed by integer paths, e.g. ``rng.child(3, 41)`` names
    the same stream no matter when or where it is created. Protocol code
    gives each purpose (basis draws, secret dits, measurements, ...) its own
    child so that streams stay aligned across protocol variants.

    The generator is built on the first draw that needs it: a stream that
    only names its children, or is never drawn from, costs no generator
    set-up. A stream may hold its first `random()`, derived up front by
    `with_first_draws`; `random()` serves it once, and a generator built
    later skips the draws already served, so every draw is numpy's own.
    """

    _held: float | None = None  # first random(), not yet served
    _served = 0  # held draws served, skipped when the generator is built
    _grid: tuple[tuple[range, ...], np.ndarray] | None = None  # children's first draws

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = tuple(int(p) for p in path)

    @cached_property
    def _gen(self) -> np.random.Generator:
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )
        if self._served:
            gen.random(self._served)
        self._held = None
        return gen

    def _twin(self, path: tuple[int, ...]) -> "Rng":
        """A fresh stream of this seed at `path`, both already validated."""
        rng = object.__new__(Rng)
        rng.seed, rng.path = self.seed, path
        return rng

    def child(self, *indices: int) -> "Rng":
        """Independent stream addressed by this stream's path plus `indices`."""
        indices = tuple(map(int, indices))
        rng = self._twin(self.path + indices)
        if self._grid is not None and len(indices) == len(self._grid[0]):
            ranges, draws = self._grid
            at = 0
            for i, span in zip(indices, ranges):
                if i not in span:
                    return rng
                at = at * len(span) + span.index(i)
            rng._held = draws.item(at)
        return rng

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def random(self, size=None):
        if size is None and self._held is not None:
            u, self._held, self._served = self._held, None, 1
            return u
        return self._gen.random(size)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n)."""
        return self._gen.choice(n, size=k, replace=False)

    def pick(self, probs) -> int:
        """Sample an index from a (not necessarily normalized) weight vector.

        One `random()`, then `pick_index(cumulative(probs), u)`.
        """
        return pick_index(cumulative(probs), self.random())

    def child_draws(self) -> np.ndarray | None:
        """The held first draws of this twin's children, or None if it holds none.

        Shaped by the ranges `with_first_draws` was given: entry [i, j, ...]
        is what `child(ranges[0][i], ranges[1][j], ...).random()` returns
        first.
        """
        if self._grid is None:
            return None
        ranges, draws = self._grid
        return draws.reshape([len(span) for span in ranges])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, path={self.path})"


def _grid_words(path: tuple[int, ...], ranges: tuple[range, ...], out: np.ndarray) -> None:
    """Fill `out`, one column per child path `path + (i, j, ...)`, last index fastest."""
    out[: len(path)] = np.array(path, dtype=np.uint32)[:, None]
    shape = [len(span) for span in ranges]
    for axis, span in enumerate(ranges):
        along = [1] * len(ranges)
        along[axis] = len(span)
        index = np.arange(span.start, span.stop, span.step, dtype=np.uint32)
        out[len(path) + axis].reshape(shape)[...] = index.reshape(along)


def with_first_draws(*grids: tuple[Rng, Sequence[range]]) -> list[Rng]:
    """For each (parent, ranges), a twin of parent whose children hold a draw.

    A child `child(i, j, ...)` of the twin, with i in ranges[0], j in
    ranges[1] and so on, holds its first `random()`; any other child is
    built as usual. Grids of one seed and path length share one
    `first_draws` call. A grid with a path entry outside [0, 2**32) holds
    nothing: such an entry takes more than one word of the spawn key.
    """
    twins = [parent._twin(parent.path) for parent, _ in grids]
    batches: dict[tuple[int, int], list[tuple[Rng, tuple[range, ...]]]] = {}
    for twin, (_, ranges) in zip(twins, grids):
        ranges = tuple(ranges)
        ends = [i for span in ranges if span for i in (span[0], span[-1])]
        if ranges and all(0 <= i <= _M32 for i in twin.path + tuple(ends)):
            batches.setdefault((twin.seed, len(twin.path) + len(ranges)), []).append((twin, ranges))
    for (seed, width), members in batches.items():
        sizes = [prod(len(span) for span in ranges) for _, ranges in members]
        # Word-major, so each path position is one contiguous row.
        words = np.empty((width, sum(sizes)), dtype=np.uint32)
        bounds = list(accumulate(sizes, initial=0))
        for (twin, ranges), lo, hi in zip(members, bounds, bounds[1:]):
            _grid_words(twin.path, ranges, words[:, lo:hi])
        draws = first_draws(seed, words.T)
        for (twin, ranges), lo, hi in zip(members, bounds, bounds[1:]):
            twin._grid = (ranges, draws[lo:hi])
    return twins
