"""Deterministic, splittable random streams for seeded simulations.

Built on numpy's Philox bit generator, which is counter-based: a stream is
fully named by (seed, spawn path), so any child stream can be re-derived
from the master seed alone. Identical seed plus identical call sequence
yields identical outputs on every platform.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = ["Rng"]


class Rng:
    """Seeded random stream that can mint independent child streams.

    Children are addressed by integer paths, e.g. ``rng.child(3, 41)`` names
    the same stream no matter when or where it is created. Protocol code
    gives each purpose (basis draws, secret dits, measurements, ...) its own
    child so that streams stay aligned across protocol variants.

    The generator is built on the first draw: a stream that only names its
    children, or is never drawn from, costs no generator set-up.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = tuple(int(p) for p in path)

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def child(self, *indices: int) -> "Rng":
        """Independent stream addressed by this stream's path plus `indices`."""
        return Rng(self.seed, self.path + tuple(int(i) for i in indices))

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def random(self, size=None):
        return self._gen.random(size)

    def complex_normal(self, size):
        """Standard complex gaussians, used for Haar sampling."""
        return (self._gen.normal(size=size) + 1j * self._gen.normal(size=size)) / np.sqrt(2.0)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n)."""
        return self._gen.choice(n, size=k, replace=False)

    def pick(self, probs) -> int:
        """Sample an index from a (not necessarily normalized) weight vector.

        Running sums in plain floats: the same edges and index as numpy's
        cumsum and searchsorted(side="right"), at a fraction of the cost
        for the few dozen weights of a measurement.
        """
        edges = list(accumulate(np.asarray(probs, dtype=float).tolist()))
        u = self._gen.random() * edges[-1]
        return min(bisect_right(edges, u), len(edges) - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, path={self.path})"
