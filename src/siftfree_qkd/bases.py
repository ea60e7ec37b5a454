"""Structured bases and operators for qudit protocols.

Covers the generalized Pauli group, the maximally entangled (Bell) basis of
two qudits, mutually unbiased basis families for prime dimension, and the
eight-outcome entangled basis used when a third party distributes
three-qubit states.

Every constructor that protocol rounds call repeatedly is memoized by
argument (`memo.memoized`): the objects are frozen with read-only arrays,
so each distinct basis, operator or pair is built and validated once and
then shared by every caller.

Conventions, fixed once here and relied on everywhere else:
    omega = exp(2*pi*i/d)
    X|j> = |j+1 mod d>          (shift)
    Z|j> = omega^j |j>          (phase)
    bell(k, l) = (1/sqrt d) * sum_j omega^(j*k) |j>|j+l mod d>
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memo import memoized
from .states import (
    DimensionError,
    MeasurementBasis,
    NORM_TOL,
    StateVector,
    UnitaryOp,
)

__all__ = [
    "omega",
    "is_prime",
    "pauli_matrix",
    "computational_basis",
    "MubFamily",
    "mub_family",
    "bell_basis",
    "bell_pair",
    "bell_recycle_ops",
    "ghz_state",
    "ghz_basis",
    "ghz_recycle_ops",
]


def omega(d: int) -> complex:
    """Primitive d-th root of unity used by every construction here."""
    return np.exp(2j * np.pi / d)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@memoized
def pauli_matrix(d: int, a: int, b: int) -> UnitaryOp:
    """Matrix of Z^a X^b: |j> -> omega^(a*(j+b)) |j+b mod d>."""
    if d < 2:
        raise DimensionError("Pauli dimension must be >= 2")
    a %= d
    b %= d
    w = omega(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        i = (j + b) % d
        mat[i, j] = w ** (a * i)
    return UnitaryOp(d, mat)


@memoized
def computational_basis(d: int) -> MeasurementBasis:
    return MeasurementBasis(d, np.eye(d, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class MubFamily:
    """Ordered family of pairwise mutually unbiased bases.

    bases[0] is computational; unitaries[i] maps the computational basis
    onto bases[i] (so unitaries[0] is the identity and unitaries[i] column j
    is basis-i vector j). inverses[i] undoes unitaries[i]; transposes[i]
    applied to one half of a canonical pair equals unitaries[i] applied to
    the other half. Both are built once, with the family, for rounds to share.
    """

    d: int
    bases: tuple[MeasurementBasis, ...]
    unitaries: tuple[UnitaryOp, ...]
    inverses: tuple[UnitaryOp, ...] = field(init=False, repr=False)
    transposes: tuple[UnitaryOp, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.bases) != len(self.unitaries):
            raise DimensionError("bases and unitaries must pair up")
        d = self.d
        for i, b1 in enumerate(self.bases):
            for b2 in self.bases[i + 1 :]:
                overlap_sq = np.abs(b1.vectors.conj() @ b2.vectors.T) ** 2
                if np.abs(overlap_sq - 1.0 / d).max() > NORM_TOL:
                    raise DimensionError("bases are not mutually unbiased")
        object.__setattr__(self, "inverses", tuple(u.inverse() for u in self.unitaries))
        object.__setattr__(
            self, "transposes", tuple(UnitaryOp(u.dim, u.matrix.T) for u in self.unitaries)
        )


@memoized
def mub_family(d: int, m: int) -> MubFamily:
    """First m members of a full mutually unbiased family in prime dimension d.

    Order: computational, Fourier, then the quadratic-phase bases with
    vector amplitudes omega^(t*i^2 + j*i)/sqrt(d) for t = 1..d-1. For d = 2
    the third (and last possible) basis is the circular one,
    (|0> + i^(+-1)|1>)/sqrt(2).
    """
    if not is_prime(d):
        raise DimensionError(f"dimension {d} is not prime; no full MUB family here")
    limit = 3 if d == 2 else d + 1
    if not 2 <= m <= limit:
        raise DimensionError(f"m = {m} outside 2..{limit} for d = {d}")
    unitaries = [UnitaryOp(d, np.eye(d, dtype=np.complex128))]
    if d == 2:
        s = 1 / np.sqrt(2)
        unitaries.append(UnitaryOp(2, s * np.array([[1, 1], [1, -1]], dtype=complex)))
        unitaries.append(UnitaryOp(2, s * np.array([[1, 1], [1j, -1j]], dtype=complex)))
    else:
        w = omega(d)
        i = np.arange(d).reshape(-1, 1)
        j = np.arange(d).reshape(1, -1)
        for t in range(d):
            unitaries.append(UnitaryOp(d, w ** (t * i * i + i * j) / np.sqrt(d)))
    unitaries = unitaries[:m]
    bases = tuple(MeasurementBasis(d, u.matrix.T.copy()) for u in unitaries)
    return MubFamily(d, bases, tuple(unitaries))


@memoized
def bell_basis(d: int) -> MeasurementBasis:
    """Maximally entangled basis of two d-level systems.

    Outcome (k, l) sits at flat index k*d + l and has vector
    (1/sqrt d) * sum_j omega^(j*k) |j>|j+l mod d>.
    """
    if d < 2:
        raise DimensionError("Bell basis needs d >= 2")
    w = omega(d)
    vecs = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            v = np.zeros(d * d, dtype=np.complex128)
            for j in range(d):
                v[j * d + (j + l) % d] = w ** (j * k)
            vecs[k * d + l] = v / np.sqrt(d)
    return MeasurementBasis(d * d, vecs)


@memoized
def bell_pair(d: int, labels: tuple[str, str] = ("A", "B")) -> StateVector:
    """The (0, 0) maximally entangled pair (1/sqrt d) sum_j |j>|j>."""
    return StateVector(labels, (d, d), bell_basis(d).vectors[0])


@memoized
def bell_recycle_ops(d: int) -> tuple[tuple[UnitaryOp], ...]:
    """Byproduct on the second qudit of the measured pair, indexed like `bell_basis`.

    Entry k*d + l is (Z^(-k) X^(-l),): it returns the collapsed (k, l) vector
    to the canonical pair up to global phase, so the pair can be reused.
    """
    return tuple((pauli_matrix(d, -k % d, -l % d),) for k in range(d) for l in range(d))


@memoized
def ghz_state(labels: tuple[str, str, str] = ("C", "A", "B")) -> StateVector:
    """(|000> + |111>)/sqrt(2) over three qubits."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    return StateVector(labels, (2, 2, 2), amps)


@memoized
def ghz_basis() -> MeasurementBasis:
    """Eight-outcome entangled basis of three qubits.

    Vectors, in outcome order 0..7 (names a..h):
        a: (|000> + |111>)/sqrt2      e: (|010> + |101>)/sqrt2
        b: (|001> + |110>)/sqrt2      f: (|011> + |100>)/sqrt2
        c: (|000> - |111>)/sqrt2      g: (|100> - |011>)/sqrt2
        d: (|001> - |110>)/sqrt2      h: (|101> - |010>)/sqrt2
    """
    s = 1 / np.sqrt(2)
    vecs = np.zeros((8, 8), dtype=np.complex128)
    pairs = [
        (0, 7, 1),   # a
        (1, 6, 1),   # b
        (0, 7, -1),  # c
        (1, 6, -1),  # d
        (2, 5, 1),   # e
        (3, 4, 1),   # f
        (4, 3, -1),  # g
        (5, 2, -1),  # h
    ]
    for row, (hi, lo, sign) in enumerate(pairs):
        vecs[row, hi] = s
        vecs[row, lo] = sign * s
    return MeasurementBasis(8, vecs)


@memoized
def ghz_recycle_ops() -> tuple[tuple[UnitaryOp, UnitaryOp], ...]:
    """Byproduct pair on qubits 2 and 3 of the measured triple, by outcome.

    Applying the pair to the collapsed basis vector returns the canonical
    (|000> + |111>)/sqrt2 up to global phase, so the triple can be reused.
    """
    I, X, Z, ZX = (pauli_matrix(2, a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return ((I, I), (I, X), (Z, I), (Z, X), (X, I), (X, X), (ZX, X), (ZX, I))
