"""Independent reference computations used to fix expected test values.

Everything here is deliberately written from scratch against plain numpy
(explicit loops, no imports from the package under test) so that agreement
between package and oracle is meaningful. Keep it dumb and readable.

The exception is the last section: the blind-guessing estimate (acceptance
criterion 06) and the purified-attack correspondence (criterion 07) drive
the package's own `Rng` and engine. They check the simulator against the
paper's arguments; no protocol session needs them. The Fourier basis there
is the reference the package's second family member is compared against,
built from its textbook formula rather than from the family's construction.
"""

import numpy as np

from siftfree_qkd import (
    DimensionError,
    MeasurementBasis,
    Rng,
    UnitaryOp,
    apply_unitary,
    basis_state,
    bell_pair,
    fidelity,
    mub_family,
    omega,
    teleport,
    tensor,
)


def born_probabilities(joint, dims, target_axes, basis_vectors):
    """Outcome probabilities of measuring `target_axes` in the given basis.

    joint: flat amplitude vector over subsystems with dimensions `dims`
    (first axis most significant). basis_vectors[j] spans the measured
    subspace in the order target_axes. Computed with full-size projectors.
    """
    tensor_state = np.asarray(joint).reshape(dims)
    n = len(dims)
    rest_axes = [ax for ax in range(n) if ax not in target_axes]
    moved = np.transpose(tensor_state, target_axes + rest_axes)
    tdim = int(np.prod([dims[ax] for ax in target_axes]))
    flat = moved.reshape(tdim, -1)
    probs = []
    for v in basis_vectors:
        amp = np.conj(v) @ flat
        probs.append(float(np.sum(np.abs(amp) ** 2)))
    return np.array(probs)


def bell_vector(d, k, l):
    """(1/sqrt d) sum_j w^(jk) |j, j+l> as a flat length-d^2 vector."""
    w = np.exp(2j * np.pi / d)
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + ((j + l) % d)] = w ** (j * k) / np.sqrt(d)
    return v


def pauli(d, a, b):
    """Z^a X^b as an explicit matrix: |j> -> w^(a(j+b)) |j+b>."""
    w = np.exp(2j * np.pi / d)
    mat = np.zeros((d, d), dtype=complex)
    for j in range(d):
        mat[(j + b) % d, j] = w ** (a * ((j + b) % d))
    return mat


def teleport_reference(d, k, l, input_vec):
    """Receiver amplitudes after outcome (k, l), by direct projection.

    Builds |input> (x) |pair(0,0)> index by index, projects the first two
    qudits onto the (k, l) entangled vector, and returns the receiver's
    normalized amplitudes plus the outcome probability.
    """
    input_vec = np.asarray(input_vec, dtype=complex)
    joint = np.zeros((d, d, d), dtype=complex)
    for s in range(d):
        for j in range(d):
            joint[s, j, j] = input_vec[s] / np.sqrt(d)
    proj = bell_vector(d, k, l).reshape(d, d)
    receiver = np.zeros(d, dtype=complex)
    for r in range(d):
        receiver[r] = np.sum(np.conj(proj) * joint[:, :, r])
    prob = float(np.sum(np.abs(receiver) ** 2))
    return receiver / np.sqrt(prob), prob


def mub_unitaries(d, m):
    """The rotation family used by the protocol, rebuilt independently.

    Each matrix has basis vector j in column j: identity, the Fourier
    transform, then quadratic-phase variants for odd prime d; for d=2 the
    third member is the circular (Y-eigenbasis) map.
    """
    w = np.exp(2j * np.pi / d)
    mats = [np.eye(d, dtype=complex)]
    if d == 2:
        mats.append(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        mats.append(np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2))
    else:
        for t in range(d):
            u = np.zeros((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    u[i, j] = w ** ((t * i * i + i * j) % d)
            mats.append(u / np.sqrt(d))
    return mats[:m]


def frame_x_shift(d, basis, x, z):
    """X-exponent of U_basis^dagger (X^x Z^z) U_basis, by Pauli-frame algebra.

    Conjugation by a Clifford maps Paulis to Paulis up to phase, so it acts
    on the exponent pair (x, z) mod d alone (Gottesman 1998). With
    X|j> = |j+1> and Z|j> = w^j |j>: the Fourier transform F maps
    (x, z) -> (z, -x); the phase D_t = diag(w^(t j^2)) maps (x, z) ->
    (x, z - 2t x). Member `basis` of `mub_unitaries` is the identity for 0;
    D_t F with t = basis - 1 for odd d; for d = 2, the Hadamard (x, z) ->
    (z, x) for 1 and S.H with S = diag(1, i) for 2, where S maps
    (x, z) -> (x, z + x).
    """
    if basis == 0:
        return x % d
    if d == 2:
        return z % 2 if basis == 1 else (x + z) % 2
    t = basis - 1
    return (z - 2 * t * x) % d


def depolarizing_check_error(d, p, m):
    """Expected mismatch rate at a check position under uniform-Pauli noise.

    Averages, over the rotation family and the d^2 Paulis (identity
    included), the probability that a Pauli hit on the rotated carrier
    changes the digit read back in the protocol's measurement frame.
    """
    mats = mub_unitaries(d, m)
    total = 0.0
    for u in mats:
        for a in range(d):
            for b in range(d):
                e = u.conj().T @ pauli(d, a, b) @ u
                survive = np.mean(np.abs(np.diag(e)) ** 2)
                total += 1.0 - survive
    return p * total / (len(mats) * d * d)


def binomial_sigma(p, n):
    return float(np.sqrt(p * (1.0 - p) / n))


class FixedOutcome:
    """A picker for the engine's `rng` arguments that always picks outcome j.

    `probability` records the Born probability the engine offered for j.
    """

    def __init__(self, j):
        self.j = j
        self.probability = None

    def pick(self, probs):
        self.probability = float(probs[self.j])
        return self.j


def ghz_bracket_expansion():
    """Expand |+>|+>|GHZ> in the eight-outcome entangled triple basis.

    Returns (probabilities, pair_states): for each outcome, its Born
    probability and the normalized two-qubit state left on the distributed
    pair. Everything is built from explicit amplitude tables.
    """
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    ghz = np.zeros((2, 2, 2), dtype=complex)
    ghz[0, 0, 0] = ghz[1, 1, 1] = 1 / np.sqrt(2)
    joint = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for q1 in range(2):
        for q2 in range(2):
            for c in range(2):
                for a_ in range(2):
                    for b_ in range(2):
                        joint[q1, q2, c, a_, b_] = plus[q1] * plus[q2] * ghz[c, a_, b_]

    def triple(i, j, sign):
        v = np.zeros(8, dtype=complex)
        v[i] = 1 / np.sqrt(2)
        v[j] = sign / np.sqrt(2)
        return v.reshape(2, 2, 2)

    outcomes = [
        triple(0, 7, +1),
        triple(1, 6, +1),
        triple(0, 7, -1),
        triple(1, 6, -1),
        triple(2, 5, +1),
        triple(3, 4, +1),
        triple(4, 3, -1),
        triple(5, 2, -1),
    ]
    probs = []
    pair_states = []
    for v in outcomes:
        pair = np.zeros((2, 2), dtype=complex)
        for a_ in range(2):
            for b_ in range(2):
                pair[a_, b_] = np.sum(np.conj(v) * joint[:, :, :, a_, b_])
        prob = float(np.sum(np.abs(pair) ** 2))
        probs.append(prob)
        pair_states.append(pair.reshape(4) / np.sqrt(prob))
    return np.array(probs), pair_states


def controlled_shift_check_error(d=2):
    """Check error of the shift-coupling adversary at m=2, by enumeration.

    For each rotation (identity, Fourier), each sent digit and each
    teleportation outcome pair, couples the ancilla to the rotated carrier
    and reads the receiver digit distribution in the protocol frame;
    returns the average probability of a wrong digit. Independent of the
    simulator: pure matrix algebra on B (x) E.
    """
    mats = mub_unitaries(d, 2)
    w = np.exp(2j * np.pi / d)
    shift = np.zeros((d * d, d * d), dtype=complex)
    for b_val in range(d):
        for e in range(d):
            shift[b_val * d + ((e + b_val) % d), b_val * d + e] = 1.0
    total = 0.0
    count = 0
    for u in mats:
        for s in range(d):
            for k in range(d):
                for l in range(d):
                    carrier = np.zeros(d, dtype=complex)
                    carrier[(s + l) % d] = 1.0
                    carrier = (w ** (-s * k)) * (u @ carrier)
                    joint = np.kron(carrier, np.eye(d)[:, 0])
                    joint = shift @ joint
                    bob = joint.reshape(d, d)
                    bob = (u.conj().T @ bob).reshape(d, d)
                    digit_probs = np.sum(np.abs(bob) ** 2, axis=1)
                    total += 1.0 - float(digit_probs[(s + l) % d])
                    count += 1
    return total / count


# -- Gate physics on the package's own engine (criteria 06 and 07) --------


def fourier_basis(d: int) -> MeasurementBasis:
    """Basis with vector j holding amplitude omega^(i*j)/sqrt(d) at position i."""
    w = omega(d)
    i = np.arange(d)
    vecs = np.array([w ** (i * j) for j in range(d)]) / np.sqrt(d)
    return MeasurementBasis(d, vecs)


def haar_unitary(dim: int, rng: Rng) -> UnitaryOp:
    """Haar-distributed unitary via QR of a complex gaussian matrix."""
    z = rng.complex_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return UnitaryOp(dim, q * (diag / np.abs(diag)))


def haar_state(dim: int, rng: Rng) -> np.ndarray:
    """Haar-distributed unit vector."""
    v = rng.complex_normal(dim)
    return v / np.linalg.norm(v)


def blind_guess_monte_carlo(
    d: int, n_strategies: int, trials_per: int, rng: Rng
) -> float:
    """Estimate the success rate of guessing a uniform secret dit blind.

    Each strategy draws a Haar-random shared pure state on two d-level
    registers and Haar-random projective measurements for both the guesser
    and her partner. The two measurements commute (disjoint registers), so
    one draw from their exact joint Born distribution per trial is a
    faithful sample. The pooled success rate estimates a quantity that is
    exactly 1/d for every strategy.
    """
    if n_strategies < 1 or trials_per < 1:
        raise DimensionError("need at least one strategy and one trial")
    hits = 0
    for strat in range(n_strategies):
        srng = rng.child(strat)
        eta = haar_state(d * d, srng).reshape(d, d)  # index (guesser, partner)
        guess_vecs = haar_unitary(d, srng).matrix.T  # row t: outcome-t vector
        partner_vecs = haar_unitary(d, srng).matrix.T
        amp = guess_vecs.conj() @ eta @ partner_vecs.conj().T
        joint = (np.abs(amp) ** 2).reshape(-1)
        trng = srng.child(0)
        for _ in range(trials_per):
            secret = int(trng.integers(0, d))
            outcome = trng.pick(joint)
            guess = outcome // d
            hits += int(guess == secret)
    return hits / (n_strategies * trials_per)


def bb84_correspondence_check(
    u_e: UnitaryOp,
    s: int,
    l: int,
    i: int,
    k: int = 0,
    d: int = 2,
    m: int = 2,
) -> float:
    """Fidelity between the protocol's receiver+ancilla state and the
    prepare-and-measure attack form U_E[(U_i |s+l>) |0>].

    The protocol side is computed end to end: rotate the pair half, couple
    the ancilla, teleport |s> with fixed outcome (k, l). Equality (up to
    global phase, hence fidelity 1) says a purified attack on this protocol
    is exactly an attack on a prepare-and-measure scheme.
    """
    anc_dim = u_e.dim // d
    fam = mub_family(d, m)
    rot = fam.unitaries[i]

    pair = bell_pair(d, ("A", "B"))
    pair = apply_unitary(pair, rot, ["B"])
    joint = tensor([pair, basis_state(anc_dim, 0, "E")])
    joint = apply_unitary(joint, u_e, ["B", "E"])
    out = teleport(basis_state(d, s, "A_in"), joint, FixedOutcome(k * d + l))
    protocol_side = out.receiver_state  # subsystems B, E

    prepared = apply_unitary(basis_state(d, (s + l) % d, "B"), rot, ["B"])
    reference = tensor([prepared, basis_state(anc_dim, 0, "E")])
    reference = apply_unitary(reference, u_e, ["B", "E"])
    return fidelity(protocol_side, reference)
