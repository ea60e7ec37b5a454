"""Sifting-free quantum key distribution over recycled entangled qudits.

A desk-scale simulator: dense state vectors, mutually unbiased bases in
prime dimension, teleportation with entanglement recycling, eavesdropper
channel models, and seeded protocol sessions (two-party, verification-first,
third-party-assisted, multi-hop chain) with a batch experiment harness.
"""

from .bases import (
    bell_basis,
    bell_pair,
    computational_basis,
    ghz_basis,
    ghz_recycle_ops,
    ghz_state,
    is_prime,
    mub_family,
    omega,
    pauli_matrix,
)
from .channels import (
    AttackReport,
    Depolarizing,
    Ideal,
    Loss,
    PurifiedAttack,
    SubstitutedAttack,
    apply_channel,
    attack_report,
    controlled_shift,
)
from .harness import (
    ExperimentSpec,
    build_channel,
    emit_transcript,
    run_experiment,
    summary_csv,
    summary_document,
)
from .rng import Rng
from .sessions import (
    ClassicalMessage,
    ConfigError,
    KeyResult,
    SessionConfig,
    run_chain,
    run_pre_check,
    run_third_party,
    run_two_party,
    serialize_transcript,
)
from .states import (
    DimensionError,
    FactorizationError,
    LabelError,
    MeasurementBasis,
    StateVector,
    UnitaryOp,
    ZeroProbabilityError,
    apply_unitary,
    basis_state,
    factor,
    fidelity,
    measure,
    relabel,
    tensor,
)
from .teleport import (
    correction_op,
    recycle,
    teleport,
    teleport_ghz,
)

__version__ = "0.1.0"
