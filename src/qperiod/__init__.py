"""qperiod: exact quantum period finding on a sparse qudit simulator, plus
simulated multiparty LCM/GCD/PSU/PSI protocols built on it."""

from .qstate import (
    ClassicalOracle,
    GoodPredicate,
    RegisterLayout,
    SparseState,
    apply_oracle,
    basis_state,
    controlled_subtract,
    dft,
    good_mass,
    measure,
    measure_joint,
    phase_flip,
    uniform_prep,
    zero_state,
)
from .amplify import (
    BoostResult,
    DftStep,
    OracleStep,
    PhaseFlipStep,
    PrepStep,
    ReversibleProgram,
    amplification_operator,
    boost_from_half,
)
from .periodfind import (
    EqpaTrace,
    PeriodicFunction,
    PromiseViolation,
    brute_force_period,
    eqpa,
    fourier_sampling_program,
    goodness,
    marked_program,
    standard_qpa,
)
from .factorint import (
    FactorizationResult,
    NoQuantumSplitNeeded,
    decode_set,
    encode_set,
    factorize,
    order_find,
    prime_encode,
)
from .mpqc import (
    AuditReport,
    ProtocolResult,
    Transcript,
    divisibility_vote,
    gcd_protocol,
    lcm_protocol,
    leakage_audit,
    psi_protocol,
    psu_protocol,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
