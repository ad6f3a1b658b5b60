"""Coexistence of qubit effects.

Decides whether two qubit effects can occur as events of a single
measurement, samples the boundary of the allowed region, constructs
explicit four-outcome joint observables, and cross-checks every verdict
against an independent brute-force geometric oracle.
"""

from .bloch import (
    BlochEffect,
    InvalidEffectError,
    ReductionReport,
    RelativePair,
    complement,
    effect_from_bloch,
    effect_from_matrix,
    effect_to_matrix,
    relative_pair,
    sharpness,
    sharpness_scalar,
)
from .coexist import (
    BoundaryCurve,
    SpecialCaseVerdict,
    Verdict,
    boundary_curve,
    by_max,
    classify,
    is_coexistent,
    special_case_verdict,
)
from .oracle import (
    DiskSystem,
    OracleResult,
    disks_at,
    disks_feasible,
    oracle_coexistent,
    oracle_scan,
    random_effect,
    random_effect_pair,
)
from .witness import (
    InequalityReport,
    Witness,
    WitnessError,
    WitnessObservable,
    assemble_observable,
    find_witness,
    gamma_interval_2ci,
    operator_inequalities_hold,
)

__version__ = "0.1.0"

__all__ = [
    "BlochEffect",
    "BoundaryCurve",
    "DiskSystem",
    "InequalityReport",
    "InvalidEffectError",
    "OracleResult",
    "ReductionReport",
    "RelativePair",
    "SpecialCaseVerdict",
    "Verdict",
    "Witness",
    "WitnessError",
    "WitnessObservable",
    "assemble_observable",
    "boundary_curve",
    "by_max",
    "classify",
    "complement",
    "disks_at",
    "disks_feasible",
    "effect_from_bloch",
    "effect_from_matrix",
    "effect_to_matrix",
    "find_witness",
    "gamma_interval_2ci",
    "is_coexistent",
    "operator_inequalities_hold",
    "oracle_coexistent",
    "oracle_scan",
    "random_effect",
    "random_effect_pair",
    "relative_pair",
    "sharpness",
    "sharpness_scalar",
    "special_case_verdict",
]
