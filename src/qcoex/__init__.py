"""Coexistence of qubit effects.

Decides whether two qubit effects can occur as events of a single
measurement, samples the boundary of the allowed region, constructs
explicit four-outcome joint observables, and cross-checks every verdict
against an independent brute-force geometric oracle.

The decision, the witness and their checks run on Python floats.  The
oracle and the self-test work on numpy arrays, so their names are imported
on first use, and ``import qcoex`` does not load numpy.
"""

import importlib

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

# public name -> the module that defines it, imported by __getattr__
_ON_FIRST_USE = {
    "OracleResult": "oracle",
    "disks_feasible": "oracle",
    "oracle_coexistent": "oracle",
    "oracle_scan": "oracle",
    "random_effect": "selftest",
    "random_effect_pair": "selftest",
}


def __getattr__(name):
    """The names of ``_ON_FIRST_USE``, imported from their module on first use (PEP 562)."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BlochEffect",
    "BoundaryCurve",
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
