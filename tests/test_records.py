"""Every record keeps its fields, repr, immutability, equality, hashing and pickling.

The records are named tuples: each unpacks and indexes, and equals the plain
tuple of its fields.  The reprs are pinned as the records printed them when
they were frozen dataclasses.  ``BoundaryCurve`` holds arrays, so it compares
and hashes by identity.
"""

import copy
import pickle

import numpy as np
import pytest

from qcoex.bloch import BlochEffect, ReductionReport, RelativePair
from qcoex.coexist import BoundaryCurve, SpecialCaseVerdict, Verdict
from qcoex.oracle import OracleResult
from qcoex.selftest import SuiteResult
from qcoex.witness import InequalityReport, Witness, WitnessObservable


def observable():
    report = InequalityReport(True, (-0.5, -0.25, -0.125, 0.0))
    return WitnessObservable(
        BlochEffect(0.25, (0.125, 0.0, 0.0)),
        BlochEffect(0.5, (0.25, 0.0, 0.0)),
        BlochEffect(0.5, (0.0, 0.25, 0.0)),
        BlochEffect(0.75, (-0.375, -0.25, 0.0)),
        report,
    )


def curve():
    return BoundaryCurve(
        0.6, 0.5, 0.9, np.array([-0.9, 0.9]), np.array([0.9, 0.9]), ("circle", "circle"), None, None
    )


RECORDS = [
    (
        lambda: BlochEffect(1, [0, 0, 1]),
        ("alpha", "avec"),
        "BlochEffect(alpha=1.0, avec=(0.0, 0.0, 1.0))",
    ),
    (
        lambda: RelativePair(0.6, 0.5, 0.9, 0.1, 0.25),
        ("alpha", "a", "beta", "bx", "by"),
        "RelativePair(alpha=0.6, a=0.5, beta=0.9, bx=0.1, by=0.25)",
    ),
    (
        lambda: ReductionReport(True, False),
        ("complemented_a", "complemented_b"),
        "ReductionReport(complemented_a=True, complemented_b=False)",
    ),
    (
        lambda: Verdict(True, "C1", 0.25),
        ("coexistent", "regime", "sharpness_a", "b0", "w", "by_max"),
        "Verdict(coexistent=True, regime='C1', sharpness_a=0.25, b0=None, w=None, by_max=None)",
    ),
    (
        lambda: SpecialCaseVerdict("busch", False, 0.5),
        ("which", "coexistent", "margin"),
        "SpecialCaseVerdict(which='busch', coexistent=False, margin=0.5)",
    ),
    (
        curve,
        ("alpha", "a", "beta", "bx", "r", "regime", "b0", "w"),
        "BoundaryCurve(alpha=0.6, a=0.5, beta=0.9, bx=array([-0.9,  0.9]), r=array([0.9, 0.9]), "
        "regime=('circle', 'circle'), b0=None, w=None)",
    ),
    (
        lambda: Witness(0, [0, 0.125, 0]),
        ("gamma", "gvec"),
        "Witness(gamma=0.0, gvec=(0.0, 0.125, 0.0))",
    ),
    (
        observable,
        ("g1", "g2", "g3", "g4", "report"),
        "WitnessObservable(g1=BlochEffect(alpha=0.25, avec=(0.125, 0.0, 0.0)), "
        "g2=BlochEffect(alpha=0.5, avec=(0.25, 0.0, 0.0)), "
        "g3=BlochEffect(alpha=0.5, avec=(0.0, 0.25, 0.0)), "
        "g4=BlochEffect(alpha=0.75, avec=(-0.375, -0.25, 0.0)), "
        "report=InequalityReport(holds=True, residuals=(-0.5, -0.25, -0.125, 0.0)))",
    ),
    (
        lambda: InequalityReport(False, (0.5, -0.25, -0.125, 0.0)),
        ("holds", "residuals"),
        "InequalityReport(holds=False, residuals=(0.5, -0.25, -0.125, 0.0))",
    ),
    (
        lambda: OracleResult(True, -0.05, 0.2, (0.1, 0.0), 0.1, 0.5, 7, 324),
        ("coexistent", "margin", "gamma", "point", "gamma_lo", "gamma_hi", "kernel_calls", "columns"),
        "OracleResult(coexistent=True, margin=-0.05, gamma=0.2, point=(0.1, 0.0), gamma_lo=0.1, "
        "gamma_hi=0.5, kernel_calls=7, columns=324)",
    ),
    (
        lambda: SuiteResult("rotation", 10, 0),
        ("name", "checked", "violations", "skipped", "worst"),
        "SuiteResult(name='rotation', checked=10, violations=0, skipped=0, worst=inf)",
    ),
]


@pytest.mark.parametrize(("make", "fields", "text"), RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_contract(make, fields, text):
    record = make()
    assert record._fields == fields
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    clones = [pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)]
    assert [(type(c), repr(c)) for c in clones] == [(type(record), text)] * 3
    if isinstance(record, BoundaryCurve):
        return
    twin = make()
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert clones == [record] * 3
    assert record == tuple(getattr(record, name) for name in fields)


def test_boundary_curve_compares_by_identity():
    first, second = curve(), curve()
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2

