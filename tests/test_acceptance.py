"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion pass lines immediately).
"""

import math
import time

import numpy as np
import pytest

from qcoex.bloch import (
    BlochEffect,
    RelativePair,
    complement,
    effect_from_bloch,
    effect_to_matrix,
    relative_pair,
    sharpness,
    sharpness_scalar,
)
from qcoex.cli import PRESETS
from qcoex.coexist import boundary_curve, by_max, classify, is_coexistent
from qcoex.selftest import (
    N_LAMBDAS,
    random_effect_pair,
    random_rotation,
    suite_complement_invariance,
    suite_convex_combination,
    suite_oracle_agreement,
    suite_rotation_invariance,
    suite_scaling,
    suite_special_cases,
)
from qcoex.tolerance import BOUNDARY_BAND, SPECIAL_CASE_BAND
from qcoex.witness import Witness, assemble_observable, find_witness, operator_inequalities_hold

SQRT3_INV = 1.0 / math.sqrt(3.0)
# Interval half-width for the (0.6, 0.5, 0.9) parameter set, evaluated with
# 40-digit arithmetic: sqrt(0.151) / 0.5.
W_FIG1B = 0.7771743691090179


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_figure_presets():
    start = time.perf_counter()

    curve_a = boundary_curve(*PRESETS["fig1a"], 256)
    assert np.all(np.abs(curve_a.r - 0.6) <= 1e-9)
    assert curve_a.b0 is None

    curve_b = boundary_curve(*PRESETS["fig1b"], 256)
    assert curve_b.b0 == pytest.approx(0.08, abs=1e-9)
    assert curve_b.w == pytest.approx(W_FIG1B, abs=1e-9)

    curve_c = boundary_curve(*PRESETS["fig1c"], 256)
    assert curve_c.b0 == 0.0
    assert curve_c.w == pytest.approx(1.0, abs=1e-9)

    curve_d = boundary_curve(*PRESETS["fig1d"], 256)
    assert curve_d.b0 == pytest.approx(1.0 / 15.0, abs=1e-9)
    assert curve_d.w == pytest.approx(5.0 / 6.0, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "figure presets reproduce the four regimes")


def test_criterion_2_special_case_equivalence():
    start = time.perf_counter()
    assert SPECIAL_CASE_BAND == 1e-9
    result = suite_special_cases(10_000, seed=2024)
    elapsed = time.perf_counter() - start
    assert result.violations == 0
    assert result.checked + result.skipped == 30_000
    assert result.checked > 29_000  # the boundary band is rare
    assert elapsed < 10.0
    _report(2, f"special-case equivalence on {result.checked} pairs")


def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    assert BOUNDARY_BAND == 1e-6
    result = suite_oracle_agreement(1000, seed=2025)
    elapsed = time.perf_counter() - start
    assert result.violations == 0
    assert result.checked + result.skipped == 1000
    assert elapsed < 300.0
    _report(3, f"oracle agreement on {result.checked} pairs, band {result.skipped}")


def test_criterion_4_witness_completeness():
    rng = np.random.default_rng(2026)
    found = 0
    while found < 1000:
        A, B = random_effect_pair(rng)
        pair, _ = relative_pair(A, B)
        if not classify(pair).coexistent:
            continue
        found += 1
        wt = find_witness(A, B)
        assert wt is not None
        obs = assemble_observable(A, B, wt)
        g1, g2, g3, g4 = obs.effects()
        # Bloch vectors are tuples, which + would concatenate
        v1, v2, v3, v4 = (np.asarray(g.avec) for g in obs.effects())
        a, b = np.asarray(A.avec), np.asarray(B.avec)
        # completeness: the four outcomes sum to the identity within 1e-12
        assert abs((g1.alpha + g2.alpha + g3.alpha + g4.alpha) - 2.0) <= 1e-12
        assert np.abs(v1 + v2 + v3 + v4).max() <= 1e-12
        # positivity of every outcome within 1e-9, boundedness likewise
        for g in obs.effects():
            evals = np.linalg.eigvalsh(effect_to_matrix(g))
            assert evals[0] >= -1e-9
            assert evals[-1] <= 1.0 + 1e-9
        # marginals reproduce the inputs
        assert abs((g1.alpha + g2.alpha) - A.alpha) <= 1e-12
        assert np.abs(v1 + v2 - a).max() <= 1e-12
        assert abs((g1.alpha + g3.alpha) - B.alpha) <= 1e-12
        assert np.abs(v1 + v3 - b).max() <= 1e-12
    _report(4, "witness construction complete on 1000 coexistent pairs")


def test_criterion_5_symmetric_informationally_complete_pair():
    A = effect_from_bloch(1.0, (SQRT3_INV, 0.0, 0.0))
    B = effect_from_bloch(1.0, (0.0, SQRT3_INV, 0.0))
    assert is_coexistent(A, B)
    # the known symmetric four-outcome observable provides a first outcome
    # with the full diagonal Bloch vector; it must be accepted, and its
    # norm constraint must be exactly tight
    wt = Witness(0.5, (0.5 * SQRT3_INV, 0.5 * SQRT3_INV, 0.5 * SQRT3_INV))
    report = operator_inequalities_hold(A, B, wt)
    assert report.holds
    assert abs(report.residuals[0]) <= 1e-12
    obs = assemble_observable(A, B, wt)
    for g in obs.effects():
        assert max(g.a - g.alpha, g.alpha - (2.0 - g.a)) <= 1e-9
    # the search itself also certifies the pair, staying in the vector plane
    found = find_witness(A, B)
    assert found.gamma == pytest.approx(0.5, abs=1e-12)
    _report(5, "symmetric four-outcome example end to end")


def test_criterion_6_sharpness_property_suite():
    rng = np.random.default_rng(2027)
    for _ in range(10_000):
        alpha = 2.0 * rng.random()
        a = min(alpha, 2.0 - alpha) * rng.random()
        v = rng.normal(size=3)
        v *= a / np.linalg.norm(v)
        e = BlochEffect(alpha, v)
        s = sharpness(e)
        assert abs(sharpness(complement(e)) - s) <= 1e-12
        rotated = BlochEffect(alpha, random_rotation(rng) @ e.avec)
        assert abs(sharpness(rotated) - s) <= 1e-12
        if alpha <= 1.0:
            assert s <= alpha + 1e-12
        # the extremes are reached only at the exact parameter sets
        if s >= 1.0 - 1e-12:
            assert abs(e.a - 1.0) <= 1e-5 and abs(alpha - 1.0) <= 1e-5
        if s <= 1e-12:
            assert e.a <= 1e-5
    # exact-case checks at exact parameter values
    assert sharpness_scalar(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    for alpha in (0.0, 0.25, 0.5, 1.0, 1.75, 2.0):
        assert abs(sharpness_scalar(alpha, 0.0)) <= 1e-12
    for alpha in (0.1, 0.4, 0.9, 1.0):
        assert sharpness_scalar(alpha, alpha) == pytest.approx(alpha, abs=1e-12)
    _report(6, "sharpness properties on 10000 effects")


def test_criterion_7_invariance_suites():
    assert N_LAMBDAS == 10
    results = [
        suite_complement_invariance(1000, seed=11),
        suite_rotation_invariance(1000, seed=12),
        suite_convex_combination(1000, seed=13),
        suite_scaling(1000, seed=14),
    ]
    for result in results:
        assert result.checked == 1000, result
        assert result.violations == 0, result
    _report(7, "complement / rotation / mixture / scaling closure")


def test_criterion_8_tangency_and_interior_strictness():
    rng = np.random.default_rng(2028)
    for _ in range(100):
        alpha = 0.2 + 0.8 * rng.random()
        a = alpha * (0.2 + 0.8 * rng.random())
        s = sharpness_scalar(alpha, a)
        beta = 1.0 - s * 0.95 * rng.random()
        verdict = classify(RelativePair(alpha, a, beta, 0.0, 0.0))
        b0, w = verdict.b0, verdict.w
        assert b0 is not None and w is not None
        # the restricted curve meets the full-length circle at the junctions
        for sign in (-1.0, 1.0):
            bx = b0 + sign * w
            r = math.hypot(bx, by_max(alpha, a, beta, bx))
            assert r == pytest.approx(beta, abs=1e-9)
        # strictly inside the circle at interior samples
        for u in np.linspace(-0.99, 0.99, 100):
            bx = b0 + u * w
            r2 = bx * bx + by_max(alpha, a, beta, bx) ** 2
            assert r2 < beta * beta
        # the curve's minimum sits at the interval center
        xs = np.linspace(b0 - w, b0 + w, 1001)[1:-1]
        rs = np.hypot(xs, [by_max(alpha, a, beta, float(x)) for x in xs])
        spacing = 2.0 * w / 1000.0
        assert abs(xs[int(np.argmin(rs))] - b0) <= spacing + 1e-12
    _report(8, "junction tangency, interior strictness, minimum location")
