"""Operator-constraint checks, gamma intervals, witness search, assembly."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import reference as ref
from hypothesis import given, settings
from test_bloch import valid_effects

from qcoex.bloch import (
    BlochEffect,
    RelativePair,
    complement,
    effect_from_bloch,
    effect_to_matrix,
    relative_pair,
)
from qcoex.coexist import (
    C1,
    C2,
    C3,
    TRIVIAL_PARALLEL,
    boundary_curve,
    by_max,
    classify,
    is_coexistent,
)
from qcoex.selftest import random_effect_pair
from qcoex.tolerance import PSD_TOL
from qcoex.witness import (
    InequalityReport,
    Witness,
    WitnessError,
    assemble_observable,
    find_witness,
    gamma_interval_2ci,
    operator_inequalities_hold,
)

DATA = Path(__file__).parent / "data"
SQRT3_INV = 1.0 / math.sqrt(3.0)
LIU_06_05 = 0.8196660810488711


def sic_pair():
    A = effect_from_bloch(1.0, (SQRT3_INV, 0.0, 0.0))
    B = effect_from_bloch(1.0, (0.0, SQRT3_INV, 0.0))
    return A, B


def commuting_pair():
    return effect_from_bloch(0.9, (0.0, 0.0, 0.9)), effect_from_bloch(0.8, (0.0, 0.0, 0.5))


def on_curve_pair():
    # (alpha, a, beta) = (0.6, 0.5, 1) with by on the restricted curve at bx = 0
    cap = by_max(0.6, 0.5, 1.0, 0.0)
    return effect_from_bloch(0.6, (0.5, 0.0, 0.0)), effect_from_bloch(1.0, (0.0, cap, 0.0))


def scaled_projection_triples():
    """(alpha, beta) of 30 seeded pairs whose first effect is a scaled projection (a = alpha)."""
    rng = np.random.default_rng(2029)
    return [(float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))) for _ in range(30)]


def criterion_4_pairs():
    """The first 1000 coexistent pairs of acceptance criterion 4's stream."""
    rng = np.random.default_rng(2026)
    pairs = []
    while len(pairs) < 1000:
        A, B = random_effect_pair(rng)
        if is_coexistent(A, B):
            pairs.append((A, B))
    return pairs


def near_junction_pairs():
    """Scaled projections with bx just inside the junction b0 + w, where the
    restricted curve meets the full-length circle."""
    pairs = []
    for alpha, beta in scaled_projection_triples():
        curve = boundary_curve(alpha, alpha, beta, n_samples=16)
        if curve.b0 is None:
            continue
        A = effect_from_bloch(alpha, (alpha, 0.0, 0.0))
        for k in range(6, 13):
            bx = curve.b0 + curve.w - 10.0**-k
            cap = by_max(alpha, alpha, beta, bx)
            for by in (cap, 0.5 * cap, 1e-13):
                B = effect_from_bloch(beta, (bx, by, 0.0))
                pairs.append((A, B))
    return pairs


def near_tip_pairs():
    """Scaled projections with b almost parallel to a = alpha at full length,
    where the junction b0 + w sits at the tip bx = beta."""
    pairs = []
    for alpha, beta in scaled_projection_triples():
        A = effect_from_bloch(alpha, (alpha, 0.0, 0.0))
        for eps in (1e-13, 1e-14, 1e-15, 4e-16):
            for by in (1e-8, 1e-9, 1e-10):
                B = effect_from_bloch(beta, (beta - eps, by, 0.0))
                pairs.append((A, B))
    return pairs


def per_outcome_check(A, B, wt):
    """Residuals and minimum eigenvalues one outcome at a time: a norm and a
    2x2 matrix with its own eigvalsh call per outcome."""
    g = wt.gvec
    gamma = wt.gamma
    residuals = (
        float(np.linalg.norm(g)) - gamma,
        float(np.linalg.norm(A.avec - g)) - (A.alpha - gamma),
        float(np.linalg.norm(B.avec - g)) - (B.alpha - gamma),
        float(np.linalg.norm(A.avec + B.avec - g)) - (2.0 + gamma - A.alpha - B.alpha),
    )
    operators = (
        BlochEffect(gamma, g),
        BlochEffect(A.alpha - gamma, A.avec - g),
        BlochEffect(B.alpha - gamma, B.avec - g),
        BlochEffect(2.0 + gamma - A.alpha - B.alpha, g - A.avec - B.avec),
    )
    eigenvalues = tuple(float(np.linalg.eigvalsh(effect_to_matrix(op))[0]) for op in operators)
    return residuals, eigenvalues


def pushed_off(A, B, wt, k):
    """The witness with gamma moved so that constraint k fails by 1e-6."""
    g = wt.gvec
    gamma = (
        float(np.linalg.norm(g)) - 1e-6,
        A.alpha - float(np.linalg.norm(A.avec - g)) + 1e-6,
        B.alpha - float(np.linalg.norm(B.avec - g)) + 1e-6,
        float(np.linalg.norm(A.avec + B.avec - g)) - 2.0 + A.alpha + B.alpha - 1e-6,
    )[k]
    return Witness(gamma, g)


def witness_outcome(A, B):
    """find_witness's answer as comparable values: None, an error or (gamma, gvec)."""
    try:
        wt = find_witness(A, B)
    except WitnessError:
        return "WitnessError"
    return None if wt is None else (wt.gamma, wt.gvec)


def mapped_back(outcome, E):
    """(E.alpha - gamma, E.avec - gvec): the first outcome after swapping outcomes across E."""
    if not isinstance(outcome, tuple):
        return outcome
    gamma, gvec = outcome
    return (E.alpha - gamma, E.avec - gvec)


def assert_same_outcome(found, expected):
    if not isinstance(expected, tuple):
        assert found == expected
        return
    assert isinstance(found, tuple)
    assert found[0] == expected[0]
    assert np.array_equal(found[1], expected[1])


@pytest.fixture
def check_calls(monkeypatch):
    """Count the calls of operator_inequalities_hold made inside qcoex.witness."""
    calls = []

    def counted(A, B, wt):
        calls.append(wt)
        return operator_inequalities_hold(A, B, wt)

    monkeypatch.setattr("qcoex.witness.operator_inequalities_hold", counted)
    return calls


def assert_witness_valid(A, B):
    wt = find_witness(A, B)
    assert wt is not None
    assert operator_inequalities_hold(A, B, wt).holds


class TestOperatorInequalities:
    def test_projection_with_itself_is_tight(self):
        P = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        report = operator_inequalities_hold(P, P, Witness(1.0, (0.0, 0.0, 1.0)))
        assert report.holds
        # G1 = A = B makes the first three constraints equalities
        assert report.residuals[0] == pytest.approx(0.0, abs=1e-12)
        assert report.residuals[1] == pytest.approx(0.0, abs=1e-12)
        assert report.residuals[2] == pytest.approx(0.0, abs=1e-12)

    def test_known_symmetric_four_outcome_witness(self):
        A, B = sic_pair()
        wt = Witness(0.5, (0.5 * SQRT3_INV, 0.5 * SQRT3_INV, 0.5 * SQRT3_INV))
        report = operator_inequalities_hold(A, B, wt)
        assert report.holds
        assert report.residuals[0] == pytest.approx(0.0, abs=1e-12)

    def test_residuals_and_eigenvalues_cross_check(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            A, B = random_effect_pair(rng)
            wt = find_witness(A, B)
            if wt is None:
                continue
            report = operator_inequalities_hold(A, B, wt)
            # vector residual r and operator minimum eigenvalue agree: eig = -r/2
            for r, eig in zip(report.residuals, report.min_eigenvalues):
                assert eig == pytest.approx(-0.5 * r, abs=1e-12)

    def test_batched_check_matches_the_per_outcome_check(self):
        pairs = criterion_4_pairs() + near_junction_pairs() + near_tip_pairs()
        checked = 0
        for A, B in pairs:
            wt = find_witness(A, B)
            if wt is None:
                continue
            for k, w in enumerate((wt, pushed_off(A, B, wt, checked % 4))):
                report = operator_inequalities_hold(A, B, w)
                residuals, eigenvalues = per_outcome_check(A, B, w)
                assert (report.residuals, report.min_eigenvalues) == (residuals, eigenvalues)
                assert report.holds == (k == 0)
                assert report.holds == (max(residuals) <= PSD_TOL and min(eigenvalues) >= -PSD_TOL)
            checked += 1
        assert checked == 1000 + 501 + 355

    def test_batched_check_matches_the_per_outcome_check_for_complements(self):
        # traces above 1 on one effect, on the other and on both, in turn
        checked = 0
        for k, (A, B) in enumerate(criterion_4_pairs()):
            if k % 3 != 1:
                A = complement(A)
            if k % 3 != 0:
                B = complement(B)
            assert max(A.alpha, B.alpha) > 1.0
            wt = find_witness(A, B)
            for w in (wt, pushed_off(A, B, wt, k % 4)):
                report = operator_inequalities_hold(A, B, w)
                assert (report.residuals, report.min_eigenvalues) == per_outcome_check(A, B, w)
                assert report.holds == (w is wt)
            checked += 1
        assert checked == 1000

    def test_noncommuting_projection_candidates_fail(self):
        A = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        B = effect_from_bloch(1.0, (0.0, 1.0, 0.0))
        for gamma in np.linspace(0.0, 1.0, 9):
            wt = Witness(float(gamma), (0.0, 0.5 * gamma, 0.5 * gamma))
            assert not operator_inequalities_hold(A, B, wt).holds


class TestGammaInterval:
    def test_empty_for_orthogonal_projections(self):
        assert gamma_interval_2ci(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)) is None

    def test_empty_for_full_length_orthogonal_partial_first(self):
        # at full length the perpendicular direction is never allowed when
        # the first effect has a nonzero Bloch vector and beta = 1
        p = RelativePair(1.0, SQRT3_INV, 1.0, 0.0, 1.0)
        assert classify(p).coexistent is False
        assert gamma_interval_2ci(p) is None

    def test_nonempty_for_unsharp_pair_any_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = math.pi * rng.random()
            p = RelativePair(0.6, 0.5, 0.6, 0.6 * math.cos(theta), 0.6 * math.sin(theta))
            interval = gamma_interval_2ci(p)
            assert interval is not None
            lo, hi = interval
            assert 0.0 <= lo <= hi <= 0.6

    def test_midpoint_yields_valid_witness(self):
        p = RelativePair(0.6, 0.5, 0.6, 0.6 * math.cos(1.1), 0.6 * math.sin(1.1))
        lo, hi = gamma_interval_2ci(p)
        gamma = 0.5 * (lo + hi)
        A = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        B = effect_from_bloch(0.6, (p.bx, p.by, 0.0))
        wt = Witness(gamma, (gamma * p.bx / 0.6, gamma * p.by / 0.6, 0.0))
        assert operator_inequalities_hold(A, B, wt).holds

    def test_requires_full_length(self):
        with pytest.raises(ValueError, match="beta"):
            gamma_interval_2ci(RelativePair(0.6, 0.5, 0.9, 0.1, 0.1))

    def test_degenerate_parallel_projection_multiple_raises(self):
        with pytest.raises(ValueError, match="parallel"):
            gamma_interval_2ci(RelativePair(0.8, 0.8, 0.9, 0.9, 0.0))


class TestFindWitness:
    def test_sic_pair_recovers_symmetric_first_outcome(self):
        A, B = sic_pair()
        wt = find_witness(A, B)
        assert wt.gamma == pytest.approx(0.5, abs=1e-12)
        assert wt.gvec[0] == pytest.approx(0.5 * SQRT3_INV, abs=1e-12)
        assert wt.gvec[1] == pytest.approx(0.5 * SQRT3_INV, abs=1e-12)
        assert wt.gvec[2] == pytest.approx(0.0, abs=1e-15)

    def test_commuting_pair_uses_product(self):
        A, B = commuting_pair()
        wt = find_witness(A, B)
        assert wt.gamma == pytest.approx(0.5 * (0.9 * 0.8 + 0.9 * 0.5), abs=1e-12)
        expected = 0.5 * (0.9 * np.array([0.0, 0.0, 0.5]) + 0.8 * np.array([0.0, 0.0, 0.9]))
        assert np.allclose(wt.gvec, expected, atol=1e-12)
        # matrix-level check: G1 equals the operator product A B
        product = effect_to_matrix(A) @ effect_to_matrix(B)
        assert np.allclose(effect_to_matrix(BlochEffect(wt.gamma, wt.gvec)), product, atol=1e-12)

    def test_restricted_boundary_point_coincident_crossing(self):
        A, B = on_curve_pair()
        assert B.avec[1] == pytest.approx(LIU_06_05, abs=1e-12)
        wt = find_witness(A, B)
        assert wt.gamma == pytest.approx(0.3, abs=1e-12)
        report = operator_inequalities_hold(A, B, wt)
        assert report.holds
        assert max(report.residuals) <= 1e-9

    def test_none_for_noncoexistent(self):
        A = effect_from_bloch(1.0, (1.0, 0.0, 0.0))
        B = effect_from_bloch(1.0, (0.0, 1.0, 0.0))
        assert find_witness(A, B) is None

    def test_witness_lies_in_bloch_vector_span(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 200:
            A, B = random_effect_pair(rng)
            wt = find_witness(A, B)
            if wt is None:
                continue
            found += 1
            normal = np.cross(A.avec, B.avec)
            n = np.linalg.norm(normal)
            if n < 1e-12:
                continue
            assert abs(np.dot(wt.gvec, normal / n)) <= 1e-12

    def test_complemented_inputs_map_back(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 100:
            A, B = random_effect_pair(rng)
            # push one or both trace coefficients above 1
            if rng.random() < 0.5:
                A = BlochEffect(2.0 - A.alpha, -A.avec)
            if rng.random() < 0.5:
                B = BlochEffect(2.0 - B.alpha, -B.avec)
            wt = find_witness(A, B)
            if wt is None:
                continue
            found += 1
            obs = assemble_observable(A, B, wt)
            mA = effect_to_matrix(obs.g1) + effect_to_matrix(obs.g2)
            mB = effect_to_matrix(obs.g1) + effect_to_matrix(obs.g3)
            assert np.abs(mA - effect_to_matrix(A)).max() <= 1e-12
            assert np.abs(mB - effect_to_matrix(B)).max() <= 1e-12

    @settings(max_examples=200)
    @given(
        valid_effects().filter(lambda e: e.alpha <= 1.0),
        valid_effects().filter(lambda e: e.alpha > 1.0),
        valid_effects().filter(lambda e: e.alpha > 1.0),
    )
    def test_complemented_inputs_are_exact_relabelings(self, E, X, Y):
        # an effect with alpha > 1 is reduced through its complement by an
        # exact sign flip, so the witness is the complement pair's witness
        # mapped back bit for bit; the complement is taken only of effects
        # with alpha > 1, since 2 - (2 - alpha) need not give alpha back
        R = witness_outcome(complement(X), E)
        assert_same_outcome(witness_outcome(X, E), mapped_back(R, E))
        R = witness_outcome(E, complement(Y))
        assert_same_outcome(witness_outcome(E, Y), mapped_back(R, E))
        R = witness_outcome(complement(X), complement(Y))
        expected = mapped_back(mapped_back(R, complement(X)), Y)
        assert_same_outcome(witness_outcome(X, Y), expected)

    def test_builds_no_effect_objects(self, check_calls, monkeypatch):
        first = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        pairs = [
            (C1, first, effect_from_bloch(0.3, (0.0, 0.1, 0.0))),
            (C1, effect_from_bloch(1.0, (1e-160, 1e-160, 0.0)), effect_from_bloch(1.0, (0.0, 1.0, 0.0))),
            (C2, effect_from_bloch(1.4, (-0.5, 0.0, 0.0)), effect_from_bloch(1.1, (0.85, 0.0, 0.1))),
            (C3, first, effect_from_bloch(0.9, (0.1, 0.2, 0.2))),
            (TRIVIAL_PARALLEL, first, effect_from_bloch(1.3, (0.0, 0.0, 0.0))),
        ]

        def refuse(self):
            raise AssertionError("an effect object was built")

        # inputs are built first; a complement would build one per request
        monkeypatch.setattr(BlochEffect, "__post_init__", refuse)
        for regime, A, B in pairs:
            assert classify(relative_pair(A, B)[0]).regime == regime
            check_calls.clear()
            wt = find_witness(A, B)
            assert check_calls == [wt]
            assert operator_inequalities_hold(A, B, wt).holds

    def test_succeeds_exactly_when_coexistent(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            A, B = random_effect_pair(rng)
            wt = find_witness(A, B)
            assert (wt is not None) == is_coexistent(A, B)
            if wt is not None:
                assert operator_inequalities_hold(A, B, wt).holds

    def test_closed_form_needs_no_grid_search(self, no_oracle):
        rng = np.random.default_rng(9)
        pairs = [random_effect_pair(rng) for _ in range(300)]
        pairs += [sic_pair(), commuting_pair(), on_curve_pair()]
        pairs += criterion_4_pairs()
        pairs += near_junction_pairs() + near_tip_pairs()
        for A, B in pairs:
            if is_coexistent(A, B):
                assert_witness_valid(A, B)

    def test_near_junction_scaled_projections(self):
        checked = 0
        for A, B in near_junction_pairs():
            if is_coexistent(A, B):
                assert_witness_valid(A, B)
                checked += 1
        assert checked == 501

    def test_near_tip_scaled_projections(self):
        checked = 0
        for A, B in near_tip_pairs():
            if is_coexistent(A, B):
                assert_witness_valid(A, B)
                checked += 1
        assert checked == 355

    @pytest.mark.parametrize("t", [1e-160, 1e-310, 5e-324])
    def test_tiny_vector(self, t):
        # a length formed as sqrt(x . x) squares these vectors into the
        # subnormal range or to 0 (at 1e-160 it is off by 5.6e-6 relative);
        # math.hypot scales, and directions are taken after an exact scaling
        # by a power of two, since subnormal components or products lose digits
        A = BlochEffect(1.0, (t, t, 0.0))
        B = BlochEffect(1.0, (0.0, 1.0, 0.0))
        length = math.hypot(1.0, 1.0) * t
        assert abs(A.a - length) <= math.ulp(length)
        p, _ = relative_pair(A, B)
        assert abs(p.bx - math.sqrt(0.5)) <= math.ulp(0.5)
        assert abs(p.by - math.sqrt(0.5)) <= math.ulp(0.5)
        p, _ = relative_pair(A, BlochEffect(1.0, (0.0, 0.0, 1.0)))
        assert p.bx == 0.0
        assert abs(p.by - 1.0) <= math.ulp(1.0)
        wt = find_witness(A, B)
        assert wt is not None
        assert assemble_observable(A, B, wt).report.holds

    def test_moved_sweep_verdicts_lie_in_the_reference_band(self):
        # the sweep pairs whose verdict changed when by came from the cross
        # product and the junction test from the tip gaps: the closed form
        # gives every one a margin below 1e-16 in size, far inside its band
        moved = json.loads((DATA / "witness_sweep_moves.json").read_text())
        assert len(moved) == 34
        for case in moved:
            alpha, beta, bx, by = case["alpha"], case["beta"], case["bx"], case["by"]
            A = effect_from_bloch(alpha, (alpha, 0.0, 0.0))
            B = effect_from_bloch(beta, (bx, by, 0.0))
            assert is_coexistent(A, B) == case["coexistent"]
            margin = ref.coexistence_margin(alpha, A.avec, beta, B.avec)
            assert abs(margin) < 1e-16
            assert float(margin) == pytest.approx(case["margin"], rel=1e-9, abs=1e-30)


class TestAssembleObservable:
    def test_projection_with_itself(self):
        P = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        obs = assemble_observable(P, P, Witness(1.0, (0.0, 0.0, 1.0)))
        g1, g2, g3, g4 = obs.effects()
        assert np.allclose(effect_to_matrix(g1), np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(effect_to_matrix(g2), 0.0, atol=1e-15)
        assert np.allclose(effect_to_matrix(g3), 0.0, atol=1e-15)
        assert np.allclose(effect_to_matrix(g4), np.diag([0.0, 1.0]), atol=1e-15)

    def test_sic_second_outcome_is_marginal_minus_first(self):
        A, B = sic_pair()
        wt = find_witness(A, B)
        obs = assemble_observable(A, B, wt)
        expected = effect_to_matrix(A) - effect_to_matrix(BlochEffect(wt.gamma, wt.gvec))
        assert np.abs(effect_to_matrix(obs.g2) - expected).max() <= 1e-15

    def test_outcomes_sum_to_identity(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 200:
            A, B = random_effect_pair(rng)
            wt = find_witness(A, B)
            if wt is None:
                continue
            found += 1
            obs = assemble_observable(A, B, wt)
            total = sum((effect_to_matrix(g) for g in obs.effects()), np.zeros((2, 2), complex))
            assert np.abs(total - np.eye(2)).max() <= 1e-12
            for g in obs.effects():
                assert max(g.a - g.alpha, g.alpha - (2.0 - g.a)) <= 1e-9

    def test_carries_the_check_that_admitted_it(self):
        A, B = sic_pair()
        wt = find_witness(A, B)
        assert assemble_observable(A, B, wt).report == operator_inequalities_hold(A, B, wt)

    def test_rejects_witness_violating_constraints(self, check_calls):
        A = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        B = effect_from_bloch(0.6, (0.0, 0.6, 0.0))
        with pytest.raises(ValueError, match="constraints"):
            assemble_observable(A, B, Witness(0.9, (0.95, 0.0, 0.0)))
        assert len(check_calls) == 1

    def test_one_check_per_request(self, check_calls):
        C, D = commuting_pair()
        # the last pair has both trace coefficients above 1
        for A, B in (sic_pair(), commuting_pair(), on_curve_pair(), (complement(C), complement(D))):
            check_calls.clear()
            wt = find_witness(A, B)
            obs = assemble_observable(A, B, wt)
            assert check_calls == [wt]
            assert obs.report.holds

    def test_rejects_witness_passed_with_another_effect(self, check_calls):
        A, B = sic_pair()
        wt = find_witness(A, B)
        B2 = effect_from_bloch(1.0, (0.0, 0.0, SQRT3_INV))
        with pytest.raises(ValueError, match="constraints"):
            assemble_observable(A, B2, wt)
        assert len(check_calls) == 2

    def test_checks_witness_passed_with_equal_copies(self, check_calls, monkeypatch):
        A, B = sic_pair()
        wt = find_witness(A, B)
        A2, B2 = BlochEffect(A.alpha, A.avec), BlochEffect(B.alpha, B.avec)
        assert assemble_observable(A2, B2, wt).report == operator_inequalities_hold(A, B, wt)
        assert check_calls == [wt, wt]
        # a check that fails shows the copies are checked, not trusted
        failing = InequalityReport(False, (1.0,) * 4, (-1.0,) * 4)
        monkeypatch.setattr("qcoex.witness.operator_inequalities_hold", lambda *args: failing)
        with pytest.raises(ValueError, match="constraints"):
            assemble_observable(A2, B2, wt)
        assert assemble_observable(A, B, wt).report.holds

    def test_admission_record_stays_out_of_repr(self):
        A, B = sic_pair()
        wt = find_witness(A, B)
        assert repr(wt) == repr(Witness(wt.gamma, wt.gvec))
