"""Operator-constraint checks, gamma intervals, witness search, assembly."""

import math

import numpy as np
import pytest

from qcoex.bloch import (
    BlochEffect,
    RelativePair,
    effect_from_bloch,
    effect_to_matrix,
)
from qcoex.coexist import boundary_curve, by_max, classify, is_coexistent
from qcoex.oracle import random_effect_pair
from qcoex.witness import (
    Witness,
    assemble_observable,
    find_witness,
    gamma_interval_2ci,
    operator_inequalities_hold,
)

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

    def test_succeeds_exactly_when_coexistent(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            A, B = random_effect_pair(rng)
            wt = find_witness(A, B)
            assert (wt is not None) == is_coexistent(A, B)
            if wt is not None:
                assert operator_inequalities_hold(A, B, wt).holds

    def test_closed_form_needs_no_grid_search(self, monkeypatch):
        def no_grid_search(*args, **kwargs):
            raise AssertionError("find_witness fell back to oracle_scan")

        monkeypatch.setattr("qcoex.witness.oracle_scan", no_grid_search)
        rng = np.random.default_rng(9)
        pairs = [random_effect_pair(rng) for _ in range(300)]
        pairs += [sic_pair(), commuting_pair(), on_curve_pair()]
        for A, B in pairs:
            if is_coexistent(A, B):
                assert_witness_valid(A, B)

    def test_near_junction_scaled_projections(self):
        # bx just inside the junction b0 + w, where the restricted curve
        # meets the full-length circle
        checked = 0
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
                    if is_coexistent(A, B):
                        assert_witness_valid(A, B)
                        checked += 1
        assert checked == 476

    def test_near_tip_scaled_projections(self):
        # b almost parallel to a = alpha at full length, where the gamma
        # interval at the top is degenerate
        checked = 0
        for alpha, beta in scaled_projection_triples():
            A = effect_from_bloch(alpha, (alpha, 0.0, 0.0))
            for eps in (1e-13, 1e-14, 1e-15, 4e-16):
                for by in (1e-8, 1e-9, 1e-10):
                    B = effect_from_bloch(beta, (beta - eps, by, 0.0))
                    if is_coexistent(A, B):
                        assert_witness_valid(A, B)
                        checked += 1
        assert checked == 360


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
                assert g.validity_residual() <= 1e-9

    def test_rejects_witness_violating_constraints(self):
        A = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        B = effect_from_bloch(0.6, (0.0, 0.6, 0.0))
        with pytest.raises(ValueError, match="constraints"):
            assemble_observable(A, B, Witness(0.9, (0.95, 0.0, 0.0)))
