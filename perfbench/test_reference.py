"""The benchmark's reference checkers accept what they should and reject the rest.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math

import mpmath as mp
import numpy as np

import reference as ref

SQRT3_INV = 1.0 / math.sqrt(3.0)


def test_restricted_interval_reproduces_the_figure_presets():
    six, nine = mp.mpf("0.6"), mp.mpf("0.9")
    b0, w = ref.restricted_interval(six, mp.mpf("0.5"), nine)  # fig1b
    assert abs(b0 - mp.mpf("0.08")) < 1e-35
    assert abs(w - mp.sqrt(mp.mpf("0.151")) / mp.mpf("0.5")) < 1e-35
    b0, w = ref.restricted_interval(six, six, nine)  # fig1d
    assert abs(b0 - mp.mpf(1) / 15) < 1e-35
    assert abs(w - mp.mpf(5) / 6) < 1e-35
    # the restricted curve meets the full-length circle at both junctions
    for j in (b0 - w, b0 + w):
        assert abs(mp.hypot(j, ref.by_max(six, six, nine, j)) - nine) < 1e-30
    # a neighbouring parameter set does not pass for fig1d
    b0, w = ref.restricted_interval(six, six, nine + mp.mpf("1e-6"))
    assert abs(b0 - mp.mpf(1) / 15) > 1e-9 and abs(w - mp.mpf(5) / 6) > 1e-9


def test_unrestricted_triples_have_no_interval():
    assert ref.restricted_interval(0.6, 0.5, 0.6) is None  # fig1a
    assert ref.restricted_interval(0.6, 0.0, 0.9) is None


def _canonical(alpha, a, beta, bx, by):
    return (float(alpha), (float(a), 0.0, 0.0)), (float(beta), (float(bx), float(by), 0.0))


def test_placement_lands_on_the_signed_side():
    alpha, a, beta = mp.mpf("0.6"), mp.mpf("0.5"), mp.mpf("0.9")
    b0, w = ref.restricted_interval(alpha, a, beta)
    for u in (mp.mpf("0.3"), mp.mpf("0.999999")):
        x = b0 - w + 2 * w * u
        for depth in (1e-3, 1e-10):
            for sign in (1, -1):
                A, B = _canonical(alpha, a, beta, *ref.curve_normal_offset(alpha, a, beta, x, sign * depth))
                margin = ref.coexistence_margin(A[0], A[1], B[0], B[1])
                assert (margin >= 0) == (sign < 0), (u, depth, sign)


def test_threshold_placement_has_the_requested_depth():
    alpha, a = mp.mpf("0.7"), mp.mpf("0.5")
    beta = ref.threshold_excess(alpha, a, mp.mpf("1e-10"))
    assert beta > 1 - ref.sharpness(alpha, a)
    b0, _ = ref.restricted_interval(alpha, a, beta)
    gap = mp.sqrt(beta**2 - b0**2) - ref.by_max(alpha, a, beta, b0)
    assert abs(gap / mp.mpf("1e-10") - 1) < 1e-6


def _sic_outcomes(g):
    A = (1.0, (SQRT3_INV, 0.0, 0.0))
    B = (1.0, (0.0, SQRT3_INV, 0.0))
    g = np.asarray(g)
    a, b = np.asarray(A[1]), np.asarray(B[1])
    outcomes = [(0.5, g), (0.5, a - g), (0.5, b - g), (0.5, g - a - b)]
    return A, B, outcomes


def test_joint_observable_check_accepts_the_criterion_5_witness():
    A, B, outcomes = _sic_outcomes(0.5 * SQRT3_INV * np.ones(3))
    assert ref.joint_observable_error(A, B, outcomes) is None


def test_joint_observable_check_rejects_a_witness_pushed_outward():
    g = 0.5 * SQRT3_INV * np.ones(3)
    A, B, outcomes = _sic_outcomes(g * (1.0 + 2e-6))  # ||g|| = 0.5 + 1e-6
    assert "eigenvalues" in ref.joint_observable_error(A, B, outcomes)


def test_joint_observable_check_rejects_wrong_marginals():
    A, B, outcomes = _sic_outcomes(0.5 * SQRT3_INV * np.ones(3))
    shifted = [(alpha + (1e-10 if k == 1 else 0.0), v) for k, (alpha, v) in enumerate(outcomes)]
    assert ref.joint_observable_error(A, B, shifted) is not None


def test_busch_closed_form():
    assert ref.busch_coexistent((SQRT3_INV, 0, 0), (0, SQRT3_INV, 0))
    assert not ref.busch_coexistent((1, 0, 0), (0, 1, 0))
    assert ref.busch_coexistent((1, 0, 0), (1, 0, 0))


def test_closed_forms_agree_with_the_general_margin():
    rng = np.random.default_rng(5)
    for _ in range(300):
        u, v = (x / np.linalg.norm(x) for x in rng.normal(size=(2, 3)))
        a, b = rng.random(2)
        busch = ref.busch_coexistent(a * u, b * v)
        assert busch == (ref.coexistence_margin(1.0, a * u, 1.0, b * v) >= 0)
        lam, mu = 0.2 + 0.8 * rng.random(2)
        molnar = ref.molnar_coexistent(lam, u, mu, v)
        assert molnar == (ref.coexistence_margin(lam, lam * u, mu, mu * v) >= 0)


def test_margin_of_sharp_projections_needs_commuting():
    assert ref.coexistence_margin(1.0, (1, 0, 0), 1.0, (1, 0, 0)) >= 0
    t = 1e-8
    assert ref.coexistence_margin(1.0, (1, 0, 0), 1.0, (math.cos(t), math.sin(t), 0)) < 0


def test_disk_excess_rejects_a_point_outside():
    plane = ref.canonical_plane((1.0, (SQRT3_INV, 0, 0)), (1.0, (0, SQRT3_INV, 0)))
    edge = 0.5 / math.sqrt(2.0)  # on the circle of radius gamma = 0.5, inside the rest
    assert abs(ref.disk_excess(plane, 0.5, (edge, edge))) <= 1e-15
    assert ref.disk_excess(plane, 0.5, (edge + 1e-6, edge + 1e-6)) > ref.DISK_TOL


def test_canonical_plane_keeps_small_angles():
    t = 1e-8
    plane = ref.canonical_plane((1.0, (1.0, 0.0, 0.0)), (1.0, (math.cos(t), math.sin(t), 0.0)))
    assert abs(plane[4] - t) < 1e-20
