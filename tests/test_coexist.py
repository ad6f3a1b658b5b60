"""Regime classification, boundary curves, and special-case checkers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qcoex.bloch import RelativePair, effect_from_bloch, relative_pair
from qcoex.coexist import (
    ARC_CIRCLE,
    ARC_CURVE,
    C1,
    C2,
    C3,
    TRIVIAL_PARALLEL,
    _interval,
    _root,
    boundary_curve,
    by_max,
    classify,
    is_coexistent,
    special_case_verdict,
)
from qcoex.selftest import random_effect_pair

# Independently computed with 40-digit arithmetic.
S_06_05 = 0.3281475155779856
LIU_06_05 = 0.8196660810488711
SQRT3_INV = 1.0 / math.sqrt(3.0)
# (alpha, a, beta) of sharp first effects just past the C1 threshold, where
# the interval's discriminant is the perfect square (beta - (1 - alpha))^2
# but is formed by subtraction
NEAR_THRESHOLD = [(0.6, 0.6, 0.400000001), (0.6041176261592162, 0.6041176261592162, 0.3958823740713945)]


def canonical_pairs():
    """Strategy for canonical pairs as produced by relative_pair."""

    def build(alpha, fa, beta, fb, u):
        a = alpha * fa
        b = beta * fb
        theta = math.pi * u
        return RelativePair(alpha, a, beta, b * math.cos(theta), b * math.sin(theta))

    pos = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return st.builds(build, pos, unit, pos, unit, unit)


def restricted_triples(seed, n_random, n_sharp):
    """Seeded (alpha, a, beta) with a restricted interval, from random_effect_pair and near-sharp draws."""
    rng = np.random.default_rng(seed)
    from_pairs, sharp = [], []
    while len(from_pairs) < n_random:
        p, _ = relative_pair(*random_effect_pair(rng))
        if classify(p).b0 is not None:
            from_pairs.append((p.alpha, p.a, p.beta))
    while len(sharp) < n_sharp:
        alpha = 1.0 - 0.9 * rng.random() ** 2
        a = alpha * (1.0 - 0.1 * rng.random())
        beta = 1.0 - 0.9 * rng.random() ** 2
        if classify(RelativePair(alpha, a, beta, 0.0, 0.0)).b0 is not None:
            sharp.append((alpha, a, beta))
    return from_pairs + sharp


def looped_curve(alpha, a, beta, n):
    """The boundary one scalar by_max call per sample: the reference for the array path."""
    disc = (1.0 - alpha) ** 2 - beta * ((1.0 - alpha) ** 2 + 1.0 - a * a) + beta * beta
    b0 = (1.0 - alpha) * (1.0 - beta) / a
    w = math.sqrt(max(disc, 0.0)) / a
    xs = np.linspace(-beta, beta, n)
    junctions = [x for x in (b0 - w, b0 + w) if -beta < x < beta]
    if junctions:
        xs = np.unique(np.concatenate([xs, junctions]))
    tags, rs = [], []
    for x in xs.tolist():
        on_curve = abs(x - b0) < w - 1e-12
        tags.append(ARC_CURVE if on_curve else ARC_CIRCLE)
        rs.append(math.hypot(x, by_max(alpha, a, beta, x)) if on_curve else beta)
    return xs, np.array(rs), tuple(tags), b0, w


class TestClassify:
    def test_unsharp_partner_always_allowed(self):
        # beta at most the unsharpness of the first effect: the whole disk
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = math.pi * rng.random()
            b = 0.6 * rng.random()
            p = RelativePair(0.6, 0.5, 0.6, b * math.cos(theta), b * math.sin(theta))
            v = classify(p)
            if p.by == 0.0:
                assert v.regime == TRIVIAL_PARALLEL
            else:
                assert v.regime == C1
            assert v.coexistent

    def test_threshold_uses_unsharpness(self):
        assert 0.6 <= 1.0 - S_06_05
        v = classify(RelativePair(0.6, 0.5, 0.6, 0.0, 0.6))
        assert v.regime == C1
        assert v.sharpness_a == pytest.approx(S_06_05, abs=1e-12)

    def test_orthogonal_projections_not_coexistent(self):
        v = classify(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert v.regime == C3
        assert not v.coexistent

    def test_sic_marginals_coexistent(self):
        v = classify(RelativePair(1.0, SQRT3_INV, 1.0, 0.0, SQRT3_INV))
        assert v.regime == C3
        assert v.coexistent
        # two-projection criterion: by^2 <= (1 - a^2)(1 - bx^2)
        assert SQRT3_INV**2 <= (1.0 - SQRT3_INV**2) * 1.0

    def test_interval_center_and_width(self):
        v = classify(RelativePair(0.6, 0.6, 0.9, 0.0, 0.5))
        assert v.b0 == pytest.approx(1.0 / 15.0, abs=1e-12)
        assert v.w == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_parallel_short_circuit(self):
        v = classify(RelativePair(0.9, 0.9, 0.9, 0.9, 0.0))
        assert v.regime == TRIVIAL_PARALLEL
        assert v.coexistent

    def test_trivial_first_effect(self):
        v = classify(RelativePair(0.5, 0.0, 1.0, 0.8, 0.0))
        assert v.regime == TRIVIAL_PARALLEL
        assert v.coexistent

    def test_c2_outside_interval(self):
        # ||b|| = 0.873 <= beta, below the lower junction b0 - w = -23/30
        v = classify(RelativePair(0.6, 0.6, 0.9, -0.85, 0.2))
        assert v.regime == C2
        assert v.coexistent

    @pytest.mark.parametrize("bx", [1.0, 1.0 + 2.0**-52, -1.0, -1.0 - 2.0**-52])
    def test_beyond_a_tip_junction_the_height_decides(self, bx):
        # sharp projections: both junctions sit at the tips, where the circle
        # has height 0, so a bx at or past a tip by roundoff decides nothing
        v = classify(RelativePair(1.0, 1.0, 1.0, bx, 1e-8))
        assert v.regime == C3
        assert not v.coexistent
        assert v.by_max == 0.0
        assert classify(RelativePair(1.0, 1.0, 1.0, bx, 1e-13)).coexistent

    @pytest.mark.xfail(strict=True, reason="the cap's radicands are formed by subtraction and lose digits near a tip")
    def test_cap_near_a_tip(self):
        # mpmath's cap here is 1.329e-08, so by = 1.622e-08 lies 2.9e-9 above
        # it; the cap computed by subtraction reads 1.622e-08
        p = RelativePair(0.2048001708754399, 0.20480017087543992, 1.0, -0.9999999999999999, 1.622063859729121e-08)
        assert not classify(p).coexistent

    def test_interval_fields_presence(self):
        c1 = classify(RelativePair(0.6, 0.5, 0.6, 0.1, 0.3))
        assert c1.b0 is None and c1.w is None and c1.by_max is None
        c3 = classify(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert c3.b0 is not None and c3.w is not None and c3.by_max is not None
        c2 = classify(RelativePair(0.6, 0.6, 0.9, -0.85, 0.2))
        assert c2.b0 is not None and c2.w is not None and c2.by_max is None

    @settings(max_examples=300)
    @given(canonical_pairs())
    def test_total_and_consistent(self, p):
        v = classify(p)
        assert v.regime in (C1, C2, C3, TRIVIAL_PARALLEL)
        if v.regime in (C1, C2, TRIVIAL_PARALLEL):
            assert v.coexistent
        has_interval = v.b0 is not None
        assert has_interval == (
            p.beta > 1.0 - v.sharpness_a + 1e-12 and p.a > 0.0
        )


class TestIsCoexistent:
    def test_equal_effects(self):
        e = effect_from_bloch(0.7, (0.1, 0.2, 0.3))
        assert is_coexistent(e, e)

    def test_noncommuting_projections(self):
        A = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        B = effect_from_bloch(1.0, (0.0, 1.0, 0.0))
        assert not is_coexistent(A, B)

    def test_boundary_point_counts_as_coexistent(self):
        A = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        B = effect_from_bloch(1.0, (0.0, LIU_06_05, 0.0))
        assert is_coexistent(A, B)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            A, B = random_effect_pair(rng)
            assert is_coexistent(A, B) == is_coexistent(B, A)


class TestByMax:
    def test_frozen_orthogonal_full_sharpness(self):
        assert by_max(0.6, 0.5, 1.0, 0.0) == pytest.approx(LIU_06_05, abs=1e-12)

    def test_projection_pair_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = 0.999 * rng.random() + 0.001
            bx = rng.uniform(-0.999, 0.999)
            expect = math.sqrt((1.0 - a * a) * (1.0 - bx * bx))
            assert by_max(1.0, a, 1.0, bx) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha,a,beta",
        [(0.6, 0.5, 0.9), (0.6, 0.6, 0.9), (0.9, 0.4, 0.95), (0.7, 0.31, 0.99)],
    )
    def test_junction_meets_circle(self, alpha, a, beta):
        v = classify(RelativePair(alpha, a, beta, 0.0, 0.0))
        for sign in (-1.0, 1.0):
            bx = v.b0 + sign * v.w
            r = math.hypot(bx, by_max(alpha, a, beta, bx))
            assert r == pytest.approx(beta, abs=1e-9)

    def test_requires_positive_a(self):
        with pytest.raises(ValueError, match="a > 0"):
            by_max(0.6, 0.0, 0.9, 0.0)

    def test_requires_beta_above_threshold(self):
        with pytest.raises(ValueError, match="beta"):
            by_max(0.6, 0.5, 0.5, 0.0)

    def test_requires_bx_in_interval(self):
        with pytest.raises(ValueError, match="interval"):
            by_max(0.6, 0.6, 0.9, 0.95)

    @pytest.mark.parametrize(
        "args,message",
        [
            # an unreduced alpha gave 0.893, a beta above 1 an ArithmeticError
            ((1.5, 0.3, 0.9, 0.1), r"alpha must be in \(0, 1\]"),
            ((0.6, 0.5, 1.5, 0.1), r"beta must be in \(0, 1\]"),
            ((0.6, 0.7, 0.9, 0.1), r"a must be in \[0, alpha\]"),
            # a NaN gave NaN
            ((math.nan, 0.5, 0.9, 0.1), "alpha must be"),
            ((0.6, 0.5, 0.9, math.nan), "bx must be finite"),
            ((0.6, 0.5, 0.9, math.inf), "bx must be finite"),
        ],
        ids=["alpha-unreduced", "beta-above-one", "a-above-alpha", "alpha-nan", "bx-nan", "bx-inf"],
    )
    def test_rejects_parameters_outside_the_domain(self, args, message):
        with pytest.raises(ValueError, match=message):
            by_max(*args)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the interval's discriminant loses its digits near the C1 threshold"
    )
    @pytest.mark.parametrize("alpha,a,beta", NEAR_THRESHOLD)
    def test_half_width_near_the_c1_threshold(self, alpha, a, beta):
        # the reference gives 1.6667e-9 and 3.8173e-10; the subtraction gives 0 and 1.2333e-8
        _, w = _interval(alpha, a, beta)
        assert abs(w - float(reference.restricted_interval(alpha, a, beta)[1])) <= 1e-15

    @pytest.mark.xfail(
        strict=True, raises=ArithmeticError, reason="the interval's discriminant loses its digits near the C1 threshold"
    )
    def test_value_or_value_error_at_the_computed_edges(self):
        # past the true edge b0 + w the cap's radicand reads -1.38e-8
        alpha, a, beta = NEAR_THRESHOLD[1]
        b0, w = _interval(alpha, a, beta)
        for bx in (b0 - w, b0 + w):
            try:
                assert by_max(alpha, a, beta, bx) >= 0.0
            except ValueError:
                pass

    def test_negative_discriminant_raises(self):
        # beta = 0.545 lies below the C1 threshold 1 - S(0.5, 0.4), where d < 0
        with pytest.raises(ArithmeticError, match="negative discriminant"):
            _interval(0.5, 0.4, 0.545)

    def test_cap_radicand_out_of_range_names_a_float(self):
        with pytest.raises(ArithmeticError) as info:
            _root(np.array([-1e-8, 0.25]))
        assert str(info.value) == "square-root argument out of range: -1e-08"

    def test_strictly_inside_circle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            alpha = 0.2 + 0.8 * rng.random()
            a = alpha * (0.2 + 0.8 * rng.random())
            from qcoex.bloch import sharpness_scalar

            s = sharpness_scalar(alpha, a)
            beta = 1.0 - s * 0.9 * rng.random()
            v = classify(RelativePair(alpha, a, beta, 0.0, 0.0))
            u = rng.uniform(-0.98, 0.98)
            bx = v.b0 + u * v.w
            r2 = bx * bx + by_max(alpha, a, beta, bx) ** 2
            assert r2 < beta * beta


class TestBoundaryCurve:
    def test_full_disk_preset(self):
        curve = boundary_curve(0.6, 0.5, 0.6, 256)
        assert np.all(curve.r == 0.6)
        assert set(curve.regime) == {ARC_CIRCLE}
        assert curve.b0 is None and curve.w is None

    def test_restricted_interval_centered_at_zero_for_full_beta(self):
        curve = boundary_curve(0.6, 0.5, 1.0, 257)
        assert curve.b0 == 0.0
        assert curve.w == pytest.approx(1.0, abs=1e-12)
        inside = [i for i, t in enumerate(curve.regime) if t == ARC_CURVE]
        assert inside
        k = inside[np.argmin(curve.r[inside])]
        assert curve.bx[k] == pytest.approx(0.0, abs=1e-12)
        assert curve.r[k] == pytest.approx(LIU_06_05, abs=1e-12)

    def test_junctions_inserted_exactly(self):
        curve = boundary_curve(0.6, 0.6, 0.9, 256)
        assert curve.b0 == pytest.approx(1.0 / 15.0, abs=1e-12)
        assert curve.w == pytest.approx(5.0 / 6.0, abs=1e-12)
        lo = curve.b0 - curve.w
        assert lo in curve.bx
        # the upper junction coincides with bx = beta, already an endpoint
        assert curve.b0 + curve.w == pytest.approx(0.9, abs=1e-12)

    def test_circle_exact_outside_interval(self):
        curve = boundary_curve(0.6, 0.5, 0.9, 512)
        for x, r, tag in zip(curve.bx, curve.r, curve.regime):
            if tag == ARC_CIRCLE:
                assert r == 0.9
            else:
                assert curve.b0 - curve.w < x < curve.b0 + curve.w
                assert r <= 0.9 + 1e-12

    def test_junction_continuity(self):
        curve = boundary_curve(0.6, 0.5, 0.9, 512)
        # approach the junctions from inside along the restricted curve
        for sign in (-1.0, 1.0):
            bx = curve.b0 + sign * curve.w * (1.0 - 1e-9)
            r = math.hypot(bx, by_max(0.6, 0.5, 0.9, bx))
            assert r == pytest.approx(0.9, abs=1e-4)

    def test_minimum_at_interval_center(self):
        curve = boundary_curve(0.6, 0.6, 0.9, 1024)
        k = int(np.argmin(curve.r))
        spacing = 1.8 / 1023
        assert abs(curve.bx[k] - curve.b0) <= spacing + 1e-12

    @pytest.mark.parametrize(
        "args",
        [(0.0, 0.0, 0.5), (1.2, 0.5, 0.5), (0.6, 0.7, 0.5), (0.6, 0.5, 0.0), (0.6, 0.5, 1.3)],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            boundary_curve(*args, 64)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((1.2, 0.5, 0.5), "alpha must be in (0, 1], got 1.2"),
            ((0.6, 0.5, 1.3), "beta must be in (0, 1], got 1.3"),
            ((0.6, 0.7, 0.5), "a must be in [0, alpha], got a=0.7, alpha=0.6"),
        ],
    )
    def test_parameter_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            boundary_curve(*args, 64)
        assert str(info.value) == message

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            boundary_curve(0.6, 0.5, 0.9, 8)

    def test_rejects_too_many_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            boundary_curve(0.6, 0.5, 0.9, 100_001)

    @pytest.mark.parametrize("n", [20.0, 256.5, True, "256", None])
    def test_rejects_a_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match="n_samples must be between 16 and 100000"):
            boundary_curve(0.6, 0.5, 0.9, n_samples=n)

    @pytest.mark.parametrize("n,per_source", [(16, 100), (256, 50), (100_000, 1)])
    def test_array_path_matches_scalar_loop(self, n, per_source):
        junction_curves = 0
        for alpha, a, beta in restricted_triples(n, per_source, per_source):
            curve = boundary_curve(alpha, a, beta, n)
            xs, rs, tags, b0, w = looped_curve(alpha, a, beta, n)
            assert np.array_equal(curve.bx, xs)
            assert curve.regime == tags
            assert (curve.b0, curve.w) == (b0, w)
            curve_r = np.array([t == ARC_CURVE for t in tags])
            assert np.all(curve.r[~curve_r] == beta)
            # numpy's square and hypot may round differently from math's
            assert np.all(np.abs(curve.r[curve_r] - rs[curve_r]) <= 1e-15 * rs[curve_r])
            junction_curves += xs.size > n
        assert junction_curves > 0

    def test_compares_by_identity(self):
        # its fields are arrays, whose == is elementwise
        curve = boundary_curve(0.6, 0.5, 0.9, n_samples=16)
        assert curve == curve
        assert curve != boundary_curve(0.6, 0.5, 0.9, n_samples=16)

    def test_curve_needs_no_scalar_by_max(self, monkeypatch):
        def no_scalar_cap(*args):
            raise AssertionError("by_max called for a boundary sample")

        monkeypatch.setattr("qcoex.coexist.by_max", no_scalar_cap)
        curve = boundary_curve(0.6, 0.5, 0.9, 256)
        assert curve.regime.count(ARC_CURVE) > 100
        assert classify(RelativePair(0.6, 0.5, 0.9, 0.1, 0.3)).regime == C3


class TestSpecialCases:
    def test_orthogonal_projections(self):
        v = special_case_verdict(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert v.which == "busch" and not v.coexistent

    def test_sic_marginals(self):
        v = special_case_verdict(RelativePair(1.0, SQRT3_INV, 1.0, 0.0, SQRT3_INV))
        assert v.which == "busch" and v.coexistent

    def test_parallel_projection_multiples(self):
        v = special_case_verdict(RelativePair(0.9, 0.9, 0.9, 0.9, 0.0))
        assert v.which == "molnar" and v.coexistent

    def test_orthogonal_full_sharpness_both_sides(self):
        below = special_case_verdict(RelativePair(0.6, 0.5, 1.0, 0.0, LIU_06_05 - 1e-6))
        above = special_case_verdict(RelativePair(0.6, 0.5, 1.0, 0.0, LIU_06_05 + 1e-6))
        assert below.which == "liu" and below.coexistent
        assert above.which == "liu" and not above.coexistent

    def test_margin_is_distance_from_deciding_comparison(self):
        for by in (LIU_06_05 - 1e-6, LIU_06_05 + 1e-6):
            v = special_case_verdict(RelativePair(0.6, 0.5, 1.0, 0.0, by))
            assert v.margin == pytest.approx(1e-6, rel=1e-6)
        v = special_case_verdict(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert v.margin == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-15)

    def test_none_off_domain(self):
        assert special_case_verdict(RelativePair(0.6, 0.5, 0.9, 0.1, 0.2)) is None

    @pytest.mark.parametrize("domain", ["busch", "liu", "molnar"])
    def test_agreement_with_classification(self, domain):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(2000):
            if domain == "busch":
                b = rng.random()
                theta = math.pi * rng.random()
                p = RelativePair(1.0, rng.random(), 1.0, b * math.cos(theta), b * math.sin(theta))
            elif domain == "liu":
                alpha = 1.0 - rng.random()
                p = RelativePair(alpha, alpha * rng.random(), 1.0, 0.0, rng.random())
            else:
                alpha = 1.0 - rng.random()
                beta = 1.0 - rng.random()
                theta = math.pi * rng.random()
                p = RelativePair(alpha, alpha, beta, beta * math.cos(theta), beta * math.sin(theta))
            v = special_case_verdict(p)
            assert v is not None and v.which == domain
            checked += 1
            assert v.coexistent == classify(p).coexistent
        assert checked == 2000
