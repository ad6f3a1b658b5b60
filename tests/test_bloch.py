"""Effect parametrization, matrix conversion, sharpness, pair reduction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoex.bloch import (
    BlochEffect,
    InvalidEffectError,
    complement,
    effect_from_bloch,
    effect_from_matrix,
    effect_to_matrix,
    relative_pair,
    sharpness,
    sharpness_scalar,
)

# Independently computed with 40-digit arithmetic from the defining formula.
S_06_05 = 0.3281475155779856


def valid_effects():
    """Strategy for valid effects covering the whole parameter range."""

    def build(alpha, frac, u, v):
        a = frac * min(alpha, 2.0 - alpha)
        theta = math.acos(2.0 * u - 1.0)
        phi = 2.0 * math.pi * v
        vec = (
            a * math.sin(theta) * math.cos(phi),
            a * math.sin(theta) * math.sin(phi),
            a * math.cos(theta),
        )
        return BlochEffect(alpha, vec)

    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    alpha = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
    return st.builds(build, alpha, unit, unit, unit)


def assert_float_triple(vec):
    """A stored Bloch vector: a tuple of exactly three Python floats."""
    assert type(vec) is tuple
    assert len(vec) == 3
    assert all(type(x) is float for x in vec)


class TestEffectFromBloch:
    def test_projection_is_valid(self):
        e = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        assert e.alpha == 1.0
        assert e.a == pytest.approx(1.0, abs=0)

    def test_figure_effect_is_valid(self):
        e = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        assert e.a == 0.5

    def test_alpha_below_norm_rejected(self):
        with pytest.raises(InvalidEffectError, match="lower bound"):
            effect_from_bloch(0.3, (0.5, 0.0, 0.0))

    def test_alpha_above_two_minus_norm_rejected(self):
        with pytest.raises(InvalidEffectError, match="upper bound"):
            effect_from_bloch(1.8, (0.5, 0.0, 0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidEffectError):
            effect_from_bloch(math.nan, (0.0, 0.0, 0.0))

    @given(valid_effects())
    def test_generated_effects_accepted(self, e):
        effect_from_bloch(e.alpha, e.avec)

    @pytest.mark.parametrize(
        "alpha,avec,field",
        [
            (0.5, [0.1, 0.2], "avec"),
            (0.5, None, "avec"),
            (0.5, ["x", 0, 0], "avec"),
            (0.5, [[0.1, 0.2, 0.3]], "avec"),
            (0.5, np.array([[0.1, 0.2, 0.3]]), "avec"),
            (0.5, [True, 0.0, 0.0], "avec"),
            (None, [0.1, 0.2, 0.3], "alpha"),
            ("0.5", [0.1, 0.2, 0.3], "alpha"),
        ],
        ids=["short", "none", "string-entry", "nested", "2-d-array", "bool-entry", "alpha-none", "alpha-string"],
    )
    def test_malformed_input_names_its_field(self, alpha, avec, field):
        with pytest.raises(InvalidEffectError, match=f"field '{field}'"):
            effect_from_bloch(alpha, avec)

    @pytest.mark.parametrize(
        "avec",
        [[0.1, 0.2, 0.3], (0.1, 0.2, 0.3), np.array([0.1, 0.2, 0.3]), (0, 0, 1), np.array([0.1, 0.2, 0.3], np.float32)],
        ids=["list", "tuple", "array", "ints", "float32-array"],
    )
    def test_real_vectors_accepted(self, avec):
        e = effect_from_bloch(1.0, avec)
        assert list(e.avec) == [float(x) for x in avec]
        assert type(e.alpha) is float
        assert_float_triple(e.avec)
        assert_float_triple(complement(e).avec)

    def test_rotated_array_stored_as_floats(self):
        rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        e = BlochEffect(np.float64(0.7), rot @ np.asarray((0.2, 0.3, 0.1)))
        assert type(e.alpha) is float
        assert_float_triple(e.avec)

    def test_number_too_large_for_a_float_rejected(self):
        with pytest.raises(InvalidEffectError, match="finite"):
            effect_from_bloch(10**400, (0.0, 0.0, 0.0))


class TestMatrixConversion:
    def test_projection_matrix(self):
        m = effect_to_matrix(effect_from_bloch(1.0, (0.0, 0.0, 1.0)))
        assert np.allclose(m, np.diag([1.0, 0.0]), atol=1e-15)

    def test_identity_maps_to_alpha_two(self):
        e = effect_from_matrix(np.eye(2))
        assert e.alpha == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(e.avec, 0.0, atol=1e-14)

    def test_pauli_expansion_entries(self):
        m = effect_to_matrix(effect_from_bloch(0.6, (0.5, 0.0, 0.0)))
        assert np.allclose(m, [[0.3, 0.25], [0.25, 0.3]], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha = 2.0 * rng.random()
            a = min(alpha, 2.0 - alpha) * rng.random()
            v = rng.normal(size=3)
            v *= a / np.linalg.norm(v)
            e = BlochEffect(alpha, v)
            back = effect_from_matrix(effect_to_matrix(e))
            assert abs(back.alpha - e.alpha) < 1e-12
            assert np.abs(np.asarray(back.avec) - np.asarray(e.avec)).max() < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidEffectError, match="Hermitian"):
            effect_from_matrix(np.array([[0.5, 0.2], [0.1, 0.5]]))

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(InvalidEffectError, match="above 1"):
            effect_from_matrix(np.diag([1.5, 0.0]))

    def test_eigenvalue_below_zero_rejected(self):
        with pytest.raises(InvalidEffectError, match="below 0"):
            effect_from_matrix(np.diag([0.5, -0.2]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidEffectError):
            effect_from_matrix(np.eye(3))

    def test_non_finite_entry_rejected(self):
        with pytest.raises(InvalidEffectError, match="finite"):
            effect_from_matrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_string_entries_rejected(self):
        with pytest.raises(InvalidEffectError, match="entries must be numbers"):
            effect_from_matrix([["a", "b"], ["c", "d"]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InvalidEffectError, match="equal lengths"):
            effect_from_matrix([[0.5, 0.0], [0.0]])

    def test_nested_lists_of_numbers_accepted(self):
        e = effect_from_matrix([[0.3 + 0j, 0.25], [0.25, 0.3]])
        assert e.alpha == pytest.approx(0.6, abs=1e-15)
        assert list(e.avec) == pytest.approx([0.5, 0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize(
        "eigenvalues,direction,alpha,a",
        [
            ((-5e-11, 0.5), (0.6, 0.0, -0.8), 0.5, 0.5),
            ((0.3, 1.00000000009), (0.0, 0.0, 1.0), 1.3, 0.7),
            ((-9e-11, 1.0), (0.0, -1.0, 0.0), 1.0, 1.0),
            ((-5e-11, -5e-11), (1.0, 0.0, 0.0), 0.0, 0.0),
        ],
    )
    def test_admitted_eigenvalues_are_projected_into_the_unit_interval(self, eigenvalues, direction, alpha, a):
        # eigenvalues within MATRIX_TOL of [0, 1] give a Pauli expansion past
        # ||avec|| <= alpha <= 2 - ||avec|| by more than DOMAIN_TOL
        lo, hi = eigenvalues
        m = effect_to_matrix(BlochEffect(lo + hi, [(hi - lo) * x for x in direction]))
        e = effect_from_matrix(m)
        assert (e.alpha, e.a) == pytest.approx((alpha, a), abs=1e-15)
        if a > 0.0:
            assert [x / e.a for x in e.avec] == pytest.approx(direction, abs=1e-15)
        assert effect_from_bloch(e.alpha, e.avec) == e
        assert 0.0 <= sharpness(e) <= 1.0

    def test_expansion_within_the_bloch_bound_is_kept_as_it_is(self):
        # 8e-13 past ||avec|| <= alpha, inside DOMAIN_TOL
        e = effect_from_matrix(np.diag([-4e-13, 0.5]))
        assert e == BlochEffect(0.5 - 4e-13, (0.0, 0.0, -4e-13 - 0.5))


class TestValueEquality:
    def test_equal_values_are_equal_and_hash_alike(self):
        listed = BlochEffect(0.6, [0.5, 0.0, 0.1])
        arrayed = BlochEffect(np.float64(0.6), np.array([0.5, 0.0, 0.1]))
        assert listed == arrayed
        assert hash(listed) == hash(arrayed)
        assert listed != BlochEffect(0.6, [0.5, 0.0, -0.1])

    def test_equal_values_make_one_set_member(self):
        effects = {effect_from_bloch(0.6, (0.5, 0.0, 0.0)), effect_from_bloch(0.6, [0.5, 0.0, 0.0])}
        assert len(effects) == 1


class TestComplement:
    def test_projection(self):
        c = complement(effect_from_bloch(1.0, (0.0, 0.0, 1.0)))
        assert c.alpha == 1.0
        assert np.allclose(c.avec, (0.0, 0.0, -1.0))

    def test_figure_effect(self):
        c = complement(effect_from_bloch(0.6, (0.5, 0.0, 0.0)))
        assert c.alpha == pytest.approx(1.4, abs=0)
        assert np.allclose(c.avec, (-0.5, 0.0, 0.0))

    @given(valid_effects())
    def test_involution(self, e):
        back = complement(complement(e))
        assert abs(back.alpha - e.alpha) < 1e-15
        assert np.array_equal(back.avec, e.avec)


class TestSharpness:
    def test_projection_is_one(self):
        assert sharpness(effect_from_bloch(1.0, (1.0, 0.0, 0.0))) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 1.5, 2.0])
    def test_trivial_is_zero(self, alpha):
        assert sharpness(BlochEffect(alpha, (0.0, 0.0, 0.0))) == 0.0

    def test_frozen_value(self):
        assert sharpness_scalar(0.6, 0.5) == pytest.approx(S_06_05, abs=1e-12)

    def test_radicand_out_of_range_raises(self):
        # a > alpha by 0.1: the product of differences of squares is -0.2079
        with pytest.raises(InvalidEffectError, match="sharpness arguments out of range"):
            sharpness_scalar(0.5, 0.6)

    @pytest.mark.parametrize(
        "alpha,a", [(1.0 + 2.0**-52, 1.0 + 2.0**-52), (0.9999999999999984, 1.0000000000000084)]
    )
    def test_just_above_one_is_clamped_to_one(self, alpha, a):
        # the formula gives 1.0000000000000002 here, within DOMAIN_TOL above 1
        assert sharpness_scalar(alpha, a) == 1.0

    def test_matches_discriminant_root(self):
        # 1 - S equals the larger root of the quadratic (in beta) under the
        # square root of the interval half-width, an independent evaluation path
        rng = np.random.default_rng(5)
        for _ in range(300):
            alpha = 1.0 - rng.random()
            a = alpha * rng.random()
            u = (1.0 - alpha) ** 2
            v = 1.0 - a * a
            root = 0.5 * ((u + v) + math.sqrt((u + v) ** 2 - 4.0 * u))
            assert sharpness_scalar(alpha, a) == pytest.approx(1.0 - root, abs=1e-12)

    @given(valid_effects())
    def test_complement_invariant(self, e):
        # 2 - alpha is exact for alpha >= 1, so starting from that member of
        # the pair compares an effect with its exact complement
        upper = e if e.alpha >= 1.0 else complement(e)
        assert abs(sharpness(complement(upper)) - sharpness(upper)) < 1e-12

    def test_rotation_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            alpha = 2.0 * rng.random()
            a = min(alpha, 2.0 - alpha) * rng.random()
            v = rng.normal(size=3)
            v *= a / np.linalg.norm(v)
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            e = BlochEffect(alpha, v)
            rotated = BlochEffect(alpha, q @ v)
            assert abs(sharpness(rotated) - sharpness(e)) < 1e-12

    def test_alpha_is_upper_bound_with_equality_at_full_length(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            alpha = 1.0 - rng.random()
            a = alpha * rng.random()
            assert sharpness_scalar(alpha, a) <= alpha + 1e-12
            assert sharpness_scalar(alpha, alpha) == pytest.approx(alpha, abs=1e-12)


class TestRelativePair:
    def test_orthogonal_projections(self):
        A = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        B = effect_from_bloch(1.0, (0.0, 1.0, 0.0))
        p, rep = relative_pair(A, B)
        assert (p.alpha, p.a, p.beta, p.bx, p.by) == (1.0, 1.0, 1.0, 0.0, 1.0)
        assert not rep.complemented_a and not rep.complemented_b

    def test_complement_reduction_gives_same_pair(self):
        B = effect_from_bloch(0.9, (0.3, 0.2, 0.0))
        p1, rep1 = relative_pair(effect_from_bloch(1.4, (-0.5, 0.0, 0.0)), B)
        p2, rep2 = relative_pair(effect_from_bloch(0.6, (0.5, 0.0, 0.0)), B)
        assert rep1.complemented_a and not rep2.complemented_a
        for x, y in zip(
            (p1.alpha, p1.a, p1.beta, p1.bx, p1.by),
            (p2.alpha, p2.a, p2.beta, p2.bx, p2.by),
        ):
            assert x == pytest.approx(y, abs=1e-12)

    def test_projection_rejection_arithmetic(self):
        A = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        B = effect_from_bloch(0.9, (0.1, 0.2, 0.2))
        p, _ = relative_pair(A, B)
        assert p.alpha == 0.6
        assert p.a == 0.5
        assert p.beta == 0.9
        assert p.bx == pytest.approx(0.1, abs=1e-15)
        assert p.by == pytest.approx(math.sqrt(0.08), abs=1e-15)

    def test_trivial_first_effect_convention(self):
        A = BlochEffect(0.5, (0.0, 0.0, 0.0))
        B = effect_from_bloch(0.9, (0.1, 0.2, 0.2))
        p, _ = relative_pair(A, B)
        assert p.a == 0.0
        assert p.bx == pytest.approx(B.a, abs=1e-15)
        assert p.by == 0.0

    def test_simultaneous_rotation_invariance(self):
        rng = np.random.default_rng(8)
        A = effect_from_bloch(0.7, (0.2, 0.3, 0.1))
        B = effect_from_bloch(0.9, (0.1, -0.4, 0.2))
        p0, _ = relative_pair(A, B)
        for _ in range(50):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            p1, _ = relative_pair(
                BlochEffect(A.alpha, q @ A.avec), BlochEffect(B.alpha, q @ B.avec)
            )
            assert p1.bx == pytest.approx(p0.bx, abs=1e-9)
            assert p1.by == pytest.approx(p0.by, abs=1e-9)

    @settings(max_examples=200)
    @given(valid_effects(), valid_effects())
    def test_complement_is_an_exact_sign_flip(self, A, B):
        # an effect with alpha > 1 reduces to the pair of its complement, bit
        # for bit: for the first effect, for the second and for both
        def fields(X, Y):
            p, _ = relative_pair(X, Y)
            return (p.alpha, p.a, p.beta, p.bx, p.by)

        low_a = complement(A) if A.alpha > 1.0 else A
        low_b = complement(B) if B.alpha > 1.0 else B
        expected = fields(low_a, low_b)
        assert fields(A, low_b) == expected
        assert fields(low_a, B) == expected
        assert fields(A, B) == expected
        # one length formula for effects and pairs
        assert expected[1] == A.a

    @settings(max_examples=200)
    @given(valid_effects(), valid_effects())
    # a subnormal first vector, whose products with the second lose digits
    @example(BlochEffect(1.0, (0.0, 0.0, -5e-324)), BlochEffect(0.75, (9.18485099e-17, 0.0, -0.75)))
    def test_reduction_invariants(self, A, B):
        p, _ = relative_pair(A, B)
        assert 0.0 <= p.alpha <= 1.0
        assert 0.0 <= p.beta <= 1.0
        assert p.by >= 0.0
        assert p.bx * p.bx + p.by * p.by <= p.beta * p.beta + 1e-9
        assert (p.a == 0.0) == (A.a == 0.0)
