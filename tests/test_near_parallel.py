"""Near-parallel pairs, where reduced quantities lose their digits.

Verdicts are judged by the Busch-Schmidt / Yu-Liu-Li-Oh closed form of
``perfbench/reference.py`` outside its 1e-9 band, and every pair decided
coexistent must get its witness from the closed form, with the oracle
refusing to run.
"""

import math

import numpy as np
import pytest
import reference as ref

from qcoex.bloch import BlochEffect, complement, effect_from_bloch
from qcoex.coexist import is_coexistent
from qcoex.selftest import random_rotation
from qcoex.witness import find_witness, operator_inequalities_hold

MARGIN_BAND = 1e-9
ANGLES = tuple(10.0**-k for k in range(1, 17))


def check_variants(A, B) -> int:
    """Check the pair, its swap and both single complements; count the coexistent.

    The four share one closed-form margin, so outside its band they share
    the verdict it gives.  Each one decided coexistent must get a witness.
    """
    margin = ref.coexistence_margin(A.alpha, A.avec, B.alpha, B.avec)
    found = 0
    for X, Y in ((A, B), (B, A), (complement(A), B), (A, complement(B))):
        coexistent = is_coexistent(X, Y)
        if abs(margin) >= MARGIN_BAND:
            assert coexistent == (margin >= 0), (X, Y, float(margin))
        if coexistent:
            wt = find_witness(X, Y)
            assert wt is not None
            assert operator_inequalities_hold(X, Y, wt).holds
            found += 1
    return found


def turned_pair(alpha, a, beta, b, theta, rot):
    """(alpha, a u) and (beta, b v) with v the unit vector u turned by theta, rotated by rot."""
    u = rot @ np.array([1.0, 0.0, 0.0])
    v = rot @ np.array([math.cos(theta), math.sin(theta), 0.0])
    return effect_from_bloch(alpha, a * u), effect_from_bloch(beta, b * v)


def test_turned_sharp_projection(no_oracle):
    # {"alpha": 1, "a": [1, 0, 0]} against itself turned by theta: the pair
    # does not commute, so it is not coexistent for any theta above roundoff
    rng = np.random.default_rng(2030)
    coexistent = []
    for theta in ANGLES:
        for _ in range(200):
            A, B = turned_pair(1.0, 1.0, 1.0, 1.0, theta, random_rotation(rng))
            coexistent.append(check_variants(A, B))
            assert not (coexistent[-1] and theta >= 1e-11), (theta, A, B)
    assert (4 * len(coexistent), sum(coexistent)) == (12_800, 3704)


def test_near_parallel_at_full_length(no_oracle):
    # a and b at or within a few ulps of alpha and beta, sharp and unsharp,
    # at angles from 1e-16 to 1e-1 rad
    rng = np.random.default_rng(2031)
    coexistent = []
    for _ in range(1000):
        alpha = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.0))
        beta = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.0))
        a = alpha - int(rng.integers(0, 4)) * math.ulp(alpha)
        b = beta - int(rng.integers(0, 4)) * math.ulp(beta)
        theta = ANGLES[int(rng.integers(0, len(ANGLES)))]
        A, B = turned_pair(alpha, a, beta, b, theta, random_rotation(rng))
        coexistent.append(check_variants(A, B))
    # 13 variants of 7 pairs (indices 5, 52, 103, 499, 740, 756, 776) have a
    # reference margin within 2e-16 of 0, inside the band, and are decided
    # by the last bits of the vector lengths
    assert (4 * len(coexistent), sum(coexistent)) == (4000, 2499)


@pytest.mark.xfail(
    strict=True,
    reason="relative_pair(X, Y) reads the sharp Y as unsharp (bx = 0.9999999999999999): the verdict depends on order",
)
def test_swapped_full_length_pair_keeps_its_verdict(no_oracle):
    # Y is sharp (|y|^2 = 1 + 4.9e-18 exactly) and about 1e-8 rad from X;
    # the reference margin is -2.32e-9, outside the 1e-9 band, so neither
    # order is coexistent, but is_coexistent(X, Y) is True
    X = BlochEffect(0.23186827894081674, (-0.11327707399359445, 0.11240084343033115, 0.16821787563328786))
    Y = BlochEffect(1.0, (-0.48854061871877535, 0.4847616313635831, 0.7254889555462535))
    assert is_coexistent(X, Y) == is_coexistent(Y, X)
