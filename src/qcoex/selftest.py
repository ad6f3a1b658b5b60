"""Seeded verification suites shared by the CLI self-test and the test suite."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bloch import BlochEffect, RelativePair, _add_square, complement, relative_pair
from .coexist import classify, is_coexistent, special_case_verdict
from .oracle import oracle_scan
from .tolerance import BOUNDARY_BAND, SPECIAL_CASE_BAND

__all__ = [
    "SuiteResult",
    "random_effect",
    "random_effect_pair",
    "run_all",
    "suite_complement_invariance",
    "suite_convex_combination",
    "suite_oracle_agreement",
    "suite_rotation_invariance",
    "suite_scaling",
    "suite_special_cases",
]

# The closure suites try each draw at N_LAMBDAS evenly spaced weights and
# stop after MAX_DRAWS_FACTOR * n draws.
N_LAMBDAS = 10
MAX_DRAWS_FACTOR = 60


class SuiteResult(NamedTuple):
    """One verification suite: instances checked, skipped, and violations.

    ``worst`` is the smallest absolute decision margin among compared
    instances (infinity when the suite has no margin notion).
    """

    name: str
    checked: int
    violations: int
    skipped: int = 0
    worst: float = math.inf

    @property
    def passed(self) -> bool:
        return self.violations == 0


def random_effect(rng: np.random.Generator) -> BlochEffect:
    """Random valid effect: alpha uniform on (0, 1], Bloch length uniform on [0, alpha).

    The direction is a Gaussian vector over its length, with the squares
    added on floats by ``_add_square``, so a seed gives the same draws on
    every host, whichever BLAS kernel numpy runs.
    """
    alpha = 1.0 - rng.random()
    a = alpha * rng.random()
    x, y, z = rng.normal(size=3).tolist()
    n = math.sqrt(_add_square(z, _add_square(y, x * x)))
    return BlochEffect(alpha, (a * (x / n), a * (y / n), a * (z / n)))


def random_effect_pair(rng: np.random.Generator) -> tuple[BlochEffect, BlochEffect]:
    """Two independent random effects; reproducible from the generator state."""
    return random_effect(rng), random_effect(rng)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Proper rotation matrix, uniform via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _rotated(rot: list, v: tuple[float, float, float]) -> list[float]:
    """The rotation's rows, as lists of floats, times v, on floats."""
    x, y, z = v
    return [r0 * x + r1 * y + r2 * z for r0, r1, r2 in rot]


def suite_complement_invariance(n: int, seed: int) -> SuiteResult:
    """Verdict is unchanged under complementing either or both effects."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n):
        A, B = random_effect_pair(rng)
        base = is_coexistent(A, B)
        variants = (
            is_coexistent(complement(A), B),
            is_coexistent(A, complement(B)),
            is_coexistent(complement(A), complement(B)),
        )
        if any(v != base for v in variants):
            violations += 1
    return SuiteResult("complement-invariance", n, violations)


def suite_rotation_invariance(n: int, seed: int) -> SuiteResult:
    """Verdict is unchanged under a simultaneous rotation of both Bloch vectors."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n):
        A, B = random_effect_pair(rng)
        rot = random_rotation(rng).tolist()
        A2 = BlochEffect(A.alpha, _rotated(rot, A.avec))
        B2 = BlochEffect(B.alpha, _rotated(rot, B.avec))
        if is_coexistent(A, B) != is_coexistent(A2, B2):
            violations += 1
    return SuiteResult("rotation-invariance", n, violations)


def _closure_suite(name: str, n: int, seed: int, n_effects: int, member) -> SuiteResult:
    """A coexistent with each of its partners is coexistent with ``member(*partners, lam)``.

    Draws A and ``n_effects - 1`` partners, skipping draws where A misses a
    partner, until n are checked or ``MAX_DRAWS_FACTOR * n`` are drawn.
    """
    rng = np.random.default_rng(seed)
    lambdas = np.linspace(0.0, 1.0, N_LAMBDAS).tolist()
    checked = 0
    skipped = 0
    violations = 0
    draws = 0
    while checked < n and draws < MAX_DRAWS_FACTOR * n:
        draws += 1
        A, *partners = [random_effect(rng) for _ in range(n_effects)]
        if not all(is_coexistent(A, X) for X in partners):
            skipped += 1
            continue
        checked += 1
        if not all(is_coexistent(A, member(*partners, lam)) for lam in lambdas):
            violations += 1
    return SuiteResult(name, checked, violations, skipped)


def _mixture(B: BlochEffect, C: BlochEffect, lam: float) -> BlochEffect:
    mixed = [lam * x + (1.0 - lam) * y for x, y in zip(B.avec, C.avec)]
    return BlochEffect(lam * B.alpha + (1.0 - lam) * C.alpha, mixed)


def _downscaling(B: BlochEffect, lam: float) -> BlochEffect:
    return BlochEffect(lam * B.alpha, [lam * x for x in B.avec])


def suite_convex_combination(n: int, seed: int) -> SuiteResult:
    """A coexistent with B and C implies A coexistent with every mixture of B, C."""
    return _closure_suite("convex-combination", n, seed, 3, _mixture)


def suite_scaling(n: int, seed: int) -> SuiteResult:
    """A coexistent with B implies A coexistent with every downscaling of B."""
    return _closure_suite("scaling", n, seed, 2, _downscaling)


def _busch_pair(rng: np.random.Generator) -> RelativePair:
    a = rng.random()
    b = rng.random()
    cos = rng.uniform(-1.0, 1.0)
    return RelativePair(1.0, a, 1.0, b * cos, b * math.sqrt(max(1.0 - cos * cos, 0.0)))


def _liu_pair(rng: np.random.Generator) -> RelativePair:
    alpha = 1.0 - rng.random()
    a = alpha * rng.random()
    return RelativePair(alpha, a, 1.0, 0.0, rng.random())


def _molnar_pair(rng: np.random.Generator) -> RelativePair:
    alpha = 1.0 - rng.random()
    beta = 1.0 - rng.random()
    cos = rng.uniform(-1.0, 1.0)
    return RelativePair(
        alpha, alpha, beta, beta * cos, beta * math.sqrt(max(1.0 - cos * cos, 0.0))
    )


def suite_special_cases(n: int, seed: int) -> SuiteResult:
    """Closed-form special-domain checkers agree with the general classification.

    Draws n pairs per domain; instances within ``SPECIAL_CASE_BAND`` of a
    closed-form decision boundary are skipped (floating-point shimmer, not
    disagreement).
    """
    rng = np.random.default_rng(seed)
    checked = 0
    skipped = 0
    violations = 0
    worst = math.inf
    for make in (_busch_pair, _liu_pair, _molnar_pair):
        for _ in range(n):
            pair = make(rng)
            special = special_case_verdict(pair)
            assert special is not None
            if special.margin < SPECIAL_CASE_BAND:
                skipped += 1
                continue
            checked += 1
            worst = min(worst, special.margin)
            if classify(pair).coexistent != special.coexistent:
                violations += 1
    return SuiteResult("special-cases", checked, violations, skipped, worst)


def suite_oracle_agreement(n: int, seed: int) -> SuiteResult:
    """Brute-force oracle agrees with the classification outside the margin band.

    Pairs whose oracle margin is within ``BOUNDARY_BAND`` of zero are skipped.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    rng = np.random.default_rng(seed)
    checked = 0
    skipped = 0
    violations = 0
    worst = math.inf
    for _ in range(n):
        A, B = random_effect_pair(rng)
        pair, _ = relative_pair(A, B)
        result = oracle_scan(pair)
        if abs(result.margin) < BOUNDARY_BAND:
            skipped += 1
            continue
        checked += 1
        worst = min(worst, abs(result.margin))
        if result.coexistent != classify(pair).coexistent:
            violations += 1
    return SuiteResult("oracle-agreement", checked, violations, skipped, worst)


def run_all(n: int, seed: int) -> list[SuiteResult]:
    """All suites with per-suite seeds derived deterministically from ``seed``."""
    return [
        suite_complement_invariance(n, seed),
        suite_rotation_invariance(n, seed + 1),
        suite_convex_combination(n, seed + 2),
        suite_scaling(n, seed + 3),
        suite_special_cases(n, seed + 4),
        suite_oracle_agreement(max(50, n // 10), seed + 5),
    ]
