"""Disk-system geometry, exact feasibility, gamma scans, the closed-form optimum, agreement sweeps."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcoex
import reference
import workloads
from qcoex.bloch import BlochEffect, RelativePair, effect_from_bloch, relative_pair
from qcoex.coexist import by_max, classify
from qcoex.oracle import (
    GRID_STEPS,
    _CELLS,
    _centers,
    _geometry,
    _minimax,
    _Profile,
    _proves_coexistence,
    _radii,
    _Search,
    _secant_bound,
    _step,
    _STEPS,
    _warm_start,
    disks_feasible,
    oracle_coexistent,
    oracle_scan,
)
from qcoex.optimum import closed_form_optimum, violation_at
from qcoex.selftest import random_effect, random_effect_pair, suite_oracle_agreement
from qcoex.tolerance import BOUNDARY_TOL, CONVEXITY_TOL, DEGENERATE_TOL, ENDPOINT_TOL, MINIMUM_TOL
from qcoex.witness import gamma_interval_2ci

SQRT3_INV = 1.0 / math.sqrt(3.0)


def max_violation(centers: np.ndarray, radii: np.ndarray, point) -> float:
    """Largest membership violation of the point over the disks (<= 0 inside)."""
    x, y = point
    return max(math.hypot(x - cx, y - cy) - r for (cx, cy), r in zip(centers.tolist(), radii.tolist()))


class TestDisksAt:
    """The four disks of a pair at one gamma: _centers and _radii."""

    def test_zero_gamma_degenerates_first_disk(self):
        assert _radii(RelativePair(0.6, 0.5, 0.9, 0.1, 0.2), 0.0)[0] == 0.0

    def test_gamma_at_cap_degenerates_a_shrinking_disk(self):
        p = RelativePair(0.6, 0.5, 0.9, 0.1, 0.2)
        radii = _radii(p, min(p.alpha, p.beta))
        assert min(radii[1], radii[2]) == 0.0

    def test_unit_square_case(self):
        p = RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)
        assert np.allclose(_radii(p, 0.5), 0.5)
        assert np.allclose(_centers(p), [[0, 0], [1, 0], [0, 1], [1, 1]])

    def test_monotone_radius_structure(self):
        p = RelativePair(0.7, 0.4, 0.8, 0.1, 0.3)
        lo = _radii(p, 0.1)
        hi = _radii(p, 0.3)
        # disks tied to the first outcome and its complement grow with gamma
        assert hi[0] > lo[0]
        assert hi[3] > lo[3]
        # disks bounding by the two marginals shrink
        assert hi[1] < lo[1]
        assert hi[2] < lo[2]


def two_disks(c0, r0: float, c1, r1: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of a four-disk system with each of the two disks given twice."""
    return np.array([c0, c0, c1, c1], dtype=float), np.array([r0, r0, r1, r1], dtype=float)


def feasible_point(centers: np.ndarray, radii: np.ndarray) -> tuple[float, float] | None:
    """The kernel's minimax point of one disk system when it is feasible, else None."""
    (value,), (point,) = _minimax(_geometry(centers), radii[:, None])
    return tuple(point.tolist()) if value <= BOUNDARY_TOL else None


class TestTwoDiskMinimax:
    def test_two_crossings(self):
        d = two_disks((0.0, 0.0), 1.0, (1.0, 0.0), 1.0)
        pt = feasible_point(*d)
        # the deepest point of the lens lies midway between the centers
        assert pt == pytest.approx((0.5, 0.0), abs=1e-12)
        assert max_violation(*d, pt) == pytest.approx(-0.5, abs=1e-12)

    def test_external_tangency_single_point(self):
        pt = feasible_point(*two_disks((0.0, 0.0), 1.0, (2.0, 0.0), 1.0))
        assert pt == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_internal_tangency_single_point(self):
        # the small disk touches the large one from inside, so it is the
        # common part and its center is the deepest common point
        d = two_disks((0.0, 0.0), 2.0, (1.0, 0.0), 1.0)
        pt = feasible_point(*d)
        assert pt == pytest.approx((1.0, 0.0), abs=1e-12)
        assert max_violation(*d, pt) == pytest.approx(-1.0, abs=1e-12)

    def test_disjoint_and_nested(self):
        assert feasible_point(*two_disks((0.0, 0.0), 1.0, (5.0, 0.0), 1.0)) is None
        nested = two_disks((0.0, 0.0), 3.0, (0.5, 0.0), 1.0)
        assert max_violation(*nested, feasible_point(*nested)) <= BOUNDARY_TOL

    def test_concentric(self):
        d = two_disks((0.0, 0.0), 1.0, (0.0, 0.0), 1.0)
        assert max_violation(*d, feasible_point(*d)) <= BOUNDARY_TOL


def rounded_disk_systems(rng, parallelogram: bool, n_centers: int, n_radii: int):
    """Seeded (centers, radii) draws; coordinates and radii on a 0.1 lattice.

    The lattice makes tangent, coincident and concentric circles and
    collinear centers common, and the radii include negative ones.
    """
    for _ in range(n_centers):
        if parallelogram:
            a, bx, by = np.round(rng.uniform(-1.0, 1.0, 3), 1)
            centers = np.array([[0.0, 0.0], [a, 0.0], [bx, by], [a + bx, by]])
        else:
            centers = np.round(rng.uniform(-1.0, 1.0, (4, 2)), 1)
        yield centers, np.round(rng.uniform(-0.3, 1.5, (4, n_radii)), 1)


def pair_systems(pairs, m: int):
    """(centers, radii) of each canonical pair over m gammas spanning [0, gmax]."""
    for p in pairs:
        gmax = min(p.alpha, p.beta)
        yield _centers(p), _radii(p, np.linspace(0.0, gmax, m) if gmax > 0.0 else np.array([0.0]))


# sharp projections turned by 1e-1 to 1e-10 rad: nearly coincident centers
NEAR_PARALLEL = [RelativePair(1.0, 1.0, 1.0, math.cos(t), math.sin(t)) for t in 10.0 ** -np.arange(1, 11)]
# a = 0 (coincident centers), by = 0 (collinear centers), gmax = 0 (one gamma)
DEGENERATE = [
    RelativePair(0.6, 0.0, 0.9, 0.3, 0.2),
    RelativePair(0.6, 0.5, 0.9, 0.3, 0.0),
    RelativePair(0.0, 0.0, 0.9, 0.3, 0.0),
    RelativePair(0.6, 0.5, 0.0, 0.0, 0.0),
]


def linear_root_system():
    """Unit-square centers; in every third column triple (0, 1, 2)'s quadratic is linear.

    There r1 = r0 + 0.6 and r2 = r0 + 0.8, so the triple point moves along
    (-0.6, -0.8), at unit speed, as its three violations grow: qa =
    |g1|^2 - 1 is 0 to roundoff, and the one root, that of the linear
    equation, is the minimax point.
    """
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    radii = np.random.default_rng(11).uniform(0.1, 1.5, (4, 12))
    s = np.arange(1, 5) / 4.0
    radii[:3, ::3] = s, s + 0.6, s + 0.8
    radii[3, ::3] = 3.0
    return centers, radii


def triple_qa(centers: np.ndarray, radii: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """Leading coefficient |g1|^2 - 1 of triple (i, j, k)'s quadratic, per column, by a linear solve."""
    m = 2.0 * np.array([centers[j] - centers[i], centers[k] - centers[i]])
    g1 = np.linalg.solve(m, 2.0 * np.array([radii[i] - radii[j], radii[i] - radii[k]]))
    return (g1 * g1).sum(axis=0) - 1.0


def kernel_systems(seed: int):
    rng = np.random.default_rng(seed)
    yield from rounded_disk_systems(rng, True, 60, 33)
    yield from rounded_disk_systems(rng, False, 60, 33)
    yield from pair_systems(NEAR_PARALLEL, 1001)


class TestMinimaxKernel:
    @pytest.mark.parametrize("parallelogram", [True, False])
    def test_minimum_is_exact(self, parallelogram):
        # the returned value is the max violation at the returned point, and
        # no point of a dense grid over the centers' bounding box (which
        # holds a minimizer) does better
        rng = np.random.default_rng(7 if parallelogram else 8)
        side = np.linspace(0.0, 1.0, 201)
        for centers, radii in rounded_disk_systems(rng, parallelogram, 150, 8):
            values, points = _minimax(_geometry(centers), radii)
            lo, hi = centers.min(axis=0), centers.max(axis=0)
            gx, gy = np.meshgrid(lo[0] + (hi[0] - lo[0]) * side, lo[1] + (hi[1] - lo[1]) * side)
            dist = np.stack([np.hypot(gx - cx, gy - cy).ravel() for cx, cy in centers])
            for col in range(radii.shape[1]):
                assert abs(values[col] - max_violation(centers, radii[:, col], points[col])) <= 1e-15
                grid_best = (dist - radii[:, col, None]).max(axis=0).min()
                assert grid_best >= values[col] - 1e-12

    def test_columns_are_independent(self):
        # the kernel on any subset of columns returns, bit for bit, those
        # columns of a call on all of them, so a search's samples read the
        # values of a full-grid evaluation
        rng = np.random.default_rng(10)
        for centers, radii in kernel_systems(9):
            geometry = _geometry(centers)
            values, points = _minimax(geometry, radii)
            for size in (1, 2, 7, radii.shape[1] // 2):
                cols = np.sort(rng.choice(radii.shape[1], size, replace=False))
                sub_values, sub_points = _minimax(geometry, radii[:, cols])
                assert sub_values.tobytes() == values[cols].tobytes()
                assert sub_points.tobytes() == points[cols].tobytes()

        # the kernel takes a triple's linear root (|qa| < DEGENERATE_TOL) only
        # when some column of the call needs it; here a third of the columns
        # do, and every column reads alone what it reads among them
        centers, radii = linear_root_system()
        linear = np.abs(triple_qa(centers, radii, 0, 1, 2)) < DEGENERATE_TOL
        assert linear.any() and not linear.all()
        values, points = _minimax(_geometry(centers), radii)
        for col in np.flatnonzero(linear):
            x, y = points[col]
            violations = [math.hypot(x - cx, y - cy) - r for (cx, cy), r in zip(centers[:3], radii[:3, col])]
            assert max(violations) - min(violations) <= 1e-15
        for col in range(radii.shape[1]):
            one_value, one_point = _minimax(_geometry(centers), radii[:, [col]])
            assert one_value.tobytes() == values[[col]].tobytes()
            assert one_point.tobytes() == points[[col]].tobytes()


class TestDisksFeasible:
    def test_roomy_system_returns_point(self):
        p = RelativePair(0.6, 0.5, 0.6, 0.1, 0.2)
        pt = disks_feasible(p, 0.15)
        assert pt is not None
        assert reference.disk_excess(tuple(p), 0.15, pt) <= BOUNDARY_TOL

    def test_orthogonal_projections_never_feasible(self):
        p = RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)
        for gamma in np.linspace(0.0, 1.0, 21):
            assert disks_feasible(p, float(gamma)) is None

    def test_sic_system_feasible_at_half(self):
        p = RelativePair(1.0, SQRT3_INV, 1.0, 0.0, SQRT3_INV)
        assert disks_feasible(p, 0.5) is not None
        planar = (0.5 * SQRT3_INV, 0.5 * SQRT3_INV)
        assert reference.disk_excess(tuple(p), 0.5, planar) <= BOUNDARY_TOL

    def test_agrees_with_rejection_sampling(self):
        # 10^6 sampled points across random systems: sampling never finds a
        # feasible point where the finite test said infeasible, and the
        # returned point is genuinely inside all disks
        rng = np.random.default_rng(23)
        points_per_system = 40_000
        systems = 25
        for _ in range(systems):
            A, B = random_effect_pair(rng)
            p, _ = relative_pair(A, B)
            gamma = min(p.alpha, p.beta) * rng.random()
            centers, radii = _centers(p), _radii(p, gamma)
            verdict = disks_feasible(p, gamma)
            smallest = int(np.argmin(radii))
            c = centers[smallest]
            r = max(float(radii[smallest]), 0.0)
            xs = rng.uniform(c[0] - r, c[0] + r, points_per_system)
            ys = rng.uniform(c[1] - r, c[1] + r, points_per_system)
            dists = np.stack(
                [np.hypot(xs - cx, ys - cy) - rr for (cx, cy), rr in zip(centers, radii)]
            ).max(axis=0)
            sampled_feasible = bool((dists <= 0.0).any())
            if verdict is None:
                assert not sampled_feasible
            else:
                assert reference.disk_excess(tuple(p), gamma, verdict) <= BOUNDARY_TOL


def criterion_3_pairs(n: int) -> list[RelativePair]:
    """The first n pairs of acceptance criterion 3's oracle agreement sweep."""
    rng = np.random.default_rng(2025)
    return [relative_pair(*random_effect_pair(rng))[0] for _ in range(n)]


def near_boundary_pairs(n: int) -> list[RelativePair]:
    """The first n oracle pairs of perfbench's near-boundary stream (seed 1), and its fault pairs."""
    stream = workloads.Stream("near-boundary", 1, qcoex)
    cases = [stream.next("oracle") for _ in range(n)] + workloads.fault_cases()
    return [relative_pair(BlochEffect(*c.A), BlochEffect(*c.B))[0] for c in cases]


def non_coexistent_pairs() -> list[RelativePair]:
    """The pairs of criterion_3_pairs(1000) and near_boundary_pairs(48) that classify finds not coexistent
    (the oracle agrees on all of them), and those of the oracle corpus whose recorded scan found so."""
    pairs = [p for p in criterion_3_pairs(1000) + near_boundary_pairs(48) if not classify(p).coexistent]
    records = json.loads((Path(__file__).parent / "data" / "oracle_corpus.json").read_text())
    return pairs + [RelativePair(*(float(v) for v in r["pair"])) for r in records if not r["result"]["coexistent"]]


def full_profile(p: RelativePair, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The profile at every gamma, in kernel calls of 1024 gammas (each column is computed alone)."""
    profile = _Profile(p)
    parts = [profile(gammas[i : i + 1024]) for i in range(0, gammas.size, 1024)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([pt for _, pt in parts])


def multisection(profile, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Gamma and value of the lowest sample of a plain multisection on [lo, hi], run to a bracket of ``tol``.

    Each step samples 33 evenly spaced gammas and keeps the two cells around
    the best, with no secant cuts: a search apart from the oracle's, the
    reference for the scan's refined margin and minimum.
    """
    steps = np.linspace(0.0, 1.0, 33)
    for _ in range(64):
        at = lo + (hi - lo) * steps
        at[-1] = hi
        values, _ = profile(at)
        best = int(values.argmin())
        if hi - lo <= tol:
            break
        lo, hi = at[max(best - 1, 0)], at[min(best + 1, 32)]
    return float(at[best]), float(values[best])


def rise_above_lower_hull(x: np.ndarray, f: np.ndarray) -> float:
    """How far the samples (x, f), x increasing, rise above their lower convex hull (monotone chain).

    Half of it is the distance of the samples from the nearest convex
    function, the hull raised by that half.
    """
    hull: list[tuple[float, float]] = []
    for q in zip(x.tolist(), f.tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (q[1] - y1) > (y2 - y1) * (q[0] - x1):
                break
            hull.pop()
        hull.append(q)
    hx, hy = np.array(hull).T
    return float((f - np.interp(x, hx, hy)).max())


# on the boundary, with a feasible gamma interval thinner than a 10^4 grid step
THIN = RelativePair(0.6, 0.5, 0.9, 0.123, by_max(0.6, 0.5, 0.9, 0.123))
# 1e-3 inside THIN's boundary point: 24 feasible grid gammas, none of them
# among the 33 that the scan's first step samples
LATE = RelativePair(0.6, 0.5, 0.9, 0.123, by_max(0.6, 0.5, 0.9, 0.123) - 1e-3)
# feasible intervals that touch gamma = 0, gamma = gmax, or both (every
# grid gamma feasible)
FROM_ZERO = RelativePair(0.5, 0.1, 0.5, 0.0, 0.1)
TO_GMAX = RelativePair(0.9, 0.5, 0.95, 0.52, 0.02)
WHOLE = RelativePair(0.5, 0.1, 0.8, 0.0, 0.1)
# a zero effect: the gamma range is the single point 0
ZERO = RelativePair(0.0, 0.0, 0.9, 0.3, 0.0)

# not coexistent, with a closed-form optimum 2.7e-13 and 1.5e-13 above its
# dual bound: one effect nearly zero, the other nearly sharp
UNCERTIFIED = [
    RelativePair(
        3.212341574232447e-05, 2.369085624276298e-05, 0.9999987910011157, -0.22454177937174266, 0.974462674386313
    ),
    RelativePair(
        0.9999999993083988, 0.9999999990120138, 6.226963643995997e-05, 1.3871190416054062e-05, 6.0700729875580145e-05
    ),
]


class TestOracleScan:
    def test_c1_pair_feasible(self):
        p = RelativePair(0.6, 0.5, 0.6, 0.1, 0.4)
        res = oracle_scan(p)
        assert res.coexistent
        assert res.margin < 0.0
        assert res.gamma_lo is not None and res.gamma_lo <= res.gamma <= res.gamma_hi

    def test_orthogonal_projections_positive_margin(self):
        res = oracle_scan(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert not res.coexistent
        assert res.margin > 1e-3

    def test_boundary_pair_margin_near_zero_and_certificate(self):
        alpha, a, beta, bx = 0.6, 0.5, 1.0, 0.0
        by = by_max(alpha, a, beta, bx)
        p = RelativePair(alpha, a, beta, bx, by)
        res = oracle_scan(p)
        assert res.coexistent
        assert abs(res.margin) < 1e-6
        # the feasible interval is thinner than one grid step here
        assert res.gamma_lo <= res.gamma <= res.gamma_hi
        # the coincident-crossing construction pins the only workable gamma
        gamma_expected = 0.5 * (a * bx + alpha * beta - 2.0 * (1.0 - alpha) * (1.0 - beta))
        assert res.gamma == pytest.approx(gamma_expected, abs=1e-3)
        assert res.gamma_hi - res.gamma_lo < 1e-3

    def test_certificate_and_edges(self, monkeypatch):
        # the certificate is the minimax point of the scan's own evaluation
        # at the best gamma, so it equals a fresh disk-system test there; it
        # lies in every disk, both edges are feasible and ENDPOINT_TOL
        # beyond an inner edge is not
        rng = np.random.default_rng(2025)
        pairs = [relative_pair(*random_effect_pair(rng))[0] for _ in range(200)]
        pairs.append(RelativePair(0.6, 0.5, 1.0, 0.0, by_max(0.6, 0.5, 1.0, 0.0)))
        pairs.append(THIN)
        # no grid gamma of the last pair is feasible: its certificate comes
        # from the kernel call at its closed-form optimum's gamma
        assert full_profile(THIN, np.linspace(0.0, 0.6, 10_001))[0].min() > BOUNDARY_TOL

        def refuse(*args, **kwargs):
            raise AssertionError("the scan made a per-gamma check")

        monkeypatch.setattr("qcoex.oracle.disks_feasible", refuse)
        results = [oracle_scan(p) for p in pairs]
        monkeypatch.undo()
        assert results[-1].coexistent
        for p, res in zip(pairs, results):
            if not res.coexistent:
                continue
            assert res.point == disks_feasible(p, res.gamma)
            assert reference.disk_excess(tuple(p), res.gamma, res.point) <= BOUNDARY_TOL
            gmax = min(p.alpha, p.beta)
            for edge, outward in ((res.gamma_lo, -ENDPOINT_TOL), (res.gamma_hi, ENDPOINT_TOL)):
                assert disks_feasible(p, edge) is not None
                if edge not in (0.0, gmax):
                    assert disks_feasible(p, edge + outward) is None

    @pytest.mark.parametrize(
        "pairs",
        [
            lambda: [RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)],
            lambda: [THIN],
            # just outside the boundary: infeasible by 3.5e-10
            lambda: [RelativePair(0.6, 0.5, 0.9, 0.123, by_max(0.6, 0.5, 0.9, 0.123) + 1e-9)],
            # two criterion-3 pairs that mislead a grid pruned by a two-disk
            # lower bound on the profile: the least bound sits at an
            # infeasible gamma while others are feasible, or two grid steps
            # off the infeasible minimum
            lambda: [
                RelativePair(
                    0.9285790228949626, 0.3576064278268254, 0.5256263646528546, 0.05217797552575973, 0.5207958373170408
                )
            ],
            lambda: [
                RelativePair(
                    0.7581886929555416, 0.6044129809292922, 0.9840470676502402, -0.624652189274578, 0.6933200632854388
                )
            ],
            lambda: [NEAR_PARALLEL[2]],
            lambda: criterion_3_pairs(200),
            lambda: near_boundary_pairs(48),
            lambda: [ZERO],
            lambda: [FROM_ZERO],
            lambda: [TO_GMAX],
            lambda: [WHOLE],
            lambda: [LATE],
        ],
        ids=[
            "orthogonal",
            "thin",
            "outside",
            "bound-argmin-infeasible",
            "second-pass",
            "near-parallel",
            "criterion-3",
            "near-boundary",
            "zero-effect",
            "from-zero",
            "to-gmax",
            "whole-range",
            "late-feasibility",
        ],
    )
    def test_search_matches_full_grid(self, pairs):
        # the reference evaluates all 10^4 + 1 grid gammas and refines an
        # infeasible grid minimum by plain multisection to a 1e-16 bracket;
        # the scan's search must find its verdict, its first and last
        # feasible grid gammas (the grid brackets of gamma_lo and gamma_hi)
        # and its margin, on a profile that is convex to roundoff
        for p in pairs():
            gmax = min(p.alpha, p.beta)
            gammas = np.linspace(0.0, gmax, 10_001)
            full, _ = full_profile(p, gammas)
            assert np.diff(full, 2).min() >= -1e-15
            k = int(np.argmin(full))
            margin = full[k]
            if margin > BOUNDARY_TOL:
                lo, hi = gammas[max(k - 1, 0)], gammas[min(k + 1, 10_000)]
                margin = min(margin, multisection(_Profile(p), lo, hi, 1e-16)[1])
            res = oracle_scan(p)
            assert res.coexistent == (margin <= BOUNDARY_TOL)
            assert abs(res.margin - margin) <= 1e-15
            if not res.coexistent:
                continue
            inside = np.flatnonzero(full <= BOUNDARY_TOL)
            if inside.size:
                assert np.searchsorted(gammas, res.gamma_lo) == inside[0]
                assert np.searchsorted(gammas, res.gamma_hi, side="right") - 1 == inside[-1]
            assert res.gamma_lo <= res.gamma <= res.gamma_hi
            assert reference.disk_excess(tuple(p), res.gamma, res.point) <= BOUNDARY_TOL

    def test_early_start_cases_take_their_paths(self):
        # the pairs that test_search_matches_full_grid adds for the edge
        # searches' start show what they are there for: the first step's 33
        # grid samples, all feasible (both edges at a sampled end of the
        # range), the first or the last, or none while later steps find some
        first_step = (GRID_STEPS * _STEPS).astype(np.intp)
        samples = {}
        for name, p in (("whole", WHOLE), ("from-zero", FROM_ZERO), ("to-gmax", TO_GMAX), ("late", LATE)):
            full, _ = full_profile(p, np.linspace(0.0, min(p.alpha, p.beta), GRID_STEPS + 1))
            samples[name] = (full[first_step] <= BOUNDARY_TOL, (full <= BOUNDARY_TOL).sum())
        assert samples["whole"][0].all()
        assert samples["from-zero"][0][0] and not samples["from-zero"][0][-1]
        assert not samples["to-gmax"][0][0] and samples["to-gmax"][0][-1]
        assert not samples["late"][0].any() and samples["late"][1] > 1
        # an edge at a sampled 0 or gmax is taken without a search, so the
        # whole range's scan does the work of its grid minimum search alone
        gammas = np.linspace(0.0, min(WHOLE.alpha, WHOLE.beta), GRID_STEPS + 1)
        profile = _Profile(WHOLE)
        _Search(0, GRID_STEPS, 0.0, _CELLS, gammas).run(profile)
        res = oracle_scan(WHOLE)
        assert (res.gamma_lo, res.gamma_hi) == (0.0, gammas[-1])
        assert (res.kernel_calls, res.columns) == (profile.calls, profile.columns)
        assert oracle_scan(FROM_ZERO).gamma_lo == 0.0
        assert oracle_scan(TO_GMAX).gamma_hi == min(TO_GMAX.alpha, TO_GMAX.beta)
        res = oracle_scan(ZERO)
        assert min(ZERO.alpha, ZERO.beta) == 0.0
        assert (res.gamma_lo, res.gamma_hi, res.kernel_calls, res.columns) == (0.0, 0.0, 1, 1)

    def test_work_is_counted_and_bounded(self, monkeypatch):
        # kernel_calls and columns are the scan's kernel calls and the gammas
        # they evaluated (a call that several searches share is one call),
        # and no scan of a set does more than the most measured on it:
        # (calls, columns) per set
        columns = []

        def counting(geometry, radii):
            columns.append(radii.shape[1])
            return kernel(geometry, radii)

        kernel = _minimax
        monkeypatch.setattr("qcoex.oracle._minimax", counting)
        sets = [
            ([THIN], 4, 170),
            (criterion_3_pairs(200), 6, 344),
            # the single gamma 0, and every grid gamma feasible: edges at a
            # sampled 0 or gmax take no search
            ([ZERO], 1, 1),
            ([WHOLE], 3, 92),
            (near_boundary_pairs(48), 8, 578),
        ]
        for pairs, calls, cols in sets:
            for p in pairs:
                columns.clear()
                res = oracle_scan(p)
                assert (res.kernel_calls, res.columns) == (len(columns), sum(columns))
                assert res.kernel_calls <= calls
                assert res.columns <= cols
        # the closed-form optimum settles every non-coexistent scan before
        # any kernel call
        pairs = non_coexistent_pairs() + [RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)]
        for p in pairs:
            columns.clear()
            res = oracle_scan(p)
            assert (res.kernel_calls, res.columns, len(columns)) == (0, 0, 0)

    def test_probe_feasible_pairs_skip_the_closed_form(self, monkeypatch):
        # a point whose four violations are all <= 0 at its best gamma proves
        # the pair coexistent, and such a scan goes to the kernel search
        # without the closed-form optimum
        records = json.loads((Path(__file__).parent / "data" / "oracle_corpus.json").read_text())
        pairs = criterion_3_pairs(1000) + near_boundary_pairs(48)
        pairs += [RelativePair(*(float(v) for v in r["pair"])) for r in records]
        probed = [p for p in pairs if _proves_coexistence(p)]
        assert len(probed) == 924 + 0 + 248

        def refuse(*args, **kwargs):
            raise AssertionError("the scan computed the closed-form optimum")

        monkeypatch.setattr("qcoex.oracle.closed_form_optimum", refuse)
        for p in probed:
            assert oracle_scan(p).coexistent, p

    def test_warm_start_from_a_certified_feasible_optimum(self, monkeypatch):
        # a pair whose first step samples no feasible gamma while its
        # closed-form optimum is certified feasible takes one kernel call at
        # the optimum's gamma and its grid neighbours.  The margin is the
        # full grid's minimum or, when no grid gamma is feasible, within
        # 1e-15 of the minimum refined by plain multisection; every edge is
        # feasible, ENDPOINT_TOL beyond it is not (within the range), and
        # the certificate lies in every disk
        warm = []

        def recording(profile, gammas, grid, g):
            started = start(profile, gammas, grid, g)
            warm.append(started is not None)
            return started

        start = _warm_start
        monkeypatch.setattr("qcoex.oracle._warm_start", recording)
        started = []
        for p in [THIN, LATE] + near_boundary_pairs(48):
            warm.clear()
            res = oracle_scan(p)
            if warm:
                assert warm == [True]
                started.append((p, res))
        monkeypatch.undo()
        assert [p for p, _ in started[:2]] == [THIN, LATE] and len(started) == 2 + 16
        for p, res in started:
            assert res.coexistent
            gmax = min(p.alpha, p.beta)
            gammas = np.linspace(0.0, gmax, GRID_STEPS + 1)
            full, _ = full_profile(p, gammas)
            k = int(np.argmin(full))
            margin = full[k]
            if margin > BOUNDARY_TOL:
                lo, hi = gammas[max(k - 1, 0)], gammas[min(k + 1, GRID_STEPS)]
                margin = min(margin, multisection(_Profile(p), lo, hi, 1e-16)[1])
            assert abs(res.margin - margin) <= 1e-15
            for edge, outward in ((res.gamma_lo, -ENDPOINT_TOL), (res.gamma_hi, ENDPOINT_TOL)):
                assert disks_feasible(p, edge) is not None
                if 0.0 <= edge + outward <= gmax:
                    assert disks_feasible(p, edge + outward) is None
            assert res.gamma_lo <= res.gamma <= res.gamma_hi
            assert res.point == disks_feasible(p, res.gamma)
            assert reference.disk_excess(tuple(p), res.gamma, res.point) <= BOUNDARY_TOL

    def test_uncertified_optimum_falls_back_to_the_refinement(self):
        # a nearly sharp effect against a nearly zero one: the closed-form
        # point's largest violation sits more than MINIMUM_TOL above its dual
        # bound, so the scan searches the grid and refines its minimum, which
        # lands within 1e-15 of a plain multisection's
        for p in UNCERTIFIED:
            opt = closed_form_optimum(p)
            assert opt.violation - opt.bound > MINIMUM_TOL
            res = oracle_scan(p)
            assert not res.coexistent and res.kernel_calls > 1
            gammas = np.linspace(0.0, min(p.alpha, p.beta), GRID_STEPS + 1)
            full, _ = full_profile(p, gammas)
            k = int(np.argmin(full))
            refined = multisection(_Profile(p), gammas[max(k - 1, 0)], gammas[min(k + 1, GRID_STEPS)], 1e-16)[1]
            assert abs(res.margin - min(full[k], refined)) <= 1e-15
            assert res.margin >= opt.bound - 1e-15

    def test_feasible_gamma_set_is_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            A, B = random_effect_pair(rng)
            p, _ = relative_pair(A, B)
            gmax = min(p.alpha, p.beta)
            if gmax <= 0.0:
                continue
            prof, _ = _Profile(p)(np.linspace(0.0, gmax, 400))
            deep = np.flatnonzero(prof <= -1e-9)
            if deep.size:
                assert np.array_equal(deep, np.arange(deep[0], deep[-1] + 1))

    def test_full_length_interval_matches_closed_form(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            alpha = 0.2 + 0.8 * rng.random()
            a = alpha * rng.uniform(0.1, 0.95)
            beta = 0.2 + 0.8 * rng.random()
            theta = rng.uniform(0.2, math.pi - 0.2)
            p = RelativePair(alpha, a, beta, beta * math.cos(theta), beta * math.sin(theta))
            interval = gamma_interval_2ci(p)
            res = oracle_scan(p)
            tol = 2.0 * min(alpha, beta) / GRID_STEPS
            if interval is None:
                assert not res.coexistent or abs(res.margin) < 1e-9
                continue
            lo, hi = interval
            if hi - lo < 2.0 * tol:
                continue  # interval thinner than the grid can resolve reliably
            checked += 1
            assert res.coexistent
            assert res.gamma_lo == pytest.approx(lo, abs=tol)
            assert res.gamma_hi == pytest.approx(hi, abs=tol)

    def test_trivial_zero_effect(self):
        res = oracle_scan(RelativePair(0.0, 0.0, 0.9, 0.3, 0.0))
        assert res.coexistent


def violations(p: RelativePair, gamma: float, point) -> list[float]:
    """The four disks' violations at (gamma, point)."""
    x, y = point
    return [math.hypot(x - cx, y - cy) - r for (cx, cy), r in zip(_centers(p).tolist(), _radii(p, gamma).tolist())]


class TestClosedFormOptimum:
    def test_weights_and_bound_on_non_coexistent_pairs(self):
        # the weights are positive, sum to 1 and balance the gamma
        # gradients; the dual bound is at most the largest violation, and
        # the four violations are equal at the optimum.  Each holds to
        # roundoff, as the weights and unit vectors are rounded: the bound
        # passes the violation by up to 1.4e-16 here
        pairs = non_coexistent_pairs()
        assert len(pairs) == 6 + 27 + 61
        for p in pairs:
            opt = closed_form_optimum(p)
            assert opt is not None, p
            l0, l1, l2, l3 = opt.weights
            assert min(opt.weights) > 0.0
            assert abs(math.fsum(opt.weights) - 1.0) <= 1e-15
            assert abs(l0 - l1 - l2 + l3) <= 1e-15
            assert opt.bound <= opt.violation + 1e-15
            h = violations(p, opt.gamma, opt.point)
            assert max(h) - min(h) <= 1e-15
            assert 0.0 <= opt.gamma <= min(p.alpha, p.beta)

    def test_orthogonal_projections(self):
        # alpha = beta = 1: both hyperbolas are bisectors, crossing at the
        # centre of the unit square, where every disk has radius 1/2
        opt = closed_form_optimum(RelativePair(1.0, 1.0, 1.0, 0.0, 1.0))
        assert (opt.gamma, opt.point, opt.weights) == (0.5, (0.5, 0.5), (0.25, 0.25, 0.25, 0.25))
        assert opt.violation == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-16)
        assert opt.bound == pytest.approx(opt.violation, abs=1e-15)

    def test_violation_at_a_point_is_balanced_in_gamma(self):
        # at its gamma the largest growing-radius violation (disks 0, 3)
        # equals the largest shrinking-radius one (disks 1, 2), so no other
        # gamma lowers their maximum, which is the value returned
        rng = np.random.default_rng(7)
        for p in criterion_3_pairs(100):
            gx, gy = rng.uniform(-1.0, 1.0, 2).tolist()
            value, gamma, distances = violation_at(p, gx, gy)
            h = violations(p, gamma, (gx, gy))
            assert distances == tuple(math.hypot(gx - cx, gy - cy) for cx, cy in _centers(p).tolist())
            assert abs(max(h[0], h[3]) - max(h[1], h[2])) <= 1e-15
            assert abs(value - max(h)) <= 1e-15

    def test_never_certifies_a_coexistent_pair(self):
        pairs = [p for p in criterion_3_pairs(1000) if classify(p).coexistent]
        pairs += DEGENERATE + [ZERO, WHOLE, FROM_ZERO, TO_GMAX, THIN, LATE]
        assert len(pairs) == 994 + 10
        for p in pairs:
            assert classify(p).coexistent
            opt = closed_form_optimum(p)
            assert opt is None or opt.bound <= BOUNDARY_TOL, p


# near-boundary oracle pair 66 of seed 1: nearly parallel, with a small by
PAIR_66 = RelativePair(
    0.9981419191416758, 0.9695970626880411, 0.8609411791265604, 0.8559667643856216, 0.09124075901895874
)


class TestProfileConvexity:
    @pytest.mark.parametrize(
        "pairs",
        [
            lambda: criterion_3_pairs(50),
            pytest.param(
                lambda: [PAIR_66],
                marks=pytest.mark.xfail(
                    strict=True, reason="the profile sits up to 1.01e-14 from a convex function there"
                ),
            ),
        ],
        ids=["criterion-3", "near-boundary-66"],
    )
    def test_convex_to_the_allowance_near_the_minimum(self, pairs):
        # the search's secant cuts take every profile value as uncertain by
        # CONVEXITY_TOL, so the computed profile must sit within that of a
        # convex function, on 1001-gamma windows of +-1e-6, +-1e-10 and
        # +-1e-13 around the minimum of a 10^4 grid refined by plain
        # multisection to a 1e-16 bracket
        for p in pairs():
            gmax = min(p.alpha, p.beta)
            gammas = np.linspace(0.0, gmax, 10_001)
            full, _ = full_profile(p, gammas)
            k = int(np.argmin(full))
            g, _ = multisection(_Profile(p), gammas[max(k - 1, 0)], gammas[min(k + 1, 10_000)], 1e-16)
            for h in (1e-6, 1e-10, 1e-13):
                x = np.unique(np.clip(np.linspace(g - h, g + h, 1001), 0.0, gmax))
                f, _ = _Profile(p)(x)
                assert 0.5 * rise_above_lower_hull(x, f) <= CONVEXITY_TOL, (p, h)


class Synthetic:
    """A profile given as a function of gamma, called as a _Profile is."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.calls += 1
        return self.f(gammas), np.zeros((gammas.size, 2))


KINK_AT = math.sqrt(2.0) - 1.0
PLATEAU_AT, PLATEAU_HALF = 1.0 / math.pi, 1e-9
LOWER_EDGE, UPPER_EDGE = 1.0 / math.pi, 1.0 / math.sqrt(2.0)


def kink(g):
    """Slopes -1 and +3 meeting at KINK_AT."""
    return np.maximum(KINK_AT - g, 3.0 * (g - KINK_AT))


def parabola(g):
    return (g - KINK_AT) ** 2


def plateau(g):
    """Slopes -1 and +1 beside a flat bottom 2e-9 wide, with +-2e-16 of roundoff-like noise."""
    return np.maximum(np.abs(g - PLATEAU_AT) - PLATEAU_HALF, 0.0) + 2e-16 * np.sign(np.sin(1e12 * g))


def edges(g):
    """Crosses BOUNDARY_TOL linearly at LOWER_EDGE (slope -0.7) and UPPER_EDGE (slope +2)."""
    return np.maximum(BOUNDARY_TOL + np.maximum(0.7 * (LOWER_EDGE - g), 2.0 * (g - UPPER_EDGE)), -0.5)


class TestSearchCuts:
    # _Search on profiles whose minimum and edges are known exactly

    @pytest.mark.parametrize(
        "f,lo,hi,calls",
        [
            (kink, KINK_AT, KINK_AT, 3),
            (parabola, KINK_AT, KINK_AT, 12),
            (plateau, PLATEAU_AT - PLATEAU_HALF, PLATEAU_AT + PLATEAU_HALF, 7),
        ],
        ids=["kink", "parabola", "plateau"],
    )
    def test_minimum(self, f, lo, hi, calls):
        # a plain multisection needs 12 calls to MINIMUM_TOL from [0, 1]; the
        # secant cuts pin the kink in 3, and the noise of the plateau cuts
        # none of it away
        profile = Synthetic(f)
        at, value, _ = _Search(0.0, 1.0, 0.0, MINIMUM_TOL).run(profile)
        assert lo - MINIMUM_TOL <= at <= hi + MINIMUM_TOL
        assert value <= f(np.array([lo, hi])).max() + 2e-16
        assert profile.calls <= calls

    def test_edges(self):
        # both edges as two searches sharing kernel calls: each returned
        # gamma is feasible and within ENDPOINT_TOL inside its edge
        profile = Synthetic(edges)
        middle = (LOWER_EDGE + UPPER_EDGE) / 2.0
        searches = [_Search(0.0, middle, 1.0, ENDPOINT_TOL), _Search(middle, 1.0, -1.0, ENDPOINT_TOL)]
        while running := [s for s in searches if s.found is None]:
            _step(profile, running)
        (g_lo, v_lo, _), (g_hi, v_hi, _) = (s.found for s in searches)
        assert v_lo <= BOUNDARY_TOL and v_hi <= BOUNDARY_TOL
        assert LOWER_EDGE <= g_lo <= LOWER_EDGE + ENDPOINT_TOL
        assert UPPER_EDGE - ENDPOINT_TOL <= g_hi <= UPPER_EDGE
        assert profile.calls <= 3

    @pytest.mark.parametrize("f", [kink, parabola, plateau, edges], ids=["kink", "parabola", "plateau", "edges"])
    def test_grid(self, f):
        # on grid indices the cuts, rounded outward, keep the grid's own
        # minimum
        grid = np.linspace(0.0, 1.0, 10_001)
        _, value, _ = _Search(0, 10_000, 0.0, _CELLS, grid).run(Synthetic(f))
        assert value == f(grid).min()

    @pytest.mark.parametrize(
        "x1,f1,x2,f2,level",
        [
            (1.0, 0.5, 2.0, 0.0, 0.0),
            # a secant that is flat to within the allowance: drop = 0
            (1.0, 2.0 * CONVEXITY_TOL, 2.0, 0.0, 0.0),
            # a rising secant that starts below the level
            (1.0, -1.0, 2.0, -2.0, 0.0),
        ],
        ids=["rising", "flat", "rising-below-level"],
    )
    def test_secant_that_does_not_fall_returns_its_sample(self, x1, f1, x2, f2, level):
        assert _secant_bound(x1, f1, x2, f2, level) == x1


def random_searches(rng, gammas: np.ndarray, feasible: int) -> list[tuple]:
    """Two to four random searches' arguments: minimum searches on the grid ``gammas`` or between its gammas, and edge searches.

    Minimum brackets hold grid index ``feasible`` and edge brackets, lower
    or upper, have it at their inner ends; every bracket's ends are drawn
    apart, so the widths differ and the searches stop after different
    numbers of steps.
    """
    last = gammas.size - 1
    kinds = []
    for _ in range(int(rng.integers(2, 5))):
        lo, hi = int(rng.integers(0, feasible + 1)), int(rng.integers(feasible, last + 1))
        kind = rng.random()
        if kind < 0.25:
            kinds.append((lo, hi, 0.0, _CELLS, gammas))
        elif kind < 0.5:
            kinds.append((gammas[lo], gammas[hi], 0.0, MINIMUM_TOL))
        elif kind < 0.75:
            kinds.append((gammas[lo], gammas[feasible], 1.0, ENDPOINT_TOL))
        else:
            kinds.append((gammas[feasible], gammas[hi], -1.0, ENDPOINT_TOL))
    return kinds


class TestSharedSteps:
    def test_each_search_returns_what_it_returns_alone(self):
        # searches that share kernel calls (_step) return, bit for bit, what
        # each returns alone: the kernel's columns are independent, so no
        # search's path depends on what else a call evaluates
        rng = np.random.default_rng(43)
        checked = 0
        for p in criterion_3_pairs(40):
            gammas = np.linspace(0.0, min(p.alpha, p.beta), GRID_STEPS + 1)
            inside = np.flatnonzero(full_profile(p, gammas)[0] <= BOUNDARY_TOL)
            if not inside.size:
                continue
            kinds = random_searches(rng, gammas, int(rng.choice(inside)))
            alone, calls = [], []
            for args in kinds:
                profile = _Profile(p)
                alone.append(_Search(*args).run(profile))
                calls.append(profile.calls)
            searches, profile = [_Search(*args) for args in kinds], _Profile(p)
            while running := [s for s in searches if s.found is None]:
                _step(profile, running)
            # every step is one call, as long as the longest search
            assert profile.calls == max(calls)
            for one, search in zip(alone, searches):
                assert [a.tobytes() for a in one] == [a.tobytes() for a in search.found]
                assert [a.dtype for a in one] == [a.dtype for a in search.found]
            checked += 1
        assert checked == 40


class TestOracleCoexistent:
    def test_effect_level_entry_points(self):
        A = effect_from_bloch(1.0, (0.0, 0.0, 1.0))
        B = effect_from_bloch(1.0, (0.0, 1.0, 0.0))
        assert not oracle_coexistent(A, B).coexistent
        C = effect_from_bloch(0.6, (0.5, 0.0, 0.0))
        D = effect_from_bloch(0.6, (0.0, 0.6, 0.0))
        assert oracle_coexistent(C, D).coexistent

    def test_handles_complemented_inputs(self):
        A = effect_from_bloch(1.4, (-0.5, 0.0, 0.0))
        B = effect_from_bloch(0.6, (0.0, 0.6, 0.0))
        assert oracle_coexistent(A, B).coexistent


class TestRandomGeneration:
    def test_effects_are_valid_and_in_range(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            e = random_effect(rng)
            assert 0.0 < e.alpha <= 1.0
            assert e.a <= e.alpha
            assert max(e.a - e.alpha, e.alpha - (2.0 - e.a)) <= 0.0

    def test_reproducible_from_seed(self):
        a1 = random_effect(np.random.default_rng(99))
        a2 = random_effect(np.random.default_rng(99))
        assert a1.alpha == a2.alpha
        assert np.array_equal(a1.avec, a2.avec)


class TestAgreementSweep:
    def test_small_sweep_agrees(self):
        result = suite_oracle_agreement(60, seed=41)
        assert result.violations == 0
        assert result.checked + result.skipped == 60

    def test_deterministic(self):
        r1 = suite_oracle_agreement(20, seed=5)
        r2 = suite_oracle_agreement(20, seed=5)
        assert r1 == r2

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            suite_oracle_agreement(0, seed=1)

    def test_injected_noncommuting_projections_agree_on_false(self):
        p = RelativePair(1.0, 1.0, 1.0, 0.0, 1.0)
        res = oracle_scan(p)
        assert res.coexistent == classify(p).coexistent == False  # noqa: E712
