"""Brute-force coexistence oracle: feasibility of four gamma-dependent disks.

A pair is coexistent exactly when, for some admissible gamma, the four planar
disks encoding the operator constraints on the shared first outcome have a
common point.  The feasibility test per gamma is exact and finite: the
smallest largest violation over the four disks is attained at a disk
center, at a balance point between two centers or at a triple point where
three violations are equal, and only these candidates are built.  The
oracle shares no formulas with the closed-form classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochEffect, RelativePair, relative_pair
from .tolerance import BOUNDARY_TOL, DEGENERATE_TOL, ENDPOINT_TOL, MINIMUM_TOL, PRUNE_TOL

__all__ = [
    "DiskSystem",
    "OracleResult",
    "disks_at",
    "disks_feasible",
    "oracle_coexistent",
    "oracle_scan",
    "point_violation",
    "random_effect",
    "random_effect_pair",
]

DEFAULT_GRID = 10_000
# Largest grid oracle_scan accepts: its profile holds a value and a point per gamma.
_MAX_GRID = 1_000_000

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# Grid gammas per kernel call, which bounds the kernel's temporaries.
_CHUNK = 2048
# A refinement step samples each bracket at the ends of _CELLS equal cells.
_CELLS = 32
_STEPS = np.linspace(0.0, 1.0, _CELLS + 1)


@dataclass(frozen=True, eq=False)
class DiskSystem:
    """Planar feasibility system for the shared-outcome vector.

    Centers sit at the corners of the parallelogram spanned by the two
    reduced Bloch vectors: (0,0), (a,0), (bx,by), (a+bx,by).  Radii are
    (gamma, alpha-gamma, beta-gamma, 2+gamma-alpha-beta); a negative radius
    marks that disk as empty (the system is infeasible at this gamma).
    """

    centers: np.ndarray  # (4, 2)
    radii: np.ndarray  # (4,)
    gamma: float

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float).reshape(4, 2)
        radii = np.asarray(self.radii, dtype=float).reshape(4)
        centers.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "gamma", float(self.gamma))


def _centers(p: RelativePair) -> np.ndarray:
    return np.array([[0.0, 0.0], [p.a, 0.0], [p.bx, p.by], [p.a + p.bx, p.by]])


def _radii(p: RelativePair, gammas):
    """Radii of the four disks, shape (4,) for one gamma or (4, m) for m gammas."""
    return np.array([gammas, p.alpha - gammas, p.beta - gammas, 2.0 + gammas - p.alpha - p.beta])


def disks_at(p: RelativePair, gamma: float) -> DiskSystem:
    """Disk system of a canonical pair at a given gamma."""
    return DiskSystem(_centers(p), _radii(p, gamma), gamma)


def point_violation(d: DiskSystem, point) -> float:
    """Largest membership violation of the point over the four disks (<= 0 inside)."""
    x, y = point
    worst = -math.inf
    for (cx, cy), r in zip(d.centers, d.radii):
        worst = max(worst, math.hypot(x - cx, y - cy) - r)
    return worst


def _minimax(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest max violation over the candidate points, one disk system per column.

    ``centers`` is (4, 2) and ``radii`` (4, m).  Each violation
    ``||g - c_i|| - r_i`` is convex in g, so at a minimizer of their maximum
    0 lies in the convex hull of the active violations' gradients.  Away
    from the centers these are unit vectors pointing from each center to
    the minimizer, and 0 lies in the hull of two of them (opposite, so the
    minimizer is the balance point on the segment between their centers,
    where the two violations are equal) or of three (a triple point, where
    three are equal; collinear centers reduce to the two-vector case).  The
    candidates are therefore the 4 centers, the 6 balance points and the 8
    triple points: the minimum found is the exact minimax, and the system
    is feasible exactly when it is <= 0.
    Returns that minimum, shape (m,), and the point attaining it, (m, 2).
    """
    m = radii.shape[1]
    xs = [np.full(m, cx) for cx in centers[:, 0]]
    ys = [np.full(m, cy) for cy in centers[:, 1]]
    with np.errstate(invalid="ignore", divide="ignore"):
        for i, j in _PAIRS:
            ci = centers[i]
            cj = centers[j]
            d = float(np.linalg.norm(cj - ci))
            if d == 0.0:
                continue
            ex = (cj - ci) / d
            # balance point on the segment between the centers
            s = (d + radii[i] - radii[j]) / 2.0
            xs.append(ci[0] + s * ex[0])
            ys.append(ci[1] + s * ex[1])

        for i, j, k in _TRIPLES:
            # ||g - c|| - r = t for three disks is linear in g given t and
            # quadratic in t, the classical tangent-circle construction
            ci, cj, ck = centers[i], centers[j], centers[k]
            m00 = 2.0 * (cj[0] - ci[0])
            m01 = 2.0 * (cj[1] - ci[1])
            m10 = 2.0 * (ck[0] - ci[0])
            m11 = 2.0 * (ck[1] - ci[1])
            det = m00 * m11 - m01 * m10
            if abs(det) < DEGENERATE_TOL:
                continue
            ri, rj, rk = radii[i], radii[j], radii[k]
            u1 = float(cj @ cj - ci @ ci) + ri * ri - rj * rj
            u2 = float(ck @ ck - ci @ ci) + ri * ri - rk * rk
            v1 = 2.0 * (ri - rj)
            v2 = 2.0 * (ri - rk)
            g0x = (m11 * u1 - m01 * u2) / det
            g0y = (-m10 * u1 + m00 * u2) / det
            g1x = (m11 * v1 - m01 * v2) / det
            g1y = (-m10 * v1 + m00 * v2) / det
            w0x = g0x - ci[0]
            w0y = g0y - ci[1]
            qa = g1x * g1x + g1y * g1y - 1.0
            qb = 2.0 * (w0x * g1x + w0y * g1y - ri)
            qc = w0x * w0x + w0y * w0y - ri * ri
            disc = qb * qb - 4.0 * qa * qc
            sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
            linear = np.abs(qa) < DEGENERATE_TOL
            t_lin = np.where(np.abs(qb) > DEGENERATE_TOL, -qc / np.where(qb != 0.0, qb, 1.0), np.nan)
            for sign in (1.0, -1.0):
                t = np.where(linear, t_lin, (-qb + sign * sq) / (2.0 * np.where(linear, 1.0, qa)))
                xs.append(g0x + t * g1x)
                ys.append(g0y + t * g1y)

    x = np.array(xs)
    y = np.array(ys)
    worst = np.full(x.shape, -np.inf)
    for (cx, cy), r in zip(centers, radii):
        dx = x - cx
        dx *= dx
        dy = y - cy
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        dx -= r
        np.maximum(worst, dx, out=worst)
    worst[~np.isfinite(worst)] = np.inf
    best = worst.argmin(axis=0)
    cols = np.arange(m)
    return worst[best, cols], np.stack([x[best, cols], y[best, cols]], axis=1)


def _balance_bound(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Lower bound on the minimax violation, one disk system per column.

    ``centers`` is (4, 2) and ``radii`` (4, m), as for _minimax.  At any
    point g, max(f_i, f_j) >= (||g - c_i|| + ||g - c_j|| - r_i - r_j) / 2
    >= (||c_i - c_j|| - r_i - r_j) / 2 for every two disks, and f_i >= -r_i.
    Returns the largest of these, shape (m,).
    """
    bound = -radii.min(axis=0)
    for i, j in _PAIRS:
        d = float(np.linalg.norm(centers[j] - centers[i]))
        np.maximum(bound, (d - radii[i] - radii[j]) / 2.0, out=bound)
    return bound


def disks_feasible(d: DiskSystem) -> tuple[float, float] | None:
    """Exact finite feasibility test; returns the minimax point when it is inside.

    The point is the candidate with the smallest max violation, so it lies
    in every disk (within ``BOUNDARY_TOL``) exactly when the system is
    feasible.
    """
    value, point = _minimax(d.centers, d.radii[:, None])
    if value[0] <= BOUNDARY_TOL:
        return float(point[0, 0]), float(point[0, 1])
    return None


def _violation_profile(p: RelativePair, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimax violation (m,) and point (m, 2) at each of m gammas, in chunks of _CHUNK
    (the kernel treats each column alone, so the chunking moves no value)."""
    centers = _centers(p)
    values = []
    points = np.empty((gammas.size, 2))
    for i in range(0, gammas.size, _CHUNK):
        chunk = slice(i, i + _CHUNK)
        value, points[chunk] = _minimax(centers, _radii(p, gammas[chunk]))
        values.append(value)
    return np.concatenate(values), points


def _grid_profile(p: RelativePair, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_violation_profile on the grid, run only where the balance bound allows.

    A column whose bound exceeds both BOUNDARY_TOL and the smallest value
    found by more than PRUNE_TOL has a minimax above both, so it is neither
    feasible nor the minimum: it keeps the value inf and an unset point.
    The first pass runs the columns whose bound is within PRUNE_TOL of the
    feasibility cut, and the column of the smallest bound; later passes run
    those within PRUNE_TOL of the smallest value found, which adds columns
    only when that value is not feasible.  The kernel treats each column
    alone, so every value kept equals the full grid's.
    """
    # profile and points before the bound: the other order leaves free heap
    # that later large temporaries reuse without page faults, which moves
    # perfbench's array probe (CHANGES.md)
    profile = np.full(gammas.size, np.inf)
    points = np.empty((gammas.size, 2))
    centers = _centers(p)
    bound = np.concatenate(
        [_balance_bound(centers, _radii(p, gammas[i : i + _CHUNK])) for i in range(0, gammas.size, _CHUNK)]
    )
    done = np.zeros(gammas.size, dtype=bool)
    todo = bound <= BOUNDARY_TOL + PRUNE_TOL
    todo[np.argmin(bound)] = True
    while todo.any():
        cols = np.flatnonzero(todo)
        profile[cols], points[cols] = _violation_profile(p, gammas[cols])
        done |= todo
        todo = ~done & (bound <= profile.min() + PRUNE_TOL)
    return profile, points


def _search(
    p: RelativePair, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink gamma brackets [lo, hi] to at most ``tol``, one profile call per step.

    Each step samples every bracket at _CELLS + 1 evenly spaced gammas.
    With ``sign`` 0 the best sample has the lowest profile value and the two
    cells around it are kept, which closes on the minimum of the convex
    profile.  With ``sign`` +1 (-1) the best sample is the lowest (highest)
    feasible gamma and the cell outside it is kept, which closes on the
    lower (upper) edge of the feasible interval; such a bracket needs a
    feasible gamma at its inner end.  Returns each bracket's best sample:
    its gamma, profile value and minimax point, shapes (n,), (n,), (n, 2).
    """
    rows = np.arange(lo.size)
    for _ in range(64):  # each step shrinks every bracket at least 16-fold
        gammas = lo[:, None] + (hi - lo)[:, None] * _STEPS
        gammas[:, -1] = hi
        values, points = _violation_profile(p, gammas.ravel())
        values = values.reshape(gammas.shape)
        key = np.where(
            sign[:, None] == 0.0,
            values,
            np.where(values <= BOUNDARY_TOL, sign[:, None] * gammas, np.inf),
        )
        best = key.argmin(axis=1)
        if np.max(hi - lo) <= tol:
            break
        lo = gammas[rows, np.maximum(best - (sign >= 0.0), 0)]
        hi = gammas[rows, np.minimum(best + (sign <= 0.0), _CELLS)]
    return gammas[rows, best], values[rows, best], points[rows * (_CELLS + 1) + best]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a gamma scan.

    ``margin`` is the minimum over gamma of the best max constraint
    violation: negative means feasible with that much slack, positive means
    infeasible by that much.  The certificate (gamma, point) and the refined
    feasible gamma interval are present when coexistent.
    """

    coexistent: bool
    margin: float
    gamma: float | None = None
    point: tuple[float, float] | None = None
    gamma_lo: float | None = None
    gamma_hi: float | None = None


def oracle_scan(p: RelativePair, grid: int = DEFAULT_GRID) -> OracleResult:
    """Scan gamma over [0, min(alpha, beta)] and decide feasibility.

    The grid scan locates the (interval-shaped) feasible gamma set.  The
    kernel runs only on the grid gammas whose balance bound, a lower bound
    on the minimax violation from pairs of disks, leaves them a chance to
    be feasible or the grid minimum; every other gamma is neither, so the
    result equals that of a full-grid scan.  When no grid gamma is
    feasible, a bracket search around the grid minimum catches intervals
    thinner than the grid step.  The same search then closes on both
    interval edges from their grid brackets, to ``ENDPOINT_TOL``.
    Returns the smallest profile value found as the margin and, when it is
    feasible, its gamma, the minimax point of the same kernel evaluation
    (the certificate) and the interval edges.
    """
    if isinstance(grid, bool) or not isinstance(grid, int) or not 100 <= grid <= _MAX_GRID:
        raise ValueError(f"grid must be between 100 and {_MAX_GRID}, got {grid!r}")
    gmax = min(p.alpha, p.beta)
    gammas = np.linspace(0.0, gmax, grid + 1) if gmax > 0.0 else np.array([0.0])
    profile, points = _grid_profile(p, gammas)
    k = int(np.argmin(profile))
    margin, g_best, point = float(profile[k]), float(gammas[k]), tuple(points[k].tolist())
    del points  # hold only the best point, not the (m, 2) array, through the searches
    last = gammas.size - 1
    if margin > BOUNDARY_TOL and last > 0:
        lo, hi = gammas[[max(k - 1, 0)]], gammas[[min(k + 1, last)]]
        (g_ref,), (v_ref,), (p_ref,) = _search(p, lo, hi, np.zeros(1), MINIMUM_TOL)
        if v_ref < margin:
            margin, g_best, point = float(v_ref), float(g_ref), tuple(p_ref.tolist())
    if margin > BOUNDARY_TOL:
        return OracleResult(False, margin)

    # each edge is bracketed by the outermost feasible gamma found and the
    # grid gamma beyond it; the bracket is empty at 0 or gmax
    inside = np.flatnonzero(profile <= BOUNDARY_TOL)
    first, final = (inside[0], inside[-1]) if inside.size else (k, k)
    found = gammas[[first, final]] if inside.size else np.array([g_best, g_best])
    lo = np.array([gammas[max(first - 1, 0)], found[1]])
    hi = np.array([found[0], gammas[min(final + 1, last)]])
    (g_lo, g_hi), _, _ = _search(p, lo, hi, np.array([1.0, -1.0]), ENDPOINT_TOL)
    return OracleResult(True, margin, g_best, point, float(g_lo), float(g_hi))


def oracle_coexistent(A: BlochEffect, B: BlochEffect, grid: int = DEFAULT_GRID) -> OracleResult:
    """Decide coexistence of two effects by brute-force disk feasibility."""
    pair, _ = relative_pair(A, B)
    return oracle_scan(pair, grid)


def random_effect(rng: np.random.Generator) -> BlochEffect:
    """Random valid effect: alpha uniform on (0, 1], Bloch length uniform on [0, alpha)."""
    alpha = 1.0 - rng.random()
    a = alpha * rng.random()
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return BlochEffect(alpha, a * v)


def random_effect_pair(rng: np.random.Generator) -> tuple[BlochEffect, BlochEffect]:
    """Two independent random effects; reproducible from the generator state."""
    return random_effect(rng), random_effect(rng)
