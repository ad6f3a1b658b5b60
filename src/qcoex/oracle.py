"""Brute-force coexistence oracle: feasibility of four gamma-dependent disks.

A pair is coexistent exactly when, for some admissible gamma, the four planar
disks encoding the operator constraints on the shared first outcome have a
common point.  The feasibility test per gamma is exact and finite: the
smallest largest violation over the four disks is attained at a disk
center, at a balance point between two centers or at a triple point where
three violations are equal, and only these candidates are built.  One
array kernel (_minimax) evaluates that test for many gammas of a pair at
once: ``oracle_scan`` searches the gamma grid with it, and
``disks_feasible(pair, gamma)`` asks it about one gamma.  The oracle shares
no formulas with the closed-form classification.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bloch import BlochEffect, RelativePair, relative_pair
from .tolerance import BOUNDARY_TOL, CONVEXITY_TOL, DEGENERATE_TOL, ENDPOINT_TOL, MINIMUM_TOL

__all__ = [
    "OracleResult",
    "disks_feasible",
    "oracle_coexistent",
    "oracle_scan",
]

GRID_STEPS = 10_000

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# A search step samples each bracket at the ends of _CELLS equal cells.
_CELLS = 32
_STEPS = np.linspace(0.0, 1.0, _CELLS + 1)
# signs of the two roots of each triple point's quadratic, in candidate order
_ROOTS = np.array([[1.0], [-1.0]])


def _centers(p: RelativePair) -> np.ndarray:
    return np.array([[0.0, 0.0], [p.a, 0.0], [p.bx, p.by], [p.a + p.bx, p.by]])


def _radii(p: RelativePair, gammas):
    """Radii of the four disks, shape (4,) for one gamma or (4, m) for m gammas."""
    return np.array([gammas, p.alpha - gammas, p.beta - gammas, 2.0 + gammas - p.alpha - p.beta])


def _geometry(centers: np.ndarray) -> tuple:
    """Per-pair constants of _minimax, which depend on the centers and not on gamma.

    Returns the centers (4, 2); the indices i, j (2, n) of the n pairs of
    distinct centers, with c_i, the unit vector from c_i to c_j and their
    distance, (5, n, 1); and the indices i, j, k (3, t) of the t triples of
    non-collinear centers, with c_i, det M times the columns of M^-1
    (m11, -m10, -m01, m00), det M and |c_j|^2 - |c_i|^2, |c_k|^2 - |c_i|^2,
    (9, t, 1), where M is the matrix of the triple's linear system.
    """
    pairs, balance = [], []
    for i, j in _PAIRS:
        ci, cj = centers[i], centers[j]
        d = float(np.linalg.norm(cj - ci))
        if d != 0.0:
            pairs.append((i, j))
            balance.append((*ci, *((cj - ci) / d), d))
    triples, systems = [], []
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
        triples.append((i, j, k))
        systems.append((*ci, m11, -m10, -m01, m00, det, float(cj @ cj - ci @ ci), float(ck @ ck - ci @ ci)))
    return (
        centers,
        np.array(pairs, dtype=np.intp).reshape(-1, 2).T,
        np.array(balance).reshape(-1, 5).T[..., None],
        np.array(triples, dtype=np.intp).reshape(-1, 3).T,
        np.array(systems).reshape(-1, 9).T[..., None],
    )


def _minimax(geometry: tuple, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest max violation over the candidate points, one disk system per column.

    ``geometry`` holds the four centers' constants (_geometry) and ``radii``
    is (4, m).  Each violation ``||g - c_i|| - r_i`` is convex in g, so at a
    minimizer of their maximum 0 lies in the convex hull of the active
    violations' gradients.  Away from the centers these are unit vectors
    pointing from each center to the minimizer, and 0 lies in the hull of
    two of them (opposite, so the minimizer is the balance point on the
    segment between their centers, where the two violations are equal) or
    of three (a triple point, where three are equal; collinear centers
    reduce to the two-vector case).  The candidates are therefore the 4
    centers, the 6 balance points and the 8 triple points: the minimum
    found is the exact minimax, and the system is feasible exactly when it
    is <= 0.  Each step forms all balance or all triple points at once, in
    one array operation over (x, y), candidates and columns.
    Returns that minimum, shape (m,), and the point attaining it, (m, 2).
    """
    centers, pairs, balance, triples, systems = geometry
    m = radii.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        # balance point on the segment between the centers, (2, n, m)
        i, j = pairs
        s = (balance[4] + radii[i] - radii[j]) / 2.0
        halfway = balance[:2] + s * balance[2:4]

        # triple points g = g0 + t g1, (2, t, m), with t a root of a quadratic
        i, j, k = triples
        e1, e2 = systems[2:6].reshape(2, 2, -1, 1)
        det = systems[6]
        ri, rj, rk = radii[i], radii[j], radii[k]
        u1 = systems[7] + ri * ri - rj * rj
        u2 = systems[8] + ri * ri - rk * rk
        g0 = (e1 * u1 + e2 * u2) / det
        g1 = (e1 * (2.0 * (ri - rj)) + e2 * (2.0 * (ri - rk))) / det
        w0 = g0 - systems[:2]
        qa = (g1 * g1).sum(axis=0) - 1.0
        qb = 2.0 * ((w0 * g1).sum(axis=0) - ri)
        qc = (w0 * w0).sum(axis=0) - ri * ri
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        linear = np.abs(qa) < DEGENERATE_TOL
        t_lin = np.where(np.abs(qb) > DEGENERATE_TOL, -qc / np.where(qb != 0.0, qb, 1.0), np.nan)
        # both roots of each triple, (t, 2, m): the root with +sq first
        root = (-qb[:, None] + _ROOTS * sq[:, None]) / (2.0 * np.where(linear, 1.0, qa))[:, None]
        t = np.where(linear[:, None], t_lin[:, None], root)
        triple = (g0[:, :, None] + t * g1[:, :, None]).reshape(2, -1, m)

        # candidates in order: centers, balance points, triple points, (2, c, m)
        xy = np.concatenate([np.broadcast_to(centers.T[..., None], (2, 4, m)), halfway, triple], axis=1)

    # the violations of every candidate, (4, c, m)
    dist = xy[:, None] - centers.T[:, :, None, None]
    dist *= dist
    dist = dist.sum(axis=0)
    np.sqrt(dist, out=dist)
    dist -= radii[:, None]
    worst = dist.max(axis=0)
    worst[~np.isfinite(worst)] = np.inf
    best = worst.argmin(axis=0)
    cols = np.arange(m)
    return worst[best, cols], xy[:, best, cols].T


def disks_feasible(p: RelativePair, gamma: float) -> tuple[float, float] | None:
    """Exact finite feasibility test of the pair's four disks at one gamma.

    Returns the minimax point when it is inside: the point is the candidate
    with the smallest max violation, so it lies in every disk (within
    ``BOUNDARY_TOL``) exactly when the system is feasible.  The scan does
    not call this; it evaluates many gammas per kernel call (_Profile).
    """
    value, point = _minimax(_geometry(_centers(p)), _radii(p, gamma)[:, None])
    if value[0] <= BOUNDARY_TOL:
        return float(point[0, 0]), float(point[0, 1])
    return None


class _Profile:
    """The violation profile of one pair: minimax value (m,) and point (m, 2) at m gammas.

    The kernel's per-pair constants are built once; ``calls`` and
    ``columns`` count the kernel calls made and the gammas they evaluated.
    """

    def __init__(self, p: RelativePair):
        self.p = p
        self.geometry = _geometry(_centers(p))
        self.calls = 0
        self.columns = 0

    def __call__(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.calls += 1
        self.columns += gammas.size
        return _minimax(self.geometry, _radii(self.p, gammas))


def _outward(x: list, f: list, b: int, step: int) -> list:
    """The two nearest (position, value) samples beyond sample b, leftward (``step`` -1) or rightward (+1).

    ``x`` is sorted; a repeated position is taken once.  Fewer than two
    are returned at the end of the bracket.
    """
    found, last, j = [], x[b], b + step
    while 0 <= j < len(x) and len(found) < 2:
        if x[j] != last:
            found.append((x[j], f[j]))
            last = x[j]
        j += step
    return found


def _secant_bound(x1: float, f1: float, x2: float, f2: float, level: float) -> float:
    """First position beyond sample x1, away from sample x2, where the profile can be at most ``level``.

    Beyond x1 the line through (x2, f2 + CONVEXITY_TOL) and (x1, f1 -
    CONVEXITY_TOL) lies below every convex function within CONVEXITY_TOL
    of both samples.  Returns where that line falls to ``level`` +
    CONVEXITY_TOL, or x1 if it starts below that or does not fall.
    """
    drop = f2 - f1 + 2.0 * CONVEXITY_TOL
    if not drop > 0.0:
        return x1
    return x1 + max((f1 - level - 2.0 * CONVEXITY_TOL) / drop, 0.0) * (x1 - x2)


def _cut(x: list, f: list, b: int, sign: float, whole: bool) -> tuple:
    """One bracket's next bracket and extra sample, from this step's sorted samples ``x``, ``f``.

    ``b`` is the best sample and ``sign`` the search's kind (see _search).
    With ``whole`` the positions are grid indices, and the results are
    rounded to indices: the ends outward, the extra sample towards the
    best one.  Returns (lo, hi, extra).
    """
    xb, fb = x[b], f[b]
    level = fb if sign == 0.0 else BOUNDARY_TOL
    left = _outward(x, f, b, -1) if sign >= 0.0 else []
    right = _outward(x, f, b, 1) if sign <= 0.0 else []
    # the cells around the best sample, or the cell outside it, cut to where
    # the secant beyond each allows the best value (or a feasible one)
    lo = left[0][0] if left else xb
    hi = right[0][0] if right else xb
    if len(left) == 2:
        lo = max(lo, min(_secant_bound(*left[0], *left[1], level), xb))
    if len(right) == 2:
        hi = min(hi, max(_secant_bound(*right[0], *right[1], level), xb))

    # minimum: where the two secants cross; edge: where the chord from the
    # last infeasible sample to the best one reaches BOUNDARY_TOL
    extra = xb
    if sign == 0.0 and len(left) == len(right) == 2:
        (xl1, fl1), (xl2, fl2) = left
        (xr1, fr1), (xr2, fr2) = right
        slope_l = (fl1 - fl2) / (xl1 - xl2)
        slope_r = (fr2 - fr1) / (xr2 - xr1)
        if slope_l < slope_r:
            extra = (fr1 - fl1 + slope_l * xl1 - slope_r * xr1) / (slope_l - slope_r)
    elif sign != 0.0 and (left or right):
        x1, f1 = (left or right)[0]
        if f1 > fb:
            extra = x1 + (xb - x1) * (f1 - BOUNDARY_TOL) / (f1 - fb)
    if not math.isfinite(extra):
        extra = xb
    if whole:
        lo, hi = math.floor(lo), math.ceil(hi)
        extra = math.ceil(extra) if sign > 0.0 else math.floor(extra) if sign < 0.0 else round(extra)
    return lo, hi, min(max(extra, lo), hi)


def _search(
    profile: _Profile, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray, tol: float, grid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink brackets [lo, hi] to at most ``tol``, one profile call per step.

    Each step samples every bracket at _CELLS + 1 evenly spaced positions
    and, after the first step, at one more: gammas, or with ``grid``
    indices into that array of gammas, rounded down.  With ``sign`` 0 the
    best sample has the lowest profile value, and the two cells around it
    hold the minimum of the convex profile.  With ``sign`` +1 (-1) the best
    sample is the lowest (highest) feasible position, and the cell outside
    it holds the lower (upper) edge of the feasible interval; such a
    bracket needs a feasible position at its inner end.

    The step keeps that part of those cells that the samples beyond them
    do not rule out.  A line through two samples of a convex profile lies
    below it outside the segment between them, so the secant through the
    two nearest samples beyond a kept cell bounds the profile in the cell
    from below.  Where that bound exceeds the best value (sign 0) or
    BOUNDARY_TOL (sign +-1), no gamma can be the minimum or feasible, and
    the cell is cut there; the bound is lowered by CONVEXITY_TOL for
    roundoff, and a cut on grid indices is rounded outward.  The next
    step's extra sample is where the two secants cross (sign 0), the
    lowest point of their maximum, or where the chord from the infeasible
    neighbour to the best sample reaches BOUNDARY_TOL (sign +-1), which is
    feasible because a chord lies above the profile.  Near a kink or an
    edge crossed at a slope the bracket so shrinks superlinearly, and no
    step keeps more than its two cells, a sixteenth of the bracket.  With
    ``grid`` and ``tol`` _CELLS the last step samples every index of its
    bracket, so it returns the grid's own minimum or edge.  Returns each
    bracket's best sample: its position, profile value and minimax point,
    shapes (n,), (n,), (n, 2).
    """
    rows = np.arange(lo.size)
    whole = grid is not None
    extra = None
    for _ in range(64):  # each step shrinks every bracket at least 16-fold
        last = np.max(hi - lo) <= tol
        if last and whole:
            # every index once, the end repeated in a shorter bracket
            at = lo[:, None] + np.minimum(np.arange(np.max(hi - lo) + 1), (hi - lo)[:, None])
        else:
            at = lo[:, None] + (hi - lo)[:, None] * _STEPS
            at[:, -1] = hi
            if extra is not None:
                at = np.concatenate((at, extra[:, None]), axis=1)
                at.sort(axis=1)
            if whole:
                at = at.astype(np.intp)  # exact: integer ends, dyadic steps
        values, points = profile((grid[at] if whole else at).ravel())
        values = values.reshape(at.shape)
        key = np.where(
            sign[:, None] == 0.0,
            values,
            np.where(values <= BOUNDARY_TOL, sign[:, None] * at, np.inf),
        )
        best = key.argmin(axis=1)
        if last:
            break
        cuts = [_cut(*row, whole) for row in zip(at.tolist(), values.tolist(), best.tolist(), sign.tolist())]
        lo, hi, extra = np.array(cuts, dtype=at.dtype).T
    return at[rows, best], values[rows, best], points[rows * at.shape[1] + best]


class OracleResult(NamedTuple):
    """Outcome of a gamma scan, as a named tuple.

    ``margin`` is the minimum over gamma of the best max constraint
    violation: negative means feasible with that much slack, positive means
    infeasible by that much.  The certificate (gamma, point) and the refined
    feasible gamma interval are present when coexistent.  ``kernel_calls``
    and ``columns`` are the work done: minimax kernel calls and the gammas
    they evaluated.
    """

    coexistent: bool
    margin: float
    gamma: float | None = None
    point: tuple[float, float] | None = None
    gamma_lo: float | None = None
    gamma_hi: float | None = None
    kernel_calls: int = 0
    columns: int = 0


def oracle_scan(p: RelativePair) -> OracleResult:
    """Scan gamma over [0, min(alpha, beta)] and decide feasibility.

    Each disk's violation ``||g - c_i|| - r_i(gamma)`` is jointly convex in
    ``(g, gamma)``, because its radius is linear in gamma.  So is their
    maximum, and minimizing that over g leaves a convex function of gamma,
    the violation profile.  Its feasible set, where it is at most
    ``BOUNDARY_TOL``, is therefore an interval, and the grid of
    ``GRID_STEPS`` steps is searched, not evaluated (_search): each step
    samples 33 grid indices, keeps the cells next to the best one and cuts
    away what the secants through the samples beyond them, which lie below
    a convex profile, rule out, until it holds the grid minimum; when that
    is feasible the same search, on the feasibility of each sample, finds
    the first and last feasible grid gammas.  On a flat minimum the search
    keeps a sample within roundoff of the lowest grid value, not
    necessarily its first index.  When no grid gamma is feasible, a bracket
    search around the grid minimum refines it to ``MINIMUM_TOL`` and
    catches intervals thinner than the grid step.  The same search then
    closes on both interval edges from their grid brackets, to
    ``ENDPOINT_TOL``.
    Returns the smallest profile value found as the margin and, when it is
    feasible, its gamma, the minimax point of the same kernel evaluation
    (the certificate) and the interval edges, with the work done.
    """
    gmax = min(p.alpha, p.beta)
    gammas = np.linspace(0.0, gmax, GRID_STEPS + 1) if gmax > 0.0 else np.array([0.0])
    last = gammas.size - 1
    profile = _Profile(p)
    (k,), (margin,), (point,) = _search(profile, np.array([0]), np.array([last]), np.zeros(1), _CELLS, gammas)
    on_grid = margin <= BOUNDARY_TOL
    margin, g_best, point = float(margin), float(gammas[k]), tuple(point.tolist())
    if not on_grid and last > 0:
        lo, hi = gammas[[max(k - 1, 0)]], gammas[[min(k + 1, last)]]
        (g_ref,), (v_ref,), (p_ref,) = _search(profile, lo, hi, np.zeros(1), MINIMUM_TOL)
        if v_ref < margin:
            margin, g_best, point = float(v_ref), float(g_ref), tuple(p_ref.tolist())
    if margin > BOUNDARY_TOL:
        return OracleResult(False, margin, kernel_calls=profile.calls, columns=profile.columns)

    # each edge is bracketed by the outermost feasible gamma found and the
    # grid gamma beyond it; the bracket is empty at 0 or gmax
    first = final = k
    if on_grid:
        edges = _search(profile, np.array([0, k]), np.array([k, last]), np.array([1.0, -1.0]), _CELLS, gammas)
        first, final = edges[0]
    found = gammas[[first, final]] if on_grid else np.array([g_best, g_best])
    lo = np.array([gammas[max(first - 1, 0)], found[1]])
    hi = np.array([found[0], gammas[min(final + 1, last)]])
    (g_lo, g_hi), _, _ = _search(profile, lo, hi, np.array([1.0, -1.0]), ENDPOINT_TOL)
    return OracleResult(True, margin, g_best, point, float(g_lo), float(g_hi), profile.calls, profile.columns)


def oracle_coexistent(A: BlochEffect, B: BlochEffect) -> OracleResult:
    """Decide coexistence of two effects by brute-force disk feasibility."""
    pair, _ = relative_pair(A, B)
    return oracle_scan(pair)

