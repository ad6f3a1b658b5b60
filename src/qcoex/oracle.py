"""Brute-force coexistence oracle: feasibility of four gamma-dependent disks.

A pair is coexistent exactly when, for some admissible gamma, the four planar
disks encoding the operator constraints on the shared first outcome have a
common point.  The feasibility test per gamma is exact and finite: the
smallest largest violation over the four disks is attained at a disk
center, at a balance point between two centers or at a triple point where
three violations are equal, and only these candidates are built.  One
array kernel (_minimax) evaluates that test for many gammas of a pair at
once: ``oracle_scan`` runs its searches for the profile minimum and the
feasible interval's edges in one loop of shared kernel calls, and
``disks_feasible(pair, gamma)`` asks it about one gamma.  The kernel's
per-pair constants (_geometry) are formed on Python floats and the kernel
itself makes elementwise array operations only, so no BLAS kernel, which
numpy picks for the host at run time, decides a bit of a scan.  The oracle
shares no formulas with the closed-form classification.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bloch import BlochEffect, RelativePair, _add_square, relative_pair
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

    Returns the kernel's operands, already sliced: the centers' coordinates
    (2, 4, 1) and (2, 4, 1, 1); for the n pairs of distinct centers, indices
    i, j (2, n), distance (n, 1), c_i and the unit vector to c_j (2, n, 1);
    for the t triples of non-collinear centers, indices i, j, k (3, t), det M
    times the columns of M^-1, (m11, -m10) and (-m01, m00), (2, 2, t, 1), det
    M (t, 1), c_i and (|c_j|^2 - |c_i|^2, |c_k|^2 - |c_i|^2) (2, t, 1), where
    M is the matrix of the triple's linear system; and n and t.

    They are formed on Python floats, each squared length x^2 + y^2 as
    ``fma(y, y, x*x)`` (``bloch._add_square``), so no BLAS kernel, which the
    host picks at run time, decides their bits.
    """
    c = centers.tolist()
    squares = [_add_square(y, x * x) for x, y in c]
    pairs, balance = [], []
    for i, j in _PAIRS:
        (xi, yi), (xj, yj) = c[i], c[j]
        dx, dy = xj - xi, yj - yi
        d = math.sqrt(_add_square(dy, dx * dx))
        if d != 0.0:
            pairs.append((i, j))
            balance.append((xi, yi, dx / d, dy / d, d))
    triples, systems = [], []
    for i, j, k in _TRIPLES:
        # ||g - c|| - r = t for three disks is linear in g given t and
        # quadratic in t, the classical tangent-circle construction
        (xi, yi), (xj, yj), (xk, yk) = c[i], c[j], c[k]
        m00 = 2.0 * (xj - xi)
        m01 = 2.0 * (yj - yi)
        m10 = 2.0 * (xk - xi)
        m11 = 2.0 * (yk - yi)
        det = m00 * m11 - m01 * m10
        if abs(det) < DEGENERATE_TOL:
            continue
        triples.append((i, j, k))
        systems.append((xi, yi, m11, -m10, -m01, m00, det, squares[j] - squares[i], squares[k] - squares[i]))
    xy = centers.T[..., None]
    balance = np.array(balance).reshape(-1, 5).T[..., None]
    systems = np.array(systems).reshape(-1, 9).T[..., None]
    return (
        *(xy, xy[..., None], np.array(pairs, dtype=np.intp).reshape(-1, 2).T, balance[4], balance[:2], balance[2:4]),
        *(np.array(triples, dtype=np.intp).reshape(-1, 3).T, systems[2:6].reshape(2, 2, -1, 1), systems[6]),
        *(systems[:2], systems[7:9], len(pairs), len(triples)),
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
    one array operation over (x, y), candidates and columns, and writes
    them in place into one candidate array.  A triple's linear root is
    formed only when some column needs it, which moves no column's bits.
    Returns that minimum, shape (m,), and the point attaining it, (m, 2).
    """
    xy0, centers, pairs, dist0, start, unit, triples, inverse, det, base, shift, n_pairs, n_triples = geometry
    m = radii.shape[1]
    # candidates in order: centers, balance points, triple points, (2, c, m)
    xy = np.empty((2, 4 + n_pairs + 2 * n_triples, m))
    xy[:, :4] = xy0
    with np.errstate(invalid="ignore", divide="ignore"):
        # balance point on the segment between the centers, (2, n, m)
        r = radii[pairs]
        halfway = xy[:, 4 : 4 + n_pairs]
        np.multiply((dist0 + r[0] - r[1]) / 2.0, unit, out=halfway)
        halfway += start

        # triple points g = g0 + t g1, (2, t, m), with t a root of a quadratic;
        # g0 and g1 from one product (g0|g1, u1|u2, x|y, t, m) summed over
        # u1|u2: a sum over a length-2 axis is exactly a + b
        r = radii[triples]
        r2 = r * r
        u = np.empty((2, 2, n_triples, m))
        u[0] = shift + r2[0] - r2[1:]
        u[1] = 2.0 * (r[0] - r[1:])
        g = inverse * u[:, :, None]
        g0, g1 = (g[:, 0] + g[:, 1]) / det
        w0 = g0 - base
        gg, wg, ww = g1 * g1, w0 * g1, w0 * w0
        qa = gg[0] + gg[1] - 1.0
        qb = 2.0 * (wg[0] + wg[1] - r[0])
        qc = ww[0] + ww[1] - r2[0]
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        # both roots of each triple, (t, 2, m): the root with +sq first
        root = (_ROOTS * sq[:, None] - qb[:, None]) / (2.0 * qa)[:, None]
        linear = np.abs(qa) < DEGENERATE_TOL
        if linear.any():
            t_lin = np.where(np.abs(qb) > DEGENERATE_TOL, -qc / np.where(qb != 0.0, qb, 1.0), np.nan)
            root = np.where(linear[:, None], t_lin[:, None], root)
        triple = xy[:, 4 + n_pairs :].reshape(2, n_triples, 2, m)
        np.multiply(root, g1[:, :, None], out=triple)
        triple += g0[:, :, None]

    # the violations of every candidate, (4, c, m)
    dist = xy[:, None] - centers
    dist *= dist
    dist = dist[0] + dist[1]
    np.sqrt(dist, out=dist)
    dist -= radii[:, None]
    worst = dist.max(axis=0)
    worst[~np.isfinite(worst)] = np.inf
    best, cols = worst.argmin(axis=0), np.arange(m)
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
    """The bracket's next ends and extra sample, from this step's sorted samples ``x``, ``f``.

    ``b`` is the best sample and ``sign`` the search's kind (see _Search).
    With ``whole`` the positions are grid indices, and the results are
    rounded to indices: the ends outward, the extra sample to the nearest.
    Returns (lo, hi, extra).
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
    # last infeasible sample to the best one reaches halfway from the best
    # value (or 0) to BOUNDARY_TOL, inside the feasible side by more than
    # roundoff
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
            extra = x1 + (xb - x1) * (f1 - (max(fb, 0.0) + BOUNDARY_TOL) / 2.0) / (f1 - fb)
    if not math.isfinite(extra):
        extra = xb
    if whole:
        lo, hi, extra = math.floor(lo), math.ceil(hi), round(extra)
    return lo, hi, min(max(extra, lo), hi)


class _Search:
    """A bracket [lo, hi] shrunk to at most ``tol`` in steps, one sample set per step.

    Each step samples the bracket at _CELLS + 1 evenly spaced positions
    and, after the first step, at one more: gammas, or with ``grid``
    indices into that array of gammas, rounded down.  With ``sign`` 0 the
    best sample has the lowest profile value, and the two cells around it
    hold the minimum of the convex profile.  With ``sign`` +1 (-1) the best
    sample is the lowest (highest) feasible position, and the cell outside
    it holds the lower (upper) edge of the feasible interval; such a
    bracket needs a feasible position at its inner end, and its positions
    are gammas.

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
    neighbour to the best sample reaches halfway from the best value (or
    0) to BOUNDARY_TOL (sign +-1), which is feasible because a chord lies
    above the profile.  Near a kink or an edge crossed at a slope the
    bracket so shrinks superlinearly, and no step keeps more than its two
    cells, a sixteenth of the bracket.  With ``grid`` and ``tol`` _CELLS
    the last step samples every index of its bracket, so it returns the
    grid's own minimum.

    A step is split in two so that several searches can share a profile
    call (_step): ``gammas()`` gives the step's samples, and ``take`` the
    profile's values and points at them.  Because the kernel's columns are
    independent, a search takes the same path alone and shared.  After a
    step ``at`` and ``values`` hold its sample positions and values; when
    done, ``found`` holds the best sample's position, profile value and
    minimax point, shape (2,).
    """

    def __init__(self, lo: float, hi: float, sign: float, tol: float, grid: np.ndarray | None = None):
        self.lo, self.hi, self.sign, self.tol, self.grid = lo, hi, sign, tol, grid
        self.extra = None
        self.steps = 0
        self.found = None

    def gammas(self) -> np.ndarray:
        """This step's samples; their positions are kept as ``at``."""
        lo, hi, grid = self.lo, self.hi, self.grid
        self.last = hi - lo <= self.tol
        if self.last and grid is not None:
            at = np.arange(lo, hi + 1)  # every index once
        else:
            at = lo + (hi - lo) * _STEPS
            at[-1] = hi
            if self.extra is not None:
                at = np.append(at, self.extra)
                at.sort()
            if grid is not None:
                at = at.astype(np.intp)  # exact: integer ends, dyadic steps
        self.at = at
        return at if grid is None else grid[at]

    def take(self, values: np.ndarray, points: np.ndarray) -> None:
        """Cut the bracket from the profile at this step's samples, or keep ``found`` after the last step."""
        self.values = values
        if self.sign == 0.0:
            b = int(values.argmin())
        else:
            inside = np.flatnonzero(values <= BOUNDARY_TOL)
            b = int(inside[0] if self.sign > 0.0 else inside[-1])
        self.steps += 1
        if self.last or self.steps == 64:  # each step shrinks the bracket at least 16-fold
            self.found = self.at[b], values[b], points[b]
        else:
            self.lo, self.hi, self.extra = _cut(self.at.tolist(), values.tolist(), b, self.sign, self.grid is not None)

    def run(self, profile: _Profile) -> tuple:
        """Step this search alone until it is done; returns ``found``."""
        while self.found is None:
            _step(profile, [self])
        return self.found


def _step(profile: _Profile, searches: list) -> None:
    """One step of each search, the samples of all of them in one profile call."""
    if len(searches) == 1:
        searches[0].take(*profile(searches[0].gammas()))
        return
    parts = [s.gammas() for s in searches]
    values, points = profile(np.concatenate(parts))
    start = 0
    for s, part in zip(searches, parts):
        end = start + part.size
        s.take(values[start:end], points[start:end])
        start = end


class OracleResult(NamedTuple):
    """Outcome of a gamma scan, as a named tuple.

    ``margin`` is the minimum over gamma of the best max constraint
    violation: negative means feasible with that much slack, positive means
    infeasible by that much.  The certificate (gamma, point) and the refined
    feasible gamma interval are present when coexistent.  ``kernel_calls``
    and ``columns`` are the work done: minimax kernel calls and the gammas
    they evaluated.  A call that several searches share counts once, with
    the columns of all of them.
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
    ``GRID_STEPS`` steps is searched, not evaluated (_Search): each step
    samples 33 grid indices, keeps the cells next to the best one and cuts
    away what the secants through the samples beyond them, which lie below
    a convex profile, rule out, until it holds the grid minimum.  On a flat
    minimum the search keeps a sample within roundoff of the lowest grid
    value, not necessarily its first index.  When no grid gamma is
    feasible, a bracket search around the grid minimum refines it to
    ``MINIMUM_TOL`` and catches intervals thinner than the grid step.

    The first step of either minimum search that samples a feasible gamma
    settles the verdict.  Each interval edge then lies between the step's
    outermost feasible sample and the infeasible sample beyond it, and an
    edge search closes on it to ``ENDPOINT_TOL``.  Where that feasible
    sample ends the step's bracket, it is the edge, taken without a search:
    no gamma lies beyond the first step's bracket [0, gmax], and the cuts
    of earlier steps, where no sample was feasible, rule out feasible
    gammas beyond a later step's.  The scan is one loop: every step puts the
    samples of all searches still running, the minimum's and the edges',
    into one kernel call, and the kernel's columns are independent, so each
    search takes the path it takes alone.
    Returns the smallest profile value found as the margin and, when it is
    feasible, its gamma, the minimax point of the same kernel evaluation
    (the certificate) and the interval edges, with the work done.
    """
    gmax = min(p.alpha, p.beta)
    gammas = np.linspace(0.0, gmax, GRID_STEPS + 1) if gmax > 0.0 else np.array([0.0])
    last = gammas.size - 1
    profile = _Profile(p)
    grid = minimum = _Search(0, last, 0.0, _CELLS, gammas)
    searches, edges = [grid], None
    while running := [s for s in searches if s.found is None]:
        _step(profile, running)
        # the first feasible samples: the outermost ones and the infeasible
        # ones beyond them bracket the edges
        if edges is None and (inside := np.flatnonzero(minimum.values <= BOUNDARY_TOL)).size:
            x = (gammas[minimum.at] if minimum is grid else minimum.at).tolist()
            j0, j1 = inside[[0, -1]].tolist()
            edges = [
                x[j0] if j0 == 0 else _Search(x[j0 - 1], x[j0], 1.0, ENDPOINT_TOL),
                x[j1] if j1 == len(x) - 1 else _Search(x[j1], x[j1 + 1], -1.0, ENDPOINT_TOL),
            ]
            searches += [e for e in edges if isinstance(e, _Search)]
        # no grid gamma feasible: refine the grid minimum between its neighbours
        if minimum is grid and grid.found is not None and grid.found[1] > BOUNDARY_TOL and last > 0:
            k = grid.found[0]
            minimum = _Search(gammas[max(k - 1, 0)], gammas[min(k + 1, last)], 0.0, MINIMUM_TOL)
            searches.append(minimum)

    k, margin, point = grid.found
    margin, g_best, point = float(margin), float(gammas[k]), tuple(point.tolist())
    if minimum is not grid:
        g_ref, v_ref, p_ref = minimum.found
        if v_ref < margin:
            margin, g_best, point = float(v_ref), float(g_ref), tuple(p_ref.tolist())
    if margin > BOUNDARY_TOL:
        return OracleResult(False, margin, kernel_calls=profile.calls, columns=profile.columns)
    g_lo, g_hi = (float(e.found[0]) if isinstance(e, _Search) else e for e in edges)
    return OracleResult(True, margin, g_best, point, g_lo, g_hi, profile.calls, profile.columns)


def oracle_coexistent(A: BlochEffect, B: BlochEffect) -> OracleResult:
    """Decide coexistence of two effects by brute-force disk feasibility."""
    pair, _ = relative_pair(A, B)
    return oracle_scan(pair)

