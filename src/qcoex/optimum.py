"""The non-coexistent optimum of the oracle's disk system in closed form, with a dual bound.

The oracle asks for a first outcome (gamma, g) that lies in four disks, of
centers c = (0, a, b, a + b) and radii r_i = k_i + s_i gamma, with
k = (0, alpha, beta, 2 - alpha - beta) and s = (1, -1, -1, 1).  The
violations h_i = |g - c_i| - r_i are jointly convex in (g, gamma).
Minimizing their maximum over gamma leaves (P(g) + M(g)) / 2 at gamma =
(P - M) / 2, with P = max(h_0, h_3) and M = max(h_1, h_2) taken at gamma 0.
Where the pair is not coexistent, all four violations are equal at the
optimum, so g lies on the hyperbola |g - c_3| - |g| = 2 - alpha - beta and
on |g - c_1| - |g - c_2| = alpha - beta.  Both are centred at (a + b) / 2,
and their crossings come from square roots alone.

Weights l >= 0 on the four violations with sum(l_i s_i) = 0 and
sum(l_i u_i) = 0, for unit vectors u_i, bound the largest violation from
below everywhere (Farkas; Wolf, Perez-Garcia & Fernandez, PRL 103, 230402,
2009): by |g - c_i| >= u_i . (g - c_i), every (g, gamma) has max_i h_i >=
sum_i l_i h_i >= -sum_i l_i (u_i . c_i + k_i).  With u_i the unit vectors
from the centers to the optimum that bound meets the optimum's value.  This
module makes no arrays, so it loads no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bloch import RelativePair

__all__ = ["Optimum", "closed_form_optimum", "violation_at"]

# d h_i / d gamma: the radii of disks 0 and 3 grow with gamma, 1 and 2 shrink
_SLOPES = (-1.0, 1.0, 1.0, -1.0)


class Optimum(NamedTuple):
    """The closed-form optimum of a pair's four violations and its dual bound.

    ``violation`` is the largest violation at ``(gamma, point)``, an upper
    bound on the least largest violation; ``bound``, from the positive
    ``weights`` (sum 1), is a lower bound on it over every (g, gamma).
    """

    gamma: float
    point: tuple[float, float]
    violation: float
    weights: tuple[float, float, float, float]
    bound: float


def _crossing_lines(h1: tuple, h2: tuple) -> list[tuple[float, float]]:
    """Directions of the lines through the common centre that hold every crossing of two hyperbolas.

    A hyperbola ``(dx, dy, dd, s)`` is | |x - d/2| - |x + d/2| | = delta about
    the centre, that is x^T Q x = rho with Q = d d^T - dd I, dd = delta^2,
    rho = dd s / 4 and s = |d|^2 - dd.  With dd = 0 it is the bisector
    x . d = 0, and that line is returned.  Otherwise every crossing has x^T (rho_2 Q_1 - rho_1 Q_2) x = 0,
    and that form divided by dd_1 dd_2 / 4 is W = w_1 d_1 d_1^T - w_2 d_2 d_2^T
    + c I, with w_1 = s_2 / dd_1, w_2 = s_1 / dd_2 and c = s_1 - s_2.  Its
    lines are real where -det W >= 0, and -det W = w_1 w_2 (d_1 x d_2)^2 -
    c (w_1 |d_1|^2 - w_2 |d_2|^2) - c^2 is taken from those factors, not from
    W's entries, which cancel when a delta is small.  Returns two
    directions, one, or none where W is definite.
    """
    (d1x, d1y, dd1, s1), (d2x, d2y, dd2, s2) = h1, h2
    if dd1 == 0.0:
        return [(-d1y, d1x)]
    if dd2 == 0.0:
        return [(-d2y, d2x)]
    w1, w2, c = s2 / dd1, s1 / dd2, s1 - s2
    cross = d1x * d2y - d1y * d2x
    disc = w1 * w2 * cross * cross - c * (w1 * (d1x * d1x + d1y * d1y) - w2 * (d2x * d2x + d2y * d2y)) - c * c
    if disc < 0.0:
        return []
    w00 = w1 * d1x * d1x - w2 * d2x * d2x + c
    w01 = w1 * d1x * d1y - w2 * d2x * d2y
    w11 = w1 * d1y * d1y - w2 * d2y * d2y + c
    # the roots of w00 x^2 + 2 w01 x y + w11 y^2 = 0 without cancellation
    t = -(w01 + math.copysign(math.sqrt(disc), w01))
    return [v for v in ((t, w00), (w11, t)) if v != (0.0, 0.0)]


def _det(u: tuple, v: tuple, w: tuple) -> float:
    """The determinant of the 3x3 matrix with columns u, v, w."""
    return u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0]) + u[2] * (v[0] * w[1] - v[1] * w[0])


def violation_at(p: RelativePair, gx: float, gy: float) -> tuple[float, float, tuple[float, float, float, float]]:
    """The largest of the four violations at point g and its best gamma, that gamma, and the distances |g - c_i|.

    At gamma = (P - M) / 2 the violations whose radius grows with gamma fall
    to P - gamma and the others rise to M + gamma, which meet at (P + M) / 2.
    Where that is at most 0, every violation is, so the pair is coexistent
    with that gamma, and the gamma lies in [0, min(alpha, beta)]: h_0 <= 0
    gives gamma >= |g|, h_1 <= 0 and h_2 <= 0 give gamma <= alpha and beta.
    """
    alpha, a, beta, bx, by = p
    e0 = math.hypot(gx, gy)
    e1 = math.hypot(gx - a, gy)
    e2 = math.hypot(gx - bx, gy - by)
    e3 = math.hypot(gx - (a + bx), gy - by)
    h1, h2, h3 = e1 - alpha, e2 - beta, e3 - (2.0 - alpha - beta)
    gamma = (max(e0, h3) - max(h1, h2)) / 2.0
    return max(e0 - gamma, h1 + gamma, h2 + gamma, h3 - gamma), gamma, (e0, e1, e2, e3)


def closed_form_optimum(p: RelativePair) -> Optimum | None:
    """The crossing of the two hyperbolas with the least largest violation, and its dual bound.

    The crossings lie on at most two lines through the common centre
    (_crossing_lines), and a line x = t v meets a hyperbola where
    t^2 v^T Q v = rho, which each hyperbola is asked in turn.  At each point
    found, gamma = (P - M) / 2 (violation_at), and the first point with the
    lowest largest violation there is kept.  The weights are the null vector
    of the 3x4 matrix of the violations' gradients in (g, gamma), (u_i,
    -s_i), scaled to sum 1.  Returns None when no crossing exists, the point
    sits on a center, or a weight is not positive: the pair's optimum is
    then not of this kind.  Nothing here checks gamma against [0, min(alpha,
    beta)].
    """
    alpha, a, beta, bx, by = p
    centers = ((0.0, 0.0), (a, 0.0), (bx, by), (a + bx, by))
    k = (0.0, alpha, beta, 2.0 - alpha - beta)
    mx, my = (a + bx) / 2.0, by / 2.0
    hyperbolas = []
    for dx, dy, delta in ((a + bx, by, k[3]), (a - bx, -by, alpha - beta)):
        dd = delta * delta
        hyperbolas.append((dx, dy, dd, dx * dx + dy * dy - dd))

    best = None
    for vx, vy in _crossing_lines(*hyperbolas):
        for dx, dy, dd, s in hyperbolas:
            vd = vx * dx + vy * dy
            n = vd * vd - dd * (vx * vx + vy * vy)
            if n != 0.0 and (t2 := dd * s / 4.0 / n) >= 0.0:
                t = math.sqrt(t2)
                for g in ((mx + t * vx, my + t * vy), (mx - t * vx, my - t * vy)):
                    found = violation_at(p, *g)
                    if best is None or found[0] < best[0]:
                        best = (*found, g)
    if best is None:
        return None
    value, gamma, e, g = best
    if 0.0 in e:
        return None
    u = [((g[0] - cx) / d, (g[1] - cy) / d) for (cx, cy), d in zip(centers, e)]
    cols = [(ux, uy, w) for (ux, uy), w in zip(u, _SLOPES)]
    null = (
        _det(cols[1], cols[2], cols[3]),
        -_det(cols[0], cols[2], cols[3]),
        _det(cols[0], cols[1], cols[3]),
        -_det(cols[0], cols[1], cols[2]),
    )
    total = math.fsum(null)
    if total == 0.0:
        return None
    weights = tuple(x / total for x in null)
    if not min(weights) > 0.0:
        return None
    bound = -math.fsum(w * (ux * cx + uy * cy + ki) for w, (ux, uy), (cx, cy), ki in zip(weights, u, centers, k))
    return Optimum(gamma, g, value, weights, bound)
