"""Reference computations made apart from qcoex, used to check its outputs.

Nothing here imports qcoex.  Effects are plain ``(alpha, avec)`` pairs with
``E = (alpha * I + avec . sigma) / 2``.  The coexistence reference is the
closed form of Yu, Liu, Li and Oh (equivalent to Busch & Schmidt,
arXiv:0802.4167), evaluated in mpmath; it shares no formula with the
C1/C2/C3 classification under test.  The restricted-interval formulas
(``b0``, ``w``, ``by_max``) are re-derived in mpmath only to place inputs
and to check boundary curves.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

# Tolerances of the checks, as the program states them: witness outcomes
# within 1e-9 of [0, 1], marginal and total sums within 1e-12.
PSD_TOL = 1e-9
SUM_TOL = 1e-12
# Oracle certificates must lie in every disk up to this slack; the
# benchmark's own reduced coordinates differ from the program's by roundoff.
DISK_TOL = 1e-9


def _mpvec(v):
    return [mp.mpf(float(x)) for x in v]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _norm(u):
    return mp.sqrt(_dot(u, u))


def sharpness(alpha, a):
    """Sharpness S(alpha, a) in mpmath; 1 - S is the squared Busch-Schmidt F."""
    alpha = mp.mpf(alpha)
    a = mp.mpf(a)
    arg = (alpha * alpha - a * a) * ((2 - alpha) ** 2 - a * a)
    return (a * a + alpha * (2 - alpha) - mp.sqrt(max(arg, 0))) / 2


def coexistence_margin(alpha, avec, beta, bvec):
    """Signed closed-form margin; >= 0 exactly when the effects coexist.

    Uses (a.b - (alpha-1)(beta-1))^2 - (1 - F_A^2 - F_B^2)
    (1 - (alpha-1)^2 / F_A^2 - (beta-1)^2 / F_B^2) with F^2 = 1 - S.  A sharp
    projection (F = 0) coexists only with effects that commute with it,
    so the margin is then minus the length of a x b.
    """
    alpha = mp.mpf(float(alpha))
    beta = mp.mpf(float(beta))
    av = _mpvec(avec)
    bv = _mpvec(bvec)
    fa2 = 1 - sharpness(alpha, _norm(av))
    fb2 = 1 - sharpness(beta, _norm(bv))
    if fa2 == 0 or fb2 == 0:
        return -_norm(_cross(av, bv))
    left = (1 - fa2 - fb2) * (1 - (alpha - 1) ** 2 / fa2 - (beta - 1) ** 2 / fb2)
    return (_dot(av, bv) - (alpha - 1) * (beta - 1)) ** 2 - left


def busch_coexistent(avec, bvec) -> bool:
    """Busch (1986): unbiased effects (alpha = beta = 1) coexist iff
    ||a + b|| + ||a - b|| <= 2."""
    av = _mpvec(avec)
    bv = _mpvec(bvec)
    plus = _norm([x + y for x, y in zip(av, bv)])
    minus = _norm([x - y for x, y in zip(av, bv)])
    return plus + minus <= 2


def molnar_coexistent(lam, u, mu, v) -> bool:
    """Scaled projections lam * P_u and mu * P_v (u, v unit Bloch vectors)
    coexist iff they commute or lam + mu <= 1 + lam mu (1 - |<u|v>|^2),
    where |<u|v>|^2 = (1 + u.v) / 2."""
    uv = _mpvec(u)
    vv = _mpvec(v)
    if _norm(_cross(uv, vv)) == 0:
        return True
    lam = mp.mpf(float(lam))
    mu = mp.mpf(float(mu))
    overlap = (1 + _dot(uv, vv)) / 2
    return lam + mu <= 1 + lam * mu * (1 - overlap)


# ---- restricted interval and boundary, for placing inputs and checking curves


def restricted_interval(alpha, a, beta):
    """(b0, w) of the restricted direction interval, or None when unrestricted."""
    alpha, a, beta = mp.mpf(alpha), mp.mpf(a), mp.mpf(beta)
    if a == 0 or beta <= 1 - sharpness(alpha, a):
        return None
    disc = (1 - alpha) ** 2 - beta * ((1 - alpha) ** 2 + 1 - a * a) + beta * beta
    return (1 - alpha) * (1 - beta) / a, mp.sqrt(max(disc, 0)) / a


def by_max(alpha, a, beta, bx):
    """Largest allowed perpendicular component inside the restricted interval."""
    alpha, a, beta, bx = mp.mpf(alpha), mp.mpf(a), mp.mpf(beta), mp.mpf(bx)
    b0 = (1 - alpha) * (1 - beta) / a
    t = a * (bx - b0)
    q1 = ((2 - alpha) ** 2 - a * a) * (a * a - (t + 1 - beta) ** 2)
    q2 = (alpha * alpha - a * a) * (a * a - (t - (1 - beta)) ** 2)
    return (mp.sqrt(max(q1, 0)) + mp.sqrt(max(q2, 0))) / (2 * a)


def boundary_radius(alpha, a, beta, bx):
    """Largest allowed ||b|| at direction component bx."""
    iv = restricted_interval(alpha, a, beta)
    if iv is None or abs(mp.mpf(bx) - iv[0]) >= iv[1]:
        return mp.mpf(beta)
    return mp.sqrt(mp.mpf(bx) ** 2 + by_max(alpha, a, beta, bx) ** 2)


def curve_normal_offset(alpha, a, beta, bx, delta):
    """Point at signed distance delta from the restricted curve at bx.

    Positive delta moves outward (larger by), out of the allowed region.
    """
    f = lambda x: by_max(alpha, a, beta, x)
    x = mp.mpf(bx)
    y = f(x)
    slope = mp.diff(f, x)
    n = mp.sqrt(1 + slope * slope)
    return x - delta * slope / n, y + delta / n


def threshold_excess(alpha, a, depth):
    """beta just above 1 - S(A) at which the full-length point at bx = b0
    lies ``depth`` outside the restricted curve (found by bisection)."""
    depth = mp.mpf(depth)
    base = 1 - sharpness(alpha, a)

    def gap(eps):
        beta = base + eps
        b0, _ = restricted_interval(alpha, a, beta)
        if abs(b0) >= beta:
            return None
        return mp.sqrt(beta * beta - b0 * b0) - by_max(alpha, a, beta, b0)

    lo, hi = mp.mpf(0), mp.mpf("1e-6")
    while True:
        if base + hi > 1:
            return None
        g = gap(hi)
        if g is None:
            return None
        if g > depth:
            break
        lo, hi = hi, 2 * hi
    for _ in range(80):
        mid = (lo + hi) / 2
        g = gap(mid)
        if g is None:
            return None
        if g > depth:
            hi = mid
        else:
            lo = mid
    return base + hi


# ---- benchmark-built operators


def effect_matrix(alpha, avec) -> np.ndarray:
    """2x2 matrix (alpha I + a.sigma) / 2, built without qcoex."""
    x, y, z = (float(v) for v in avec)
    alpha = float(alpha)
    return 0.5 * np.array([[alpha + z, x - 1j * y], [x + 1j * y, alpha - z]])


def hermitian_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix from trace and discriminant."""
    t = 0.5 * float((m[0, 0] + m[1, 1]).real)
    d = math.hypot(0.5 * float((m[0, 0] - m[1, 1]).real), abs(m[0, 1]))
    return t - d, t + d


def joint_observable_error(A, B, outcomes) -> str | None:
    """Why four (alpha, avec) outcomes are not a joint observable of A and B.

    Each outcome must have eigenvalues in [-PSD_TOL, 1 + PSD_TOL]; the four
    must sum to the identity and G1 + G2, G1 + G3 must reproduce A and B,
    all within SUM_TOL entrywise.  Returns None when every condition holds.
    """
    mats = [effect_matrix(alpha, avec) for alpha, avec in outcomes]
    for k, m in enumerate(mats):
        lo, hi = hermitian_eigenvalues(m)
        if lo < -PSD_TOL or hi > 1.0 + PSD_TOL:
            return f"outcome G{k + 1} has eigenvalues ({lo!r}, {hi!r})"
    checks = (
        ("G1+G2+G3+G4 - I", mats[0] + mats[1] + mats[2] + mats[3] - np.eye(2)),
        ("G1+G2 - A", mats[0] + mats[1] - effect_matrix(*A)),
        ("G1+G3 - B", mats[0] + mats[2] - effect_matrix(*B)),
    )
    for name, diff in checks:
        err = float(np.abs(diff).max())
        if err > SUM_TOL:
            return f"{name} is {err:.3e} off"
    return None


# ---- canonical plane, for oracle certificates


def canonical_plane(A, B) -> tuple[float, float, float, float, float]:
    """(alpha, a, beta, bx, by) after complementing trace coefficients above 1.

    The perpendicular part uses the cross product, so it keeps its digits
    for nearly parallel vectors.
    """
    (alpha, av), (beta, bv) = A, B
    av = np.asarray(av, dtype=float)
    bv = np.asarray(bv, dtype=float)
    if alpha > 1.0:
        alpha, av = 2.0 - alpha, -av
    if beta > 1.0:
        beta, bv = 2.0 - beta, -bv
    a = float(np.linalg.norm(av))
    if a == 0.0:
        return alpha, 0.0, beta, float(np.linalg.norm(bv)), 0.0
    return (
        alpha,
        a,
        beta,
        float(np.dot(av, bv)) / a,
        float(np.linalg.norm(np.cross(av, bv))) / a,
    )


def disk_excess(plane, gamma: float, point) -> float:
    """Largest distance by which the point lies outside the four disks."""
    alpha, a, beta, bx, by = plane
    centers = ((0.0, 0.0), (a, 0.0), (bx, by), (a + bx, by))
    radii = (gamma, alpha - gamma, beta - gamma, 2.0 + gamma - alpha - beta)
    return max(
        math.hypot(point[0] - cx, point[1] - cy) - r for (cx, cy), r in zip(centers, radii)
    )
