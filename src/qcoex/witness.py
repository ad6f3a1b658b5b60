"""Constructive four-outcome observables with two prescribed marginals.

Coexistence of effects A and B is certified by a single effect G1 whose four
operator constraints (G1 >= 0, G1 <= A, G1 <= B, 1 + G1 >= A + B) hold; the
joint observable is then (G1, A - G1, B - G1, 1 + G1 - A - B).  Every
witness is checked where it is used: :func:`find_witness` checks its
candidate, and :func:`assemble_observable` checks the witness it is given.

One closed form builds G1 in the reduced pair's plane: the operator product
for commuting pairs, and otherwise a mixture of the witness at the top of the
allowed region (same bx, largest allowed by) with the commuting partner at
by = 0.  Nothing here calls the oracle, so the two check each other.

A witness is built on Python floats, with a complemented effect's vector
negated in place rather than a complement object made; its ``gvec``, like a
:class:`~qcoex.bloch.BlochEffect`'s ``avec``, is a tuple of three floats.
The check and :func:`assemble_observable` form the four outcome vectors on
floats too, and each length is the square root of the correctly rounded sum
of squares, so a residual is the same on every IEEE host.  Nothing here
imports numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .bloch import SHORT_LENGTH, BlochEffect, RelativePair, _scaled, relative_pair
from .coexist import C3, Verdict, classify
from .tolerance import BOUNDARY_TOL, DOMAIN_TOL, PSD_TOL

__all__ = [
    "InequalityReport",
    "Witness",
    "WitnessError",
    "WitnessObservable",
    "assemble_observable",
    "find_witness",
    "gamma_interval_2ci",
    "operator_inequalities_hold",
]


class WitnessError(RuntimeError):
    """Raised when a pair classified coexistent gets no valid witness."""


# the fields of Witness, whose __new__ coerces them
class _Witness(NamedTuple):
    gamma: float
    gvec: tuple[float, float, float]


class Witness(_Witness):
    """First outcome of a joint observable, as the named tuple (gamma, gvec).

    ``gamma`` is stored as a float and ``gvec`` as a tuple of three floats,
    as in :class:`~qcoex.bloch.BlochEffect`.  Satisfies
    0 <= ||gvec|| <= gamma <= 2 - ||gvec|| whenever it passes
    :func:`operator_inequalities_hold` for a valid pair.  Witnesses compare
    by value and are hashable.
    """

    __slots__ = ()

    def __new__(cls, gamma: float, gvec) -> Witness:
        x, y, z = gvec
        return tuple.__new__(cls, (float(gamma), (float(x), float(y), float(z))))


class WitnessObservable(NamedTuple):
    """Four effects with G1 + G2 = A, G1 + G3 = B and total sum the identity.

    ``report`` is the check of the operator constraints that admitted G1.
    Observables are named tuples (g1, g2, g3, g4, report); they compare by
    value and are hashable, and :meth:`effects` gives the four effects.
    """

    g1: BlochEffect
    g2: BlochEffect
    g3: BlochEffect
    g4: BlochEffect
    report: InequalityReport

    def effects(self) -> tuple[BlochEffect, BlochEffect, BlochEffect, BlochEffect]:
        return (self.g1, self.g2, self.g3, self.g4)


class InequalityReport(NamedTuple):
    """Residuals of the four operator constraints (each <= 0 when satisfied).

    Outcome k is (t_k + v_k . sigma) / 2, with least eigenvalue
    (t_k - ||v_k||) / 2, so it is positive semidefinite exactly when its
    residual ||v_k|| - t_k is at most 0.  ``holds`` is True when every
    residual is at most ``PSD_TOL``; a NaN residual never holds.
    """

    holds: bool
    residuals: tuple[float, float, float, float]


# 2**27 + 1: splits a float into two halves whose products are exact
_SPLIT = 134217729.0


def _length(x: float, y: float, z: float) -> float:
    """Square root of the correctly rounded x^2 + y^2 + z^2.

    Each square is the exact sum p + e of its float and its rounding error,
    from the component's halves (Veltkamp/Dekker), and ``math.fsum`` rounds
    the six terms once.  A vector shorter than ``SHORT_LENGTH`` is first
    scaled by a power of two, exactly, so that its squares do not underflow;
    a component far below the vector's length can still lose part of its
    square, at most 2**-100 of the sum.  Zero, non-finite lengths and
    lengths above 1 / ``SHORT_LENGTH``, which no outcome of a valid pair
    has, are ``math.hypot``'s.
    """
    n = math.hypot(x, y, z)
    k = 0
    if not SHORT_LENGTH <= n <= 1.0 / SHORT_LENGTH:
        if not 0.0 < n < SHORT_LENGTH:
            return n
        (x, y, z), _, k = _scaled((x, y, z), n)
    hx, hy, hz = _SPLIT * x, _SPLIT * y, _SPLIT * z
    hx, hy, hz = hx - (hx - x), hy - (hy - y), hz - (hz - z)
    lx, ly, lz = x - hx, y - hy, z - hz
    px, py, pz = x * x, y * y, z * z
    total = math.fsum((
        px, ((hx * hx - px) + 2.0 * hx * lx) + lx * lx,
        py, ((hy * hy - py) + 2.0 * hy * ly) + ly * ly,
        pz, ((hz * hz - pz) + 2.0 * hz * lz) + lz * lz,
    ))
    return math.ldexp(math.sqrt(total), -k)


def operator_inequalities_hold(A: BlochEffect, B: BlochEffect, wt: Witness) -> InequalityReport:
    """Check the four constraints making (gamma, gvec) a valid first outcome.

    The outcome vectors g, a - g, b - g and (a + b) - g and their traces are
    formed on floats, and each residual is ||vector|| - trace, with the
    length from the exact squares of its components summed by ``math.fsum``.
    A witness with a NaN or infinite entry gets a NaN or infinite residual
    and does not hold; no witness makes the check raise.
    """
    gamma = wt.gamma
    (gx, gy, gz), (ax, ay, az), (bx, by, bz) = wt.gvec, A.avec, B.avec
    residuals = (
        _length(gx, gy, gz) - gamma,
        _length(ax - gx, ay - gy, az - gz) - (A.alpha - gamma),
        _length(bx - gx, by - gy, bz - gz) - (B.alpha - gamma),
        _length(ax + bx - gx, ay + by - gy, az + bz - gz) - (2.0 + gamma - A.alpha - B.alpha),
    )
    return InequalityReport(all(r <= PSD_TOL for r in residuals), residuals)


def gamma_interval_2ci(p: RelativePair) -> tuple[float, float] | None:
    """Admissible gamma interval for pairs whose second vector has full length.

    Requires b = beta (the second vector at its maximal length) to within
    ``DOMAIN_TOL``.  Returns
    [max(gamma_lo, 0), min(gamma_hi, min(alpha, beta))] when nonempty, None
    when the pair is not coexistent at full length.

    Raises:
        ValueError: off the b = beta domain, or where a bound divides by 0:
            b parallel to a = alpha, or antiparallel sharp projections.
    """
    b = p.b
    if abs(b - p.beta) > DOMAIN_TOL:
        raise ValueError(f"requires ||b|| = beta: got b={b!r}, beta={p.beta!r}")
    # alpha beta - a bx as a sum of terms that keep their digits when b is
    # nearly parallel to a = alpha
    den_hi = p.alpha * (p.beta - p.bx) + (p.alpha - p.a) * p.bx
    den_lo = den_hi - 2.0 * p.beta
    if den_hi == 0.0 or den_lo == 0.0:
        raise ValueError("degenerate parallel case with a = alpha")
    g_hi = 0.5 * p.beta * (p.alpha * p.alpha - p.a * p.a) / den_hi
    g_lo = (
        0.5
        * p.beta
        * ((2.0 - p.alpha - p.beta) ** 2 - ((p.a + p.bx) ** 2 + p.by * p.by))
        / den_lo
    )
    if g_hi - g_lo < -BOUNDARY_TOL:
        return None
    lo = max(g_lo, 0.0)
    hi = min(g_hi, min(p.alpha, p.beta))
    return lo, max(hi, lo)


def _commuting_witness(p: RelativePair) -> tuple[float, float, float]:
    # product of two commuting effects as the first outcome: the witness of
    # the by = 0 partner, from alpha, a, beta and bx only
    gamma = 0.5 * (p.alpha * p.beta + p.a * p.bx)
    gx = 0.5 * (p.alpha * p.bx + p.beta * p.a)
    return gamma, gx, 0.0


def _full_length_witness(p: RelativePair, by: float) -> tuple[float, float, float]:
    # witness of the pair moved to (bx, by) on the circle; of p it reads
    # alpha, a, beta and bx only.  G1 = gamma (1 + b.sigma / beta) / 2 makes
    # G1 >= 0 and G1 <= B tight at full length; gamma gives G1 <= A and
    # 1 + G1 >= A + B equal slack in |centre distance|^2 - radius^2.  That
    # point lies in gamma_interval_2ci when the interval is nonempty, and it
    # needs no division, so it keeps its digits where the interval's bounds
    # do not (b nearly parallel to a)
    gamma = 0.25 * (
        (p.alpha - p.a) * (p.alpha + p.a)
        + (p.a + p.bx) ** 2
        + by * by
        - (2.0 - p.alpha - p.beta) ** 2
    )
    gamma = min(max(gamma, 0.0), p.alpha, p.beta)
    b = math.hypot(p.bx, by)
    return gamma, gamma * p.bx / b, gamma * by / b


def _curve_witness(p: RelativePair) -> tuple[float, float, float]:
    # coincident circle-crossing point on the restricted boundary; it reads
    # alpha, a, beta and bx only, so it is the witness at by = by_max
    gamma = 0.5 * (p.a * p.bx + p.alpha * p.beta - 2.0 * (1.0 - p.alpha) * (1.0 - p.beta))
    gx = (p.alpha * (2.0 * gamma - p.alpha) + p.a * p.a) / (2.0 * p.a)
    # gamma - gx = (alpha - a)(alpha + a - 2 gamma) / (2a), with alpha + a - 2 gamma
    # as a sum of terms that keeps its digits at the tip bx = beta
    below = (
        (p.alpha - p.a)
        * (p.a * (p.beta - p.bx) + (1.0 - p.beta) * (2.0 - p.alpha + p.a))
        / (2.0 * p.a)
    )
    gy = math.sqrt(max(below * (gamma + gx), 0.0))
    return gamma, gx, gy


def _mix(w1, w2, lam: float) -> tuple[float, float, float]:
    return tuple(lam * x + (1.0 - lam) * y for x, y in zip(w1, w2))


def _closed_form(p: RelativePair, verdict: Verdict) -> tuple[float, float, float]:
    """Witness in the canonical plane (see find_witness).

    Every constraint is linear in (G1, A, B) jointly, so mixing the witnesses
    of the top pair and of its by = 0 partner gives one for the pair between.
    """
    partner = _commuting_witness(p)
    if p.a == 0.0 or p.by == 0.0:
        return partner
    if verdict.regime == C3:
        top = verdict.by_max
        if top <= 0.0:
            return partner
        candidate = _curve_witness(p)
    else:
        # a pair above the circle by roundoff is its own top
        top = max(math.sqrt(max((p.beta - p.bx) * (p.beta + p.bx), 0.0)), p.by)
        candidate = _full_length_witness(p, top)
    return _mix(candidate, partner, min(p.by / top, 1.0))


def _any_unit_perpendicular(u: list[float]) -> list[float]:
    # u x e_k for the axis e_k of u's smallest component
    k = min(range(3), key=lambda i: abs(u[i]))
    w = [0.0, 0.0, 0.0]
    w[k] = 1.0
    v = [
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    ]
    n = math.hypot(*v)
    return [x / n for x in v]


def _plane_basis(avec: Sequence[float], bvec: Sequence[float]) -> tuple[list[float], list[float]]:
    """Orthonormal basis of the span of the two Bloch vectors."""
    # a short vector is scaled first, so that its direction keeps its digits
    a, b = math.hypot(*avec), math.hypot(*bvec)
    if a < SHORT_LENGTH:
        avec, a, _ = _scaled(avec, a)
    if b < SHORT_LENGTH:
        bvec, b, _ = _scaled(bvec, b)
    if a > 0.0:
        e1 = [x / a for x in avec]
    else:
        e1 = [x / b for x in bvec] if b > 0.0 else [1.0, 0.0, 0.0]
    along = bvec[0] * e1[0] + bvec[1] * e1[1] + bvec[2] * e1[2]
    perp = [x - along * e for x, e in zip(bvec, e1)]
    n = math.hypot(*perp)
    e2 = [x / n for x in perp] if n > 0.0 else _any_unit_perpendicular(e1)
    return e1, e2


def find_witness(A: BlochEffect, B: BlochEffect) -> Witness | None:
    """Explicit first outcome certifying coexistence; None when not coexistent.

    Builds one candidate in closed form and checks it with
    :func:`operator_inequalities_hold`.  The candidate is the commuting
    product when a = 0 or by = 0.  Otherwise by is raised at fixed bx to the
    allowed top: ``verdict.by_max`` in regime C3, the full-length circle
    sqrt(beta^2 - bx^2) elsewhere, where a pair above the circle by roundoff
    is its own top, moved onto the circle at its by.  The witness at the top
    is mixed with the commuting partner at by = 0 with weight
    min(by / top, 1); a top of 0 leaves the partner.  On the curve the top's
    witness is the coincident crossing point.  On the circle it points along
    b, with G1 >= 0 and G1 <= B tight and with equal slack for G1 <= A and
    1 + G1 >= A + B; that gamma lies in :func:`gamma_interval_2ci` whenever
    the interval is nonempty, and it takes no division, so b parallel to
    a = alpha needs no case of its own.

    The construction works in the reduced pair's plane and is mapped back
    through the complement relabeling recorded by the reduction, so inputs
    with trace coefficients above 1 are handled transparently.

    Raises:
        WitnessError: when the pair is classified coexistent but the
            candidate fails the check, an internal failure.
    """
    pair, report = relative_pair(A, B)
    verdict = classify(pair)
    if not verdict.coexistent:
        return None
    wt = _unchecked_witness(A, B, pair, report, verdict)
    check = operator_inequalities_hold(A, B, wt)
    if not check.holds:
        raise WitnessError(
            "pair classified coexistent but its witness fails the operator "
            f"constraints: residuals={check.residuals}"
        )
    return wt


def _unchecked_witness(A: BlochEffect, B: BlochEffect, pair, report, verdict) -> Witness:
    """find_witness's candidate, unchecked, from ``relative_pair(A, B)`` and a coexistent ``classify``."""
    # a complement (2 - alpha, -avec) only negates the vector, exactly, so
    # none is built; pair.alpha is the trace coefficient of A or of 1 - A
    a_eff = [-x for x in A.avec] if report.complemented_a else A.avec
    b_eff = [-x for x in B.avec] if report.complemented_b else B.avec
    e1, e2 = _plane_basis(a_eff, b_eff)
    g, gx, gy = _closed_form(pair, verdict)
    v = [gx * x + gy * y for x, y in zip(e1, e2)]
    if report.complemented_b:
        # swap outcomes (1,2) and (3,4): new first outcome is A' - G1
        g, v = pair.alpha - g, [x - y for x, y in zip(a_eff, v)]
    if report.complemented_a:
        # swap outcomes (1,3) and (2,4): new first outcome is B - G1
        g, v = B.alpha - g, [x - y for x, y in zip(B.avec, v)]
    return Witness(g, v)


def assemble_observable(A: BlochEffect, B: BlochEffect, wt: Witness) -> WitnessObservable:
    """Four-outcome observable (G1, A - G1, B - G1, 1 + G1 - A - B).

    The marginal identities hold by construction; validity of each outcome
    follows from the operator constraints, which are checked here for every
    witness.

    Raises:
        ValueError: when the witness fails the operator constraints.
    """
    report = operator_inequalities_hold(A, B, wt)
    if not report.holds:
        raise ValueError(
            f"witness fails the operator constraints: residuals={report.residuals}"
        )
    gamma = wt.gamma
    (gx, gy, gz), (ax, ay, az), (bx, by, bz) = wt.gvec, A.avec, B.avec
    g1 = BlochEffect(gamma, wt.gvec)
    g2 = BlochEffect(A.alpha - gamma, (ax - gx, ay - gy, az - gz))
    g3 = BlochEffect(B.alpha - gamma, (bx - gx, by - gy, bz - gz))
    g4 = BlochEffect(2.0 - A.alpha - B.alpha + gamma, (gx - ax - bx, gy - ay - by, gz - az - bz))
    return WitnessObservable(g1, g2, g3, g4, report)
