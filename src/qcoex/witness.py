"""Constructive four-outcome observables with two prescribed marginals.

Coexistence of effects A and B is certified by a single effect G1 whose four
operator constraints (G1 >= 0, G1 <= A, G1 <= B, 1 + G1 >= A + B) hold; the
joint observable is then (G1, A - G1, B - G1, 1 + G1 - A - B).

One closed form builds G1 in the reduced pair's plane: the operator product
for commuting pairs, and otherwise a mixture of the witness at the top of the
allowed region (same bx, largest allowed by) with the commuting partner at
by = 0.  The oracle's certificate is the only fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochEffect, RelativePair, complement, effect_to_matrix, relative_pair
from .coexist import C3, Verdict, classify
from .oracle import oracle_scan

__all__ = [
    "InequalityReport",
    "Witness",
    "WitnessObservable",
    "assemble_observable",
    "find_witness",
    "gamma_interval_2ci",
    "operator_inequalities_hold",
]

PSD_TOL = 1e-9
_FULL_LENGTH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Witness:
    """First outcome of a joint observable, as (gamma, gvec).

    Satisfies 0 <= ||gvec|| <= gamma <= 2 - ||gvec|| whenever it passes
    :func:`operator_inequalities_hold` for a valid pair.
    """

    gamma: float
    gvec: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.gvec, dtype=float).reshape(3)
        vec.setflags(write=False)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "gvec", vec)


@dataclass(frozen=True, eq=False)
class WitnessObservable:
    """Four effects with G1 + G2 = A, G1 + G3 = B and total sum the identity.

    ``report`` is the check of the operator constraints that admitted G1.
    """

    g1: BlochEffect
    g2: BlochEffect
    g3: BlochEffect
    g4: BlochEffect
    report: InequalityReport

    def effects(self) -> tuple[BlochEffect, BlochEffect, BlochEffect, BlochEffect]:
        return (self.g1, self.g2, self.g3, self.g4)


@dataclass(frozen=True)
class InequalityReport:
    """Residuals of the four operator constraints (each <= 0 when satisfied).

    ``residuals`` come from the Bloch-vector form of the constraints;
    ``min_eigenvalues`` cross-check them independently at operator level.
    """

    holds: bool
    residuals: tuple[float, float, float, float]
    min_eigenvalues: tuple[float, float, float, float]


def operator_inequalities_hold(A: BlochEffect, B: BlochEffect, wt: Witness) -> InequalityReport:
    """Check the four constraints making (gamma, gvec) a valid first outcome."""
    g = wt.gvec
    gamma = wt.gamma
    residuals = (
        float(np.linalg.norm(g)) - gamma,
        float(np.linalg.norm(A.avec - g)) - (A.alpha - gamma),
        float(np.linalg.norm(B.avec - g)) - (B.alpha - gamma),
        float(np.linalg.norm(A.avec + B.avec - g)) - (2.0 + gamma - A.alpha - B.alpha),
    )
    operators = (
        BlochEffect(gamma, g),
        BlochEffect(A.alpha - gamma, A.avec - g),
        BlochEffect(B.alpha - gamma, B.avec - g),
        BlochEffect(2.0 + gamma - A.alpha - B.alpha, g - A.avec - B.avec),
    )
    eigenvalues = tuple(
        float(np.linalg.eigvalsh(effect_to_matrix(op))[0]) for op in operators
    )
    holds = max(residuals) <= PSD_TOL and min(eigenvalues) >= -PSD_TOL
    return InequalityReport(holds, residuals, eigenvalues)


def gamma_interval_2ci(p: RelativePair) -> tuple[float, float] | None:
    """Admissible gamma interval for pairs whose second vector has full length.

    Requires b = beta (the second vector at its maximal length).  Returns
    [max(gamma_lo, 0), min(gamma_hi, min(alpha, beta))] when nonempty, None
    when the pair is not coexistent at full length.

    Raises:
        ValueError: off the b = beta domain, or in the degenerate case of
            (anti)parallel vectors with a = alpha (use the commuting
            construction instead).
    """
    b = p.b
    if abs(b - p.beta) > _FULL_LENGTH_TOL:
        raise ValueError(f"requires ||b|| = beta: got b={b!r}, beta={p.beta!r}")
    dot = p.a * p.bx
    den_hi = p.alpha * p.beta - dot
    den_lo = den_hi - 2.0 * p.beta
    if abs(den_hi) < 1e-14 or abs(den_lo) < 1e-14:
        raise ValueError("degenerate parallel case with a = alpha")
    g_hi = 0.5 * p.beta * (p.alpha * p.alpha - p.a * p.a) / den_hi
    g_lo = (
        0.5
        * p.beta
        * ((2.0 - p.alpha - p.beta) ** 2 - ((p.a + p.bx) ** 2 + p.by * p.by))
        / den_lo
    )
    if g_hi - g_lo < -1e-12:
        return None
    lo = max(g_lo, 0.0)
    hi = min(g_hi, min(p.alpha, p.beta))
    return lo, max(hi, lo)


def _commuting_witness(p: RelativePair) -> tuple[float, float, float]:
    # product of two commuting effects as the first outcome
    gamma = 0.5 * (p.alpha * p.beta + p.a * p.bx)
    gx = 0.5 * (p.alpha * p.bx + p.beta * p.a)
    return gamma, gx, 0.0


def _full_length_witness(p: RelativePair) -> tuple[float, float, float] | None:
    interval = gamma_interval_2ci(p)
    if interval is None:
        return None
    gamma = 0.5 * (interval[0] + interval[1])
    b = p.b
    return gamma, gamma * p.bx / b, gamma * p.by / b


def _curve_witness(p: RelativePair) -> tuple[float, float, float]:
    # coincident circle-crossing point on the restricted boundary
    gamma = 0.5 * (p.a * p.bx + p.alpha * p.beta - 2.0 * (1.0 - p.alpha) * (1.0 - p.beta))
    gx = (p.alpha * (2.0 * gamma - p.alpha) + p.a * p.a) / (2.0 * p.a)
    gy = math.sqrt(max(gamma * gamma - gx * gx, 0.0))
    return gamma, gx, gy


def _mix(w1, w2, lam: float) -> tuple[float, float, float]:
    return tuple(lam * x + (1.0 - lam) * y for x, y in zip(w1, w2))


def _closed_form(p: RelativePair, verdict: Verdict) -> tuple[float, float, float] | None:
    """Witness in the canonical plane (see find_witness), or None when it degenerates.

    Every constraint is linear in (G1, A, B) jointly, so mixing the witnesses
    of the top pair and of its by = 0 partner gives one for the pair between.
    """
    if p.a == 0.0 or p.by == 0.0:
        return _commuting_witness(p)
    if verdict.regime == C3:
        top, top_witness = verdict.by_max, _curve_witness
    else:
        top, top_witness = math.sqrt(max(p.beta * p.beta - p.bx * p.bx, 0.0)), _full_length_witness
    if top <= 0.0:
        return None
    try:
        candidate = top_witness(RelativePair(p.alpha, p.a, p.beta, p.bx, top))
    except ValueError:  # the degenerate (anti)parallel case of gamma_interval_2ci
        return None
    if candidate is None:
        return None
    partner = _commuting_witness(RelativePair(p.alpha, p.a, p.beta, p.bx, 0.0))
    return _mix(candidate, partner, p.by / top)


def _oracle_certificate(p: RelativePair, verdict: Verdict) -> tuple[float, float, float] | None:
    # grid search, called with the closed form's signature; verdict is unused
    result = oracle_scan(p, grid=4000)
    if result.coexistent and result.point is not None and result.gamma is not None:
        return result.gamma, result.point[0], result.point[1]
    return None


def _any_unit_perpendicular(u: np.ndarray) -> np.ndarray:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(u)))] = 1.0
    v = np.cross(u, axis)
    return v / np.linalg.norm(v)


def _plane_basis(avec: np.ndarray, bvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the span of the two Bloch vectors."""
    a = float(np.linalg.norm(avec))
    if a > 0.0:
        e1 = avec / a
    else:
        b = float(np.linalg.norm(bvec))
        e1 = bvec / b if b > 0.0 else np.array([1.0, 0.0, 0.0])
    perp = bvec - float(np.dot(bvec, e1)) * e1
    n = float(np.linalg.norm(perp))
    e2 = perp / n if n > 0.0 else _any_unit_perpendicular(e1)
    return e1, e2


def find_witness(A: BlochEffect, B: BlochEffect) -> Witness | None:
    """Explicit first outcome certifying coexistence; None when not coexistent.

    At most two candidates are checked with :func:`operator_inequalities_hold`.
    The first is the closed form: the commuting product when a = 0 or by = 0,
    else by raised at fixed bx to the allowed top (``verdict.by_max`` in
    regime C3, the full-length circle sqrt(beta^2 - bx^2) otherwise), whose
    witness (the coincident crossing point on the curve, the gamma-interval
    midpoint on the circle) is mixed with the commuting partner at by = 0
    with weight by / top.  When that yields nothing (top = 0, an empty or
    degenerate gamma interval, or a candidate failing the check), the second
    is the certificate of ``oracle_scan(pair, grid=4000)``.

    The construction works in the reduced pair's plane and is mapped back
    through the complement relabeling recorded by the reduction, so inputs
    with trace coefficients above 1 are handled transparently.

    Raises:
        AssertionError: when the pair is classified coexistent but neither
            candidate passes.
    """
    pair, report = relative_pair(A, B)
    verdict = classify(pair)
    if not verdict.coexistent:
        return None
    a_eff = complement(A) if report.complemented_a else A
    b_eff = complement(B) if report.complemented_b else B
    e1, e2 = _plane_basis(a_eff.avec, b_eff.avec)
    for construct in (_closed_form, _oracle_certificate):
        planar = construct(pair, verdict)
        if planar is None:
            continue
        gamma, gx, gy = planar
        g = float(gamma)
        v = gx * e1 + gy * e2
        if report.complemented_b:
            # swap outcomes (1,2) and (3,4): new first outcome is A' - G1
            g, v = a_eff.alpha - g, a_eff.avec - v
        if report.complemented_a:
            # swap outcomes (1,3) and (2,4): new first outcome is B - G1
            g, v = B.alpha - g, B.avec - v
        wt = Witness(g, v)
        if operator_inequalities_hold(A, B, wt).holds:
            return wt
    raise AssertionError(
        "pair classified coexistent but every witness construction failed"
    )


def assemble_observable(A: BlochEffect, B: BlochEffect, wt: Witness) -> WitnessObservable:
    """Four-outcome observable (G1, A - G1, B - G1, 1 + G1 - A - B).

    The marginal identities hold by construction; validity of each outcome
    follows from the operator constraints, which are re-checked here.

    Raises:
        ValueError: when the witness fails the operator constraints.
    """
    report = operator_inequalities_hold(A, B, wt)
    if not report.holds:
        raise ValueError(
            f"witness fails the operator constraints: residuals={report.residuals}"
        )
    g1 = BlochEffect(wt.gamma, wt.gvec)
    g2 = BlochEffect(A.alpha - wt.gamma, A.avec - wt.gvec)
    g3 = BlochEffect(B.alpha - wt.gamma, B.avec - wt.gvec)
    g4 = BlochEffect(
        2.0 - A.alpha - B.alpha + wt.gamma, wt.gvec - A.avec - B.avec
    )
    return WitnessObservable(g1, g2, g3, g4, report)
