"""Coexistence decision for qubit effect pairs: three disjoint regimes.

A pair in canonical coordinates falls into regime C1 (the second effect is
unsharp enough to coexist with anything), C2 (its direction lies outside the
restricted interval) or C3 (restricted direction, where the perpendicular
component is capped).  Commuting pairs short-circuit to TrivialParallel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .bloch import BlochEffect, RelativePair, relative_pair, sharpness_scalar
from .tolerance import BOUNDARY_TOL, DOMAIN_TOL, RADICAND_TOL, ROOT_TOL

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ARC_CIRCLE",
    "ARC_CURVE",
    "C1",
    "C2",
    "C3",
    "TRIVIAL_PARALLEL",
    "BoundaryCurve",
    "SpecialCaseVerdict",
    "Verdict",
    "boundary_curve",
    "by_max",
    "classify",
    "is_coexistent",
    "special_case_verdict",
]

C1 = "C1"
C2 = "C2"
C3 = "C3"
TRIVIAL_PARALLEL = "TrivialParallel"

ARC_CIRCLE = "circle"
ARC_CURVE = "curve"

# Largest boundary_curve request: a curve is held in memory and printed by
# the CLI in full (about 4 MB of CSV at this size).
_MAX_SAMPLES = 100_000


class Verdict(NamedTuple):
    """Coexistence decision for a canonical pair.

    ``b0`` and ``w`` (center and half-width of the direction interval that
    carries a nontrivial length restriction) are present exactly when
    beta > 1 - S(A) and a > 0: always in C2 and C3, never in C1, and in
    TrivialParallel when that condition holds.  ``by_max`` is present only
    in regime C3: the cap on by at the pair's bx, or, for a pair past a
    junction that lies between the centre and its tip, the circle's height
    at that junction.
    """

    coexistent: bool
    regime: str
    sharpness_a: float
    b0: float | None = None
    w: float | None = None
    by_max: float | None = None


def _interval(alpha: float, a: float, beta: float) -> tuple[float, float]:
    """Center b0 and half-width w of the restricted direction interval (a > 0)."""
    d = (1.0 - alpha) ** 2 - beta * ((1.0 - alpha) ** 2 + 1.0 - a * a) + beta * beta
    if d < -RADICAND_TOL:
        # analytically impossible once beta exceeds the unsharpness threshold
        raise ArithmeticError(
            f"negative discriminant {d!r} for alpha={alpha!r}, a={a!r}, beta={beta!r}"
        )
    return (1.0 - alpha) * (1.0 - beta) / a, math.sqrt(max(d, 0.0)) / a


def _restricted_interval(
    alpha: float, a: float, beta: float, s: float
) -> tuple[float, float] | None:
    """(b0, w) when beta exceeds the unsharpness threshold 1 - S(A) and a > 0."""
    if beta > 1.0 - s + BOUNDARY_TOL and a > 0.0:
        return _interval(alpha, a, beta)
    return None


def _tip_gap(alpha: float, a: float, beta: float, b0: float, w: float, side: float) -> float:
    """Distance beta - side * j of the junction j = b0 + side * w from its tip side * beta.

    ``side`` is +1 or -1.  The product form keeps its digits when the
    junction sits at the tip, where beta - |j| cancels.
    """
    return (
        beta * (1.0 - beta) * (alpha - side * a) * (2.0 - alpha + side * a)
        / (a * a * (beta - side * b0 + w))
    )


def _root(q):
    """Root of a cap radicand, a float (math) or an array (numpy); 0 down to -ROOT_TOL, below it raises.

    An array is consumed: it is clamped and rooted in place and returned.
    A numpy scalar (from classify on a pair of numpy scalars) gets a new
    numpy scalar.
    """
    if isinstance(q, float):
        if q < -ROOT_TOL:
            raise ArithmeticError(f"square-root argument out of range: {q!r}")
        return math.sqrt(max(q, 0.0))
    import numpy as np

    low = q.min()
    if low < -ROOT_TOL:
        raise ArithmeticError(f"square-root argument out of range: {float(low)!r}")
    out = q if isinstance(q, np.ndarray) else None
    return np.sqrt(np.maximum(q, 0.0, out=out), out=out)


def _cap(alpha: float, a: float, beta: float, bx, b0: float):
    """Largest allowed by at direction component bx, with b0 from _interval.

    ``bx`` is a float, for classify and by_max, or an array, for
    boundary_curve; the result has the same type.
    """
    t = a * (bx - b0)
    q1 = ((2.0 - alpha) ** 2 - a * a) * (a * a - (t + (1.0 - beta)) ** 2)
    q2 = (alpha * alpha - a * a) * (a * a - (t - (1.0 - beta)) ** 2)
    return (_root(q1) + _root(q2)) / (2.0 * a)


def classify(p: RelativePair) -> Verdict:
    """Classify a canonical pair into TrivialParallel / C1 / C2 / C3.

    Expects the output of :func:`qcoex.bloch.relative_pair` (so
    0 <= alpha, beta <= 1 and by >= 0).  Parallel or trivial pairs commute
    and are always coexistent; otherwise the decision follows the regime
    conditions, with boundary equalities counting as coexistent.

    C3 is the closed interval |bx - b0| <= w, tested as distances from the
    tips +-beta, which keep their digits where a junction sits at a tip
    (scaled projections, the limit of near-parallel vectors).  Past a
    junction on the tip side of the centre the circle is no higher than at
    the junction, so such a pair is C2 only when by is at most that height;
    otherwise it is C3 and not coexistent.
    """
    s = sharpness_scalar(p.alpha, p.a)
    interval = _restricted_interval(p.alpha, p.a, p.beta, s)
    b0, w = interval or (None, None)
    if p.a == 0.0 or p.by == 0.0:
        return Verdict(True, TRIVIAL_PARALLEL, s, b0, w)
    if interval is None:
        return Verdict(True, C1, s)
    # the pair and the junctions measured from the tips +beta and -beta
    gap_hi = _tip_gap(p.alpha, p.a, p.beta, b0, w, 1.0)
    gap_lo = _tip_gap(p.alpha, p.a, p.beta, b0, w, -1.0)
    if p.beta - p.bx >= gap_hi and p.beta + p.bx >= gap_lo:
        cap = _cap(p.alpha, p.a, p.beta, p.bx, b0)
        return Verdict(p.by <= cap + BOUNDARY_TOL, C3, s, b0, w, cap)
    gap = gap_hi if p.beta - p.bx < gap_hi else gap_lo
    if gap < p.beta:  # past a junction on the tip side of the centre
        height = math.sqrt(max(gap, 0.0) * (2.0 * p.beta - gap))
        if p.by > height + BOUNDARY_TOL:
            return Verdict(False, C3, s, b0, w, height)
    return Verdict(True, C2, s, b0, w)


def is_coexistent(A: BlochEffect, B: BlochEffect) -> bool:
    """Whether the two effects can be events of one observable; symmetric."""
    pair, _ = relative_pair(A, B)
    return classify(pair).coexistent


def _check_parameters(alpha: float, a: float, beta: float) -> None:
    """Raise ValueError unless 0 < alpha, beta <= 1 and 0 <= a <= alpha + DOMAIN_TOL (a NaN fails)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    if not 0.0 <= a <= alpha + DOMAIN_TOL:
        raise ValueError(f"a must be in [0, alpha], got a={a!r}, alpha={alpha!r}")


def by_max(alpha: float, a: float, beta: float, bx: float) -> float:
    """Largest allowed perpendicular component at direction component ``bx``.

    Defined on the restricted regime of reduced parameters: 0 < alpha,
    beta <= 1, 0 < a <= alpha, beta > 1 - S(alpha, a), a finite bx and
    |bx - b0| <= w (the closed interval; at the endpoints the value meets
    the full-length circle, sqrt(bx^2 + by_max^2) = beta).  The parameters
    are converted with ``float()`` once checked, so numpy scalars of any
    precision give a float.

    Raises:
        ValueError: when a precondition fails, naming it.
    """
    _check_parameters(alpha, a, beta)
    if a <= 0.0:
        raise ValueError("by_max requires a > 0")
    if not math.isfinite(bx):
        raise ValueError(f"bx must be finite, got {bx!r}")
    alpha, a, beta, bx = float(alpha), float(a), float(beta), float(bx)
    s = sharpness_scalar(alpha, a)
    if beta <= 1.0 - s - DOMAIN_TOL:
        raise ValueError(
            f"by_max requires beta > 1 - S: beta={beta!r}, 1 - S={1.0 - s!r}"
        )
    b0, w = _interval(alpha, a, beta)
    if abs(bx - b0) > w + DOMAIN_TOL:
        raise ValueError(
            f"bx={bx!r} outside the restricted interval [{b0 - w!r}, {b0 + w!r}]"
        )
    return _cap(alpha, a, beta, bx, b0)


class BoundaryCurve(NamedTuple):
    """Sampled boundary of the allowed region for fixed (alpha, a, beta).

    ``r[i]`` is the largest allowed vector length at direction component
    ``bx[i]``; the tag is ``"circle"`` on the full-length arc (r = beta
    exactly) and ``"curve"`` strictly inside the restricted interval.
    ``b0`` and ``w`` are None when the whole circle is allowed.  The arrays
    make value equality ambiguous, so curves compare and hash by identity.
    """

    alpha: float
    a: float
    beta: float
    bx: np.ndarray
    r: np.ndarray
    regime: tuple[str, ...]
    b0: float | None
    w: float | None

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _grid(beta: float, n: int) -> np.ndarray:
    """``np.linspace(-beta, beta, n)`` bit for bit, without its set-up cost.

    linspace forms ``k * step - beta`` and sets the last sample to ``beta``.
    When the step underflows to 0 it scales differently, so there its own
    result is kept.
    """
    import numpy as np

    step = (beta + beta) / (n - 1)
    if step == 0.0:
        return np.linspace(-beta, beta, n)
    xs = np.arange(n, dtype=float)
    xs *= step
    xs -= beta
    xs[-1] = beta
    return xs


def _with_junctions(xs: np.ndarray, beta: float, b0: float, w: float) -> np.ndarray:
    """The sorted samples ``xs`` with the junctions ``b0 -/+ w`` inside (-beta, beta) put in place.

    A junction equal to a sample or to the other junction is dropped, as
    ``np.unique`` drops duplicates; nothing is sorted again.
    """
    import numpy as np

    junctions = [x for x in dict.fromkeys((b0 - w, b0 + w)) if -beta < x < beta]
    pieces, start = [], 0
    for x, i in zip(junctions, xs.searchsorted(junctions).tolist()):
        if xs[i] != x:  # xs[0] = -beta < x < beta = xs[-1], so i indexes a sample
            pieces += (xs[start:i], (x,))
            start = i
    return np.concatenate((*pieces, xs[start:])) if pieces else xs


def boundary_curve(
    alpha: float, a: float, beta: float, n_samples: int = 256
) -> BoundaryCurve:
    """Sample the allowed-region boundary over bx in [-beta, beta].

    The samples are ``np.linspace(-beta, beta, n_samples)``, bit for bit.
    The junction points b0 +/- w are always inserted exactly when they fall
    inside the sampling range, so continuity across them is observable in
    the output; a junction equal to a sample or to the other junction is
    not repeated.  ``alpha``, ``a`` and ``beta`` are converted with
    ``float()`` once checked, so numpy scalars of any precision give the
    float64 curve of their values.

    Raises:
        ValueError: for parameters outside their ranges, or ``n_samples``
            not an ``int`` in [16, 100 000] (a bool is not one).
    """
    _check_parameters(alpha, a, beta)
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or not 16 <= n_samples <= _MAX_SAMPLES:
        raise ValueError(
            f"n_samples must be between 16 and {_MAX_SAMPLES}, got {n_samples!r}"
        )
    alpha, a, beta = float(alpha), float(a), float(beta)
    import numpy as np

    interval = _restricted_interval(alpha, a, beta, sharpness_scalar(alpha, a))
    b0, w = interval or (None, None)
    xs = _grid(beta, n_samples)
    lo = hi = 0  # the capped samples: one run, since xs is sorted
    if interval is not None:
        xs = _with_junctions(xs, beta, b0, w)
        # strictly inside: the junction samples stay on the circle
        dist = xs - b0
        np.abs(dist, out=dist)
        capped = dist < w - BOUNDARY_TOL
        lo = int(capped.argmax())  # 0 when no sample is capped
        if capped[lo]:
            hi = capped.size - int(capped[::-1].argmax())
    rs = np.empty(xs.shape)
    rs.fill(beta)
    if hi > lo:
        np.hypot(xs[lo:hi], _cap(alpha, a, beta, xs[lo:hi], b0), out=rs[lo:hi])
    tags = (ARC_CIRCLE,) * lo + (ARC_CURVE,) * (hi - lo) + (ARC_CIRCLE,) * (xs.size - hi)
    rs.setflags(write=False)
    xs.setflags(write=False)
    return BoundaryCurve(alpha, a, beta, xs, rs, tags, b0, w)


class SpecialCaseVerdict(NamedTuple):
    """Closed-form verdict from one of the historically known regimes.

    ``margin`` is the distance of the pair from the deciding comparison,
    in the units of that comparison.
    """

    which: str  # "busch" | "liu" | "molnar"
    coexistent: bool
    margin: float


def special_case_verdict(p: RelativePair) -> SpecialCaseVerdict | None:
    """Independent closed-form checkers on their special domains.

    Applies the two-projection-smearing criterion when alpha = beta = 1
    ("busch"), the orthogonal full-sharpness criterion when beta = 1 and
    bx = 0 ("liu"), and the scaled-projection criterion when a = alpha and
    b = beta ("molnar").  Returns None when no special domain matches.
    """
    b = p.b
    if abs(p.alpha - 1.0) <= DOMAIN_TOL and abs(p.beta - 1.0) <= DOMAIN_TOL:
        plus = math.hypot(p.a + p.bx, p.by)
        minus = math.hypot(p.a - p.bx, p.by)
        return SpecialCaseVerdict(
            "busch", plus + minus <= 2.0 + BOUNDARY_TOL, abs(2.0 - plus - minus)
        )
    if abs(p.beta - 1.0) <= DOMAIN_TOL and abs(p.bx) <= DOMAIN_TOL:
        limit = 0.5 * math.sqrt(max((2.0 - p.alpha) ** 2 - p.a * p.a, 0.0)) + 0.5 * math.sqrt(
            max(p.alpha * p.alpha - p.a * p.a, 0.0)
        )
        return SpecialCaseVerdict("liu", b <= limit + BOUNDARY_TOL, abs(limit - b))
    if abs(p.a - p.alpha) <= DOMAIN_TOL and abs(b - p.beta) <= DOMAIN_TOL:
        bound = 2.0 - 2.0 * p.alpha - 2.0 * p.beta + p.alpha * p.beta
        coexistent = p.bx >= p.beta - BOUNDARY_TOL or p.a * p.bx <= bound + BOUNDARY_TOL
        margin = abs(p.a * p.bx - bound)
        if p.bx >= p.beta:
            margin = min(margin, abs(p.bx - p.beta))
        return SpecialCaseVerdict("molnar", coexistent, margin)
    return None
