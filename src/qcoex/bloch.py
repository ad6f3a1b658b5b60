"""Qubit effects in Bloch form: validation, complements, sharpness, pair reduction.

A qubit effect is an operator E with 0 <= E <= 1, written throughout as
E = (alpha * I + avec . sigma) / 2 for a real trace coefficient alpha and a
real 3-vector avec.  Validity of E is equivalent to
||avec|| <= alpha <= 2 - ||avec||.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .tolerance import DOMAIN_TOL, MATRIX_TOL, RADICAND_TOL

__all__ = [
    "BlochEffect",
    "InvalidEffectError",
    "ReductionReport",
    "RelativePair",
    "SHORT_LENGTH",
    "complement",
    "effect_from_bloch",
    "effect_from_matrix",
    "effect_to_matrix",
    "relative_pair",
    "sharpness",
    "sharpness_scalar",
]

# Below this length a vector's components, or their products with those of
# a vector of length up to 2, can fall below the normal floating-point
# range and lose digits (about 1e-146).  Such a vector is scaled by a power
# of two before its direction is used; that scaling is exact.
SHORT_LENGTH = math.sqrt(sys.float_info.min / sys.float_info.epsilon)


class InvalidEffectError(ValueError):
    """Raised when parameters or a matrix do not describe a qubit effect."""


@dataclass(frozen=True, eq=False)
class BlochEffect:
    """Qubit effect (alpha * I + avec . sigma) / 2.

    Plain immutable container; use :func:`effect_from_bloch` or
    :func:`effect_from_matrix` when the input needs validation.
    """

    alpha: float
    avec: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.avec, dtype=float).reshape(3)
        vec.setflags(write=False)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "avec", vec)

    @property
    def a(self) -> float:
        """Length of the Bloch vector."""
        return math.hypot(*self.avec.tolist())


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def effect_from_bloch(alpha: float, avec) -> BlochEffect:
    """Validated effect from its trace coefficient and Bloch vector.

    ``alpha`` is a real number and ``avec`` a length-3 list, tuple or 1-D
    array of real numbers; a bool is not a number here.

    Raises:
        InvalidEffectError: naming the field, when a parameter has another
            type or shape or is not finite, or naming the bound that failed,
            when the parameters violate ||avec|| <= alpha <= 2 - ||avec||
            beyond ``DOMAIN_TOL``.
    """
    if not _is_real(alpha):
        raise InvalidEffectError(f"field 'alpha' must be a real number, got {type(alpha).__name__}")
    items = avec.tolist() if isinstance(avec, np.ndarray) and avec.ndim == 1 else avec
    if not isinstance(items, (list, tuple)) or len(items) != 3 or not all(map(_is_real, items)):
        raise InvalidEffectError("field 'avec' must be a length-3 list, tuple or 1-D array of real numbers")
    try:
        effect = BlochEffect(alpha, items)
    except OverflowError:
        raise InvalidEffectError("effect parameters must be finite") from None
    if not math.isfinite(effect.alpha) or not np.all(np.isfinite(effect.avec)):
        raise InvalidEffectError("effect parameters must be finite")
    a = effect.a
    if effect.alpha < a - DOMAIN_TOL:
        raise InvalidEffectError(
            f"lower bound failed: alpha={effect.alpha!r} is below ||avec||={a!r}"
        )
    if effect.alpha > 2.0 - a + DOMAIN_TOL:
        raise InvalidEffectError(
            f"upper bound failed: alpha={effect.alpha!r} exceeds 2 - ||avec||={2.0 - a!r}"
        )
    return effect


def complement(e: BlochEffect) -> BlochEffect:
    """Complementary effect 1 - E, i.e. (2 - alpha, -avec); involutive."""
    return BlochEffect(2.0 - e.alpha, -e.avec)


def effect_to_matrix(e: BlochEffect) -> np.ndarray:
    """2x2 complex matrix (alpha * I + avec . sigma) / 2."""
    ax, ay, az = e.avec
    return 0.5 * np.array(
        [
            [e.alpha + az, ax - 1j * ay],
            [ax + 1j * ay, e.alpha - az],
        ],
        dtype=complex,
    )


def effect_from_matrix(m) -> BlochEffect:
    """Effect from a 2x2 matrix via its Pauli expansion.

    The matrix must be Hermitian and have eigenvalues in [0, 1], both
    within ``MATRIX_TOL``.  Round trip with
    :func:`effect_to_matrix` is the identity to better than 1e-12 per entry.

    Raises:
        InvalidEffectError: for a ragged or non-numeric matrix, another shape,
            a non-finite entry, non-Hermitian input or an eigenvalue outside
            the operator bounds.
    """
    try:
        mat = np.asarray(m)
    except ValueError:
        raise InvalidEffectError("matrix rows must have equal lengths") from None
    if mat.dtype.kind not in "iufc":
        raise InvalidEffectError(f"matrix entries must be numbers, got dtype {mat.dtype}")
    if mat.shape != (2, 2):
        raise InvalidEffectError(f"expected a 2x2 matrix, got shape {mat.shape}")
    mat = mat.astype(complex)
    if not np.isfinite(mat).all():
        raise InvalidEffectError("matrix entries must be finite")
    herm_defect = float(np.abs(mat - mat.conj().T).max())
    if herm_defect > MATRIX_TOL:
        raise InvalidEffectError(
            f"matrix is not Hermitian: max |M - M^dagger| = {herm_defect:.3e}"
        )
    h = 0.5 * (mat + mat.conj().T)
    evals = np.linalg.eigvalsh(h)
    if evals[0] < -MATRIX_TOL:
        raise InvalidEffectError(f"eigenvalue {evals[0]!r} below 0")
    if evals[-1] > 1.0 + MATRIX_TOL:
        raise InvalidEffectError(f"eigenvalue {evals[-1]!r} above 1")
    alpha = float((h[0, 0] + h[1, 1]).real)
    ax = float((h[0, 1] + h[1, 0]).real)
    ay = float((h[1, 0] - h[0, 1]).imag)
    az = float((h[0, 0] - h[1, 1]).real)
    return BlochEffect(alpha, (ax, ay, az))


def sharpness_scalar(alpha: float, a: float) -> float:
    """Sharpness of an effect from its trace coefficient and Bloch length.

    Returns a value in [0, 1]: 1 exactly for non-trivial projections
    (alpha = a = 1), 0 exactly for trivial effects (a = 0).  The square-root
    argument is a product of differences of squares, each factored as
    (x - a)(x + a) so that it keeps its digits near a = alpha; negatives
    down to ``RADICAND_TOL`` are clamped to zero, and a result within
    ``DOMAIN_TOL`` outside [0, 1] to that interval.
    """
    if a == 0.0:
        return 0.0
    c = 2.0 - alpha
    arg = ((alpha - a) * (alpha + a)) * ((c - a) * (c + a))
    if arg < -RADICAND_TOL:
        raise InvalidEffectError(f"sharpness arguments out of range: alpha={alpha!r}, a={a!r}")
    s = 0.5 * (a * a + alpha * c - math.sqrt(max(arg, 0.0)))
    if -DOMAIN_TOL <= s < 0.0:
        return 0.0
    if 1.0 < s <= 1.0 + DOMAIN_TOL:
        return 1.0
    return s


def sharpness(e: BlochEffect) -> float:
    """Sharpness of the effect; invariant under complement and rotations."""
    return sharpness_scalar(e.alpha, e.a)


@dataclass(frozen=True)
class RelativePair:
    """Canonical relative coordinates of an effect pair.

    ``alpha`` and ``a`` describe the first effect, ``beta`` the second;
    ``bx`` is the component of the second Bloch vector along the first and
    ``by`` (>= 0) the length of its perpendicular part.  After reduction
    alpha and beta are at most 1, and bx^2 + by^2 <= beta^2.
    """

    alpha: float
    a: float
    beta: float
    bx: float
    by: float

    @property
    def b(self) -> float:
        """Length of the second Bloch vector."""
        return math.hypot(self.bx, self.by)


@dataclass(frozen=True)
class ReductionReport:
    """How a pair was canonicalized, so verdicts and witnesses map back.

    ``complemented_a`` / ``complemented_b`` record replacement by 1 - E when
    the trace coefficient exceeded 1.
    """

    complemented_a: bool
    complemented_b: bool


def relative_pair(A: BlochEffect, B: BlochEffect) -> tuple[RelativePair, ReductionReport]:
    """Reduce two effects to canonical relative coordinates.

    Effects with a trace coefficient above 1 are replaced by their
    complements (coexistence is unchanged), then only the relative angle
    between the Bloch vectors is kept.  The output is invariant under a
    simultaneous rotation of both vectors.  When the first vector is zero
    the relative direction is undefined, and bx = ||b||, by = 0.

    A complement (2 - alpha, -avec) only negates the vector, and negation
    is exact through products, sums and ``math.hypot``.  So no complement is
    built: the first vector is negated when exactly one effect is
    complemented, which flips the sign of bx and leaves by and both lengths
    as they are, bit for bit.  When either vector is shorter than
    ``SHORT_LENGTH``, both are first scaled by powers of two to lengths in
    [0.5, 1), and bx and by scaled back, so that no product loses digits.
    """
    comp_a = A.alpha > 1.0
    comp_b = B.alpha > 1.0
    (ax, ay, az), (qx, qy, qz) = A.avec.tolist(), B.avec.tolist()
    if comp_a != comp_b:
        ax, ay, az = -ax, -ay, -az
    a = math.hypot(ax, ay, az)
    b = math.hypot(qx, qy, qz)
    if a > 0.0:
        u, kb = a, 0
        if a < SHORT_LENGTH or b < SHORT_LENGTH:
            ka, kb = -math.frexp(a)[1], -math.frexp(b)[1]
            ax, ay, az = math.ldexp(ax, ka), math.ldexp(ay, ka), math.ldexp(az, ka)
            qx, qy, qz = math.ldexp(qx, kb), math.ldexp(qy, kb), math.ldexp(qz, kb)
            u = math.hypot(ax, ay, az)
        bx = (ax * qx + ay * qy + az * qz) / u
        # ||a x b|| / a keeps its digits for nearly parallel vectors, where
        # sqrt(b^2 - bx^2) cancels to 0
        by = math.hypot(ay * qz - az * qy, az * qx - ax * qz, ax * qy - ay * qx) / u
        if kb:
            bx, by = math.ldexp(bx, -kb), math.ldexp(by, -kb)
    else:
        bx = b
        by = 0.0
    alpha = 2.0 - A.alpha if comp_a else A.alpha
    beta = 2.0 - B.alpha if comp_b else B.alpha
    pair = RelativePair(alpha, a, beta, bx, by)
    return pair, ReductionReport(comp_a, comp_b)
