"""The tolerance policy: every tolerance lives in qcoex.tolerance, and each
shared value is pinned at its edge, 0.9 of it admitted and 1.1 of it not."""

import ast
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from qcoex import tolerance
from qcoex.bloch import (
    InvalidEffectError,
    RelativePair,
    effect_from_bloch,
    effect_from_matrix,
    sharpness_scalar,
)
from qcoex.coexist import classify
from qcoex.oracle import _cut, disks_feasible
from qcoex.tolerance import BOUNDARY_TOL, CONVEXITY_TOL, DOMAIN_TOL, MATRIX_TOL

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcoex"
README = PACKAGE.parent.parent / "README.md"
# a number literal this small or smaller reads as a tolerance
LARGEST_TOLERANCE = 1e-6

INSIDE = 0.9
OUTSIDE = 1.1


def small_literals(path: Path) -> list[str]:
    """Number tokens of the file with 0 < |x| <= LARGEST_TOLERANCE (docstrings are string tokens)."""
    with tokenize.open(path) as f:
        tokens = list(tokenize.generate_tokens(f.readline))
    return [
        f"{path.name}:{tok.start[0]}: {tok.string}"
        for tok in tokens
        if tok.type == tokenize.NUMBER and 0.0 < abs(ast.literal_eval(tok.string)) <= LARGEST_TOLERANCE
    ]


def test_only_the_tolerance_module_writes_a_tolerance():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerance.py" in modules
    found = [site for path in modules if path.name != "tolerance.py" for site in small_literals(path)]
    assert found == []


def test_readme_table_lists_exactly_the_tolerances_and_each_is_imported():
    constants = {name: value for name, value in vars(tolerance).items() if name.isupper()}
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", README.read_text(), re.MULTILINE)
    assert len(rows) == len(constants)
    assert {name: float(value) for name, value in rows} == constants
    imported = {
        alias.name
        for path in PACKAGE.glob("*.py")
        if path.name != "tolerance.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "tolerance" and node.level == 1
        for alias in node.names
    }
    assert set(constants) - imported == set()


class TestDomainTol:
    @pytest.mark.parametrize("scale,admitted", [(INSIDE, True), (OUTSIDE, False)])
    def test_effect_bounds(self, scale, admitted):
        for alpha, match in ((0.5 - scale * DOMAIN_TOL, "lower bound"), (1.5 + scale * DOMAIN_TOL, "upper bound")):
            if admitted:
                effect_from_bloch(alpha, (0.5, 0.0, 0.0))
            else:
                with pytest.raises(InvalidEffectError, match=match):
                    effect_from_bloch(alpha, (0.5, 0.0, 0.0))


class TestMatrixTol:
    @pytest.mark.parametrize("scale,admitted", [(INSIDE, True), (OUTSIDE, False)])
    def test_hermiticity_and_eigenvalues(self, scale, admitted):
        excess = scale * MATRIX_TOL
        cases = (
            (np.array([[0.5, 0.2 + excess], [0.2, 0.5]]), "Hermitian"),
            (np.diag([1.0 + excess, 0.3]), "above 1"),
            (np.diag([0.5, -excess]), "below 0"),
        )
        for mat, match in cases:
            if admitted:
                effect_from_matrix(mat)
            else:
                with pytest.raises(InvalidEffectError, match=match):
                    effect_from_matrix(mat)


class TestBoundaryTol:
    @pytest.mark.parametrize("scale,coexistent", [(INSIDE, True), (OUTSIDE, False)])
    def test_classify_cap_and_junction_height(self, scale, coexistent):
        past = scale * BOUNDARY_TOL
        cap = classify(RelativePair(0.6, 0.5, 0.9, 0.1, 0.1)).by_max
        assert classify(RelativePair(0.6, 0.5, 0.9, 0.1, cap + past)).coexistent == coexistent
        # sharp projections: the cap at the tip and the height past it are 0
        for bx in (1.0, 1.0 + 2.0**-52):
            assert classify(RelativePair(1.0, 1.0, 1.0, bx, past)).coexistent == coexistent

    @pytest.mark.parametrize("scale,restricted", [(INSIDE, False), (OUTSIDE, True)])
    def test_classify_c1_threshold(self, scale, restricted):
        beta = (1.0 - sharpness_scalar(0.6, 0.5)) + scale * BOUNDARY_TOL
        v = classify(RelativePair(0.6, 0.5, beta, 0.1, 0.2))
        assert (v.b0 is not None) == restricted

    @pytest.mark.parametrize("scale,feasible", [(INSIDE, True), (OUTSIDE, False)])
    def test_disks_feasible(self, scale, feasible):
        # a sharp projection with the trivial effect I/2: disk centres 1
        # apart, at each the smaller radius is min(gamma, 1 - gamma), so at
        # gamma = 0.5 - scale * BOUNDARY_TOL both disks end that far short of
        # the midpoint, where the minimax violation is that shortfall
        gamma = 0.5 - scale * BOUNDARY_TOL
        assert (disks_feasible(RelativePair(1.0, 1.0, 1.0, 0.0, 0.0), gamma) is not None) == feasible


class TestConvexityTol:
    @pytest.mark.parametrize("scale,kept", [(INSIDE, True), (OUTSIDE, False)])
    def test_secant_cut_keeps_the_kink(self, scale, kept):
        # samples of a kink with slopes -1 and +3, the best 5e-16 past it,
        # each moved by scale * CONVEXITY_TOL in the direction that pushes
        # the left secant's cut towards the kink: the search's cut keeps the
        # kink exactly when the samples sit within CONVEXITY_TOL of the kink
        kink, h = math.sqrt(2.0) - 1.0, 1e-3
        x = [kink - 2.0 * h, kink - h, kink + 5e-16, kink + h, kink + 2.0 * h]
        push = [-1.0, 1.0, -1.0, 0.0, 0.0]
        f = [max(kink - g, 3.0 * (g - kink)) + scale * CONVEXITY_TOL * d for g, d in zip(x, push)]
        lo, hi, _ = _cut(x, f, 2, 0.0, False)
        assert (lo <= kink <= hi) == kept
