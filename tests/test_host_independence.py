"""Host-independent bits of the seeded draws and the oracle's set-up.

numpy's dot products and norms run in OpenBLAS, which picks its kernel for
the host's CPU at run time (``OPENBLAS_CORETYPE`` overrides the pick), and
the kernels round differently.  ``oracle._geometry`` and
``selftest.random_effect`` therefore form their squared lengths on Python
floats with ``bloch._add_square``, ``fma(y, y, c)`` rounded once.  These
tests check that helper and ``_geometry`` against exact ``Fraction``
references, pin the seeded draws by a hash, keep BLAS calls out of both
modules, and recompute both hashes in a child process that forces another
kernel.
"""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qcoex
from qcoex.bloch import SHORT_LENGTH, RelativePair, _add_square
from qcoex.oracle import _centers, _geometry
from qcoex.selftest import random_effect

PACKAGE = Path(qcoex.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "data" / "oracle_corpus.json"

# sha256 over the newline-joined repr() of the first 2000 random_effect
# draws of seed 2025
DRAWS_SHA256 = "7733d9dd0146e43f8bf71c0bb759a7373270dcc700eb1da7a7eb5a5fe5036f4c"


def draws_digest() -> str:
    rng = np.random.default_rng(2025)
    return hashlib.sha256("\n".join(repr(random_effect(rng)) for _ in range(2000)).encode()).hexdigest()


def corpus_pairs() -> list[RelativePair]:
    """The pairs of the oracle corpus, tests/data/oracle_corpus.json."""
    return [RelativePair(*(float(v) for v in r["pair"])) for r in json.loads(CORPUS.read_text())]


def geometry_digest() -> str:
    """sha256 over every operand _geometry forms for the oracle corpus's pairs."""
    h = hashlib.sha256()
    for p in corpus_pairs():
        for operand in _geometry(_centers(p)):
            h.update(np.asarray(operand).tobytes())
    return h.hexdigest()


def exact_add_square(y: float, c: float) -> float:
    """c + y*y from Fractions, rounded once; past the float range, infinite."""
    try:
        return float(Fraction(c) + Fraction(y) ** 2)
    except OverflowError:
        return math.inf


def test_seeded_draws_keep_their_bits():
    assert draws_digest() == DRAWS_SHA256


class TestAddSquare:
    def check(self, ys, cs):
        wrong = [(y, c) for y in ys for c in cs if repr(_add_square(y, c)) != repr(exact_add_square(y, c))]
        assert wrong == []

    def test_signed_zeros_and_subnormals(self):
        tiny = math.ulp(0.0)
        values = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-308, 1.0, -1.0]
        self.check(values, values + [tiny * tiny, -1e-320])

    def test_around_the_ends_of_the_split_range(self):
        ys = []
        for end in (SHORT_LENGTH, 1.0 / SHORT_LENGTH):
            ys += [math.nextafter(end, 0.0), end, math.nextafter(end, math.inf)]
        ys += [1e-150, -1e-160, 3e-200, 1e150, -1e160]
        # c around -y*y cancels, where y*y's rounding error decides the sum
        cs = [0.0, 1.0, 1e-300, 1e300]
        self.check(ys, cs)
        for y in ys:
            p = y * y
            self.check([y], [-p, -math.nextafter(p, 0.0), -math.nextafter(p, math.inf)])

    def test_components_from_1e_300_to_1e300(self):
        rng = np.random.default_rng(7)
        for e in range(-300, 301, 4):
            y = float(rng.uniform(1.0, 10.0) * 10.0**e) * (1 if e % 8 else -1)
            x = float(rng.uniform(1.0, 10.0) * 10.0 ** (e + int(rng.integers(-3, 4))))
            p = y * y
            self.check([y], [x * x, -p, -math.nextafter(p, 0.0), float(rng.uniform(-1.0, 1.0)) * p])


def fraction_geometry(p: RelativePair) -> tuple[dict, list]:
    """Distance and unit vector of each pair of distinct centres, and the centres' squared lengths.

    Every squared length x^2 + y^2 is x*x rounded, plus y^2, rounded once:
    the sum is formed exactly as a Fraction.
    """
    c = _centers(p).tolist()
    squares = [exact_add_square(y, x * x) for x, y in c]
    balance = {}
    for i in range(4):
        for j in range(i + 1, 4):
            dx, dy = c[j][0] - c[i][0], c[j][1] - c[i][1]
            d = math.sqrt(exact_add_square(dy, dx * dx))
            if d != 0.0:
                balance[i, j] = (d, dx / d, dy / d)
    return balance, squares


SPECIAL_PAIRS = {
    "collinear": RelativePair(0.6, 0.5, 0.9, 0.3, 0.0),
    "coincident-pairs": RelativePair(0.6, 0.0, 0.9, 0.3, 0.4),
    "all-coincident": RelativePair(0.6, 0.0, 0.9, 0.0, 0.0),
    "short": RelativePair(0.6, 1e-160, 0.9, 3e-161, 2e-161),
    "short-and-long": RelativePair(0.6, 0.5, 0.9, 1e-170, 0.7),
}


@pytest.mark.parametrize("pairs", ["corpus", *SPECIAL_PAIRS])
def test_geometry_matches_a_fraction_reference(pairs):
    for p in corpus_pairs() if pairs == "corpus" else [SPECIAL_PAIRS[pairs]]:
        balance, squares = fraction_geometry(p)
        _, _, index, dist, _, unit, triples, _, _, _, shift, n, _ = _geometry(_centers(p))
        got = {(i, j): (dist[k, 0], *unit[:, k, 0]) for k, (i, j) in enumerate(index.T.tolist())}
        assert n == len(balance) and got == balance
        for k, (i, j, m) in enumerate(triples.T.tolist()):
            assert shift[:, k, 0].tolist() == [squares[j] - squares[i], squares[m] - squares[i]]


# names of numpy calls that run in a BLAS or LAPACK kernel picked at run time
KERNEL_NAMES = {"linalg", "matmul", "einsum", "inner"}


def kernel_calls(path: Path, allowed: tuple[str, ...] = ()) -> list[str]:
    """Matrix-product ``@``, ``.dot`` and KERNEL_NAMES tokens of the file outside the ``allowed`` functions.

    A decorator's ``@`` starts its line and is not counted; comments and
    docstrings are not NAME or OP tokens.
    """
    source = path.read_text()
    skipped = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in allowed
        for line in range(node.lineno, node.end_lineno + 1)
    }
    with tokenize.open(path) as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    line_starts = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    found = []
    for before, tok in zip([None, *tokens], tokens):
        matmul = tok.string == "@" and before is not None and before.type not in line_starts
        dot = tok.string == "dot" and before is not None and before.string == "."
        if tok.start[0] not in skipped and (matmul or dot or (tok.type == tokenize.NAME and tok.string in KERNEL_NAMES)):
            found.append(f"{path.name}:{tok.start[0]}: {tok.line.strip()}")
    return found


def test_no_blas_kernel_in_the_oracle_or_the_seeded_draws():
    assert kernel_calls(PACKAGE / "oracle.py") == []
    assert kernel_calls(PACKAGE / "selftest.py", allowed=("random_rotation",)) == []
    # random_rotation's QR is the one kernel left, and the scan sees it
    assert kernel_calls(PACKAGE / "selftest.py") != []


def test_another_blas_kernel_gives_the_same_bits():
    code = "import test_host_independence as t; print(t.draws_digest(), t.geometry_digest())"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge", "PYTHONPATH": os.pathsep.join((str(PACKAGE.parent), str(TESTS)))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [draws_digest(), geometry_digest()]
