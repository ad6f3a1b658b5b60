"""Boundary corpus: the bits of recorded ``boundary_curve`` samples, replayed with ``==``.

``data/boundary_corpus.json`` holds, for each curve, its parameters and
sample count and what ``boundary_curve`` returned: a sha256 of
``bx.tobytes()``, of ``r.tobytes()`` and of the tags joined by newlines,
the length, and ``b0`` and ``w`` by ``repr``.  The curves are the four
figure presets at 16, 17, 256, 257, 1001 and 100 000 samples; the
``restricted_triples`` draws of ``test_array_path_matches_scalar_loop`` at
its sample counts; the first 200 boundary triples of each perfbench stream
(seed 1, reduced by ``reference.canonical_plane``) at the default 256
samples; and triples with beta down to the smallest subnormal.  A change to
``boundary_curve`` that keeps every sample, radius and tag bit for bit
passes it unchanged.  Running this file writes the corpus from the tree it
runs on: ``PYTHONPATH=src python tests/test_boundary_corpus.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qcoex.cli import PRESETS
from qcoex.coexist import boundary_curve

PATH = Path(__file__).parent / "data" / "boundary_corpus.json"

PRESET_SAMPLES = (16, 17, 256, 257, 1001, 100_000)
# (seed, per source, samples) of test_array_path_matches_scalar_loop
DRAWS = ((16, 100, 16), (256, 50, 256), (100_000, 1, 100_000))
STREAM_TRIPLES = 200
TINY_BETAS = (5e-324, 1e-322, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-12, 0.3, 1.0)
TINY_SHAPES = ((1.0, 1.0), (0.6, 0.6), (0.6, 0.5), (1.0, 0.5))
TINY_SAMPLES = (16, 17, 256, 257)


def corpus_cases() -> list[tuple[str, tuple[float, float, float], int]]:
    """(source, (alpha, a, beta), n_samples) of every curve in the corpus."""
    import reference  # from perfbench/, which conftest.py or the __main__ block puts on sys.path
    import workloads
    from test_coexist import restricted_triples

    import qcoex

    cases = [(name, triple, n) for name, triple in sorted(PRESETS.items()) for n in PRESET_SAMPLES]
    for seed, per_source, n in DRAWS:
        for k, triple in enumerate(restricted_triples(seed, per_source, per_source)):
            cases.append((f"draws-{seed}-{k}", triple, n))
    for workload in workloads.WORKLOADS:
        stream = workloads.Stream(workload, 1, qcoex)
        for k in range(STREAM_TRIPLES):
            case = stream.next("boundary")
            cases.append((f"{workload}-{k}", reference.canonical_plane(case.A, case.B)[:3], 256))
    for beta in TINY_BETAS:
        for alpha, a in TINY_SHAPES:
            for n in TINY_SAMPLES:
                cases.append((f"tiny-{alpha!r}-{a!r}-{beta!r}", (alpha, a, beta), n))
    return cases


def encode(curve) -> dict:
    """The curve's outputs: array and tag bytes by sha256, floats by repr."""
    return {
        "length": len(curve.bx),
        "bx": hashlib.sha256(curve.bx.tobytes()).hexdigest(),
        "r": hashlib.sha256(curve.r.tobytes()).hexdigest(),
        "regime": hashlib.sha256("\n".join(curve.regime).encode()).hexdigest(),
        "b0": repr(curve.b0),
        "w": repr(curve.w),
    }


def write() -> None:
    records = [
        {
            "source": name,
            "triple": [repr(float(v)) for v in triple],
            "n": n,
            "curve": encode(boundary_curve(*(float(v) for v in triple), n)),
        }
        for name, triple, n in corpus_cases()
    ]
    PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


CORPUS = json.loads(PATH.read_text()) if PATH.exists() else []


@pytest.mark.parametrize("record", CORPUS, ids=[f"{r['source']}-n{r['n']}" for r in CORPUS])
def test_boundary_curves_match_the_corpus(record):
    alpha, a, beta = (float(v) for v in record["triple"])
    assert encode(boundary_curve(alpha, a, beta, record["n"])) == record["curve"]


def test_corpus_covers_every_source():
    draws = sum(2 * per_source for _, per_source, _ in DRAWS)
    tiny = len(TINY_BETAS) * len(TINY_SHAPES) * len(TINY_SAMPLES)
    assert len(CORPUS) == 4 * len(PRESET_SAMPLES) + draws + 3 * STREAM_TRIPLES + tiny


if __name__ == "__main__":
    import sys

    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    write()
