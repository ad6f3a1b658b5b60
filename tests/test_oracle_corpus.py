"""Oracle corpus: every ``OracleResult`` field of recorded scans, replayed with ``==``.

``data/oracle_corpus.json`` holds, for each pair, its relative coordinates
and what ``oracle_scan`` returned for it: every float by ``repr``, and
``kernel_calls`` and ``columns``.  The pairs are the first 200 pairs of
acceptance criterion 3 (``random_effect_pair``, seed 2025), the first 60
oracle pairs of each perfbench stream (seed 1), perfbench's three
near-parallel fault pairs and the README's SIC example.  A change to the
oracle that keeps every float bit for bit, and the work it counts, passes
it unchanged.  Running this file writes the corpus from the tree it runs
on, ``PYTHONPATH=src python tests/test_oracle_corpus.py``, and first prints
what the rewrite moves: the records that change, and per field how many
and the largest change (``corpus_changes.py``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcoex
from corpus_changes import report
from qcoex.bloch import BlochEffect, RelativePair, relative_pair
from qcoex.oracle import OracleResult, oracle_scan
from qcoex.selftest import random_effect_pair

PATH = Path(__file__).parent / "data" / "oracle_corpus.json"


def corpus_pairs() -> list[tuple[str, RelativePair]]:
    """The corpus's pairs, each with the name of its source."""
    import workloads  # from perfbench/, which conftest.py or the __main__ block puts on sys.path

    rng = np.random.default_rng(2025)
    named = [(f"criterion-3-{k}", random_effect_pair(rng)) for k in range(200)]
    for workload in workloads.WORKLOADS:
        stream = workloads.Stream(workload, 1, qcoex)
        for k in range(60):
            case = stream.next("oracle")
            named.append((f"{workload}-{k}", (BlochEffect(*case.A), BlochEffect(*case.B))))
    for case in workloads.fault_cases():
        named.append((case.family, (BlochEffect(*case.A), BlochEffect(*case.B))))
    s = 1.0 / math.sqrt(3.0)
    named.append(("readme-sic", (BlochEffect(1.0, (s, 0.0, 0.0)), BlochEffect(1.0, (0.0, s, 0.0)))))
    return [(name, relative_pair(A, B)[0]) for name, (A, B) in named]


def encode(result: OracleResult) -> dict:
    """The result's fields, floats by repr so that == compares bits."""
    fields = {}
    for name, value in result._asdict().items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, tuple):
            value = [repr(v) for v in value]
        fields[name] = value
    return fields


def write() -> None:
    records = [
        {"source": name, "pair": [repr(v) for v in pair], "result": encode(oracle_scan(pair))}
        for name, pair in corpus_pairs()
    ]
    print(report("oracle corpus", CORPUS, records))
    PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


CORPUS = json.loads(PATH.read_text()) if PATH.exists() else []


@pytest.mark.parametrize("record", CORPUS, ids=[r["source"] for r in CORPUS])
def test_oracle_results_match_the_corpus(record):
    pair = RelativePair(*(float(v) for v in record["pair"]))
    assert encode(oracle_scan(pair)) == record["result"]


def test_corpus_covers_every_source():
    assert len(CORPUS) == 200 + 3 * 60 + 3 + 1


if __name__ == "__main__":
    import sys

    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    write()
