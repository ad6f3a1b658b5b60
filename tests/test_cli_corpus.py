"""CLI byte corpus: exit code, stdout and stderr of recorded in-process runs.

``data/cli_corpus.json`` holds argv, exit code, stdout and stderr for
``decide --witness`` and ``witness`` on 20 ``random_effect_pair`` draws
(seed 7), each as drawn and with either effect complemented; the README's
``decide --witness --oracle`` pair; a 1e-160 Bloch vector; ``sharpness`` on
three admitted matrices past the Bloch bound; the four boundary presets in
CSV and JSON at 16 samples; one small ``selftest``; and ``decide --oracle``
on a non-coexistent pair (orthogonal sharp projections), on a pair feasible
only between grid gammas (``test_oracle.THIN``) and on a zero effect, where
the gamma range is the single point 0.  A refactor that keeps every CLI
byte passes it unchanged.  Running this file replays each recorded argv on
the tree it runs on and rewrites the record's exit code, stdout and
stderr, ``PYTHONPATH=src python tests/test_cli_corpus.py``, after printing
what the rewrite moves: the runs that change, and per field, stdout's JSON
fields included, how many and the largest change (``corpus_changes.py``).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from corpus_changes import report
from qcoex.cli import main

PATH = Path(__file__).parent / "data" / "cli_corpus.json"
CORPUS = json.loads(PATH.read_text())


def replay(argv: list[str]) -> dict:
    """One in-process run of ``argv``: the record of its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write() -> None:
    records = [replay(record["argv"]) for record in CORPUS]
    print(report("CLI corpus", CORPUS, records))
    PATH.write_text(json.dumps(records, indent=1) + "\n")


@pytest.mark.parametrize(
    "record", CORPUS, ids=[f"{k}-{r['argv'][0]}" for k, r in enumerate(CORPUS)]
)
def test_cli_bytes_match_the_corpus(capsys, record):
    code = main(record["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (record["exit"], record["stdout"], record["stderr"])


if __name__ == "__main__":
    write()
