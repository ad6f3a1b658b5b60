"""CLI byte corpus: exit code, stdout and stderr of recorded in-process runs.

``data/cli_corpus.json`` holds argv, exit code, stdout and stderr for
``decide --witness`` and ``witness`` on 20 ``random_effect_pair`` draws
(seed 7), each as drawn and with either effect complemented; the README's
``decide --witness --oracle`` pair; a 1e-160 Bloch vector; ``sharpness`` on
three admitted matrices past the Bloch bound; the four boundary presets in
CSV and JSON at 16 samples; and one small ``selftest``.  A refactor that
keeps every CLI byte passes it unchanged.
"""

import json
from pathlib import Path

import pytest

from qcoex.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())


@pytest.mark.parametrize(
    "record", CORPUS, ids=[f"{k}-{r['argv'][0]}" for k, r in enumerate(CORPUS)]
)
def test_cli_bytes_match_the_corpus(capsys, record):
    code = main(record["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (record["exit"], record["stdout"], record["stderr"])
