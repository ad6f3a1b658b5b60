"""Which entry points load numpy, each seen from a fresh interpreter.

The decision, the witness and their checks run on Python floats, so
``import qcoex``, ``decide``, ``decide --witness``, ``witness`` and
``sharpness`` of a Bloch spec never import numpy.  The oracle, the boundary
curve and matrix inputs make arrays and load it when first used.  The
records are named tuples, so no path imports ``dataclasses``, and the
numpy-free paths do not import ``inspect`` (numpy itself does).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcoex

SRC = str(Path(qcoex.__file__).resolve().parents[1])
A = '{"alpha": 0.6, "a": [0.5, 0, 0]}'
B = '{"alpha": 0.9, "a": [0.1, 0.2, 0.2]}'
PROJ_Z = '{"alpha": 1, "a": [0, 0, 1]}'
PROJ_Y = '{"alpha": 1, "a": [0, 1, 0]}'
HALF = '{"matrix": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}'
WATCHED = ("numpy", "dataclasses", "inspect")


def loaded_after(statements):
    """Run the statements in turn in a fresh interpreter, their output
    discarded; which of the WATCHED modules are loaded after each."""
    lines = ["import contextlib, io, sys"]
    for statement in statements:
        lines.append(f"with contextlib.redirect_stdout(io.StringIO()): {statement}")
        lines.append(f"print(','.join(m for m in {WATCHED!r} if m in sys.modules) or '-')")
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(line.split(",")) - {"-"} for line in proc.stdout.split()]


def test_decision_and_witness_paths_do_not_load_numpy():
    statements = [
        "import qcoex",
        "from qcoex.cli import main",
        f"assert main(['decide', {A!r}, {B!r}]) == 0",
        f"assert main(['decide', {A!r}, {B!r}, '--witness']) == 0",
        f"assert main(['decide', {PROJ_Z!r}, {PROJ_Y!r}, '--witness']) == 1",
        f"assert main(['witness', {A!r}, {B!r}]) == 0",
        f"assert main(['sharpness', {A!r}]) == 0",
    ]
    assert loaded_after(statements) == [set()] * len(statements)


@pytest.mark.parametrize(
    "statement",
    [
        f"assert main(['decide', {A!r}, {B!r}, '--oracle']) == 0",
        "assert main(['boundary', '--preset', 'fig1a', '--samples', '16']) == 0",
        f"assert main(['sharpness', {HALF!r}]) == 0",
        "qcoex.oracle_scan",
        # every public name resolves, the ones served on first use included
        "[getattr(qcoex, name) for name in qcoex.__all__]",
    ],
    ids=["decide-oracle", "boundary", "matrix-spec", "oracle_scan", "all-names"],
)
def test_array_paths_load_numpy(statement):
    statements = ["import qcoex", "from qcoex.cli import main", statement]
    first, second, last = loaded_after(statements)
    assert first == second == set()
    assert "numpy" in last and "dataclasses" not in last
