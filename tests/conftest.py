"""Shared test setup.

Puts ``perfbench/`` on ``sys.path`` so tests can judge verdicts with
``reference.py``, the mpmath closed form that shares no formula with qcoex,
and provides a fixture that makes the oracle refuse to run.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))


@pytest.fixture
def no_oracle(monkeypatch):
    """Make every entry point of qcoex.oracle raise, so a test shows it never runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was called")

    for name in ("_minimax", "disks_feasible", "oracle_scan", "oracle_coexistent"):
        monkeypatch.setattr(f"qcoex.oracle.{name}", refuse)
