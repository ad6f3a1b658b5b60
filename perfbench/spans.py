"""Spans and counts around calls into the layers of qcoex, from outside it.

Each traced function is replaced at the module attribute of every qcoex
module that holds it, so calls made inside the package are seen too (for
example ``qcoex.witness.oracle_scan``, the witness fallback, and
``qcoex.coexist.sharpness_scalar``, the sharpness call inside ``classify``).
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from functools import wraps

# layer -> functions of that layer's module that are wrapped.  Functions
# without a metric of their own are wrapped so that their time is charged
# to the right layer's self time.
TRACED = {
    "bloch": ("relative_pair", "sharpness_scalar", "effect_to_matrix", "complement", "sharpness"),
    "coexist": ("classify", "by_max", "boundary_curve", "is_coexistent"),
    "witness": ("find_witness", "operator_inequalities_hold", "assemble_observable", "gamma_interval_2ci"),
    "oracle": ("oracle_coexistent", "oracle_scan", "disks_feasible"),
}
# A call that one layer makes into another under its own metric name.
ALIASES = {("witness", "oracle_scan"): "witness.oracle_fallback"}
# Leaf calls made thousands of times per request (by_max once per boundary
# sample): timed and counted, but not kept as spans, so a 30-s trace stays
# a few MB.
COUNT_ONLY = {"sharpness_scalar", "sharpness", "complement", "effect_to_matrix", "by_max", "disks_feasible"}


class Tracer:
    """Installs wrappers, records spans and derives the per-layer metrics."""

    def __init__(self, modules: dict):
        self.modules = modules  # name -> module, the package itself included
        self.spans: list[tuple] = []  # (id, parent, layer, name, alias, request, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.nested_checks = 0  # operator_inequalities_hold called by find_witness
        self.witnesses = 0  # find_witness calls that returned a witness
        self.request = None
        self._next_id = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, alias: str | None, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:  # the benchmark's own checks
                return fn(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [sid, name, 0.0]  # id, name, time covered by child spans
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(layer, name, alias, parent, frame, start, end)
            if name == "find_witness" and result is not None:
                tracer.witnesses += 1
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, request):
        """Trace the calls made inside the block, tagged with ``request``."""
        self.request = request
        try:
            yield
        finally:
            self.request = None

    def _close(self, layer, name, alias, parent, frame, start, end):
        span = end - start
        key = f"{layer}.{name}"
        self.calls[key] += 1
        self.busy[key] += span
        if alias is not None:
            self.calls[alias] += 1
            self.busy[alias] += span
        self.self_time[layer] += span - frame[2]
        if parent is not None:
            parent[2] += span
            if name == "operator_inequalities_hold" and parent[1] == "find_witness":
                self.nested_checks += 1
        if name not in COUNT_ONLY:
            pid = None if parent is None else parent[0]
            self.spans.append((frame[0], pid, layer, name, alias, self.request, start, end))

    def install(self) -> None:
        for layer, names in TRACED.items():
            home = self.modules[f"qcoex.{layer}"]
            for name in names:
                original = getattr(home, name)
                for modname, mod in self.modules.items():
                    if getattr(mod, name, None) is not original:
                        continue
                    user = modname.rsplit(".", 1)[-1]
                    alias = ALIASES.get((user, name))
                    self._saved.append((mod, name, original))
                    setattr(mod, name, self._wrap(layer, name, alias, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a run of ``rounds`` whole rounds.

        Every round holds the same requests, but a run holds as many rounds
        as fit in its time, which depends on the speed of every layer.  So
        counts and times are given per round, and each belongs to its layer.
        """
        c, b, s = self.calls, self.busy, self.self_time
        scans = c["oracle.oracle_scan"]
        count = {
            "bloch.relative_pair.calls": c["bloch.relative_pair"],
            "bloch.sharpness_scalar.calls": c["bloch.sharpness_scalar"],
            "bloch.effect_to_matrix.calls": c["bloch.effect_to_matrix"],
            "coexist.classify.calls": c["coexist.classify"],
            "coexist.by_max.calls": c["coexist.by_max"],
            "coexist.boundary_curve.calls": c["coexist.boundary_curve"],
            "witness.find_witness.calls": c["witness.find_witness"],
            "witness.operator_inequalities_hold.calls": c["witness.operator_inequalities_hold"],
            "witness.oracle_fallback.calls": c["witness.oracle_fallback"],
            "oracle.oracle_scan.calls": scans,
            "oracle.disks_feasible.calls": c["oracle.disks_feasible"],
        }
        seconds = {
            "bloch.relative_pair.busy_s": b["bloch.relative_pair"],
            "bloch.self_s": s["bloch"],
            "coexist.classify.busy_s": b["coexist.classify"],
            "coexist.by_max.busy_s": b["coexist.by_max"],
            "coexist.boundary_curve.busy_s": b["coexist.boundary_curve"],
            "coexist.self_s": s["coexist"],
            "witness.find_witness.busy_s": b["witness.find_witness"],
            "witness.operator_inequalities_hold.busy_s": b["witness.operator_inequalities_hold"],
            "witness.oracle_fallback.busy_s": b["witness.oracle_fallback"],
            "witness.assemble_observable.busy_s": b["witness.assemble_observable"],
            "witness.self_s": s["witness"],
            "oracle.oracle_scan.busy_s": b["oracle.oracle_scan"],
            "oracle.self_s": s["oracle"],
        }
        values = {name: (n / rounds, "count/round") for name, n in count.items()}
        values.update({name: (t / rounds, "s/round") for name, t in seconds.items()})
        values["witness.candidates_per_witness"] = (
            self.nested_checks / self.witnesses if self.witnesses else 0.0,
            "ratio",
        )
        values["oracle.disks_feasible_per_scan"] = (
            c["oracle.disks_feasible"] / scans if scans else 0.0,
            "ratio",
        )
        return values

    def write(self, path) -> None:
        """Spans as columns, plus the counts, to a JSON file."""
        cols = ("id", "parent", "layer", "name", "alias", "request", "start", "end")
        data = {
            "columns": cols,
            "spans": [list(span) for span in self.spans],
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
