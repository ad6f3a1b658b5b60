#!/usr/bin/env python3
"""qcoex benchmark: decide, witness, oracle, boundary and CLI requests.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload random --seed 1 --seconds 20 --trace 0

Each run sends whole rounds of requests (see ``workloads.ROUND``) in one
process and one thread until ``--seconds`` have passed, checks every output
against references computed apart from qcoex, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds per-kind counts, regime shares and the
environment.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ROUND, WORKLOADS, Stream, build_round, complement, random_rotation  # noqa: E402

KINDS = tuple(ROUND)
# Short requests (decide, witness, boundary) are served in groups of GROUP
# between one probe pair; oracle and CLI requests get a probe pair each.
GROUP = 8
# Fewest rounds in a run, so that the oracle tail has 40 or more samples.
MIN_ROUNDS = 6
# Fresh `import qcoex.cli` processes behind cli.import_ms in traced runs.
CLI_IMPORT_REPEATS = 7
# Fresh `import qcoex` processes behind setup_s, at the start of every round,
# so the samples span the run as the host's speed drifts.
SETUP_PER_ROUND = 2
ORACLE_BAND = 1e-6
# Program and mpmath boundary radii may differ by this much: by_max takes
# square roots of nearly cancelling products close to the junctions.
CURVE_TOL = 1e-7
# The program treats a triple as unrestricted up to its BOUNDARY_TOL (1e-12)
# above the C1 threshold beta = 1 - S(A); this adds the roundoff of 1 - S.
THRESHOLD_BAND = 2e-12
LAUNCHER = "import sys; from qcoex.cli import main; sys.exit(main())"

# The host's speed swings by 30-50 % over seconds, which moved the run
# medians of raw wall times by 15-25 % between seeds.  Every timed request
# is therefore bracketed by two runs of a fixed computation that does not
# involve qcoex (a probe), and its wall time is reported scaled to the
# probe's reference time.  Small-object Python work (decide, witness,
# boundary) follows the interpreter probe; numpy array kernels (oracle) and
# process start (CLI, set-up) follow the array probe (README.md has the
# figures).  Raw medians are kept in the detail line.
PROBE_GRID = np.linspace(0.0, 1.0, 10_001)
PROBE_COLS = np.arange(4.0)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, or they do not import)."""


def load_qcoex():
    if not (SRC / "qcoex" / "__init__.py").is_file():
        raise SetupError(f"no qcoex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    qc = importlib.import_module("qcoex")
    if SRC.resolve() not in Path(qc.__file__).resolve().parents:
        raise SetupError(f"qcoex was imported from {qc.__file__}, not from {SRC}")
    modules = {"qcoex": qc}
    for name in ("bloch", "coexist", "oracle", "witness", "selftest", "cli"):
        modules[f"qcoex.{name}"] = importlib.import_module(f"qcoex.{name}")
    return qc, modules


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _array_work() -> None:
    for _ in range(4):
        r = np.sqrt(PROBE_GRID[:, None] ** 2 + PROBE_COLS[None, :]).max(axis=1)
        np.minimum(r, PROBE_GRID, out=r)


def _interpreter_work() -> None:
    acc = 0.0
    for i in range(400):
        v = np.array((0.1 * i, 0.2, 0.3))
        w = np.array((0.3, 0.1, 0.2 * i))
        d = float(np.dot(v, w))
        p = _Point(d / (float(np.linalg.norm(v)) + 1.0), math.sqrt(abs(d) + 1.0))
        acc += p.x + p.y


# probe work -> its reference time in seconds (about its median on the host)
PROBES = {_array_work: 3e-3, _interpreter_work: 2e-3}
PROBE_FOR = {
    "decide": _interpreter_work,
    "witness": _interpreter_work,
    "boundary": _interpreter_work,
    "oracle": _array_work,
    "cli": _array_work,
}


def probe(work) -> float:
    """Best of two wall times of a probe, in seconds."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(measure, work):
    """Run ``measure()`` between two probes; (its result, reference-speed factor)."""
    before = probe(work)
    result = measure()
    return result, 2.0 * PROBES[work] / (before + probe(work))


def fresh_import(module: str) -> tuple[float, float]:
    """Raw and scaled wall time of a fresh interpreter that only imports ``module``."""

    def once() -> float:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"import {module} failed: {proc.stderr.decode()[-400:]}")
        return time.perf_counter() - start

    raw, factor = scaled(once, _array_work)
    return raw, raw * factor


def tail(values: list[float]) -> float:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def spec(e) -> str:
    return json.dumps({"alpha": e[0], "a": list(e[1])})


class Bench:
    """One run: the request loop, the checks and the tallies."""

    def __init__(self, qc, workload: str, seed: int, tracer: Tracer | None):
        self.qc = qc
        self.cli = importlib.import_module("qcoex.cli")
        self.stream = Stream(workload, seed, qc)
        self.rng = np.random.default_rng([seed, 7919])
        self.tracer = tracer
        self.raw = {kind: [] for kind in KINDS}  # wall seconds of requests that passed
        self.latency = {kind: [] for kind in KINDS}  # the same, at reference speed
        self.work = {kind: 0 for kind in KINDS}  # boundary samples emitted
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.unexpected: list[str] = []
        self.regimes: dict[str, int] = {}
        self.coexistent = 0
        self.main_ms: list[float] = []
        self.setup: list[tuple[float, float]] = []  # (raw, scaled) import seconds
        self.request = None  # (kind, number) being served

    def tracing(self):
        """Trace the program calls made inside the block, in traced runs."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.recording(self.request)

    # ---- program calls made outside the timed regions

    def effects(self, case):
        return self.qc.BlochEffect(*case.A), self.qc.BlochEffect(*case.B)

    def verdict(self, A, B):
        return self.qc.classify(self.qc.relative_pair(A, B)[0])

    def coexistent_by_program(self, case) -> bool:
        try:
            return self.verdict(*self.effects(case)).coexistent
        except (ArithmeticError, ValueError):
            return False

    # ---- requests

    def decide(self, case):
        A, B = self.effects(case)
        with self.tracing():
            start = time.perf_counter()
            pair, _ = self.qc.relative_pair(A, B)
            verdict = self.qc.classify(pair)
            elapsed = time.perf_counter() - start
        self.regimes[verdict.regime] = self.regimes.get(verdict.regime, 0) + 1
        self.coexistent += verdict.coexistent
        return elapsed, self.check_decide(case, A, B, verdict.coexistent), 1

    def check_decide(self, case, A, B, got: bool) -> str | None:
        if case.expect is not None and got != case.expect:
            return f"verdict {got} against closed form {case.expect}"
        if case.special is not None:
            if case.special[0] == "busch":
                want = ref.busch_coexistent(case.A[1], case.B[1])
            else:
                want = ref.molnar_coexistent(*case.special[1:])
            if got != want:
                return f"verdict {got} against the {case.special[0]} closed form {want}"
        rot = random_rotation(self.rng)
        BE = self.qc.BlochEffect
        variants = {
            "complement A": (BE(*complement(case.A)), B),
            "complement B": (A, BE(*complement(case.B))),
            "swap": (B, A),
            "rotation": (BE(case.A[0], rot @ A.avec), BE(case.B[0], rot @ B.avec)),
        }
        for name, (X, Y) in variants.items():
            if self.verdict(X, Y).coexistent != got:
                return f"verdict changes under {name}"
        return None

    def witness(self, case):
        A, B = self.effects(case)
        with self.tracing():
            start = time.perf_counter()
            wt = self.qc.find_witness(A, B)
            obs = None if wt is None else self.qc.assemble_observable(A, B, wt)
            elapsed = time.perf_counter() - start
        if obs is None:
            return elapsed, "no witness for a pair decided coexistent", 1
        if obs.g1.alpha != wt.gamma or not np.array_equal(obs.g1.avec, wt.gvec):
            return elapsed, "first outcome differs from the witness", 1
        outcomes = [(g.alpha, g.avec) for g in obs.effects()]
        return elapsed, ref.joint_observable_error(case.A, case.B, outcomes), 1

    def oracle(self, case):
        A, B = self.effects(case)
        with self.tracing():
            start = time.perf_counter()
            res = self.qc.oracle_coexistent(A, B)
            elapsed = time.perf_counter() - start
        return elapsed, self.check_oracle(case, A, B, res), 1

    def check_oracle(self, case, A, B, res) -> str | None:
        if abs(res.margin) >= ORACLE_BAND:
            if res.coexistent != self.verdict(A, B).coexistent:
                return f"oracle {res.coexistent} (margin {res.margin!r}) against classify"
            if case.expect is not None and res.coexistent != case.expect:
                return f"oracle {res.coexistent} (margin {res.margin!r}) against closed form"
        if case.depth is not None or case.fault:
            if res.coexistent != case.expect:
                return f"oracle {res.coexistent} against the placed sign (margin {res.margin!r})"
        if not res.coexistent:
            return None if res.margin > 0 else f"infeasible with margin {res.margin!r}"
        if res.gamma is None or res.point is None:
            return "coexistent without a certificate"
        if not res.gamma_lo - 1e-12 <= res.gamma <= res.gamma_hi + 1e-12:
            return f"gamma {res.gamma!r} outside [{res.gamma_lo!r}, {res.gamma_hi!r}]"
        excess = ref.disk_excess(ref.canonical_plane(case.A, case.B), res.gamma, res.point)
        if excess > ref.DISK_TOL:
            return f"certificate point {excess:.3e} outside the disks"
        return None

    def boundary(self, case):
        alpha, a, beta = ref.canonical_plane(case.A, case.B)[:3]
        with self.tracing():
            start = time.perf_counter()
            curve = self.qc.boundary_curve(alpha, a, beta)
            elapsed = time.perf_counter() - start
        return elapsed, self.check_boundary(curve, alpha, a, beta), len(curve.bx)

    def check_boundary(self, curve, alpha, a, beta) -> str | None:
        bx, r, tags = np.asarray(curve.bx), np.asarray(curve.r), curve.regime
        if not len(bx) == len(r) == len(tags) or np.any(np.diff(bx) <= 0.0):
            return "samples are not sorted or not aligned"
        if bx[0] != -beta or bx[-1] != beta:
            return "samples do not span [-beta, beta]"
        if np.any(r > beta + 1e-12):
            return f"r exceeds beta by {float(r.max() - beta):.3e}"
        circle = np.array([t == "circle" for t in tags])
        if np.any(r[circle] != beta):
            return "a circle sample has r != beta"
        iv = ref.restricted_interval(alpha, a, beta)
        if iv is not None and curve.b0 is None and beta - (1 - ref.sharpness(alpha, a)) <= THRESHOLD_BAND:
            iv = None  # within the program's tolerance above the C1 threshold
        if iv is None:
            return None if curve.b0 is None and circle.all() else "restricted curve on an unrestricted triple"
        b0, w = iv
        if curve.b0 is None or abs(curve.b0 - b0) > 1e-9 or abs(curve.w - w) > 1e-9:
            return f"(b0, w) = ({curve.b0!r}, {curve.w!r}) against ({float(b0)!r}, {float(w)!r})"
        dist = np.array([float(abs(x - b0) - w) for x in bx])
        if np.any(circle & (dist < -1e-9)) or np.any(~circle & (dist > 1e-9)):
            return "a sample carries the wrong arc tag"
        probes = set(self.rng.choice(len(bx), size=4, replace=False).tolist())
        for j, own in ((b0 - w, curve.b0 - curve.w), (b0 + w, curve.b0 + curve.w)):
            if not -beta + 1e-9 < j < beta - 1e-9:
                continue
            k = int(np.argmin(np.abs(bx - float(j))))
            if bx[k] != own or tags[k] != "circle":
                return f"junction {float(j)!r} is not inserted as a circle sample"
            probes.update(i for i in (k - 1, k + 1) if 0 <= i < len(bx))
        for k in sorted(probes):
            want = ref.boundary_radius(alpha, a, beta, bx[k])
            if abs(r[k] - want) > CURVE_TOL:
                return f"r({bx[k]!r}) = {r[k]!r} against {float(want)!r}"
        return None

    def cli_request(self, case):
        argv = ["decide", spec(case.A), spec(case.B), "--witness"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, *argv],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.in_process_main(argv)
        return elapsed, self.check_cli(case, proc), 1

    def in_process_main(self, argv):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with self.tracing(), contextlib.redirect_stdout(out):
                self.cli.main(argv)
        except Exception:  # the known fault raises inside main; not timed
            return
        self.main_ms.append(1e3 * (time.perf_counter() - start))

    def check_cli(self, case, proc) -> str | None:
        if proc.returncode not in (0, 1):
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return f"unparsable output (exit {proc.returncode}): {proc.stderr.strip()[-200:]}"
        verdict = self.verdict(*self.effects(case))
        if payload.get("coexistent") != verdict.coexistent or payload.get("regime") != verdict.regime:
            return "CLI verdict differs from the in-process verdict"
        if (proc.returncode == 0) != verdict.coexistent:
            return f"exit code {proc.returncode} for coexistent={verdict.coexistent}"
        wt = payload.get("witness")
        if not verdict.coexistent:
            return None if wt is None else "witness printed for a non-coexistent pair"
        if not isinstance(wt, dict):
            return "no witness printed for a coexistent pair"
        outcomes = [(wt["effects"][g]["alpha"], wt["effects"][g]["a"]) for g in ("G1", "G2", "G3", "G4")]
        return ref.joint_observable_error(case.A, case.B, outcomes)

    # ---- the loop

    def serve(self, kind: str, case) -> tuple[float, int] | None:
        """One request; (wall seconds, work) when it passed its checks."""
        handler = {
            "decide": self.decide,
            "witness": self.witness,
            "oracle": self.oracle,
            "boundary": self.boundary,
            "cli": self.cli_request,
        }[kind]
        self.attempted[kind] += 1
        self.request = (kind, self.attempted[kind])
        try:
            elapsed, error, work = handler(case)
        except Exception as exc:  # a request that raises is a failed request
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            return elapsed, work
        self.failed[kind] += 1
        if not case.fault:
            self.unexpected.append(f"{kind} on {case.family} {case.A} {case.B}: {error}")
        return None

    def serve_group(self, kind: str, cases) -> None:
        """Serve cases back to back between two probes and record their times."""
        done, factor = scaled(lambda: [self.serve(kind, case) for case in cases], PROBE_FOR[kind])
        for elapsed, work in filter(None, done):
            self.raw[kind].append(elapsed)
            self.latency[kind].append(elapsed * factor)
            self.work[kind] += work

    def run(self, seconds: float) -> int:
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            self.setup += [fresh_import("qcoex") for _ in range(SETUP_PER_ROUND)]
            batch = build_round(self.stream, self.coexistent_by_program)
            for kind in KINDS:
                size = 1 if kind in ("oracle", "cli") else GROUP
                cases = batch[kind]
                for i in range(0, len(cases), size):
                    self.serve_group(kind, cases[i : i + size])
            rounds += 1
        return rounds


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mp.__version__,
    }


def end_to_end(bench: Bench) -> dict:
    lat = bench.latency
    values = {
        "setup_s": (statistics.median(s for _, s in bench.setup), "s"),
        "decide_p50_us": (1e6 * statistics.median(lat["decide"]), "us"),
        "witness_p50_us": (1e6 * statistics.median(lat["witness"]), "us"),
        "oracle_p50_ms": (1e3 * statistics.median(lat["oracle"]), "ms"),
        "oracle_tail_ms": (1e3 * tail(lat["oracle"]), "ms"),
        "boundary_samples_per_s": (bench.work["boundary"] / math.fsum(lat["boundary"]), "1/s"),
        "cli_decide_p50_ms": (1e3 * statistics.median(lat["cli"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        qc, modules = load_qcoex()
        tracer = None
        if args.trace:
            tracer = Tracer(modules)
            tracer.install()
        bench = Bench(qc, args.workload, args.seed, tracer)
        rounds = bench.run(args.seconds)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if tracer is None:
        values = end_to_end(bench)
    else:
        tracer.uninstall()
        values = tracer.metrics(rounds)
        imports = [fresh_import("qcoex.cli")[1] for _ in range(CLI_IMPORT_REPEATS)]
        values["cli.import_ms"] = (1e3 * statistics.median(imports), "ms")
        values["cli.main_ms"] = (statistics.median(bench.main_ms) if bench.main_ms else 0.0, "ms")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    decided = sum(bench.regimes.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "requests": {k: {"attempted": bench.attempted[k], "failed": bench.failed[k]} for k in KINDS},
        "samples": {k: len(v) for k, v in bench.latency.items()},
        "p50_raw_ms": {k: 1e3 * statistics.median(v) for k, v in bench.raw.items() if v},
        "p50_scaled_ms": {k: 1e3 * statistics.median(v) for k, v in bench.latency.items() if v},
        "setup_raw_s": statistics.median(r for r, _ in bench.setup),
        "regime_share": {k: n / decided for k, n in sorted(bench.regimes.items())},
        "coexistent_share": bench.coexistent / decided,
        "unexpected_failures": bench.unexpected[:20],
        "env": environment(),
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not bench.unexpected,
        "attempted": sum(bench.attempted.values()),
        "failed": sum(bench.failed.values()),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
