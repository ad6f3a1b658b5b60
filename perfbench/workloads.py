"""Seeded input streams of the three workloads, built into rounds of requests.

A round holds the same number of requests of each kind on every workload,
so the workloads differ only in their pairs.  ``near-boundary`` also puts
the three near-parallel projection pairs (the known fault) into fixed slots
of every round, so the failed share of a run does not depend on the seed or
on how many rounds fit in the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

import reference as ref

WORKLOADS = ("random", "sharp", "near-boundary")

# Requests of each kind in one round.
ROUND = {"decide": 128, "witness": 24, "oracle": 8, "boundary": 192, "cli": 9}

# Classes that take different paths and differ most in cost, per workload
# and kind: ("expect", share) by closed-form verdict (oracle refinement, the
# CLI witness), ("restricted", share) by whether the triple has a restricted
# interval (by_max per boundary sample, 30x slower).  ``share`` is the
# measured share of True in the workload's own stream (two seeds of 50 000
# draws each: 13.9 % restricted on random, 80.5 % restricted and 47.7 %
# coexistent on sharp).  A round gives that class round(share * slots) of
# its slots of the kind, spread evenly, so the mix is the stream's but does
# not drift with the seed.  near-boundary cycles through its placements,
# which fixes its mix by construction.
STRATA = {
    "random": {"boundary": ("restricted", 0.139)},
    "sharp": {
        "oracle": ("expect", 0.477),
        "cli": ("expect", 0.477),
        "boundary": ("restricted", 0.805),
    },
    "near-boundary": {},
}

# Pairs closer to the closed-form boundary than this (in the units of
# reference.coexistence_margin) have no expected verdict on the random and
# sharp workloads.
MARGIN_BAND = 1e-9

# Sharp projection {"alpha": 1, "a": [1, 0, 0]} against the same vector
# turned by these angles: non-commuting, hence not coexistent, but decided
# coexistent today (absolute 1e-12 tolerance and the sqrt(b^2 - bx^2)
# cancellation in relative_pair).
FAULT_ANGLES = (1e-6, 1e-7, 1e-8)

# Signed distances from the allowed-region boundary on near-boundary.
DEPTHS = tuple(10.0 ** -k for k in range(3, 11))
PROJECTION_ANGLES = tuple(10.0 ** -k for k in range(1, 6))


@dataclass(frozen=True)
class Case:
    """One effect pair and what the references say about it.

    ``expect`` is the closed-form verdict (None inside the margin band);
    ``special`` names a historical special case the pair belongs to, with
    its parameters; ``fault`` marks the known near-parallel fault.
    """

    A: tuple
    B: tuple
    family: str
    expect: bool | None
    special: tuple | None = None
    fault: bool = False
    depth: float | None = None


def effect(alpha, avec) -> tuple:
    return float(alpha), tuple(float(v) for v in avec)


def complement(e) -> tuple:
    return 2.0 - e[0], tuple(-v for v in e[1])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def closed_form_expect(A, B) -> bool | None:
    m = ref.coexistence_margin(A[0], A[1], B[0], B[1])
    return None if abs(m) < MARGIN_BAND else bool(m >= 0)


def fault_cases() -> list[Case]:
    A = effect(1.0, (1.0, 0.0, 0.0))
    return [
        Case(A, effect(1.0, (math.cos(t), math.sin(t), 0.0)), f"fault-{t:g}rad", False, ("busch",), True)
        for t in FAULT_ANGLES
    ]


class Stream:
    """Seeded source of pairs for one workload."""

    def __init__(self, workload: str, seed: int, qcoex):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.qcoex = qcoex
        self.counter: dict[str, int] = {}

    def _tick(self, key: str) -> int:
        n = self.counter.get(key, 0)
        self.counter[key] = n + 1
        return n

    # ---- random: the package's own generator, as the agreement sweep draws

    def _random(self) -> Case:
        A, B = self.qcoex.random_effect_pair(self.rng)
        A, B = effect(A.alpha, A.avec), effect(B.alpha, B.avec)
        return Case(A, B, "random", closed_form_expect(A, B))

    # ---- sharp: near-projections, unbiased pairs, scaled projections

    def _near_sharp(self) -> tuple:
        rng = self.rng
        alpha = 1.0 - 0.9 * rng.random() ** 2
        a = alpha * (1.0 - 0.1 * rng.random())
        e = effect(alpha, a * unit(rng))
        return complement(e) if rng.random() < 0.5 else e

    def _sharp(self) -> Case:
        rng = self.rng
        pick = rng.random()
        if pick < 0.1:
            A = effect(1.0, (0.3 + 0.7 * rng.random()) * unit(rng))
            B = effect(1.0, (0.3 + 0.7 * rng.random()) * unit(rng))
            return Case(A, B, "unbiased", closed_form_expect(A, B), ("busch",))
        if pick < 0.2:
            lam, mu = 0.3 + 0.7 * rng.random(), 0.3 + 0.7 * rng.random()
            u, v = unit(rng), unit(rng)
            A, B = effect(lam, lam * u), effect(mu, mu * v)
            if rng.random() < 0.5:
                A = complement(A)
            if rng.random() < 0.5:
                B = complement(B)
            special = ("molnar", lam, tuple(u), mu, tuple(v))
            return Case(A, B, "scaled-projection", closed_form_expect(A, B), special)
        A = self._near_sharp()
        if pick < 0.25:
            B = effect(0.2 + 1.6 * rng.random(), (0.0, 0.0, 0.0))
            return Case(A, B, "trivial", True)
        B = self._near_sharp()
        return Case(A, B, "near-sharp", closed_form_expect(A, B))

    # ---- near-boundary: pairs placed at a signed distance from the boundary

    def _restricted_triple(self):
        rng = self.rng
        while True:
            alpha = mp.mpf(0.3 + 0.7 * rng.random())
            a = alpha * mp.mpf(0.3 + 0.7 * rng.random())
            beta = mp.mpf(0.3 + 0.7 * rng.random())
            if beta > 1 - ref.sharpness(alpha, a) + mp.mpf("1e-3"):
                b0, w = ref.restricted_interval(alpha, a, beta)
                lo, hi = max(b0 - w, -beta), min(b0 + w, beta)
                if hi > lo:
                    return alpha, a, beta, lo, hi, b0, w

    def _embed(self, alpha, a, beta, bx, by, family, expect, depth) -> Case:
        """Turn canonical coordinates into a rotated, relabelled float pair."""
        rng = self.rng
        rot = random_rotation(rng)
        A = effect(alpha, rot @ np.array([float(a), 0.0, 0.0]))
        B = effect(beta, rot @ np.array([float(bx), float(by), 0.0]))
        if rng.random() < 0.5:
            A = complement(A)
        if rng.random() < 0.5:
            B = complement(B)
        if rng.random() < 0.5:
            A, B = B, A
        margin = ref.coexistence_margin(A[0], A[1], B[0], B[1])
        if (margin >= 0) != expect:
            raise RuntimeError(
                f"placement and closed form disagree for {family} at depth {depth!r}: {A}, {B}"
            )
        special = ("busch",) if family == "projection" else None
        return Case(A, B, family, expect, special, depth=float(depth))

    def _placed(self, family: str, sign: int) -> Case:
        rng = self.rng
        depth = DEPTHS[self._tick(f"depth-{family}{sign}") % len(DEPTHS)]
        d = mp.mpf(depth)
        while True:
            if family == "projection":
                t = PROJECTION_ANGLES[self._tick("angle") % len(PROJECTION_ANGLES)]
                return self._embed(1, 1, 1, math.cos(t), math.sin(t), family, False, math.sin(t))
            if family == "threshold":
                alpha = mp.mpf(0.3 + 0.7 * rng.random())
                a = alpha * mp.mpf(0.3 + 0.7 * rng.random())
                if sign < 0:
                    beta = 1 - ref.sharpness(alpha, a) - d
                    if beta <= 0:
                        continue
                    bx = beta * mp.mpf(2 * rng.random() - 1)
                    return self._embed(
                        alpha, a, beta, bx, mp.sqrt(beta**2 - bx**2), family, True, depth
                    )
                beta = ref.threshold_excess(alpha, a, d)
                if beta is None:
                    continue
                b0, _ = ref.restricted_interval(alpha, a, beta)
                return self._embed(
                    alpha, a, beta, b0, mp.sqrt(beta**2 - b0**2), family, False, depth
                )
            alpha, a, beta, lo, hi, b0, w = self._restricted_triple()
            if family == "junction":
                # at b0 +/- w, moved radially inside the full-length circle
                x = b0 + w if rng.random() < 0.5 else b0 - w
                if abs(x) >= beta:
                    continue
                scale = (beta - d) / beta
                return self._embed(
                    alpha, a, beta, x * scale, mp.sqrt(beta**2 - x**2) * scale, family, True, depth
                )
            if family == "curve":
                u = mp.mpf(0.05 + 0.9 * rng.random())
            else:  # "junction-side": on the curve close to either junction
                u = mp.mpf(10) ** -int(rng.integers(2, 8))
                if rng.random() < 0.5:
                    u = 1 - u
            x, y = ref.curve_normal_offset(alpha, a, beta, lo + (hi - lo) * u, sign * d)
            if y < 0 or x * x + y * y > beta * beta:
                continue
            return self._embed(alpha, a, beta, x, y, family, sign < 0, depth)

    NEAR_SPECS = (
        ("curve", 1),
        ("curve", -1),
        ("junction-side", 1),
        ("junction-side", -1),
        ("junction", -1),
        ("threshold", 1),
        ("threshold", -1),
        ("projection", 1),
    )

    def next(self, kind: str) -> Case:
        if self.workload == "random":
            return self._random()
        if self.workload == "sharp":
            return self._sharp()
        specs = self.NEAR_SPECS
        return self._placed(*specs[self._tick(f"spec-{kind}") % len(specs)])


def restricted(case: Case) -> bool:
    alpha, a, beta = ref.canonical_plane(case.A, case.B)[:3]
    return ref.restricted_interval(alpha, a, beta) is not None


def build_round(stream: Stream, classify_coexistent) -> dict[str, list[Case]]:
    """Inputs of one round: ROUND[kind] cases per kind.

    Witness requests go to pairs that the program's own decision declares
    coexistent, as ``qcoex decide --witness`` does.
    """
    faults = fault_cases() if stream.workload == "near-boundary" else []
    strata = STRATA[stream.workload]
    rnd: dict[str, list[Case]] = {}
    for kind, count in ROUND.items():
        cases = list(faults) if kind in ("decide", "witness", "oracle", "cli") else []
        if kind == "witness":
            cases = [c for c in cases if classify_coexistent(c)]
        start = len(cases)
        while len(cases) < count:
            case = stream.next(kind)
            if kind == "witness" and not classify_coexistent(case):
                continue
            if kind in strata:
                key, share = strata[kind]
                slot = len(cases) - start
                want = round((slot + 1) * share) > round(slot * share)
                got = case.expect if key == "expect" else restricted(case)
                if got is not want:
                    continue
            cases.append(case)
        rnd[kind] = cases
    return rnd
