"""Command-line interface: decide, boundary, witness, sharpness, selftest.

Output is deterministic: stable key order, floats at 15 significant digits.
Exit codes: 0 coexistent / suite pass, 1 not coexistent / suite fail,
2 usage or input error, 3 internal failure.  numpy is loaded only by the
paths that make arrays: ``decide --oracle``, ``boundary``, ``selftest`` and
matrix inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bloch import (
    BlochEffect,
    InvalidEffectError,
    effect_from_bloch,
    effect_from_matrix,
    relative_pair,
    sharpness,
)
from .coexist import boundary_curve, classify
from .witness import _unchecked_witness, assemble_observable

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Parameter sets (alpha, a, beta) for the four stock boundary figures.
PRESETS = {
    "fig1a": (0.6, 0.5, 0.6),
    "fig1b": (0.6, 0.5, 0.9),
    "fig1c": (0.6, 0.5, 1.0),
    "fig1d": (0.6, 0.6, 0.9),
}


class SpecError(ValueError):
    """Malformed effect specification, with a field-level message."""


def format_float(x: float) -> str:
    return format(float(x), ".15g")


def dumps(obj) -> str:
    """Deterministic JSON: insertion key order, 15-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def effect_from_spec(spec, label: str) -> BlochEffect:
    """Effect from {"alpha": x, "a": [x,y,z]} or {"matrix": [[re,im] x 4]}."""
    if not isinstance(spec, dict):
        raise SpecError(f"{label}: expected an object, got {type(spec).__name__}")
    bloch_form = "alpha" in spec or "a" in spec
    matrix_form = "matrix" in spec
    if bloch_form and matrix_form:
        raise SpecError(f"{label}: give either alpha/a or matrix, not both")
    if matrix_form:
        entries = spec["matrix"]
        if (
            not isinstance(entries, list)
            or len(entries) != 4
            or any(not isinstance(e, list) or len(e) != 2 for e in entries)
        ):
            raise SpecError(f"{label}: field 'matrix' must be four [re, im] pairs (row-major)")
        parts = _numbers([x for e in entries for x in e], label, "matrix", "entries must be numbers")
        entries = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
        mat = [entries[:2], entries[2:]]
        try:
            return effect_from_matrix(mat)
        except InvalidEffectError as exc:
            raise SpecError(f"{label}: field 'matrix': {exc}") from None
    if not bloch_form:
        raise SpecError(f"{label}: missing fields (need alpha/a or matrix)")
    if "alpha" not in spec:
        raise SpecError(f"{label}: field 'alpha' is required alongside 'a'")
    if "a" not in spec:
        raise SpecError(f"{label}: field 'a' is required alongside 'alpha'")
    (alpha,) = _numbers([spec["alpha"]], label, "alpha", "must be a number")
    avec = spec["a"]
    if not isinstance(avec, list) or len(avec) != 3:
        raise SpecError(f"{label}: field 'a' must be a 3-element number array")
    avec = _numbers(avec, label, "a", "must be a 3-element number array")
    try:
        return effect_from_bloch(alpha, avec)
    except InvalidEffectError as exc:
        raise SpecError(f"{label}: {exc}") from None


def _numbers(values: list, label: str, name: str, requirement: str) -> list[float]:
    """JSON numbers as floats: an int or a float, never a bool or a string."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise SpecError(f"{label}: field {name!r} {requirement}")
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise SpecError(f"{label}: field {name!r} holds a number too large for a float") from None


def _parse_json(text: str, context: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise SpecError(f"{context}: nested too deeply") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer with too many digits to convert
        raise SpecError(f"{context}: {exc}") from None


def load_effect_arg(text: str, label: str) -> BlochEffect:
    """Parse an effect argument: inline JSON or a path to a JSON file."""
    raw = text.strip()
    if raw.startswith("{"):
        spec = _parse_json(raw, f"{label}: invalid JSON")
    else:
        if not os.path.isfile(raw):
            raise SpecError(f"{label}: no such file: {raw}")
        try:
            with open(raw, encoding="utf-8") as f:
                content = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"{label}: cannot read {raw}: {exc}") from None
        spec = _parse_json(content, f"{label}: invalid JSON in {raw}")
    return effect_from_spec(spec, label)


def _effect_payload(e: BlochEffect) -> dict:
    return {"alpha": e.alpha, "a": list(e.avec)}


def _witness_payload(A: BlochEffect, B: BlochEffect, pair, report, verdict) -> dict | None:
    # the command's own reduction and verdict; assemble_observable checks the witness
    if not verdict.coexistent:
        return None
    wt = _unchecked_witness(A, B, pair, report, verdict)
    observable = assemble_observable(A, B, wt)
    names = ("G1", "G2", "G3", "G4")
    return {
        "gamma": wt.gamma,
        "g": list(wt.gvec),
        "residuals": list(observable.report.residuals),
        "effects": {name: _effect_payload(g) for name, g in zip(names, observable.effects())},
    }


def _cmd_decide(args) -> int:
    A = load_effect_arg(args.effect_a, "effect A")
    B = load_effect_arg(args.effect_b, "effect B")
    pair, report = relative_pair(A, B)
    verdict = classify(pair)
    payload = {
        "coexistent": verdict.coexistent,
        "regime": verdict.regime,
        "sharpnessA": verdict.sharpness_a,
    }
    if verdict.b0 is not None:
        payload["b0"] = verdict.b0
        payload["w"] = verdict.w
    if verdict.by_max is not None:
        payload["by_max"] = verdict.by_max
    if args.witness:
        payload["witness"] = _witness_payload(A, B, pair, report, verdict)
    if args.oracle:
        from .oracle import oracle_scan

        result = oracle_scan(pair)
        payload["oracle"] = {
            "coexistent": result.coexistent,
            "margin": result.margin,
            "gamma": result.gamma,
            "point": None if result.point is None else list(result.point),
            "gamma_interval": (
                None if result.gamma_lo is None else [result.gamma_lo, result.gamma_hi]
            ),
        }
    print(dumps(payload))
    return EXIT_OK if verdict.coexistent else EXIT_NEGATIVE


def _cmd_boundary(args) -> int:
    explicit = (args.alpha, args.a, args.beta)
    if args.preset is not None:
        if any(v is not None for v in explicit):
            raise SpecError("boundary: give --preset or --alpha, --a, --beta, not both")
        alpha, a, beta = PRESETS[args.preset]
    else:
        if None in explicit:
            raise SpecError("boundary: give --preset or all of --alpha, --a, --beta")
        alpha, a, beta = explicit
    try:
        curve = boundary_curve(alpha, a, beta, n_samples=args.samples)
    except ValueError as exc:
        raise SpecError(f"boundary: {exc}") from None
    if args.format == "csv":
        print("bx,r,regime")
        for x, r, tag in zip(curve.bx, curve.r, curve.regime):
            print(f"{format_float(x)},{format_float(r)},{tag}")
    else:
        payload = {
            "alpha": curve.alpha,
            "a": curve.a,
            "beta": curve.beta,
            "b0": curve.b0,
            "w": curve.w,
            "bx": [float(v) for v in curve.bx],
            "r": [float(v) for v in curve.r],
            "regime": list(curve.regime),
        }
        print(dumps(payload))
    return EXIT_OK


def _cmd_witness(args) -> int:
    A = load_effect_arg(args.effect_a, "effect A")
    B = load_effect_arg(args.effect_b, "effect B")
    pair, report = relative_pair(A, B)
    payload = _witness_payload(A, B, pair, report, classify(pair))
    if payload is None:
        print(dumps({"coexistent": False, "witness": None}))
        return EXIT_NEGATIVE
    print(dumps({"coexistent": True, "witness": payload}))
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    e = load_effect_arg(args.effect, "effect")
    print(dumps({"alpha": e.alpha, "bloch_norm": e.a, "sharpness": sharpness(e)}))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    if args.samples < 1:
        raise SpecError(f"selftest: --samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise SpecError(f"selftest: --seed must be non-negative, got {args.seed}")
    results = run_all(args.samples, args.seed)
    all_pass = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_pass = all_pass and res.passed
        print(
            f"{res.name}: checked={res.checked} skipped={res.skipped} "
            f"violations={res.violations} worst_margin={format_float(res.worst)} {status}"
        )
    print("selftest: " + ("PASS" if all_pass else "FAIL"))
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoex",
        description="Decide whether two qubit effects can be events of a single measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="classify a pair and decide coexistence")
    decide.add_argument("effect_a", help="effect as inline JSON or a JSON file path")
    decide.add_argument("effect_b", help="effect as inline JSON or a JSON file path")
    decide.add_argument("--witness", action="store_true", help="include a joint observable")
    decide.add_argument("--oracle", action="store_true", help="include the brute-force margin")
    decide.set_defaults(func=_cmd_decide)

    boundary = sub.add_parser("boundary", help="emit the allowed-region boundary")
    boundary.add_argument("--preset", choices=sorted(PRESETS), help="stock parameter set")
    boundary.add_argument("--alpha", type=float)
    boundary.add_argument("--a", type=float)
    boundary.add_argument("--beta", type=float)
    boundary.add_argument("--samples", type=int, default=256)
    boundary.add_argument("--format", choices=("csv", "json"), default="csv")
    boundary.set_defaults(func=_cmd_boundary)

    witness = sub.add_parser("witness", help="construct an explicit joint observable")
    witness.add_argument("effect_a")
    witness.add_argument("effect_b")
    witness.set_defaults(func=_cmd_witness)

    sharp = sub.add_parser("sharpness", help="sharpness of a single effect")
    sharp.add_argument("effect")
    sharp.set_defaults(func=_cmd_sharpness)

    selftest = sub.add_parser("selftest", help="run the seeded verification suites")
    selftest.add_argument("--samples", type=int, default=500)
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a failure inside the library must not read as a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
