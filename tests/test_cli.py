"""Command-line surface: parsing, output formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qcoex.cli import EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, PRESETS, dumps, main
from qcoex.witness import Witness

SQRT3_INV = 1.0 / math.sqrt(3.0)

PROJ_Z = '{"alpha": 1, "a": [0, 0, 1]}'
PROJ_Y = '{"alpha": 1, "a": [0, 1, 0]}'
FIG_A = '{"alpha": 0.6, "a": [0.5, 0, 0]}'
FIG_B = '{"alpha": 0.6, "a": [0, 0.6, 0]}'

# exact stdout of the README example `qcoex boundary` commands, and of
# `qcoex decide --witness` on pairs the README does not show
DATA = Path(__file__).parent / "data"

# stdout of the README example `qcoex witness` command
README_WITNESS_OUT = (
    '{"coexistent": true, "witness": {"gamma": 0.370371132733644, "g": [0.0730173112465944, '
    '0.18392742003357, 0.0797941581423525], "residuals": [-0.156998380828595, '
    '-0.174811166741327, -0.271814337086737, -0.26309670287453], "effects": {"G1": {"alpha": '
    '0.370371132733644, "a": [0.0730173112465944, 0.18392742003357, 0.0797941581423525]}, '
    '"G2": {"alpha": 0.429628867266356, "a": [0.226982688753406, -0.0839274200335697, '
    '-0.0797941581423525]}, "G3": {"alpha": 0.529628867266356, "a": [-0.0730173112465944, '
    '0.21607257996643, 0.120205841857648]}, "G4": {"alpha": 0.670371132733644, "a": '
    '[-0.226982688753406, -0.31607257996643, -0.120205841857648]}}}}' "\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDumps:
    def test_formats_15_significant_digits(self):
        assert dumps({"x": 0.1 + 0.2}) == '{"x": 0.3}'
        assert dumps([1.0, True, None, "s"]) == '[1, true, null, "s"]'

    def test_output_is_valid_json(self):
        payload = {"a": [1.5, 2.25], "b": {"c": False}}
        assert json.loads(dumps(payload)) == payload


class TestDecide:
    def test_noncommuting_projections(self, capsys):
        code, out, _ = run(capsys, ["decide", PROJ_Z, PROJ_Y])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["coexistent"] is False
        assert payload["regime"] == "C3"

    def test_unsharp_pair_always_coexists(self, capsys):
        code, out, _ = run(capsys, ["decide", FIG_A, FIG_B])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coexistent"] is True
        assert payload["regime"] == "C1"

    def test_witness_flag_symmetric_pair(self, capsys):
        a = json.dumps({"alpha": 1, "a": [SQRT3_INV, 0, 0]})
        b = json.dumps({"alpha": 1, "a": [0, SQRT3_INV, 0]})
        code, out, _ = run(capsys, ["decide", a, b, "--witness"])
        assert code == EXIT_OK
        payload = json.loads(out)
        wt = payload["witness"]
        assert wt["gamma"] == pytest.approx(0.5, abs=1e-12)
        assert wt["g"][0] == pytest.approx(0.288675134594813, abs=1e-12)
        assert wt["g"][1] == pytest.approx(0.288675134594813, abs=1e-12)
        assert set(wt["effects"]) == {"G1", "G2", "G3", "G4"}

    def test_witness_near_junction_scaled_projection(self, capsys):
        # C3 pair with b nearly parallel to a = alpha, just inside the
        # junction: the gamma interval of b scaled to full length is
        # degenerate there, and the witness must not depend on it
        a = '{"alpha":0.745873181125018,"a":[0.745873181125018,0,0]}'
        b = '{"alpha":0.4888506996347092,"a":[0.4888496996347091,1e-13,0]}'
        code, out, err = run(capsys, ["decide", a, b, "--witness"])
        assert code == EXIT_OK
        assert err == ""
        payload = json.loads(out)
        assert payload["regime"] == "C3"
        assert set(payload["witness"]["effects"]) == {"G1", "G2", "G3", "G4"}

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            # regime C3: the curve crossing mixed with its by = 0 partner
            (
                '{"alpha": 0.6, "a": [0.3, 0.4, 0]}',
                '{"alpha": 1, "a": [0.2, -0.6, 0.3]}',
                "decide_witness_c3.json",
            ),
            # both trace coefficients above 1: mapped back through both complements
            (
                '{"alpha": 1.4, "a": [0.3, 0.1, 0]}',
                '{"alpha": 1.2, "a": [0, 0.4, 0.2]}',
                "decide_witness_complemented.json",
            ),
        ],
    )
    def test_witness_bytes(self, capsys, a, b, expected):
        code, out, err = run(capsys, ["decide", a, b, "--witness"])
        assert code == EXIT_OK
        assert err == ""
        assert out == (DATA / expected).read_text()

    def test_witness_for_a_tiny_vector(self, capsys):
        # a length formed as sqrt(x . x) squares a 1e-160 vector into the
        # subnormal range, is off by 5.6e-6 relative, and the witness then
        # fails its check; math.hypot scales, so the witness holds
        tiny = '{"alpha":1,"a":[1e-160,1e-160,0]}'
        code, _, _ = run(capsys, ["decide", tiny, '{"alpha":1,"a":[0,1,0]}', "--witness"])
        assert code == EXIT_OK

    def test_oracle_flag_reports_margin(self, capsys):
        code, out, _ = run(capsys, ["decide", PROJ_Z, PROJ_Y, "--oracle"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["oracle"]["coexistent"] is False
        assert payload["oracle"]["margin"] > 1e-3

    def test_matrix_form_matches_bloch_form(self, capsys):
        matrix = json.dumps({"matrix": [[0.3, 0], [0.25, 0], [0.25, 0], [0.3, 0]]})
        code1, out1, _ = run(capsys, ["decide", matrix, FIG_B])
        code2, out2, _ = run(capsys, ["decide", FIG_A, FIG_B])
        assert (code1, out1) == (code2, out2)

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "effect.json"
        path.write_text(FIG_A)
        code, out, _ = run(capsys, ["decide", str(path), FIG_B])
        assert code == EXIT_OK
        assert json.loads(out)["coexistent"] is True


class TestDecideErrors:
    def test_invalid_json(self, capsys):
        code, _, err = run(capsys, ["decide", "{not json", PROJ_Y])
        assert code == EXIT_USAGE
        assert "effect A" in err

    @pytest.mark.parametrize(
        "spec,field",
        [
            ('{"alpha": 1%s, "a": [0, 0, 0]}' % ("0" * 400), "alpha"),
            ('{"alpha": 1, "a": [1%s, 0, 0]}' % ("0" * 400), "a"),
            ('{"matrix": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}' % ("0" * 400), "matrix"),
        ],
        ids=["alpha", "a", "matrix"],
    )
    def test_number_too_large_for_a_float(self, capsys, spec, field):
        code, out, err = run(capsys, ["decide", spec, PROJ_Y])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: effect A: field '{field}' holds a number too large for a float\n"

    def test_integer_too_long_to_parse(self, capsys):
        code, out, err = run(capsys, ["decide", '{"alpha": 1%s}' % ("0" * 5000), PROJ_Y])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: effect A: invalid JSON: Exceeds the limit")
        assert err.count("\n") == 1

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
        code, out, err = run(capsys, ["decide", str(path), PROJ_Y])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: effect A: invalid JSON in {path}: nested too deeply\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["decide", "nope.json", PROJ_Y])
        assert code == EXIT_USAGE
        assert "no such file" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "effect.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["decide", str(path), PROJ_Y])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: effect A: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize(
        "spec,field",
        [
            ('{"matrix": [["0.5", 0], [0, 0], [0, 0], [1, 0]]}', "matrix"),
            ('{"matrix": [[0.5, 0], [0, 0], [0, 0], [true, 0]]}', "matrix"),
            ('{"alpha": "0.5", "a": [0, 0, 0]}', "alpha"),
            ('{"alpha": 0.5, "a": [0, false, 0]}', "a"),
        ],
        ids=["matrix-string", "matrix-bool", "alpha-string", "a-bool"],
    )
    def test_numbers_must_be_json_numbers(self, capsys, spec, field):
        code, out, err = run(capsys, ["decide", spec, PROJ_Y])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: effect A: field '{field}' ")

    @pytest.mark.parametrize(
        "content,message",
        [
            ("[1, 2]", "expected an object, got list"),
            ("{}", "missing fields (need alpha/a or matrix)"),
            ('{"a": [0, 0, 0]}', "field 'alpha' is required alongside 'a'"),
            ('{"alpha": 1}', "field 'a' is required alongside 'alpha'"),
        ],
        ids=["list", "empty", "alpha-missing", "a-missing"],
    )
    def test_incomplete_spec_file(self, capsys, tmp_path, content, message):
        path = tmp_path / "effect.json"
        path.write_text(content)
        code, out, err = run(capsys, ["decide", str(path), PROJ_Y])
        assert (code, out, err) == (EXIT_USAGE, "", f"error: effect A: {message}\n")

    def test_invalid_effect_parameters(self, capsys):
        code, _, err = run(capsys, ["decide", '{"alpha": 0.3, "a": [0.5, 0, 0]}', PROJ_Y])
        assert code == EXIT_USAGE
        assert "lower bound" in err

    def test_both_forms_rejected(self, capsys):
        spec = '{"alpha": 1, "a": [0,0,1], "matrix": [[1,0],[0,0],[0,0],[0,0]]}'
        code, _, err = run(capsys, ["decide", spec, PROJ_Y])
        assert code == EXIT_USAGE
        assert "not both" in err

    def test_bad_vector_shape(self, capsys):
        code, _, err = run(capsys, ["decide", '{"alpha": 1, "a": [0, 0]}', PROJ_Y])
        assert code == EXIT_USAGE
        assert "3-element" in err

    def test_bad_matrix_shape(self, capsys):
        code, _, err = run(capsys, ["decide", '{"matrix": [[1,0],[0,0]]}', PROJ_Y])
        assert code == EXIT_USAGE
        assert "matrix" in err

    def test_nan_matrix_entry(self, capsys):
        spec = '{"matrix": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}'
        code, out, err = run(capsys, ["decide", spec, '{"alpha": 1, "a": [1, 0, 0]}'])
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("angle", [1e-6, 1e-7, 1e-8])
    def test_turned_sharp_projection_is_not_coexistent(self, capsys, angle):
        # near-parallel sharp projections do not commute: exit 1, no witness
        turned = json.dumps({"alpha": 1, "a": [math.cos(angle), math.sin(angle), 0]})
        code, out, err = run(capsys, ["decide", '{"alpha": 1, "a": [1, 0, 0]}', turned, "--witness"])
        assert code == EXIT_NEGATIVE
        assert err == ""
        payload = json.loads(out)
        assert payload["coexistent"] is False
        assert payload["witness"] is None

    def test_internal_failure_has_its_own_exit_code(self, capsys, monkeypatch):
        # a failure inside the library must not read as "not coexistent": a
        # witness that fails its one check, in assemble_observable
        def broken(*args, **kwargs):
            return Witness(2.0, (0.0, 0.0, 0.0))

        monkeypatch.setattr("qcoex.cli._unchecked_witness", broken)
        for argv in (["decide", FIG_A, FIG_B, "--witness"], ["witness", FIG_A, FIG_B]):
            code, out, err = run(capsys, argv)
            assert code == EXIT_INTERNAL
            assert out == ""
            assert err.startswith("error: internal: ValueError: witness fails the operator constraints")
            assert err.count("\n") == 1


class TestBoundary:
    def test_full_disk_preset_csv(self, capsys):
        code, out, _ = run(capsys, ["boundary", "--preset", "fig1a"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "bx,r,regime"
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[1] == "0.6" for row in rows)
        assert all(row[2] == "circle" for row in rows)

    def test_presets_cover_all_figures(self):
        assert set(PRESETS) == {"fig1a", "fig1b", "fig1c", "fig1d"}
        assert PRESETS["fig1c"] == (0.6, 0.5, 1.0)

    def test_junction_rows_present(self, capsys):
        code, out, _ = run(capsys, ["boundary", "--alpha", "0.6", "--a", "0.6", "--beta", "0.9"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()[1:]
        bxs = [float(row.split(",")[0]) for row in lines]
        rs = [float(row.split(",")[1]) for row in lines]
        lo = 1.0 / 15.0 - 5.0 / 6.0
        matches = [i for i, x in enumerate(bxs) if abs(x - lo) < 1e-9]
        assert matches
        assert rs[matches[0]] == pytest.approx(0.9, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["boundary", "--preset", "fig1b", "--format", "json", "--samples", "64"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["b0"] == pytest.approx(0.08, abs=1e-9)
        assert payload["w"] == pytest.approx(0.7771743691090179, abs=1e-9)
        assert len(payload["bx"]) == len(payload["r"]) == len(payload["regime"])

    def test_missing_parameters_rejected(self, capsys):
        code, _, err = run(capsys, ["boundary", "--alpha", "0.6"])
        assert code == EXIT_USAGE
        assert "preset" in err

    def test_invalid_parameters_rejected(self, capsys):
        code, _, err = run(capsys, ["boundary", "--alpha", "1.5", "--a", "0.5", "--beta", "0.9"])
        assert code == EXIT_USAGE
        assert "alpha" in err

    @pytest.mark.parametrize("option, value", [("--alpha", "0.3"), ("--a", "0.2"), ("--beta", "0.9")])
    def test_preset_with_explicit_parameter_rejected(self, capsys, option, value):
        code, out, err = run(capsys, ["boundary", "--preset", "fig1a", option, value])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: boundary: ") and err.count("\n") == 1

    def test_too_many_samples_rejected(self, capsys):
        code, out, err = run(capsys, ["boundary", "--preset", "fig1b", "--samples", "100001"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "n_samples" in err

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--preset", "fig1c"], "readme_boundary_fig1c.csv"),
            (
                ["--alpha", "0.6", "--a", "0.6", "--beta", "0.9", "--samples", "512", "--format", "json"],
                "readme_boundary.json",
            ),
        ],
    )
    def test_readme_example_bytes(self, capsys, argv, expected):
        code, out, _ = run(capsys, ["boundary", *argv])
        assert code == EXIT_OK
        assert out == (DATA / expected).read_text()


class TestWitnessCommand:
    def test_coexistent_pair(self, capsys):
        code, out, _ = run(capsys, ["witness", FIG_A, FIG_B])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coexistent"] is True
        assert "gamma" in payload["witness"]

    def test_readme_example_bytes(self, capsys):
        code, out, _ = run(
            capsys,
            ["witness", '{"alpha": 0.8, "a": [0.3, 0.1, 0]}', '{"alpha": 0.9, "a": [0, 0.4, 0.2]}'],
        )
        assert code == EXIT_OK
        assert out == README_WITNESS_OUT

    def test_noncoexistent_pair(self, capsys):
        code, out, _ = run(capsys, ["witness", PROJ_Z, PROJ_Y])
        assert code == EXIT_NEGATIVE
        assert json.loads(out) == {"coexistent": False, "witness": None}

    @pytest.mark.parametrize("command", [["decide", "--witness"], ["witness"]])
    def test_one_reduction_and_one_check_per_request(self, capsys, monkeypatch, command):
        calls = {"relative_pair": 0, "classify": 0, "operator_inequalities_hold": 0}
        for target in ("qcoex.cli.relative_pair", "qcoex.cli.classify", "qcoex.witness.operator_inequalities_hold"):
            module, name = target.rsplit(".", 1)
            inner = getattr(sys.modules[module], name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(target, counted)
        code, _, err = run(capsys, [command[0], FIG_A, FIG_B, *command[1:]])
        assert (code, err) == (EXIT_OK, "")
        assert calls == {"relative_pair": 1, "classify": 1, "operator_inequalities_hold": 1}


class TestSharpnessCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, ["sharpness", FIG_A])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sharpness"] == pytest.approx(0.3281475155779856, abs=1e-12)

    @pytest.mark.parametrize(
        "entry,message",
        [(1.5, "eigenvalue 1.5 above 1"), (-0.5, "eigenvalue -0.5 below 0")],
    )
    def test_eigenvalue_out_of_bounds_message(self, capsys, entry, message):
        spec = json.dumps({"matrix": [[entry, 0], [0, 0], [0, 0], [0, 0]]})
        code, out, err = run(capsys, ["sharpness", spec])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: effect: field 'matrix': {message}\n"

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[-5e-11,0],[0,0],[0,0],[0.5,0]]",
            "[[1.00000000009,0],[0,0],[0,0],[0.3,0]]",
            "[[-9e-11,0],[0,0],[0,0],[1,0]]",
        ],
    )
    def test_admitted_matrix_past_the_bloch_bound(self, capsys, matrix):
        # eigenvalues within MATRIX_TOL of [0, 1] whose Pauli expansion breaks
        # ||a|| <= alpha <= 2 - ||a|| by more than DOMAIN_TOL
        spec = '{"matrix": %s}' % matrix
        code, out, err = run(capsys, ["sharpness", spec])
        assert (code, err) == (EXIT_OK, "")
        assert 0.0 <= json.loads(out)["sharpness"] <= 1.0
        code, out, err = run(capsys, ["decide", spec, FIG_B, "--witness"])
        assert code in (EXIT_OK, EXIT_NEGATIVE)
        assert err == ""
        assert 0.0 <= json.loads(out)["sharpnessA"] <= 1.0


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--samples", "40", "--seed", "1"])
        assert code == EXIT_OK
        assert "selftest: PASS" in out
        assert out.count("violations=0") >= 6

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--samples", "-3"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_argument_is_an_input_error(self, capsys, option, value):
        code, out, err = run(capsys, ["selftest", option, value])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: selftest: {option} must be ")

    def test_grid_is_not_an_option(self, capsys):
        # every oracle scan searches the one grid of oracle.GRID_STEPS steps
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--grid", "400"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --grid 400" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, capsys):
        argv = ["decide", FIG_A, FIG_B, "--witness", "--oracle"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "qcoex.cli", "boundary", "--preset", "fig1d", "--samples", "32"]
        r1 = subprocess.run(cmd, capture_output=True, text=True, check=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert r1.stdout == r2.stdout
