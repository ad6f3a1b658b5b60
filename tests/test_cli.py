"""Command-line surface: parsing, output formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from qcoex.cli import EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, PRESETS, dumps, main

SQRT3_INV = 1.0 / math.sqrt(3.0)

PROJ_Z = '{"alpha": 1, "a": [0, 0, 1]}'
PROJ_Y = '{"alpha": 1, "a": [0, 1, 0]}'
FIG_A = '{"alpha": 0.6, "a": [0.5, 0, 0]}'
FIG_B = '{"alpha": 0.6, "a": [0, 0.6, 0]}'

# stdout of the README example `qcoex witness` command
README_WITNESS_OUT = (
    '{"coexistent": true, "witness": {"gamma": 0.370371132733644, "g": [0.0730173112465944, '
    '0.18392742003357, 0.0797941581423525], "residuals": [-0.156998380828594, '
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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["decide", "nope.json", PROJ_Y])
        assert code == EXIT_USAGE
        assert "no such file" in err

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

    @pytest.mark.parametrize("angle", [1e-6, 1e-7])
    def test_internal_failure_has_its_own_exit_code(self, capsys, angle):
        # near-parallel sharp projections: the witness search raises, which
        # must not read as "not coexistent"
        turned = json.dumps({"alpha": 1, "a": [math.cos(angle), math.sin(angle), 0]})
        code, out, err = run(capsys, ["decide", '{"alpha": 1, "a": [1, 0, 0]}', turned, "--witness"])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: internal: ")
        assert len(err.splitlines()) == 1


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

    def test_too_many_samples_rejected(self, capsys):
        code, out, err = run(capsys, ["boundary", "--preset", "fig1b", "--samples", "100001"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "n_samples" in err


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


class TestSharpnessCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, ["sharpness", FIG_A])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sharpness"] == pytest.approx(0.3281475155779856, abs=1e-12)


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--samples", "40", "--seed", "1", "--grid", "400"])
        assert code == EXIT_OK
        assert "selftest: PASS" in out
        assert out.count("violations=0") >= 6


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
