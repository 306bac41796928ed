"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json

import pytest

from causetbox.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_MISMATCH,
    run,
)


def invoke(argv):
    """Run the CLI capturing stdout; return (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


DIAMOND_JSON = {"n": 4, "relations": [[0, 1], [0, 2], [1, 3], [2, 3]]}


class TestCoeffs:
    def test_dim4_csv_exact(self):
        code, text = invoke(["coeffs", "--dim", "4"])
        assert code == EXIT_OK
        assert text == (
            "d,i,num,den,scaled\n"
            "4,1,1,1,64\n"
            "4,2,-9,1,-576\n"
            "4,3,16,1,1024\n"
            "4,4,-8,1,-512\n"
        )

    def test_dim3_csv_has_fractions(self):
        code, text = invoke(["coeffs", "--dim", "3"])
        assert code == EXIT_OK
        assert "3,2,-27,8,-54\n" in text
        assert "3,3,9,4,36\n" in text

    def test_json_round_trip(self):
        code, text = invoke(["coeffs", "--dim", "2", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["dimension"] == 2
        assert payload["coefficients"] == [
            {"i": 1, "num": 1, "den": 1, "scaled": 16},
            {"i": 2, "num": -2, "den": 1, "scaled": -32},
            {"i": 3, "num": 1, "den": 1, "scaled": 16},
        ]

    def test_bad_dimension(self):
        code, _ = invoke(["coeffs", "--dim", "0"])
        assert code == EXIT_USAGE


class TestEnumerate:
    def test_single_chord_two_points(self):
        code, text = invoke(["enumerate", "--chords", "1", "--points", "2", "--list"])
        assert code == EXIT_OK
        assert text == (
            "chords,points,count\n"
            "1,2,4\n"
            "2; chord 1-2 blue 1\n"
            "2; chord 1-2 blue 2\n"
            "2; chord 1-2 red 1\n"
            "2; chord 1-2 red 2\n"
        )

    def test_count_only_json(self):
        code, text = invoke(
            ["enumerate", "--chords", "2", "--points", "6", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload == {"chords": 2, "points": 6, "count": 48}

    def test_infeasible_size_exits_3(self):
        code, _ = invoke(["enumerate", "--chords", "5", "--points", "10"])
        assert code == EXIT_INFEASIBLE
        code, _ = invoke(["enumerate", "--chords", "2", "--points", "17"])
        assert code == EXIT_INFEASIBLE


class TestVerify:
    def test_small_grid_passes(self):
        code, text = invoke(["verify", "--dim", "2", "--max-i", "2", "--format", "csv"])
        assert code == EXIT_OK
        assert text == (
            "d,i,count_identity,cancellation\n"
            "2,1,True,True\n"
            "2,2,True,True\n"
        )

    def test_third_layer_mismatch_exits_1(self):
        # The third-layer counting identity does not hold (see README,
        # "Known deviations"), so extending the grid flips the exit code.
        code, text = invoke(["verify", "--dim", "2", "--max-i", "3"])
        assert code == EXIT_VERIFY_MISMATCH
        payload = json.loads(text)
        assert payload["all_ok"] is False
        by_index = {r["index"]: r for r in payload["results"]}
        assert by_index[1]["count_identity"] is True
        assert by_index[2]["count_identity"] is True
        assert by_index[3]["count_identity"] is False

    def test_guard_bounds_exit_3(self):
        code, _ = invoke(["verify", "--dim", "4", "--max-i", "4"])
        assert code == EXIT_INFEASIBLE


class TestStrings:
    def test_list_exact(self):
        code, text = invoke(["strings", "--dim", "2", "--i", "2", "--list"])
        assert code == EXIT_OK
        assert text == "d,i,string_count,path_count\n2,2,2,2\n110\n101\n"

    def test_json(self):
        code, text = invoke(["strings", "--dim", "4", "--i", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["string_count"] == 16
        assert payload["path_count"] == 16

    def test_odd_dimension_rejected(self):
        code, _ = invoke(["strings", "--dim", "3", "--i", "1"])
        assert code == EXIT_USAGE


class TestAction:
    def test_diamond_action(self, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        code, text = invoke(["action", "--input", str(path), "--dim", "2", "--ell", "1.0"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["action"] == pytest.approx(-12.0, rel=1e-12)
        assert payload["size"] == 4
        assert payload["abundances"] == [4, 0, 1]

    def test_round_trip_through_report(self, tmp_path):
        from causetbox.causet import ActionReport

        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        _, text = invoke(["action", "--input", str(path), "--dim", "2", "--ell", "0.5"])
        payload = json.loads(text)
        assert ActionReport.from_dict(payload).to_dict() == payload

    def test_missing_file_exits_2(self):
        code, _ = invoke(["action", "--input", "/no/such/file.json", "--dim", "2", "--ell", "1"])
        assert code == EXIT_USAGE

    def test_cyclic_relations_exit_2(self, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 2, "relations": [[0, 1], [1, 0]]}))
        code, _ = invoke(["action", "--input", str(path), "--dim", "2", "--ell", "1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "3", "relations": [[0, 1]]},
            {"n": 2.5, "relations": [[0, 1]]},
            {"n": 3, "relations": [[0.0, 1]]},
            {"n": 3, "relations": [[False, 1]]},
            {"n": 3, "relations": [[True, 0]]},
            {"n": 3, "relations": [[0, 1, 2]]},
            {"n": 3, "relations": 7},
        ],
    )
    def test_malformed_json_exit_2_without_traceback(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors):
            code, _ = invoke(["action", "--input", str(path), "--dim", "2", "--ell", "1"])
        assert code == EXIT_USAGE
        assert errors.getvalue().startswith("error: ")
        assert "Traceback" not in errors.getvalue()

    def test_overflowing_dimension_exit_2(self, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        code, _ = invoke(["action", "--input", str(path), "--dim", "400", "--ell", "1"])
        assert code == EXIT_USAGE


class TestSprinkle:
    def test_deterministic_json(self):
        argv = [
            "sprinkle",
            "--dim", "2",
            "--density", "10",
            "--trials", "10",
            "--seed", "4",
        ]
        code, first = invoke(argv)
        assert code == EXIT_OK
        _, second = invoke(argv)
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"mean", "std_error", "trials", "density", "length_scale"}
        assert payload["trials"] == 10
        assert payload["density"] == 10.0

    def test_ell_converts_to_density(self):
        code, text = invoke(
            ["sprinkle", "--dim", "2", "--ell", "0.5", "--trials", "2", "--seed", "1"]
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["density"] == pytest.approx(4.0)
        assert payload["length_scale"] == pytest.approx(0.5)

    def test_density_and_ell_together_exit_2(self):
        code, _ = invoke(
            ["sprinkle", "--dim", "2", "--density", "10", "--ell", "0.5", "--trials", "1"]
        )
        assert code == EXIT_USAGE

    def test_neither_density_nor_ell_exit_2(self):
        code, _ = invoke(["sprinkle", "--dim", "2", "--trials", "1"])
        assert code == EXIT_USAGE

    def test_overflowing_dimension_exit_2(self):
        code, _ = invoke(["sprinkle", "--dim", "400", "--density", "10", "--trials", "1"])
        assert code == EXIT_USAGE

    def test_unknown_field_spec_exit_2(self):
        code, _ = invoke(
            ["sprinkle", "--dim", "2", "--density", "10", "--field", "wavelet:1"]
        )
        assert code == EXIT_USAGE


class TestPlumbing:
    def test_output_file(self, tmp_path):
        target = tmp_path / "coeffs.csv"
        code, text = invoke(["coeffs", "--dim", "2", "--output", str(target)])
        assert code == EXIT_OK
        assert text == ""
        assert target.read_text() == "d,i,num,den,scaled\n2,1,1,1,16\n2,2,-2,1,-32\n2,3,1,1,16\n"

    def test_unknown_subcommand_exit_2(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_exit_2(self):
        assert run(["coeffs"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run(["--help"])
        assert code == EXIT_OK
        assert "coeffs" in buffer.getvalue()
