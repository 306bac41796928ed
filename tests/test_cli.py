"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import sys
import time
import warnings

import pytest

from causetbox import cli, coefficients, diagrams, evenstrings
from causetbox.cli import (
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_MISMATCH,
    run,
)
from diagram_oracle import enumerated


def invoke(argv):
    """Run the CLI capturing stdout; return (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


def invoke_with_errors(argv):
    """Run the CLI capturing both streams; return (exit_code, stdout, stderr)."""
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code, text = invoke(argv)
    return code, text, errors.getvalue()


def assert_one_error_line(stderr):
    assert stderr.startswith("error: ")
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


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

    @pytest.mark.parametrize(
        "dim", ["2400", "5000", "1000000000", str(10**17), str(10**200)]
    )
    def test_unprintable_table_exits_3_before_any_product(self, dim, monkeypatch):
        def refuse(dimension, k):
            raise AssertionError("a refused table computed a gamma ratio")

        monkeypatch.setattr(coefficients, "scaled_gamma_ratio", refuse)
        code, text, errors = invoke_with_errors(["coeffs", "--dim", dim])
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert f"digits for d={dim} (guard: <= 4300," in errors

    @pytest.mark.parametrize("limit, estimates", [(0, 1), (1000, 2), (4300, 1), (5000, 1)])
    def test_the_cli_estimates_only_under_a_lower_limit(self, limit, estimates, monkeypatch):
        # the library always estimates; the CLI adds its own only below the library's cut
        calls = []
        digits = coefficients._table_digits

        def counted(dimension):
            calls.append(dimension)
            return digits(dimension)

        monkeypatch.setattr(coefficients, "_table_digits", counted)
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: limit)
        coefficients.coefficient_table.cache_clear()
        assert invoke(["coeffs", "--dim", "4"])[0] == EXIT_OK
        assert calls == [4] * estimates


def format_diagram(diagram):
    """The listing's text of one ``ChordDiagram``, read off its attributes."""
    parts = [str(diagram.points)]
    for chord in diagram.chords:
        desc = f"chord {chord.low}-{chord.high} {chord.color}"
        if chord.first_end is not None:
            desc += f" {chord.first_end}"
        parts.append(desc)
    return "; ".join(parts)


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

    @pytest.mark.parametrize("chords", range(diagrams.MAX_CHORDS + 1))
    def test_listing_equals_the_rendered_diagram_objects(self, chords):
        for points in range(1, diagrams.MAX_POINTS + 1):
            elements = [format_diagram(e) for e in enumerated(chords, points)]
            argv = ["enumerate", "--chords", str(chords), "--points", str(points), "--list"]
            code, text = invoke(argv)
            assert code == EXIT_OK
            head = f"chords,points,count\n{chords},{points},{len(elements)}\n"
            assert text == head + "".join(line + "\n" for line in elements), (chords, points)
            code, text = invoke([*argv, "--format", "json"])
            assert code == EXIT_OK
            payload = {"chords": chords, "points": points, "count": len(elements)}
            assert json.loads(text) == {**payload, "elements": elements}, (chords, points)

    def test_listing_calls_the_enumeration_once(self, monkeypatch):
        # by module attribute, so that a wrapper installed there sees the call
        calls = []
        listing = diagrams.enumerate_diagrams

        def spy(*args):
            calls.append(args)
            return listing(*args)

        monkeypatch.setattr(diagrams, "enumerate_diagrams", spy)
        code, text = invoke(["enumerate", "--chords", "4", "--points", "12", "--list"])
        assert code == EXIT_OK
        assert calls == [(4, 12)]
        lines = text.splitlines()
        assert lines[:2] == ["chords,points,count", "4,12,3840"]
        assert len(lines) == 2 + 3840

    def test_count_only_json(self):
        code, text = invoke(
            ["enumerate", "--chords", "2", "--points", "6", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload == {"chords": 2, "points": 6, "count": 48}

    def test_infeasible_size_exits_3(self):
        # The enumeration guard binds only when the diagrams are listed.
        code, _ = invoke(["enumerate", "--chords", "5", "--points", "10", "--list"])
        assert code == EXIT_INFEASIBLE
        code, _ = invoke(["enumerate", "--chords", "2", "--points", "17", "--list"])
        assert code == EXIT_INFEASIBLE

    def test_count_without_list_reads_the_series(self):
        start = time.perf_counter()
        code, text = invoke(["enumerate", "--chords", "4", "--points", "16"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert text == "chords,points,count\n4,16,17920\n"
        code, text = invoke(["enumerate", "--chords", "5", "--points", "10"])
        assert (code, text) == (EXIT_OK, "chords,points,count\n5,10,1024\n")  # 4**5

    def test_series_window_guard_exits_3(self):
        code, text, errors = invoke_with_errors(
            ["enumerate", "--chords", "1000", "--points", "1000"]
        )
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)


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

    def test_default_grid_exits_1(self):
        code, text = invoke(["verify"])
        assert code == EXIT_VERIFY_MISMATCH
        rows = json.loads(text)["results"]
        assert [(r["dimension"], r["index"]) for r in rows] == [
            (d, i) for d in (2, 3, 4) for i in range(1, d // 2 + 3)
        ]
        for r in rows:
            assert set(r) == {"dimension", "index", "count_identity", "cancellation"}
            assert r["count_identity"] is r["cancellation"] is (r["index"] <= 2)

    @pytest.mark.parametrize("max_i", ["0", "-3"])
    def test_max_i_below_one_exits_2(self, max_i):
        # a grid with no row checked nothing, so it must not report success
        code, text, errors = invoke_with_errors(["verify", "--dim", "2", "--max-i", max_i])
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)
        assert "--max-i must be >= 1" in errors

    @pytest.mark.parametrize("dim", ["1", "-3"])
    def test_dimension_below_two_exits_2(self, dim):
        # d = -3 has no layer index at all, so nothing would be checked
        code, text, errors = invoke_with_errors(["verify", "--dim", dim])
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)

    def test_guard_bounds_exit_3(self):
        # (80, 2) needs a tally over the guard; (80, 1) is computed first.
        code, text, errors = invoke_with_errors(["verify", "--dim", "80", "--max-i", "2"])
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)


class TestStrings:
    def test_list_exact(self):
        code, text = invoke(["strings", "--dim", "2", "--i", "2", "--list"])
        assert code == EXIT_OK
        assert text == "d,i,string_count,path_count\n2,2,2,2\n110\n101\n"

    def test_list_takes_the_count_from_the_list(self, monkeypatch):
        calls = []
        generate = evenstrings.enumerate_constrained_strings

        def counted(dimension, index):
            calls.append((dimension, index))
            return generate(dimension, index)

        monkeypatch.setattr(evenstrings, "enumerate_constrained_strings", counted)
        monkeypatch.setattr(evenstrings, "count_constrained_strings", None)
        code, text = invoke(["strings", "--dim", "4", "--i", "2", "--list"])
        assert code == EXIT_OK
        assert text.startswith("d,i,string_count,path_count\n4,2,9,9\n")
        assert calls == [(4, 2)]

    def test_count_builds_no_string(self, monkeypatch):
        def fail(dimension, index):
            raise AssertionError("a string was built")

        monkeypatch.setattr(evenstrings, "_constrained_strings", fail)
        code, text = invoke(["strings", "--dim", "4", "--i", "2"])
        assert code == EXIT_OK
        assert text == "d,i,string_count,path_count\n4,2,9,9\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_side_of_the_listing_byte_bound(self, fmt, monkeypatch):
        # 9 strings of 5 characters and a newline: 54 bytes
        argv = ["strings", "--dim", "4", "--i", "2", "--list", "--format", fmt]
        monkeypatch.setattr(cli, "_MAX_LIST_BYTES", 54)
        code, text = invoke(argv)
        assert code == EXIT_OK
        assert "01101" in text

        def fail(dimension, index):
            raise AssertionError("a string was built")
            yield

        monkeypatch.setattr(evenstrings, "_constrained_strings", fail)
        monkeypatch.setattr(cli, "_MAX_LIST_BYTES", 53)
        code, text, errors = invoke_with_errors(argv)
        assert (code, text) == (EXIT_INFEASIBLE, "")
        assert_one_error_line(errors)
        assert errors == (
            "error: string listing too large: 54 bytes of lines for d=4, i=2 (guard: <= 53)\n"
        )

    @pytest.mark.parametrize("d,i", [(12, 5), (12, 6), (12, 7), (16, 3), (22, 2)])
    def test_listings_over_the_byte_bound_exit_3_before_any_string(self, d, i, monkeypatch):
        # under the 2,000,000-string guard, but 32 to 55 MB of lines
        def fail(dimension, index):
            raise AssertionError("a string was built")
            yield

        monkeypatch.setattr(evenstrings, "_constrained_strings", fail)
        code, text, errors = invoke_with_errors(
            ["strings", "--dim", str(d), "--i", str(i), "--list"]
        )
        assert (code, text) == (EXIT_INFEASIBLE, "")
        assert_one_error_line(errors)
        assert f"bytes of lines for d={d}, i={i} (guard: <= {cli._MAX_LIST_BYTES})" in errors

    def test_byte_bound_admits_the_largest_listing_under_it(self):
        # every listing within the string guard, by its closed-form size in bytes;
        # past d = 40 only index 1 is, one string of at most 2,000,001 characters
        sizes = {
            (d, i): evenstrings._string_count(d, i) * (d // 2 * i + 2)
            for d in range(2, 41, 2)
            for i in range(1, d // 2 + 3)
            if (d // 2 + 1) * (d * (i - 1) // 2 + 1) <= evenstrings.MAX_STRING_CANDIDATES
            and evenstrings._string_count(d, i) <= evenstrings.MAX_STRING_CANDIDATES
        }
        admitted = max(size for size in sizes.values() if size <= cli._MAX_LIST_BYTES)
        refused = sorted(key for key, size in sizes.items() if size > cli._MAX_LIST_BYTES)
        assert admitted == sizes[(12, 8)] == 13_996_800
        assert refused == [(12, 5), (12, 6), (12, 7), (16, 3), (22, 2)]

    def test_json(self):
        code, text = invoke(["strings", "--dim", "4", "--i", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["string_count"] == 16
        assert payload["path_count"] == 16

    def test_one_long_string_answers_quickly(self):
        # index 1 has the single string of d/2 + 1 ones, however large d is
        start = time.perf_counter()
        code, text = invoke(["strings", "--dim", "100000", "--i", "1", "--list"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert text == "d,i,string_count,path_count\n100000,1,1,1\n" + "1" * 50001 + "\n"

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_a_count_over_the_interpreters_digit_limit_exits_3(self, output_format):
        # 640 is the least limit an interpreter takes; (1600, 3) has 663 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, text, errors = invoke_with_errors(
                ["strings", "--dim", "1600", "--i", "3", "--format", output_format]
            )
            printed = invoke(["strings", "--dim", "1000", "--i", "2"])  # 300 digits
            coeffs = invoke_with_errors(["coeffs", "--dim", "1000"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "d=1600, i=3 (guard: <= 640 digits" in errors
        assert printed[0] == EXIT_OK
        assert coeffs[:2] == (EXIT_INFEASIBLE, "")
        assert coeffs[2] == (
            "error: coefficient table too large to print: about 1870 digits for d=1000 "
            "(guard: <= 640, the interpreter's integer string limit)\n"
        )

    @pytest.mark.parametrize("dim, code", [(2130, EXIT_OK), (2132, EXIT_INFEASIBLE)])
    def test_the_digit_limit_refuses_only_a_longer_count(self, dim, code):
        # i = 2 gives 640 digits at d = 2130 and 641 at d = 2132
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert invoke_with_errors(["strings", "--dim", str(dim), "--i", "2"])[0] == code
        finally:
            sys.set_int_max_str_digits(limit)

    def test_odd_dimension_rejected(self):
        code, _ = invoke(["strings", "--dim", "3", "--i", "1"])
        assert code == EXIT_USAGE

    def test_guard_reads_the_string_count(self):
        # 85,900,584 placements of the ones, but only 279,936 strings
        code, text = invoke(["strings", "--dim", "12", "--i", "8"])
        assert code == EXIT_OK
        assert text == "d,i,string_count,path_count\n12,8,279936,279936\n"

    @pytest.mark.parametrize(
        "d,i", [(14, 4), (14, 9), (1000, 2), (200, 50), (4_000_000, 1), (10**10, 1)]
    )
    def test_enumeration_guard_exits_3_quickly(self, d, i):
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(
            ["strings", "--dim", str(d), "--i", str(i), "--list"]
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)

    @pytest.mark.parametrize("d,i", [(14, 4), (14, 9), (1000, 2), (200, 50)])
    def test_count_answers_over_the_listing_guard(self, d, i):
        # (14, 4) has 3,352,139 strings, (14, 9) 5,764,801, (1000, 2) 300 digits
        count = (-1) ** (i - 1) * coefficients.layer_coefficient(d, i)
        assert count > evenstrings.MAX_STRING_CANDIDATES
        code, text = invoke(["strings", "--dim", str(d), "--i", str(i)])
        assert code == EXIT_OK
        assert text == f"d,i,string_count,path_count\n{d},{i},{count},{count}\n"

    @pytest.mark.parametrize("d,i", [(1000, 502), (4_000_000, 1), (10**10, 2)])
    def test_walk_guard_exits_3_quickly(self, d, i):
        # 125,501,001 cells, 2,000,001, and (5 * 10**9 + 1)**2
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(["strings", "--dim", str(d), "--i", str(i)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "cells" in errors


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

    def test_deeply_nested_json_exits_2(self, tmp_path):
        # the JSON decoder recurses once per nested list, past the interpreter's limit
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"n": 3, "relations": ' + "[" * depth + "]" * depth + "}")
        code, text, errors = invoke_with_errors(
            ["action", "--input", str(path), "--dim", "2", "--ell", "1"]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert errors == "error: causal set input is nested too deeply to decode\n"

    def test_overflowing_dimension_exit_2(self, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        code, _ = invoke(["action", "--input", str(path), "--dim", "400", "--ell", "1"])
        assert code == EXIT_USAGE

    # 1e154 overflows the action to -inf, which strict JSON cannot carry
    @pytest.mark.parametrize(
        "dim,ell", [("2", "nan"), ("2", "inf"), ("4", "1e300"), ("4", "1e154")]
    )
    def test_bad_length_scale_exit_2(self, tmp_path, dim, ell):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        code, text, errors = invoke_with_errors(
            ["action", "--input", str(path), "--dim", dim, "--ell", ell]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)

    def test_overflowing_length_power_names_scale_and_dimension(self, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        _, _, errors = invoke_with_errors(
            ["action", "--input", str(path), "--dim", "4", "--ell", "1e300"]
        )
        assert errors == (
            "error: length scale 1e+300 to the power 2 overflows a float in dimension 4\n"
        )


    def test_element_budget_exits_3_before_allocating(self, tmp_path, monkeypatch):
        # 10**5 elements would need 10 GB of bool order and 40 GB of float32
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array for an over-budget causal set")

        monkeypatch.setattr("numpy.zeros", refuse)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**5, "relations": []}))
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(
            ["action", "--input", str(path), "--dim", "2", "--ell", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "100000 elements" in errors


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
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", "2", "--density", "10", "--ell", "0.5", "--trials", "1"]
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert errors.endswith(
            "causetbox sprinkle: error: argument --ell: not allowed with argument --density\n"
        )

    def test_neither_density_nor_ell_exit_2(self):
        code, text, errors = invoke_with_errors(["sprinkle", "--dim", "2", "--trials", "1"])
        assert (code, text) == (EXIT_USAGE, "")
        assert errors.endswith(
            "causetbox sprinkle: error: one of the arguments --density --ell is required\n"
        )

    def test_overflowing_dimension_exit_2(self):
        code, _ = invoke(["sprinkle", "--dim", "400", "--density", "10", "--trials", "1"])
        assert code == EXIT_USAGE

    def test_high_dimension_ratio_check_is_relative(self):
        # |alpha/beta| > 1e5 at d = 25: an absolute 1e-10 tolerance is
        # below float resolution there and refused a correct ratio.
        code, text = invoke(
            ["sprinkle", "--dim", "25", "--density", "10", "--trials", "1"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["trials"] == 1

    @pytest.mark.parametrize("ell", ["0", "-1"])
    def test_bad_length_scale_exit_2(self, ell):
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", "2", "--ell", ell, "--trials", "1"]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)

    @pytest.mark.filterwarnings("error")  # the error line speaks alone
    @pytest.mark.parametrize("field", ["mono:0,-1", "const:nan"])
    def test_non_finite_estimate_exit_2(self, field):
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", "2", "--density", "10", "--trials", "2", "--field", field]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)
        assert "not finite" in errors

    @pytest.mark.parametrize("field", ["mono:-400", "const:1e308"])
    def test_overflowing_field_exit_2_without_a_warning(self, field):
        # t**-400 and alpha * 1e308 overflow to inf in numpy scalars
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, errors = invoke_with_errors(
                ["sprinkle", "--dim", "2", "--density", "10", "--trials", "2", "--field", field]
            )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)
        assert "not finite" in errors
        assert caught == []

    def test_unknown_field_spec_exit_2(self):
        code, _ = invoke(
            ["sprinkle", "--dim", "2", "--density", "10", "--field", "wavelet:1"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("field", ["mono:,2", "mono:1,,2", "mono:2,", "mono", "const"])
    def test_empty_exponent_exit_2(self, field):
        # skipping the empty item would shift the exponents that follow it,
        # and a kind with no colon is not the empty monomial (the constant 1)
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", "2", "--density", "10", "--trials", "2", "--field", field]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)
        assert f"malformed field spec {field!r}" in errors

    @pytest.mark.parametrize(
        "flags",
        [
            ["--density", "1e9"],
            ["--density", "10", "--trials", "1000000000000"],
            ["--density", "1", "--trials", "100000000"],  # over the work bound only
            ["--density", "1e308"],
            ["--ell", "1e-100"],
        ],
    )
    def test_over_budget_exits_3_before_allocating(self, flags, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array for an over-budget request")

        monkeypatch.setattr("numpy.empty", refuse)
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(["sprinkle", "--dim", "2", *flags])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "elements per trial" in errors and "trials" in errors

    @pytest.mark.parametrize("dim, density", [("40", "2e10"), ("24", "30000")])
    def test_rejection_sampling_over_the_work_bound_exits_3_at_once(self, dim, density):
        # about 9 points per trial, drawn from about 10^22 and 10^11 points
        # of the bounding box
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", dim, "--density", density, "--trials", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "sprinkle too long: about 9." in errors

    def test_a_drawn_count_over_the_work_bound_exits_3_at_once(self):
        # the request of test_high_dimension_ratio_check_is_relative expects
        # 0.0015 points, but seed 312's trial draws one, which about
        # 2 * 10^11 points of the bounding box would take days to find
        start = time.perf_counter()
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", "25", "--density", "10", "--trials", "1", "--seed", "312"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INFEASIBLE
        assert text == ""
        assert_one_error_line(errors)
        assert "sprinkle too long: a trial's Poisson count 1 takes about" in errors

    def test_dense_estimate_is_charged_its_scan_not_an_order(self):
        # N about 2 * 10^4: the whole order would need about 9.6 GB
        code, text = invoke(
            ["sprinkle", "--dim", "2", "--density", "10000", "--trials", "100"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["trials"] == 100

    @pytest.mark.parametrize(
        "dim,ell", [("2", "1e-300"), ("4", "1e-80")]
    )
    def test_overflowing_length_power_names_scale_and_dimension(self, dim, ell):
        code, text, errors = invoke_with_errors(
            ["sprinkle", "--dim", dim, "--ell", ell, "--trials", "1"]
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert_one_error_line(errors)
        assert f"length scale {float(ell)} to the power -{dim} overflows" in errors
        assert f"in dimension {dim}" in errors


class TestPlumbing:
    def test_output_file(self, tmp_path):
        target = tmp_path / "coeffs.csv"
        code, text = invoke(["coeffs", "--dim", "2", "--output", str(target)])
        assert code == EXIT_OK
        assert text == ""
        assert target.read_text() == "d,i,num,den,scaled\n2,1,1,1,16\n2,2,-2,1,-32\n2,3,1,1,16\n"

    @pytest.mark.parametrize("subcommand", ["action", "sprinkle"])
    def test_json_only_subcommands_refuse_csv(self, subcommand, tmp_path):
        # both print JSON only, so asking for CSV is an invalid argument, not a no-op
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(DIAMOND_JSON))
        argv = {
            "action": ["action", "--input", str(path), "--dim", "2", "--ell", "1"],
            "sprinkle": ["sprinkle", "--dim", "2", "--density", "10", "--trials", "2"],
        }[subcommand]
        code, text, errors = invoke_with_errors(argv + ["--format", "csv"])
        assert (code, text) == (EXIT_USAGE, "")
        assert "invalid choice: 'csv'" in errors and "Traceback" not in errors
        code, text, errors = invoke_with_errors(argv + ["--format", "json"])
        assert (code, errors) == (EXIT_OK, "")
        assert text == invoke(argv)[1]
        json.loads(text)

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

    def test_any_other_exception_exits_4_with_one_error_line(self, monkeypatch):
        def fail(dimension, index):
            raise RuntimeError("unexpected\nfailure")

        monkeypatch.setattr(evenstrings, "count_constrained_paths", fail)
        code, text, errors = invoke_with_errors(["strings", "--dim", "2", "--i", "1"])
        assert code == EXIT_INTERNAL == 4
        assert text == ""
        assert_one_error_line(errors)
        assert errors == "error: internal error: RuntimeError: unexpected failure\n"


class TestParserState:
    """One parser serves every call in a process; no call sees another's."""

    def test_appended_dims_do_not_accumulate(self):
        code, text = invoke(["verify", "--dim", "2", "--max-i", "2"])
        assert code == EXIT_OK
        assert {row["dimension"] for row in json.loads(text)["results"]} == {2}
        code, text = invoke(["verify", "--dim", "3", "--max-i", "2"])
        assert code == EXIT_OK
        assert {row["dimension"] for row in json.loads(text)["results"]} == {3}

    def test_exclusive_scale_flags_reset_between_calls(self):
        base = ["sprinkle", "--dim", "2", "--trials", "2"]
        code, text = invoke(base + ["--ell", "0.5"])
        assert code == EXIT_OK and json.loads(text)["density"] == 4.0
        code, text = invoke(base + ["--density", "10"])
        assert code == EXIT_OK and json.loads(text)["density"] == 10.0
        code, text, errors = invoke_with_errors(base)
        assert (code, text) == (EXIT_USAGE, "")
        assert "one of the arguments --density --ell is required" in errors

    @pytest.mark.parametrize(
        "bad",
        [
            ["coeffs", "--dim", "x"],
            ["verify", "--dim", "3", "--max-i", "oops"],
            ["sprinkle", "--dim", "2", "--density", "1", "--ell", "1"],
            ["frobnicate"],
        ],
    )
    def test_a_bad_call_leaves_good_calls_unchanged(self, bad):
        good = ["verify", "--dim", "2", "--max-i", "2", "--format", "csv"]
        first = invoke(good)
        assert invoke_with_errors(bad)[0] == EXIT_USAGE
        assert invoke(good) == first
        assert first[1].splitlines()[1:] == ["2,1,True,True", "2,2,True,True"]

    def test_run_does_not_build_a_parser(self, monkeypatch):
        def refuse():
            raise AssertionError("run built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert invoke(["coeffs", "--dim", "2"])[0] == EXIT_OK
