"""Exact coefficient arithmetic.

Expected values were frozen from two independent routes: direct
evaluation of the alternating gamma-ratio sum with half-integer gammas
reduced by hand, and the scaled integer identity
``scaled = sum_k binom(i-1,k) * (-1)**k * scaled_gamma_ratio``.
"""

import contextlib
import dataclasses
import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causetbox import coefficients
from causetbox.coefficients import (
    CoefficientTable,
    FeasibilityError,
    _table_digits,
    alpha_over_beta,
    catalan_number,
    coefficient_table,
    layer_coefficient,
    num_layers,
    operator_constants,
    scaled_coefficient,
    scaled_gamma_ratio,
    sphere_surface_area,
)
from causetbox.cli import run
from causetbox.diagrams import verify_layer
from causetbox.sprinkling import ConstantField, DiamondConfig, estimate_box
from gamma_oracle import alpha_over_beta_gamma_form, gamma_layer_coefficient


class TestLayerCoefficient:
    def test_dimension_two(self):
        assert [layer_coefficient(2, i) for i in (1, 2, 3)] == [1, -2, 1]

    def test_dimension_four(self):
        assert [layer_coefficient(4, i) for i in (1, 2, 3, 4)] == [1, -9, 16, -8]

    def test_dimension_three_half_integer_gammas(self):
        assert layer_coefficient(3, 2) == Fraction(-27, 8)
        assert layer_coefficient(3, 3) == Fraction(9, 4)

    @given(st.integers(min_value=2, max_value=30))
    def test_first_coefficient_is_one(self, d):
        assert layer_coefficient(d, 1) == 1

    @given(st.integers(min_value=2, max_value=12))
    def test_signs_alternate(self, d):
        for i in range(1, num_layers(d) + 1):
            value = layer_coefficient(d, i)
            assert value != 0
            assert (value > 0) == (i % 2 == 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            layer_coefficient(1, 1)
        with pytest.raises(ValueError):
            layer_coefficient(2, 0)
        with pytest.raises(ValueError):
            layer_coefficient(2, 4)


class TestScaledCoefficient:
    def test_frozen_tables(self):
        assert [scaled_coefficient(2, i) for i in (1, 2, 3)] == [16, -32, 16]
        assert [scaled_coefficient(3, i) for i in (1, 2, 3)] == [16, -54, 36]
        assert [scaled_coefficient(4, i) for i in (1, 2, 3, 4)] == [
            64,
            -576,
            1024,
            -512,
        ]
        assert [scaled_coefficient(5, i) for i in (1, 2, 3, 4)] == [
            64,
            -860,
            1800,
            -1000,
        ]
        assert [scaled_coefficient(6, i) for i in range(1, 6)] == [
            256,
            -8704,
            36096,
            -48384,
            20736,
        ]

    @given(
        st.integers(min_value=2, max_value=12),
        st.data(),
    )
    def test_alternating_sum_identity(self, d, data):
        i = data.draw(st.integers(min_value=1, max_value=num_layers(d)))
        expected = sum(
            math.comb(i - 1, k) * (-1) ** k * scaled_gamma_ratio(d, k)
            for k in range(i)
        )
        assert scaled_coefficient(d, i) == expected

    @given(st.integers(min_value=2, max_value=16))
    def test_scaling_is_integral(self, d):
        scale = 2 ** (2 * (d // 2) + 2)
        for i in range(1, num_layers(d) + 1):
            assert layer_coefficient(d, i) * scale == scaled_coefficient(d, i)


class TestScaledGammaRatio:
    def test_examples(self):
        assert scaled_gamma_ratio(2, 0) == 16
        assert scaled_gamma_ratio(2, 1) == 48
        assert scaled_gamma_ratio(3, 0) == 16
        assert scaled_gamma_ratio(3, 1) == 70

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 40, 41, 300, 301])
    def test_equals_the_descending_product_and_the_binomial_quotient(self, d):
        n = d // 2 + 1
        for k in range(num_layers(d)):
            dk = d * k
            product = math.prod(range(2 * dk + 4, 2 * dk + 4 * n + 1, 4))
            assert scaled_gamma_ratio(d, k) * math.factorial(n) == product, (d, k)
            if dk % 2:
                quotient = math.comb(dk + 2 * n, 2 * n) * math.comb(2 * n, n)
                assert scaled_gamma_ratio(d, k) * math.comb((dk - 1) // 2 + n, n) == quotient

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=6),
    )
    def test_positive_integer(self, d, k):
        assert scaled_gamma_ratio(d, k) > 0


class TestCoefficientTable:
    def test_structure(self):
        table = coefficient_table(4)
        assert table.dimension == 4
        assert len(table.entries) == 4
        assert table.scaled_entries == (64, -576, 1024, -512)

    def test_rejects_corrupt_table(self):
        with pytest.raises(ValueError, match="wrong number of entries"):
            CoefficientTable(dimension=2, scaled_entries=(16, -32))
        with pytest.raises(ValueError, match="scaled entry 2 is 32"):
            CoefficientTable(dimension=2, scaled_entries=(16, 32, 16))
        with pytest.raises(ValueError, match="scaled entry 1 is 0"):
            CoefficientTable(dimension=2, scaled_entries=(0, -32, 16))

    def test_numpy_dimension_scales_without_wrapping(self):
        table = coefficient_table(70)  # a scale of 2**72 would wrap in int64
        assert CoefficientTable(np.int64(70), table.scaled_entries).entries == table.entries

    def test_stores_only_the_scaled_integers(self):
        assert [f.name for f in dataclasses.fields(CoefficientTable)] == [
            "dimension",
            "scaled_entries",
        ]

    def test_exact_entries_are_built_once(self):
        table = coefficient_table(6)
        assert table.entries is table.entries

    def test_scaled_readers_build_no_fraction_of_integers(self, monkeypatch):
        # the digit estimate converts floats exactly; an entry would be ints
        def floats_only(*args):
            if not all(type(arg) is float for arg in args):
                raise AssertionError("built an exact entry for a reader of scaled entries")
            return Fraction(*args)

        monkeypatch.setattr(coefficients, "Fraction", floats_only)
        coefficient_table.cache_clear()  # so the tables are built under the patch
        assert coefficient_table(40).scaled_entries == scaled_entries_by_binomial_sums(40)
        assert verify_layer(4, 2) == (True, True)


class TestMatchesGammaOracle:
    @pytest.mark.parametrize("d", [*range(2, 61), 97, 120])
    def test_table_equals_gamma_form(self, d):
        table = coefficient_table(d)
        scale = 2 ** (2 * (d // 2) + 2)
        exact = tuple(gamma_layer_coefficient(d, i) for i in range(1, num_layers(d) + 1))
        assert table.entries == exact
        assert table.scaled_entries == tuple(value * scale for value in exact)


class TestAlphaOverBeta:
    def test_frozen_values(self):
        expected = [
            Fraction(-1, 2),
            Fraction(-1),
            Fraction(-1),
            Fraction(-8, 3),
            Fraction(-5, 2),
            Fraction(-8),
            Fraction(-7),
            Fraction(-128, 5),
            Fraction(-21),
            Fraction(-256, 3),
            Fraction(-66),
        ]
        assert [alpha_over_beta(d) for d in range(2, 13)] == expected

    def test_catalan_form_matches_gamma_form(self):
        for d in range(2, 13):
            assert alpha_over_beta(d) == alpha_over_beta_gamma_form(d)

    def test_even_form_is_catalan(self):
        for d in range(2, 13, 2):
            assert alpha_over_beta(d) == Fraction(-catalan_number(d // 2), 2)

    def test_odd_form(self):
        for d in range(3, 13, 2):
            assert alpha_over_beta(d) == Fraction(-(2 ** (d - 1)), d + 1)


class TestOperatorConstants:
    def test_dimension_two(self):
        constants = operator_constants(2)
        assert constants.alpha == pytest.approx(-2.0, rel=1e-12)
        assert constants.beta == pytest.approx(4.0, rel=1e-12)
        assert constants.c_d == pytest.approx(1.0, rel=1e-12)

    def test_dimension_four(self):
        constants = operator_constants(4)
        assert constants.alpha == pytest.approx(-4 / math.sqrt(6), rel=1e-12)
        assert constants.beta == pytest.approx(4 / math.sqrt(6), rel=1e-12)
        assert constants.c_d == pytest.approx(math.pi / 6, rel=1e-12)

    @given(st.integers(min_value=2, max_value=12))
    def test_signs_and_ratio_consistency(self, d):
        constants = operator_constants(d)
        assert constants.alpha < 0 < constants.beta
        assert abs(
            constants.alpha / constants.beta - float(alpha_over_beta(d))
        ) < 1e-10

    @pytest.mark.parametrize("d", [172, 400, 2000])
    def test_overflow_is_a_value_error(self, d):
        with pytest.raises(ValueError, match="overflow"):
            operator_constants(d)

    def test_every_representable_dimension_passes_the_ratio_check(self):
        # The check is relative: from d = 25 on |alpha/beta| exceeds 1e5,
        # where an absolute 1e-10 is below float resolution.
        checked = 0
        for d in range(2, 344):
            try:
                constants = operator_constants(d)
            except ValueError as exc:
                assert "overflow" in str(exc), (d, exc)
                continue
            assert constants.dimension == d
            checked += 1
        assert checked > 200

    def test_sphere_areas(self):
        assert sphere_surface_area(0) == pytest.approx(2.0)
        assert sphere_surface_area(1) == pytest.approx(2 * math.pi)
        assert sphere_surface_area(2) == pytest.approx(4 * math.pi)


class TestMemo:
    """The per-dimension memo changes no value; no test here reads a clock."""

    def test_tables_equal_the_oracle_across_cache_cycles(self):
        coefficient_table.cache_clear()
        dims = range(2, 61)  # 59 dimensions cycle the 8-entry cache several times
        for _ in range(2):
            for d in dims:
                exact = tuple(
                    gamma_layer_coefficient(d, i) for i in range(1, num_layers(d) + 1)
                )
                assert coefficient_table(d).entries == exact
        assert coefficient_table.cache_info().currsize == 8

    def test_repeated_dimension_returns_the_shared_table(self):
        assert coefficient_table(5) is coefficient_table(5)
        assert operator_constants(5) is operator_constants(5)

    def test_non_int_dimension_is_not_served_from_the_cache(self):
        coefficient_table(4)
        with pytest.raises(ValueError, match="dimension must be an integer, not float"):
            coefficient_table(4.0)

    def test_an_estimate_computes_the_table_once(self, monkeypatch):
        calls = []
        ratio = coefficients.scaled_gamma_ratio

        def counted(dimension, k):
            calls.append((dimension, k))
            return ratio(dimension, k)

        monkeypatch.setattr(coefficients, "scaled_gamma_ratio", counted)
        coefficient_table.cache_clear()
        config = DiamondConfig(dimension=2, density=20.0, half_height=1.0, seed=3)
        estimate_box(config, ConstantField(1.0), 20)
        assert calls == [(2, k) for k in range(num_layers(2))]
        coefficient_table.cache_clear()  # drop the table built under the patch


def scaled_entries_by_binomial_sums(d):
    """The scaled entries of dimension ``d`` by their definition, without the
    table's differences: entry ``i`` is the alternating binomial sum
    ``sum_k binom(i-1, k) * (-1)**k * scaled_gamma_ratio(d, k)``."""
    ratios = [scaled_gamma_ratio(d, k) for k in range(num_layers(d))]
    return tuple(
        sum(math.comb(i - 1, k) * (-1) ** k * ratios[k] for k in range(i))
        for i in range(1, num_layers(d) + 1)
    )


def refuse_products(dimension, k):
    raise AssertionError("a refused table computed a gamma ratio")


def coeffs_cli(dimension):
    """``causetbox coeffs --dim dimension``; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["coeffs", "--dim", str(dimension)])
    return code, out.getvalue(), err.getvalue()


class TestPrintGuard:
    """A table of more digits than Python's default integer string limit,
    4300, is refused up front, and ``coeffs`` also refuses one over a
    lowered limit.  No test here reads a clock: a refusal is shown to take
    no product."""

    def test_estimate_bounds_every_printed_integer(self):
        for d in range(2, 601):
            scaled = coefficient_table(d).scaled_entries
            if d <= 100:
                assert scaled == scaled_entries_by_binomial_sums(d)
            # a numerator divides its scaled entry, a denominator the scale
            scale = 2 ** (2 * (d // 2) + 2)
            assert _table_digits(d) >= len(str(max(scale, *map(abs, scaled)))), d

    @pytest.mark.parametrize("limit, admitted", [(640, 385), (1000, 571)])
    def test_each_side_of_the_cut_under_a_lowered_limit(self, limit, admitted, monkeypatch):
        # the library ignores the lowered limit; only the CLI, which prints, reads it
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            coefficient_table.cache_clear()
            assert coefficient_table(admitted + 1).dimension == admitted + 1
            code, text, _ = coeffs_cli(admitted)
            assert code == 0
            assert max(len(str(abs(v))) for v in coefficient_table(admitted).scaled_entries) <= limit
            assert text.count("\n") == admitted // 2 + 3
            coefficient_table.cache_clear()
            monkeypatch.setattr(coefficients, "scaled_gamma_ratio", refuse_products)
            digits = _table_digits(admitted + 1)
            assert digits > limit
            code, text, errors = coeffs_cli(admitted + 1)
            assert (code, text) == (3, "")
            assert errors == (
                f"error: coefficient table too large to print: about {digits} digits for "
                f"d={admitted + 1} (guard: <= {limit}, the interpreter's integer string limit)\n"
            )
        finally:
            sys.set_int_max_str_digits(old)
            coefficient_table.cache_clear()

    def test_an_unlimited_interpreter_is_held_to_the_default(self, monkeypatch):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            monkeypatch.setattr(coefficients, "scaled_gamma_ratio", refuse_products)
            default = sys.int_info.default_max_str_digits
            with pytest.raises(FeasibilityError, match=f"<= {default},"):
                coefficient_table(2118)
        finally:
            sys.set_int_max_str_digits(old)

    def test_the_cut_admits_every_dimension_up_to_2117(self):
        assert max(_table_digits(d) for d in range(2, 2118)) <= 4300 < _table_digits(2118)

    def test_an_interpreter_without_a_limit_to_read_is_held_to_the_default(
        self, monkeypatch
    ):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert coeffs_cli(4)[0] == 0
        monkeypatch.setattr(coefficients, "scaled_gamma_ratio", refuse_products)
        code, text, errors = coeffs_cli(2118)
        assert (code, text) == (3, "")
        assert "(guard: <= 4300, Python's default integer string limit)\n" in errors

    @pytest.mark.parametrize("exponent", [17, 200, 400])
    def test_huge_dimensions_are_refused_before_any_product(self, exponent, monkeypatch):
        # the factors x + j round to x in floats from about d = 1e16, and
        # d * n overflows a float from about d = 1e154
        monkeypatch.setattr(coefficients, "scaled_gamma_ratio", refuse_products)
        digits = _table_digits(10**exponent)
        assert exponent * 10**exponent // 2 < digits < (exponent + 2) * 10**exponent // 2
        with pytest.raises(FeasibilityError, match=f"about {digits} digits"):
            coefficient_table(10**exponent)

    def test_estimate_bounds_the_exact_log_sum(self):
        for d in [*range(2, 400), 2117, 2118, 5000]:
            n = d // 2 + 1
            x = d * n / 2
            ln_ratio = n * math.log(4) + math.fsum(
                math.log(x + j) for j in range(1, n + 1)
            ) - math.lgamma(n + 1)
            assert _table_digits(d) >= ln_ratio / math.log(10), d
            assert _table_digits(d) <= ln_ratio / math.log(10) + 1.05, d
