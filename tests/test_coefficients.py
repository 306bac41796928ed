"""Exact coefficient arithmetic.

Expected values were frozen from two independent routes: direct
evaluation of the alternating gamma-ratio sum with half-integer gammas
reduced by hand, and the scaled integer identity
``scaled = sum_k binom(i-1,k) * (-1)**k * scaled_gamma_ratio``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from causetbox.coefficients import (
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
        from causetbox.coefficients import CoefficientTable

        with pytest.raises(ValueError):
            CoefficientTable(
                dimension=2,
                entries=(Fraction(1), Fraction(2), Fraction(1)),
                scaled_entries=(16, 32, 16),
            )


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
