"""Generating-function expansion and closed-form coefficients.

The series values were cross-checked against exhaustive diagram
enumeration (see test_diagrams / the acceptance suite); the closed
forms of the even and odd coefficients, kept here as an oracle, are
checked against the series over the whole truncation window.
"""

import math

import pytest
from hypothesis import given, strategies as st

from causetbox import genseries
from causetbox.coefficients import FeasibilityError, scaled_gamma_ratio
from causetbox.genseries import MAX_SERIES_CELLS, diagram_series

WINDOW = diagram_series(4, 13)


def closed_coeff_even(n, i):
    """Closed form for the coefficient of x**n * y**(2i): 4**n * binom(i, n)."""
    return 4**n * math.comb(i, n)


def closed_coeff_odd(n, i):
    """Closed form for the coefficient of x**n * y**(2i+1).

    With ``j = i - n`` this is the product
    ``(4j + 6)(4j + 10) ... (4j + 4n + 2) / n!`` (n factors stepping
    by 4), an exact integer.
    """
    if i < n:
        raise ValueError(f"i must be >= n = {n}, got {i}")
    j = i - n
    product = math.prod(4 * j + 4 * level + 2 for level in range(1, n + 1))
    quotient, remainder = divmod(product, math.factorial(n))
    assert remainder == 0, (n, i)
    return quotient


# Plain-loop reference: the general truncated product and the summed
# powers q**k that the recurrence F = N + q*F replaced, kept as the
# oracle it must match exactly.


def reference_multiply(a, b, max_x, max_y):
    out = [[0] * (max_y + 1) for _ in range(max_x + 1)]
    for i, row in enumerate(a):
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            for k in range(max_x - i + 1):
                for l in range(max_y - j + 1):
                    if b[k][l]:
                        out[i + k][j + l] += coeff * b[k][l]
    return out


def reference_series(max_x, max_y):
    def table():
        return [[0] * (max_y + 1) for _ in range(max_x + 1)]

    numerator, q = table(), table()
    for n in range(max_x + 1):
        if 2 * n + 1 <= max_y:
            numerator[n][2 * n + 1] = math.comb(2 * n, n)
    if max_y >= 2:
        for n, weight in ((0, 1), (1, 4)):
            if n <= max_x:
                q[n][2] = weight
                numerator[n][2] += weight
    geometric, power = table(), table()
    geometric[0][0] = power[0][0] = 1
    for _ in range(max_y // 2):
        power = reference_multiply(power, q, max_x, max_y)
        for i in range(max_x + 1):
            for j in range(max_y + 1):
                geometric[i][j] += power[i][j]
    product = reference_multiply(numerator, geometric, max_x, max_y)
    return tuple(tuple(row) for row in product)


class TestMatchesReferenceExpansion:
    @pytest.mark.parametrize(
        "max_x, max_y", [(0, 0), (0, 1), (5, 3), (4, 13), (4, 26), (32, 96)]
    )
    def test_exact_equality(self, max_x, max_y):
        assert diagram_series(max_x, max_y).coeffs == reference_series(max_x, max_y)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=16))
    def test_small_windows(self, max_x, max_y):
        assert diagram_series(max_x, max_y).coeffs == reference_series(max_x, max_y)


class TestDiagramSeries:
    def test_bare_only_column(self):
        for m in range(1, 14):
            assert WINDOW.coefficient(0, m) == 1

    def test_no_constant_term(self):
        assert WINDOW.coefficient(0, 0) == 0

    def test_single_chord_values(self):
        assert WINDOW.coefficient(1, 2) == 4
        assert WINDOW.coefficient(1, 3) == 6

    def test_two_chord_values(self):
        assert WINDOW.coefficient(2, 4) == 16
        # The closed-form example for (n=2, i=2) sometimes gets
        # misquoted as 15; the series fixes 30 (and enumeration agrees).
        assert WINDOW.coefficient(2, 5) == 30

    def test_too_few_points_gives_zero(self):
        assert WINDOW.coefficient(3, 3) == 0
        assert WINDOW.coefficient(4, 7) == 0

    def test_out_of_window_lookup_raises(self):
        with pytest.raises(ValueError):
            WINDOW.coefficient(5, 2)
        with pytest.raises(ValueError):
            WINDOW.coefficient(1, 14)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            diagram_series(-1, 3)

    def test_window_over_the_guard_is_refused_before_any_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a row of a refused window")

        monkeypatch.setattr(genseries.math, "comb", refuse)  # the first row's only product
        with pytest.raises(FeasibilityError, match=f"{MAX_SERIES_CELLS + 1} cells"):
            diagram_series(MAX_SERIES_CELLS, 0)
        with pytest.raises(FeasibilityError, match=f"guard: <= {MAX_SERIES_CELLS}"):
            diagram_series(MAX_SERIES_CELLS, 1)
        with pytest.raises(FeasibilityError):
            diagram_series(10**5, 10**5)

    def test_window_at_the_guard_is_built(self):
        series = diagram_series(MAX_SERIES_CELLS - 1, 0)  # exactly the guard's cells
        assert series.coefficient(MAX_SERIES_CELLS - 1, 0) == 0


class TestClosedForms:
    def test_even_examples(self):
        assert closed_coeff_even(2, 2) == 16
        assert closed_coeff_even(0, 5) == 1
        assert closed_coeff_even(1, 1) == 4 == WINDOW.coefficient(1, 2)

    def test_odd_examples(self):
        assert closed_coeff_odd(1, 1) == 6 == WINDOW.coefficient(1, 3)
        assert closed_coeff_odd(0, 7) == 1
        assert closed_coeff_odd(2, 2) == 30 == WINDOW.coefficient(2, 5)

    def test_odd_domain_error(self):
        with pytest.raises(ValueError):
            closed_coeff_odd(3, 2)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=6))
    def test_even_matches_series(self, n, i):
        if 2 * i <= 13:
            assert WINDOW.coefficient(n, 2 * i) == closed_coeff_even(n, i)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=6))
    def test_odd_matches_series(self, n, i):
        if i >= n and 2 * i + 1 <= 13:
            assert WINDOW.coefficient(n, 2 * i + 1) == closed_coeff_odd(n, i)

    def test_gamma_ratio_bridge(self):
        # series coefficient at (floor(d/2)+1, 2*floor(d/2)+2+d*k) is the
        # scaled gamma ratio
        for d in range(2, 7):
            half = d // 2
            for k in range(4):
                n, m = half + 1, 2 * half + 2 + d * k
                if n <= 4 and m <= 13:
                    assert WINDOW.coefficient(n, m) == scaled_gamma_ratio(d, k)
