"""Truncated bivariate power series for the chord-diagram counts.

The colored-diagram class enumerated in :mod:`causetbox.diagrams` has
the closed-form generating function

    ( y / sqrt(1 - 4*x*y**2)  +  y**2 * (1 + 4*x) )
    -----------------------------------------------
              1  -  y**2 * (1 + 4*x)

where ``x`` marks chords and ``y`` marks points.  This module expands
that closed form on an all-integer path — the inverse square root via
central binomial coefficients, the division by ``1 - y**2 * (1 + 4x)``
as a three-term recurrence on the coefficients — and provides the two
closed-form coefficient extractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BivariateSeries",
    "diagram_series",
    "closed_coeff_even",
    "closed_coeff_odd",
]


@dataclass(frozen=True)
class BivariateSeries:
    """Dense table of exact integer coefficients, truncated at fixed orders."""

    max_x: int
    max_y: int
    coeffs: tuple[tuple[int, ...], ...]

    def coefficient(self, n: int, m: int) -> int:
        """The coefficient of x**n * y**m."""
        if not (0 <= n <= self.max_x and 0 <= m <= self.max_y):
            raise ValueError(
                f"coefficient ({n}, {m}) outside truncation window "
                f"({self.max_x}, {self.max_y})"
            )
        return self.coeffs[n][m]


def diagram_series(max_x: int, max_y: int) -> BivariateSeries:
    """Expand the diagram generating function up to x**max_x * y**max_y.

    With ``N`` the numerator and ``q = y**2 * (1 + 4x)``, the series
    ``F = N / (1 - q)`` satisfies ``F = N + q * F``, which in
    coefficients is the all-integer recurrence

        F[n][m] = N[n][m] + F[n][m-2] + 4 * F[n-1][m-2]

    filled in increasing ``n`` and ``m``.  The numerator's inverse
    square root contributes ``binom(2n, n)`` at ``x**n * y**(2n+1)``.
    """
    if max_x < 0 or max_y < 0:
        raise ValueError("truncation orders must be >= 0")
    table: list[list[int]] = []
    below = [0] * (max_y + 1)  # row n-1 of F; zero for n = 0
    for n in range(max_x + 1):
        row = [0] * (max_y + 1)
        if 2 * n + 1 <= max_y:
            row[2 * n + 1] = math.comb(2 * n, n)  # y * (x*y**2)**n term
        if n <= 1 and max_y >= 2:
            row[2] += 4**n  # the numerator's y**2 * (1 + 4x) term
        for m in range(2, max_y + 1):
            row[m] += row[m - 2] + 4 * below[m - 2]
        table.append(row)
        below = row
    return BivariateSeries(
        max_x=max_x,
        max_y=max_y,
        coeffs=tuple(tuple(row) for row in table),
    )


def closed_coeff_even(n: int, i: int) -> int:
    """Closed form for the coefficient of x**n * y**(2i): 4**n * binom(i, n)."""
    if n < 0 or i <= 0:
        raise ValueError(f"need n >= 0 and i > 0, got n={n}, i={i}")
    return 4**n * math.comb(i, n)


def closed_coeff_odd(n: int, i: int) -> int:
    """Closed form for the coefficient of x**n * y**(2i+1).

    With ``j = i - n`` this is the product
    ``(4j + 6)(4j + 10) ... (4j + 4n + 2) / n!`` (n factors stepping
    by 4), an exact integer.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if i < n:
        raise ValueError(f"need i >= n, got n={n}, i={i}")
    j = i - n
    product = math.prod(4 * j + 4 * level + 2 for level in range(1, n + 1))
    quotient, remainder = divmod(product, math.factorial(n))
    if remainder:
        raise ArithmeticError(f"odd-coefficient product not divisible by n!: {n}, {i}")
    return quotient
