"""Truncated bivariate power series for the chord-diagram counts.

The colored-diagram class enumerated in :mod:`causetbox.diagrams` has
the closed-form generating function

    ( y / sqrt(1 - 4*x*y**2)  +  y**2 * (1 + 4*x) )
    -----------------------------------------------
              1  -  y**2 * (1 + 4*x)

where ``x`` marks chords and ``y`` marks points.  This module expands
that closed form on an all-integer path — the inverse square root via
central binomial coefficients, the division by ``1 - y**2 * (1 + 4x)``
as a three-term recurrence on the coefficients.  The closed forms of
its even and odd coefficients live in ``tests/test_genseries.py``, where
the tests check them against the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import FeasibilityError, _check_int

__all__ = [
    "BivariateSeries",
    "diagram_series",
    "MAX_SERIES_CELLS",
]

#: Feasibility guard on the cells ``(max_x + 1)(max_y + 1)`` of a series window.
MAX_SERIES_CELLS = 250_000


@dataclass(frozen=True)
class BivariateSeries:
    """Dense table of exact integer coefficients, truncated at fixed orders."""

    max_x: int
    max_y: int
    coeffs: tuple[tuple[int, ...], ...]

    def coefficient(self, n: int, m: int) -> int:
        """The coefficient of x**n * y**m."""
        n = _check_int(n, "n", 0, self.max_x)
        return self.coeffs[n][_check_int(m, "m", 0, self.max_y)]


def diagram_series(max_x: int, max_y: int) -> BivariateSeries:
    """Expand the diagram generating function up to x**max_x * y**max_y.

    With ``N`` the numerator and ``q = y**2 * (1 + 4x)``, the series
    ``F = N / (1 - q)`` satisfies ``F = N + q * F``, which in
    coefficients is the all-integer recurrence

        F[n][m] = N[n][m] + F[n][m-2] + 4 * F[n-1][m-2]

    filled in increasing ``n`` and ``m``.  The numerator's inverse
    square root contributes ``binom(2n, n)`` at ``x**n * y**(2n+1)``.
    Windows of more than ``MAX_SERIES_CELLS`` cells raise
    :class:`~causetbox.coefficients.FeasibilityError` before any is built.
    """
    max_x = _check_int(max_x, "max_x", 0)
    max_y = _check_int(max_y, "max_y", 0)
    cells = (max_x + 1) * (max_y + 1)
    if cells > MAX_SERIES_CELLS:
        raise FeasibilityError(
            f"series window too large: x**{max_x} * y**{max_y} needs {cells} cells "
            f"(guard: <= {MAX_SERIES_CELLS})"
        )
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
