"""The Glaser 2014 gamma-function forms, kept as test oracles.

``causetbox.coefficients`` computes every layer coefficient from the
integer alternating sum over ``scaled_gamma_ratio``.  The functions here
evaluate the same quantities along the independent gamma-function route:
half-integer gammas are reduced with
``gamma(n + 1/2) = (2n-1)!! / 2**n * sqrt(pi)`` and the ``sqrt(pi)``
factors are cancelled symbolically, so the results are exact rationals
the package's tables must equal.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _double_factorial(n: int) -> int:
    """(n)!! for n >= -1; the empty product (-1)!! is 1."""
    return math.prod(range(n, 0, -2))


def _exact_gamma_half(twice_z: int) -> tuple[Fraction, int]:
    """Gamma(twice_z / 2) for positive integer or half-integer argument.

    Returns ``(rational, k)`` meaning ``rational * sqrt(pi)**k`` with
    ``k`` in {0, 1}: integer arguments give a factorial, half-integer
    arguments use ``gamma(n + 1/2) = (2n-1)!! / 2**n * sqrt(pi)``.
    """
    if twice_z <= 0:
        raise ValueError(f"gamma argument must be positive, got {twice_z}/2")
    if twice_z % 2 == 0:
        return Fraction(math.factorial(twice_z // 2 - 1)), 0
    n = (twice_z - 1) // 2
    return Fraction(_double_factorial(2 * n - 1), 2**n), 1


def gamma_layer_coefficient(dimension: int, index: int) -> Fraction:
    """Exact layer coefficient for layer ``index`` in dimension ``dimension``.

    Evaluates the alternating sum over ``k = 0 .. index-1`` of

        binom(index-1, k) * (-1)**k * G(d*(k+1)) / (G0 * G(d*k))

    where the three gamma factors are, for even ``d``,
    ``gamma(d*(k+1)/2 + 2) / (gamma(d/2 + 2) * gamma(1 + d*k/2))`` and,
    for odd ``d``,
    ``gamma(d*(k+1)/2 + 3/2) / (gamma((d+3)/2) * gamma(1 + d*k/2))``.
    All square-root factors cancel within each term, so the result is an
    exact rational.
    """
    d = dimension
    total = Fraction(0)
    for k in range(index):
        if d % 2 == 0:
            numer, s_num = _exact_gamma_half(d * (k + 1) + 4)
            den_fixed, s_fixed = _exact_gamma_half(d + 4)
        else:
            numer, s_num = _exact_gamma_half(d * (k + 1) + 3)
            den_fixed, s_fixed = _exact_gamma_half(d + 3)
        den_k, s_k = _exact_gamma_half(d * k + 2)
        if s_num - s_fixed - s_k != 0:
            raise ArithmeticError(
                "sqrt(pi) factors failed to cancel; this is a bug in the "
                f"half-integer gamma bookkeeping (d={d}, k={k})"
            )
        term = numer / (den_fixed * den_k)
        total += math.comb(index - 1, k) * (-1) ** k * term
    return total


def alpha_over_beta_gamma_form(dimension: int) -> Fraction:
    """The ratio alpha/beta read off the gamma-function forms of alpha and beta.

    For even ``d`` the gamma form reduces to
    ``-gamma(d) / (gamma(d/2 + 2) * gamma(d/2))`` with integer
    arguments only.  For odd ``d`` the identical factor
    ``gamma(1 + 2/d)`` appears in both constants and cancels
    symbolically, leaving ``-2**(d-1) / (d+1)`` with no gamma residue.
    """
    if dimension % 2 == 0:
        half = dimension // 2
        return Fraction(
            -math.factorial(dimension - 1),
            math.factorial(half + 1) * math.factorial(half - 1),
        )
    return Fraction(-(2 ** (dimension - 1)), dimension + 1)
