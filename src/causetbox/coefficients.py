"""Exact layer coefficients of the causal-set d'Alembertian.

The discrete box operator in dimension ``d`` acts on a scalar field as

    (1 / ell**2) * (alpha * phi(x) + beta * sum_i C_i * layer_sum_i)

where the layer coefficients ``C_1 .. C_(floor(d/2)+2)`` are alternating
sums of gamma-function ratios.  Everything on the exact path is carried
by :class:`fractions.Fraction`: for odd ``d`` the half-integer gamma
values are reduced with ``gamma(n + 1/2) = (2n-1)!! / 2**n * sqrt(pi)``
and the ``sqrt(pi)`` factors are cancelled symbolically, so no floating
gamma ever touches a coefficient.  Floating values appear only in the
operator constants ``alpha``, ``beta`` and the volume factor ``c_d``,
which are genuinely irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "CoefficientTable",
    "OperatorConstants",
    "layer_coefficient",
    "scaled_coefficient",
    "coefficient_table",
    "scaled_gamma_ratio",
    "alpha_over_beta",
    "alpha_over_beta_gamma_form",
    "catalan_number",
    "sphere_surface_area",
    "operator_constants",
    "num_layers",
]


def num_layers(dimension: int) -> int:
    """Number of layer coefficients in dimension ``dimension``: floor(d/2) + 2."""
    _check_dimension(dimension)
    return dimension // 2 + 2


def _check_dimension(dimension: int) -> None:
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")


def _check_index(dimension: int, index: int) -> None:
    top = dimension // 2 + 2
    if not 1 <= index <= top:
        raise ValueError(
            f"layer index must be in 1..{top} for dimension {dimension}, got {index}"
        )


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


def layer_coefficient(dimension: int, index: int) -> Fraction:
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
    _check_dimension(dimension)
    _check_index(dimension, index)
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


def scaled_coefficient(dimension: int, index: int) -> int:
    """The integer ``2**(2*floor(d/2) + 2)`` times :func:`layer_coefficient`.

    The scaling clears every denominator; a non-integer result would
    mean the coefficient arithmetic is broken, so it raises rather than
    rounding.
    """
    value = layer_coefficient(dimension, index) * 2 ** (2 * (dimension // 2) + 2)
    if value.denominator != 1:
        raise ArithmeticError(
            f"scaled coefficient is not an integer for d={dimension}, "
            f"i={index}: {value} (internal consistency failure)"
        )
    return int(value)


@dataclass(frozen=True)
class CoefficientTable:
    """All layer coefficients of one dimension, exact and integer-scaled."""

    dimension: int
    entries: tuple[Fraction, ...]
    scaled_entries: tuple[int, ...]

    def __post_init__(self) -> None:
        scale = 2 ** (2 * (self.dimension // 2) + 2)
        if len(self.entries) != num_layers(self.dimension):
            raise ValueError("coefficient table has the wrong number of entries")
        for position, (exact, scaled) in enumerate(
            zip(self.entries, self.scaled_entries), start=1
        ):
            if exact * scale != scaled:
                raise ValueError("scaled entries disagree with exact entries")
            if exact == 0 or (exact > 0) != (position % 2 == 1):
                raise ValueError(
                    f"coefficient signs must alternate starting positive; "
                    f"entry {position} is {exact}"
                )


def coefficient_table(dimension: int) -> CoefficientTable:
    """Exact and scaled layer coefficients ``C_1 .. C_(floor(d/2)+2)``."""
    indices = range(1, num_layers(dimension) + 1)
    entries = tuple(layer_coefficient(dimension, i) for i in indices)
    scaled = tuple(scaled_coefficient(dimension, i) for i in indices)
    return CoefficientTable(dimension=dimension, entries=entries, scaled_entries=scaled)


def scaled_gamma_ratio(dimension: int, k: int) -> int:
    """The gamma-ratio part of the ``k``-th term after integer scaling.

    Evaluates the descending product
    ``(2dk + 4h + 4)(2dk + 4h) ... (2dk + 4) / (h + 1)!`` with
    ``h = floor(d/2)``; the quotient is always a positive integer.
    """
    _check_dimension(dimension)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    h = dimension // 2
    product = math.prod(2 * dimension * k + 4 * level + 4 for level in range(h + 1))
    quotient, remainder = divmod(product, math.factorial(h + 1))
    if remainder:
        raise ArithmeticError(
            f"gamma-ratio product not divisible by (h+1)! for d={dimension}, k={k}"
        )
    return quotient


def catalan_number(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"Catalan index must be >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def alpha_over_beta(dimension: int) -> Fraction:
    """Exact ratio alpha/beta of the operator constants.

    Even ``d``: ``-Catalan(d/2) / 2``; odd ``d``: ``-2**(d-1) / (d+1)``.
    """
    _check_dimension(dimension)
    if dimension % 2 == 0:
        return Fraction(-catalan_number(dimension // 2), 2)
    return Fraction(-(2 ** (dimension - 1)), dimension + 1)


def alpha_over_beta_gamma_form(dimension: int) -> Fraction:
    """The same ratio read off the gamma-function forms of alpha and beta.

    For even ``d`` the gamma form reduces to
    ``-gamma(d) / (gamma(d/2 + 2) * gamma(d/2))`` with integer
    arguments only.  For odd ``d`` the identical factor
    ``gamma(1 + 2/d)`` appears in both constants and cancels
    symbolically, leaving ``-2**(d-1) / (d+1)`` with no gamma residue.
    """
    _check_dimension(dimension)
    if dimension % 2 == 0:
        half = dimension // 2
        return Fraction(
            -math.factorial(dimension - 1),
            math.factorial(half + 1) * math.factorial(half - 1),
        )
    return Fraction(-(2 ** (dimension - 1)), dimension + 1)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit n-sphere: 2 * pi**((n+1)/2) / gamma((n+1)/2).

    ``n = 0`` gives 2 (two points), ``n = 1`` gives 2*pi, ``n = 2``
    gives 4*pi.
    """
    if n < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


@dataclass(frozen=True)
class OperatorConstants:
    """Floating operator constants for one dimension.

    ``alpha`` multiplies the field at the evaluation point, ``beta``
    multiplies the weighted layer sums, and ``c_d`` is the volume
    factor ``S_(d-2) / (d * (d-1) * 2**(d/2 - 1))`` both are built
    from.  ``alpha_over_beta_exact`` is the exact rational the floats
    must reproduce.
    """

    dimension: int
    alpha: float
    beta: float
    c_d: float
    alpha_over_beta_exact: Fraction

    def __post_init__(self) -> None:
        if not self.alpha < 0:
            raise ValueError(f"alpha must be negative, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not math.isclose(
            self.alpha / self.beta, float(self.alpha_over_beta_exact), rel_tol=1e-10
        ):
            raise ValueError(
                "floating alpha/beta disagrees with the exact ratio: "
                f"{self.alpha / self.beta} vs {self.alpha_over_beta_exact}"
            )


def operator_constants(dimension: int) -> OperatorConstants:
    """Floating ``alpha``, ``beta`` and ``c_d`` for dimension ``dimension``.

    Uses the platform gamma (relative error well below 1e-12) since
    these constants carry genuinely irrational factors; the exact
    rational ratio is attached and cross-checked.
    """
    _check_dimension(dimension)
    d = dimension
    try:
        c_d = sphere_surface_area(d - 2) / (d * (d - 1) * 2.0 ** (d / 2 - 1))
        c_pow = c_d ** (2.0 / d)
        if d % 2 == 0:
            alpha = -2.0 * c_pow / math.gamma((d + 2) / d)
            beta = (
                2.0
                * math.gamma(d / 2 + 2)
                * math.gamma(d / 2 + 1)
                / (math.gamma(2 / d) * math.gamma(d))
                * c_pow
            )
        else:
            alpha = -c_pow / math.gamma((d + 2) / d)
            beta = (d + 1) / (2 ** (d - 1) * math.gamma(2 / d + 1)) * c_pow
    except OverflowError as exc:
        raise ValueError(f"operator constants overflow a float in dimension {d}") from exc
    return OperatorConstants(
        dimension=d,
        alpha=alpha,
        beta=beta,
        c_d=c_d,
        alpha_over_beta_exact=alpha_over_beta(d),
    )
