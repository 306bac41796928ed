"""Exact layer coefficients of the causal-set d'Alembertian.

The discrete box operator in dimension ``d`` acts on a scalar field as

    (1 / ell**2) * (alpha * phi(x) + beta * sum_i C_i * layer_sum_i)

where the layer coefficients ``C_1 .. C_(floor(d/2)+2)`` are alternating
sums whose terms are counts.  Scaled by ``2**(2*floor(d/2) + 2)`` every
coefficient is the integer

    sum_k binom(i-1, k) * (-1)**k * scaled_gamma_ratio(d, k)

and :func:`coefficient_table` evaluates exactly that sum, in integers,
once per dimension; the exact ``Fraction`` is the integer over the
scale.  The gamma-function form the sum comes from (Glaser 2014, with
half-integer gammas and symbolic ``sqrt(pi)`` cancellation) lives in
``tests/gamma_oracle.py``, where the tests check every table against it.
Floating values appear only in the operator constants ``alpha``,
``beta`` and the volume factor ``c_d``, which are genuinely irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FeasibilityError",
    "CoefficientTable",
    "OperatorConstants",
    "layer_coefficient",
    "scaled_coefficient",
    "coefficient_table",
    "scaled_gamma_ratio",
    "alpha_over_beta",
    "catalan_number",
    "sphere_surface_area",
    "operator_constants",
    "num_layers",
]


class FeasibilityError(Exception):
    """Raised when a requested size exceeds its feasibility guard."""


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


def layer_coefficient(dimension: int, index: int) -> Fraction:
    """Exact layer coefficient ``C_index`` in dimension ``dimension``.

    A lookup into :func:`coefficient_table`: the scaled integer
    :func:`scaled_coefficient` divided by ``2**(2*floor(d/2) + 2)``.
    """
    _check_dimension(dimension)
    _check_index(dimension, index)
    return coefficient_table(dimension).entries[index - 1]


def scaled_coefficient(dimension: int, index: int) -> int:
    """The integer ``2**(2*floor(d/2) + 2)`` times :func:`layer_coefficient`.

    A lookup into :func:`coefficient_table`, where it is the alternating
    sum ``sum_k binom(index-1, k) * (-1)**k * scaled_gamma_ratio(d, k)``.
    """
    _check_dimension(dimension)
    _check_index(dimension, index)
    return coefficient_table(dimension).scaled_entries[index - 1]


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
    """Exact and scaled layer coefficients ``C_1 .. C_(floor(d/2)+2)``.

    The only place a coefficient is computed: the scaled entry ``i`` is
    ``sum_k binom(i-1, k) * (-1)**k * scaled_gamma_ratio(d, k)`` over
    ``k = 0 .. i-1``, an integer by construction, and the exact entry is
    that integer over ``2**(2*floor(d/2) + 2)``.
    """
    top = num_layers(dimension)
    ratios = [scaled_gamma_ratio(dimension, k) for k in range(top)]
    scaled = tuple(
        sum(math.comb(i - 1, k) * (-1) ** k * ratios[k] for k in range(i))
        for i in range(1, top + 1)
    )
    scale = 2 ** (2 * (dimension // 2) + 2)
    entries = tuple(Fraction(value, scale) for value in scaled)
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
