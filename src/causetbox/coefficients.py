"""Exact layer coefficients of the causal-set d'Alembertian.

The discrete box operator in dimension ``d`` acts on a scalar field as

    (1 / ell**2) * (alpha * phi(x) + beta * sum_i C_i * layer_sum_i)

where the layer coefficients ``C_1 .. C_(floor(d/2)+2)`` are alternating
sums whose terms are counts.  Scaled by ``2**(2*floor(d/2) + 2)`` every
coefficient is the integer

    sum_k binom(i-1, k) * (-1)**k * scaled_gamma_ratio(d, k)

which is ``(-1)**(i-1)`` times the ``(i-1)``-th forward difference of the
ratios at ``k = 0`` (Graham, Knuth & Patashnik, *Concrete Mathematics*,
ch. 5).  :func:`coefficient_table` evaluates one difference table of the
ratios, in integers, once per dimension; the exact ``Fraction`` is the
integer over the scale.  The gamma-function form the sum comes from
(Glaser 2014, with half-integer gammas and symbolic ``sqrt(pi)``
cancellation) lives in ``tests/gamma_oracle.py``, where the tests check
every table against it.  Floating values appear only in the operator
constants ``alpha``, ``beta`` and the volume factor ``c_d``, which are
genuinely irrational.

:func:`coefficient_table` and :func:`operator_constants` keep their
frozen results for the last 8 dimensions, shared by every trial and
cell (a ``d = 2000`` table holds 1000 integers of 4000 digits).
"""

from __future__ import annotations

import functools
import math
import numbers
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


def _is_integer_type(kind: type) -> bool:
    """Whether ``kind`` counts as an integer: ``int`` and numpy integers, not bools
    (numpy reads a bool index as a mask)."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def _check_int(value: int, name: str, low: int, high: int | None = None) -> int:
    """Return ``value`` as an ``int`` if it is an integer in ``low..high``.

    Every count, index, dimension and seed of the package passes through
    here.  ``high=None`` sets no upper bound.  Bools, floats, strings and
    None raise ``ValueError("<name> must be an integer, not <type>")``, an
    integer outside the range raises ``ValueError`` naming the range.  A
    numpy integer comes back as an ``int``, so later arithmetic cannot
    wrap.  An in-range ``int`` returns at once: messages are formatted
    only when the value is refused.
    """
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    if not _is_integer_type(type(value)):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def num_layers(dimension: int) -> int:
    """Number of layer coefficients in dimension ``dimension``: floor(d/2) + 2."""
    return _check_int(dimension, "dimension", 2) // 2 + 2


def layer_coefficient(dimension: int, index: int) -> Fraction:
    """Exact layer coefficient ``C_index`` in dimension ``dimension``.

    A lookup into :func:`coefficient_table`: the scaled integer
    :func:`scaled_coefficient` divided by ``2**(2*floor(d/2) + 2)``.
    """
    index = _check_int(index, "layer index", 1, num_layers(dimension))
    return coefficient_table(dimension).entries[index - 1]


def scaled_coefficient(dimension: int, index: int) -> int:
    """The integer ``2**(2*floor(d/2) + 2)`` times :func:`layer_coefficient`.

    A lookup into :func:`coefficient_table`, where it is the alternating
    sum ``sum_k binom(index-1, k) * (-1)**k * scaled_gamma_ratio(d, k)``.
    """
    index = _check_int(index, "layer index", 1, num_layers(dimension))
    return coefficient_table(dimension).scaled_entries[index - 1]


@dataclass(frozen=True)
class CoefficientTable:
    """All layer coefficients of one dimension, scaled by ``2**(2*floor(d/2) + 2)``."""

    dimension: int
    scaled_entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.scaled_entries) != num_layers(self.dimension):
            raise ValueError("coefficient table has the wrong number of entries")
        for position, scaled in enumerate(self.scaled_entries, start=1):
            if scaled == 0 or (scaled > 0) != (position % 2 == 1):
                raise ValueError(
                    f"coefficient signs must alternate starting positive; "
                    f"scaled entry {position} is {scaled}"
                )

    @functools.cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The exact coefficients, each scaled entry over the scale, built on first read."""
        scale = 2 ** (2 * num_layers(self.dimension) - 2)  # 2**(2*floor(d/2) + 2), in ints
        return tuple(Fraction(scaled, scale) for scaled in self.scaled_entries)


_MAX_TABLE_DIGITS = 4300  # Python's default integer string limit


# typed: 4.0 == 4, so an untyped cache would answer coefficient_table(4.0)
# from the entry for 4 without reaching the check
@functools.lru_cache(maxsize=8, typed=True)
def coefficient_table(dimension: int) -> CoefficientTable:
    """Exact and scaled layer coefficients ``C_1 .. C_(floor(d/2)+2)``.

    The only place a coefficient is computed: the scaled entry ``i`` is
    ``(-1)**(i-1)`` times the ``(i-1)``-th forward difference of
    ``scaled_gamma_ratio(d, k)`` at ``k = 0``, all read off one difference
    table; the exact entry is that integer over ``2**(2*floor(d/2) + 2)``, on
    first read.  A table with more digits than Python's default integer string
    limit, 4300, raises :class:`FeasibilityError` before any product, whatever
    limit is set.
    """
    dimension = _check_int(dimension, "dimension", 2)
    digits = _table_digits(dimension)
    if digits > _MAX_TABLE_DIGITS:
        raise FeasibilityError(
            f"coefficient table too large: about {digits} digits for d={dimension} "
            f"(guard: <= {_MAX_TABLE_DIGITS}, Python's default integer string limit)"
        )
    row = [scaled_gamma_ratio(dimension, k) for k in range(num_layers(dimension))]
    scaled = []
    while row:  # the next row holds the differences of this one
        scaled.append(-row[0] if len(scaled) % 2 else row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return CoefficientTable(dimension=dimension, scaled_entries=tuple(scaled))


def _table_digits(dimension: int) -> int:
    """Digits of the table's largest gamma ratio, ``k = h + 1``:
    ``4**n * (x + 1)(x + 2) ... (x + n) / n!`` with ``n = h + 1``, ``x = d*n/2``.
    Bounded above without cancellation, the n factors by n times their mean
    ``x + (n+1)/2`` (log is concave) and ``n!`` by Stirling's lower bound, and
    evaluated in rationals, so every ``d`` is answered at once.  It is 7 to
    8 % above the largest printed integer where checked."""
    n = dimension // 2 + 1
    per_factor = math.log(2 * dimension + 2) + math.log1p(1 / (n * (dimension + 1))) + 1
    ln_ratio = n * Fraction(per_factor) - Fraction(math.log(n) + math.log(2 * math.pi)) / 2
    return math.floor(ln_ratio / Fraction(math.log(10))) + 1


def scaled_gamma_ratio(dimension: int, k: int) -> int:
    """The gamma-ratio part of the ``k``-th term after integer scaling.

    The descending product ``(2dk + 4h + 4)(2dk + 4h) ... (2dk + 4) / n!``
    with ``h = floor(d/2)``, ``n = h + 1``, a positive integer: for even
    ``dk`` it is ``4**n * binom(dk/2 + n, n)``, for odd ``dk`` the product
    ``2**n * (dk + 2)(dk + 4) ... (dk + 2n) / n!``, which takes half the
    time of a quotient of binomials from ``d = 300`` on.
    """
    dimension = _check_int(dimension, "dimension", 2)
    k = _check_int(k, "k", 0)
    n = dimension // 2 + 1
    dk = dimension * k
    if dk % 2 == 0:
        return 4**n * math.comb(dk // 2 + n, n)
    product = math.prod(range(dk + 2, dk + 2 * n + 1, 2)) << n
    quotient, remainder = divmod(product, math.factorial(n))
    if remainder:
        raise ArithmeticError(
            f"gamma-ratio product not divisible by (h+1)! for d={dimension}, k={k}"
        )
    return quotient


def catalan_number(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    n = _check_int(n, "Catalan index", 0)
    return math.comb(2 * n, n) // (n + 1)


def alpha_over_beta(dimension: int) -> Fraction:
    """Exact ratio alpha/beta of the operator constants.

    Even ``d``: ``-Catalan(d/2) / 2``; odd ``d``: ``-2**(d-1) / (d+1)``.
    """
    dimension = _check_int(dimension, "dimension", 2)
    if dimension % 2 == 0:
        return Fraction(-catalan_number(dimension // 2), 2)
    return Fraction(-(2 ** (dimension - 1)), dimension + 1)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit n-sphere: 2 * pi**((n+1)/2) / gamma((n+1)/2).

    ``n = 0`` gives 2 (two points), ``n = 1`` gives 2*pi, ``n = 2``
    gives 4*pi.
    """
    n = _check_int(n, "sphere dimension", 0)
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


@functools.lru_cache(maxsize=8, typed=True)  # typed, as coefficient_table is
def operator_constants(dimension: int) -> OperatorConstants:
    """Floating ``alpha``, ``beta`` and ``c_d`` for dimension ``dimension``.

    Uses the platform gamma (relative error well below 1e-12) since
    these constants carry genuinely irrational factors; the exact
    rational ratio is attached and cross-checked.
    """
    d = _check_int(dimension, "dimension", 2)
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
