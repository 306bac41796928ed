"""Finite causal sets: intervals, layers, the box operator, the action.

A causal set is a finite strict partial order; here it is stored as a
dense boolean matrix ``precedes`` with ``precedes[a, b]`` meaning
``a < b``.  Intervals are closed: ``[a, b]`` contains both endpoints,
so ``a < b`` always gives an interval of size at least 2.  The layer
``L_i(x)`` collects the predecessors ``y < x`` with ``|[y, x]| = i + 1``,
and the discrete box operator weights the layer sums of a scalar field
with the exact coefficients from :mod:`causetbox.coefficients`:

    (1 / ell**2) * (alpha * phi(x) + beta * sum_i C_i * sum_{y in L_i} phi(y))

Summing the operator applied to the constant field recovers the
gravitational action up to the ``-ell**(d-2) * ell**2`` prefactor; that
consistency is one of the package's acceptance checks.

Every all-pairs count comes from one *interval pass*, the product
``P @ P`` taken in float32 row blocks: on a closed order its entry
``[a, b]`` counts the elements strictly between ``a < b``.  A float32 sum
of 0/1 products is exact below 2**24, far above any element count the
memory budget admits.  One pass gives both the pairs a closure step would
still add and the interval histogram (entry ``k`` counts the related
pairs with ``k`` elements strictly between them).  A causal set runs the
pass once when it is built (:func:`from_relations` hands over the pass
that closed its relation) and keeps the histogram, from which
:func:`interval_abundances` reads ``N_i`` without another product.  The
pass holds the ``N x N`` bool order, one ``N x N`` float32 copy and one
block of ``_BLOCK_ROWS x N`` products with its temporaries; counted with
the caller's matrix, a size whose peak would exceed ``MAX_ARRAY_BYTES``
raises :class:`~causetbox.coefficients.FeasibilityError` before the pass
allocates (before anything is, in :func:`from_relations`).
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .coefficients import (
    FeasibilityError,
    alpha_over_beta,
    coefficient_table,
    num_layers,
    operator_constants,
)

__all__ = [
    "CausalSet",
    "ActionReport",
    "from_relations",
    "load_causal_set",
    "interval_size",
    "layer",
    "layer_sums",
    "box_operator",
    "interval_abundances",
    "gravitational_action",
    "MAX_ARRAY_BYTES",
]

#: Memory budget of one causal-set computation (the interval pass here,
#: a Monte Carlo estimate in :mod:`causetbox.sprinkling`), checked
#: before allocating.
MAX_ARRAY_BYTES = 2**31

#: Rows of the order multiplied at once by the interval pass.
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class CausalSet:
    """A finite strict poset, optionally with spacetime coordinates.

    ``precedes`` is an ``N x N`` boolean matrix that must be
    irreflexive, antisymmetric, and transitively closed; ``coords``
    (when present) holds one row of spacetime coordinates per element,
    time first.  Building one runs the interval pass once, for the
    transitivity check, and keeps its histogram for
    :func:`interval_abundances`.  Equality and hashing are by identity:
    arrays have no single truth value to compare by.
    """

    precedes: np.ndarray
    coords: np.ndarray | None = None
    _histogram: np.ndarray = dataclass_field(init=False, repr=False)
    # the histogram of a pass that added nothing, handed over by from_relations
    _closed_histogram: InitVar[np.ndarray | None] = None

    def __post_init__(self, _closed_histogram: np.ndarray | None) -> None:
        matrix = np.array(self.precedes, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("relation matrix must be square")
        if matrix.diagonal().any():
            raise ValueError("relation has a cycle (some a < a): not a poset")
        if (matrix & matrix.T).any():
            raise ValueError("relation has a cycle (some a < b < a): not a poset")
        histogram = _closed_histogram
        if histogram is None:
            grew, histogram = _interval_pass(matrix)
            if grew:
                raise ValueError("relation must be transitively closed")
        matrix.setflags(write=False)
        histogram.setflags(write=False)
        object.__setattr__(self, "precedes", matrix)
        object.__setattr__(self, "_histogram", histogram)
        if self.coords is not None:
            coords = np.array(self.coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != matrix.shape[0]:
                raise ValueError("coords must have one row per element")
            coords.setflags(write=False)
            object.__setattr__(self, "coords", coords)

    @property
    def size(self) -> int:
        return self.precedes.shape[0]


@dataclass(frozen=True)
class ActionReport:
    """The action of one causal set at one dimension and length scale."""

    dimension: int
    length_scale: float
    size: int
    abundances: tuple[int, ...]
    action: float

    def __post_init__(self) -> None:
        pair_bound = self.size * (self.size - 1) // 2
        if any(a < 0 or a > pair_bound for a in self.abundances):
            raise ValueError("interval abundances out of range")

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "length_scale": self.length_scale,
            "size": self.size,
            "abundances": list(self.abundances),
            "action": self.action,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ActionReport":
        return cls(
            dimension=data["dimension"],
            length_scale=data["length_scale"],
            size=data["size"],
            abundances=tuple(data["abundances"]),
            action=data["action"],
        )


def _check_pass_budget(n_elements: int) -> None:
    """Refuse an interval pass whose arrays would not fit ``MAX_ARRAY_BYTES``.

    At its peak a causal set built from a bool matrix holds ``6*N*N``
    bytes (the caller's matrix, the validated copy and its float32
    operand) and one block of ``_BLOCK_ROWS`` rows with its
    temporaries, at most 16 bytes per block entry (the float32 products,
    the related entries as float32 and as int64).  A closure in
    :func:`from_relations` holds no more.
    """
    n = int(n_elements)  # a Python int: a numpy count could wrap in the product
    if 6 * n * n + 16 * min(n, _BLOCK_ROWS) * n > MAX_ARRAY_BYTES:
        raise FeasibilityError(
            f"causal set too large: {n_elements} elements (the interval pass holds "
            f"about 6*N*N bytes; guard: <= {MAX_ARRAY_BYTES} bytes)"
        )


def _interval_pass(order: np.ndarray) -> tuple[bool, np.ndarray]:
    """One pass of ``B = P @ P`` over the bool matrix ``order``.

    Adds to ``order``, in place, every pair ``a < b`` implied by some
    ``a < c < b`` (one closure step), and returns whether it added any,
    with the histogram of ``B`` over the related pairs: entry ``k`` counts
    the pairs ``a < b`` with ``k`` elements strictly between them, which
    holds when nothing was added.  ``B`` is formed in float32 blocks of
    ``_BLOCK_ROWS`` rows (exact below 2**24), so besides ``order`` the
    pass holds one ``N x N`` float32 copy and one block.
    """
    n_elements = order.shape[0]
    _check_pass_budget(n_elements)
    operand = order.astype(np.float32)
    histogram = np.zeros(n_elements + 1, dtype=np.int64)  # a cycle can reach N
    grew = False
    for start in range(0, n_elements, _BLOCK_ROWS):
        rows = order[start : start + _BLOCK_ROWS]  # a view: the update writes through
        between = operand[start : start + _BLOCK_ROWS] @ operand
        histogram += np.bincount(between[rows].astype(np.int64), minlength=n_elements + 1)
        added = (between > 0) & ~rows
        if added.any():
            grew = True
            rows |= added
    return grew, histogram


def _past(causal_set: CausalSet, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The predecessors ``y < x`` in increasing order, and for each the
    number of elements strictly between it and ``x``."""
    below = np.flatnonzero(causal_set.precedes[:, x])
    return below, causal_set.precedes[np.ix_(below, below)].sum(axis=1)


def _check_integers(values: list, what: str) -> None:
    # bools are refused too: numpy reads a bool index as a mask
    for kind in set(map(type, values)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"{what} must be an integer, not {kind.__name__}")


def from_relations(n_elements: int, pairs: Iterable[tuple[int, int]]) -> CausalSet:
    """Build a causal set from any generating set of relations.

    Transitive closure is applied by interval passes until one adds
    nothing; that last pass is handed to the causal set, which then
    validates without another product.  A cycle (including ``a < a``), a
    relation that is not a pair of integers, or a non-integer element
    count raises ``ValueError``; an element count whose pass would exceed
    ``MAX_ARRAY_BYTES`` raises
    :class:`~causetbox.coefficients.FeasibilityError` before any array is
    allocated.
    """
    _check_integers([n_elements], "element count")
    if n_elements < 0:
        raise ValueError("element count must be >= 0")
    _check_pass_budget(n_elements)
    ends: list = []
    try:
        for a, b in pairs:
            ends += (a, b)
    except (TypeError, ValueError) as exc:
        raise ValueError("each relation must be a pair [a, b]") from exc
    _check_integers(ends, "each relation end")
    if ends and not 0 <= min(ends) <= max(ends) < n_elements:
        a, b = next(p for p in zip(ends[::2], ends[1::2])
                    if not 0 <= min(p) <= max(p) < n_elements)
        raise ValueError(f"relation ({a}, {b}) out of range 0..{n_elements - 1}")
    closure = np.zeros((n_elements, n_elements), dtype=bool)
    closure[ends[::2], ends[1::2]] = True
    grew = True
    while grew:
        grew, histogram = _interval_pass(closure)
    return CausalSet(closure, _closed_histogram=histogram)


def load_causal_set(source: str | Path | dict) -> CausalSet:
    """Load ``{"n": N, "relations": [[a, b], ...]}`` from a path or dict."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = source
    try:
        n_elements = data["n"]
        relations = data["relations"]
    except (TypeError, KeyError) as exc:
        raise ValueError("causal set input needs keys 'n' and 'relations'") from exc
    return from_relations(n_elements, relations)


def interval_size(causal_set: CausalSet, a: int, b: int) -> int:
    """Size of the closed interval ``[a, b]``; 0 when ``a <= b`` fails."""
    if a == b:
        return 1
    if not causal_set.precedes[a, b]:
        return 0
    between = np.count_nonzero(causal_set.precedes[a] & causal_set.precedes[:, b])
    return 2 + between


def layer(causal_set: CausalSet, x: int, i: int) -> frozenset[int]:
    """The i-th layer below ``x``: predecessors at closed-interval size i+1."""
    if i < 1:
        raise ValueError(f"layer index must be >= 1, got {i}")
    below, between = _past(causal_set, x)
    return frozenset(below[between == i - 1].tolist())


def layer_sums(
    causal_set: CausalSet, x: int, field: np.ndarray, max_layer: int
) -> np.ndarray:
    """Sum of the field over each layer ``L_1(x) .. L_max_layer(x)``."""
    below, between = _past(causal_set, x)  # layer index is between + 1
    sums = np.bincount(between, weights=np.asarray(field)[below], minlength=max_layer)
    return sums[:max_layer].astype(float, copy=False)  # an empty past counts as ints


def _as_field(values: Sequence[float] | np.ndarray, n_elements: int) -> np.ndarray:
    field = np.asarray(values, dtype=float)
    if field.shape != (n_elements,):
        raise ValueError(
            f"field must assign one value per element ({n_elements}), "
            f"got shape {field.shape}"
        )
    return field


def _weighted(dimension: int, values: Sequence[float]) -> float:
    """``sum_i C_i * values[i - 1]``, one value per layer of ``dimension``."""
    entries = coefficient_table(dimension).entries
    return sum(float(c) * value for c, value in zip(entries, values, strict=True))


def _check_length_scale(length_scale: float) -> None:
    """Refuse a discreteness scale that is not a positive finite number."""
    if not 0 < length_scale < math.inf:
        raise ValueError(f"length scale must be positive and finite, got {length_scale}")


def _length_power(length_scale: float, power: int, dimension: int) -> float:
    """``length_scale ** power``, refusing a float overflow by name."""
    try:
        return length_scale**power
    except OverflowError:
        raise ValueError(
            f"length scale {length_scale} to the power {power} overflows a float "
            f"in dimension {dimension}"
        ) from None


def box_operator(
    causal_set: CausalSet,
    dimension: int,
    length_scale: float,
    field: Sequence[float] | np.ndarray,
    x: int,
) -> float:
    """The discrete box operator applied to ``field`` at element ``x``."""
    _check_length_scale(length_scale)
    values = _as_field(field, causal_set.size)
    constants = operator_constants(dimension)
    weighted = _weighted(dimension, layer_sums(causal_set, x, values, num_layers(dimension)))
    return (constants.alpha * values[x] + constants.beta * weighted) / _length_power(
        length_scale, 2, dimension
    )


def interval_abundances(causal_set: CausalSet, max_i: int) -> tuple[int, ...]:
    """``N_1 .. N_max_i`` where ``N_i`` counts related pairs with
    closed-interval size ``i + 1``, read off the histogram the causal set
    kept from its interval pass (no product is taken)."""
    if max_i < 1:
        raise ValueError(f"max_i must be >= 1, got {max_i}")
    counts = causal_set._histogram[:max_i].tolist()  # N_i counts between == i - 1
    return tuple(counts + [0] * (max_i - len(counts)))


def gravitational_action(causal_set: CausalSet, dimension: int, length_scale: float) -> ActionReport:
    """The gravitational action of the causal set.

    ``S = -alpha * ell**(d-2) * (N + (beta/alpha) * sum_i C_i * N_i)``
    with ``beta/alpha`` floated from the exact rational reciprocal.  The
    overall dimension-independent normalization is fixed to 1.
    """
    _check_length_scale(length_scale)
    constants = operator_constants(dimension)
    abundances = interval_abundances(causal_set, num_layers(dimension))
    beta_over_alpha = float(1 / alpha_over_beta(dimension))
    action = (
        -constants.alpha
        * _length_power(length_scale, dimension - 2, dimension)
        * (causal_set.size + beta_over_alpha * _weighted(dimension, abundances))
    )
    return ActionReport(
        dimension=dimension,
        length_scale=length_scale,
        size=causal_set.size,
        abundances=abundances,
        action=action,
    )
