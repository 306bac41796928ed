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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .coefficients import (
    alpha_over_beta,
    layer_coefficient,
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
]


@dataclass(frozen=True)
class CausalSet:
    """A finite strict poset, optionally with spacetime coordinates.

    ``precedes`` is an ``N x N`` boolean matrix that must be
    irreflexive, antisymmetric, and transitively closed; ``coords``
    (when present) holds one row of spacetime coordinates per element,
    time first.
    """

    precedes: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self) -> None:
        matrix = np.array(self.precedes, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("relation matrix must be square")
        if matrix.diagonal().any():
            raise ValueError("relation has a cycle (some a < a): not a poset")
        if (matrix & matrix.T).any():
            raise ValueError("relation has a cycle (some a < b < a): not a poset")
        if ((_interiors(matrix) > 0) & ~matrix).any():
            raise ValueError("relation must be transitively closed")
        matrix.setflags(write=False)
        object.__setattr__(self, "precedes", matrix)
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


def _interiors(precedes: np.ndarray) -> np.ndarray:
    """``B = P @ P``: on a closed order, ``B[a, b]`` counts the elements
    strictly between ``a < b``.  float64 counts are exact up to 2**53."""
    as_float = precedes.astype(np.float64)
    return as_float @ as_float


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

    Transitive closure is applied; a cycle (including ``a < a``), a
    relation that is not a pair of integers, or a non-integer element
    count raises ``ValueError``.
    """
    _check_integers([n_elements], "element count")
    if n_elements < 0:
        raise ValueError("element count must be >= 0")
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
    while (reached := (_interiors(closure) > 0) & ~closure).any():
        closure |= reached
    return CausalSet(precedes=closure)


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
    return sum(
        float(layer_coefficient(dimension, i)) * value
        for i, value in enumerate(values, start=1)
    )


def box_operator(
    causal_set: CausalSet,
    dimension: int,
    length_scale: float,
    field: Sequence[float] | np.ndarray,
    x: int,
) -> float:
    """The discrete box operator applied to ``field`` at element ``x``."""
    if length_scale <= 0:
        raise ValueError("length scale must be positive")
    values = _as_field(field, causal_set.size)
    constants = operator_constants(dimension)
    weighted = _weighted(dimension, layer_sums(causal_set, x, values, num_layers(dimension)))
    return (constants.alpha * values[x] + constants.beta * weighted) / length_scale**2


def interval_abundances(causal_set: CausalSet, max_i: int) -> tuple[int, ...]:
    """``N_1 .. N_max_i`` where ``N_i`` counts related pairs with
    closed-interval size ``i + 1``."""
    if max_i < 1:
        raise ValueError(f"max_i must be >= 1, got {max_i}")
    relation = causal_set.precedes
    between = _interiors(relation)[relation].astype(np.int64)  # N_i counts between == i - 1
    return tuple(np.bincount(between, minlength=max_i)[:max_i].tolist())


def gravitational_action(causal_set: CausalSet, dimension: int, length_scale: float) -> ActionReport:
    """The gravitational action of the causal set.

    ``S = -alpha * ell**(d-2) * (N + (beta/alpha) * sum_i C_i * N_i)``
    with ``beta/alpha`` floated from the exact rational reciprocal.  The
    overall dimension-independent normalization is fixed to 1.
    """
    if length_scale <= 0:
        raise ValueError("length scale must be positive")
    constants = operator_constants(dimension)
    abundances = interval_abundances(causal_set, num_layers(dimension))
    beta_over_alpha = float(1 / alpha_over_beta(dimension))
    action = (
        -constants.alpha
        * length_scale ** (dimension - 2)
        * (causal_set.size + beta_over_alpha * _weighted(dimension, abundances))
    )
    return ActionReport(
        dimension=dimension,
        length_scale=length_scale,
        size=causal_set.size,
        abundances=abundances,
        action=action,
    )
