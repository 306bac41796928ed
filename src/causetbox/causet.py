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
memory budget admits.  The pass sweeps the blocks from last to first,
updating each in place, until a sweep adds nothing; that sweep gives the
interval histogram (entry ``k`` counts the related pairs with ``k``
elements strictly between them).  A block multiplies only the columns
its rows and their successors reach.  Validation is one sweep that counts
nothing; :func:`from_relations` hands its histogram to the causal set, or
the first :func:`interval_abundances` read takes one sweep and keeps it.
The pass holds the ``N x N`` bool order, one ``N x N`` float32 copy and
the products of one block of at most ``_BLOCK_ROWS`` rows with their
temporaries; counted with the caller's matrix, a size whose peak would
exceed ``MAX_ARRAY_BYTES`` raises
:class:`~causetbox.coefficients.FeasibilityError` before the pass
allocates (before anything is, in :func:`from_relations`).

A layer below ``x`` reads only the column ``P[below] @ P[:, x]``, in the
same float32 row blocks; an element index must be an int in ``0..N-1``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import InitVar, dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import coefficients  # memoized tables, looked up where a tracer patches them
from .coefficients import FeasibilityError, _check_int, _is_integer_type, num_layers

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

#: Most rows of the order multiplied at once by the interval pass.
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class CausalSet:
    """A finite strict poset, optionally with spacetime coordinates.

    ``precedes`` is an ``N x N`` boolean matrix that must be
    irreflexive, antisymmetric, and transitively closed; ``coords``
    (when present) holds one row of spacetime coordinates per element,
    time first.  Building one runs one sweep of the interval pass, which
    must add nothing; the interval histogram is taken on the first read
    of :func:`interval_abundances` and kept.
    Equality and hashing are by identity: arrays have no single truth
    value to compare by.
    """

    precedes: np.ndarray
    coords: np.ndarray | None = None
    _histogram: np.ndarray | None = dataclass_field(init=False, repr=False)
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
        if self.coords is not None:
            coords = np.array(self.coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != matrix.shape[0]:
                raise ValueError("coords must have one row per element")
            coords.setflags(write=False)
            object.__setattr__(self, "coords", coords)
        if _closed_histogram is not None:
            _closed_histogram.setflags(write=False)
        elif _interval_pass(matrix, close=False)[0]:
            raise ValueError("relation must be transitively closed")
        matrix.setflags(write=False)
        object.__setattr__(self, "precedes", matrix)
        object.__setattr__(self, "_histogram", _closed_histogram)

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


def _check_pass_budget(n_elements: int) -> None:
    """Refuse an interval pass whose arrays would not fit ``MAX_ARRAY_BYTES``.

    At its peak a causal set built from a bool matrix holds ``6*N*N``
    bytes (the caller's matrix, the validated copy and its float32
    operand) and one block of at most ``_BLOCK_ROWS`` rows with its
    temporaries, at most 16 bytes per block entry (the float32 products,
    the related entries as float32 and as int64).  A closure in
    :func:`from_relations` holds no more: a growing block's products (4
    bytes per entry) and its ``b x b`` squares with their two masks (10 more).
    """
    n = int(n_elements)  # a Python int: a numpy count could wrap in the product
    if 6 * n * n + 16 * min(n, _BLOCK_ROWS) * n > MAX_ARRAY_BYTES:
        raise FeasibilityError(
            f"causal set too large: {n_elements} elements (the interval pass holds "
            f"about 6*N*N bytes; guard: <= {MAX_ARRAY_BYTES} bytes)"
        )


def _interval_pass(order: np.ndarray, close: bool = True) -> tuple[bool, np.ndarray | None]:
    """Close the bool matrix ``order`` in place by sweeps of ``B = P @ P``.

    Returns whether it added a pair, and the histogram of ``B`` over the
    related pairs of the closed order: entry ``k`` counts the pairs
    ``a < b`` with ``k`` elements strictly between them.  With
    ``close=False`` it stops at the first pair it adds, with no histogram;
    a closed order is not written.  Blocks hold a quarter of the rows, or
    ``2**16`` products if more (one block up to N = 256, which multiplies
    every column), and at most ``_BLOCK_ROWS`` rows.
    """
    _check_pass_budget(len(order))
    related, operand = np.count_nonzero(order), order.astype(np.float32)
    size = min(_BLOCK_ROWS, max(2**16 // max(len(order), 1), -(-len(order) // 4)))
    first = _first_columns(order) if size < len(order) else None
    histogram = np.zeros(len(order) + 1, dtype=np.int64) if close else None  # a cycle can reach N
    while _sweep(order, operand, size, first, histogram) and close:
        histogram[:] = 0
    return np.count_nonzero(order) > related, histogram


def _sweep(order: np.ndarray, operand: np.ndarray, size: int, first: np.ndarray | None,
           histogram: np.ndarray | None) -> bool:
    """One sweep over blocks of ``size`` rows; whether it left the order open.

    The blocks run from last to first, each multiplying its rows by the
    ``operand`` that holds the rows updated so far, over the columns its
    rows and their successors reach (:func:`_reach`; ``first`` follows the
    rows).  A sweep that adds nothing adds its products to ``histogram``;
    with none it returns at the first pair it adds.  A block that grows
    closes itself if it is the whole order or relates its elements only
    to later ones: it squares its ``b x b`` part until nothing changes,
    then adds that part times its rows.  Any other block takes one step.
    """
    grown = False
    for start in reversed(range(0, len(order), size)):
        block = slice(start, start + size)
        rows = order[block]  # a view: the updates write through
        span = slice(None) if first is None else _reach(first, block)  # rows relate none before
        between = operand[block, span] @ operand[span, span]
        if not _extend(rows[:, span], between):
            if histogram is not None and not grown:  # void once a block has grown
                between = between[rows[:, span]].astype(np.int64)  # the counts replace the products
                histogram += np.bincount(between, minlength=len(histogram))
            continue
        if histogram is None:
            return True
        grown, inner = True, rows[:, block]  # a view
        if first is not None:
            first[block] = _first_columns(rows)
        # one block, or each row relates only later elements
        if first is None or (first[block] > np.arange(start, start + len(rows))).all():
            square = inner.astype(np.float32)
            while _extend(inner, between := square @ square):
                square = inner.astype(np.float32)
            if first is None:  # one block: its last square is closed
                del square  # the histogram's temporaries stay within 16 bytes per entry
                histogram[:] = np.bincount(between[rows].astype(np.int64), minlength=len(histogram))
                return False
            operand[block] = rows
            span = slice(first[block].min(), None)  # these steps leave ``first`` as it is
            _extend(rows[:, span], operand[block, block] @ operand[block, span])
        operand[block] = rows
    return grown


def _first_columns(rows: np.ndarray) -> np.ndarray:
    """Each row's first related column (``N`` if none), read up to it."""
    first = rows.argmax(axis=1)
    first[~rows[np.arange(len(rows)), first]] = rows.shape[1]
    return first


def _reach(first: np.ndarray, block: slice) -> slice:
    """The columns the rows ``block`` and their successors relate, in O(N): from the least
    ``first`` column of the rows or of the successors, which lie from the rows' on."""
    low = first[block].min()
    return slice(first[low:].min(initial=low), None)


def _extend(rows: np.ndarray, products: np.ndarray) -> bool:
    """Add to ``rows`` the pairs with positive ``products``; whether any was new (else no write)."""
    grown = (products > 0) | rows
    if added := np.count_nonzero(grown) > np.count_nonzero(rows):
        rows[...] = grown
    return added


def _past(causal_set: CausalSet, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The predecessors ``y < x`` in increasing order, and for each the
    number of elements strictly between it and ``x`` (``P[below] @ P[:, x]``)."""
    column = causal_set.precedes[:, x]
    below, operand = np.flatnonzero(column), column.astype(np.float32)
    between = np.empty(below.size, dtype=np.int64)
    for start in range(0, below.size, _BLOCK_ROWS):
        rows = causal_set.precedes[below[start : start + _BLOCK_ROWS]]
        between[start : start + _BLOCK_ROWS] = rows.astype(np.float32) @ operand
    return below, between


def _check_elements(causal_set: CausalSet, *elements: int) -> None:
    top = causal_set.size - 1
    for x in elements:
        _check_int(x, "element index", 0, top)


def from_relations(n_elements: int, pairs: Iterable[tuple[int, int]]) -> CausalSet:
    """Build a causal set from any generating set of relations.

    Transitive closure is applied by one interval pass, whose last
    sweep's histogram is handed to the causal set, which then validates
    without another product.  A cycle (including ``a < a``), a
    relation that is not a pair of integers, or a non-integer element
    count raises ``ValueError``; an element count whose pass would exceed
    ``MAX_ARRAY_BYTES`` raises
    :class:`~causetbox.coefficients.FeasibilityError` before any array is
    allocated.
    """
    n_elements = _check_int(n_elements, "element count", 0)
    _check_pass_budget(n_elements)
    try:  # one pass over the relations, one length check each, both in C
        pairs = list(pairs)
        paired = set(map(len, pairs)) <= {2}
    except (TypeError, ValueError):
        paired = False
    if not paired:
        raise ValueError("each relation must be a pair [a, b]")
    ends = list(itertools.chain.from_iterable(pairs))
    # one test per distinct type, not per end: a file holds many thousands
    for kind in set(map(type, ends)):
        if not _is_integer_type(kind):
            raise ValueError(f"each relation end must be an integer, not {kind.__name__}")
    try:  # an end beyond int64 is out of range as well
        flat = np.fromiter(ends, dtype=np.int64, count=len(ends))
        in_range = not flat.size or 0 <= flat.min() <= flat.max() < n_elements
    except OverflowError:
        in_range = False
    if not in_range:
        a, b = next(p for p in pairs if not 0 <= min(p) <= max(p) < n_elements)
        raise ValueError(f"relation ({a}, {b}) out of range 0..{n_elements - 1}")
    closure = np.zeros((n_elements, n_elements), dtype=bool)
    closure[flat[::2], flat[1::2]] = True
    del pairs, ends, flat  # the closure holds none of the relation copies
    return CausalSet(closure, _closed_histogram=_interval_pass(closure)[1])


def load_causal_set(source: str | Path) -> CausalSet:
    """Load ``{"n": N, "relations": [[a, b], ...]}`` from a JSON file."""
    with open(source, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:  # the decoder recurses once per nested list or object
            raise ValueError("causal set input is nested too deeply to decode") from None
    try:
        n_elements = data["n"]
        relations = data["relations"]
    except (TypeError, KeyError) as exc:
        raise ValueError("causal set input needs keys 'n' and 'relations'") from exc
    return from_relations(n_elements, relations)


def interval_size(causal_set: CausalSet, a: int, b: int) -> int:
    """Size of the closed interval ``[a, b]``; 0 when ``a <= b`` fails."""
    _check_elements(causal_set, a, b)
    if a == b:
        return 1
    if not causal_set.precedes[a, b]:
        return 0
    return 2 + np.count_nonzero(causal_set.precedes[a] & causal_set.precedes[:, b])


def layer(causal_set: CausalSet, x: int, i: int) -> frozenset[int]:
    """The i-th layer below ``x``: predecessors at closed-interval size i+1."""
    _check_int(i, "layer index", 1)
    _check_elements(causal_set, x)
    below, between = _past(causal_set, x)
    return frozenset(below[between == i - 1].tolist())


def layer_sums(
    causal_set: CausalSet, x: int, field: np.ndarray, max_layer: int
) -> np.ndarray:
    """Sum of the field over each layer ``L_1(x) .. L_max_layer(x)``."""
    _check_elements(causal_set, x)
    max_layer = _check_int(max_layer, "max_layer", 0)
    below, between = _past(causal_set, x)
    return _sum_layers(between, np.asarray(field)[below], max_layer)


def _sum_layers(between: np.ndarray, values: np.ndarray, max_layer: int) -> np.ndarray:
    """Sum ``values`` in index order over layers ``between + 1 <= max_layer``."""
    sums = np.bincount(between, weights=values, minlength=max_layer)
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
    entries = coefficients.coefficient_table(dimension).entries
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
    constants = coefficients.operator_constants(dimension)
    sums = layer_sums(causal_set, x, values, num_layers(dimension))
    return _box(constants, length_scale, values[x], sums)


def _box(constants: coefficients.OperatorConstants, length: float, value: float, sums) -> float:
    """The box formula from the field ``value`` at an element and its layer ``sums``."""
    weighted = _weighted(constants.dimension, sums)
    scale = _length_power(length, 2, constants.dimension)
    return (constants.alpha * value + constants.beta * weighted) / scale


def interval_abundances(causal_set: CausalSet, max_i: int) -> tuple[int, ...]:
    """``N_1 .. N_max_i`` where ``N_i`` counts related pairs with
    closed-interval size ``i + 1``, read off the interval histogram: the
    one :func:`from_relations` handed over, or one sweep on the first
    read of a validated set, kept for later reads."""
    max_i = _check_int(max_i, "max_i", 1)
    if causal_set._histogram is None:  # validated, not yet read: one sweep, kept
        histogram = _interval_pass(causal_set.precedes)[1]  # closed: nothing is written
        histogram.setflags(write=False)
        object.__setattr__(causal_set, "_histogram", histogram)
    counts = causal_set._histogram[:max_i].tolist()  # N_i counts between == i - 1
    return tuple(counts + [0] * (max_i - len(counts)))


def gravitational_action(causal_set: CausalSet, dimension: int, length_scale: float) -> ActionReport:
    """The gravitational action of the causal set.

    ``S = -alpha * ell**(d-2) * (N + (beta/alpha) * sum_i C_i * N_i)``
    with ``beta/alpha`` floated from the exact rational reciprocal.  The
    overall dimension-independent normalization is fixed to 1.
    """
    _check_length_scale(length_scale)
    dimension = _check_int(dimension, "dimension", 2)  # an int in the report
    constants = coefficients.operator_constants(dimension)
    abundances = interval_abundances(causal_set, num_layers(dimension))
    beta_over_alpha = float(1 / constants.alpha_over_beta_exact)
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
