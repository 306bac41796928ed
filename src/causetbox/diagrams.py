"""Colored noncrossing partial chord diagrams and their constrained counts.

The objects here are set partitions of ``{1..m}`` into singletons
("bare" points) and pairs (chords) drawn on a circle with point 1 as
the root, where

* no two chords cross (``a < c < b < d`` interleavings are forbidden),
* every chord is black, red, or blue,
* each red/blue chord designates one endpoint as its *first end*; its
  *inside* is the cyclic interval after the first end and before the
  other end,
* the inside of every red/blue chord consists entirely of points
  covered by black chords, and
* every black chord lies inside some red/blue chord.

Counting these diagrams, restricted by a bound on the bare runs that
may precede the leading first ends, is what ties them to the scaled
d'Alembertian layer coefficients; :func:`verify_coefficient_count`
checks that count against :func:`causetbox.coefficients.scaled_coefficient`
and :func:`verify_cancellation` replays the signed insertion multisets
behind the identity.  Both report honestly: the identity is *false*
from layer index 3 on (see the README's "Known deviations"), and the
functions return ``False`` there rather than papering over it.

A valid diagram is a word of bare points and blocks: a low block is a
red/blue chord with its first end at the low endpoint around a black
noncrossing matching, and a word may sit inside one wrap block, whose
first end is its high endpoint and whose black matching lies on the arc
outside it.  A diagram here is the sorted tuple of its chords, each a
``(low, high, color, first_end)`` tuple; :func:`enumerate_diagrams`
lists these tuples, with work proportional to the diagrams, guarded to
small sizes.  The counts and the replay build no diagram: the class and
the replay depend only on the word's profile, and a transfer-matrix
tally over the word (Stanley, *Enumerative Combinatorics* I, §4.7)
counts the diagrams by profile class.
``tests/diagram_oracle.py`` keeps the diagram objects, the conditions
above as a check on any chord list, the brute-force enumeration, and the
diagram-by-diagram filter and replay, that the generator and the tally
must equal.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Iterator

from .coefficients import (
    FeasibilityError,
    _check_int,
    catalan_number,
    num_layers,
    scaled_coefficient,
)
from .genseries import MAX_SERIES_CELLS, diagram_series

__all__ = [
    "BLACK",
    "RED",
    "BLUE",
    "enumerate_diagrams",
    "count_diagrams",
    "count_restricted",
    "restricted_class_parameters",
    "verify_coefficient_count",
    "verify_cancellation",
    "verify_layer",
    "MAX_CHORDS",
    "MAX_POINTS",
    "MAX_SERIES_CELLS",
    "MAX_TALLY_SIZE",
]

BLACK = "black"
RED = "red"
BLUE = "blue"

#: Feasibility guard for building diagrams one by one.
MAX_CHORDS = 4
MAX_POINTS = 16
#: Feasibility guard for the restricted-class tally, on the product
#: (points + 1)(chords + 1)(place + 1)(gap * place + 1) that bounds its
#: states; see :func:`_tally_size`.
MAX_TALLY_SIZE = 1_000_000


def _check_sizes(n_chords: int, n_points: int) -> tuple[int, int]:
    n_chords = _check_int(n_chords, "chord count", 0)
    return n_chords, _check_int(n_points, "point count", 1)


def _noncrossing_matchings(
    points: tuple[int, ...],
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All noncrossing perfect matchings of an even, ascending point tuple."""
    if not points:
        yield ()
        return
    first = points[0]
    for split in range(1, len(points), 2):
        partner = points[split]
        inner = points[1:split]
        outer = points[split + 1 :]
        for inner_match in _noncrossing_matchings(inner):
            for outer_match in _noncrossing_matchings(outer):
                yield ((first, partner),) + inner_match + outer_match


def _words(start: int, stop: int, n_chords: int) -> Iterator[list[tuple]]:
    """Words of bare points and low blocks on points ``start..stop-1``
    holding ``n_chords`` chords: lists of black ``(low, high)`` and
    red/blue ``(low, high, first_end)`` chords."""
    if stop - start > 2 * n_chords:
        yield from _words(start + 1, stop, n_chords)  # a bare point at start
    elif not n_chords:
        yield []
    for width in range(1, min(n_chords, (stop - start) // 2) + 1):
        high = start + 2 * width - 1
        for inner in _noncrossing_matchings(tuple(range(start + 1, high))):
            for rest in _words(high + 1, stop, n_chords - width):
                yield [(start, high, start), *inner, *rest]


def _shapes(n_chords: int, n_points: int) -> Iterator[list[tuple]]:
    """Valid diagrams before red/blue coloring: a word on all the points,
    or one wrap block (first end at its high endpoint, a black matching
    on the arc outside it, which the root cuts at one of ``2(w-1) + 1``
    places) around a word on its span."""
    yield from _words(1, n_points + 1, n_chords)
    for width in range(1, min(n_chords, n_points // 2) + 1):
        outer = 2 * (width - 1)
        for low in range(1, outer + 2):
            high = n_points - outer + low - 1
            arc = (*range(1, low), *range(high + 1, n_points + 1))
            for outside in _noncrossing_matchings(arc):
                for word in _words(low + 1, high, n_chords - width):
                    yield [(low, high, high), *outside, *word]


def enumerate_diagrams(n_chords: int, n_points: int) -> list[tuple]:
    """All valid diagrams with ``n_chords`` chords on ``n_points`` points,
    each the sorted tuple of its ``(low, high, color, first_end)`` chords
    (``first_end`` is ``None`` exactly for black), in sorted order: the
    block words of :func:`_shapes` expanded over the red/blue colorings of
    their blocks.  The length equals the generating-function coefficient
    at ``x**n_chords * y**n_points``, and ``n_points < 2 * n_chords``
    gives ``[]``.  Sizes beyond the guard (``MAX_CHORDS`` chords,
    ``MAX_POINTS`` points) raise :class:`FeasibilityError` rather than
    running unbounded.
    """
    n_chords, n_points = _check_sizes(n_chords, n_points)
    if n_chords > MAX_CHORDS or n_points > MAX_POINTS:
        raise FeasibilityError(
            f"enumeration too large: {n_chords} chords on {n_points} points "
            f"(guard: <= {MAX_CHORDS} chords, <= {MAX_POINTS} points)"
        )
    keys = []
    for shape in _shapes(n_chords, n_points):
        shape.sort()  # by low endpoint, which no two chords share
        keys += itertools.product(*(
            ((low, high, RED, *first), (low, high, BLUE, *first)) if first
            else ((low, high, BLACK, None),)
            for low, high, *first in shape
        ))
    keys.sort()
    return keys


def count_diagrams(n_chords: int, n_points: int) -> int:
    """``len(enumerate_diagrams(n_chords, n_points))`` without building a
    diagram: the coefficient of :func:`~causetbox.genseries.diagram_series`.
    Windows of more than ``MAX_SERIES_CELLS`` cells raise
    :class:`FeasibilityError`."""
    n_chords, n_points = _check_sizes(n_chords, n_points)
    return diagram_series(n_chords, n_points).coefficient(n_chords, n_points)


def _low_blocks(width: int) -> int:
    """Low blocks of a width: a red/blue chord with its first end at the
    low endpoint around a noncrossing black matching of ``2(width-1)``
    points."""
    return 2 * catalan_number(width - 1)


def _wrap_blocks(width: int) -> int:
    """Wrap blocks of a width: as a low block, with the first end at the
    high endpoint and the black matching on the arc outside the chord,
    which the root can cut in ``2(width-1) + 1`` places."""
    return _low_blocks(width) * (2 * width - 1)


def _block_factor(run: int, slots: int, gap_bound: int) -> tuple[bool, int]:
    """One first end's part in the class test and in the net multiplicity.

    ``slots`` is how many of the end's width units fall among the first
    ``place_bound`` insertion slots, and ``run`` the bare run before it.
    An end with no slot is unconstrained.  A constrained end is in the
    class when ``run < gap_bound``; the replay can have inserted ``j``
    blocks of ``gap_bound`` points before it for every ``j`` up to
    ``min(slots, run // gap_bound)``, in ``binom(slots, j)`` ways and
    with sign ``(-1)**j``.  That partial alternating sum of binomials is
    ``(-1)**top * binom(slots - 1, top)`` for ``slots >= 1``.
    """
    if not slots:
        return True, 1
    top = min(slots, run // gap_bound)
    return run < gap_bound, (-1) ** top * math.comb(slots - 1, top)


def _tally_size(n_chords: int, n_points: int, gap_bound: int, place_bound: int) -> int:
    """The bound on the tally's work: points x chords x widths x runs."""
    return (n_points + 1) * (n_chords + 1) * (place_bound + 1) * (gap_bound * place_bound + 1)


def _tally(
    n_chords: int, n_points: int, gap_bound: int, place_bound: int
) -> dict[tuple[bool, int], int]:
    """Valid diagrams counted by (in the restricted class, net multiplicity).

    The net multiplicity is what :func:`verify_cancellation`'s replay,
    inserting ``gap_bound`` bare points per chosen slot, gives the
    diagram.  A valid diagram is a word of bare points and low blocks,
    or one wrap block whose inside is the arc outside its chord and
    whose span holds such a word.  Both the class and the multiplicity
    depend only on the profile: the bare run before each first end (a
    wrap block's first end is its high endpoint, so it comes last) and
    the widths before it.  The word is built left to right, one layer
    per point count, with the state (chords, cumulative width capped at
    ``place_bound``, current bare run, class so far, multiplicity so
    far).  Runs are capped at ``gap_bound * place_bound``, past which no
    factor changes, and dropped once the width reaches ``place_bound``.
    """
    n_chords, n_points = _check_sizes(n_chords, n_points)
    gap_bound = _check_int(gap_bound, "gap bound", 1)
    place_bound = _check_int(place_bound, "place bound", 0)
    size = _tally_size(n_chords, n_points, gap_bound, place_bound)
    if size > MAX_TALLY_SIZE:
        raise FeasibilityError(
            f"restricted-class tally too large: {n_chords} chords on {n_points} "
            f"points, gap {gap_bound}, place {place_bound} give size {size} "
            f"(guard: <= {MAX_TALLY_SIZE})"
        )
    if n_points < 2 * n_chords:
        return {}
    run_cap = gap_bound * place_bound
    tally: dict[tuple[bool, int], int] = defaultdict(int)
    layers = [defaultdict(int) for _ in range(n_points + 1)]
    layers[0][(0, 0, 0, True, 1)] = 1
    for points, layer in enumerate(layers):
        left = n_points - points
        for (chords, width, run, in_class, net), count in layer.items():
            free = n_chords - chords
            open_slots = place_bound - width
            if left == 2 * free:
                if free:  # a wrap block of the remaining width closes the word
                    fits, factor = _block_factor(run, min(free, open_slots), gap_bound)
                    tally[(in_class and fits, net * factor)] += count * _wrap_blocks(free)
                else:  # the word is the whole diagram
                    tally[(in_class, net)] += count
            if left > 2 * free:
                longer = min(run + 1, run_cap) if open_slots else 0
                layers[points + 1][(chords, width, longer, in_class, net)] += count
            for block in range(1, free + 1):
                fits, factor = _block_factor(run, min(block, open_slots), gap_bound)
                state = (
                    chords + block,
                    min(width + block, place_bound),
                    0,
                    in_class and fits,
                    net * factor,
                )
                layers[points + 2 * block][state] += count * _low_blocks(block)
    return dict(tally)


def restricted_class_parameters(dimension: int, index: int) -> tuple[int, int, int, int]:
    """The ``(n_chords, n_points, gap_bound, place_bound)`` tuple whose
    restricted count the scaled coefficient at ``(dimension, index)``
    is compared against."""
    dimension = _check_int(dimension, "dimension", 2)
    index = _check_int(index, "layer index", 1, num_layers(dimension))
    half = dimension // 2
    n_chords = half + 1
    n_points = 2 * half + 2 + dimension * (index - 1)
    return n_chords, n_points, dimension, index - 1


def count_restricted(
    n_chords: int, n_points: int, gap_bound: int, place_bound: int
) -> int:
    """Size of the restricted class: the valid diagrams in which every
    first end whose earlier widths sum to less than ``place_bound`` has
    fewer than ``gap_bound`` bare points right before it (runs are
    linear and stop at the root).  Counted by :func:`_tally`; sizes over
    ``MAX_TALLY_SIZE`` raise :class:`FeasibilityError`."""
    return _in_class(_tally(n_chords, n_points, gap_bound, place_bound))


def _in_class(tally: dict[tuple[bool, int], int]) -> int:
    """The number of diagrams the tally puts in the restricted class."""
    return sum(count for (in_class, _), count in tally.items() if in_class)


def verify_layer(dimension: int, index: int) -> tuple[bool, bool]:
    """``(verify_coefficient_count, verify_cancellation)`` at
    ``(dimension, index)``, both read off one tally."""
    n_chords, n_points, gap_bound, place_bound = restricted_class_parameters(dimension, index)
    tally = _tally(n_chords, n_points, gap_bound, place_bound)  # place_bound is index - 1
    count_ok = scaled_coefficient(dimension, index) == (-1) ** place_bound * _in_class(tally)
    return count_ok, all(net == in_class for in_class, net in tally)


def verify_coefficient_count(dimension: int, index: int) -> bool:
    """Check scaled coefficient == signed restricted-class count.

    Compares ``scaled_coefficient(dimension, index)`` with
    ``(-1)**(index-1)`` times the restricted count at
    :func:`restricted_class_parameters`.  Raises
    :class:`FeasibilityError` beyond the tally's guard instead of
    skipping.  The equality genuinely fails for ``index == 3`` (counts
    20/42/1112 against coefficient magnitudes 16/36/1024 in dimensions
    2, 3 and 4), and this function returns ``False`` there.
    """
    return verify_layer(dimension, index)[0]


def verify_cancellation(dimension: int, index: int) -> bool:
    """Replay the signed insertion multisets behind the counting identity.

    For each ``k`` in ``0..index-1``, every diagram of the unrestricted
    class at ``k`` extra bare blocks, and every choice of ``index-1-k``
    of its first ``index-1`` formal insertion slots, insert
    ``dimension`` bare points immediately before the chosen first ends,
    weighting by ``(-1)**(index-1-k)``.  Returns ``True`` iff the signed
    multiset collapses to exactly the restricted class with
    multiplicity one each.  A diagram's net multiplicity is a product of
    signed binomials over its first ends (:func:`_block_factor`), so
    the replay is the tally's check that every diagram's multiplicity is
    1 in the class and 0 outside it.  Like the count check, this
    genuinely fails at ``(2, 3)``-style parameters, where some excluded
    diagrams net a nonzero signed multiplicity; it returns ``False``
    there.
    """
    return verify_layer(dimension, index)[1]
