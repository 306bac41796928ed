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

:func:`enumerate_diagrams` builds every diagram and is guarded to small
sizes.  The counts and the replay build none: a valid diagram is a word
of bare points and blocks (see :func:`_tally`), the class and the
replay depend only on the word's profile, and a transfer-matrix tally
over the word (Stanley, *Enumerative Combinatorics* I, §4.7) counts the
diagrams by profile class.  ``tests/diagram_oracle.py`` keeps the
diagram-by-diagram filter and replay that the tally must equal.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .coefficients import (
    FeasibilityError,
    _check_dimension,
    _check_index,
    catalan_number,
    scaled_coefficient,
)
from .genseries import diagram_series

__all__ = [
    "BLACK",
    "RED",
    "BLUE",
    "Chord",
    "ChordDiagram",
    "FeasibilityError",
    "inside_points",
    "is_valid_diagram",
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
#: Feasibility guard for counting from the generating series: the cells
#: (chords + 1)(points + 1) of its truncation window.
MAX_SERIES_CELLS = 250_000
#: Feasibility guard for the restricted-class tally, on the product
#: (points + 1)(chords + 1)(place + 1)(gap * place + 1) that bounds its
#: states; see :func:`_tally_size`.
MAX_TALLY_SIZE = 1_000_000


@dataclass(frozen=True, order=True)
class Chord:
    """One chord: endpoints ``low < high``, a color, and for red/blue
    chords the designated first end (``None`` exactly for black)."""

    low: int
    high: int
    color: str
    first_end: int | None = None


@dataclass(frozen=True, order=True)
class ChordDiagram:
    """A colored partial chord diagram on points ``1..points``.

    ``chords`` is kept sorted by endpoints so equal diagrams compare
    and hash equal.
    """

    points: int
    chords: tuple[Chord, ...]

    def bare_points(self) -> frozenset[int]:
        covered = {p for chord in self.chords for p in (chord.low, chord.high)}
        return frozenset(range(1, self.points + 1)) - covered


def _check_well_formed(diagram: ChordDiagram) -> None:
    seen: set[int] = set()
    for chord in diagram.chords:
        if not (1 <= chord.low < chord.high <= diagram.points):
            raise ValueError(f"chord endpoints out of range: {chord}")
        if chord.low in seen or chord.high in seen:
            raise ValueError(f"chord endpoints must be pairwise distinct: {chord}")
        seen.update((chord.low, chord.high))
        if chord.color == BLACK:
            if chord.first_end is not None:
                raise ValueError(f"black chords carry no first end: {chord}")
        elif chord.color in (RED, BLUE):
            if chord.first_end not in (chord.low, chord.high):
                raise ValueError(f"first end must be one of the endpoints: {chord}")
        else:
            raise ValueError(f"unknown color: {chord.color!r}")


def inside_points(total_points: int, chord: Chord) -> frozenset[int]:
    """The points cyclically after the chord's first end and before its
    other end (both exclusive)."""
    if chord.first_end is None:
        raise ValueError("black chords have no designated inside")
    other = chord.high if chord.first_end == chord.low else chord.low
    points = []
    position = chord.first_end % total_points + 1
    while position != other:
        points.append(position)
        position = position % total_points + 1
    return frozenset(points)


def _crossing(a: Chord, b: Chord) -> bool:
    return (a.low < b.low < a.high < b.high) or (b.low < a.low < b.high < a.high)


def is_valid_diagram(diagram: ChordDiagram) -> bool:
    """Whether the diagram satisfies all class conditions.

    Checks, in order: noncrossing; every inside point of a red/blue
    chord is covered by a black chord; every black chord lies inside
    some red/blue chord; no red/blue chord lies inside another.
    Malformed chords (shared endpoints, bad colors or first ends)
    raise ``ValueError`` instead of returning ``False``.
    """
    _check_well_formed(diagram)
    chords = diagram.chords
    for a, b in itertools.combinations(chords, 2):
        if _crossing(a, b):
            return False
    colored = [c for c in chords if c.color != BLACK]
    black = [c for c in chords if c.color == BLACK]
    black_covered = {p for c in black for p in (c.low, c.high)}
    insides = {c: inside_points(diagram.points, c) for c in colored}
    for c in colored:
        if not insides[c] <= black_covered:
            return False
    for b_chord in black:
        if not any({b_chord.low, b_chord.high} <= insides[c] for c in colored):
            return False
    for c, other in itertools.permutations(colored, 2):
        if {c.low, c.high} <= insides[other]:
            return False
    return True


def _check_sizes(n_chords: int, n_points: int) -> None:
    if n_chords < 0:
        raise ValueError(f"chord count must be >= 0, got {n_chords}")
    if n_points < 1:
        raise ValueError(f"point count must be >= 1, got {n_points}")


def _check_feasible(n_chords: int, n_points: int) -> None:
    if n_chords > MAX_CHORDS or n_points > MAX_POINTS:
        raise FeasibilityError(
            f"enumeration too large: {n_chords} chords on {n_points} points "
            f"(guard: <= {MAX_CHORDS} chords, <= {MAX_POINTS} points)"
        )


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


def enumerate_diagrams(n_chords: int, n_points: int) -> list[ChordDiagram]:
    """All valid diagrams with ``n_chords`` chords on ``n_points`` points.

    Walks every noncrossing pairing (support choice x recursive
    matching), then every black/red/blue shape with first ends, using
    bitmask region tests so that only valid shapes are materialized;
    red/blue recolorings are expanded last.  Returns a sorted list;
    its length equals the generating-function coefficient at
    ``x**n_chords * y**n_points``.  ``n_points < 2 * n_chords`` yields
    no diagrams and returns the empty list.  Sizes beyond the guard
    (``MAX_CHORDS`` chords, ``MAX_POINTS`` points) raise
    :class:`FeasibilityError` rather than running unbounded.
    """
    _check_sizes(n_chords, n_points)
    _check_feasible(n_chords, n_points)
    if n_points < 2 * n_chords:
        return []
    if n_chords == 0:
        return [ChordDiagram(points=n_points, chords=())]

    full_mask = (1 << n_points) - 1
    results: list[ChordDiagram] = []
    # Chord states: 0 = black, 1 = red/blue with first end at the low
    # endpoint (inside is the linear span), 2 = first end at the high
    # endpoint (inside wraps around the root).
    states_iter = list(itertools.product(range(3), repeat=n_chords))
    for support in itertools.combinations(range(1, n_points + 1), 2 * n_chords):
        for matching in _noncrossing_matchings(support):
            end_masks = []
            region_masks = []  # per chord: (inside if first end low, if high)
            for low, high in matching:
                ends = (1 << (low - 1)) | (1 << (high - 1))
                span_inside = ((1 << (high - 1)) - 1) & ~((1 << low) - 1)
                wrap_inside = full_mask & ~span_inside & ~ends
                end_masks.append(ends)
                region_masks.append((span_inside, wrap_inside))
            for states in states_iter:
                black_mask = 0
                insides = []
                for chord_index, state in enumerate(states):
                    if state == 0:
                        black_mask |= end_masks[chord_index]
                    else:
                        insides.append(region_masks[chord_index][state - 1])
                if not insides:
                    continue  # with n >= 1 chords, all-black is never valid
                union_inside = 0
                valid = True
                for inside in insides:
                    if inside & ~black_mask:
                        valid = False
                        break
                    union_inside |= inside
                if not valid or black_mask & ~union_inside:
                    continue
                colored_indices = [t for t, s in enumerate(states) if s != 0]
                for colors in itertools.product(
                    (RED, BLUE), repeat=len(colored_indices)
                ):
                    chords = []
                    color_pick = dict(zip(colored_indices, colors))
                    for chord_index, (low, high) in enumerate(matching):
                        state = states[chord_index]
                        if state == 0:
                            chords.append(Chord(low, high, BLACK))
                        else:
                            chords.append(
                                Chord(
                                    low,
                                    high,
                                    color_pick[chord_index],
                                    first_end=low if state == 1 else high,
                                )
                            )
                    results.append(
                        ChordDiagram(points=n_points, chords=tuple(sorted(chords)))
                    )
    results.sort()
    return results


def count_diagrams(n_chords: int, n_points: int) -> int:
    """``len(enumerate_diagrams(n_chords, n_points))`` without building a
    diagram: the coefficient of :func:`~causetbox.genseries.diagram_series`.
    Windows of more than ``MAX_SERIES_CELLS`` cells raise
    :class:`FeasibilityError`."""
    _check_sizes(n_chords, n_points)
    cells = (n_chords + 1) * (n_points + 1)
    if cells > MAX_SERIES_CELLS:
        raise FeasibilityError(
            f"series window too large: {n_chords} chords on {n_points} points "
            f"need {cells} cells (guard: <= {MAX_SERIES_CELLS})"
        )
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
    with sign ``(-1)**j``.
    """
    if not slots:
        return True, 1
    top = min(slots, run // gap_bound)
    return run < gap_bound, sum((-1) ** j * math.comb(slots, j) for j in range(top + 1))


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
    _check_sizes(n_chords, n_points)
    if gap_bound < 1 or place_bound < 0:
        raise ValueError(
            f"need gap bound >= 1 and place bound >= 0, got {gap_bound}, {place_bound}"
        )
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
    _check_dimension(dimension)
    _check_index(dimension, index)
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
    tally = _tally(*restricted_class_parameters(dimension, index))
    count = _in_class(tally)
    count_ok = scaled_coefficient(dimension, index) == (-1) ** (index - 1) * count
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
