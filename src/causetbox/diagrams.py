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
behind the identity.  Both report honestly: the identity is *false* at
some in-guard parameters (see the README's "Known deviations"), and
the functions return ``False`` there rather than papering over it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .coefficients import _check_dimension, _check_index, scaled_coefficient

__all__ = [
    "BLACK",
    "RED",
    "BLUE",
    "Chord",
    "ChordDiagram",
    "FirstEndProfile",
    "FeasibilityError",
    "inside_points",
    "is_valid_diagram",
    "enumerate_diagrams",
    "consecutive_bare_before",
    "first_end_profile",
    "is_in_restricted_class",
    "count_restricted",
    "count_up_to_color_swap",
    "swap_red_blue",
    "restricted_class_parameters",
    "verify_coefficient_count",
    "verify_cancellation",
    "MAX_CHORDS",
    "MAX_POINTS",
]

BLACK = "black"
RED = "red"
BLUE = "blue"

#: Feasibility guard for the verification drivers.
MAX_CHORDS = 4
MAX_POINTS = 16


class FeasibilityError(Exception):
    """Raised when a requested enumeration exceeds the feasibility guard."""


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


@dataclass(frozen=True)
class FirstEndProfile:
    """First ends of the red/blue chords in increasing position order,
    with each chord's width (1 + number of black chords inside it)."""

    first_ends: tuple[int, ...]
    widths: tuple[int, ...]


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
    if n_chords < 0:
        raise ValueError(f"chord count must be >= 0, got {n_chords}")
    if n_points < 1:
        raise ValueError(f"point count must be >= 1, got {n_points}")
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


def consecutive_bare_before(diagram: ChordDiagram, point: int) -> int:
    """Length of the maximal bare run immediately preceding ``point``.

    The scan walks positions ``point-1, point-2, ...`` and stops at the
    first chord end *or at the root boundary*: runs never wrap past
    point 1 back to point ``m``, so the result is at most ``point - 1``.
    This linear convention is what makes the restricted-class counts
    match the scaled coefficients wherever they match at all.
    """
    if not 1 <= point <= diagram.points:
        raise ValueError(f"point {point} out of range 1..{diagram.points}")
    bare = diagram.bare_points()
    run = 0
    position = point - 1
    while position >= 1 and position in bare:
        run += 1
        position -= 1
    return run


def first_end_profile(diagram: ChordDiagram) -> FirstEndProfile:
    """First ends in increasing position order with their widths.

    Valid diagrams have every black chord inside exactly one red/blue
    chord, so the widths always sum to the total chord count.
    """
    colored = sorted(
        (c for c in diagram.chords if c.color != BLACK), key=lambda c: c.first_end
    )
    black = [c for c in diagram.chords if c.color == BLACK]
    first_ends = []
    widths = []
    for chord in colored:
        inside = inside_points(diagram.points, chord)
        n_black_inside = sum(
            1 for b in black if {b.low, b.high} <= inside
        )
        first_ends.append(chord.first_end)
        widths.append(1 + n_black_inside)
    return FirstEndProfile(first_ends=tuple(first_ends), widths=tuple(widths))


def is_in_restricted_class(
    diagram: ChordDiagram, gap_bound: int, place_bound: int
) -> bool:
    """Whether every constrained first end has a short enough bare run.

    A first end ``e_j`` is constrained when the widths of the earlier
    first ends sum to less than ``place_bound``; each constrained end
    must have fewer than ``gap_bound`` consecutive bare points
    immediately before it (bare runs measured linearly, never wrapping
    past the root — see :func:`consecutive_bare_before`).
    """
    profile = first_end_profile(diagram)
    cumulative_width = 0
    for end, width in zip(profile.first_ends, profile.widths):
        if cumulative_width >= place_bound:
            break
        if consecutive_bare_before(diagram, end) >= gap_bound:
            return False
        cumulative_width += width
    return True


def count_restricted(
    n_chords: int, n_points: int, gap_bound: int, place_bound: int
) -> int:
    """Size of the restricted class, by filtered enumeration."""
    return sum(
        1
        for diagram in enumerate_diagrams(n_chords, n_points)
        if is_in_restricted_class(diagram, gap_bound, place_bound)
    )


def swap_red_blue(diagram: ChordDiagram) -> ChordDiagram:
    """The diagram with every red chord turned blue and vice versa."""
    swapped = tuple(
        sorted(
            Chord(
                c.low,
                c.high,
                {RED: BLUE, BLUE: RED}.get(c.color, c.color),
                c.first_end,
            )
            for c in diagram.chords
        )
    )
    return ChordDiagram(points=diagram.points, chords=swapped)


def count_up_to_color_swap(
    n_chords: int, n_points: int, gap_bound: int, place_bound: int
) -> int:
    """Restricted-class size counting red/blue-swapped pairs once.

    For any diagram with at least one chord the swap has no fixed
    points (some chord is red or blue and changes), so this halves
    :func:`count_restricted`; the chordless diagram is its own swap and
    counts once.
    """
    orbit_representatives = {
        min(diagram, swap_red_blue(diagram))
        for diagram in enumerate_diagrams(n_chords, n_points)
        if is_in_restricted_class(diagram, gap_bound, place_bound)
    }
    return len(orbit_representatives)


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


def _check_feasible(n_chords: int, n_points: int) -> None:
    if n_chords > MAX_CHORDS or n_points > MAX_POINTS:
        raise FeasibilityError(
            f"enumeration too large: {n_chords} chords on {n_points} points "
            f"(guard: <= {MAX_CHORDS} chords, <= {MAX_POINTS} points)"
        )


def verify_coefficient_count(dimension: int, index: int) -> bool:
    """Check scaled coefficient == signed restricted-class count.

    Compares ``scaled_coefficient(dimension, index)`` with
    ``(-1)**(index-1)`` times the restricted count at
    :func:`restricted_class_parameters`.  Raises
    :class:`FeasibilityError` beyond the enumeration guard instead of
    skipping.  The equality genuinely fails for ``index == 3`` at
    dimensions 2, 3 and 4 (counts 20/42/1112 against coefficient
    magnitudes 16/36/1024), and this function returns ``False`` there.
    """
    n_chords, n_points, gap_bound, place_bound = restricted_class_parameters(
        dimension, index
    )
    _check_feasible(n_chords, n_points)
    expected = scaled_coefficient(dimension, index)
    count = count_restricted(n_chords, n_points, gap_bound, place_bound)
    return expected == (-1) ** (index - 1) * count


def _insertion_places(diagram: ChordDiagram) -> tuple[int, ...]:
    """Formal insertion slots, one first-end position per unit of width,
    ordered by (first-end position, slot index)."""
    profile = first_end_profile(diagram)
    places: list[int] = []
    for end, width in zip(profile.first_ends, profile.widths):
        places.extend([end] * width)
    return tuple(places)


def _insert_bare_before(
    diagram: ChordDiagram, ends: Iterable[int], gap: int
) -> ChordDiagram:
    """Insert ``gap`` bare points immediately before each position in
    ``ends`` (a multiset), shifting everything at or after an insertion
    point upward as in word insertion."""
    end_list = sorted(ends)

    def shifted(position: int) -> int:
        bump = sum(gap for e in end_list if e <= position)
        return position + bump

    new_chords = tuple(
        sorted(
            Chord(
                shifted(c.low),
                shifted(c.high),
                c.color,
                None if c.first_end is None else shifted(c.first_end),
            )
            for c in diagram.chords
        )
    )
    return ChordDiagram(
        points=diagram.points + gap * len(end_list), chords=new_chords
    )


def verify_cancellation(dimension: int, index: int) -> bool:
    """Replay the signed insertion multisets behind the counting identity.

    For each ``k`` in ``0..index-1``, every diagram of the unrestricted
    class at ``k`` extra bare blocks, and every choice of
    ``index-1-k`` of its first ``index-1`` formal insertion slots,
    insert ``dimension`` bare points immediately before the chosen
    first ends, weighting by ``(-1)**(index-1-k)``.  Returns ``True``
    iff the signed multiset collapses to exactly the restricted class
    with multiplicity one each.  Like the count check, this genuinely
    fails at ``(2, 3)``-style parameters where some excluded diagrams
    net a nonzero signed multiplicity; it returns ``False`` there.
    """
    n_chords, target_points, gap_bound, place_bound = restricted_class_parameters(
        dimension, index
    )
    _check_feasible(n_chords, target_points)
    signed: Counter[ChordDiagram] = Counter()
    for k in range(index):
        base_points = 2 * (dimension // 2) + 2 + dimension * k
        sign = (-1) ** (index - 1 - k)
        n_insertions = index - 1 - k
        for diagram in enumerate_diagrams(n_chords, base_points):
            head = _insertion_places(diagram)[: index - 1]
            for chosen in itertools.combinations(range(len(head)), n_insertions):
                ends = [head[slot] for slot in chosen]
                signed[_insert_bare_before(diagram, ends, dimension)] += sign
    net = {diagram: mult for diagram, mult in signed.items() if mult != 0}
    expected = {
        diagram: 1
        for diagram in enumerate_diagrams(n_chords, target_points)
        if is_in_restricted_class(diagram, gap_bound, place_bound)
    }
    return net == expected
