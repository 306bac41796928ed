"""The diagram-level restricted class and cancellation replay, kept as test oracles.

``causetbox.diagrams`` answers ``count_restricted`` and
``verify_cancellation`` from a tally over block words, without building a
diagram.  The functions here answer the same questions the slow way: they
enumerate every diagram with ``enumerate_diagrams``, read each one's
first-end profile and bare runs off its chords, filter it, and replay the
signed insertion multisets diagram by diagram in a ``Counter``.  The
engine must equal them wherever they can run.  Enumerations are cached,
because the same windows recur across the oracles and the tests.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from causetbox.diagrams import (
    BLACK,
    Chord,
    ChordDiagram,
    enumerate_diagrams,
    inside_points,
    restricted_class_parameters,
)

enumerated = functools.cache(enumerate_diagrams)


@dataclass(frozen=True)
class FirstEndProfile:
    """First ends of the red/blue chords in increasing position order,
    with each chord's width (1 + number of black chords inside it)."""

    first_ends: tuple[int, ...]
    widths: tuple[int, ...]


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
        n_black_inside = sum(1 for b in black if {b.low, b.high} <= inside)
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
        for diagram in enumerated(n_chords, n_points)
        if is_in_restricted_class(diagram, gap_bound, place_bound)
    )


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
    return ChordDiagram(points=diagram.points + gap * len(end_list), chords=new_chords)


@functools.cache
def net_multiplicities(dimension: int, index: int) -> Counter[ChordDiagram]:
    """The signed insertion multiset behind the counting identity.

    For each ``k`` in ``0..index-1``, every diagram of the unrestricted
    class at ``k`` extra bare blocks, and every choice of ``index-1-k``
    of its first ``index-1`` formal insertion slots, insert
    ``dimension`` bare points immediately before the chosen first ends,
    weighting by ``(-1)**(index-1-k)``.  Diagrams that net to zero are
    dropped.
    """
    n_chords = restricted_class_parameters(dimension, index)[0]
    signed: Counter[ChordDiagram] = Counter()
    for k in range(index):
        base_points = 2 * (dimension // 2) + 2 + dimension * k
        sign = (-1) ** (index - 1 - k)
        n_insertions = index - 1 - k
        for diagram in enumerated(n_chords, base_points):
            head = _insertion_places(diagram)[: index - 1]
            for chosen in itertools.combinations(range(len(head)), n_insertions):
                ends = [head[slot] for slot in chosen]
                signed[_insert_bare_before(diagram, ends, dimension)] += sign
    return Counter({diagram: mult for diagram, mult in signed.items() if mult != 0})


def verify_cancellation(dimension: int, index: int) -> bool:
    """Whether the signed multiset collapses to exactly the restricted
    class with multiplicity one each."""
    n_chords, target_points, gap_bound, place_bound = restricted_class_parameters(
        dimension, index
    )
    expected = {
        diagram: 1
        for diagram in enumerated(n_chords, target_points)
        if is_in_restricted_class(diagram, gap_bound, place_bound)
    }
    return net_multiplicities(dimension, index) == expected


def cancellation_tally(dimension: int, index: int) -> Counter[tuple[bool, int]]:
    """The target diagrams counted by (in the restricted class, net
    multiplicity)."""
    n_chords, target_points, gap_bound, place_bound = restricted_class_parameters(
        dimension, index
    )
    net = net_multiplicities(dimension, index)
    return Counter(
        (is_in_restricted_class(diagram, gap_bound, place_bound), net[diagram])
        for diagram in enumerated(n_chords, target_points)
    )
