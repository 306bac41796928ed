"""Diagram objects, the diagram spec, brute-force enumeration, restricted
class, cancellation replay and string projection, kept as test oracles.

``causetbox.diagrams`` generates the valid diagrams as block words,
lists each as its sorted tuple of ``(low, high, color, first_end)``
chords, and answers ``count_restricted`` and ``verify_cancellation``
from a tally over those words without building a diagram.  Only the
tests build objects: :class:`Chord` and :class:`ChordDiagram` are
defined here, and :func:`diagram_objects` wraps the library's tuples in
them.  The functions here answer the same questions the slow way.
:func:`is_valid_diagram` is the spec itself: it checks the class
conditions listed in ``causetbox.diagrams`` on any chord list, and
refuses a malformed one.
:func:`brute_force_diagrams` walks every support, noncrossing matching
and colour state and keeps the valid ones.  The restricted-class oracles
read each diagram's first-end profile and bare runs off its chords,
filter it, and replay the signed insertion multisets diagram by diagram
in a ``Counter``.  :func:`fiber_sizes` groups enumerated diagrams by
:func:`odd_point_string`, the projection behind the counts in
``causetbox.evenstrings``.  The engines must equal them wherever they
can run.  Enumerations are cached, because the same windows recur across
the oracles and the tests; they wrap the fast generator, which
``test_diagrams`` checks against :func:`brute_force_diagrams`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from causetbox.diagrams import (
    BLACK,
    BLUE,
    RED,
    _noncrossing_matchings,
    enumerate_diagrams,
    restricted_class_parameters,
)


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


def diagram_objects(n_chords: int, n_points: int) -> list[ChordDiagram]:
    """:func:`~causetbox.diagrams.enumerate_diagrams` as objects, in its
    order, with one ``Chord`` per distinct chord tuple."""
    keys = enumerate_diagrams(n_chords, n_points)
    shared = {t: Chord(*t) for t in set(itertools.chain.from_iterable(keys))}
    return [ChordDiagram(n_points, tuple(map(shared.__getitem__, key))) for key in keys]


enumerated = functools.cache(diagram_objects)


def bare_points(diagram: ChordDiagram) -> frozenset[int]:
    """The points no chord covers."""
    covered = {p for chord in diagram.chords for p in (chord.low, chord.high)}
    return frozenset(range(1, diagram.points + 1)) - covered


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


def brute_force_diagrams(n_chords: int, n_points: int) -> list[ChordDiagram]:
    """All valid diagrams, sorted, by filtering every candidate.

    Walks every noncrossing pairing (support choice x recursive
    matching), then every black/red/blue shape with first ends, using
    bitmask region tests so that only valid shapes are materialized;
    red/blue recolorings are expanded last.  No size guard: callers
    keep the window small.
    """
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
    bare = bare_points(diagram)
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


def odd_point_string(diagram: ChordDiagram) -> str:
    """The binary string read off the odd points of an even diagram.

    Entry ``l`` (1-based) is ``'1'`` when point ``2l - 1`` is covered by
    a chord and ``'0'`` when it is bare.
    """
    if diagram.points % 2 != 0:
        raise ValueError(
            f"odd-point string needs an even point count, got {diagram.points}"
        )
    bare = bare_points(diagram)
    half = diagram.points // 2
    return "".join("0" if 2 * l - 1 in bare else "1" for l in range(1, half + 1))


def fiber_sizes(n_chords: int, half_points: int) -> dict[str, int]:
    """Group the diagrams on ``2 * half_points`` points by their string.

    Every key has exactly ``n_chords`` ones, every string of length
    ``half_points`` with that many ones occurs, and every fiber has
    size exactly ``4**n_chords``; those facts are what the fiber
    acceptance check asserts.  Bounded by the guard of
    :func:`~causetbox.diagrams.enumerate_diagrams`.
    """
    sizes: dict[str, int] = {}
    for diagram in diagram_objects(n_chords, 2 * half_points):
        key = odd_point_string(diagram)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes
