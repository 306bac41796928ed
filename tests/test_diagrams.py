"""Chord-diagram enumeration, restricted counts, and the verifications.

Counts were frozen against the generating function (independent
module) and, for the restricted classes, against hand-enumerated small
cases.  The restricted count and the cancellation replay come from a
tally that builds no diagram; ``diagram_oracle`` holds the
diagram-by-diagram filter and replay it must equal.  Where the counting
identity genuinely fails (layer index 3 — see the README's "Known
deviations"), these tests pin the actual behavior; the acceptance suite
asserts the identity itself and is honestly red there.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagram_oracle as oracle
from causetbox.coefficients import scaled_coefficient
from causetbox.diagrams import (
    BLACK,
    BLUE,
    MAX_CHORDS,
    MAX_POINTS,
    MAX_SERIES_CELLS,
    MAX_TALLY_SIZE,
    RED,
    Chord,
    ChordDiagram,
    FeasibilityError,
    _tally,
    _tally_size,
    count_diagrams,
    count_restricted,
    enumerate_diagrams,
    inside_points,
    is_valid_diagram,
    restricted_class_parameters,
    verify_cancellation,
    verify_coefficient_count,
    verify_layer,
)
from causetbox.genseries import diagram_series
from diagram_oracle import (
    consecutive_bare_before,
    first_end_profile,
    is_in_restricted_class,
)


def diagram(points, *chords):
    return ChordDiagram(points=points, chords=tuple(sorted(chords)))


class TestValidity:
    def test_single_red_chord_is_valid(self):
        assert is_valid_diagram(diagram(2, Chord(1, 2, RED, 1)))

    def test_single_black_chord_is_invalid(self):
        assert not is_valid_diagram(diagram(2, Chord(1, 2, BLACK)))

    def test_black_inside_red_is_valid(self):
        assert is_valid_diagram(
            diagram(4, Chord(1, 4, RED, 1), Chord(2, 3, BLACK))
        )

    def test_bare_point_inside_is_invalid(self):
        assert not is_valid_diagram(diagram(3, Chord(1, 3, RED, 1)))

    def test_crossing_is_invalid(self):
        assert not is_valid_diagram(
            diagram(
                6,
                Chord(1, 4, RED, 1),
                Chord(2, 5, BLUE, 2),
                Chord(3, 6, BLACK),
            )
        )

    def test_wrapping_inside(self):
        # first end at the high endpoint: the inside wraps around the root
        chord = Chord(2, 5, RED, 5)
        assert inside_points(6, chord) == {6, 1}
        assert is_valid_diagram(diagram(6, chord, Chord(1, 6, BLACK)))

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            is_valid_diagram(diagram(4, Chord(1, 2, RED, 1), Chord(2, 3, BLACK)))
        with pytest.raises(ValueError):
            is_valid_diagram(diagram(2, Chord(1, 2, RED, 3)))
        with pytest.raises(ValueError):
            is_valid_diagram(diagram(2, Chord(1, 2, "green", 1)))
        with pytest.raises(ValueError):
            is_valid_diagram(diagram(2, Chord(1, 2, BLACK, 1)))


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,m,count",
        [
            (1, 2, 4),
            (1, 3, 6),
            (0, 1, 1),
            (0, 9, 1),
            (2, 4, 16),
            (2, 5, 30),
            (2, 6, 48),
            (2, 7, 70),
            (3, 6, 64),
            (3, 7, 140),
        ],
    )
    def test_frozen_counts(self, n, m, count):
        assert len(enumerate_diagrams(n, m)) == count

    def test_too_few_points_is_empty(self):
        assert enumerate_diagrams(2, 3) == []

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(-1, 4)
        with pytest.raises(ValueError):
            enumerate_diagrams(0, 0)

    def test_matches_series_quick(self):
        window = diagram_series(3, 10)
        for n in range(4):
            for m in range(1, 11):
                assert len(enumerate_diagrams(n, m)) == window.coefficient(n, m), (
                    n,
                    m,
                )

    def test_all_enumerated_are_valid_unique_sorted(self):
        elements = enumerate_diagrams(2, 6)
        assert len(set(elements)) == len(elements)
        assert elements == sorted(elements)
        assert all(is_valid_diagram(e) for e in elements)

    def test_no_colored_chord_inside_another(self):
        for element in enumerate_diagrams(3, 8):
            colored = [c for c in element.chords if c.color != BLACK]
            for a, b in itertools.permutations(colored, 2):
                assert not {a.low, a.high} <= inside_points(element.points, b)

    def test_first_end_redundancy(self):
        # Strip first ends; each colored structure must admit exactly one
        # valid reassignment, except the one-chord-two-point family which
        # admits two.
        for n, m in [(1, 2), (1, 3), (2, 4), (2, 6), (2, 7)]:
            groups = {}
            for element in enumerate_diagrams(n, m):
                key = tuple(
                    (c.low, c.high, c.color) for c in element.chords
                )
                groups[key] = groups.get(key, 0) + 1
            expected = 2 if (n, m) == (1, 2) else 1
            assert set(groups.values()) == {expected}, (n, m, groups)


class TestBareRuns:
    def test_run_before_chord_end(self):
        element = diagram(5, Chord(4, 5, RED, 4))
        assert consecutive_bare_before(element, 4) == 3

    def test_no_bare_before(self):
        element = diagram(2, Chord(1, 2, RED, 1))
        assert consecutive_bare_before(element, 1) == 0

    def test_runs_stop_at_the_root_boundary(self):
        # points 5 and 6 are bare, but the scan from point 1 stops at the
        # root: runs are linear, never cyclic.
        element = diagram(6, Chord(1, 4, RED, 1), Chord(2, 3, BLACK))
        assert consecutive_bare_before(element, 1) == 0
        assert consecutive_bare_before(element, 6) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            consecutive_bare_before(diagram(2, Chord(1, 2, RED, 1)), 3)


class TestProfilesAndRestriction:
    def test_profile_widths_sum_to_chord_count(self):
        for n, m in [(1, 3), (2, 6), (3, 8)]:
            for element in enumerate_diagrams(n, m):
                profile = first_end_profile(element)
                assert sum(profile.widths) == n
                assert profile.first_ends == tuple(sorted(profile.first_ends))

    def test_place_bound_zero_is_vacuous(self):
        for element in enumerate_diagrams(2, 6):
            assert is_in_restricted_class(element, 1, 0)

    def test_gap_bound_one_excludes_any_bare_run(self):
        element = diagram(3, Chord(2, 3, RED, 2))
        assert not is_in_restricted_class(element, 1, 1)
        assert is_in_restricted_class(element, 2, 1)

    def test_restricted_count_frozen(self):
        assert count_restricted(2, 4, 2, 0) == 16
        assert count_restricted(2, 6, 2, 1) == 32
        assert count_restricted(2, 7, 3, 1) == 54
        assert count_restricted(3, 10, 4, 1) == 576

    def test_restricted_count_where_identity_fails(self):
        # The class size is 20 here, while the scaled coefficient the
        # counting identity predicts has magnitude 16; see README
        # "Known deviations".
        assert count_restricted(2, 8, 2, 2) == 20
        assert count_restricted(2, 10, 3, 2) == 42


class TestVerifications:
    def test_parameters(self):
        assert restricted_class_parameters(2, 2) == (2, 6, 2, 1)
        assert restricted_class_parameters(3, 2) == (2, 7, 3, 1)
        assert restricted_class_parameters(4, 3) == (3, 14, 4, 2)

    @pytest.mark.parametrize(
        "d,i", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    )
    def test_identity_holds_through_second_layer(self, d, i):
        assert verify_coefficient_count(d, i)
        assert verify_layer(d, i) == (True, verify_cancellation(d, i))

    @pytest.mark.parametrize(
        "d,i,count",
        [
            (2, 3, 20),
            (3, 3, 42),
            (4, 3, 1112),
            (4, 4, 656),  # 18 points: over the enumeration guard, not the tally's
            (5, 3, 1920),
            (6, 4, 54900),
            (7, 5, 47698),
            (8, 6, 1351392),
        ],
    )
    def test_identity_fails_at_third_layer(self, d, i, count):
        # Pinned actual behavior: from index 3 on, the restricted class is
        # strictly larger than the coefficient magnitude and the replay
        # leaves off-class diagrams (README, "Known deviations"); the
        # acceptance suite asserts the identity itself.
        n, m, gap, place = restricted_class_parameters(d, i)
        assert count_restricted(n, m, gap, place) == count
        assert count > abs(scaled_coefficient(d, i))
        assert verify_coefficient_count(d, i) is False
        assert verify_cancellation(d, i) is False
        assert verify_layer(d, i) == (False, False)

    def test_guard_raises_not_skips(self):
        # (14, 9) is the first top layer over the tally's guard.
        assert _tally_size(*restricted_class_parameters(14, 9)) > MAX_TALLY_SIZE
        with pytest.raises(FeasibilityError):
            verify_coefficient_count(14, 9)
        with pytest.raises(FeasibilityError):
            verify_cancellation(14, 9)
        with pytest.raises(FeasibilityError):
            verify_layer(14, 9)

    @pytest.mark.parametrize("d,i", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_cancellation_collapses(self, d, i):
        assert verify_cancellation(d, i)

    def test_cancellation_fails_where_identity_fails(self):
        assert verify_cancellation(2, 3) is False


def in_guard_windows():
    """Every (n, m) window inside the enumeration guard except the four
    largest, 4 chords on 13 to 16 points (6006 to 17920 diagrams, which
    the oracle builds one by one); the cancellation cells below reach 14
    and 15 of them."""
    return [
        (n, m)
        for n in range(MAX_CHORDS + 1)
        for m in range(1, MAX_POINTS + 1)
        if n < 4 or m <= 12
    ]


# Every (d, i) whose replay stays inside the enumeration guard.
IN_GUARD_CELLS = [
    (d, i)
    for d in range(2, 8)
    for i in range(1, d // 2 + 3)
    if restricted_class_parameters(d, i)[0] <= MAX_CHORDS
    and restricted_class_parameters(d, i)[1] <= MAX_POINTS
]


class TestEngineMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.sampled_from(in_guard_windows()),
        gap=st.integers(1, 6),
        place=st.integers(0, 5),
    )
    def test_count_restricted(self, window, gap, place):
        n, m = window
        assert count_restricted(n, m, gap, place) == oracle.count_restricted(
            n, m, gap, place
        )

    def test_in_guard_cells(self):
        assert len(IN_GUARD_CELLS) == 16
        assert (7, 2) in IN_GUARD_CELLS and (4, 4) not in IN_GUARD_CELLS

    @pytest.mark.parametrize("d,i", IN_GUARD_CELLS)
    def test_cancellation_cells(self, d, i):
        n, m, gap, place = restricted_class_parameters(d, i)
        tally = _tally(n, m, gap, place)
        assert tally == oracle.cancellation_tally(d, i)
        assert verify_cancellation(d, i) == oracle.verify_cancellation(d, i)
        assert count_restricted(n, m, gap, place) == oracle.count_restricted(
            n, m, gap, place
        )

    def test_tally_counts_every_diagram(self):
        window = diagram_series(5, 20)
        for n in range(6):
            for m in range(1, 21):
                total = sum(_tally(n, m, 3, 2).values())
                assert total == window.coefficient(n, m), (n, m)

    def test_tally_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            count_restricted(2, 6, 0, 1)
        with pytest.raises(ValueError):
            count_restricted(2, 6, 2, -1)
        with pytest.raises(ValueError):
            count_restricted(-1, 6, 2, 1)
        with pytest.raises(ValueError):
            count_restricted(2, 0, 2, 1)
        assert count_restricted(3, 5, 2, 1) == 0


class TestCountDiagrams:
    def test_equals_enumeration(self):
        for n, m in [(0, 1), (1, 2), (2, 3), (2, 7), (3, 10), (4, 12)]:
            assert count_diagrams(n, m) == len(oracle.enumerated(n, m)), (n, m)

    def test_beyond_the_enumeration_guard_in_milliseconds(self):
        start = time.perf_counter()
        assert count_diagrams(4, 16) == 17920
        assert count_diagrams(5, 17) == diagram_series(5, 17).coefficient(5, 17)
        assert time.perf_counter() - start < 1.0

    def test_guard_and_bad_arguments(self):
        with pytest.raises(FeasibilityError):
            count_diagrams(MAX_SERIES_CELLS, 1)
        with pytest.raises(ValueError):
            count_diagrams(-1, 4)
        with pytest.raises(ValueError):
            count_diagrams(0, 0)
