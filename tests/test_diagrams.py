"""Chord-diagram enumeration, restricted counts, and the verifications.

Counts were frozen against the generating function (independent
module) and, for the restricted classes, against hand-enumerated small
cases.  Where the counting identity genuinely fails (layer index 3 —
see the README's "Known deviations"), these tests pin the actual
behavior; the acceptance suite asserts the identity itself and is
honestly red there.
"""

import itertools

import pytest

from causetbox.diagrams import (
    BLACK,
    BLUE,
    RED,
    Chord,
    ChordDiagram,
    FeasibilityError,
    consecutive_bare_before,
    count_restricted,
    enumerate_diagrams,
    first_end_profile,
    inside_points,
    is_in_restricted_class,
    is_valid_diagram,
    restricted_class_parameters,
    verify_cancellation,
    verify_coefficient_count,
)
from causetbox.genseries import diagram_series


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

    @pytest.mark.parametrize("d,i,count", [(2, 3, 20), (3, 3, 42)])
    def test_identity_fails_at_third_layer(self, d, i, count):
        # Pinned actual behavior: the restricted class is strictly larger
        # than the coefficient magnitude at index 3 (README, "Known
        # deviations"); the acceptance suite asserts the identity itself.
        n, m, gap, place = restricted_class_parameters(d, i)
        assert count_restricted(n, m, gap, place) == count
        assert verify_coefficient_count(d, i) is False

    def test_guard_raises_not_skips(self):
        with pytest.raises(FeasibilityError):
            verify_coefficient_count(4, 4)
        with pytest.raises(FeasibilityError):
            verify_cancellation(4, 4)

    @pytest.mark.parametrize("d,i", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_cancellation_collapses(self, d, i):
        assert verify_cancellation(d, i)

    def test_cancellation_fails_where_identity_fails(self):
        assert verify_cancellation(2, 3) is False
