"""Even-dimension string and path counts.

String counts were frozen by exhaustive enumeration and verified to
equal the layer-coefficient magnitudes; the path counts come from an
independent dynamic program.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from causetbox.coefficients import layer_coefficient, scaled_gamma_ratio
from causetbox.diagrams import RED, Chord, ChordDiagram, FeasibilityError
from causetbox.evenstrings import (
    count_constrained_paths,
    count_constrained_strings,
    enumerate_constrained_strings,
    fiber_sizes,
    odd_point_string,
)


def diagram(points, *chords):
    return ChordDiagram(points=points, chords=tuple(sorted(chords)))


class TestOddPointString:
    def test_single_chord(self):
        assert odd_point_string(diagram(2, Chord(1, 2, RED, 1))) == "1"

    def test_all_bare(self):
        assert odd_point_string(diagram(4)) == "00"

    def test_mixed(self):
        element = diagram(6, Chord(2, 3, RED, 2), Chord(5, 6, RED, 5))
        assert odd_point_string(element) == "011"

    def test_odd_point_count_rejected(self):
        with pytest.raises(ValueError):
            odd_point_string(diagram(3))


class TestFiberSizes:
    def test_one_chord_one_slot(self):
        assert fiber_sizes(1, 1) == {"1": 4}

    def test_chordless(self):
        assert fiber_sizes(0, 4) == {"0000": 1}

    def test_one_chord_two_slots(self):
        assert fiber_sizes(1, 2) == {"10": 4, "01": 4}

    @pytest.mark.parametrize("n,j", [(1, 3), (2, 3), (2, 4)])
    def test_fibers_are_uniform(self, n, j):
        sizes = fiber_sizes(n, j)
        assert all(key.count("1") == n for key in sizes)
        assert all(size == 4**n for size in sizes.values())
        from math import comb

        assert len(sizes) == comb(j, n)

    def test_guard(self):
        with pytest.raises(FeasibilityError):
            fiber_sizes(4, 4)
        with pytest.raises(FeasibilityError):
            fiber_sizes(2, 6)


class TestConstrainedStrings:
    def test_pinned_small_case(self):
        assert sorted(enumerate_constrained_strings(2, 2)) == ["101", "110"]
        assert count_constrained_strings(2, 2) == 2

    @given(st.sampled_from([2, 4, 6, 8, 10]))
    def test_first_index_is_all_ones(self, d):
        assert count_constrained_strings(d, 1) == 1
        assert count_constrained_paths(d, 1) == 1

    def test_four_dimensional_values(self):
        assert count_constrained_strings(4, 3) == 16
        assert count_constrained_paths(4, 2) == 9

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            count_constrained_strings(3, 1)
        with pytest.raises(ValueError):
            count_constrained_paths(3, 1)

    def test_index_range(self):
        with pytest.raises(ValueError):
            count_constrained_strings(2, 4)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_counts_equal_coefficients(self, d):
        for i in range(1, d // 2 + 3):
            strings = count_constrained_strings(d, i)
            assert Fraction(strings) == (-1) ** (i - 1) * layer_coefficient(d, i)
            assert count_constrained_paths(d, i) == strings


class TestUnconstrainedBridge:
    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_binomial_times_fiber_size_is_gamma_ratio(self, d):
        ones = d // 2 + 1
        for k in range(4):
            unconstrained = math.comb((d + 2 + d * k) // 2, ones)
            assert unconstrained * 4**ones == scaled_gamma_ratio(d, k)
