"""Even-dimension string and path counts.

String counts were frozen by exhaustive enumeration and verified to
equal the layer-coefficient magnitudes; the closed-form count is checked
against an independent dynamic program and against the generator.  The
generator builds only valid strings; :func:`brute_force_strings` filters
every placement of the ones and is the oracle it must equal, order
included.  The diagram-to-string projection and its fibers are checked
on ``diagram_oracle``'s copy.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from causetbox.coefficients import (
    FeasibilityError,
    layer_coefficient,
    scaled_gamma_ratio,
)
from causetbox import evenstrings
from causetbox.diagrams import RED
from causetbox.evenstrings import (
    MAX_STRING_CANDIDATES,
    count_constrained_paths,
    count_constrained_strings,
    enumerate_constrained_strings,
)
from diagram_oracle import Chord, ChordDiagram, fiber_sizes, odd_point_string


def brute_force_strings(dimension, index):
    """The constrained strings, by trying every placement of the ones in
    ``itertools.combinations`` order."""
    ones = dimension // 2 + 1
    zeros = dimension * (index - 1) // 2
    length = ones + zeros
    max_run = dimension // 2
    for positions in itertools.combinations(range(length), ones):
        previous = -1
        ok = True
        for which, position in enumerate(positions):
            if which < index - 1 and position - previous - 1 >= max_run:
                ok = False
                break
            previous = position
        if ok:
            bits = ["0"] * length
            for position in positions:
                bits[position] = "1"
            yield "".join(bits)


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
        # the enumeration guard bounds it: at most 4 chords and 16 points
        assert fiber_sizes(4, 4) == {"1111": 4**4}
        with pytest.raises(FeasibilityError):
            fiber_sizes(5, 5)
        with pytest.raises(FeasibilityError):
            fiber_sizes(2, 9)


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

    @pytest.mark.parametrize("d", range(2, 41, 2))
    def test_closed_form_equals_the_path_count(self, d):
        for i in range(1, d // 2 + 3):
            assert count_constrained_strings(d, i) == count_constrained_paths(d, i), (d, i)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_counts_equal_coefficients(self, d):
        for i in range(1, d // 2 + 3):
            strings = count_constrained_strings(d, i)
            assert Fraction(strings) == (-1) ** (i - 1) * layer_coefficient(d, i)
            assert count_constrained_paths(d, i) == strings


class TestGeneratorMatchesBruteForce:
    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_equals_brute_force_in_order(self, d):
        for i in range(1, d // 2 + 3):
            generated = list(enumerate_constrained_strings(d, i))
            assert generated == list(brute_force_strings(d, i)), (d, i)
            assert count_constrained_strings(d, i) == len(generated)

    @pytest.mark.parametrize("d", range(2, 15, 2))
    def test_generator_yields_the_closed_form_count(self, d):
        for i in range(1, d // 2 + 3):
            count = count_constrained_strings(d, i)
            if count <= MAX_STRING_CANDIDATES:
                assert sum(1 for _ in enumerate_constrained_strings(d, i)) == count, (d, i)

    def test_guard_is_checked_before_generating(self):
        # the guard reads the closed-form count: (14, 4) has 3,352,139 strings
        with pytest.raises(FeasibilityError, match="3352139 strings"):
            enumerate_constrained_strings(14, 4)

    @pytest.mark.parametrize("d,i", [(1000, 2), (200, 50)])
    def test_guard_refuses_before_the_exact_count(self, d, i, monkeypatch):
        # the closed form refuses the listing; the dynamic program is not run
        def fail(dimension, index):
            raise AssertionError("exact count taken")

        monkeypatch.setattr(evenstrings, "count_constrained_paths", fail)
        count = count_constrained_strings(d, i)
        assert count > MAX_STRING_CANDIDATES
        with pytest.raises(FeasibilityError, match=f": {count} strings for d={d}, i={i} "):
            enumerate_constrained_strings(d, i)

    def test_guard_bounds_the_string_length(self):
        # index 1 has one string of d/2 + 1 ones, and a walk of as many cells
        assert list(enumerate_constrained_strings(3_999_998, 1)) == ["1" * 2_000_000]
        with pytest.raises(FeasibilityError, match="2000001 cells for d=4000000, i=1 "):
            enumerate_constrained_strings(4_000_000, 1)

    @pytest.mark.parametrize(
        "admitted, refused",
        # 2,000,000 cells against 2,000,001; 1000 * 1999 against 1001 * 2001
        [((3_999_998, 1), (4_000_000, 1)), ((1998, 3), (2000, 3))],
    )
    def test_each_side_of_the_cell_bound(self, admitted, refused, monkeypatch):
        assert count_constrained_paths(*admitted) == count_constrained_strings(*admitted)
        monkeypatch.setattr(evenstrings, "_string_count", None)
        monkeypatch.setattr(evenstrings, "accumulate", None)
        for entry in (
            count_constrained_strings, count_constrained_paths, enumerate_constrained_strings
        ):
            with pytest.raises(FeasibilityError, match=f"cells for d={refused[0]}, "):
                entry(*refused)

    @pytest.mark.parametrize("d", [4, 1000])
    def test_second_index_misses_one_placement(self, d):
        # only the string opening with d/2 zeros breaks the one constraint;
        # d = 1000 walks 501 columns, past the default recursion limit
        assert count_constrained_paths(d, 2) == math.comb(d + 1, d // 2 + 1) - 1

    def test_guard_bounds_the_strings_not_the_placements(self):
        # (12, 8) places its 7 ones in 85,900,584 ways but has 279,936 strings
        assert count_constrained_paths(12, 8) == 279_936
        assert count_constrained_strings(12, 8) == 279_936


class TestUnconstrainedBridge:
    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_binomial_times_fiber_size_is_gamma_ratio(self, d):
        ones = d // 2 + 1
        for k in range(4):
            unconstrained = math.comb((d + 2 + d * k) // 2, ones)
            assert unconstrained * 4**ones == scaled_gamma_ratio(d, k)
