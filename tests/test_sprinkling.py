"""Poisson sprinkling, the induced order, and the Monte Carlo estimator."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causetbox.causet import MAX_ARRAY_BYTES, CausalSet, box_operator, from_relations
from causetbox import causet, sprinkling
from causetbox.coefficients import FeasibilityError
from causetbox.sprinkling import (
    ConstantField,
    DiamondConfig,
    MonomialField,
    _check_budget,
    causal_matrix,
    diamond_volume,
    estimate_box,
    field_values,
    parse_field_spec,
    sprinkle,
)


class TestDiamondVolume:
    def test_two_dimensional_closed_form(self):
        assert diamond_volume(2, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert diamond_volume(2, 2.0) == pytest.approx(8.0, rel=1e-12)

    def test_shrinks_to_zero(self):
        assert diamond_volume(3, 0.0) == 0.0

    @pytest.mark.parametrize(
        "d, half_height", [(400, 1.0), (2000, 1.0), (40, 1e10), (6, 2e51)]
    )
    def test_overflow_is_a_value_error(self, d, half_height):
        with pytest.raises(ValueError, match="overflow"):
            diamond_volume(d, half_height)

    def test_scaling_law(self):
        for d in (2, 3, 4):
            assert diamond_volume(d, 2.0) == pytest.approx(
                2.0**d * diamond_volume(d, 1.0), rel=1e-12
            )

    def test_monte_carlo_oracle(self):
        # Rejection-sample the bounding box and compare the interior
        # fraction against the closed form before trusting it.
        rng = np.random.default_rng(12345)
        for d in (2, 3):
            samples = rng.uniform(-1.0, 1.0, size=(200_000, d))
            inside = (
                np.linalg.norm(samples[:, 1:], axis=1) <= 1.0 - np.abs(samples[:, 0])
            ).mean()
            box = 2.0**d
            estimate = inside * box
            assert estimate == pytest.approx(diamond_volume(d, 1.0), rel=0.02)


def boost(coords, rapidity):
    """Lorentz boost of ``(t, x)`` coordinate rows by the given rapidity."""
    cosh, sinh = math.cosh(rapidity), math.sinh(rapidity)
    t, x = coords[:, 0], coords[:, 1]
    return np.column_stack((cosh * t - sinh * x, -sinh * t + cosh * x))


def reference_causal_matrix(coords):
    """The all-axes form that causal_matrix replaced below d = 9, kept as
    its oracle: every spatial difference at once, then np.linalg.norm."""
    coords = np.asarray(coords, dtype=float)
    dt = coords[None, :, 0] - coords[:, None, 0]
    dx = np.linalg.norm(coords[None, :, 1:] - coords[:, None, 1:], axis=2)
    return (dt >= dx) & (dt > 0)


def record_scans(monkeypatch):
    """Record each :func:`sprinkling._near_past` call: its row count and, in
    order, the rows and columns of each ``_precedes`` call."""
    scans = []
    precedes, near_past = sprinkling._precedes, sprinkling._near_past

    def recording_precedes(time, spatial, rows, cols):
        index = np.arange(len(time))
        scans[-1].calls.append((index[rows], index[cols]))
        return precedes(time, spatial, rows, cols)

    def recording_near_past(coords, layers):
        scans.append(SimpleNamespace(size=len(coords), calls=[]))
        return near_past(coords, layers)

    monkeypatch.setattr(sprinkling, "_precedes", recording_precedes)
    monkeypatch.setattr(sprinkling, "_near_past", recording_near_past)
    return scans


class TestCausalMatrix:
    @pytest.mark.parametrize("dimension", range(2, 13))
    def test_equals_the_norm_form(self, dimension):
        for seed in range(25):
            rng = np.random.default_rng([dimension, seed])
            coords = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 90)), dimension))
            if seed % 2:  # coarse grids: ties, lightlike pairs and duplicates
                coords = np.round(coords * 4) / 4
            assert np.array_equal(causal_matrix(coords), reference_causal_matrix(coords))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_block_boundaries(self, block, monkeypatch):
        monkeypatch.setattr(sprinkling, "_ORDER_BLOCK_ROWS", block)
        for dimension in range(2, 13):
            rng = np.random.default_rng([block, dimension])
            sizes = [0, 1, 4 * block - 1, 4 * block, 4 * block + 1]
            sizes += [int(n) for n in rng.integers(2, 91, size=4)]
            for index, size in enumerate(sizes):
                coords = rng.uniform(-1.0, 1.0, size=(size, dimension))
                if index % 2:  # coarse grids: ties, lightlike pairs and duplicates
                    coords = np.round(coords * 4) / 4
                assert np.array_equal(causal_matrix(coords), reference_causal_matrix(coords))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_time_sorted_and_non_finite_times(self, block, monkeypatch):
        # a block skips the columns no later than its rows: on sorted times,
        # equal ones straddle the block boundaries; NaN and infinite times
        # are compared as the reference compares them
        monkeypatch.setattr(sprinkling, "_ORDER_BLOCK_ROWS", block)
        for dimension in range(2, 13):
            rng = np.random.default_rng([block, dimension, 1])
            for size in (4 * block - 1, 4 * block + 1, int(rng.integers(2, 91))):
                # a coarse grid: equal times, lightlike pairs and duplicates
                coords = np.round(rng.uniform(-1.0, 1.0, size=(size, dimension)) * 2) / 2
                coords = coords[np.lexsort(coords.T[::-1])]
                cases = [coords]
                for value in (np.nan, np.inf, -np.inf):
                    cases.append(coords.copy())
                    cases[-1][rng.integers(0, size, size=2), 0] = value
                cases.append(coords.copy())
                cases[-1][:, 0] = np.nan
                with np.errstate(invalid="ignore"):  # inf - inf in both forms
                    for case in cases:
                        assert np.array_equal(causal_matrix(case), reference_causal_matrix(case))

    @pytest.mark.parametrize("dimension", [9, 12])
    def test_peak_memory_within_the_budget_charge(self, dimension):
        # _check_budget charges 8 (d + 1) bytes per ordered pair; the whole
        # np.linalg.norm held 2 (d - 1) + 2 float64 values per pair
        size = 600
        coords = np.random.default_rng(dimension).uniform(-1.0, 1.0, size=(size, dimension))
        tracemalloc.start()
        try:
            causal_matrix(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (dimension + 1) * size * size

    def test_hand_made_lightlike_and_duplicate_points(self):
        for dimension in range(2, 13):
            coords = np.zeros((6, dimension))
            coords[1, 0] = coords[1, 1] = 1.0  # lightlike to the origin along x1
            coords[2, 0], coords[2, 1:] = 3.0, 1.0  # |x| = sqrt(d - 1) <= 3: related
            coords[3] = coords[2]  # a duplicate: incomparable to its twin
            coords[4, 0], coords[4, -1] = 0.5, -0.5  # lightlike along the last axis
            coords[5, 0] = -1.0  # timelike below the origin
            got = causal_matrix(coords)
            assert np.array_equal(got, reference_causal_matrix(coords))
            assert got[0, 1] and got[0, 4] and got[5, 0] and got[0, 2] == (dimension <= 10)
            assert not got[2, 3] and not got[3, 2] and not got.diagonal().any()

    def test_timelike_pair(self):
        matrix = causal_matrix(np.array([[0.0, 0.0], [1.0, 0.5]]))
        assert matrix[0, 1] and not matrix[1, 0]

    def test_equal_time_points_incomparable(self):
        matrix = causal_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert not matrix.any()

    def test_lightlike_counts_as_related(self):
        matrix = causal_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert matrix[0, 1]

    def test_boost_preserves_order(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(-1.0, 1.0, size=(40, 2))
        boosted = boost(coords, 0.5)
        assert np.array_equal(causal_matrix(coords), causal_matrix(boosted))


class TestSprinkle:
    def test_deterministic(self):
        config = DiamondConfig(dimension=2, density=30.0, half_height=1.0, seed=11)
        first, second = sprinkle(config), sprinkle(config)
        assert np.array_equal(first.causal_set.coords, second.causal_set.coords)
        assert np.array_equal(first.causal_set.precedes, second.causal_set.precedes)
        assert first.eval_index == second.eval_index

    def test_vanishing_density_leaves_only_the_tip(self):
        config = DiamondConfig(dimension=2, density=1e-9, half_height=1.0, seed=5)
        result = sprinkle(config)
        assert result.causal_set.size == 1
        assert result.eval_index == 0
        assert result.causal_set.coords[0] == pytest.approx([1.0, 0.0])

    def test_tip_dominates_everything(self):
        config = DiamondConfig(dimension=2, density=40.0, half_height=1.0, seed=3)
        result = sprinkle(config)
        tip = result.eval_index
        relation = result.causal_set.precedes
        assert tip == result.causal_set.size - 1
        assert relation[:tip, tip].all()

    def test_points_inside_diamond(self):
        config = DiamondConfig(dimension=3, density=20.0, half_height=1.0, seed=9)
        coords = sprinkle(config).causal_set.coords
        radii = np.linalg.norm(coords[:, 1:], axis=1)
        assert (radii <= 1.0 - np.abs(coords[:, 0]) + 1e-12).all()

    def test_count_statistics_quick(self):
        # 300 trials at rho*V = 60: mean within 4 standard errors.
        config = DiamondConfig(dimension=2, density=30.0, half_height=1.0, seed=21)
        counts = []
        for trial in range(300):
            seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
            rng = np.random.Generator(np.random.Philox(seq))
            from causetbox.sprinkling import _sprinkle_with_rng

            counts.append(_sprinkle_with_rng(config, rng).causal_set.size - 1)
        counts = np.asarray(counts, dtype=float)
        expected = config.density * diamond_volume(2, 1.0)
        std_error = math.sqrt(expected / len(counts))
        assert abs(counts.mean() - expected) < 4 * std_error

    @pytest.mark.parametrize(
        "dimension, density, size, digest",
        [
            (2, 400.0, 795, "f5551badb754147a2268a1220438c6542c078911028216426a3a66cf49a4bb52"),
            (4, 400.0, 832, "d46e0833cb19eebcd828259c319ceb9a327ad1670070a3e2642179fa25459b03"),
            (9, 140.0, 125, "3cf9f4045b307ae743af02e7540e719713e8b278c79d20f7d47b59b3e0de4fca"),
            (10, 185.0, 120, "2c62bf632c447ab38caab1002434615734b2f2fdd769b0bcd17f4659ee482f35"),
        ],
    )
    def test_pinned_order_digests(self, dimension, density, size, digest):
        # SHA-256 of the bool order matrix, recorded before causal_matrix
        # summed the spatial axes one at a time (d >= 9 keeps np.linalg.norm)
        # and, for d = 2 and 4 (13 row blocks), before it built the order in
        # row blocks.
        causal_set = sprinkle(DiamondConfig(dimension, density, 1.0, 5)).causal_set
        assert causal_set.size == size
        assert hashlib.sha256(causal_set.precedes.tobytes()).hexdigest() == digest

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiamondConfig(dimension=1, density=1.0, half_height=1.0, seed=0)
        with pytest.raises(ValueError):
            DiamondConfig(dimension=2, density=0.0, half_height=1.0, seed=0)
        with pytest.raises(ValueError):
            DiamondConfig(dimension=2, density=1.0, half_height=-1.0, seed=0)

    def test_length_scale(self):
        config = DiamondConfig(dimension=2, density=25.0, half_height=1.0, seed=0)
        assert config.length_scale == pytest.approx(0.2)


# Plain-loop reference: the per-row evaluator that field_values replaced,
# kept as the oracle it must match bit for bit.


def reference_field_eval(spec, coords):
    if isinstance(spec, ConstantField):
        return float(spec.value)
    point = np.asarray(coords, dtype=float)
    return float(np.prod([point[k] ** e for k, e in enumerate(spec.exponents)]))


def antichain(coords):
    coords = np.asarray(coords, dtype=float)
    return CausalSet(np.zeros((len(coords), len(coords)), dtype=bool), coords)


coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@st.composite
def field_cases(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(coordinate, min_size=width, max_size=width),
            min_size=1,
            max_size=12,
        )
    )
    exponents = draw(
        st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=width)
    )
    if draw(st.booleans()):
        return np.array(rows), ConstantField(draw(coordinate))
    return np.array(rows), MonomialField(tuple(exponents))


class TestFields:
    def test_constant(self):
        causal_set = antichain([[3.0, 4.0], [0.0, 0.0]])
        assert field_values(ConstantField(1.0), causal_set).tolist() == [1.0, 1.0]
        # a constant needs no coordinates
        bare = from_relations(2, [(0, 1)])
        assert field_values(ConstantField(2.5), bare).tolist() == [2.5, 2.5]

    def test_monomial(self):
        causal_set = antichain([[2.0, 0.0], [2.0, 3.0]])
        assert field_values(MonomialField((2,)), causal_set).tolist() == [4.0, 4.0]
        assert field_values(MonomialField((1, 1)), causal_set).tolist() == [0.0, 6.0]

    def test_monomial_dimension_mismatch(self):
        with pytest.raises(ValueError, match="monomial uses 3 coordinates"):
            field_values(MonomialField((1, 1, 1)), antichain([[2.0, 3.0]]))

    def test_monomial_needs_coordinates(self):
        with pytest.raises(ValueError, match="coordinates"):
            field_values(MonomialField((1,)), from_relations(2, [(0, 1)]))

    def test_negative_exponent_at_zero_is_infinite(self):
        # 0.0 ** -1 is inf (with a numpy warning), not a Python exception.
        with np.errstate(divide="ignore"):
            values = field_values(MonomialField((0, -1)), antichain([[1.0, 0.0]]))
        assert values.tolist() == [math.inf]

    @given(field_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_per_row(self, case):
        coords, spec = case
        got = field_values(spec, antichain(coords))
        want = np.array([reference_field_eval(spec, row) for row in coords])
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_parse(self):
        assert parse_field_spec("const:2.5") == ConstantField(2.5)
        assert parse_field_spec("mono:2,0") == MonomialField((2, 0))
        assert parse_field_spec("mono:2") == MonomialField((2,))
        assert parse_field_spec("mono:") == MonomialField(())
        with pytest.raises(ValueError):
            parse_field_spec("table:1,2")
        with pytest.raises(ValueError):
            parse_field_spec("nope:1")
        with pytest.raises(ValueError):
            parse_field_spec("mono:x")
        for text in ("mono:,2", "mono:1,,2", "mono:2,"):  # an empty exponent
            with pytest.raises(ValueError, match="malformed field spec"):
                parse_field_spec(text)
        for text in ("mono", "const"):  # no colon: not the empty monomial
            with pytest.raises(ValueError, match=f"malformed field spec '{text}'"):
                parse_field_spec(text)


class TestEstimateBox:
    def test_zero_field(self):
        config = DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=1)
        assert estimate_box(config, ConstantField(0.0), 8) == (0.0, 0.0)

    def test_deterministic(self):
        config = DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=1)
        first = estimate_box(config, ConstantField(1.0), 12)
        second = estimate_box(config, ConstantField(1.0), 12)
        assert first == second

    def test_single_trial_has_zero_error(self):
        config = DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=1)
        mean, std_error = estimate_box(config, ConstantField(1.0), 1)
        assert std_error == 0.0
        assert math.isfinite(mean)

    def test_trials_validated(self):
        config = DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=1)
        with pytest.raises(ValueError):
            estimate_box(config, ConstantField(1.0), 0)

    @pytest.mark.parametrize(
        "density, trials", [(1e9, 1), (10.0, 10**12), (1e308, 1), (1e6, 1)]
    )
    def test_budget_refuses_before_allocating(self, density, trials, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array for an over-budget request")

        monkeypatch.setattr(np, "empty", refuse)
        config = DiamondConfig(dimension=2, density=density, half_height=1.0, seed=1)
        with pytest.raises(FeasibilityError, match="elements per trial"):
            estimate_box(config, ConstantField(1.0), trials)

    def test_a_single_sprinkle_is_held_to_the_budget_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled points for an over-budget sprinkle")

        monkeypatch.setattr(sprinkling, "_sample_diamond", refuse)
        with pytest.raises(FeasibilityError, match="elements per trial and 1 trials"):
            sprinkle(DiamondConfig(2, 1e9, 1.0, 0))

    def test_budget_bound(self):
        # 8 (d + 1) bytes per ordered pair of the expected N plus the tip,
        # plus 8 per trial: at d = 2, 9000 elements fit and 10000 do not.
        assert 24 * 9000**2 < MAX_ARRAY_BYTES < 24 * 10000**2
        inside = DiamondConfig(dimension=2, density=8999 / 2, half_height=1.0, seed=1)
        outside = DiamondConfig(dimension=2, density=9999 / 2, half_height=1.0, seed=1)
        _check_budget(inside, 100)
        with pytest.raises(FeasibilityError):
            _check_budget(outside, 1)

    def test_work_bound(self):
        # Each trial is charged 10**7 steps plus (d + 1 + N) N^2 for the N
        # elements and the tip, within 10**14 steps.  At d = 2, density 1,
        # that admits about 10**7 trials.
        tiny = DiamondConfig(dimension=2, density=1.0, half_height=1.0, seed=1)
        _check_budget(tiny, 9_000_000)
        with pytest.raises(FeasibilityError, match="sprinkle too long: about 2 elements"):
            _check_budget(tiny, 11_000_000)
        # at 9000 elements 100 trials fit the work bound and 200 do not,
        # though both fit the byte bound
        large = DiamondConfig(dimension=2, density=8999 / 2, half_height=1.0, seed=1)
        _check_budget(large, 100)
        with pytest.raises(FeasibilityError, match="200 trials take about"):
            _check_budget(large, 200)
        # a request over both bounds is named by the byte bound
        with pytest.raises(FeasibilityError, match="sprinkle too large"):
            _check_budget(DiamondConfig(2, 10.0, 1.0, 1), 10**12)
        # the README example and 20,000-trial probes at density 20 fit
        _check_budget(DiamondConfig(2, 20.0, 1.0, 7), 50)
        _check_budget(DiamondConfig(2, 20.0, 1.0, 1), 20_000)
        _check_budget(DiamondConfig(4, 20.0, 1.0, 1), 20_000)

    def test_work_bound_refuses_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled points for an over-budget estimate")

        monkeypatch.setattr(sprinkling, "_sample_diamond", refuse)
        config = DiamondConfig(dimension=2, density=1.0, half_height=1.0, seed=1)
        with pytest.raises(FeasibilityError, match="100000000 trials take"):
            estimate_box(config, ConstantField(1.0), 10**8)

    def test_a_trial_is_charged_its_scan_not_the_order(self):
        # density 10^4, N about 2 * 10^4: the whole order would need about
        # 9.6 GB, but a trial holds its coordinates and one 64-row block,
        # and its scan is charged 320 (d + 1) N^2 steps: 250 trials fit
        # the work bound and 300 do not
        dense = DiamondConfig(2, 1e4, 1.0, 1)
        with pytest.raises(FeasibilityError, match="sprinkle too large"):
            _check_budget(dense, 1)
        _check_budget(dense, 250, order=False)
        with pytest.raises(FeasibilityError, match="300 trials take about"):
            _check_budget(dense, 300, order=False)

    def test_trial_byte_bound(self):
        # 8 (d + 64 (d + 2)) bytes per point: at d = 2, 1.04 million points
        # fit the byte bound (the work bound then refuses them) and 1.045
        # million do not
        per_point = 8 * (2 + 4 * sprinkling._ORDER_BLOCK_ROWS)
        assert per_point * 1_040_000 < MAX_ARRAY_BYTES < per_point * 1_045_000
        with pytest.raises(FeasibilityError, match="sprinkle too long"):
            _check_budget(DiamondConfig(2, 1_039_999 / 2, 1.0, 1), 1, order=False)
        with pytest.raises(FeasibilityError, match="sprinkle too large"):
            _check_budget(DiamondConfig(2, 1_044_999 / 2, 1.0, 1), 1, order=False)

    @pytest.mark.parametrize("order", [True, False])
    def test_rejection_draws_are_charged(self, order):
        # at d = 18 the bounding box holds about 1.7 * 10^7 points per point
        # of the diamond, each of 18 drawn values at 4800 steps: density
        # 4000 (N about 63) fits and 5000 does not, by its draws alone
        _check_budget(DiamondConfig(18, 4000.0, 1.0, 1), 1, order=order)
        with pytest.raises(FeasibilityError, match="sprinkle too long: about 78.32 elements"):
            _check_budget(DiamondConfig(18, 5000.0, 1.0, 1), 1, order=order)

    def test_draws_are_refused_before_sampling(self, monkeypatch):
        # about 9 points per trial, but about 10^22 drawn to find them
        def refuse(*args):
            raise AssertionError("sampled points for an over-budget request")

        monkeypatch.setattr(sprinkling, "_sample_diamond", refuse)
        config = DiamondConfig(40, 2e10, 1.0, 1)
        with pytest.raises(FeasibilityError, match="sprinkle too long: about 9.152 elements"):
            sprinkle(config)
        with pytest.raises(FeasibilityError, match="sprinkle too long: about 9.152 elements"):
            estimate_box(config, ConstantField(1.0), 1)

    @pytest.mark.parametrize("dimension", [14, 25, 340])
    def test_a_drawn_count_is_charged_its_own_draws(self, dimension, monkeypatch):
        # the most points whose draws fit the work bound: about 11,800 at
        # d = 14, none at d = 25 (one draws about 5 * 10^12 values) or where
        # the box-to-diamond ratio overflows (d = 340)
        sampled = []

        def sample(rng, d, half_height, count):
            sampled.append(count)
            return np.zeros((count, d))

        def steps(count):
            return sprinkling._DRAW_STEPS * sprinkling._draws(dimension, count)

        bound = sprinkling.MAX_SPRINKLE_STEPS
        most = int(bound / steps(1))
        most += steps(most + 1) <= bound
        most -= steps(most) > bound
        assert steps(0) == 0 and steps(most) <= bound < steps(most + 1)
        monkeypatch.setattr(sprinkling, "_sample_diamond", sample)
        config = DiamondConfig(dimension, 1.0, 1.0, 0)
        for count in (0, most):
            rng = SimpleNamespace(poisson=lambda mean, count=count: count)
            assert len(sprinkling._sample_coords(config, rng)) == count + 1
        rng = SimpleNamespace(poisson=lambda mean: most + 1)
        with pytest.raises(FeasibilityError, match=f"Poisson count {most + 1} takes about"):
            sprinkling._sample_coords(config, rng)
        assert sampled == [0, most]

    def test_a_drawn_count_is_refused_before_sampling(self, monkeypatch):
        # d = 25, density 10 expects 0.0015 points and fits the work bound,
        # but seed 1874's sprinkle and seed 312's first trial draw one point
        def refuse(*args):
            raise AssertionError("sampled points for an over-budget count")

        monkeypatch.setattr(sprinkling, "_sample_diamond", refuse)
        with pytest.raises(FeasibilityError, match="Poisson count 1 takes about 2.61e"):
            sprinkle(DiamondConfig(25, 10.0, 1.0, 1874))
        with pytest.raises(FeasibilityError, match="Poisson count 1 takes about 2.61e"):
            estimate_box(DiamondConfig(25, 10.0, 1.0, 312), ConstantField(1.0), 1)

    @pytest.mark.parametrize("dimension, density", [(2, 2000.0), (4, 1000.0), (9, 300.0)])
    def test_a_trial_peaks_within_its_byte_charge(self, dimension, density):
        config = DiamondConfig(dimension, density, 1.0, 1)
        points = density * diamond_volume(dimension, 1.0) + 1
        charge = 8 * (dimension + (dimension + 2) * sprinkling._ORDER_BLOCK_ROWS) * points
        for trial in range(2):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(trial)))
            tracemalloc.start()
            try:
                sprinkling._box_at_tip(config, MonomialField((2,)), rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < charge, (trial, peak, charge)

    @pytest.mark.parametrize(
        "dimension, density",
        [(2, 60.0), (2, 400.0), (3, 40.0), (4, 40.0), (4, 200.0), (5, 25.0), (6, 25.0),
         (8, 20.0), (9, 20.0), (10, 20.0)],
    )
    @pytest.mark.parametrize(
        "field", ["const:1", "const:nan", "mono:2", "mono:0,2", "mono:1,1", "mono:0,-1", "mono:3,1"]
    )
    def test_trial_equals_the_box_operator_on_the_whole_sprinkle(self, dimension, density, field):
        # a trial scans for the tip's first layers and evaluates the field
        # there only; the operator on the sprinkle builds and validates the
        # whole order and evaluates the field everywhere.  (2, 400) and
        # (4, 200) scan many blocks; d >= 9 takes np.linalg.norm.
        spec = parse_field_spec(field)
        for seed in range(8):
            config = DiamondConfig(dimension, density, 1.0, seed)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            with np.errstate(all="ignore"):
                got = sprinkling._box_at_tip(config, spec, rng)
                result = sprinkle(config)
                want = box_operator(
                    result.causal_set,
                    dimension,
                    config.length_scale,
                    field_values(spec, result.causal_set),
                    result.eval_index,
                )
            assert np.array_equal(got, want, equal_nan=True), (seed, got, want)
            assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("lattice", [False, True])
    def test_near_past_equals_the_tip_column_of_the_raw_order(self, lattice):
        # _past on causal_matrix(coords), never validated: a lattice of
        # steps 0.1, 0.3, 1/3 and 0.7 is rich in lightlike pairs whose
        # rounding can leave the float order intransitive, and random
        # points in a box need not all precede the last row
        rng = np.random.default_rng(3 + lattice)
        intransitive = 0
        for case in range(120):
            d, n, layers = int(rng.integers(2, 11)), int(rng.integers(1, 300)), int(rng.integers(1, 8))
            if lattice:
                coords = rng.integers(-6, 7, size=(n, d)) * (0.1, 0.3, 1 / 3, 0.7)[case % 4]
            else:
                coords = rng.uniform(-1.0, 1.0, size=(n, d))
            coords = coords[np.lexsort(coords.T[::-1])]
            order = causal_matrix(coords)
            closure = order.astype(np.float32) @ order.astype(np.float32) > 0
            intransitive += bool((closure & ~order).any())
            below, between = causet._past(SimpleNamespace(precedes=order), n - 1)
            near, counts = sprinkling._near_past(coords, layers)
            assert np.array_equal(near, below[between < layers]), (case, d, n, layers)
            assert np.array_equal(counts, between[between < layers]), (case, d, n, layers)
        assert (intransitive > 0) == lattice

    @pytest.mark.parametrize("dimension, density", [(2, 2000.0), (3, 1000.0), (4, 1000.0)])
    def test_near_past_over_several_survivor_blocks(self, dimension, density, monkeypatch):
        # the near set grows after the first filter, block after block of
        # survivors; a row is counted only while it precedes fewer than
        # `layers` of the near points found before its block
        layers = dimension // 2 + 2
        cases = []
        for seed in range(2):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            coords = sprinkling._sample_coords(DiamondConfig(dimension, density, 1.0, seed), rng)
            cases.append((seed, coords, causal_matrix(coords)))
        scans = record_scans(monkeypatch)
        growing = 0
        for seed, coords, order in cases:
            below, between = causet._past(SimpleNamespace(precedes=order), len(coords) - 1)
            near, counts = sprinkling._near_past(coords, layers)
            assert np.array_equal(near, below[between < layers]), seed
            assert np.array_equal(counts, between[between < layers]), seed
            found = np.zeros(len(coords), dtype=bool)
            for rows, cols in scans[-1].calls:
                # a count takes every predecessor from its block's first row on
                if np.array_equal(cols, below[np.searchsorted(below, rows[0]) :]):
                    assert (order[np.ix_(rows, found)].sum(axis=1) < layers).all(), seed
                    growing += found.any() and np.isin(rows, near).any()
                    found[rows[np.isin(rows, near)]] = True
        assert growing >= {2: 2, 3: 2, 4: 10}[dimension]

    def test_near_past_on_lattices_over_several_blocks(self):
        # more than three blocks of the tip's past on a lattice, whose
        # lightlike pairs can leave the float order intransitive
        rng = np.random.default_rng(11)
        intransitive = 0
        for case in range(24):
            d, layers = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            step = (0.1, 0.3, 1 / 3, 0.7)[case % 4]
            coords = rng.integers(-6, 7, size=(int(rng.integers(200, 600)), d)) * step
            tip = np.zeros((1, d))
            tip[0, 0] = (6 + math.ceil(6 * math.sqrt(d - 1)) - case % 3) * step
            coords = np.concatenate([coords[np.lexsort(coords.T[::-1])], tip])
            order = causal_matrix(coords)
            closure = order.astype(np.float32) @ order.astype(np.float32) > 0
            intransitive += bool((closure & ~order).any())
            below, between = causet._past(SimpleNamespace(precedes=order), len(coords) - 1)
            assert below.size > 3 * sprinkling._ORDER_BLOCK_ROWS, case
            near, counts = sprinkling._near_past(coords, layers)
            assert np.array_equal(near, below[between < layers]), (case, d, layers)
            assert np.array_equal(counts, between[between < layers]), (case, d, layers)
        assert intransitive > 0

    @pytest.mark.parametrize("dimension, density", [(2, 100.0), (4, 1000.0)])
    def test_scan_calls_are_few_non_empty_and_one_block_at_most(self, dimension, density, monkeypatch):
        # (2, 100) is the benchmark's trial: the tip's column, the latest
        # block, one filter and one block of survivors
        scans = record_scans(monkeypatch)
        estimate_box(DiamondConfig(dimension, density, 1.0, 1), MonomialField((2,)), 20)
        assert len(scans) == 20
        for scan in scans:
            if dimension == 2:
                assert len(scan.calls) <= 4
            for rows, cols in scan.calls:
                assert rows.size and cols.size
                assert rows.size * cols.size <= sprinkling._ORDER_BLOCK_ROWS * scan.size

    @pytest.mark.parametrize(
        "config, spec, trials, expected",
        [
            # the README example
            (DiamondConfig(2, 20.0, 1.0, 7), ConstantField(1.0), 50,
             (20.8, 55.168639420509585)),
            (DiamondConfig(4, 50.0, 1.0, 3), MonomialField((2,)), 20,
             (0.8311311430330814, 6.918803664932067)),
        ],
    )
    def test_pinned_values(self, config, spec, trials, expected):
        # Bit-identical to the per-predecessor loop implementation.
        assert estimate_box(config, spec, trials) == expected

    # Recorded before the trials read only the tip's layers; six trials,
    # seed 11, half height 1, one row per (dimension, density).
    PINNED = {
        (2, 40.0): {
            "const:1": (-453.3333333333333, 354.5764296233528),
            "mono:2": (-102.95346685641725, 103.25598258537347),
            "mono:0,2": (-103.00001587650404, 135.2562762790669),
            "mono:1,1": (88.2877126841862, 44.03839807336543),
        },
        (3, 30.0): {
            "const:1": (3.8297410329361363, 61.55966177315025),
            "mono:2": (-4.798380371500499, 5.943207260606511),
            "mono:0,2": (-5.526995987811504, 9.530284503948575),
            "mono:1,1": (4.986155381946848, 3.041742892479164),
        },
        (4, 30.0): {
            "const:1": (-83.47987115999213, 298.3927315170767),
            "mono:2": (-6.2566285701490445, 8.436597598837732),
            "mono:0,2": (-8.957730752240053, 49.92896016109165),
            "mono:1,1": (-5.114238547794696, 13.937497512952314),
        },
        (5, 20.0): {
            "const:1": (21.385031060059024, 19.124873611920805),
            "mono:2": (0.4996777282111913, 1.7307665411291204),
            "mono:0,2": (5.811087917060081, 2.2225334707741804),
            "mono:1,1": (-0.5160272912057032, 1.0669789930094582),
        },
        (8, 20.0): {
            "const:1": (36.94774019251687, 66.95099150364148),
            "mono:2": (7.358113642759174, 11.632954315949709),
            "mono:0,2": (-1.0680622627756193, 1.295134904963716),
            "mono:1,1": (-0.6509752390221525, 1.4069260900704657),
        },
    }

    @pytest.mark.parametrize(
        "dimension, density, field, expected",
        [(d, rho, field, pair) for (d, rho), row in PINNED.items() for field, pair in row.items()],
    )
    def test_pinned_across_dimensions_and_fields(self, dimension, density, field, expected):
        config = DiamondConfig(dimension, density, 1.0, 11)
        assert estimate_box(config, parse_field_spec(field), 6) == expected
