"""Poisson sprinkling, the induced order, and the Monte Carlo estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causetbox.causet import MAX_ARRAY_BYTES, CausalSet, from_relations
from causetbox.coefficients import FeasibilityError
from causetbox.sprinkling import (
    ConstantField,
    DiamondConfig,
    MonomialField,
    TableField,
    _check_budget,
    boost_coords,
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


class TestCausalMatrix:
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
        boosted = boost_coords(coords, 0.5)
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

    def test_table_requires_matching_length(self):
        causal_set = from_relations(2, [(0, 1)])
        assert field_values(TableField((5.0, 7.0)), causal_set).tolist() == [5.0, 7.0]
        with pytest.raises(ValueError):
            field_values(TableField((5.0,)), causal_set)

    def test_parse(self):
        assert parse_field_spec("const:2.5") == ConstantField(2.5)
        assert parse_field_spec("mono:2,0") == MonomialField((2, 0))
        assert parse_field_spec("table:1,2") == TableField((1.0, 2.0))
        with pytest.raises(ValueError):
            parse_field_spec("nope:1")
        with pytest.raises(ValueError):
            parse_field_spec("mono:x")


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
        "density, trials", [(1e9, 1), (10.0, 10**12), (1e308, 1), (1e4, 1)]
    )
    def test_budget_refuses_before_allocating(self, density, trials, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array for an over-budget request")

        monkeypatch.setattr(np, "empty", refuse)
        config = DiamondConfig(dimension=2, density=density, half_height=1.0, seed=1)
        with pytest.raises(FeasibilityError, match="elements per trial"):
            estimate_box(config, ConstantField(1.0), trials)

    def test_budget_bound(self):
        # 8 (d + 1) bytes per ordered pair of the expected N plus the tip,
        # plus 8 per trial: at d = 2, 9000 elements fit and 10000 do not.
        assert 24 * 9000**2 < MAX_ARRAY_BYTES < 24 * 10000**2
        inside = DiamondConfig(dimension=2, density=8999 / 2, half_height=1.0, seed=1)
        outside = DiamondConfig(dimension=2, density=9999 / 2, half_height=1.0, seed=1)
        _check_budget(inside, 100)
        with pytest.raises(FeasibilityError):
            _check_budget(outside, 1)

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
