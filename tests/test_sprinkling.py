"""Poisson sprinkling, the induced order, and the Monte Carlo estimator."""

import math

import numpy as np
import pytest

from causetbox.sprinkling import (
    ConstantField,
    DiamondConfig,
    MonomialField,
    TableField,
    boost_coords,
    causal_matrix,
    diamond_volume,
    estimate_box,
    field_eval,
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


class TestFields:
    def test_constant(self):
        assert field_eval(ConstantField(1.0), [3.0, 4.0]) == 1.0

    def test_monomial(self):
        assert field_eval(MonomialField((2,)), [2.0, 0.0]) == pytest.approx(4.0)
        assert field_eval(MonomialField((1, 1)), [2.0, 3.0]) == pytest.approx(6.0)

    def test_monomial_dimension_mismatch(self):
        with pytest.raises(ValueError):
            field_eval(MonomialField((1, 1, 1)), [2.0, 3.0])

    def test_table_requires_matching_length(self):
        from causetbox.causet import from_relations

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
