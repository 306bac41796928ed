"""Every integer parameter of the public functions goes through one check.

Bools (Python's and numpy's), floats, strings and None raise
``ValueError`` naming the parameter; a numpy integer gives the same
answer as the ``int`` it equals.
"""

import numpy as np
import pytest

from causetbox.causet import (
    box_operator,
    from_relations,
    gravitational_action,
    interval_abundances,
    interval_size,
    layer,
    layer_sums,
)
from causetbox.coefficients import (
    alpha_over_beta,
    catalan_number,
    coefficient_table,
    layer_coefficient,
    num_layers,
    operator_constants,
    scaled_coefficient,
    scaled_gamma_ratio,
    sphere_surface_area,
)
from causetbox.diagrams import (
    count_diagrams,
    count_restricted,
    enumerate_diagrams,
    restricted_class_parameters,
    verify_cancellation,
    verify_coefficient_count,
    verify_layer,
)
from causetbox.evenstrings import (
    count_constrained_paths,
    count_constrained_strings,
    enumerate_constrained_strings,
)
from causetbox.genseries import diagram_series
from causetbox.sprinkling import ConstantField, DiamondConfig, diamond_volume, estimate_box

DIAMOND = from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
ONES = np.ones(4)
SERIES = diagram_series(3, 8)
CONFIG = DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=1)

# (call taking the value under test, the name its message starts with, a valid value)
CASES = {
    "coefficients.num_layers": (num_layers, "dimension", 4),
    "coefficients.layer_coefficient:dimension": (lambda v: layer_coefficient(v, 2), "dimension", 4),
    "coefficients.layer_coefficient:index": (lambda v: layer_coefficient(4, v), "layer index", 2),
    "coefficients.scaled_coefficient:dimension": (lambda v: scaled_coefficient(v, 2), "dimension", 5),
    "coefficients.scaled_coefficient:index": (lambda v: scaled_coefficient(5, v), "layer index", 3),
    "coefficients.coefficient_table": (coefficient_table, "dimension", 6),
    "coefficients.scaled_gamma_ratio:dimension": (lambda v: scaled_gamma_ratio(v, 2), "dimension", 4),
    "coefficients.scaled_gamma_ratio:k": (lambda v: scaled_gamma_ratio(4, v), "k", 2),
    "coefficients.alpha_over_beta": (alpha_over_beta, "dimension", 6),
    "coefficients.catalan_number": (catalan_number, "Catalan index", 5),
    "coefficients.sphere_surface_area": (sphere_surface_area, "sphere dimension", 2),
    "coefficients.operator_constants": (operator_constants, "dimension", 3),
    "causet.from_relations": (
        lambda v: from_relations(v, [(0, 1)]).precedes.tolist(), "element count", 3
    ),
    "causet.interval_size:a": (lambda v: interval_size(DIAMOND, v, 3), "element index", 0),
    "causet.interval_size:b": (lambda v: interval_size(DIAMOND, 0, v), "element index", 3),
    "causet.layer:x": (lambda v: layer(DIAMOND, v, 1), "element index", 3),
    "causet.layer:i": (lambda v: layer(DIAMOND, 3, v), "layer index", 1),
    "causet.layer_sums:x": (lambda v: layer_sums(DIAMOND, v, ONES, 3).tolist(), "element index", 3),
    "causet.layer_sums:max_layer": (
        lambda v: layer_sums(DIAMOND, 3, ONES, v).tolist(), "max_layer", 3
    ),
    "causet.box_operator:dimension": (
        lambda v: box_operator(DIAMOND, v, 1.0, ONES, 3), "dimension", 2
    ),
    "causet.box_operator:x": (lambda v: box_operator(DIAMOND, 2, 1.0, ONES, v), "element index", 3),
    "causet.interval_abundances": (lambda v: interval_abundances(DIAMOND, v), "max_i", 3),
    "causet.gravitational_action": (
        lambda v: gravitational_action(DIAMOND, v, 1.0), "dimension", 2
    ),
    "diagrams.enumerate_diagrams:n_chords": (lambda v: enumerate_diagrams(v, 6), "chord count", 2),
    "diagrams.enumerate_diagrams:n_points": (lambda v: enumerate_diagrams(2, v), "point count", 6),
    "diagrams.count_diagrams:n_chords": (lambda v: count_diagrams(v, 9), "chord count", 3),
    "diagrams.count_diagrams:n_points": (lambda v: count_diagrams(3, v), "point count", 9),
    "diagrams.count_restricted:n_chords": (
        lambda v: count_restricted(v, 8, 2, 1), "chord count", 2
    ),
    "diagrams.count_restricted:n_points": (
        lambda v: count_restricted(2, v, 2, 1), "point count", 8
    ),
    "diagrams.count_restricted:gap_bound": (
        lambda v: count_restricted(2, 8, v, 1), "gap bound", 2
    ),
    "diagrams.count_restricted:place_bound": (
        lambda v: count_restricted(2, 8, 2, v), "place bound", 1
    ),
    "diagrams.restricted_class_parameters:dimension": (
        lambda v: restricted_class_parameters(v, 2), "dimension", 3
    ),
    "diagrams.restricted_class_parameters:index": (
        lambda v: restricted_class_parameters(3, v), "layer index", 2
    ),
    "diagrams.verify_layer:dimension": (lambda v: verify_layer(v, 2), "dimension", 2),
    "diagrams.verify_layer:index": (lambda v: verify_layer(2, v), "layer index", 2),
    "diagrams.verify_coefficient_count:dimension": (
        lambda v: verify_coefficient_count(v, 2), "dimension", 2
    ),
    "diagrams.verify_coefficient_count:index": (
        lambda v: verify_coefficient_count(2, v), "layer index", 2
    ),
    "diagrams.verify_cancellation:dimension": (
        lambda v: verify_cancellation(v, 2), "dimension", 2
    ),
    "diagrams.verify_cancellation:index": (
        lambda v: verify_cancellation(2, v), "layer index", 2
    ),
    "evenstrings.enumerate_constrained_strings:dimension": (
        lambda v: list(enumerate_constrained_strings(v, 2)), "dimension", 4
    ),
    "evenstrings.enumerate_constrained_strings:index": (
        lambda v: list(enumerate_constrained_strings(4, v)), "layer index", 2
    ),
    "evenstrings.count_constrained_strings:dimension": (
        lambda v: count_constrained_strings(v, 3), "dimension", 4
    ),
    "evenstrings.count_constrained_strings:index": (
        lambda v: count_constrained_strings(4, v), "layer index", 3
    ),
    "evenstrings.count_constrained_paths:dimension": (
        lambda v: count_constrained_paths(v, 3), "dimension", 6
    ),
    "evenstrings.count_constrained_paths:index": (
        lambda v: count_constrained_paths(6, v), "layer index", 3
    ),
    "genseries.diagram_series:max_x": (lambda v: diagram_series(v, 8), "max_x", 3),
    "genseries.diagram_series:max_y": (lambda v: diagram_series(3, v), "max_y", 8),
    "genseries.BivariateSeries.coefficient:n": (lambda v: SERIES.coefficient(v, 6), "n", 2),
    "genseries.BivariateSeries.coefficient:m": (lambda v: SERIES.coefficient(2, v), "m", 6),
    "sprinkling.DiamondConfig:dimension": (
        lambda v: DiamondConfig(dimension=v, density=10.0, half_height=1.0, seed=1),
        "dimension",
        2,
    ),
    "sprinkling.DiamondConfig:seed": (
        lambda v: DiamondConfig(dimension=2, density=10.0, half_height=1.0, seed=v), "seed", 1
    ),
    "sprinkling.diamond_volume": (lambda v: diamond_volume(v, 1.0), "dimension", 3),
    "sprinkling.estimate_box": (
        lambda v: estimate_box(CONFIG, ConstantField(1.0), v), "trials", 2
    ),
}

NOT_INTEGERS = [True, np.True_, 2.0, "2", None]


@pytest.mark.parametrize("case", CASES)
def test_integer_parameter(case):
    call, name, valid = CASES[case]
    for value in NOT_INTEGERS:
        with pytest.raises(ValueError) as raised:
            call(value)
        message = str(raised.value)
        assert message.startswith(f"{name} "), (value, message)
        assert message.endswith(f" must be an integer, not {type(value).__name__}"), message
    want = call(valid)
    got = call(np.int64(valid))
    assert got == want and type(got) is type(want)
