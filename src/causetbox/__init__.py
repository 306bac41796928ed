"""Causal-set d'Alembertian coefficients and their combinatorics.

Subpackages by theme:

* :mod:`causetbox.coefficients` — exact layer coefficients, scaled
  integers, the alpha/beta ratio, floating operator constants.
* :mod:`causetbox.genseries` — the diagram generating function as a
  truncated integer series with closed-form coefficient extraction.
* :mod:`causetbox.diagrams` — colored noncrossing partial chord
  diagrams, restricted counts, and the signed-insertion verification.
* :mod:`causetbox.evenstrings` — the even-dimension binary-string and
  lattice-path counts.
* :mod:`causetbox.causet` — finite causal sets, layers, the discrete
  box operator, and the gravitational action.
* :mod:`causetbox.sprinkling` — Poisson sprinkling into a Minkowski
  diamond and Monte Carlo operator estimates.
* :mod:`causetbox.cli` — the ``causetbox`` command-line front end.
"""

from .coefficients import (
    CoefficientTable,
    OperatorConstants,
    alpha_over_beta,
    coefficient_table,
    layer_coefficient,
    operator_constants,
    scaled_coefficient,
    scaled_gamma_ratio,
)
from .diagrams import (
    ChordDiagram,
    Chord,
    FeasibilityError,
    count_restricted,
    enumerate_diagrams,
    verify_cancellation,
    verify_coefficient_count,
)
from .genseries import BivariateSeries, diagram_series
from .causet import CausalSet, gravitational_action, box_operator, from_relations
from .evenstrings import count_constrained_paths, count_constrained_strings
from .sprinkling import (
    ConstantField,
    DiamondConfig,
    MonomialField,
    TableField,
    estimate_box,
    sprinkle,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "OperatorConstants",
    "alpha_over_beta",
    "coefficient_table",
    "layer_coefficient",
    "operator_constants",
    "scaled_coefficient",
    "scaled_gamma_ratio",
    "ChordDiagram",
    "Chord",
    "FeasibilityError",
    "count_restricted",
    "enumerate_diagrams",
    "verify_cancellation",
    "verify_coefficient_count",
    "BivariateSeries",
    "diagram_series",
    "CausalSet",
    "gravitational_action",
    "box_operator",
    "from_relations",
    "count_constrained_paths",
    "count_constrained_strings",
    "ConstantField",
    "DiamondConfig",
    "MonomialField",
    "TableField",
    "estimate_box",
    "sprinkle",
    "__version__",
]
