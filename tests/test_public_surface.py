"""The package's public names: every export resolves, and the checks that
live in the test oracles are not importable from ``causetbox``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import causetbox
from causetbox.causet import ActionReport
from diagram_oracle import ChordDiagram

MODULES = sorted(
    f"causetbox.{info.name}" for info in pkgutil.iter_modules(causetbox.__path__)
)

# The diagram objects, the diagram spec and the string projection live in
# tests/diagram_oracle.py, the series' closed forms in tests/test_genseries.py
# and the Lorentz boost in the tests that use it; a table field could not
# match the Poisson element count of a sprinkle.
GONE = {
    "causetbox.diagrams": [
        "is_valid_diagram", "inside_points", "_check_well_formed", "_crossing",
        "Chord", "ChordDiagram", "_diagram_keys",
    ],
    "causetbox.evenstrings": ["odd_point_string", "fiber_sizes"],
    "causetbox.genseries": ["closed_coeff_even", "closed_coeff_odd"],
    "causetbox.sprinkling": ["TableField", "boost_coords"],
}


@pytest.mark.parametrize("module_name", ["causetbox"] + MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module_name, name", [(m, n) for m, names in GONE.items() for n in names])
def test_moved_and_deleted_names_are_gone(module_name, name):
    assert not hasattr(importlib.import_module(module_name), name)
    assert not hasattr(causetbox, name)


def test_moved_and_deleted_methods_are_gone():
    assert not hasattr(ChordDiagram, "bare_points")
    assert not hasattr(ActionReport, "from_dict")
    assert not hasattr(ActionReport, "to_dict")  # the CLI renders dataclasses.asdict


def test_feasibility_error_is_exported_once_from_coefficients():
    assert causetbox.FeasibilityError is importlib.import_module("causetbox.coefficients").FeasibilityError
    assert "FeasibilityError" not in importlib.import_module("causetbox.diagrams").__all__


def test_evenstrings_imports_nothing_from_diagrams():
    source = Path(importlib.import_module("causetbox.evenstrings").__file__).read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [m for m in imported if "diagrams" in m.split(".")], imported
