"""The README's library quick tour runs, and prints what its comments say.

Each expression line of the ``python`` block whose comment starts with a
literal (``# -2.0``, ``# Fraction(-5, 2), exact``) is evaluated and
compared with that literal; comments that start with prose are skipped.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# The literal at the start of a comment, up to the first prose word.
LEADING_VALUE = re.compile(r"#\s*(.+?)(?:,?\s+[a-z=|].*)?$")


def quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, f"expected one python block, found {len(blocks)}"
    return blocks[0]


def commented_value(line: str):
    """The literal a comment claims, or None when it opens with prose."""
    if "#" not in line:
        return None
    match = LEADING_VALUE.search(line[line.index("#"):])
    try:
        return eval(match.group(1), {"__builtins__": {}, "Fraction": Fraction})
    except (NameError, SyntaxError, TypeError):
        return None


def test_quick_tour_runs_and_matches_its_comments():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            module = ast.Module(body=[statement], type_ignores=[])
            exec(compile(module, str(README), "exec"), namespace)
            continue
        expression = ast.Expression(statement.value)
        value = eval(compile(expression, str(README), "eval"), namespace)
        claimed = commented_value(lines[statement.end_lineno - 1])
        if claimed is not None:
            assert value == claimed, (lines[statement.lineno - 1], value, claimed)
            checked.append(claimed)
    assert checked == [
        (Fraction(1), Fraction(-9), Fraction(16), Fraction(-8)),
        Fraction(-5, 2),
        -2.0,
        48,
        48,
        9,
        -12.0,
    ]


def test_known_deviation_table_matches_the_tally():
    from causetbox.coefficients import scaled_coefficient
    from causetbox.diagrams import count_restricted, restricted_class_parameters

    rows = re.findall(
        r"^\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|$",
        README.read_text(),
        re.MULTILINE,
    )
    cells = [(d, i) for d in range(2, 9) for i in range(3, d // 2 + 3)]
    assert [(int(d), int(i)) for d, i, _, _ in rows] == cells
    for d, i, count, magnitude in rows:
        d, i = int(d), int(i)
        assert int(count) == count_restricted(*restricted_class_parameters(d, i))
        assert int(magnitude) == abs(scaled_coefficient(d, i))
