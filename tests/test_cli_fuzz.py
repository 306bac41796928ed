"""Property test of the CLI boundary: every input gives a result or a documented exit code.

``cli.run`` is driven with well-typed argv for each subcommand (values
that parse, many of them out of range or over a guard), with the same
argv after one token is replaced, dropped or inserted, and for
``action`` with arbitrary JSON files.  Sizes are bounded so that every
accepted request stays small: a sprinkle holds at most about 80
elements per trial, and an action input at most a dozen elements unless
its count is over the causal-set element budget.  ``--help`` and ``--output`` are
left out: the first prints usage text on stdout by design, the second
writes no stdout.  An answer must come in the format asked for, or in the
subcommand's default one; ``action`` and ``sprinkle`` offer only JSON.
"""

import contextlib
import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetbox.cli import run

EXIT_CODES = {0, 1, 2, 3, 4}
DEFAULT_FORMAT = {"coeffs": "csv", "enumerate": "csv", "strings": "csv",
                  "verify": "json", "action": "json", "sprinkle": "json"}
FORMATS = st.sampled_from([[], ["--format", "csv"], ["--format", "json"]])
IDENTIFIER = re.compile(r"[a-z_]+")


def ints(low, high):
    return st.integers(low, high).map(str)


def command(name, *options, flags=()):
    """``name``, then each ``(flag, values)`` option with a drawn value,
    then any of the bare ``flags`` and an output format."""
    parts = [values.map(lambda v, f=f: [f, v]) for f, values in options]
    parts += [st.sampled_from([[], [f]]) for f in flags]
    parts.append(FORMATS)
    return st.tuples(*parts).map(
        lambda chunks: [name] + [token for chunk in chunks for token in chunk]
    )


# Well-typed argv: every value parses, many are out of range or over a guard.
COEFFS = command("coeffs", ("--dim", ints(-2, 45)))
ENUMERATE = command(
    "enumerate", ("--chords", ints(-1, 6)), ("--points", ints(-1, 18)), flags=["--list"]
)
VERIFY = st.tuples(
    st.lists(ints(-3, 7).map(lambda d: ["--dim", d]), max_size=3),
    st.lists(ints(-1, 6).map(lambda i: ["--max-i", i]), max_size=1),
).map(lambda parts: ["verify"] + [token for chunk in parts[0] + parts[1] for token in chunk])
# large dimensions: index 1 is one long string (over the guard at 10**10),
# any other index is over the guard
STRINGS = command(
    "strings",
    ("--dim", st.one_of(ints(-2, 14), st.sampled_from(["200", "1000", "100000", "10000000000"]))),
    ("--i", st.one_of(ints(-1, 10), st.sampled_from(["50", "501"]))),
    flags=["--list"],
)
SCALES = {"--density": ("0.5", "5", "40"), "--ell": ("0.5", "1", "2")}
# One option at a time is set to one of these after a valid draw.
EXTREMES = (
    [("--dim", v) for v in ("0", "-1", "400")]
    + [("--half-height", v) for v in ("0", "-1", "nan", "inf", "1e300")]
    + [("--trials", v) for v in ("0", "1000000000000")]
    + [("--field", v) for v in ("const:nan", "mono:0,-1", "mono:x", "table:", "cubic:1")]
    + [("--density", v) for v in ("0", "-1", "nan", "inf", "1e300")]
    + [("--ell", v) for v in ("0", "-1", "nan", "1e-300", "1e300")]
)


@st.composite
def sprinkle_argv(draw):
    """A valid sprinkle of at most ~80 elements per trial (density <= 40 or
    ell >= 0.5, half height <= 1, d <= 5), often with one extreme option."""
    options = {
        "--dim": draw(ints(1, 5)),
        "--half-height": draw(st.sampled_from(["0.25", "1"])),
        "--trials": draw(ints(1, 3)),
        "--field": draw(
            st.sampled_from(["const:1", "mono:2", "mono:0,1", "mono:1,1,1,1,1,1", "table:1,2"])
        ),
        "--seed": draw(ints(0, 5)),
    }
    scale = draw(st.sampled_from(sorted(SCALES)))
    options[scale] = draw(st.sampled_from(SCALES[scale]))
    extreme = draw(st.one_of(st.none(), st.sampled_from(EXTREMES)))
    if extreme is not None:
        name, value = extreme
        if name in SCALES and draw(st.booleans()):
            options.pop(scale)  # the extreme scale alone, not beside the valid one
        options[name] = value
    argv = ["sprinkle"] + [token for pair in options.items() for token in pair]
    return argv + draw(FORMATS)


WELL_TYPED = st.one_of(COEFFS, ENUMERATE, VERIFY, STRINGS, sprinkle_argv())

JUNK = ["", "x", "-1", "1.5", "nan", "1e300", "--bogus", "--format", "xml"]


@st.composite
def mutated(draw):
    """A well-typed argv with one token replaced, dropped or inserted."""
    argv = draw(WELL_TYPED)
    where = draw(st.integers(1, len(argv)))
    junk = draw(st.sampled_from(JUNK))
    edit = draw(st.sampled_from(["replace", "drop", "insert"]))
    if edit == "insert" or where == len(argv):
        return argv[:where] + [junk] + argv[where:]
    if edit == "drop":
        return argv[:where] + argv[where + 1 :]
    return argv[:where] + [junk] + argv[where + 1 :]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
RELATIONS = st.one_of(
    st.lists(st.lists(st.integers(-1, 12), min_size=2, max_size=2), max_size=12),
    JSON_VALUES,
)
ELEMENT_COUNT = st.one_of(
    st.integers(-1, 12), st.sampled_from([10**5, 10**30, 2.5, True, "4", None])
)
ACTION_INPUT = st.one_of(
    st.builds(lambda n, r: json.dumps({"n": n, "relations": r}), ELEMENT_COUNT, RELATIONS),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2", "null"]),
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def requested_format(argv):
    """The value of the last ``--format`` in ``argv``, else the subcommand's default."""
    if "--format" not in argv:
        return DEFAULT_FORMAT[argv[0]]
    return argv[len(argv) - argv[::-1].index("--format")]


def assert_format(text, output_format):
    if output_format == "json":
        json.loads(text, parse_constant=reject_constant)
        return
    with pytest.raises(ValueError):  # CSV that also parses as JSON would hide a wrong format
        json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    assert all(IDENTIFIER.fullmatch(name) for name in header), text[:200]
    assert rows and len(rows[0]) == len(header), text[:200]


def assert_contract(argv, code, out, err):
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err, err
    if code in (0, 1):
        assert err == "", err
        assert_format(out, requested_format(argv))
    else:
        assert out == "", out[:200]
        assert err.splitlines()[-1].count("error:") == 1, err
        if code != 2 or err.startswith("error:"):
            assert err.count("\n") == 1, err


@settings(max_examples=200, deadline=None)
@given(argv=WELL_TYPED)
def test_well_typed_argv_obeys_the_exit_code_contract(argv):
    assert_contract(argv, *invoke(argv))


@settings(max_examples=100, deadline=None)
@given(argv=mutated())
def test_mutated_argv_obeys_the_exit_code_contract(argv):
    assert_contract(argv, *invoke(argv))


@settings(max_examples=100, deadline=None)
@given(
    text=ACTION_INPUT,
    options=command(
        "action",
        ("--dim", ints(-1, 6)),
        ("--ell", st.sampled_from(["0.5", "1", "0", "nan", "1e-300", "1e300"])),
    ),
)
def test_action_obeys_the_exit_code_contract(tmp_path_factory, text, options):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(text, encoding="utf-8")
    argv = options + ["--input", str(path)]
    assert_contract(argv, *invoke(argv))


def test_missing_input_file_exits_2():
    code, out, err = invoke(["action", "--input", "no/such/file.json", "--dim", "2",
                             "--ell", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
