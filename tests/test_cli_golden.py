"""Byte-for-byte pins of the CLI's answers.

``cli_golden.json`` holds one record per argv: the exit code and the
exact text the CLI wrote, to stdout or, when the argv has ``--output``,
to that file (stdout then stays empty).  It covers every subcommand in
every format it accepts, ``--list``, ``--output`` and exits 1, 2 and 3.
The records were written by the CLI before its output went through one
render-and-write pipeline; a change to any of them is a change to the
CLI's output and must be documented as one.  ``{input}`` is the
four-element diamond, ``{output}`` a fresh file and ``{missing}`` a path
that does not exist.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from causetbox.cli import run

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
DIAMOND_JSON = {"n": 4, "relations": [[0, 1], [0, 2], [1, 3], [2, 3]]}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def paths(tmp_path):
    diamond = tmp_path / "diamond.json"
    diamond.write_text(json.dumps(DIAMOND_JSON), encoding="utf-8")
    return {
        "input": str(diamond),
        "output": str(tmp_path / "out.txt"),
        "missing": str(tmp_path / "missing.json"),
    }


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_answer_is_byte_identical(record, paths):
    code, out, err = invoke([token.format(**paths) for token in record["argv"]])
    assert code == record["exit"], err
    assert "Traceback" not in err
    if "{output}" in record["argv"]:
        assert out == ""
        assert Path(paths["output"]).read_text(encoding="utf-8") == record["text"]
    else:
        assert out == record["text"]
    if code in (0, 1):
        assert err == ""

