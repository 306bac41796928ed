"""The benchmark's tracer must find every function it wraps.

``bench/tracing.py`` times and counts calls by module attribute name and
binds some arguments by parameter name; a rename would silently turn a
per-layer metric into 0 ms.  Building the tracer, without installing it,
resolves every target; installing it around one listing shows that the
CLI's call reaches a wrapped target.
"""

import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

from causetbox import causet, cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracing().Tracer()
    assert tracer.missing == []
    assert tracer.patches


def test_counter_arguments_keep_their_names():
    assert "pairs" in inspect.signature(causet.from_relations).parameters
    box = inspect.signature(causet.box_operator).parameters
    assert "causal_set" in box and "x" in box


def test_the_traced_listing_is_timed_and_counted():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["enumerate", "--chords", "4", "--points", "12", "--list"])
    finally:
        tracer.uninstall()
    tracer.flush_counts()
    assert code == 0
    assert [span[0] for span in tracer.spans].count("diagrams.enumerate") == 1
    assert tracer.counts["diagrams.enumerated"] == 3840
