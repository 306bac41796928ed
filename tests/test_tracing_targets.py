"""The benchmark's tracer must find every function it wraps.

``bench/tracing.py`` times and counts calls by module attribute name and
binds some arguments by parameter name; a rename would silently turn a
per-layer metric into 0 ms.  Building the tracer, without installing it,
resolves every target; installing it around one listing shows that the
CLI's call reaches a wrapped target, around one sprinkle that its order
is timed and its elements counted, and around one estimate that no trial
builds an order.
"""

import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

from causetbox import causet, cli, sprinkling

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


def traced(call):
    """Run ``call()`` under an installed tracer; return its result and the tracer."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = call()
    finally:
        tracer.uninstall()
    tracer.flush_counts()
    return result, tracer


def test_the_traced_listing_is_timed_and_counted():
    argv = ["enumerate", "--chords", "4", "--points", "12", "--list"]
    code, tracer = traced(lambda: cli.run(argv))
    assert code == 0
    assert [span[0] for span in tracer.spans].count("diagrams.enumerate") == 1
    assert tracer.counts["diagrams.enumerated"] == 3840


def test_the_traced_sprinkle_times_and_counts_its_order():
    config = sprinkling.DiamondConfig(2, 30.0, 1.0, 4)
    result, tracer = traced(lambda: sprinkling.sprinkle(config))
    names = [span[0] for span in tracer.spans if span[3] == -1]  # outermost
    assert names == ["sprinkling.sprinkle"]
    names = [span[0] for span in tracer.spans]
    for name in ("sprinkling.causal_matrix", "causet.validate"):
        assert names.count(name) == 1, name
    assert tracer.counts["sprinkling.elements"] == result.causal_set.size


def test_the_traced_estimate_builds_no_order():
    # a trial reads the tip's near set without building or validating the
    # order, so its sampling and scan time fall under the estimate's span
    trials = 3
    argv = ["sprinkle", "--dim", "2", "--density", "30", "--trials", str(trials), "--seed", "4"]
    code, tracer = traced(lambda: cli.run(argv))
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("sprinkling.estimate_box") == 1
    assert names.count("coefficients.operator_constants") == trials
    for name in ("causet.validate", "sprinkling.causal_matrix", "sprinkling.sprinkle"):
        assert name not in names, name
