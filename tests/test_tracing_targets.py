"""The benchmark's tracer must find every function it wraps.

``bench/tracing.py`` times and counts calls by module attribute name and
binds some arguments by parameter name; a rename would silently turn a
per-layer metric into 0 ms.  Building the tracer, without installing it,
resolves every target; installing it around one listing shows that the
CLI's call reaches a wrapped target, and around one sprinkle that every
trial is timed and its elements counted.
"""

import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

import numpy as np

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


def test_the_traced_sprinkle_times_and_counts_every_trial():
    trials, seed = 3, 4
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["sprinkle", "--dim", "2", "--density", "30", "--trials",
                            str(trials), "--seed", str(seed)])
    finally:
        tracer.uninstall()
    tracer.flush_counts()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    for name in ("sprinkling.sprinkle", "sprinkling.causal_matrix", "causet.validate"):
        assert names.count(name) == trials, name
    config = sprinkling.DiamondConfig(2, 30.0, 1.0, seed)
    sizes = []
    for trial in range(trials):  # the child streams estimate_box derives
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        rng = np.random.Generator(np.random.Philox(sequence))
        sizes.append(sprinkling._sprinkle_with_rng(config, rng).causal_set.size)
    assert tracer.counts["sprinkling.elements"] == sum(sizes)
