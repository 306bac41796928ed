"""Spans around the calls into each causetbox module, and the per-layer metrics.

The tracer wraps public functions of the package from outside: it swaps
each module attribute (and every alias of it that another causetbox module
imported) for a wrapper that records a span ``[name, start, end, parent,
op]``, and swaps the originals back on ``uninstall``.  Spans stay in memory
until the run ends.  Counters are computed from the recorded arguments and
results after the operation's clock has stopped, so they add nothing to any
span.

Self time is a span's duration minus the durations of its direct children.
A "total" metric sums only the outermost span of its name, so a function
that calls itself through a wrapper is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import numpy as np

# (module, attribute, span name, counter).  A dotted attribute names a method.
TARGETS = [
    ("causetbox.cli", "run", "cli.run", None),
    ("json", "load", "cli.json_load", None),
    ("json", "loads", "cli.json_load", None),
    ("causetbox.causet", "CausalSet.__post_init__", "causet.validate", "order"),
    ("causetbox.causet", "load_causal_set", "causet.load", None),
    ("causetbox.causet", "from_relations", "causet.from_relations", "input_pairs"),
    ("causetbox.causet", "interval_abundances", "causet.abundances", None),
    ("causetbox.causet", "gravitational_action", "causet.action", None),
    ("causetbox.causet", "layer_sums", "causet.layer_sums", None),
    ("causetbox.causet", "box_operator", "causet.box", "tip_layers"),
    ("causetbox.sprinkling", "estimate_box", "sprinkling.estimate_box", None),
    ("causetbox.sprinkling", "sprinkle", "sprinkling.sprinkle", "elements"),
    ("causetbox.sprinkling", "_sprinkle_with_rng", "sprinkling.sprinkle", "elements"),
    ("causetbox.sprinkling", "causal_matrix", "sprinkling.causal_matrix", None),
    ("causetbox.sprinkling", "field_values", "sprinkling.field_values", None),
    ("causetbox.coefficients", "num_layers", "coefficients.num_layers", None),
    ("causetbox.coefficients", "layer_coefficient", "coefficients.layer_coefficient", None),
    ("causetbox.coefficients", "scaled_coefficient", "coefficients.scaled_coefficient", None),
    ("causetbox.coefficients", "operator_constants", "coefficients.operator_constants", None),
    ("causetbox.coefficients", "alpha_over_beta", "coefficients.alpha_over_beta", None),
    ("causetbox.coefficients", "coefficient_table", "coefficients.coefficient_table", None),
    ("causetbox.diagrams", "enumerate_diagrams", "diagrams.enumerate", "enumerated"),
    ("causetbox.diagrams", "count_restricted", "diagrams.count_restricted", "restricted"),
    ("causetbox.diagrams", "verify_coefficient_count", "diagrams.verify_count", None),
    ("causetbox.diagrams", "verify_cancellation", "diagrams.verify_cancellation", None),
    ("causetbox.genseries", "diagram_series", "genseries.series", None),
    ("causetbox.evenstrings", "count_constrained_strings", "evenstrings.strings", None),
    ("causetbox.evenstrings", "count_constrained_paths", "evenstrings.paths", None),
]

TIP_LAYERS = 3  # layer populations reported at the tip; d = 2 has three layers

# metric -> (kind, span name).  "self" and "total" are per-operation sums in ms.
TIMINGS = {
    "sprinkling.sample_ms": ("self", "sprinkling.sprinkle"),
    "sprinkling.causal_matrix_ms": ("total", "sprinkling.causal_matrix"),
    "sprinkling.field_values_ms": ("total", "sprinkling.field_values"),
    "causet.validate_ms": ("total", "causet.validate"),
    "causet.from_relations_ms": ("self", "causet.from_relations"),
    "causet.abundances_ms": ("total", "causet.abundances"),
    "causet.action_self_ms": ("self", "causet.action"),
    "causet.load_self_ms": ("self", "causet.load"),
    "causet.layer_sums_ms": ("total", "causet.layer_sums"),
    "causet.box_self_ms": ("self", "causet.box"),
    "coefficients.per_box_ms": ("under", "causet.box"),
    "coefficients.table_ms": ("total", "coefficients.coefficient_table"),
    "diagrams.enumerate_ms": ("total", "diagrams.enumerate"),
    "diagrams.restricted_filter_ms": ("self", "diagrams.count_restricted"),
    "diagrams.cancellation_ms": ("self", "diagrams.verify_cancellation"),
    "genseries.series_ms": ("total", "genseries.series"),
    "evenstrings.strings_ms": ("total", "evenstrings.strings"),
    "evenstrings.paths_ms": ("total", "evenstrings.paths"),
    "cli.self_ms": ("self", "cli.run"),
    "cli.json_load_ms": ("total", "cli.json_load"),
}

COUNTS = [
    "sprinkling.elements",
    "causet.relations",
    "causet.input_pairs",
    "causet.order_bytes",
    *(f"causet.tip_layer_pop.{i}" for i in range(1, TIP_LAYERS + 1)),
    "diagrams.enumerated",
    "diagrams.restricted_accept_ratio",
]


def _resolve(owner, attr: str):
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Records spans for the calls listed in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pending: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self.patches: list[tuple] = []
        self.missing: list[str] = []
        for module_name, attr, span, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, last = _resolve(module, attr)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, counter, original)
            self.patches.append((owner, last, original, wrapper))
            if inspect.isfunction(original) and "." not in attr:
                for alias_module in [m for n, m in sys.modules.items() if n.startswith("causetbox")]:
                    for name, value in list(vars(alias_module).items()):
                        if value is original and alias_module is not owner:
                            self.patches.append((alias_module, name, original, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self.patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self.patches):
            setattr(owner, name, original)

    def _wrap(self, span: str, counter: str | None, original):
        signature = inspect.signature(original) if counter else None

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [span, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if counter:
                self.pending.append((index, counter, signature, args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def flush_counts(self) -> None:
        """Turn the recorded arguments and results into counters."""
        counts = self.counts
        for index, counter, signature, args, kwargs, result in self.pending:
            if not _outermost(self.spans, index):
                continue
            bound = signature.bind(*args, **kwargs).arguments
            if counter == "order":
                order = bound["self"].precedes
                _add(counts, "causet.relations", int(np.count_nonzero(order)))
                _add(counts, "causet.order_bytes", order.shape[0] ** 2)
            elif counter == "input_pairs" and hasattr(bound["pairs"], "__len__"):
                _add(counts, "causet.input_pairs", len(bound["pairs"]))
            elif counter == "elements":
                _add(counts, "sprinkling.elements", result.causal_set.size)
            elif counter == "tip_layers":
                order, x = bound["causal_set"].precedes, bound["x"]
                below = np.flatnonzero(order[:, x])
                between = order[np.ix_(below, below)].sum(axis=1)
                pops = np.bincount(between, minlength=TIP_LAYERS)[:TIP_LAYERS]
                for i, pop in enumerate(pops, start=1):
                    _add(counts, f"causet.tip_layer_pop.{i}", int(pop))
                _add(counts, "box_calls", 1)
            elif counter == "enumerated":
                _add(counts, "diagrams.enumerated", len(result))
                parent = self.spans[index][3]
                if parent >= 0 and self.spans[parent][0] == "diagrams.count_restricted":
                    _add(counts, "enumerated_for_filter", len(result))
            elif counter == "restricted":
                _add(counts, "diagrams.restricted", result)
        self.pending.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _outermost(spans: list[list], index: int) -> bool:
    """Whether no ancestor of span ``index`` has the same name."""
    name, parent = spans[index][0], spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(spans: list[list], counts: dict, n_ops: int,
                  factors: dict[int, float]) -> dict[str, float]:
    """Per-operation means of the timings and counters, by metric name.
    Each span's duration is scaled by its operation's speed factor."""
    duration = [(end - start) * factors.get(op, 1.0) for _, start, end, _, op in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[index]
    sums: dict[tuple, float] = {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        _add(sums, ("self", name), duration[index] - child_time[index])
        if _outermost(spans, index):
            _add(sums, ("total", name), duration[index])
        if parent >= 0 and name.startswith("coefficients."):
            _add(sums, ("under", spans[parent][0]), duration[index])
    per_op = max(n_ops, 1)
    metrics = {key: 1000.0 * sums.get(kind_span, 0.0) / per_op
               for key, kind_span in TIMINGS.items()}
    for key in COUNTS:
        metrics[key] = counts.get(key, 0) / per_op
    box_calls = counts.get("box_calls", 0)
    for i in range(1, TIP_LAYERS + 1):
        key = f"causet.tip_layer_pop.{i}"
        metrics[key] = counts.get(key, 0) / box_calls if box_calls else 0.0
    filtered = counts.get("enumerated_for_filter", 0)
    metrics["diagrams.restricted_accept_ratio"] = (
        counts.get("diagrams.restricted", 0) / filtered if filtered else 0.0)
    return metrics
