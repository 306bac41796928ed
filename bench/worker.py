"""One fresh benchmark process: import causetbox, warm up, run the closed loop.

Run as ``python3 bench/worker.py SPEC.json``; ``bench/run.py`` writes the
spec and reads back the result file the spec names.  The set-up clock
starts before ``causetbox`` (and with it numpy) is imported and stops when
the untimed warm-up operation has finished.  In ``setup`` mode the worker
stops there.  In ``loop`` mode it then runs operations back to back, one
client and no think time, until ``seconds`` have passed; with ``trace``
set, every second operation runs with the tracer installed, so traced and
untraced operations share the same stretch of machine time.

The machine is shared and its speed changes within seconds, so the worker
times :func:`reference_kernel` right after the import, after every call
into causetbox once a quarter second has passed since the last sample, and
three times after the warm-up; ``bench/run.py`` scales each call, and the
import, by the samples taken next to it.  Sampling is off every clock: the
set-up time and the operation times count only the import and the calls.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

REFERENCE_INTERVAL_S = 0.25  # least time between two reference samples
# About the reference kernel's time on this machine when it is quiet; it
# only sets the scale of the speed-normalised times.
REFERENCE_NOMINAL_S = 0.030
SETUP_REFERENCES = 3  # reference samples taken right after set-up
PROBE_REFERENCES = 2  # reference samples taken before and after each probe size


def reference_kernel() -> float:
    """Time a fixed piece of work unrelated to causetbox: Python tuple
    sorting, dict updates and integer arithmetic like the combinatorics, and
    a 280x280 int32 matrix product like the causal-set code.  The machine is
    shared, and this time tracks how fast it runs at that moment."""
    import numpy as np

    matrix = (np.arange(280 * 280).reshape(280, 280) % 3 == 0).astype(np.int32)
    start = time.perf_counter()
    for _ in range(2):
        table: dict[int, int] = {}
        for key, value in sorted(((i * 7919) % 1009, i) for i in range(12000)):
            table[key] = table.get(key, 0) + value
        total = 0
        for i in range(20000):
            total += (i * i) % 7
    int((matrix @ matrix).sum())
    return time.perf_counter() - start


class References:
    """Timings of :func:`reference_kernel`, as ``[time since origin, kernel time]``."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.samples: list[list[float]] = []

    def take(self, force: bool = False) -> None:
        """Time the kernel if ``force`` or if REFERENCE_INTERVAL_S has passed."""
        now = time.perf_counter() - self.origin
        if force or not self.samples or now - self.samples[-1][0] >= REFERENCE_INTERVAL_S:
            self.samples.append([now, reference_kernel()])


def _load_package(src: str):
    sys.path.insert(0, src)
    import causetbox.cli
    import causetbox.genseries

    if not os.path.realpath(causetbox.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"causetbox was imported from {causetbox.__file__}, not from {src}")
    return causetbox


def _argv(call: dict, seed: int, output: str) -> list[str]:
    return [arg.replace("{seed}", str(seed)) for arg in call["argv"]] + ["--output", output]


class Runner:
    """Runs the operations of one plan and keeps their outputs by content hash."""

    def __init__(self, package, plan: dict, workdir: str, references: References) -> None:
        self.package = package
        self.plan = plan
        self.references = references
        self.outputs = [os.path.join(workdir, f"out-{i}") for i in range(len(plan["calls"]))]
        self.texts: dict[str, str] = {}

    def run(self, op: int) -> dict:
        """Run operation ``op``.  Its time ``s`` covers only the calls into
        causetbox, whose starts and ends are kept in ``calls``; reference
        samples are taken between them."""
        seed = self.plan["base_seed"] + op
        cli, genseries = self.package.cli, self.package.genseries
        codes, series, calls = [], None, []
        for call, output in zip(self.plan["calls"], self.outputs):
            start = time.perf_counter()
            if "series" in call:
                series = genseries.diagram_series(*call["series"])
                codes.append(0)
            else:
                codes.append(cli.run(_argv(call, seed, output)))
            origin = self.references.origin
            calls.append([start - origin, time.perf_counter() - origin])
            self.references.take()
        elapsed = sum(end - start for start, end in calls)
        hashes = []
        for call, output, code in zip(self.plan["calls"], self.outputs, codes):
            if "series" in call:
                data = json.dumps([list(row) for row in series.coeffs]).encode()
            elif code == call["rc"] and os.path.exists(output):
                with open(output, "rb") as handle:
                    data = handle.read()
                os.remove(output)
            else:
                data = b""
            digest = hashlib.sha1(data).hexdigest()
            self.texts.setdefault(digest, data.decode("utf-8", "replace"))
            hashes.append(digest)
        return {"op": op, "s": elapsed, "calls": calls, "rc": codes, "out": hashes}


def _restricted_counts(package, dims) -> dict:
    diagrams = package.diagrams
    return {str(d): diagrams.count_restricted(*diagrams.restricted_class_parameters(d, 3))
            for d in dims}


PROBE_PARTS = ("validate", "from_relations", "abundances")


def _probe(package, sizes, seed: int, budget_s: float) -> list[dict]:
    """Time validation, closure from a full relation list, and abundances on
    d=2 diamonds of growing size.  Times are speed-normalised with reference
    samples taken just before and just after each size.  A size whose
    normalised time, extrapolated as N**3 from the previous size, would
    exceed ``budget_s`` is not run: its row holds that prediction for every
    part, marked ``predicted``, and so do all larger sizes."""
    import numpy as np

    import workloads

    causet = package.causet
    rng = np.random.default_rng(seed)
    rows, previous = [], None
    for n in sizes:
        row = {"n": n, "n3_ops": n**3, "n2_bytes": n**2}
        if previous is not None:
            scale = (n / previous["n"]) ** 3
            if previous.get("predicted") or previous["total_s"] * scale > budget_s:
                row.update({f"{part}_s": previous[f"{part}_s"] * scale for part in PROBE_PARTS},
                           total_s=previous["total_s"] * scale, predicted=True)
                rows.append(row)
                previous = row
                continue
        order = workloads.minkowski_order(workloads.diamond_coords(rng, 2, n))
        pairs = [tuple(pair) for pair in np.argwhere(order).tolist()]
        references = [reference_kernel() for _ in range(PROBE_REFERENCES)]
        start = time.perf_counter()
        validated = causet.CausalSet(order)
        mid = time.perf_counter()
        closed = causet.from_relations(n, pairs)
        mid2 = time.perf_counter()
        counts = causet.interval_abundances(validated, 3)
        end = time.perf_counter()
        references += [reference_kernel() for _ in range(PROBE_REFERENCES)]
        factor = REFERENCE_NOMINAL_S / statistics.median(references)
        row.update(validate_s=(mid - start) * factor, from_relations_s=(mid2 - mid) * factor,
                   abundances_s=(end - mid2) * factor, total_s=(end - start) * factor,
                   raw_total_s=end - start, references_s=references,
                   correct=bool((closed.precedes == order).all())
                   and list(counts) == workloads.abundances(order, 3))
        rows.append(row)
        previous = row
    return rows


def main() -> None:
    setup_start = time.perf_counter()
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    package = _load_package(spec["src"])
    import_s = time.perf_counter() - setup_start
    references = References(setup_start)
    runner = Runner(package, spec["plan"], spec["workdir"], references)
    references.take(force=True)
    warmup = runner.run(-1)
    for _ in range(SETUP_REFERENCES):
        references.take(force=True)
    result = {"setup_s": import_s + warmup["s"],
              "setup_segments": [[0.0, import_s]] + warmup["calls"],
              "warmup": warmup, "ops": []}
    if spec["mode"] == "loop":
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
        window_start = time.perf_counter()
        op = 0
        while time.perf_counter() - window_start < spec["seconds"]:
            traced = tracer is not None and op % 2 == 1
            if traced:
                tracer.op = op
                tracer.install()
            try:
                record = runner.run(op)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.flush_counts()
            record["traced"] = traced
            result["ops"].append(record)
            op += 1
        result["window_s"] = time.perf_counter() - window_start
        references.take(force=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = result["ops"]
        picks = sorted({ops[k * (len(ops) - 1) // max(spec["plan"]["repeats"] - 1, 1)]["op"]
                        for k in range(spec["plan"]["repeats"])}) if ops else []
        result["repeats"] = [runner.run(op) for op in picks]
        if spec["plan"].get("once"):
            result["once"] = _restricted_counts(package, spec["plan"]["once"])
        if tracer is not None:
            result["counts"] = tracer.counts
            result["missing_targets"] = tracer.missing
            tracer.dump(spec["spans_path"])
        if spec["trace"] and "probe_n" in spec["plan"]:
            result["probe"] = _probe(package, spec["plan"]["probe_n"], spec["plan"]["base_seed"],
                                     spec["probe_budget_s"])
    result["references"] = references.samples
    result["texts"] = runner.texts
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
