"""Run one workload of the causetbox benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``./src``
and nowhere else.  The parent process builds the workload's inputs from
``--seed``, starts fresh worker processes (``bench/worker.py``) that import
``causetbox`` and run the operations, then checks every output against the
oracles in ``bench/workloads.py``.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary.  The full record, with latencies, fingerprint and
(traced) spans, is written under ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_PARTS, REFERENCE_NOMINAL_S

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4  # fresh processes whose set-up time is measured per run
RUN_DEADLINE_S = 170.0
PROBE_BUDGET_S = 20.0
NEIGHBOURHOOD_S = 0.3  # reference samples this near a call set its speed factor
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _limit_threads(nproc: int) -> dict[str, str]:
    """Keep BLAS and OpenMP thread pools at or below the usable core count."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def fingerprint(threads: dict[str, str]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    ram_gb = cpu = None
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    ram_gb = round(int(line.split()[1]) / 2**20, 2)
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": ram_gb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "threads": threads,
        "loadavg": list(os.getloadavg()),
    }


def _worker(spec: dict, spec_path: Path, deadline: float) -> dict:
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({spec['mode']}) did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({spec['mode']}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(spec["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def normalised(spans: list[list[float]], references: list[list[float]]) -> float:
    """The summed length of ``[start, end]`` spans, each scaled by
    REFERENCE_NOMINAL_S over the mean reference-kernel time within
    NEIGHBOURHOOD_S of it (or the nearest sample)."""
    total = 0.0
    for start, end in spans:
        near = [r for t, r in references if start - NEIGHBOURHOOD_S <= t <= end + NEIGHBOURHOOD_S]
        if not near:
            near = [min(references, key=lambda ref: abs(ref[0] - end))[1]]
        total += (end - start) * REFERENCE_NOMINAL_S / statistics.fmean(near)
    return total


def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples beyond
    it, as ``(value, percentile)``.  With fewer than 20 samples that
    percentile is below the median, so the median is reported as p50."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if 2 * rank < len(ordered):
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Checker:
    """Applies the workload's oracles, caching verdicts by output hash."""

    def __init__(self, workloads, name: str, plan: dict, ctx: dict, texts: dict) -> None:
        self.workloads, self.name, self.plan, self.ctx, self.texts = workloads, name, plan, ctx, texts
        self.cache: dict[tuple, list[str]] = {}
        self.problems: list[str] = []

    def op_ok(self, record: dict) -> bool:
        problems = []
        for index, (call, code, digest) in enumerate(zip(self.plan["calls"], record["rc"],
                                                           record["out"])):
            if code != call.get("rc", 0):
                problems.append(f"call {index}: exit code {code}, expected {call.get('rc', 0)}")
                continue
            key = (index, digest)
            if key not in self.cache:
                self.cache[key] = self.workloads.check_call(
                    self.name, self.plan, self.ctx, index, self.texts[digest])
            problems += self.cache[key]
        if len(record["rc"]) != len(self.plan["calls"]):
            problems.append("operation made the wrong number of calls")
        return self.note(record["op"], problems)

    def note(self, op, problems: list[str]) -> bool:
        if problems and len(self.problems) < 20:
            self.problems.append(f"op {op}: {'; '.join(problems[:3])}")
        return not problems


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: str,
                  root: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    src = root / "src"
    if not (src / "causetbox" / "__init__.py").is_file():
        raise BenchError(f"no causetbox package under {src}; run from the root of a checkout")
    threads = _limit_threads(len(os.sched_getaffinity(0)))
    os.environ["PYTHONHASHSEED"] = "0"
    import workloads

    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    compileall.compile_dir(str(src / "causetbox"), quiet=1)
    results_dir = root / ".bench_run" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = root / ".bench_run" / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        input_start = time.perf_counter()
        plan, ctx = workloads.prepare(name, seed, workdir, size)
        input_s = time.perf_counter() - input_start
        base = {"src": str(src), "plan": plan, "workdir": str(workdir), "seconds": seconds,
                "trace": trace, "probe_budget_s": PROBE_BUDGET_S,
                "spans_path": str(results_dir / f"{tag}.spans.json")}
        setups = []
        for sample in range(0 if trace else SETUP_SAMPLES - 1):
            spec = dict(base, mode="setup", result_path=str(workdir / f"setup-{sample}.json"))
            setups.append(_worker(spec, workdir / f"setup-{sample}.spec.json", deadline))
        spec = dict(base, mode="loop", result_path=str(workdir / "loop.json"))
        main = _worker(spec, workdir / "loop.spec.json", deadline)
        record = summarize(workloads, name, plan, ctx, main, setups, trace,
                           results_dir / f"{tag}.spans.json")
        record.update(workload=name, seed=seed, seconds=seconds, trace=trace, size=size,
                      input_s=input_s, wall_s=time.monotonic() - started)
        record["fingerprint"] = fingerprint(threads)
        with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(workloads, name: str, plan: dict, ctx: dict, main: dict, setups: list[dict],
              trace: bool, spans_path: Path) -> dict:
    texts = dict(main["texts"])
    for setup in setups:
        texts.update(setup["texts"])
    checker = Checker(workloads, name, plan, ctx, texts)
    attempted = failed = 0

    def count(ok: bool) -> bool:
        nonlocal attempted, failed
        attempted += 1
        failed += not ok
        return ok

    ops = main["ops"]
    op_ok = [count(checker.op_ok(record)) for record in ops]
    reference = main["warmup"]["out"]
    count(checker.op_ok(main["warmup"]))
    for setup in setups:  # the same warm-up in another fresh process must give the same bytes
        same = setup["warmup"]["out"] == reference
        if not same:
            checker.note("warm-up", ["output differs between fresh processes"])
        count(checker.op_ok(setup["warmup"]) and same)
    by_op = {record["op"]: record for record in ops}
    for repeat in main.get("repeats", []):
        same = repeat["out"] == by_op[repeat["op"]]["out"]
        if not same:
            checker.note(repeat["op"], ["repeat with the same seed gave different bytes"])
        count(checker.op_ok(repeat) and same)
    if "once" in main:
        problems = workloads.check_once(name, ctx, main["once"])
        checker.note("once", problems)
        count(not problems)

    if trace and main["missing_targets"]:
        checker.note("tracer", ["functions to trace not found: "
                                + ", ".join(main["missing_targets"])])
        count(False)
    for row in main.get("probe", []):
        if "correct" in row:
            if not row["correct"]:
                checker.note("probe", [f"probe result wrong at N={row['n']}"])
            count(row["correct"])

    # Per operation, its normalised time over its raw time.
    factors = [normalised(r["calls"], main["references"]) / r["s"] for r in ops]
    untraced = [(r["s"], f) for r, f in zip(ops, factors) if not r["traced"]]
    raw = [s for s, _ in untraced]
    norm = [s * f for s, f in untraced]
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "problems": checker.problems, "window_s": main["window_s"], "ops": len(ops),
              "latencies_s": [r["s"] for r in ops], "ends_s": [r["calls"][-1][1] for r in ops],
              "traced": [r["traced"] for r in ops], "speed_factors": factors,
              "references": main["references"]}
    if not trace:
        setup_raw = [main["setup_s"]] + [s["setup_s"] for s in setups]
        setup_norm = [normalised(w["setup_segments"], w["references"]) for w in [main] + setups]
        correct_ops = sum(ok for ok, r in zip(op_ok, ops) if not r["traced"])
        tail, tail_pct = latency_tail(norm)
        raw_tail, _ = latency_tail(raw)
        record["metrics"] = {
            "ops_per_s": correct_ops / sum(norm),
            "latency_p50_ms": 1000.0 * statistics.median(norm),
            "latency_tail_ms": 1000.0 * tail,
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        record["units"] = dict(END_TO_END_UNITS)
        record["details"] = {
            "latency_tail_percentile": tail_pct, "latency_samples": len(norm),
            "setup_samples_s": setup_raw, "setup_normalised_s": setup_norm,
            "setup_references": [w["references"] for w in setups],
            "error_rate": failed / attempted,
            "raw": {"ops_per_s": correct_ops / main["window_s"],
                    "latency_p50_ms": 1000.0 * statistics.median(raw),
                    "latency_tail_ms": 1000.0 * raw_tail,
                    "setup_s": statistics.median(setup_raw)},
        }
    else:
        import tracing

        traced = [r["s"] * f for r, f in zip(ops, factors) if r["traced"]]
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        by_op = {r["op"]: f for r, f in zip(ops, factors)}
        layer = tracing.layer_metrics(spans, main["counts"], len(traced), by_op)
        layer["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(norm) - 1.0)
            if traced and norm else 0.0)
        layer["trace.op_ms"] = 1000.0 * statistics.median(traced) if traced else 0.0
        probe = {row["n"]: row for row in main.get("probe", [])}
        # A full-size run has a row for every size; only the smoke tests'
        # tiny size, which probes smaller ones, reads 0 here.
        for n in workloads.SIZES["full"]["probe_n"]:
            for part in PROBE_PARTS:
                layer[f"probe.n{n}.{part}_ms"] = 1000.0 * probe.get(n, {}).get(f"{part}_s", 0.0)
        record["metrics"] = layer
        record["units"] = {key: layer_unit(key) for key in layer}
        record["details"] = {"untraced_ops": len(norm), "traced_ops": len(traced),
                             "spans": len(spans), "missing_targets": main["missing_targets"],
                             "probe": main.get("probe", [])}
    return record


def layer_unit(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def print_summary(record: dict) -> None:
    print(f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['ops']} operations in {record['window_s']:.2f} s, closed loop, one client")
    details = record["details"]
    for key, value in record["metrics"].items():
        note = ""
        if key == "latency_tail_ms":
            note = (f"  (p{details['latency_tail_percentile']:.1f} of "
                    f"{details['latency_samples']} samples)")
        elif key == "setup_s":
            note = f"  (median of {len(details['setup_samples_s'])} fresh processes)"
        print(f"  {key:40s} {value:14.6g} {record['units'][key]}{note}")
    for key, value in details.get("raw", {}).items():
        print(f"  {'raw.' + key:40s} {value:14.6g} {END_TO_END_UNITS[key]}  (not speed-normalised)")
    if "error_rate" in details:
        print(f"  {'error_rate':40s} {details['error_rate']:14.6g} ratio"
              f"  ({record['failed']} of {record['attempted']} attempted)")
    for row in details.get("probe", []):
        how = "not run, predicted as N^3" if row.get("predicted") else "measured"
        print(f"  probe N={row['n']} ({how}, speed-normalised): validate {row['validate_s']:.4f} s, "
              f"from_relations {row['from_relations_s']:.4f} s, abundances "
              f"{row['abundances_s']:.4f} s (N^3 = {row['n3_ops']:.3g} ops, "
              f"N^2 = {row['n2_bytes']:.3g} bytes)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="operation size; 'tiny' is for the smoke tests only")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.size, Path.cwd())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(record)
    metrics = {key: {"value": value, "unit": record["units"][key]}
               for key, value in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
