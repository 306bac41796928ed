"""Smoke tests of the benchmark itself.

    python3 bench/smoke.py

Run from the root of a checkout.  Each workload runs at its tiny size, with
and without tracing, and must report every metric ``BENCHMARK.json`` names
with no failures, and the tracer must find every function it is meant to
wrap; a perturbed copy of every output must fail its oracle; and
the benchmark must refuse to run where there is no package to measure.
Exits 0 when every test passes.  The file is not named ``test_*.py`` so the
package's own test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


# A seed no real run uses, so the tiny runs' records do not replace theirs.
SEED = "999983"


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_report_every_metric() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-800:]}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout[-800:]}"
            assert set(result["metrics"]) == names[trace], (
                workload, trace, set(result["metrics"]) ^ names[trace])
            if trace:
                record_path = ROOT / ".bench_run" / "results" / f"{workload}-seed{SEED}-trace1.json"
                with open(record_path, encoding="utf-8") as handle:
                    missing = json.load(handle)["details"]["missing_targets"]
                assert not missing, f"{workload}: tracer targets not found: {missing}"


def _perturb(text: str) -> str:
    """Change the last digit of ``text``."""
    index = max(i for i, char in enumerate(text) if char.isdigit())
    return text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1:]


def test_perturbed_outputs_fail() -> None:
    """Every call's real output passes its oracle and a perturbed copy fails."""
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
    try:
        for workload in workloads.WORKLOADS:
            plan, ctx = workloads.prepare(workload, int(SEED), work, "tiny")
            spec = {"src": str(ROOT / "src"), "plan": plan, "workdir": str(work), "seconds": 0,
                    "trace": False, "probe_budget_s": 0, "spans_path": str(work / "spans"),
                    "mode": "setup", "result_path": str(work / "result.json")}
            result = run._worker(spec, work / "spec.json", time.monotonic() + 120)
            checker = run.Checker(workloads, workload, plan, ctx, result["texts"])
            assert checker.op_ok(result["warmup"]), (workload, checker.problems)
            for index, digest in enumerate(result["warmup"]["out"]):
                bad = _perturb(result["texts"][digest])
                problems = workloads.check_call(workload, plan, ctx, index, bad)
                assert problems, f"{workload} call {index}: perturbed output passed"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("mc_box", 0, cwd=Path(bare))
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout


def test_latency_tail() -> None:
    samples = [float(i) for i in range(1, 101)]
    assert run.latency_tail(samples) == (90.0, 90.0)
    assert run.latency_tail(samples[:15]) == (8.0, 50.0)


def main() -> int:
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
