#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in both modes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For each workload and ``--trace 0|1`` it runs ``run.py --tiny`` and checks
that the last line has exactly the keys correct, attempted, failed and
metrics, that the metric names and units are exactly those
``BENCHMARK.json`` lists for that mode, that every value is a finite number,
and that no op failed (``fail_frac`` is 0).  It then copies
``BENCHMARK.json`` and this directory, without the qstar sources, into a
temporary directory under ``perfbench/out`` and checks that the benchmark
refuses to run there: non-zero exit, no result line.  Exit code 0 means every
check passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"python", "numpy", "nproc", "longdouble_eps", "git_commit", "seed", "warnings"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} failures {report['failures']}")
    if report["fail_frac"]["value"] != 0.0:
        problems.append(f"{where}: fail_frac {report['fail_frac']}")
    if not ENV_KEYS <= set(report["env"]):
        problems.append(f"{where}: environment block lacks {ENV_KEYS - set(report['env'])}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing, extra = set(expected) - set(got), set(got) - set(expected)
        wrong = {k for k in set(got) & set(expected) if got[k] != expected[k]}
        problems.append(f"{where}: missing {sorted(missing)} extra {sorted(extra)} "
                        f"wrong units {sorted(wrong)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    if trace and report["accounting_problems"]:
        problems.append(f"{where}: {report['accounting_problems']}")
    return problems


def check_bare_refusal(spec: dict) -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_bare_refusal(spec)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
