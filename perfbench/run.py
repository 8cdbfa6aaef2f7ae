#!/usr/bin/env python3
"""qstar benchmark: time to a verified report, and where that time goes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one process and one client in a closed loop: the client
calls ``qstar.cli.run`` in-process with the next op only after the previous
one has returned and its output has passed the checks in ``workloads.py``.
BLAS/OpenMP threads are capped at the number of usable cores.

Workloads, and why each is here (see ``workloads.py`` for the job lists):

* ``grid-sharpness`` -- ``verify --suite initial|hankel|toeplitz`` at
  q = 0.5 and 0.8 on the default grid: the (b1, x, y) sweep in ``search``
  (about 93% of its time).  No random draws, no series arithmetic.
* ``random-suite`` -- ``verify --suite parseval`` on the six criterion-8
  classes: ``series``/``schwarz``/recursion at order 8, many times per call,
  including the extended-precision re-checks at zeta = -0.5, alpha = 0.
  No grid.
* ``extremal-interactive`` -- hundreds of 2-120 ms calls (``bounds``,
  self-checked ``extremal`` up to order 64 and q = 0.999, ``membership``,
  ``y``): ``series`` at order 32-64, the three extremal routes, the
  membership and disk grids, and the CLI's parse/format overhead.  No
  ``search``.  The only workload with enough ops for a high percentile.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing: ``setup_s`` (median over fresh interpreters of the time from start
to the first op's checked result), ``wall_s`` (median time of one pass over
the job list), ``op_s.p50`` and ``op_s.tail`` (per-call latency; the tail is
the highest percentile with at least 10 samples beyond it, i.e. the 11th
slowest call, else the maximum), ``ops_per_s`` and ``peak_rss_mb``.

With ``--trace 1`` the run repeats the same passes untraced and then traced
(``tracer.py``) and reports per pass: ``<layer>.calls``, ``<layer>.self_s``
and ``<layer>.share`` (self time over traced wall) for each qstar module,
``bench.self_s``/``bench.share`` (the benchmark's own residual, so the
shares add up to 1), exact work counts, the fixed-size kernels of
``kernels.py`` and ``trace.overhead`` (traced over untraced wall, minus 1).
Which end-to-end metric each should move: ``search.share``,
``search.grid.points`` and ``search.grid.ns_per_point`` move ``wall_s`` on
grid-sharpness; ``schwarz.share`` + ``series.share``, ``search.suite.*`` and
``schwarz.schur_expand.us_per_call`` move ``wall_s`` on random-suite;
``cli.share`` + ``starlike.share`` and the order-32/64 kernels move
``op_s.*`` on extremal-interactive.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a report with the environment, the tail's rank and
sample count, verdict tallies, ``fail_frac`` and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh interpreters started to measure set-up time
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_cli():
    """qstar.cli from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qstar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qstar package under {src}")
    sys.path.insert(0, str(src))
    import qstar.cli

    if Path(qstar.__file__).resolve().parent != (src / "qstar").resolve():
        raise SystemExit(f"perfbench: imported qstar from {qstar.__file__}, not {src}")
    return qstar.cli


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    eps = float(np.finfo(np.longdouble).eps)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "longdouble_eps": eps,
        "git_commit": _git_commit(),
        "seed": seed,
        "warnings": [],
    }
    if eps >= 1e-16:
        env["warnings"].append(
            f"longdouble eps {eps:.3g} >= 1e-16: numpy's longdouble is no wider than "
            "double here, so the suite's absolute slack loses its meaning"
        )
    return env


def tail(samples) -> dict:
    """The highest percentile with at least 10 samples beyond it.

    That is the sample of rank n - 10 (the 11th slowest), so the tail stays
    on the same op kind when a faster or slower host changes n.  With 10
    samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "rank": rank, "n": n}


class Client:
    """Sends ops to ``qstar.cli.run`` one at a time and checks each answer."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.tally = Counter()

    def call(self, op) -> float:
        """Run one op; returns its latency and records any failure."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.run(op.argv)
            except Exception as exc:  # a raising op is a failed op, not a crash
                rc, problem = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
        if problem is None:
            try:
                self.tally.update(op.check(out.getvalue()))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"check: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append({"argv": op.argv, "problem": problem})
        return latency

    def run_passes(self, ops, min_seconds: float = 0.0, passes: int | None = None):
        """Whole passes until ``min_seconds`` have elapsed, or exactly ``passes``."""
        walls, latencies = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            latencies += [self.call(op) for op in ops]
            walls.append(time.perf_counter() - t0)
            if len(walls) == passes or (
                    passes is None and time.perf_counter() - start >= min_seconds):
                return walls, latencies


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its first checked result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def end_to_end(args, client, workload) -> tuple:
    setups = [probe_setup(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    for op in workload.warmup:
        client.call(op)
    walls, latencies = client.run_passes(workload.ops, args.seconds)
    op_tail = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": op_tail["value"],
        "ops_per_s": len(latencies) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(walls),
        "ops_per_pass": len(workload.ops),
        "setup_samples_s": setups,
        "tail": {k: v for k, v in op_tail.items() if k != "value"},
        "op_s.p50_by_kind": {
            kind: statistics.median(t for op, t in zip(workload.ops * len(walls), latencies)
                                    if op.kind == kind)
            for kind in sorted({op.kind for op in workload.ops})
        },
    }
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, detail


def per_layer(args, client, workload) -> tuple:
    import kernels
    from tracer import LAYERS, Tracer

    for op in workload.warmup:
        client.call(op)
    plain, _ = client.run_passes(workload.ops, min_seconds=args.seconds / 2.0)
    passes = len(plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = client.run_passes(workload.ops, passes=passes)
    finally:
        tracer.remove()
    wall = sum(traced)
    summary = tracer.summary(wall)
    names = summary["names"]

    def incl(label):
        return names.get(label, {}).get("incl_s", 0.0)

    points = tracer.counts.get("qstar.search.maximize_functional", 0)
    samples = tracer.counts.get("qstar.cli.random_schwarz_suite", 0)
    expands = names.get("qstar.search.schur_expand", {}).get("calls", 0)
    m = {}
    for layer in LAYERS:
        stats = summary["layers"][layer]
        m[f"{layer}.calls"] = (stats["calls"] / passes, "count")
        m[f"{layer}.self_s"] = (stats["self_s"] / passes, "s")
        m[f"{layer}.share"] = (stats["self_s"] / wall, "ratio")
    m["bench.self_s"] = (summary["residual_s"] / passes, "s")
    m["bench.share"] = (summary["residual_s"] / wall, "ratio")
    m["search.grid.points"] = (points / passes, "count")
    m["search.grid.ns_per_point"] = (
        incl("qstar.search.maximize_functional") / points * 1e9 if points else 0.0, "ns")
    m["search.suite.samples"] = (samples / passes, "count")
    m["search.suite.us_per_sample"] = (
        incl("qstar.cli.random_schwarz_suite") / samples * 1e6 if samples else 0.0, "us")
    m["schwarz.schur_expand.us_per_call"] = (
        incl("qstar.search.schur_expand") / expands * 1e6 if expands else 0.0, "us")
    m["trace.overhead"] = (wall / sum(plain) - 1.0, "ratio")

    kernel_values, kernel_absent = kernels.measure(args.seed)
    m.update(kernel_values)

    tracer.write(OUT / f"{workload.name}.spans.npz")
    accounted = sum(s["self_s"] for s in summary["layers"].values()) + summary["residual_s"]
    problems = []
    if summary["min_self_s"] < -1e-9 or summary["residual_s"] < -1e-9:
        problems.append("a span's children outlast it: self time below zero")
    if abs(accounted - wall) > 1e-6 * wall:
        problems.append(f"layer self times plus residual {accounted} != traced wall {wall}")
    detail = {
        "passes": passes,
        "ops_per_pass": len(workload.ops),
        "untraced_wall_s": sum(plain),
        "traced_wall_s": wall,
        "spans": summary["spans"],
        "spans_file": str((OUT / f"{workload.name}.spans.npz").relative_to(ROOT)),
        "absent_names": tracer.absent,
        "absent_layers": summary["absent_layers"],
        "absent_kernels": kernel_absent,
        "accounting_problems": problems,
        "by_name": names,
    }
    return m, detail


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest job lists and one set-up probe, for the self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = _cap_threads()
    cli = _import_cli()
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.tiny, OUT)
    client = Client(cli)

    if args.probe:
        client.call(workload.ops[0])
        if client.failures:
            raise SystemExit(f"perfbench: first op failed: {client.failures[0]}")
        print(time.monotonic())
        return 0

    env = environment(args.seed, nproc)
    if args.trace:
        metrics, detail = per_layer(args, client, workload)
    else:
        metrics, detail = end_to_end(args, client, workload)
    failed = len(client.failures)
    problems = detail.get("accounting_problems", [])
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "fail_frac": {"value": failed / client.attempted, "unit": "ratio"},
        "verdicts": dict(sorted(client.tally.items())),
        "failures": client.failures[:5],
        **detail,
    }
    for warning in env["warnings"]:
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
