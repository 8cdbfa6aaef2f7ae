"""Fixed-size timings of qstar's public kernels, run with tracing off.

Each kernel is called through its public name on inputs made from the seed
(the cost does not depend on the values drawn).  A kernel is timed in
batches of at least ``BATCH_S`` seconds and its per-call median over
``BATCHES`` batches is reported.  A kernel whose public name is gone is
reported as absent, with value 0, instead of failing the run.

Which workload each kernel serves: the order-8 series and recursion kernels
sit on the random-suite path; the order-32/64 series, ``exp_series``, the
extremal product and formula, membership and the bound catalog sit on the
extremal-interactive path; ``named_functional`` and the disk grid are the
closed-form pieces of the grid suites and of ``y``.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import statistics
import time

BATCH_S = 0.02
BATCHES = 5

UNIT_SCALE = {"us": 1e6, "ms": 1e3}


def per_call(fn) -> float:
    """Median seconds per call of ``fn()`` over ``BATCHES`` timed batches."""
    fn()
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= BATCH_S:
            break
        loops *= 2
    samples = [elapsed / loops]
    for _ in range(BATCHES - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def _kernels(rng: random.Random):
    """(metric name, unit, factory of the zero-argument call)."""
    from qstar import bounds, functionals, schwarz, series, starlike

    def disk(r=1.0):
        return cmath.rect(r * rng.random() ** 0.5, rng.uniform(0.0, math.tau))

    def series_of(order, lead):
        return series.PowerSeries((lead,) + tuple(disk() for _ in range(order)))

    def binary(op, order):
        def make():
            a, b = series_of(order, disk()), series_of(order, 1.0 + 0j)
            return lambda: op(a, b)
        return make

    def exp64():
        g = series.PowerSeries((0j,) + tuple(disk(0.5) for _ in range(64)))
        return lambda: series.exp_series(g)

    def recursion8():
        params = series.ClassParams(0.6 * cmath.exp(0.25j * cmath.pi), 0.25)
        omega = schwarz.schur_expand(schwarz.SchurParams(tuple(disk() for _ in range(5))), 8)
        return lambda: starlike.coeffs_from_schwarz(omega, params, 8)

    def product():
        params = series.ClassParams(0.999)
        return lambda: starlike.extremal_product(params, 64)

    def formula():
        params = series.ClassParams(0.5)
        return lambda: starlike.extremal_by_formula(params, 64)

    def membership():
        f = starlike.extremal_product(series.ClassParams(0.5), 64)
        return lambda: starlike.membership_margin(f, 0.95, 48, 360)

    def bound_rows():
        params = series.ClassParams(0.5)
        queries = []
        for fid in functionals.FunctionalId:
            cases = ((bounds.CaseFlag.A2_ZERO, bounds.CaseFlag.A2_NONZERO)
                     if fid in bounds.CASE_SPLIT_IDS else (None,))
            queries += [bounds.BoundQuery(fid, params, case_flag=c) for c in cases]
        return lambda: [bounds.bound_value(query) for query in queries], len(queries)

    def disk_grid():
        a, b, c = (rng.uniform(-2.0, 2.0) for _ in range(3))
        return lambda: bounds.disk_quadratic_max_grid(a, b, c, 256, 720)

    def named():
        a2, a3, a4 = disk(2.0), disk(3.0), disk(4.0)
        ids = list(functionals.FunctionalId)
        return lambda: [functionals.named_functional(f, a2, a3, a4) for f in ids], len(ids)

    return [
        ("series.mul_us.o8", "us", binary(operator.mul, 8)),
        ("series.mul_us.o32", "us", binary(operator.mul, 32)),
        ("series.mul_us.o64", "us", binary(operator.mul, 64)),
        ("series.div_us.o8", "us", binary(operator.truediv, 8)),
        ("series.div_us.o32", "us", binary(operator.truediv, 32)),
        ("series.div_us.o64", "us", binary(operator.truediv, 64)),
        ("series.exp_us.o64", "us", exp64),
        ("starlike.recursion_us.o8", "us", recursion8),
        ("starlike.product_ms.q0999_n64", "ms", product),
        ("starlike.formula_ms.n64", "ms", formula),
        ("starlike.membership_ms.48x360", "ms", membership),
        ("bounds.bound_value_us", "us", bound_rows),
        ("bounds.disk_grid_ms.256x720", "ms", disk_grid),
        ("functionals.named_us", "us", named),
    ]


def measure(seed: int) -> tuple:
    """({metric name: (value, unit)}, [absent metric names])."""
    values, absent = {}, []
    for name, unit, make in _kernels(random.Random(seed)):
        try:
            made = make()
        except (ImportError, AttributeError):
            values[name] = (0.0, unit)
            absent.append(name)
            continue
        fn, calls = made if isinstance(made, tuple) else (made, 1)
        values[name] = (per_call(fn) / calls * UNIT_SCALE[unit], unit)
    return values, absent
