"""Seeded job lists for the benchmark's workloads, and the check on each op.

A workload is a list of ops that one client sends to ``qstar.cli.run`` in
order, each after the previous one has returned (a closed loop).  The list is
made from the workload seed alone and is repeated unchanged on every pass, so
the per-pass counts the tracer reports are exact.

Every check reads the op's JSON output and raises :class:`CheckFailed` when
the output is wrong.  The checks compare against independent facts (the
closed forms a2 = (2 - 2 alpha)/zeta and |a2| <= 2/q, the grid being a lower
bound of the disk maximum, the forced w = z sample attaining the product
bound) and against tolerances, never against a byte digest: a correct
optimisation may move the last printed digits.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: gap tolerances of the verifier's own verdicts (search.VIOLATION_TOL, ATTAIN_TOL)
VIOLATION_TOL = -1e-9
ATTAIN_TOL = 1e-2

#: report items each grid suite must produce
GRID_ITEMS = {
    "initial": {"abs_a2", "abs_a3", "abs_a4"},
    "hankel": {"fekete_a2a3_a4", "h1_2", "h2_2", "h2_2[b1=0]"},
    "toeplitz": {"t1_2", "t2_2", "t3_2", "t1_3", "t2_3", "t2_3[b1=0]"},
}

#: grid items the verifier reports as `consistent`, not `attained`: the
#: unrotated b1 = 0 slice does not reach the a2 = 0 case bound of T3(2).
#: They are checked for "no violation" only, and their verdicts are tallied.
NOT_ATTAINED = {"t2_3[b1=0]"}

#: the criterion-8 classes of the randomized suite
SUITE_CLASSES = tuple(
    (zeta, alpha)
    for zeta in (0.6 * cmath.exp(1j * math.pi / 4), 0.9j, -0.5 + 0j)
    for alpha in (0.0, 0.25)
)

#: orders, methods and the q of the expensive extremal product
EXTREMAL_ORDERS = (8, 16, 32, 64)
EXTREMAL_METHODS = ("recursion", "product", "formula")
SLOW_Q = 0.999

#: membership threshold used by ``qstar membership``
MEMBER_TOL = -1e-6


class CheckFailed(ValueError):
    """An op's output broke one of the benchmark's semantic checks."""


@dataclass
class Op:
    """One CLI call; ``check`` validates stdout and returns verdict tallies."""

    kind: str
    argv: list
    check: Callable[[str], Counter]


@dataclass
class Workload:
    name: str
    ops: list  # one pass of the job list; ops[0] is the first op a fresh process sends
    warmup: list  # run once, untimed, before the first timed pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _zeta_args(zeta: complex, alpha: float) -> list:
    if zeta.imag == 0.0 and 0.0 < zeta.real < 1.0 and alpha == 0.0:
        return ["--q", repr(zeta.real)]
    # the = form keeps argparse from reading a negative part as a flag
    return [f"--zeta={zeta.real!r},{zeta.imag!r}", "--alpha", repr(alpha)]


# ----------------------------------------------------------------------
# grid-sharpness


def _check_grid(suite: str):
    def check(out: str) -> Counter:
        items = json.loads(out)["items"]
        names = [it["name"] for it in items]
        _require(set(names) == GRID_ITEMS[suite] and len(names) == len(GRID_ITEMS[suite]),
                 f"{suite} items {names}")
        tally = Counter()
        for it in items:
            gap, verdict = it["gap"], it["verdict"]
            _require(verdict != "VIOLATION", f"{it['name']} VIOLATION")
            _require(_finite(gap) and gap >= VIOLATION_TOL, f"{it['name']} gap {gap}")
            if it["name"] not in NOT_ATTAINED:
                _require(verdict == "attained" and gap <= ATTAIN_TOL,
                         f"{it['name']} {verdict} gap {gap}")
            tally[f"{it['name']}:{verdict}"] += 1
        return tally

    return check


def grid_sharpness(seed: int, tiny: bool) -> Workload:
    """The three grid suites at q = 0.5 and 0.8 on the default grid.

    The job list opens with a toeplitz call, the cheapest op that still runs
    the grid kernel (its t2_3 slice), so set-up time is not dominated by a
    9 s hankel search; the other ops follow in seeded order.
    """
    rng = random.Random(seed)
    qs = [0.5, 0.8]
    rng.shuffle(qs)
    if tiny:
        qs = qs[:1]
    grid = ["--grid", "coarse"] if tiny else []

    def op(suite, q):
        argv = ["verify", "--suite", suite, "--q", repr(q), "--format", "json",
                "--seed", str(seed)] + grid
        return Op(f"verify.{suite}", argv, _check_grid(suite))

    rest = [(s, q) for s in GRID_ITEMS for q in qs if (s, q) != ("toeplitz", qs[0])]
    rng.shuffle(rest)
    ops = [op("toeplitz", qs[0])] + [op(s, q) for s, q in rest]
    return Workload("grid-sharpness", ops, warmup=ops[:1])


# ----------------------------------------------------------------------
# random-suite


def _check_suite(zeta: complex, alpha: float):
    equality_class = zeta == -0.5 and alpha == 0.0

    def check(out: str) -> Counter:
        items = json.loads(out)["items"]
        _require(len(items) == 21, f"{len(items)} items, expected 21 (n = 2..8, 3 checks)")
        tally = Counter()
        for it in items:
            name, verdict, gap = it["name"], it["verdict"], it["gap"]
            tally[verdict] += 1
            _require(verdict != "VIOLATION", f"{name} VIOLATION")
            if verdict == "skipped":
                _require(name.startswith("product"), f"{name} skipped")
                continue
            _require(_finite(gap) and gap >= VIOLATION_TOL, f"{name} gap {gap}")
            if equality_class and name.startswith("product"):
                # the forced w = z sample is the extremal: equality, exactly there
                _require(abs(gap) <= 1e-9 and it["witness"] == "forced_z",
                         f"{name} gap {gap} witness {it['witness']}")
        return tally

    return check


def random_suite(seed: int, tiny: bool) -> Workload:
    """One parseval call per criterion-8 class, each with its own seed."""
    rng = random.Random(seed)
    count = 20 if tiny else 1500
    classes = list(SUITE_CLASSES)
    rng.shuffle(classes)
    ops = []
    for zeta, alpha in classes:
        argv = ["verify", "--suite", "parseval", *_zeta_args(zeta, alpha),
                "--count", str(count), "--seed", str(rng.randrange(2**31)),
                "--format", "json"]
        ops.append(Op("verify.parseval", argv, _check_suite(zeta, alpha)))
    return Workload("random-suite", ops, warmup=ops[:1])


# ----------------------------------------------------------------------
# extremal-interactive


def _check_bounds(q: float):
    def check(out: str) -> Counter:
        rows = json.loads(out)
        _require(len(rows) == 13, f"{len(rows)} bound rows, expected 13")
        for row in rows:
            _require(_finite(row["bound"]) and row["bound"] > 0.0, f"bound row {row}")
        a2 = [row["bound"] for row in rows if row["functional"] == "abs_a2"]
        _require(len(a2) == 1 and abs(a2[0] - 2.0 / q) <= 1e-12 * (2.0 / q),
                 f"abs_a2 bound {a2}, expected 2/q = {2.0 / q}")
        return Counter()

    return check


def _check_y(a: float, b: float, c: float):
    scale = 1.0 + abs(a) + abs(b) + abs(c)

    def check(out: str) -> Counter:
        d = json.loads(out)
        grid, closed = d["y_grid"], d["y_closed"]
        _require(_finite(grid), f"y_grid {grid}")
        # the grid holds z = 0 and lies inside the disk: |a| + 1 <= grid <= max
        _require(grid >= abs(a) + 1.0 - 1e-12 * scale, f"y_grid {grid} below |a| + 1")
        if a * c >= 0.0:
            _require(_finite(closed), f"y_closed {closed} for a*c >= 0")
            _require(closed - 1e-3 * scale <= grid <= closed + 1e-9 * scale,
                     f"y_grid {grid} vs y_closed {closed}")
        else:
            _require(closed is None, f"y_closed {closed} for a*c < 0")
            _require(grid <= scale + 1e-9 * scale, f"y_grid {grid} above |a|+|b|+|c|+1")
        return Counter()

    return check


def _check_extremal(zeta: complex, alpha: float, n: int, save: Path | None):
    a2_expected = (2.0 - 2.0 * alpha) / zeta

    def check(out: str) -> Counter:
        raw = json.loads(out)["coefficients"]
        _require(len(raw) == n, f"{len(raw)} coefficients, expected {n}")
        _require(all(_finite(re) and _finite(im) for re, im in raw), "non-finite coefficient")
        _require(raw[0] == [1.0, 0.0], f"a1 = {raw[0]}")
        a2 = complex(*raw[1])
        _require(abs(a2 - a2_expected) <= 1e-9 * abs(a2_expected),
                 f"a2 = {a2}, expected {a2_expected}")
        if save is not None:
            save.write_text(json.dumps(raw))
        return Counter()

    return check


def _check_membership(zeta: complex, alpha: float, label: str):
    def check(out: str) -> Counter:
        d = json.loads(out)
        margin, verdict = d["margin"], d["verdict"]
        _require(_finite(margin), f"margin {margin}")
        _require(d["zeta"] == [zeta.real, zeta.imag] and d["alpha"] == alpha
                 and d["r_max"] == 0.95, f"membership echo {d}")
        _require(verdict == ("member" if margin >= MEMBER_TOL else "nonmember"),
                 f"verdict {verdict} for margin {margin}")
        return Counter({f"{label}:{verdict}": 1})

    return check


def extremal_interactive(seed: int, tiny: bool, workdir: Path) -> Workload:
    """A fixed mix of cheap calls with seeded parameters, in seeded order.

    Per pass: 10 ``bounds``, 30 ``y``, 2 self-checked ``extremal`` calls for
    every (method, order, real/complex zeta) and for every method at
    q = 0.999 and order 64, and 6 extremal -> membership pairs.  The slowest
    kind (the q = 0.999 product, 2 per pass) then holds the 11th-slowest
    call, the reported tail, well inside it rather than at its edge.

    Two of the pairs are the criterion-9 inputs (the order-64 product
    extremal at q = 0.5 and 0.8); the q = 0.8 one is a known ``nonmember``
    and is tallied as such, not counted as a pass.
    """
    rng = random.Random(seed)
    reps = 1 if tiny else 2
    groups = []  # each group is a list of ops that must stay adjacent

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    def strata(k):
        """k points of [0, 1), one in each of k equal strata, in seeded order."""
        order = list(range(k))
        rng.shuffle(order)
        return [(i + rng.random()) / k for i in order]

    def random_class(real: bool, t: float):
        # |zeta| sets the product route's factor count, so it is stratified
        # (t in [0, 1)) to keep the cost mix the same for every seed
        if real:
            return complex(round(0.1 + 0.85 * t, 6), 0.0), 0.0
        zeta = cmath.rect(0.3 + 0.65 * t, u(0.1, 2.0 * math.pi - 0.1))
        return complex(round(zeta.real, 6), round(zeta.imag, 6)), rng.choice((0.0, 0.25))

    def extremal(zeta, alpha, n, method, save=None):
        argv = ["extremal", *_zeta_args(zeta, alpha), "--n", str(n), "--method", method,
                "--self-check", "--format", "json"]
        return Op("extremal", argv, _check_extremal(zeta, alpha, n, save))

    def pair(zeta, alpha, n, label):
        path = workdir / f"coef-{sum(len(g) == 2 for g in groups)}.json"
        member = Op("membership",
                    ["membership", "--input", str(path), *_zeta_args(zeta, alpha),
                     "--format", "json"],
                    _check_membership(zeta, alpha, label))
        return [extremal(zeta, alpha, n, "product", save=path), member]

    for _ in range(1 if tiny else 10):
        q = u(0.05, 0.95)
        groups.append([Op("bounds", ["bounds", "--q", repr(q), "--format", "json"],
                          _check_bounds(q))])
    for _ in range(1 if tiny else 30):
        a, b, c = u(-2, 2), u(-2, 2), u(-2, 2)
        groups.append([Op("y", ["y", "--a", repr(a), "--b", repr(b), "--c", repr(c),
                                "--format", "json"], _check_y(a, b, c))])
    for n in EXTREMAL_ORDERS[:1] if tiny else EXTREMAL_ORDERS:
        for real in (True, False):
            ts = strata(len(EXTREMAL_METHODS) * reps)
            for method in EXTREMAL_METHODS:
                for _ in range(reps):
                    groups.append([extremal(*random_class(real, ts.pop()), n, method)])
    if not tiny:
        for method in EXTREMAL_METHODS:
            groups += [[extremal(complex(SLOW_Q, 0.0), 0.0, 64, method)] for _ in range(reps)]
    for q in (0.5, 0.8):
        groups.append(pair(complex(q, 0.0), 0.0, 64, f"criterion9.q{q}"))
    if not tiny:
        for n in (32, 64):
            for real in (True, False):
                groups.append(pair(*random_class(real, rng.random()), n, "membership"))

    rng.shuffle(groups)
    ops = [op for group in groups for op in group]
    warmup = []  # the first op of every verb; membership with the op writing its file
    for kind in ("bounds", "y", "extremal", "membership"):
        i = next(i for i, op in enumerate(ops) if op.kind == kind)
        warmup += ops[i - 1:i + 1] if kind == "membership" else [ops[i]]
    return Workload("extremal-interactive", ops, warmup=warmup)


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "grid-sharpness":
        return grid_sharpness(seed, tiny)
    if name == "random-suite":
        return random_suite(seed, tiny)
    if name == "extremal-interactive":
        return extremal_interactive(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid-sharpness", "random-suite", "extremal-interactive")
