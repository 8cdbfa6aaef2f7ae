#!/usr/bin/env python3
"""Check that two qstar source trees answer the command line byte for byte alike.

    python tools/cli_identity.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout, holding ``src/qstar``.  One
subprocess per tree imports ``qstar.cli`` from that tree's ``src`` and runs
every call of :data:`CALLS` through ``qstar.cli.run``, in order and in one
process, capturing its stdout, its stderr and its exit code.  The script
prints each call on which the two trees differ and exits 1 if any does;
otherwise it prints the number of calls and exits 0.  Where both stdouts
are reports with the same item names -- a JSON or CSV ``verify`` report, or
a JSON ``bounds`` table, whose rows it names by functional, case and q -- it
names the item fields that differ and on how many items, then the
differing items, as in ``fields: gap (14 items, max 2.2e-16), verdict
(1 item); items: chain[n=2], ...``.  "max" is the largest change of a
numeric field, as a fraction of max(1, |bound|) of its item, the scale on
which verdicts are judged.  Any other difference is shown as the first 200
characters of each side.

The calls cover the grid suites on every ``--grid`` preset, five q and both
formats, ``verify --suite all``, the Parseval suite on several classes
(with seeds past 2^64, a count that spans several sample batches, the
collapsing and classical classes, |zeta| just above ``DEGENERATE_TOL``,
where the bounds reach 1e146, and the six criterion-8 classes at count
1500), every ``extremal`` route with and without ``--self-check``, the
product route and the self-check at q = 1 - 1e-7 and 1 - 1e-12,
``membership`` on a few coefficient files, ``y``, ``bounds`` (also at
q = 1e-40, where every bound is finite and t2_3 is about 1e282, and at
q = 1e-44, where t2_3 overflows and the call exits 2), ``--help``, and calls
that must exit 2.  The coefficient files live in a temporary directory that
is the working directory of both subprocesses, so the two trees see the
same paths.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

#: coefficient files for ``membership``, by name
FILES = {
    "member.json": "[1, 0.5, [0.1, 0.2]]",
    "poly.json": "[1, 0.1, 0.01]",
    "far.json": "[1, 100]",
    "big.json": "[1, 10, 40, 150]",
    "a1.json": "[2, 1]",
    "empty.json": "[]",
    "text.json": '[1, "x"]',
    "bad.json": "not json",
}

#: the first line of a CSV report
CSV_HEADER = "functional,q,case,bound,achieved,gap,verdict"

_QS = ("0.01", "0.3", "0.5", "0.8", "0.99")
_FORMATS = ("csv", "json")


def _calls() -> list:
    calls = [["--help"], ["--version"], []]
    calls += [[verb, "--help"] for verb in ("bounds", "extremal", "verify", "membership", "y")]

    # the grid suites: every preset, q and format
    for suite in ("initial", "hankel", "toeplitz"):
        for grid in ("coarse", "default", "fine"):
            for q in _QS:
                for fmt in _FORMATS:
                    calls.append(["verify", "--suite", suite, "--grid", grid, "--q", q,
                                  "--format", fmt])
    calls += [
        ["verify", "--suite", "hankel", "--q", "0.3", "--q", "0.8"],
        ["verify", "--suite", "toeplitz"],
        ["verify", "--suite", "all", "--q", "0.5"],
        ["verify", "--suite", "all", "--q", "0.3", "--q", "0.8", "--grid", "coarse",
         "--count", "300", "--order", "6", "--seed", "7", "--format", "json"],
        ["verify", "--count", "200"],
    ]

    # the Parseval suite on several classes, orders and seeds
    classes = [["--q", "0.5"], ["--zeta", "0,0.9", "--alpha", "0.25"],
               ["--zeta=-0.5,0.5", "--alpha", "0.1"], ["--zeta", "0.01,0.01", "--alpha", "0.01"],
               ["--zeta", "1,0"], ["--zeta", "0,0"], ["--zeta=-1,0"], ["--zeta", "0.6,0.6"]]
    for cls in classes:
        for order in ("2", "5", "8"):
            calls.append(["verify", "--suite", "parseval", *cls, "--count", "300",
                          "--order", order])
        calls.append(["verify", "--suite", "parseval", *cls, "--count", "100", "--seed", "11",
                      "--format", "json"])
    # seeds that fill the key's high word, and a count that spans several batches
    for seed in (str(2**64 + 5), str(2**128 - 1)):
        calls.append(["verify", "--suite", "parseval", "--zeta", "0.6,0.6", "--alpha", "0.25",
                      "--count", "300", "--seed", seed])
    calls.append(["verify", "--suite", "parseval", "--zeta=-0.5,0.5", "--alpha", "0.1",
                  "--count", "5000", "--seed", "3"])
    # two collapsing extremals (alpha near 1, zeta on the negative real axis),
    # Robertson's product at zeta = 1, and product bounds near 1e43
    for cls in (["--zeta=-0.4,0", "--alpha", "0.86"], ["--zeta=-0.3,0", "--alpha", "0.88"],
                ["--zeta", "1,0", "--alpha", "0.25"], ["--zeta", "1e-6,0", "--alpha", "0.25"]):
        calls.append(["verify", "--suite", "parseval", *cls, "--count", "300"])
    # |zeta| just above DEGENERATE_TOL: bounds of 1e130 to 1e146, the exact
    # re-derivation's largest integers
    for zeta in ("2e-12,0", "0,1.5e-12"):
        for alpha in ("0", "0.9"):
            calls.append(["verify", "--suite", "parseval", "--zeta", zeta, "--alpha", alpha,
                          "--order", "8", "--count", "50"])
    # the six criterion-8 classes at the random-suite workload's count
    for i, zeta in enumerate((0.6 * cmath.exp(1j * math.pi / 4), 0.9j, -0.5 + 0j)):
        for alpha in (0.0, 0.25):
            calls.append(["verify", "--suite", "parseval", f"--zeta={zeta.real!r},{zeta.imag!r}",
                          "--alpha", repr(alpha), "--count", "1500", "--seed", str(2026 + i),
                          "--format", "json"])

    # extremal: every route, with and without the self-check
    ext_classes = [["--q", "0.5"], ["--q", "0.999"], ["--q", "1e-9"],
                   ["--zeta", "0.3,0.4", "--alpha", "0.25"], ["--zeta", "0,0"],
                   ["--zeta", "1,0"], ["--zeta=-0.7,0"]]
    for cls in ext_classes:
        for method in ("recursion", "product", "formula"):
            for n in ("1", "8", "64"):
                calls.append(["extremal", *cls, "--method", method, "--n", n])
        calls.append(["extremal", *cls, "--n", "64", "--self-check"])
        calls.append(["extremal", *cls, "--n", "12", "--self-check", "--format", "json"])
    # q -> 1, where the product's log coefficients once cancelled
    calls += [
        ["extremal", "--q", "0.9999999", "--n", "64", "--self-check"],
        ["extremal", "--q", "0.999999999999", "--method", "product", "--n", "64"],
    ]

    # membership on each file
    for name in FILES:
        for cls in (["--q", "0.5"], ["--zeta", "0.3,0.4"]):
            calls.append(["membership", *cls, "--input", name])
    calls += [
        ["membership", "--q", "0.8", "--input", "member.json", "--rmax", "0.5",
         "--format", "json"],
        ["membership", "--q", "0.5", "--input", "missing.json"],
    ]

    # the disk maximum
    for a, b, c in (("0.5", "-1", "0.25"), ("1", "0", "1"), ("-0.3", "2", "0.4"),
                    ("0.2", "0.1", "-0.5"), ("0", "0", "0"), ("1e300", "1e300", "1e300")):
        calls.append(["y", "--a", a, "--b", b, "--c", c])
        calls.append(["y", "--a", a, "--b", b, "--c", c, "--radial", "64", "--angular", "65",
                      "--format", "json"])

    # the bound table
    for q in ("0.5", "0.01", "0.99", "1e-60", "0", "1", "nan"):
        calls.append(["bounds", "--q", q])
    calls += [["bounds"], ["bounds", "--q", "0.3", "--q", "0.7", "--format", "json"],
              ["bounds", "--q", "1e-40", "--format", "json"], ["bounds", "--q", "1e-44"]]

    # calls that must exit 2
    for method in ("recursion", "product", "formula"):
        for n in ("0", "-3"):
            calls.append(["extremal", "--q", "0.5", "--method", method, "--n", n])
            calls.append(["extremal", "--q", "0.5", "--method", method, "--n", n,
                          "--self-check"])
    for suite in ("hankel", "all", "parseval"):
        for flag in (["--count", "-1"], ["--seed", "-5"], ["--seed", str(2**128)],
                     ["--order", "1"], ["--order", "9"]):
            calls.append(["verify", "--suite", suite, "--q", "0.5", *flag])
    calls += [
        ["verify", "--grid", "huge"],
        ["verify", "--suite", "parseval", "--q", "0.5", "--grid", "fine"],
        ["verify", "--suite", "hankel", "--zeta", "0.5,0"],
        ["verify", "--suite", "initial", "--q", "0.005"],
        ["y", "--a", "1", "--b", "1", "--c", "1", "--radial", "10"],
        ["y", "--a", "nan", "--b", "1", "--c", "1"],
        ["extremal", "--q", "0.5", "--n", "2", "--n", "3"],
        ["extremal", "--q", "0.5", "--zeta", "0.5,0"],
        ["extremal", "--zeta", "bad"],
        ["extremal"],
        ["bogus-verb"],
        ["bounds", "--seed", "1"],
    ]
    return calls


CALLS = _calls()


def _run_all(tree: str) -> None:
    """Child side: run the JSON list of calls on stdin through ``tree``'s
    ``qstar.cli.run`` and write [code, stdout, stderr] for each as JSON."""
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    import qstar.cli

    if Path(qstar.cli.__file__).resolve().parent != src / "qstar":
        raise SystemExit(f"imported qstar from {qstar.cli.__file__}, not {src}")
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qstar.cli.run(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(tree, calls, workdir) -> list:
    """[code, stdout, stderr] of each call, run through ``tree`` in one
    subprocess whose working directory is ``workdir``."""
    proc = subprocess.run(
        [sys.executable, "-B", str(Path(__file__).resolve()), "--run", str(tree)],
        input=json.dumps(calls), capture_output=True, text=True, cwd=workdir, check=True,
    )
    return json.loads(proc.stdout)


def compare(parent, change, calls) -> list:
    """The calls on which the two trees differ, as (argv, parent's result,
    change's result) triples."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in FILES.items():
            (Path(workdir) / name).write_text(text)
        before = run_tree(parent, calls, workdir)
        after = run_tree(change, calls, workdir)
    return [(argv, b, a) for argv, b, a in zip(calls, before, after) if b != a]


def _report(text):
    """(item names, items, rest) of a report on stdout, each item a dict of
    its fields and ``rest`` the JSON report without its items; None unless
    ``text`` is a JSON report (an ``items`` list), a JSON bound table (a
    list of rows with functional, q and case) or a CSV report."""
    if text.startswith(CSV_HEADER + "\n"):
        items = list(csv.DictReader(io.StringIO(text)))
        return [it["functional"] for it in items], items, None
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if isinstance(doc, list):
        if not all(isinstance(row, dict) and {"functional", "q", "case"} <= row.keys()
                   for row in doc):
            return None
        names = [row["functional"] + (f"[{row['case']}]" if row["case"] else "")
                 + f" q={row['q']}" for row in doc]
        return names, doc, None
    if not isinstance(doc, dict) or not isinstance(doc.get("items"), list):
        return None
    items = doc.pop("items")
    if not all(isinstance(it, dict) and "name" in it for it in items):
        return None
    return [it["name"] for it in items], items, doc


def _number(value):
    """``value`` as a finite float if it is a number or a numeric CSV cell,
    else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        value = float(value)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def field_summary(before: str, after: str):
    """``fields: gap (14 items, max 2.2e-16), verdict (1 item); items:
    chain[n=2], ...``: the item fields in which two reports with the same
    item names and nothing else apart differ, most items first, each numeric
    one with its largest change as a fraction of max(1, |bound|) of its
    item, and the names of the differing items in report order; None for
    any other pair of outputs."""
    old, new = _report(before), _report(after)
    if old is None or new is None or old[0] != new[0] or old[2] != new[2]:
        return None
    counts, largest = Counter(), {}
    for b, a in zip(old[1], new[1]):
        scale = max(1.0, abs(_number(b.get("bound")) or 0.0))
        for field in dict.fromkeys([*b, *a]):
            if b.get(field) == a.get(field):
                continue
            counts[field] += 1
            x, y = _number(b.get(field)), _number(a.get(field))
            if x is not None and y is not None:
                largest[field] = max(largest.get(field, 0.0), abs(y - x) / scale)
    if not counts:
        return None
    names = dict.fromkeys(name for name, b, a in zip(old[0], old[1], new[1]) if b != a)
    return ("fields: " + ", ".join(
        f"{f} ({n} item{'s' * (n != 1)}" + (f", max {largest[f]:.2g})" if f in largest else ")")
        for f, n in counts.most_common()) + "; items: " + ", ".join(names))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--run":
        _run_all(args[1])
        return 0
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    diffs = compare(*args, CALLS)
    for call, before, after in diffs:
        print(f"DIFF qstar {' '.join(call)}")
        for label, b, a in zip(("exit", "stdout", "stderr"), before, after):
            if b == a:
                continue
            summary = field_summary(b, a) if label == "stdout" else None
            if summary:
                print(f"  {summary}")
            else:
                print(f"  {label}: {b!r:.200}\n    -> {a!r:.200}")
    print(f"{len(CALLS) - len(diffs)} of {len(CALLS)} calls identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
