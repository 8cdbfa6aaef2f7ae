"""qstar command line: bound tables, extremal coefficients, verification.

Verbs
-----
bounds      closed-form bound table at real q (one row per functional/case)
extremal    extremal-function coefficients by recursion, product, or formula
verify      sharpness suites (hankel / toeplitz / initial / parseval / all)
membership  grid margin of Re(z D_zeta f / f) - alpha for a coefficient file
y           the disk maximum |a + b z + c z^2| + 1 - |z|^2, closed and grid

Shared flags: --format {csv,json} (default csv), --out (default stdout).
extremal takes its order as --n (default 32).  verify takes --seed (default
0) for every suite, the grid suites' --grid preset and the randomized suite's
--count and --order (2..8, default 8); all reads all three, and a suite given
a flag it does not read exits 2.  Complex parameters are given as --zeta
re,im with --alpha (default 0); --q x is shorthand for --zeta x,0 --alpha 0
and combines with neither.  The grid suites take --q only (repeatable);
every other verb and suite takes one class.

Exit codes: 0 success, 1 any verification verdict VIOLATION (or a failed
--self-check), 2 usage or domain errors and running out of memory.  Output
is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import os
import sys

from ._version import __version__
from .bounds import (
    CASE_SPLIT_IDS,
    BoundQuery,
    CaseFlag,
    bound_value,
    disk_quadratic_max_closed,
    disk_quadratic_max_grid,
)
from .errors import PreconditionViolated, QStarError
from .functionals import FunctionalId
from .search import (
    GRID_IDS,
    GRIDS,
    ROTATED_IDS,
    SUITE_MAX_ORDER,
    VerificationReport,
    check_suite_inputs,
    random_schwarz_suite,
    sharpness_report,
)
from .series import ClassParams
from .starlike import (
    StarlikeFunction,
    coeffs_from_schwarz,
    extremal_by_formula,
    extremal_product,
    membership_margin,
)
from .schwarz import canonical_schwarz

#: fixed CSV schema for every report-shaped output
REPORT_COLUMNS = ("functional", "q", "case", "bound", "achieved", "gap", "verdict")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return _fmt(value.real)
        return f"{value.real:.12g}{value.imag:+.12g}j"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _parse_zeta(args) -> ClassParams:
    """The one class that --q, or --zeta with --alpha, names."""
    if args.q is not None:  # a list: only the grid suites read more than one q
        if len(args.q) > 1 or args.zeta is not None or args.alpha is not None:
            raise QStarError("--q x names one class, --zeta x,0 --alpha 0: "
                             "give it once and alone")
        return ClassParams(complex(args.q[0], 0.0), 0.0)
    if args.zeta is None:
        raise QStarError("one of --q or --zeta is required")
    try:
        re_str, im_str = args.zeta.split(",")
        zeta = complex(float(re_str), float(im_str))
    except ValueError as exc:
        raise QStarError(f"--zeta expects re,im (got {args.zeta!r})") from exc
    return ClassParams(zeta, args.alpha or 0.0)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _report_rows(report: VerificationReport):
    for it in report.items:
        yield (it.name, it.zeta, it.case, it.bound, it.achieved, it.gap, it.verdict)


# ----------------------------------------------------------------------
# verbs


def _cmd_bounds(args) -> tuple:
    rows = []
    for q in args.q or [0.5]:
        params = ClassParams(complex(q, 0.0))
        for fid in FunctionalId:
            cases = (
                (CaseFlag.A2_ZERO, CaseFlag.A2_NONZERO) if fid in CASE_SPLIT_IDS else (None,)
            )
            for case in cases:
                value = bound_value(BoundQuery(fid, params, case_flag=case))
                rows.append(
                    (fid.value, complex(q), case.value if case else None, value, None, None, None)
                )
    payload = [
        {"functional": r[0], "q": r[1].real, "case": r[2], "bound": r[3]} for r in rows
    ]
    return 0, payload, REPORT_COLUMNS, rows


#: the three routes to the extremal's coefficients; each looks its function up
#: when called, so a wrapper installed on this module sees the call
_EXTREMAL_ROUTES = {
    "recursion": lambda p, n: coeffs_from_schwarz(canonical_schwarz("identity", n), p, n),
    "product": lambda p, n: extremal_product(p, n),
    "formula": lambda p, n: extremal_by_formula(p, n),
}


def _cmd_extremal(args) -> tuple:
    params = _parse_zeta(args)
    n = args.n
    routes = tuple(_EXTREMAL_ROUTES) if args.self_check else (args.method,)
    funcs = {m: _EXTREMAL_ROUTES[m](params, n).coeffs.tolist() for m in routes}
    if args.self_check:
        for k in range(1, n + 1):
            vals = [c[k] for c in funcs.values()]
            scale = max(max(abs(v) for v in vals), 1.0)
            if max(abs(vals[0] - vals[1]), abs(vals[0] - vals[2])) > 1e-9 * scale:
                sys.stderr.write(f"self-check failed at n={k}: {vals}\n")
                return 1, None, None, None
    coeffs = funcs[args.method][1:]
    payload = {
        "zeta": [params.zeta.real, params.zeta.imag],
        "alpha": params.alpha,
        "method": args.method,
        "coefficients": [[c.real, c.imag] for c in coeffs],
    }
    rows = ((k, c.real, c.imag) for k, c in enumerate(coeffs, start=1))
    return 0, payload, ("n", "re", "im"), rows


_SUITES = {
    "initial": [FunctionalId.ABS_A2, FunctionalId.ABS_A3, FunctionalId.ABS_A4],
    "hankel": [FunctionalId.FEKETE_A2A3_A4, FunctionalId.H1_2, FunctionalId.H2_2],
    "toeplitz": ROTATED_IDS,
    "all": GRID_IDS + ROTATED_IDS,
}


#: the verify flags that only some suites read, and those suites; the grid
#: suites run at real q and alpha = 0
_SUITE_FLAGS = {
    "grid": tuple(_SUITES),
    "count": ("parseval", "all"),
    "order": ("parseval", "all"),
    "zeta": ("parseval",),
    "alpha": ("parseval",),
}


def _cmd_verify(args) -> tuple:
    given = vars(args).get("_once_seen", ())
    for flag, suites in _SUITE_FLAGS.items():
        if flag in given and args.suite not in suites:
            raise QStarError(f"--suite {args.suite} does not read --{flag}")
    check_suite_inputs(args.count, args.seed, args.order)
    qs = args.q or [0.5]
    reports = []
    if args.suite == "parseval":
        params = _parse_zeta(args)
        reports.append(
            random_schwarz_suite(params, seed=args.seed, count=args.count, order=args.order)
        )
    else:
        reports.append(
            sharpness_report(qs, _SUITES[args.suite], grid=GRIDS[args.grid], seed=args.seed)
        )
    if args.suite == "all":
        for q in qs:
            reports.append(
                random_schwarz_suite(ClassParams(complex(q, 0.0)), seed=args.seed,
                                     count=args.count, order=args.order)
            )
    merged = VerificationReport(
        tuple(it for rep in reports for it in rep.items), args.seed
    )
    return (1 if merged.has_violation else 0, merged.to_json_dict(), REPORT_COLUMNS,
            _report_rows(merged))


def _read_coeffs(path) -> list:
    """a_1, a_2, ... from a JSON array of numbers and [re, im] pairs."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=float)  # a huge int reads as inf
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep
        raise QStarError(f"cannot read {path}: {exc}") from exc
    if isinstance(raw, list):
        pairs = [v if isinstance(v, list) else [v, 0.0] for v in raw]
        if all(len(p) == 2 and all(type(x) is float for x in p) for p in pairs):
            return [complex(*p) for p in pairs]
    raise QStarError("coefficient file must list numbers or [re, im] pairs")


def _cmd_membership(args) -> tuple:
    params = _parse_zeta(args)
    coeffs = _read_coeffs(args.input)
    if not coeffs or coeffs[0] != 1:
        raise QStarError("coefficient file must start with a1 = 1")
    f = StarlikeFunction.from_coeffs(coeffs, params)
    margin = membership_margin(f, r_max=args.rmax)
    verdict = "member" if margin >= -1e-6 else "nonmember"
    payload = {
        "zeta": [params.zeta.real, params.zeta.imag],
        "alpha": params.alpha,
        "r_max": args.rmax,
        "margin": margin,
        "verdict": verdict,
    }
    rows = [("membership", params.zeta, None, 0.0, margin, margin, verdict)]
    return 0, payload, REPORT_COLUMNS, rows


def _cmd_y(args) -> tuple:
    try:
        closed = disk_quadratic_max_closed(args.a, args.b, args.c)
    except PreconditionViolated:
        closed = None
    grid = disk_quadratic_max_grid(args.a, args.b, args.c, args.radial, args.angular)
    payload = {"a": args.a, "b": args.b, "c": args.c, "y_closed": closed, "y_grid": grid}
    rows = [("y_closed", args.a, args.b, args.c, closed)] if closed is not None else []
    rows.append(("y_grid", args.a, args.b, args.c, grid))
    return 0, payload, ("method", "a", "b", "c", "value"), rows


# ----------------------------------------------------------------------
# argument plumbing


class _Once(argparse.Action):
    """Stores a flag's value, and rejects the flag given twice in one command
    line.  The flags seen live in the namespace of the parse, so the shared
    parser carries nothing from one command line to the next."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = vars(namespace).setdefault("_once_seen", set())
        if self.dest in seen:
            raise QStarError(f"{self.option_strings[0]} given more than once")
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", action=_Once)
    p.add_argument("--out", default=None, action=_Once)


def _add_class(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--zeta", type=str, action=_Once)
    p.add_argument("--alpha", type=float, action=_Once)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="bounds, extremal coefficients, and sharpness verification "
        "for the q-starlike family",
    )
    parser.add_argument("--version", action="version", version=f"qstar {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bounds", help="closed-form bound table at real q")
    p.add_argument("--q", type=float, action="append")
    _add_shared(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("extremal", help="extremal coefficients a_1..a_n")
    _add_class(p)
    p.add_argument("--n", type=int, default=32, action=_Once)
    p.add_argument("--method", choices=tuple(_EXTREMAL_ROUTES),
                   default="recursion", action=_Once)
    p.add_argument("--self-check", action="store_true", dest="self_check")
    _add_shared(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("hankel", "toeplitz", "initial", "parseval", "all"),
                   default="all", action=_Once)
    p.add_argument("--grid", choices=tuple(GRIDS), default="default", action=_Once)
    _add_class(p)
    p.add_argument("--count", type=int, default=10000, action=_Once)
    p.add_argument("--seed", type=int, default=0, action=_Once)
    p.add_argument("--order", type=int, default=SUITE_MAX_ORDER, action=_Once)
    _add_shared(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("membership", help="grid membership margin for a coefficient file")
    p.add_argument("--input", required=True, action=_Once,
                   help="JSON array of a_1, a_2, ... (numbers or [re, im] pairs)")
    p.add_argument("--rmax", type=float, default=0.95, action=_Once)
    _add_class(p)
    _add_shared(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("y", help="disk maximum of |a + b z + c z^2| + 1 - |z|^2")
    for name in ("--a", "--b", "--c"):
        p.add_argument(name, type=float, required=True, action=_Once)
    p.add_argument("--radial", type=int, default=256, action=_Once)
    p.add_argument("--angular", type=int, default=720, action=_Once)
    _add_shared(p)
    p.set_defaults(func=_cmd_y)

    return parser


#: glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _steady_heap() -> None:
    """Fix glibc's malloc thresholds for the rest of the process.

    Every verb allocates and frees numpy temporaries of up to a few MB.  With
    glibc's dynamic thresholds, whether a call's freed heap top goes back to
    the system, to be page-faulted in again by the next call, depends on
    where earlier allocations happened to land: a process running many calls
    takes hundreds of faults per call in one source layout and none in
    another.  Fixed thresholds make that the same in every layout: blocks
    below 32 MB come from the heap, and up to 256 MB of free heap top stays
    mapped (never more than the process's own peak).  Other C libraries are
    left as they are.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def run(argv=None) -> int:
    """Parse arguments, run the verb and write its output in the --format to
    --out; returns the process exit code.  The first call fixes the
    allocator's thresholds (:func:`_steady_heap`).

    Every verb returns (exit code, JSON payload, CSV header, CSV rows); a
    verb that has nothing to report (a failed --self-check) returns no
    payload, and nothing is written.
    """
    _steady_heap()
    try:
        args = _parser().parse_args(argv)
        code, payload, header, rows = args.func(args)
        if payload is not None:
            text = (json.dumps(payload, indent=2) + "\n" if args.format == "json"
                    else _csv(header, rows))
            _emit(text, args.out)
        return code
    except SystemExit as exc:  # argparse: a usage error, --help or --version
        return int(exc.code or 0)
    except (QStarError, OSError) as exc:
        sys.stderr.write(f"qstar: {exc}\n")
        return 2
    except MemoryError as exc:  # a grid or an order too large for this machine
        sys.stderr.write(f"qstar: out of memory{': ' if str(exc) else ''}{exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
