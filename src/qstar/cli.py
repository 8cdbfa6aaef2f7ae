"""qstar command line: bound tables, extremal coefficients, verification.

Verbs
-----
bounds      closed-form bound table at real q (one row per functional/case)
extremal    extremal-function coefficients by recursion, product, or formula
verify      sharpness suites (hankel / toeplitz / initial / parseval / all)
membership  grid margin of Re(z D_zeta f / f) - alpha for a coefficient file
y           the disk maximum |a + b z + c z^2| + 1 - |z|^2, closed and grid

Shared flags: --format {csv,json} (default csv), --out (default stdout).
extremal takes its order as --n (default 32); verify takes --seed (default 0)
and the randomized suite's --order (2..8, default 8).  Complex parameters are
given as --zeta re,im with --alpha (default 0); --q x is shorthand for
--zeta x,0 --alpha 0 and combines with neither.  The grid suites take --q only
(repeatable); every other verb and suite takes one class.

Exit codes: 0 success, 1 any verification verdict VIOLATION (or a failed
--self-check), 2 usage or domain errors.  Output is byte-stable for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
    ROTATED_IDS,
    SUITE_MAX_ORDER,
    GridSpec,
    VerificationReport,
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

_GRIDS = {
    "coarse": (GridSpec.coarse(), 2),
    "default": (GridSpec(), 3),
    "fine": (GridSpec.fine(), 3),
}


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


def _cmd_bounds(args) -> int:
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
    if args.format == "json":
        payload = [
            {
                "functional": r[0],
                "q": r[1].real,
                "case": r[2],
                "bound": r[3],
            }
            for r in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_csv(REPORT_COLUMNS, rows), args.out)
    return 0


def _extremal_series(params: ClassParams, order: int, method: str) -> StarlikeFunction:
    if method == "recursion":
        omega = canonical_schwarz("identity", order)
        return coeffs_from_schwarz(omega, params, order)
    if method == "product":
        return extremal_product(params, order)
    if method == "formula":
        return extremal_by_formula(params, order)
    raise QStarError(f"unknown method {method!r}")


def _cmd_extremal(args) -> int:
    params = _parse_zeta(args)
    n = args.n
    routes = ("recursion", "product", "formula") if args.self_check else (args.method,)
    funcs = {m: _extremal_series(params, n, m).coeffs.tolist() for m in routes}
    if args.self_check:
        for k in range(1, n + 1):
            vals = [c[k] for c in funcs.values()]
            scale = max(max(abs(v) for v in vals), 1.0)
            if max(abs(vals[0] - vals[1]), abs(vals[0] - vals[2])) > 1e-9 * scale:
                sys.stderr.write(f"self-check failed at n={k}: {vals}\n")
                return 1
    coeffs = funcs[args.method][1:]
    if args.format == "json":
        payload = {
            "zeta": [params.zeta.real, params.zeta.imag],
            "alpha": params.alpha,
            "method": args.method,
            "coefficients": [[c.real, c.imag] for c in coeffs],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = ((k, c.real, c.imag) for k, c in enumerate(coeffs, start=1))
        _emit(_csv(("n", "re", "im"), rows), args.out)
    return 0


_SUITES = {
    "initial": [FunctionalId.ABS_A2, FunctionalId.ABS_A3, FunctionalId.ABS_A4],
    "hankel": [FunctionalId.FEKETE_A2A3_A4, FunctionalId.H1_2, FunctionalId.H2_2],
    "toeplitz": ROTATED_IDS,
    "all": GRID_IDS + ROTATED_IDS,
}


def _cmd_verify(args) -> int:
    if not 2 <= args.order <= SUITE_MAX_ORDER:
        raise QStarError(f"--order = {args.order} outside 2..{SUITE_MAX_ORDER}")
    grid, levels = _GRIDS[args.grid]
    qs = args.q or [0.5]
    reports = []
    if args.suite == "parseval":
        params = _parse_zeta(args)
        reports.append(
            random_schwarz_suite(params, seed=args.seed, count=args.count,
                                 depth=5, order=args.order)
        )
    else:
        if args.zeta is not None or args.alpha is not None:
            raise QStarError(f"--suite {args.suite} runs at real q and alpha = 0: "
                             "give --q only")
        reports.append(
            sharpness_report(qs, _SUITES[args.suite], grid=grid,
                             refinement_levels=levels, seed=args.seed)
        )
    if args.suite == "all":
        for q in qs:
            reports.append(
                random_schwarz_suite(ClassParams(complex(q, 0.0)), seed=args.seed,
                                     count=args.count, depth=5, order=args.order)
            )
    merged = VerificationReport(
        tuple(it for rep in reports for it in rep.items), args.seed
    )
    if args.format == "json":
        _emit(json.dumps(merged.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(_csv(REPORT_COLUMNS, _report_rows(merged)), args.out)
    return 1 if merged.has_violation else 0


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


def _cmd_membership(args) -> int:
    params = _parse_zeta(args)
    coeffs = _read_coeffs(args.input)
    if not coeffs or coeffs[0] != 1:
        raise QStarError("coefficient file must start with a1 = 1")
    f = StarlikeFunction.from_coeffs(coeffs, params)
    margin = membership_margin(f, r_max=args.rmax)
    verdict = "member" if margin >= -1e-6 else "nonmember"
    if args.format == "json":
        payload = {
            "zeta": [params.zeta.real, params.zeta.imag],
            "alpha": params.alpha,
            "r_max": args.rmax,
            "margin": margin,
            "verdict": verdict,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = [("membership", params.zeta, None, 0.0, margin, margin, verdict)]
        _emit(_csv(REPORT_COLUMNS, rows), args.out)
    return 0


def _cmd_y(args) -> int:
    try:
        closed = disk_quadratic_max_closed(args.a, args.b, args.c)
    except PreconditionViolated:
        closed = None
    grid = disk_quadratic_max_grid(args.a, args.b, args.c, args.radial, args.angular)
    if args.format == "json":
        payload = {"a": args.a, "b": args.b, "c": args.c,
                   "y_closed": closed, "y_grid": grid}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = [("y_closed", args.a, args.b, args.c, closed)] if closed is not None else []
        rows.append(("y_grid", args.a, args.b, args.c, grid))
        _emit(_csv(("method", "a", "b", "c", "value"), rows), args.out)
    return 0


# ----------------------------------------------------------------------
# argument plumbing


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--zeta", type=str)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--method", choices=("recursion", "product", "formula"),
                   default="recursion")
    p.add_argument("--self-check", action="store_true", dest="self_check")
    _add_shared(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("hankel", "toeplitz", "initial", "parseval", "all"),
                   default="all")
    p.add_argument("--grid", choices=tuple(_GRIDS), default="default")
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--zeta", type=str)
    p.add_argument("--alpha", type=float)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=SUITE_MAX_ORDER)
    _add_shared(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("membership", help="grid membership margin for a coefficient file")
    p.add_argument("--input", required=True,
                   help="JSON array of a_1, a_2, ... (numbers or [re, im] pairs)")
    p.add_argument("--rmax", type=float, default=0.95)
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--zeta", type=str)
    p.add_argument("--alpha", type=float)
    _add_shared(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("y", help="disk maximum of |a + b z + c z^2| + 1 - |z|^2")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--radial", type=int, default=256)
    p.add_argument("--angular", type=int, default=720)
    _add_shared(p)
    p.set_defaults(func=_cmd_y)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QStarError as exc:
        sys.stderr.write(f"qstar: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"qstar: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
