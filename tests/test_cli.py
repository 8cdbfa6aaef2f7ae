import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qstar
from qstar.cli import run
from qstar.search import Q_MIN


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- bounds


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "functional,q,case,bound,achieved,gap,verdict"
    assert "abs_a2,0.5,,4,,," in lines
    # case-split ids appear twice
    assert sum(1 for ln in lines if ln.startswith("h2_2,")) == 2
    assert sum(1 for ln in lines if ln.startswith("t2_3,")) == 2
    assert len(lines) == 1 + 13


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entry = next(p for p in payload if p["functional"] == "abs_a2")
    assert entry["bound"] == 4.0


def test_bounds_byte_stability(capsys):
    _, out1, _ = run_cli(capsys, "bounds", "--q", "0.7")
    _, out2, _ = run_cli(capsys, "bounds", "--q", "0.7")
    assert out1 == out2


# ----------------------------------------------------------------- extremal


def test_extremal_recursion_values(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--q", "0.5", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == pytest.approx([1.0, 4.0, 40.0 / 3.0, 880.0 / 21.0], rel=1e-9)


@pytest.mark.parametrize("method", ["recursion", "product", "formula"])
def test_extremal_methods_agree(capsys, method):
    code, out, _ = run_cli(
        capsys, "extremal", "--q", "0.5", "--n", "4", "--method", method
    )
    assert code == 0
    a4 = float(out.strip().splitlines()[-1].split(",")[1])
    assert a4 == pytest.approx(880.0 / 21.0, rel=1e-9)


def test_extremal_self_check_passes(capsys):
    code, _, err = run_cli(
        capsys, "extremal", "--q", "0.5", "--n", "8", "--self-check"
    )
    assert code == 0
    assert err == ""


def test_extremal_self_check_at_tiny_q(capsys):
    # the divisors [k] - 1 = zeta [k-1] keep their digits at q = 1e-9
    code, out, err = run_cli(capsys, "extremal", "--q", "1e-9", "--n", "3", "--self-check")
    assert code == 0
    assert err == ""
    a2 = float(out.strip().splitlines()[2].split(",")[1])
    assert a2 == pytest.approx(2e9, rel=1e-12)


def test_extremal_self_check_near_minus_one(capsys):
    # arg zeta just short of pi with |zeta| near 1: all three routes agree
    argv = ("extremal", "--zeta=-0.999,0.01", "--n", "64", "--method", "product")
    code, out, err = run_cli(capsys, *argv, "--self-check")
    assert code == 0
    assert err == ""
    assert run_cli(capsys, *argv) == (0, out, "")


def test_extremal_complex_zeta_json(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--zeta", "0.0,0.9", "--alpha", "0.25",
        "--n", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == [0.0, 0.9]
    assert len(payload["coefficients"]) == 4


# ----------------------------------------------------------------- verify


def test_verify_hankel_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hankel", "--q", "0.5", "--seed", "7",
        "--grid", "coarse", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    names = {it["name"] for it in payload["items"]}
    assert names == {"fekete_a2a3_a4", "h1_2", "h2_2", "h2_2[b1=0]"}
    assert all(it["verdict"] != "VIOLATION" for it in payload["items"])


def test_verify_toeplitz_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "toeplitz", "--q", "0.5", "--grid", "coarse"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "functional,q,case,bound,achieved,gap,verdict"
    assert any(ln.startswith("t1_2,0.5,,17,17,") for ln in lines)


def test_verify_all_merges_reports(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--q", "0.5", "--grid", "coarse",
        "--count", "100", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    names = {it["name"] for it in payload["items"]}
    # grid family, rotated family, both slices, and the randomized checks
    assert {"abs_a2", "h2_2", "h2_2[b1=0]", "t1_2", "t2_3", "t2_3[b1=0]"} <= names
    assert any(n.startswith("parseval[") for n in names)
    assert all(it["verdict"] != "VIOLATION" for it in payload["items"])


def test_verify_parseval_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "parseval", "--zeta=-0.5,0",
        "--count", "200", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(it["verdict"] != "VIOLATION" for it in payload["items"])


def test_verify_parseval_default_order_is_8(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "parseval", "--q", "0.5",
                           "--count", "20")
    assert code == 0
    # three checks for each n = 2 .. 8
    assert len(out.strip().splitlines()) == 1 + 21


def test_verify_parseval_small_zeta_no_rounding_violation(capsys):
    # coefficients reach 1e13 here; both tolerances scale with each bound side
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "parseval", "--zeta=0.01,0.01", "--alpha", "0.01",
        "--count", "0", "--format", "json",
    )
    assert code == 0
    items = {it["name"]: it for it in json.loads(out)["items"]}
    assert all(it["verdict"] != "VIOLATION" for it in items.values())
    # the forced w = z sample attains the chain: gap 1024 on a side of 1.1e22
    assert items["chain[n=7]"]["verdict"] == "attained"


# ----------------------------------------------------------------- membership


def test_membership_member_and_nonmember(tmp_path, capsys):
    member = tmp_path / "koebe_like.json"
    member.write_text(json.dumps([1, 0, 0, 0]))
    code, out, _ = run_cli(
        capsys, "membership", "--input", str(member), "--q", "0.5"
    )
    assert code == 0
    assert out.strip().splitlines()[1].endswith("member")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 10.0]))
    code, out, _ = run_cli(
        capsys, "membership", "--input", str(bad), "--q", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["margin"] < 0
    assert payload["verdict"] == "nonmember"


def test_membership_complex_pairs(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps([[1, 0], [0.1, 0.05]]))
    code, out, _ = run_cli(
        capsys, "membership", "--input", str(f), "--zeta", "0.5,0.2",
        "--alpha", "0.1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["margin"] > 0


def test_membership_requires_normalized_a1(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps([2, 0]))
    code, _, err = run_cli(capsys, "membership", "--input", str(f), "--q", "0.5")
    assert code == 2
    assert "a1" in err


# ----------------------------------------------------------------- y


def test_y_verb(capsys):
    code, out, _ = run_cli(capsys, "y", "--a", "1", "--b", "0", "--c", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,a,b,c,value"
    closed = next(ln for ln in lines if ln.startswith("y_closed"))
    assert closed.split(",")[-1] == "2"


def test_y_verb_skips_closed_form_when_ac_negative(capsys):
    code, out, _ = run_cli(
        capsys, "y", "--a", "1", "--b", "0", "--c", "-1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["y_closed"] is None
    assert payload["y_grid"] > 0


# ----------------------------------------------------------------- bad input


@pytest.mark.parametrize(
    "argv",
    [
        ("extremal", "--zeta=nan,0", "--n", "4"),
        ("verify", "--suite", "parseval", "--zeta=inf,0", "--count", "3"),
        ("verify", "--suite", "parseval", "--zeta=nan,0", "--count", "3"),
        ("y", "--a", "nan", "--b", "0", "--c", "0"),
        ("extremal", "--q", "0.5", "--n", "0"),
        ("verify", "--suite", "parseval", "--q", "0.5", "--count", "-1"),
        ("bounds", "--q", "1e-60"),  # q**7 underflows to 0
        ("bounds", "--q", "1e-45", "--format", "json"),  # a bound overflows to inf
        ("extremal", "--q", "1e-5", "--n", "64"),  # the recursion overflows
        ("verify", "--suite", "parseval", "--q", "0.5", "--order", "9"),
        # --seed is checked before any suite runs; a grid suite rejects --count
        # and --order, which it does not read, even in range
        *[("verify", "--suite", suite, "--q", "0.5", flag, value)
          for suite in ("hankel", "initial", "toeplitz", "all")
          for flag, value in (("--count", "-1"), ("--seed", "-5"),
                              ("--seed", str(1 << 128)))],
        ("verify", "--suite", "parseval", "--q", "0.5", "--seed", "-5"),
        ("verify", "--suite", "hankel", "--q", "0.5", "--count", "5"),
        ("verify", "--suite", "toeplitz", "--q", "0.5", "--order", "8"),
        ("verify", "--suite", "all", "--q", "0.5", "--order", "1"),
        # parseval rejects --grid, which it does not read
        ("verify", "--suite", "parseval", "--q", "0.5", "--count", "3", "--grid", "fine"),
        # a class flag the verb or suite does not read
        ("verify", "--suite", "hankel", "--zeta", "0.3,0"),
        ("verify", "--suite", "all", "--q", "0.5", "--zeta", "0.3,0", "--alpha", "0.5"),
        ("verify", "--suite", "parseval", "--q", "0.5", "--q", "0.8"),
        ("extremal", "--q", "0.5", "--alpha", "0.25", "--n", "3"),
        ("extremal", "--q", "0.5", "--zeta", "0.3,0"),
        # membership files: the last item is the file's contents
        ("membership", "--q", "0.5", "--input", b"[[1]]"),
        ("membership", "--q", "0.5", "--input", b'[1, {"a": 2}]'),
        ("membership", "--q", "0.5", "--input", b'{"a": 1}'),
        ("membership", "--q", "0.5", "--input", b"not json"),
        ("membership", "--q", "0.5", "--input", b"[1, \xff]"),  # not UTF-8
        ("membership", "--q", "0.5", "--input", b"[1, [0.5, 0.1, 9]]"),
        ("membership", "--q", "0.5", "--input", b'[1, "2+1j"]'),
        ("membership", "--q", "0.5", "--input", b"[1, true]"),
        ("membership", "--q", "0.5", "--input", b"[1, 1" + b"0" * 400 + b"]"),
        ("membership", "--q", "0.5", "--input", b"[1, 1e308, 1e308]"),  # margin NaN
        # a single-valued flag given twice, even with its default value
        ("extremal", "--zeta", "0.3,0", "--zeta", "0.5,0", "--n", "2"),
        ("extremal", "--zeta", "0.3,0", "--alpha", "0.25", "--alpha", "0.5"),
        ("extremal", "--q", "0.5", "--n", "32", "--n", "32"),
        ("extremal", "--q", "0.5", "--method", "product", "--method=formula"),
        ("verify", "--suite", "toeplitz", "--q", "0.5", "--grid", "coarse", "--grid", "coarse"),
        ("verify", "--suite", "parseval", "--suite", "parseval", "--q", "0.5", "--count", "3"),
        ("verify", "--suite", "parseval", "--q", "0.5", "--count", "3", "--count", "4"),
        ("verify", "--suite", "parseval", "--q", "0.5", "--seed", "0", "--seed", "0"),
        ("verify", "--suite", "parseval", "--q", "0.5", "--order", "4", "--order", "5"),
        ("y", "--a", "1", "--b", "0", "--c", "0", "--c", "0"),
        ("y", "--a", "1", "--b", "0", "--c", "0", "--angular", "65", "--angular", "65"),
        ("bounds", "--q", "0.5", "--format", "json", "--format", "csv"),
        ("membership", "--q", "0.5", "--rmax", "0.5", "--rmax", "0.5", "--input", b"[1]"),
    ],
)
def test_bad_input_exits_2_with_no_output(capsys, tmp_path, argv):
    if isinstance(argv[-1], bytes):
        path = tmp_path / "coeffs.json"
        path.write_bytes(argv[-1])
        argv = (*argv[:-1], str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qstar: ")


_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, 0.5, -1.0, 1.0, float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def _class_args(draw):
    if draw(st.booleans()):
        return [f"--q={draw(_FLOATS)!r}"]
    return [
        f"--zeta={draw(_FLOATS)!r},{draw(_FLOATS)!r}",
        f"--alpha={draw(_FLOATS)!r}",
    ]


_JSON_NUMBERS = st.one_of(st.integers(), _FLOATS)
_PAIRS = st.lists(_JSON_NUMBERS, min_size=2, max_size=2)

_ENTRIES = st.one_of(
    _JSON_NUMBERS,
    _PAIRS,
    st.lists(_JSON_NUMBERS, max_size=4),  # any arity
    st.lists(st.lists(_JSON_NUMBERS, max_size=2), min_size=1, max_size=2),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=2), _JSON_NUMBERS, max_size=2),
)


@st.composite
def _coeff_file(draw):
    """Bytes of a membership input: well-formed a_1 = 1, a_2, ... or not."""
    kind = draw(st.sampled_from(["valid", "valid", "mixed", "array", "other", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    if kind == "other":
        return json.dumps(draw(_ENTRIES)).encode()
    if kind == "valid":
        entries = draw(st.lists(st.one_of(_JSON_NUMBERS, _PAIRS), max_size=6))
        return json.dumps([1] + entries).encode()
    entries = draw(st.lists(_ENTRIES, max_size=6))
    return json.dumps([1] + entries if kind == "mixed" else entries).encode()


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(["verify-grid", "y", "extremal", "verify", "bounds",
                                 "membership"]))
    fmt = f"--format={draw(st.sampled_from(['csv', 'json']))}"
    if verb == "membership":
        zeta = draw(st.sampled_from(["--q=0.5", "--q=0.8", "--zeta=0.3,0.4"]))
        return ["membership", fmt, zeta, "--input", draw(_coeff_file())]
    if verb == "bounds":
        return ["bounds", fmt, f"--q={draw(_FLOATS)!r}"]
    if verb == "y":
        return ["y", fmt] + [f"--{k}={draw(_FLOATS)!r}" for k in "abc"]
    if verb == "extremal":
        method = draw(st.sampled_from(["recursion", "product", "formula"]))
        extra = ["--self-check"] if draw(st.booleans()) else []
        return ["extremal", fmt, f"--n={draw(st.integers(-1, 8))}",
                f"--method={method}", *extra, *draw(_class_args())]
    if verb == "verify-grid":
        suite = draw(st.sampled_from(["initial", "hankel", "toeplitz"]))
        q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        return ["verify", fmt, f"--suite={suite}", "--grid=coarse", f"--q={q!r}"]
    return ["verify", fmt, "--suite=parseval", f"--count={draw(st.integers(-1, 3))}",
            *draw(_class_args())]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_fuzz_cli_exit_codes_and_finite_output(tmp_path, argv):
    if argv[0] == "membership":  # the last item is the input file's contents
        path = tmp_path / "coeffs.json"
        path.write_bytes(argv[-1])
        argv = [*argv[:-1], str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an exception escaping here is a traceback at the shell
    assert code in ((0, 2) if argv[0] == "membership" else (0, 1, 2))
    text = out.getvalue().lower()
    if code == 0:
        assert "nan" not in text and "inf" not in text
    if code == 2:
        assert text == ""
    if "--grid=coarse" in argv:
        # every catalog bound is a theorem; below Q_MIN the search refuses q
        q = float(argv[-1].removeprefix("--q="))
        assert code == (0 if q >= Q_MIN else 2), argv
        assert "violation" not in text


# ----------------------------------------------------------------- plumbing


#: calls that pass, fail a check, or are usage errors, over every verb
_SEQUENCE = [
    ("bounds", "--q", "0.3"),
    ("extremal", "--q", "0.5", "--n", "4", "--self-check", "--format", "json"),
    ("y", "--a", "0.5", "--b", "-1", "--c", "0.25"),
    ("extremal", "--q", "0.5", "--n", "2", "--n", "3"),
    ("verify", "--suite", "toeplitz", "--grid", "coarse", "--q", "0.5", "--q", "0.8"),
    ("verify", "--suite", "parseval", "--zeta=-0.5,0", "--alpha", "0.25", "--count", "5"),
    ("extremal", "--zeta=nan,0"),
    ("bogus-verb",),
    ("bounds",),
]


def test_parser_reuse_answers_as_a_fresh_process():
    # one process runs the calls in order, then in reverse: every call gives
    # what it gives as the first call of a fresh process
    src = str(Path(qstar.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys\n"
        "from qstar.cli import run\n"
        "def call(argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = run(list(argv))\n"
        "    return [code, out.getvalue(), err.getvalue()]\n"
        "argvs = json.loads(sys.argv[1])\n"
        "json.dump([call(a) for a in argvs + argvs[::-1]], sys.stdout)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def fresh(argvs):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, check=True)
        return json.loads(proc.stdout)

    forward = fresh(_SEQUENCE)
    n = len(_SEQUENCE)
    assert forward[:n] == forward[n:][::-1]
    assert [r[0] for r in forward[:n]] == [0, 0, 0, 2, 0, 0, 2, 2, 0]
    # the first call ran first in its process; the last one runs first here
    assert fresh(_SEQUENCE[-1:])[0] == forward[n - 1]


def test_parser_reuse_keeps_no_values_between_calls(capsys):
    run_cli(capsys, "bounds", "--q", "0.3")
    assert run_cli(capsys, "bounds") == run_cli(capsys, "bounds", "--q", "0.5")
    grid = ("verify", "--suite", "toeplitz", "--grid", "coarse")
    code, both, _ = run_cli(capsys, *grid, "--q", "0.5", "--q", "0.8")
    assert code == 0 and ",0.8," in both
    assert run_cli(capsys, *grid, "--q", "0.5") == run_cli(capsys, *grid, "--q=0.5")
    assert ",0.8," not in run_cli(capsys, *grid, "--q", "0.5")[1]
    # a repeated flag is rejected in its own call only
    code, out, err = run_cli(capsys, "extremal", "--q", "0.5", "--n", "2", "--n", "2")
    assert (code, out, err) == (2, "", "qstar: --n given more than once\n")
    assert run_cli(capsys, "extremal", "--q", "0.5", "--n", "2") == (0, "n,re,im\n1,1,0\n2,4,0\n", "")


def test_usage_error_exit_code(capsys):
    assert run(["bogus-verb"]) == 2
    assert run([]) == 2
    assert run(["extremal"]) == 2  # missing --q/--zeta
    # each verb takes only the flags it reads
    assert run(["bounds", "--seed", "1"]) == 2
    assert run(["extremal", "--q", "0.5", "--order", "8"]) == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "bounds.csv"
    code, out, _ = run_cli(capsys, "bounds", "--q", "0.5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("functional,q,case,bound")


_MEMBER_FILE = "[1, 0.5, [0.1, 0.2]]"

#: one passing call of every verb
_EVERY_VERB = [
    ("bounds", "--q", "0.3", "--q", "0.7"),
    ("extremal", "--zeta", "0.3,0.4", "--alpha", "0.25", "--n", "6", "--self-check"),
    ("verify", "--suite", "toeplitz", "--grid", "coarse", "--q", "0.5"),
    ("verify", "--suite", "parseval", "--zeta=-0.5,0", "--count", "20", "--order", "5"),
    ("membership", "--q", "0.5", "--input", _MEMBER_FILE),
    ("y", "--a", "0.5", "--b", "-1", "--c", "0.25"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _EVERY_VERB, ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    if argv[-1] == _MEMBER_FILE:
        path = tmp_path / "coeffs.json"
        path.write_text(_MEMBER_FILE)
        argv = (*argv[:-1], str(path))
    argv = (*argv, "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    target = tmp_path / "out.txt"
    code_to_file, out_to_file, err_to_file = run_cli(capsys, *argv, "--out", str(target))
    assert code == code_to_file == 0 and out and err == err_to_file == ""
    assert out_to_file == ""
    assert target.read_bytes() == out.encode()


def test_failed_self_check_writes_nothing(tmp_path, capsys, monkeypatch):
    from qstar import cli

    wrong = cli.extremal_by_formula(qstar.ClassParams(0.5), 4).coeffs.copy()
    wrong[3] *= 2.0  # a route that disagrees from a_3 on
    monkeypatch.setattr(cli, "extremal_by_formula",
                        lambda params, n: qstar.StarlikeFunction.from_coeffs(wrong[1:], params))
    target = tmp_path / "out.txt"
    for extra in ((), ("--out", str(target))):
        code, out, err = run_cli(capsys, "extremal", "--q", "0.5", "--n", "4",
                                 "--self-check", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("self-check failed at n=3: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "callee, argv",
    [
        ("bound_value", ("bounds", "--q", "0.5")),
        ("extremal_by_formula", ("extremal", "--q", "0.5", "--method", "formula")),
        ("sharpness_report", ("verify", "--suite", "hankel", "--q", "0.5")),
        ("random_schwarz_suite", ("verify", "--suite", "parseval", "--q", "0.5")),
        ("membership_margin", ("membership", "--q", "0.5", "--input", "coeffs.json")),
        ("disk_quadratic_max_grid", ("y", "--a", "1", "--b", "1", "--c", "1")),
    ],
)
def test_out_of_memory_exits_2_with_no_output(capsys, monkeypatch, tmp_path, callee, argv):
    # the callee raises as numpy does when an allocation fails; nothing is allocated
    from qstar import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, callee, exhausted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.json").write_text("[1, 0.1]")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "qstar: out of memory: Unable to allocate 7.45 GiB for an array\n"


def test_module_entry_point():
    # the child imports qstar from where this process did, installed or not
    src = str(Path(qstar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qstar", "bounds", "--q", "0.5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("functional,q,case,bound")


def test_parseval_suite_never_imports_numpy_random():
    # the suite draws its Philox blocks itself: a run that spans several
    # sample batches leaves numpy.random unloaded where importing numpy does
    # (numpy 2 loads it lazily; numpy 1 loads it with numpy itself)
    src = str(Path(qstar.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from qstar.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['verify', '--suite', 'parseval', '--zeta=0.42,0.42',\n"
        "                '--alpha', '0.25', '--count', '5000'])\n"
        "print(code, before, 'numpy.random' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    code, before, after = proc.stdout.split()
    assert (code, after) == ("0", before)


def test_run_keeps_freed_heap_mapped():
    # three 0.9-MB arrays made and freed in a round: once a freed 1-MB mmap
    # has raised glibc's dynamic thresholds, each round's heap top is trimmed
    # and page-faulted back in the next; after cli.run, later rounds fault none
    src = str(Path(qstar.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, resource\n"
        "import numpy as np\n"
        "from qstar.cli import run\n"
        "def rounds(k):\n"
        "    faults = []\n"
        "    for _ in range(k):\n"
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        arrays = [np.ones(115_000) for _ in range(3)]\n"
        "        del arrays\n"
        "        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "    return faults\n"
        "np.ones(1 << 17)\n"
        "default = rounds(3)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['bounds', '--q', '0.5'])\n"
        "print(json.dumps([code, default, rounds(4)]))\n"
    )
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    code, default, steady = json.loads(proc.stdout)
    assert code == 0
    if min(default[1:]) < 200:
        pytest.skip(f"this allocator does not trim the freed rounds: {default} faults")
    assert max(steady[1:]) < 16, steady


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_identity_harness_reports_each_differing_call(tmp_path, monkeypatch, capsys):
    tool = _tool("cli_identity")
    calls = [["bounds", "--q", "0.5"], ["membership", "--q", "0.5", "--input", "member.json"],
             ["extremal", "--q", "0.5", "--n", "0"]]
    monkeypatch.setattr(tool, "CALLS", calls)
    tree = Path(__file__).resolve().parents[1]
    assert tool.main([str(tree), str(tree)]) == 0
    assert capsys.readouterr().out == "3 of 3 calls identical\n"
    # a tree whose command line answers otherwise differs on every call
    fake = tmp_path / "src" / "qstar"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def run(argv):\n    print(argv[0])\n    return 0\n")
    assert tool.main([str(tree), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("DIFF")] == [
        "DIFF qstar " + " ".join(call) for call in calls]
    assert out.endswith("0 of 3 calls identical\n")
    # two trees whose reports differ only in gap: the fields are named, in
    # the JSON and in the CSV report, and only there
    report = (
        "import json\n"
        "def run(argv):\n"
        "    rows = [('chain[n=2]', 4.0, GAPS[0]), ('parseval[n=2]', 4.0, GAPS[1]),\n"
        "            ('product[n=2]', 4.0, 0.0)]\n"
        "    if argv[0] == 'json':\n"
        "        print(json.dumps({'items': [{'name': n, 'bound': b, 'gap': g}\n"
        "                                    for n, b, g in rows], 'seed': 0}))\n"
        "    elif argv[0] == 'csv':\n"
        "        print('functional,q,case,bound,achieved,gap,verdict')\n"
        "        for n, b, g in rows:\n"
        "            print(f'{n},0.5,,{b},{b},{g},attained')\n"
        "    else:\n"
        "        print(GAPS)\n"
        "    return 0\n"
    )
    trees = []
    for name, gaps in (("old", (0.0, 0.0)), ("new", (1e-19, -2e-16))):
        fake = tmp_path / name / "src" / "qstar"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text("")
        (fake / "cli.py").write_text(f"GAPS = {gaps!r}\n" + report)
        trees.append(str(tmp_path / name))
    monkeypatch.setattr(tool, "CALLS", [["json"], ["csv"], ["text"]])
    assert tool.main(trees) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFF qstar json",
        "  fields: gap (2 items); items: chain[n=2], parseval[n=2]",
        "DIFF qstar csv",
        "  fields: gap (2 items); items: chain[n=2], parseval[n=2]",
        "DIFF qstar text",
        "  stdout: '(0.0, 0.0)\\n'",
        "    -> '(1e-19, -2e-16)\\n'",
        "0 of 3 calls identical",
    ]


def test_code_lines_counts_only_code(tmp_path, capsys):
    # docstrings, comment-only and blank lines are not code; a string that
    # spans lines is code on each of its lines
    pkg = tmp_path / "src" / "qstar"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nX = 1  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return """two\nlines"""\n')
    (pkg / "b.py").write_text("")
    _tool("code_lines").main(tmp_path)
    assert capsys.readouterr().out == "     4  a.py\n     0  b.py\n     4  total\n"
