"""Every op of the benchmark's workloads, run once and judged by its own check.

The benchmark (``perfbench/``) counts an op whose output fails its check in
``perfbench/workloads.py`` as a failed op.  So a change that adds a verdict
word, renames a report item or drops a JSON key that a check reads breaks the
benchmark.  This runs the tiny job lists through ``qstar.cli.run``, so that
the test suite finds such a change first.  ``workloads.py`` is imported by
path and only read.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from qstar.cli import run

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # its dataclasses look their module up
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_op_passes_its_check(tmp_path, name):
    load = workloads.build(name, seed=1, tiny=True, workdir=tmp_path)
    assert load.ops
    for op in load.ops:  # in order: a membership op reads its extremal's file
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(op.argv))
        assert code == 0, (op.argv, err.getvalue())
        op.check(out.getvalue())  # raises CheckFailed on a wrong output
