import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import qstar
from qstar import (
    ClassParams,
    GridSpec,
    OutOfRange,
    SchurParams,
    StarlikeFunction,
    an_product,
    canonical_schwarz,
    coeffs_from_schwarz,
    extremal_by_formula,
    extremal_product,
    membership_margin,
    product_bound_applies,
    schur_expand,
    schur_rows,
)
from qstar.search import check_suite_inputs
from qstar.series import q_numbers

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_resolve_and_the_readme_sketch_runs():
    # every name a module exports exists, so no export outlives its code
    modules = [qstar] + [importlib.import_module(f"qstar.{m.name}")
                         for m in pkgutil.iter_modules(qstar.__path__)
                         if not m.name.startswith("_")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # the README's library sketch names only live API, and its asserts hold
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", README.read_text(), re.S)
    assert sketch is not None
    exec(compile(sketch.group(1), str(README), "exec"), {})


Q_HALF = ClassParams(0.5)

#: every argument that takes the integer rule: a call of one value, and the
#: least value the argument takes (None where its range has its own message)
INTEGER_SITES = {
    "GridSpec.b1_points": (lambda v: GridSpec(v, 0), 2),
    "GridSpec.levels": (lambda v: GridSpec(2, v), 0),
    "check_suite_inputs.count": (lambda v: check_suite_inputs(v, 0, 2), 0),
    "check_suite_inputs.seed": (lambda v: check_suite_inputs(0, v, 2), None),
    "check_suite_inputs.order": (lambda v: check_suite_inputs(0, 0, v), None),
    "an_product": (lambda v: an_product(Q_HALF, v), 2),
    "product_bound_applies": (lambda v: product_bound_applies(Q_HALF, v), 2),
    "q_numbers": (lambda v: q_numbers(0.5, v), 1),
    "schur_rows": (lambda v: schur_rows([[0.5, 0.2]], v), 1),
    "schur_expand": (lambda v: schur_expand(SchurParams((0.5, 0.2)), v), 1),
    "canonical_schwarz": (lambda v: canonical_schwarz("identity", v), 1),
    "coeffs_from_schwarz": (
        lambda v: coeffs_from_schwarz(canonical_schwarz("identity", 4), Q_HALF, v), 1),
    "extremal_product": (lambda v: extremal_product(Q_HALF, v), 1),
    "extremal_by_formula": (lambda v: extremal_by_formula(Q_HALF, v), 1),
    "membership_margin.radial_steps": (
        lambda v: membership_margin(StarlikeFunction([0, 1, 0.1], Q_HALF), 0.3, v, 360), None),
    "membership_margin.angular_steps": (
        lambda v: membership_margin(StarlikeFunction([0, 1, 0.1], Q_HALF), 0.3, 48, v), None),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_argument_takes_the_one_integer_rule(site):
    call, least = INTEGER_SITES[site]
    for value in (2.5, True):
        with pytest.raises(OutOfRange, match=f"= {value!r} is not an integer$"):
            call(value)
    if least is not None:
        with pytest.raises(OutOfRange, match=f"= {least - 1} must be >= {least}$"):
            call(least - 1)
    # a numpy integer is read as the int it holds (repr shows an np.int64 kept)
    assert repr(call(np.int64(3))) == repr(call(3))
