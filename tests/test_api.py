import importlib
import inspect
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


#: the package's names before it was built from the modules' own lists
FORMER_EXPORTS = """
    __version__ ClassParams SchurParams SchwarzSeries schur_expand schur_rows schur_test
    schwarz_b2b3 canonical_schwarz StarlikeFunction coeffs_from_schwarz extremal_product
    extremal_by_formula membership_margin FunctionalId named_functional hankel_matrix
    toeplitz_matrix hankel_det toeplitz_det CaseFlag BoundQuery bound_value an_product
    parseval_rhs cubic_bound_region schwarz_cubic_functional disk_quadratic_max_closed
    disk_quadratic_max_grid h2_quadratic_triple product_bound_applies GridSpec SearchSpec
    SearchResult ReportItem VerificationReport maximize_functional rotated_extremal_values
    random_schwarz_suite sharpness_report QStarError InnerNotVanishing InvalidParams
    OutOfRange IndexOutOfRange DegenerateDivisor InvalidSchwarz DenominatorVanished UnknownId
    MissingCaseFlag PreconditionViolated
""".split()


def test_the_package_exports_each_layer_module_list():
    # the package's list is __version__ and the layer modules' lists, in
    # order; exact and cli stay out
    layers = [importlib.import_module(f"qstar.{name}") for name in
              ("errors", "series", "schwarz", "starlike", "functionals", "bounds", "search")]
    assert qstar.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]
    assert len(set(qstar.__all__)) == len(qstar.__all__)
    for module in layers:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(qstar, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):  # listed where defined
                assert obj.__module__ == module.__name__, name
    assert qstar.__version__ is importlib.import_module("qstar._version").__version__
    assert set(FORMER_EXPORTS) <= set(qstar.__all__)


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
