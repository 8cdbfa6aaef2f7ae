import importlib
import pkgutil
import re
from pathlib import Path

import qstar

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
