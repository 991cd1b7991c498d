"""Names that tooling outside the package looks up must exist.

``perfbench/spans.py`` wraps functions and methods by name when it traces a
benchmark run (``perfbench/run.py --trace 1``); a renamed or deleted one
breaks the trace only when it runs.  The package's ``__all__`` is checked
the same way.
"""

import importlib
import sys
from pathlib import Path

import sismfg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
import spans  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_spanned_names_resolve():
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.SPANNED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sismfg.{layer}"), name, None))
    ]
    for layer, cls_name, meth in spans.SPANNED_METHODS:
        cls = getattr(importlib.import_module(f"sismfg.{layer}"), cls_name, None)
        if meth not in vars(cls or object):
            missing.append(f"{layer}.{cls_name}.{meth}")
    assert not missing, missing


def test_package_exports_resolve():
    assert [name for name in sismfg.__all__ if not hasattr(sismfg, name)] == []
