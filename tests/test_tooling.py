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


def test_trace_sees_one_reference_integration_with_its_steps(p0):
    # perfbench books the reference's steps from the grid it sees passed to
    # integrate_forward, and its time apart from the replications
    from sismfg import MixedState, StationaryControl, lln_error

    rec = spans.Recorder()
    with spans.traced(rec):
        table = lln_error(p0, StationaryControl.single(2, 0), MixedState.uniform(2), 2.0,
                          [10], 1, seed=0)
    forward = [idx for idx, name in enumerate(rec.names) if name == "dynamics.integrate_forward"]
    assert len(forward) == 1
    assert rec.attrs[forward[0]] == {"steps": table.reference_steps}


def test_trace_counts_every_forward_rhs_evaluation(p0):
    # perfbench counts model.kinetic_rhs_evals through the closures that
    # kinetic_rhs_fn returns, so a forward path that stops calling them would
    # read 0; one classical RK4 step is four evaluations
    from sismfg import MixedState, StationaryControl, TimeGrid, integrate_forward

    rec = spans.Recorder()
    with spans.traced(rec):
        integrate_forward(p0, MixedState.uniform(2), StationaryControl.single(2, 0),
                          TimeGrid(0.0, 2.0, 2000))
    assert rec.counts[spans.RHS_EVALS] == 4 * 2000


def test_trace_counts_only_the_forward_steps_taken(p0):
    # from uniform at h = 0.02 the path reaches its step map's fixed point
    # mid-horizon; integrate_forward stops stepping there, and the count
    # is four evaluations per step it took
    import numpy as np

    from sismfg import MixedState, StationaryControl, TimeGrid, integrate_forward

    grid = TimeGrid(0.0, 60.0, 3000)
    rec = spans.Recorder()
    with spans.traced(rec):
        path = integrate_forward(p0, MixedState.uniform(2), StationaryControl.single(2, 0), grid)
    bits = path.view(np.int64)
    taken = int(np.argmax(np.all(bits[1:] == bits[:-1], axis=1))) + 1  # first repeating node
    assert taken < grid.n_steps
    assert rec.counts[spans.RHS_EVALS] == 4 * taken
