"""Outside-in span recorder for sismfg.

The recorder wraps the public functions of each layer module and puts the
wrapper at every sismfg module namespace that holds the function, so a
call is seen however its caller looked the name up (``run_simulate`` finds
``integrate_forward`` in ``sismfg.runs``, ``lln_error`` finds it in
``sismfg.nplayer``).  Nothing inside the package changes.  A span is
(name, start, end, parent); spans stay in memory until the run ends.

Two hot names are counted instead of spanned, to keep the overhead off the
per-node and per-stage loops: ``model.best_response`` and the closures that
``model.kinetic_rhs_fn`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from pathlib import Path
from time import perf_counter

MODULES = (
    "sismfg",
    "sismfg.cli",
    "sismfg.config",
    "sismfg.model",
    "sismfg.stationary",
    "sismfg.dynamics",
    "sismfg.nplayer",
    "sismfg.runs",
)

#: layer module -> public functions recorded as spans
SPANNED = {
    "config": ("parse_config", "parse_config_dict", "apply_override"),
    "model": ("consistency_residual",),
    "stationary": (
        "enumerate_equilibria",
        "solve_candidate",
        "fixed_point_single",
        "fixed_point_mixed",
        "hjb_single_exact",
        "hjb_mixed_exact",
        "consistency_single",
        "consistency_mixed",
        "stability_single",
        "stability_numerical",
    ),
    "dynamics": (
        "default_grid",
        "check_turnpike_hypotheses",
        "integrate_forward",
        "integrate_backward",
        "argmin_flags",
        "cone_flags",
        "solve_turnpike",
    ),
    "nplayer": ("simulate_ctmc", "lln_error"),
    "runs": (
        "run_scenario",
        "run_equilibria",
        "run_simulate",
        "run_turnpike",
        "run_nplayer",
        "run_sweep",
    ),
}
#: (layer module, class, method) recorded as spans
SPANNED_METHODS = (("nplayer", "CtmcPath", "counts"),)

RHS_EVALS = "model.kinetic_rhs_evals"
BEST_RESPONSE_CALLS = "model.best_response_calls"


class Recorder:
    """Spans in parallel lists; ``attrs`` holds per-span numbers such as
    the steps of a forward integration or the events of a CTMC path."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.counts = {RHS_EVALS: 0, BEST_RESPONSE_CALLS: 0}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children (children of
        one span run one after another, so their intervals do not overlap)."""
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, name in enumerate(self.names):
                fh.write(f"{idx},{name},{self.starts[idx]!r},{self.ends[idx]!r},{self.parents[idx]}\n")


def _span_wrapper(rec: Recorder, fn, name: str, attr=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if attr is not None:
            rec.attrs[idx] = attr(args, kwargs, result)
        return result

    return wrapper


def _forward_steps(args, kwargs, _result):
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    return {"steps": grid.n_steps}


def _ctmc_events(_args, _kwargs, result):
    return {"events": result.n_events}


ATTRS = {
    "dynamics.integrate_forward": _forward_steps,
    "nplayer.simulate_ctmc": _ctmc_events,
}


def _counting(rec: Recorder, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counting_rhs_factory(rec: Recorder, fn):
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        return _counting(rec, fn(*args, **kwargs), RHS_EVALS)

    return factory


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    modules = [importlib.import_module(m) for m in MODULES]
    patches = []

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    try:
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"sismfg.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                span = f"{layer}.{fname}"
                patch_everywhere(fn, _span_wrapper(rec, fn, span, ATTRS.get(span)))
        for layer, cls_name, meth in SPANNED_METHODS:
            cls = getattr(importlib.import_module(f"sismfg.{layer}"), cls_name)
            fn = vars(cls)[meth]
            patches.append((cls, meth, fn))
            setattr(cls, meth, _span_wrapper(rec, fn, f"{layer}.{cls_name}.{meth}"))
        model = importlib.import_module("sismfg.model")
        patch_everywhere(model.best_response,
                         _counting(rec, model.best_response, BEST_RESPONSE_CALLS))
        patch_everywhere(model.kinetic_rhs_fn, _counting_rhs_factory(rec, model.kinetic_rhs_fn))
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


RUN_FUNCTIONS = tuple(f"runs.{name}" for name in SPANNED["runs"])

#: every per-layer metric with its unit, in the order they are reported
UNITS = {
    "config.parse_s": "s",
    "stationary.enumerate_s": "s",
    "stationary.us_per_candidate": "us",
    "stationary.fixed_point_mixed_calls": "count",
    "stationary.stability_s": "s",
    "stationary.margins_s": "s",
    RHS_EVALS: "count",
    BEST_RESPONSE_CALLS: "count",
    "dynamics.forward_s": "s",
    "dynamics.forward_steps": "count",
    "dynamics.forward_us_per_step": "us",
    "dynamics.backward_s": "s",
    "dynamics.argmin_flags_s": "s",
    "dynamics.turnpike_self_s": "s",
    "nplayer.simulate_s": "s",
    "nplayer.events_per_s": "events/s",
    "nplayer.replications_s": "s",
    "nplayer.path_table_s": "s",
    "runs.write_s": "s",
    "trace.solve_s": "s",
}


def layer_metrics(rec: Recorder, n_solves: int, d: int) -> dict[str, float]:
    """Per-layer metrics per solve.  ``d`` is the model's strategy count,
    which sets the d^2 candidates of one enumeration."""
    dur = rec.durations()
    own = rec.self_times()

    def total(*names, times=dur):
        return sum(t for t, n in zip(times, rec.names) if n in names)

    def count(name):
        return sum(1 for n in rec.names if n == name)

    def attr_sum(name, key):
        return sum(a[key] for idx, a in rec.attrs.items() if rec.names[idx] == name)

    config_top = sum(
        t for t, n, p in zip(dur, rec.names, rec.parents)
        if n.startswith("config.") and not (p >= 0 and rec.names[p].startswith("config."))
    )
    enumerate_s = total("stationary.enumerate_equilibria")
    n_enum = count("stationary.enumerate_equilibria")
    forward_s = total("dynamics.integrate_forward")
    forward_steps = attr_sum("dynamics.integrate_forward", "steps")
    simulate_s = total("nplayer.simulate_ctmc")
    events = attr_sum("nplayer.simulate_ctmc", "events")
    per = 1.0 / n_solves
    return {
        "config.parse_s": config_top * per,
        "stationary.enumerate_s": enumerate_s * per,
        "stationary.us_per_candidate": 1e6 * enumerate_s / (n_enum * d * d) if n_enum else 0.0,
        "stationary.fixed_point_mixed_calls": count("stationary.fixed_point_mixed") * per,
        "stationary.stability_s": total("stationary.stability_single",
                                        "stationary.stability_numerical") * per,
        "stationary.margins_s": total("stationary.consistency_single",
                                      "stationary.consistency_mixed") * per,
        RHS_EVALS: rec.counts[RHS_EVALS] * per,
        BEST_RESPONSE_CALLS: rec.counts[BEST_RESPONSE_CALLS] * per,
        "dynamics.forward_s": forward_s * per,
        "dynamics.forward_steps": forward_steps * per,
        "dynamics.forward_us_per_step": 1e6 * forward_s / forward_steps if forward_steps else 0.0,
        "dynamics.backward_s": total("dynamics.integrate_backward") * per,
        "dynamics.argmin_flags_s": total("dynamics.argmin_flags") * per,
        "dynamics.turnpike_self_s": total("dynamics.solve_turnpike", times=own) * per,
        "nplayer.simulate_s": simulate_s * per,
        "nplayer.events_per_s": events / simulate_s if simulate_s else 0.0,
        "nplayer.replications_s": total("nplayer.lln_error", times=own) * per,
        "nplayer.path_table_s": total("nplayer.CtmcPath.counts") * per,
        "runs.write_s": total(*RUN_FUNCTIONS, times=own) * per,
    }
