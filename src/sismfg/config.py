"""Scenario configuration: JSON parsing and validation.

A scenario file is a single JSON object with a ``model`` block, a ``run``
kind, a ``seed``, an optional ``output`` block and exactly one run-specific
block named after the run kind (``equilibria`` needs none).  ``BLOCKS``
maps each run kind to the parser of that block, and the parsed block is
``ScenarioConfig.block``.  Validation is collected: every schema violation
and every model-invariant violation is reported, not just the first.
Unknown keys are rejected at every level.
Parsing builds what the run uses (model, controls, grids, states, and
the stationary solutions the ``"stationary"`` tokens name, a turnpike's
anchor among them) with the runtime's own constructors and solvers, whose
refusals become errors at the block's path: a parsed block holds no
tokens.  It keeps the validated input as ``source``, which the manifest
echoes.

Public file conventions: strategies and parameter-path indices are 1-based
(matching the x_1I / x_1S column labels); the Python API is 0-based.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics
from .dynamics import (
    TimeGrid,
    check_forward_grid,
    check_turnpike_grid,
    default_grid,
    lln_reference_grid,
    require_turnpike_hypotheses,
    stationary_anchor,
)
from .model import MixedState, ModelParams, ParamStack, StationaryControl, ValueVector
from .nplayer import check_rate_bound
from .stationary import fixed_point_mixed, fixed_point_single

OUTPUT_FORMATS = ("csv", "json")

#: parameter paths a sweep may override, with the index arity they take
SWEEPABLE = {"lambda": 0, "delta": 0, "q_plus": 1, "q_minus": 1, "w_I": 1, "w_S": 1, "beta": 2}

_PATH_RE = re.compile(r"^([A-Za-z_]+)((?:\[\d+\])*)$")


class ConfigError(Exception):
    """Invalid scenario file; ``errors`` lists every violation found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class OutputConfig:
    dir: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class SimulateConfig:
    control: StationaryControl
    x0: MixedState
    grid: TimeGrid


@dataclass(frozen=True)
class TurnpikeConfig:
    strategy: int  # 0-based anchor strategy
    x0: MixedState
    g_terminal: ValueVector
    grid: TimeGrid
    anchor: tuple[MixedState, ValueVector]  # ``stationary_anchor(model, strategy)``


@dataclass(frozen=True)
class NPlayerConfig:
    control: StationaryControl
    x0: MixedState
    t_end: float
    n_agents: int | None = None
    n_list: tuple[int, ...] | None = None
    replications: int = 1


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class SweepConfig:
    axes: tuple[SweepAxis, ...]
    points: np.ndarray  # the grid points (``sweep_grid``), one column per axis
    stack: ParamStack  # the model at every grid point


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelParams
    run: str
    seed: int
    source: dict  # the validated scenario object as read
    output: OutputConfig = field(default_factory=OutputConfig)
    #: the run kind's block (``BLOCKS``); None for equilibria
    block: SimulateConfig | TurnpikeConfig | NPlayerConfig | SweepConfig | None = None

    def to_dict(self) -> dict:
        """The scenario as read, with the seed in force (the manifest's echo)."""
        return {**self.source, "seed": self.seed}


def _leaves(value):
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    def expect_keys(self, where: str, obj: dict, required: set, optional: set) -> bool:
        ok = True
        for key in sorted(set(obj) - required - optional):
            self.add(where, f"unknown key '{key}'")
            ok = False
        for key in sorted(required - set(obj)):
            self.add(where, f"missing key '{key}'")
            ok = False
        return ok

    def number(self, where: str, obj: dict, key: str, default=None):
        if key not in obj:
            return default
        arr = self.numbers(f"{where}.{key}", obj[key])
        if arr is not None and arr.ndim:
            self.add(f"{where}.{key}", "expected a number, got a list")
            arr = None
        return default if arr is None else float(arr)

    def numbers(self, where: str, value) -> np.ndarray | None:
        """value, a number or a nested list of numbers, as a float array;
        None, with an error, when an entry is not an int or a float (a bool
        is neither), the lists are ragged, or an entry is not finite
        (Python's json parser accepts the Infinity and NaN literals).  The
        caller checks the shape."""
        bad = [v for v in _leaves(value) if isinstance(v, bool) or not isinstance(v, (int, float))]
        if bad:
            self.add(where, f"expected numbers, got {type(bad[0]).__name__} {bad[0]!r}")
            return None
        try:
            arr = np.asarray(value, dtype=float)
        except ValueError:
            self.add(where, "expected a number or equally long lists of numbers")
            return None
        except OverflowError:
            self.add(where, "expected finite numbers, got an integer beyond float range")
            return None
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            self.add(where, f"expected finite numbers, got {bad.flat[0]}")
            return None
        return arr

    def build(self, where: str, make, *args):
        """make(*args), or None with an error: the runtime's constructors
        raise ValueError on what they refuse, a stationary value solve
        RuntimeError when its certificate fails, and the default grid rule
        OverflowError when its step count is not finite."""
        try:
            return make(*args)
        except (ValueError, RuntimeError) as exc:
            self.add(where, str(exc))
        except OverflowError as exc:
            self.add(where, f"no finite number of grid steps ({exc})")
        return None

    def integer(self, where: str, obj: dict, key: str, default=None):
        if key not in obj:
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.add(f"{where}.{key}", f"expected an integer, got {type(v).__name__}")
            return default
        return int(v)


def _parse_model(data, col: _Collector) -> ModelParams | None:
    where = "model"
    if not isinstance(data, dict):
        col.add(where, "expected an object")
        return None
    required = {"d", "lambda", "delta", "q_plus", "q_minus", "beta", "w_I", "w_S"}
    if not col.expect_keys(where, data, required, set()):
        return None
    d = col.integer(where, data, "d")
    lam = col.number(where, data, "lambda")
    delta = col.number(where, data, "delta")
    arrays = {key: col.numbers(f"{where}.{key}", data[key])
              for key in ("q_plus", "q_minus", "beta", "w_I", "w_S")}
    if None in (d, lam, delta) or any(v is None for v in arrays.values()):
        return None
    try:
        return ModelParams(d=d, lam=lam, delta=delta, **arrays)
    except ValueError as exc:
        for msg in str(exc).split("; "):
            col.add(where, msg)
        return None


def _strategy_indices(value, where: str, col: _Collector, vector: bool):
    """A 1-based strategy index from the file (with vector, a list of them)
    made 0-based; None, with an error, for anything else: int() would
    truncate a fractional index and read a boolean as 0 or 1."""
    entries = value if vector and isinstance(value, list) else [value]
    bad = [v for v in entries if isinstance(v, bool) or not isinstance(v, int)]
    if bad or (vector and not isinstance(value, list)):
        expected = "a list of integer strategy indices" if vector else "an integer strategy index"
        col.add(where, f"expected {expected} (1-based), got {(bad or [value])[0]!r}")
        return None
    return np.asarray(entries) - 1 if vector else value - 1


def _parse_control(data, d: int, where: str, col: _Collector) -> StationaryControl | None:
    if not isinstance(data, dict):
        col.add(where, "expected an object")
        return None
    kind = data.get("type")
    keys = {"single": ("i",), "mixed": ("i", "k"), "explicit": ("target_I", "target_S")}
    if not isinstance(kind, str) or kind not in keys:  # a list or an object is unhashable
        col.add(f"{where}.type", "expected 'single', 'mixed' or 'explicit'")
        return None
    if not col.expect_keys(where, data, {"type", *keys[kind]}, set()):
        return None
    idx = [_strategy_indices(data[key], f"{where}.{key}", col, kind == "explicit")
           for key in keys[kind]]
    if any(v is None for v in idx):
        return None
    if kind == "explicit":
        return col.build(where, StationaryControl, *idx)
    return col.build(where, getattr(StationaryControl, kind), d, *idx)


def _parse_state(data, n_states: int, where: str, col: _Collector, make, tokens):
    """One of tokens ('uniform' as its MixedState, 'stationary' for the caller
    to solve), or a list of n_states finite numbers that make accepts."""
    if isinstance(data, str) and data in tokens:
        return MixedState.uniform(n_states // 2) if data == "uniform" else data
    if not isinstance(data, list):
        col.add(where, f"expected one of {list(tokens)} or a list of {n_states} numbers")
        return None
    arr = col.numbers(where, data)
    if arr is not None and arr.shape != (n_states,):
        col.add(where, f"expected {n_states} entries, got shape {arr.shape}")
        return None
    return None if arr is None else col.build(where, make, arr)


def _stationary_state(model: ModelParams, u: StationaryControl) -> MixedState:
    """The fixed point of u, which only a uniform control has."""
    if not u.is_uniform:
        raise ValueError("'stationary' needs a uniform control (all target_I equal and all "
                         "target_S equal)")
    i, k = u.as_pair()
    return fixed_point_single(model, i)[1] if u.is_single else fixed_point_mixed(model, i, k)


def _parse_x0(block: dict, model: ModelParams, where: str, col: _Collector,
              control: StationaryControl | None) -> MixedState | None:
    """Start state: 'uniform', a vector MixedState accepts (entries >= 0
    summing to 1), or 'stationary', the fixed point of the control; None,
    with an error, when it is refused (or the control was)."""
    where = f"{where}.x0"
    x0 = _parse_state(block.get("x0"), model.n_states, where, col, MixedState,
                      ("uniform", "stationary"))
    if x0 == "stationary":  # a refused control (None) has its error already
        x0 = None if control is None else col.build(where, _stationary_state, model, control)
    return x0


def _parse_grid(data, model: ModelParams, where: str, col: _Collector) -> TimeGrid | None:
    """The grid the run integrates on: ``TimeGrid(t_start, t_end,
    n_steps)``, or ``default_grid``'s without n_steps; None, with an error,
    when it is refused or over the budget."""
    if not isinstance(data, dict):
        col.add(where, "expected an object")
        return None
    col.expect_keys(where, data, {"t_start", "t_end"}, {"n_steps"})
    t0 = col.number(where, data, "t_start")
    t1 = col.number(where, data, "t_end")
    n = col.integer(where, data, "n_steps")
    if t0 is None or t1 is None or (n is None and "n_steps" in data):
        return None
    if n is None:
        grid = col.build(where, default_grid, model, t0, t1)
    else:
        grid = col.build(where, TimeGrid, t0, t1, n)
    return grid if grid is not None and _within_budget(model, grid, where, col) else None


def _within_budget(model: ModelParams, grid: TimeGrid, where: str, col: _Collector) -> bool:
    """False, with an error, when a path on the grid, nodes x 2d entries,
    exceeds ``dynamics.GRID_BUDGET``.  No path is allocated."""
    entries = (grid.n_steps + 1) * model.n_states
    if entries <= dynamics.GRID_BUDGET:
        return True
    col.add(where, f"{grid.n_steps + 1} nodes x {model.n_states} states = {entries} entries "
                   f"exceed the grid budget of {dynamics.GRID_BUDGET}")
    return False


def parse_sweep_path(path: str, d: int) -> tuple[str, tuple[int, ...]]:
    """Split a 1-based override path like 'beta[1][2]' into its 0-based parts."""
    m = _PATH_RE.match(path)
    if not m:
        raise ValueError(f"malformed parameter path '{path}'")
    name = m.group(1)
    idx = tuple(int(s) - 1 for s in re.findall(r"\[(\d+)\]", m.group(2)))
    if name not in SWEEPABLE:
        raise ValueError(f"'{name}' is not a sweepable parameter (one of {sorted(SWEEPABLE)})")
    if len(idx) != SWEEPABLE[name]:
        raise ValueError(f"'{name}' takes {SWEEPABLE[name]} index(es), got {len(idx)}")
    for q in idx:
        if not 0 <= q < d:
            raise ValueError(f"index out of range in '{path}' (d={d}, indices are 1-based)")
    return name, idx


def apply_override(stack: ParamStack, path: str, values, d: int) -> None:
    """Write one sweep axis into stacked parameters: point n of the stack
    gets values[n] at the model entry the override path names."""
    name, idx = parse_sweep_path(path, d)
    getattr(stack, "lam" if name == "lambda" else name)[(slice(None),) + idx] = values


def sweep_grid(model: ModelParams, axes) -> tuple[np.ndarray, ParamStack]:
    """The product grid of the sweep axes and its stacked parameters.

    Points are in grid order (the last axis varies fastest), one column per
    axis; point n of the stack is the model with row n's overrides applied.
    """
    mesh = np.meshgrid(*(np.asarray(axis.values, dtype=float) for axis in axes), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    stack = ParamStack.tile(model, len(points))
    for a, axis in enumerate(axes):
        apply_override(stack, axis.path, points[:, a], model.d)
    return points, stack


def _parse_output(data, col: _Collector) -> OutputConfig:
    if not isinstance(data, dict):
        col.add("output", "expected an object")
        return OutputConfig()
    col.expect_keys("output", data, set(), {"dir", "format"})
    fmt, dir_ = data.get("format", "csv"), data.get("dir")
    if fmt not in OUTPUT_FORMATS:
        col.add("output.format", f"expected one of {list(OUTPUT_FORMATS)}")
    if dir_ is not None and not isinstance(dir_, str):
        col.add("output.dir", "expected a string")
    return OutputConfig(dir=dir_, format=fmt)


def _parse_simulate(block: dict, model: ModelParams, col: _Collector) -> SimulateConfig | None:
    col.expect_keys("simulate", block, {"control", "x0", "grid"}, set())
    control = _parse_control(block.get("control"), model.d, "simulate.control", col)
    x0 = _parse_x0(block, model, "simulate", col, control)
    grid = _parse_grid(block.get("grid"), model, "simulate.grid", col)
    if not col.errors:  # checked last, so an overflowing start keeps its one error
        col.build("simulate.grid", check_forward_grid, model, grid)
    return None if col.errors else SimulateConfig(control=control, x0=x0, grid=grid)


def _parse_turnpike(block: dict, model: ModelParams, col: _Collector) -> TurnpikeConfig | None:
    where = "turnpike"
    col.expect_keys(where, block, {"strategy", "x0", "g_terminal", "grid"}, set())
    strategy = col.integer(where, block, "strategy")
    if strategy is not None and not 1 <= strategy <= model.d:
        col.add(f"{where}.strategy", f"must be in [1, {model.d}] (1-based)")
    x0 = _parse_state(block.get("x0"), model.n_states, f"{where}.x0", col, MixedState,
                      ("uniform", "stationary"))
    gT = _parse_state(block.get("g_terminal"), model.n_states, f"{where}.g_terminal", col,
                      ValueVector, ("stationary",))
    grid = _parse_grid(block.get("grid"), model, f"{where}.grid", col)
    # the tokens 'stationary' name the anchor, solved once the rest is valid; the
    # named hypotheses and the grid's check against the model's rates follow a
    # solved anchor, so an anchor that overflows keeps its one error
    anchor = None if col.errors else col.build(where, stationary_anchor, model, strategy - 1)
    if anchor is None:
        return None
    gT = anchor[1] if gT == "stationary" else gT
    col.build(where, require_turnpike_hypotheses, model, strategy - 1, gT)
    col.build(f"{where}.grid", check_turnpike_grid, model, grid)
    if col.errors:
        return None
    return TurnpikeConfig(strategy=strategy - 1, x0=anchor[0] if x0 == "stationary" else x0,
                          g_terminal=gT, grid=grid, anchor=anchor)


def _parse_nplayer(block: dict, model: ModelParams, col: _Collector) -> NPlayerConfig | None:
    where = "nplayer"
    col.expect_keys(where, block, {"control", "x0", "t_end"},
                    {"n_agents", "n_list", "replications"})
    control = _parse_control(block.get("control"), model.d, f"{where}.control", col)
    x0 = _parse_x0(block, model, where, col, control)
    t_end = col.number(where, block, "t_end")
    n_agents = col.integer(where, block, "n_agents")
    reps = col.integer(where, block, "replications", default=1)
    # the jump loop holds agent counts as floats, which are exact up to 2**53
    too_many = "must be <= 2**53, the largest agent count a run holds exactly"
    n_list = None
    if "n_list" in block:
        raw = block["n_list"]
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in raw)
        ):
            col.add(f"{where}.n_list", "expected a non-empty list of integers >= 1")
        elif max(raw) > 2**53:
            col.add(f"{where}.n_list", too_many)
        else:
            n_list = tuple(raw)
    if "n_agents" not in block and "n_list" not in block:
        col.add(where, "one of 'n_agents' or 'n_list' is required")
    if n_agents is not None and n_agents < 1:
        col.add(f"{where}.n_agents", "must be >= 1")
    elif n_agents is not None and n_agents > 2**53:
        col.add(f"{where}.n_agents", too_many)
    if t_end is not None and t_end <= 0:
        col.add(f"{where}.t_end", "must be > 0")
        t_end = None
    if t_end is not None and n_list is not None:
        ref = col.build(f"{where}.t_end", lln_reference_grid, model, t_end)
        if ref is not None:
            _within_budget(model, ref[1], f"{where}.t_end", col)
    if reps is not None and reps < 1:
        col.add(f"{where}.replications", "must be >= 1")
    if not col.errors:  # checked once the rest is valid, as a turnpike's anchor is
        for key, N in (("n_agents", n_agents), ("n_list", n_list and max(n_list))):
            if N:
                col.build(f"{where}.{key}", check_rate_bound, model, N)
    if col.errors:
        return None
    return NPlayerConfig(control=control, x0=x0, t_end=t_end, n_agents=n_agents,
                         n_list=n_list, replications=reps)


def _parse_sweep(block: dict, model: ModelParams, col: _Collector) -> SweepConfig | None:
    """The sweep with its grid, which is checked once every axis parsed: a
    grid point that breaks a model invariant or has delta = 0 is an error."""
    where = "sweep"
    col.expect_keys(where, block, {"axes"}, set())
    axes_raw = block.get("axes")
    if not isinstance(axes_raw, list) or not axes_raw:
        col.add(f"{where}.axes", "expected a non-empty list of axes")
        return None
    axes: list[SweepAxis] = []
    seen: dict[tuple, int] = {}  # parsed (name, indices) -> first axis
    for a_idx, axis in enumerate(axes_raw):
        awhere = f"{where}.axes[{a_idx}]"
        if not isinstance(axis, dict):
            col.add(awhere, "expected an object")
            continue
        col.expect_keys(awhere, axis, {"path", "values"}, set())
        path = axis.get("path")
        values = axis.get("values")
        if not isinstance(path, str):
            col.add(f"{awhere}.path", "expected a string")
            continue
        try:
            target = parse_sweep_path(path, model.d)
        except ValueError as exc:
            col.add(f"{awhere}.path", str(exc))
            continue
        if target in seen:
            col.add(f"{awhere}.path", f"'{path}' overrides the same entry as "
                                      f"{where}.axes[{seen[target]}]")
            continue
        seen[target] = a_idx
        if not isinstance(values, list) or not values or any(isinstance(v, list) for v in values):
            col.add(f"{awhere}.values", "expected a non-empty list of numbers")
            continue
        values = col.numbers(f"{awhere}.values", values)
        if values is not None:
            axes.append(SweepAxis(path=path, values=tuple(values.tolist())))
    if len(axes) < len(axes_raw):
        return None
    points, stack = sweep_grid(model, axes)
    violations = stack.violations(positive_discount=True)
    for msg, bad in violations:
        first = int(np.argmax(bad))
        at = ", ".join(f"{axis.path}={float(points[first, a])!r}" for a, axis in enumerate(axes))
        col.add("sweep.axes", f"{msg} at grid point {at} ({int(bad.sum())} of {len(points)} points)")
    return None if col.errors else SweepConfig(axes=tuple(axes), points=points, stack=stack)


#: run kind -> parser of its block, ``(block, model, col)`` -> the block's
#: config, or None when an error was collected (``equilibria`` has no block)
BLOCKS = {
    "equilibria": None,
    "simulate": _parse_simulate,
    "turnpike": _parse_turnpike,
    "nplayer": _parse_nplayer,
    "sweep": _parse_sweep,
}


def parse_config_dict(data: dict) -> ScenarioConfig:
    """Validate a scenario object; raises ConfigError listing every problem."""
    col = _Collector()
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    run = data.get("run")
    if not isinstance(run, str) or run not in BLOCKS:
        col.add("run", f"expected one of {list(BLOCKS)}, got {run!r}")
        run = None
    parse_block = BLOCKS.get(run)
    top_required = {"model", "run", "seed"} | ({run} if parse_block else set())
    col.expect_keys("top level", data, top_required, {"output"})
    model = _parse_model(data.get("model"), col) if "model" in data else None
    seed = col.integer("top level", data, "seed", default=None)
    if seed is not None and seed < 0:
        # the seed keys the Philox streams, which take non-negative integers
        col.add("top level.seed", f"must be >= 0, got {seed}")
    output = _parse_output(data.get("output", {}), col)
    block = None
    if model is not None and run in ("equilibria", "turnpike"):
        # the stationary solver, which also anchors a turnpike, refuses delta = 0
        for msg, _ in ParamStack.tile(model).violations(positive_discount=True):
            col.add("model", msg)
    if model is not None and run is not None and run in data:
        if not isinstance(data[run], dict):
            col.add(run, "expected an object")
        elif parse_block:
            block = parse_block(data[run], model, col)
    if col.errors:
        raise ConfigError(col.errors)
    return ScenarioConfig(model=model, run=run, seed=seed, source=copy.deepcopy(data),
                          output=output, block=block)


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    return parse_config_dict(data)
