"""Configuration parsing, run orchestration, CLI contract."""

import csv
import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sismfg import ConfigError, StationaryControl, dynamics, parse_config, run_scenario, runs
from sismfg.cli import main
from sismfg.config import BLOCKS, parse_config_dict
from sismfg.dynamics import GRID_BUDGET, TimeGrid, default_grid, stationary_anchor
from sismfg.model import MixedState, ModelParams, ValueVector
from sismfg.runs import ROW_CHUNK, _Columns, _write_table, fmt
from sismfg.stationary import (
    candidate_controls,
    enumerate_equilibria,
    fixed_point_mixed,
    fixed_point_single,
)

from conftest import P0, oracle_csv_table

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal_d1() -> dict:
    return {
        "model": {
            "d": 1,
            "lambda": 2.0,
            "delta": 0.3,
            "q_plus": [0.5],
            "q_minus": [0.4],
            "beta": [[0.1]],
            "w_I": [2.0],
            "w_S": [1.0],
        },
        "run": "equilibria",
        "seed": 0,
    }


def write_config(tmp_path: Path, data: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_parses():
    cfg = parse_config_dict(minimal_d1())
    assert cfg.run == "equilibria" and cfg.model.d == 1 and cfg.seed == 0


def test_equal_costs_rejected_with_modeling_message():
    data = minimal_d1()
    data["model"]["w_S"] = [2.0]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert any("better" in e for e in err.value.errors)


def test_p0_fixture_file_round_trips(p0):
    cfg = parse_config(REPO_CONFIGS / "p0_equilibria.json")
    assert cfg.model.d == p0.d
    assert cfg.model.lam == p0.lam and cfg.model.delta == p0.delta
    for name in ("q_plus", "q_minus", "beta", "w_I", "w_S"):
        assert np.array_equal(getattr(cfg.model, name), getattr(p0, name))


def test_unknown_keys_rejected():
    data = minimal_d1()
    data["extra"] = 1
    data["model"]["typo"] = 2
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    msgs = "\n".join(err.value.errors)
    assert "unknown key 'extra'" in msgs and "unknown key 'typo'" in msgs


def test_all_errors_collected_not_just_first():
    data = minimal_d1()
    data["model"]["lambda"] = -1.0
    data["model"]["w_S"] = [5.0]
    data["run"] = "nonsense"
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert len(err.value.errors) >= 3


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")


def test_canonical_form_idempotent():
    cfg1 = parse_config(REPO_CONFIGS / "p0_turnpike.json")
    d1 = cfg1.to_dict()
    cfg2 = parse_config_dict(json.loads(json.dumps(d1)))
    assert cfg2.to_dict() == d1


def test_sweep_path_validation():
    data = minimal_d1()
    data["run"] = "sweep"
    data["sweep"] = {"axes": [{"path": "beta[1][7]", "values": [0.1]}]}
    with pytest.raises(ConfigError, match="out of range"):
        parse_config_dict(data)
    data["sweep"] = {"axes": [{"path": "gamma", "values": [0.1]}]}
    with pytest.raises(ConfigError, match="not a sweepable"):
        parse_config_dict(data)


def test_empty_sweep_axis_rejected():
    data = minimal_d1()
    data["run"] = "sweep"
    data["sweep"] = {"axes": [{"path": "delta", "values": []}]}
    with pytest.raises(ConfigError):
        parse_config_dict(data)


@pytest.mark.parametrize(
    "literal, value", [("Infinity", np.inf), ("-Infinity", -np.inf), ("NaN", np.nan)]
)
def test_non_finite_numbers_rejected(tmp_path, literal, value):
    # Python's json accepts these literals; each must fail validation with
    # its path named instead of failing later in a solver
    text = (REPO_CONFIGS / "p0_equilibria.json").read_text()
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"lambda": 100.0', f'"lambda": {literal}'))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert [e.split(":")[0] for e in err.value.errors] == ["model.lambda"]
    assert "finite" in err.value.errors[0]
    assert main(["solve", str(path), "--validate-only"]) == 1

    data = minimal_d1()
    data["model"]["beta"] = [[value]]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["model.beta"]

    data = minimal_d1()
    data["run"] = "sweep"
    data["sweep"] = {"axes": [{"path": "delta", "values": [0.1, value]}]}
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["sweep.axes[0].values"]


@pytest.mark.parametrize("x0", [["a", 0.5, 0.25, 0.25], [[0.5], 0.5, 0.25, 0.25]])
def test_non_numeric_state_entries_rejected(x0):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"]["x0"] = x0
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["turnpike.x0"]


def test_negative_seed_rejected(tmp_path):
    # the seed keys the Philox streams, which refuse negative integers
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["seed"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["top level.seed"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1
    data["seed"] = 0
    assert parse_config_dict(data).seed == 0


@pytest.mark.parametrize(
    "key, value", [("n_agents", 10**20), ("n_agents", 2**53 + 1), ("n_list", [10, 10**20])]
)
def test_agent_counts_beyond_exact_floats_rejected(tmp_path, key, value):
    # the jump loop holds agent counts and N as floats, exact up to 2**53;
    # 10**20 overflowed the int64 counts and failed as "agent counts must be >= 0"
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    del data["nplayer"]["n_agents"]
    data["nplayer"][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [f"nplayer.{key}"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1
    data["nplayer"][key] = 2**53 if key == "n_agents" else [10, 2**53]
    assert parse_config_dict(data).block is not None


@pytest.mark.parametrize("run", ["simulate", "turnpike", "nplayer"])
@pytest.mark.parametrize(
    "x0", [[0.5, 0.5, 0.5, 0.5], [0.75, 0.25, 0.25, -0.25], [0.25, 0.25, 0.25, 0.25 + 1e-9]]
)
def test_off_simplex_x0_rejected(tmp_path, run, x0):
    # an explicit start must be a population state: entries >= 0 summing to 1
    data = json.loads((REPO_CONFIGS / f"p0_{run}.json").read_text())
    data[run]["x0"] = x0
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [f"{run}.x0"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1
    data[run]["x0"] = [0.25, 0.25, 0.25, 0.25 + 1e-13]
    assert parse_config_dict(data).run == run


@pytest.mark.parametrize(
    "control, where",
    [
        ({"type": "single", "i": 1.9}, "nplayer.control.i"),
        ({"type": "single", "i": True}, "nplayer.control.i"),
        ({"type": "mixed", "i": 1, "k": 2.0}, "nplayer.control.k"),
        ({"type": "mixed", "i": False, "k": 2}, "nplayer.control.i"),
        ({"type": "explicit", "target_I": [1.9, 2.2], "target_S": [1, 2]},
         "nplayer.control.target_I"),
        ({"type": "explicit", "target_I": [1, 2], "target_S": [True, 2]},
         "nplayer.control.target_S"),
        ({"type": "single", "i": [1]}, "nplayer.control.i"),
        ({"type": "explicit", "target_I": 1, "target_S": [1, 2]}, "nplayer.control.target_I"),
    ],
)
def test_non_integer_control_indices_rejected(tmp_path, control, where):
    # int() would truncate 1.9 to 1 and read true as 1: both are refused
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"]["control"] = control
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [where]
    assert "integer" in err.value.errors[0]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize("kind", ["simplex", ["single"], {"type": "single"}, None])
def test_unknown_control_type_rejected(tmp_path, kind):
    # a list or an object as the type was a TypeError, not a ConfigError
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"]["control"]["type"] = kind
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == ["nplayer.control.type: expected 'single', 'mixed' or 'explicit'"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_integer_control_indices_parse():
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    for control, expected in (
        ({"type": "single", "i": 2}, StationaryControl.single(2, 1)),
        ({"type": "mixed", "i": 2, "k": 1}, StationaryControl.mixed(2, 1, 0)),
        ({"type": "explicit", "target_I": [1, 2], "target_S": [2, 2]},
         StationaryControl(np.array([0, 1]), np.array([1, 1]))),
    ):
        data["nplayer"]["control"] = control
        assert parse_config_dict(data).block.control == expected


@pytest.mark.parametrize(
    "axes, fragments",
    [
        ([{"path": "lambda", "values": [1.0, 2.0]}, {"path": "delta", "values": [0.1, 0.0]}],
         ["delta must be > 0", "delta=0.0", "2 of 4 points"]),
        ([{"path": "w_S[1]", "values": [1.0, 2.0, 2.5]}],
         ["w_S must be < w_I", "violated at strategy 1", "w_S[1]=2.0", "2 of 3 points"]),
    ],
)
def test_sweep_grid_points_validated(tmp_path, axes, fragments):
    # every grid point must be a valid model with delta > 0; these points
    # used to become 'failed' sweep rows at run time
    data = json.loads((REPO_CONFIGS / "sweep_beta11.json").read_text())
    data["sweep"]["axes"] = axes
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["sweep.axes"]
    for fragment in fragments:
        assert fragment in err.value.errors[0]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_equilibria_model_needs_positive_discount(tmp_path):
    data = minimal_d1()
    data["model"]["delta"] = 0.0
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == ["model: delta must be > 0 for stationary discounted values, got 0.0"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1
    data["run"] = "simulate"  # the population dynamics take delta = 0
    data["simulate"] = {"control": {"type": "single", "i": 1}, "x0": "uniform",
                        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 10}}
    assert parse_config_dict(data).model.delta == 0.0


def test_turnpike_model_needs_positive_discount(tmp_path):
    # the turnpike always solves its stationary anchor's values, which need delta > 0
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"]["delta"] = 0.0
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == ["model: delta must be > 0 for stationary discounted values, got 0.0"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize("run", ["simulate", "nplayer"])
def test_stationary_x0_needs_uniform_control(tmp_path, run):
    # a non-uniform control has no [i(I), k(S)] fixed point to start from
    data = json.loads((REPO_CONFIGS / f"p0_{run}.json").read_text())
    data[run]["x0"] = "stationary"
    data[run]["control"] = {"type": "explicit", "target_I": [1, 2], "target_S": [1, 1]}
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [f"{run}.x0"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1
    data[run]["control"] = {"type": "explicit", "target_I": [2, 2], "target_S": [1, 1]}
    assert parse_config_dict(data).block.control == StationaryControl.mixed(2, 1, 0)


@pytest.mark.parametrize("run, where", [("simulate", "simulate.grid"),
                                        ("turnpike", "turnpike.grid"),
                                        ("nplayer", "nplayer.t_end")])
def test_grid_budget_rejects_huge_default_grid(tmp_path, run, where):
    # lambda = 1e6 and T = 50 on the default step 0.1/lambda: 5e8 nodes x 4
    # states; the LLN reference of lambda = 100 and T = 1e5 steps at 50/10^4
    # between 2001 compare times: 2e7 nodes x 4 states
    data = json.loads((REPO_CONFIGS / f"p0_{run}.json").read_text())
    if run == "nplayer":
        data[run].update(t_end=1e5, n_list=[10], replications=2)
        nodes = 20000001
    else:
        data["model"]["lambda"] = 1e6
        data[run]["grid"] = {"t_start": 0.0, "t_end": 50.0}
        nodes = 500000001
    tracemalloc.start()
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20  # refused before any path is allocated
    assert [e.split(":")[0] for e in err.value.errors] == [where]
    assert f"{nodes} nodes x 4 states" in err.value.errors[0]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_lln_reference_budget_counts_its_own_grid():
    # the budget is the reference's own path, not the default grid: at
    # lambda = 1 and T = 40000 the default grid fits (4000001 nodes) but the
    # reference steps at 20/4000 (8000001 nodes x 4 states) and does not
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["model"]["lambda"] = 1.0
    data["nplayer"].update(t_end=40000.0, n_list=[10], replications=2)
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["nplayer.t_end"]
    assert "8000001 nodes x 4 states" in err.value.errors[0]
    # at lambda = 1e6 and T = 50 the default grid has 5e8 nodes, the
    # reference 10^4 steps: accepted, and counted without building either
    data["model"]["lambda"] = 1e6
    data["nplayer"]["t_end"] = 50.0
    tracemalloc.start()
    cfg = parse_config_dict(data)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert cfg.block.t_end == 50.0 and cfg.block.n_list == (10,)
    assert peak < 1 << 20


def test_grid_budget_boundary():
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["simulate"]["grid"]["n_steps"] = GRID_BUDGET // 4 - 1  # exactly GRID_BUDGET entries
    assert parse_config_dict(data).block.grid.n_steps == GRID_BUDGET // 4 - 1
    data["simulate"]["grid"]["n_steps"] += 1
    with pytest.raises(ConfigError, match="grid budget"):
        parse_config_dict(data)


# ---------------------------------------------------------------------------
# runs


def test_equilibria_run_writes_table(tmp_path):
    cfg = parse_config(REPO_CONFIGS / "p0_equilibria.json")
    bundle = run_scenario(cfg, tmp_path)
    assert bundle.n_succeeded == 1 and not bundle.failures
    data = json.loads((tmp_path / "equilibria.json").read_text())
    labels = [e["control"]["label"] for e in data["equilibria"]]
    assert "single(1)" in labels
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_candidate_control_blocks_match_the_controls(d):
    # built from candidate_pairs, the blocks read as the controls' own
    assert runs._candidate_controls_json(d) == [
        {"label": u.label(), "target_I": (u.target_I + 1).tolist(),
         "target_S": (u.target_S + 1).tolist()}
        for u in candidate_controls(d)
    ]


def test_row_format_writer_matches_csv_module(tmp_path):
    # the %-format writer against the csv module cell by cell, on the
    # floats and integers whose text is easiest to get wrong
    floats = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                       1e-310, 1.0 / 3.0, -1e300, 0.1, 20000.0])
    n = floats.size
    t = np.linspace(0.0, 40.0, n)
    x = np.column_stack([floats, floats[::-1], -floats])
    counts = np.column_stack([np.full(n, 2**63 - 1), np.full(n, -(2**63))]).astype(np.int64)
    flags = np.arange(n) % 2, (np.arange(n) // 2) % 2
    columns = (t, x, counts, *flags)
    header = ["t", "x_1", "x_2", "x_3", "n_1", "n_2", "cone_ok", "argmin_ok"]
    path = _write_table(tmp_path, "table", "csv", header, _Columns(*columns))
    assert path.read_bytes() == oracle_csv_table(header, *columns)


def test_constant_columns_are_formatted_once_per_chunk(tmp_path):
    # a column constant over a chunk of ROW_CHUNK rows is written as literal
    # text; the bytes are those of formatting every cell: -0.0 and +0.0 stay
    # apart, inf and subnormals keep their text, a run of constants that
    # crosses a chunk boundary, a chunk where every column is constant,
    # integer columns
    rng = np.random.default_rng(2300)
    n = 3 * ROW_CHUNK + 5
    rows = np.arange(n)
    still = (rows >= ROW_CHUNK) & (rows < 2 * ROW_CHUNK)  # every column constant here
    t = np.where(still, 5.0, rows * 0.0025)
    signed = np.where(rows < ROW_CHUNK, -0.0, 0.0)
    signed[2 * ROW_CHUNK:] *= np.where(rows[2 * ROW_CHUNK:] % 2, -1.0, 1.0)  # -0.0 next to +0.0
    spanning = np.where((rows >= ROW_CHUNK - 10) & (rows < 2 * ROW_CHUNK + 10), np.inf,
                        rng.uniform(-1.0, 1.0, n))
    x = rng.uniform(0.0, 1.0, (n, 3))
    x[still] = [1e-323, 0.1, -np.inf]
    x[:, 0] = np.where(rows >= 2 * ROW_CHUNK, 1e-323, x[:, 0])
    counts = rng.integers(-(2**62), 2**62, (n, 2))
    counts[still | (rows < ROW_CHUNK)] = [7, -3]
    flags = (rows != 2 * ROW_CHUNK + 3).astype(int)
    header = ["t", "signed", "spanning", "x_1", "x_2", "x_3", "n_1", "n_2", "flag"]
    for m in (n, ROW_CHUNK + 1, 1):
        columns = (t[:m], signed[:m], spanning[:m], x[:m], counts[:m], flags[:m])
        path = _write_table(tmp_path, "table", "csv", header, _Columns(*columns))
        assert path.read_bytes() == oracle_csv_table(header, *columns), m
    path = _write_table(tmp_path, "one", "csv", ["x"], _Columns(np.array([-0.0])))
    assert path.read_bytes() == b"x\r\n-0\r\n"


def test_turnpike_run_solves_its_anchor_once(tmp_path, monkeypatch):
    # g_T = "stationary" and the turnpike stats all use one stationary pair: one
    # kernel block of one pair, and no one-pair view
    import sismfg.config
    import sismfg.dynamics
    import sismfg.runs
    import sismfg.stationary

    calls = {name: [] for name in ("_solve_block", "fixed_point_single", "hjb_single_exact")}
    for name in calls:
        original = getattr(sismfg.stationary, name)

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        for mod in (sismfg.stationary, sismfg.dynamics, sismfg.config, sismfg.runs):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    bundle = run_scenario(parse_config(REPO_CONFIGS / "p0_turnpike.json"), tmp_path)
    assert not bundle.failures
    assert {name: len(args) for name, args in calls.items()} == {
        "_solve_block": 1, "fixed_point_single": 0, "hjb_single_exact": 0}
    _, i, k = calls["_solve_block"][0]
    assert i.tolist() == k.tolist() == [0]


def test_turnpike_run_csv_contract(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"]["grid"]["n_steps"] = 2000  # keep the test quick
    data["turnpike"]["grid"]["t_end"] = 10.0
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1
    header = (tmp_path / "turnpike.csv").read_text().splitlines()[0]
    assert header == "t,x_1I,x_1S,x_2I,x_2S,g_1I,g_1S,g_2I,g_2S,cone_ok,argmin_ok"
    summary = json.loads((tmp_path / "turnpike_summary.json").read_text())
    assert summary["certified"] is True


def test_simulate_run(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["simulate"]["grid"] = {"t_start": 0.0, "t_end": 5.0, "n_steps": 500}
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1I,x_1S,x_2I,x_2S"
    assert len(lines) == 502


def test_simulate_from_stationary_start_is_flat(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["simulate"]["x0"] = "stationary"
    data["simulate"]["grid"] = {"t_start": 0.0, "t_end": 2.0, "n_steps": 200}
    run_scenario(parse_config_dict(data), tmp_path)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    first = np.array([float(v) for v in rows[0].split(",")[1:]])
    last = np.array([float(v) for v in rows[-1].split(",")[1:]])
    assert np.max(np.abs(first - last)) <= 1e-9


def test_nplayer_lln_run(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"] = {
        "control": {"type": "single", "i": 1},
        "x0": "uniform",
        "t_end": 5.0,
        "n_list": [50, 100],
        "replications": 3,
    }
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1
    lines = (tmp_path / "lln_error.csv").read_text().splitlines()
    assert lines[0] == "N,mean_sup_error,std_error,replications"
    assert len(lines) == 3


def test_sweep_run_monotone_share(tmp_path):
    cfg = parse_config(REPO_CONFIGS / "sweep_beta11.json")
    bundle = run_scenario(cfg, tmp_path)
    assert bundle.n_succeeded == 3
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    shares = [float(line.split(",")[4]) for line in lines[1:]]
    assert shares == sorted(shares)
    # oracle: direct fixed-point evaluation per grid point
    from sismfg.model import ModelParams

    for value, share in zip((0.0, 0.1, 0.2), shares):
        beta = [[value, 0.05], [0.05, 0.05]]
        p = ModelParams(**{**P0, "beta": beta})
        assert share == pytest.approx(fixed_point_single(p, 0)[0], abs=1e-12)


def test_sweep_rows_equal_per_point_enumeration(tmp_path, monkeypatch):
    # the kernel solves all points' candidates in blocks; with a small
    # budget the grid spans many blocks, and every row must still be the
    # summary of enumerate_equilibria at that point (at beta[2][2] = 1e8 a
    # damped Newton left the simplex for both mixed candidates, lam = 1e4 is
    # the large-lam end)
    from sismfg import stationary
    from sismfg.model import ModelParams
    from sismfg.runs import fmt

    blocks = []
    solve_block = stationary._solve_block

    def counted(s, i, k):
        blocks.append(i.size)
        return solve_block(s, i, k)

    monkeypatch.setattr(stationary, "ENTRY_BUDGET", 5 * 4)  # d = 2: 5 pairs a block
    monkeypatch.setattr(stationary, "_solve_block", counted)
    lams, betas = [50.0, 100.0, 1e4], [0.0, 0.1, 0.2, 1e8]
    data = json.loads((REPO_CONFIGS / "sweep_beta11.json").read_text())
    data["sweep"]["axes"] = [{"path": "lambda", "values": lams},
                             {"path": "beta[2][2]", "values": betas}]
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 12 and bundle.failures == []
    assert blocks == [5] * 9 + [3]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 13
    for line, (lam, b22) in zip(lines[1:], [(x, y) for x in lams for y in betas]):
        res = enumerate_equilibria(ModelParams(**{**P0, "lam": lam,
                                                  "beta": [[0.2, 0.05], [0.05, b22]]}))
        singles = [s for s in res.equilibria if s.control.is_single]
        expected = [fmt(lam), fmt(b22), "ok", str(len(res.equilibria)),
                    ";".join(s.control.label() for s in res.equilibria)]
        if singles:
            s0 = singles[0]
            m = s0.margins.min_margin
            expected += [fmt(s0.x_star.x[2 * s0.control.as_pair()[0]]),
                         fmt(m) if np.isfinite(m) else "inf", fmt(s0.stability.max_real_part)]
        else:
            expected += ["", "", ""]
        assert line == ",".join(expected)


def test_failed_turnpike_recorded_not_raised(tmp_path):
    # the config layer refuses failed hypotheses (see the test below); a config
    # built around it meets solve_turnpike's own check, as a run failure
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"]["grid"] = {"t_start": 0.0, "t_end": 1.0, "n_steps": 100}
    cfg = parse_config_dict(data)
    cfg = replace(cfg, model=replace(cfg.model, q_plus=[0.5, 0.4]))  # breaks the rate ordering
    bundle = run_scenario(cfg, tmp_path)
    assert bundle.n_succeeded == 0
    assert any("rate-ordering" in f for f in bundle.failures)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failures"]


def _hash_artifacts(out: Path) -> dict:
    return {
        f.name: f.read_bytes()
        for f in sorted(out.iterdir())
        if f.name != "manifest.json"
    }


def test_repeated_runs_byte_identical(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"]["n_agents"] = 500
    data["nplayer"]["t_end"] = 5.0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_scenario(parse_config_dict(data), out)
        outs.append(_hash_artifacts(out))
    assert outs[0] == outs[1]


def test_sweep_repeated_runs_byte_identical(tmp_path):
    cfg = parse_config(REPO_CONFIGS / "sweep_beta11.json")
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    assert _hash_artifacts(tmp_path / "a") == _hash_artifacts(tmp_path / "b")


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_only(capsys):
    code = main(["solve", str(REPO_CONFIGS / "p0_equilibria.json"), "--validate-only"])
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_cli_invalid_config_exit_one(tmp_path, capsys):
    bad = write_config(tmp_path, {"model": {}, "run": "equilibria", "seed": 0})
    assert main(["solve", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_cli_all_failed_exit_two(tmp_path, monkeypatch):
    # a recorded path is refused once its count table passes the grid budget,
    # which only the run can find: its one run fails
    monkeypatch.setattr(dynamics, "GRID_BUDGET", 40)
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"].update(t_end=1.0, n_agents=100)
    bad = write_config(tmp_path, data)
    assert main(["solve", str(bad), "--out", str(tmp_path / "out")]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert any("over budget" in f for f in manifest["failures"])


def test_failed_turnpike_hypotheses_refused_at_validation(tmp_path):
    # P0's rates order strategy 1 first: anchored at strategy 2 the rate-ordering,
    # consistency and cone hypotheses fail, one error at the block with every name
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"].update(strategy=2, grid={"t_start": 0.0, "t_end": 5.0, "n_steps": 500})
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert len(err.value.errors) == 1
    where, message = err.value.errors[0].split(": ", 1)
    assert where == "turnpike" and message.startswith("turnpike hypotheses violated: ")
    for name in ("rate-ordering-q-plus(1)", "strict-consistency-I(1)", "terminal-cone-I-min(1)"):
        assert name in message
    path = write_config(tmp_path, data)
    assert main(["solve", str(path), "--validate-only"]) == 1
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_success_and_seed_override(tmp_path, capsys):
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["nplayer"]["n_agents"] = 100
    data["nplayer"]["t_end"] = 2.0
    cfg = write_config(tmp_path, data)
    code = main(["solve", str(cfg), "--out", str(tmp_path / "out"), "--seed", "9"])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SISMFG_OUTPUT_DIR", str(tmp_path / "envout"))
    assert main(["solve", str(REPO_CONFIGS / "p0_equilibria.json")]) == 0
    assert (tmp_path / "envout" / "equilibria.json").exists()


# ---------------------------------------------------------------------------
# one number rule, duplicate axes, built objects, the manifest echo


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("model", "lambda", True),
        ("model", "delta", True),
        ("model", "lambda", "100"),
        pytest.param("model", "lambda", 10**400, id="model-lambda-int-beyond-float"),
        ("model", "q_plus", [True, True]),
        ("model", "w_I", ["2", "3"]),
        ("model", "beta", [[True, False], [False, False]]),
        ("turnpike", "x0", [True, False, False, False]),
        ("turnpike", "x0", ["0.25", "0.25", "0.25", "0.25"]),
        ("turnpike", "g_terminal", [True, True, True, True]),
        ("turnpike", "g_terminal", ["1", "2", "3", "4"]),
    ],
)
def test_numeric_fields_take_only_numbers(tmp_path, block, key, value):
    # every numeric field takes ints and floats only: json reads true as a
    # bool and "100" as a string, and neither is a number of the scenario
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data[block][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [f"{block}.{key}"]
    if value == 10**400:
        assert "finite" in err.value.errors[0]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_cli_seed_override_is_validated(capsys):
    config = str(REPO_CONFIGS / "p0_nplayer.json")
    assert main(["solve", config, "--seed", "-1", "--validate-only"]) == 1
    assert "top level.seed: must be >= 0, got -1" in capsys.readouterr().err
    assert main(["solve", config, "--seed", "3", "--validate-only"]) == 0


@pytest.mark.parametrize(
    "paths", [("lambda", "lambda"), ("beta[1][1]", "beta[01][01]"), ("w_I[2]", "w_I[02]")]
)
def test_duplicate_sweep_axes_rejected(tmp_path, paths):
    # a later axis on the same entry would overwrite the earlier one
    data = json.loads((REPO_CONFIGS / "sweep_beta11.json").read_text())
    values = {"lambda": [[1.0, 2.0], [50.0, 100.0]], "beta": [[0.0, 0.1], [0.2, 0.3]],
              "w_I": [[3.0, 3.5], [4.0, 4.5]]}[paths[0].split("[")[0]]
    data["sweep"]["axes"] = [{"path": p, "values": v} for p, v in zip(paths, values)]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == ["sweep.axes[1].path"]
    assert "sweep.axes[0]" in err.value.errors[0]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize(
    "grid, message",
    [({"t_start": 1.0, "t_end": 0.0, "n_steps": 10}, "t_end (0.0) must be > t_start (1.0)"),
     ({"t_start": 0.0, "t_end": 1.0, "n_steps": 0}, "n_steps (0) must be >= 1"),
     ({"t_start": 1.0, "t_end": 1.0}, "t_end (1.0) must be > t_start (1.0)")],
)
def test_grid_refusals_reported_at_grid(grid, message):
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["simulate"]["grid"] = grid
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == [f"simulate.grid: {message}"]


@pytest.mark.parametrize("run, where", [("simulate", "simulate.grid"),
                                        ("nplayer", "nplayer.t_end")])
def test_default_grid_overflow_refused_at_validation(run, where):
    # at lambda = 1e308 the default step 0.1/lambda leaves no finite step count
    data = json.loads((REPO_CONFIGS / f"p0_{run}.json").read_text())
    data["model"]["lambda"] = 1e308
    if run == "nplayer":
        data[run].update(n_list=[10], replications=2)
    else:
        del data[run]["grid"]["n_steps"]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [where]


def test_built_states_and_grids(p0):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    cfg = parse_config_dict(data)
    assert isinstance(cfg.block.x0, MixedState) and cfg.block.g_terminal is cfg.block.anchor[1]
    assert np.array_equal(cfg.block.x0.x, MixedState.uniform(2).x)
    assert cfg.block.grid == TimeGrid(0.0, 50.0, 20000)
    data["turnpike"]["g_terminal"] = [2.0, 1.0, 4.0, 3.0]  # in the terminal cone
    del data["turnpike"]["grid"]["n_steps"]
    cfg = parse_config_dict(data)
    assert isinstance(cfg.block.g_terminal, ValueVector)
    assert cfg.block.g_terminal.g.tolist() == [2.0, 1.0, 4.0, 3.0]
    assert cfg.block.grid == default_grid(p0, 0.0, 50.0)


@pytest.mark.parametrize("run", ["simulate", "nplayer"])
@pytest.mark.parametrize("control", [{"type": "single", "i": 2},
                                     {"type": "mixed", "i": 2, "k": 1}], ids=["single", "mixed"])
def test_stationary_x0_parses_to_the_controls_fixed_point(p0, run, control):
    # the token is resolved at validation: the block holds the state the run starts from
    data = json.loads((REPO_CONFIGS / f"p0_{run}.json").read_text())
    data[run].update(control=control, x0="stationary")
    x0 = parse_config_dict(data).block.x0
    if control["type"] == "single":
        expected = fixed_point_single(p0, 1)[1]
    else:
        expected = fixed_point_mixed(p0, 1, 0)
    assert isinstance(x0, MixedState) and np.array_equal(x0.x, expected.x)


#: P0 with its two strategies swapped: the turnpike hypotheses hold at strategy 2
P0_SWAPPED = {"d": 2, "lambda": 100.0, "delta": 0.1, "q_plus": [0.6, 0.5],
              "q_minus": [0.3, 0.5], "beta": [[0.05, 0.05], [0.05, 0.2]],
              "w_I": [3.0, 2.0], "w_S": [2.5, 1.0]}


@pytest.mark.parametrize("g_terminal", ["stationary", [16.5, 15.5, 16.0, 15.0]],
                         ids=["token", "explicit"])
def test_turnpike_anchor_built_at_validation(g_terminal):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"] = P0_SWAPPED
    data["turnpike"].update(strategy=2, x0="stationary", g_terminal=g_terminal)
    tp = parse_config_dict(data).block
    p = ModelParams(**{"lam" if k == "lambda" else k: v for k, v in P0_SWAPPED.items()})
    x_star, g_star = stationary_anchor(p, 1)
    assert np.array_equal(tp.anchor[0].x, x_star.x) and np.array_equal(tp.anchor[1].g, g_star.g)
    assert tp.x0 is tp.anchor[0]
    if g_terminal == "stationary":
        assert tp.g_terminal is tp.anchor[1]
    else:
        assert tp.g_terminal.g.tolist() == g_terminal


def test_turnpike_overflowing_anchor_refused_at_validation(tmp_path):
    # at lambda = 1e308 the anchor's values overflow; the one-pair value solve
    # reports it without a floating-point warning
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"]["lambda"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
    assert err.value.errors == ["turnpike: value vector entries must be finite"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize("key, value, control", [
    ("q_plus", [1e308, 0.6], {"type": "mixed", "i": 1, "k": 2}),
    ("q_minus", [1e308, 0.3], {"type": "single", "i": 1}),
], ids=["mixed-bracket", "single-root"])
def test_non_finite_stationary_start_refused_at_validation(tmp_path, key, value, control):
    # at a rate of 1e308 the control's fixed point is not finite: the state is
    # refused at <run>.x0, without a floating-point warning
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["model"][key] = value
    data["simulate"].update(control=control, x0="stationary")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
    assert err.value.errors == ["simulate.x0: state entries must be finite"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_turnpike_non_finite_anchor_state_refused_at_validation():
    # at q_minus[1] = 1e308 the anchor's state is refused before its values
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"]["q_minus"] = [1e308, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
    assert err.value.errors == ["turnpike: state entries must be finite"]


#: anchors that overflow, with the error the one-pair views gave them before the
#: anchor became a kernel row (lambda and q_minus have tests of their own above)
OVERFLOWING_ANCHORS = [
    ("w_I", [1e308, 3.0], "turnpike: value vector entries must be finite"),
    ("beta", [[1e308, 0.05], [0.05, 0.05]], "turnpike: state entries must be finite"),
]


@pytest.mark.parametrize("key, value, error", OVERFLOWING_ANCHORS,
                         ids=[k for k, _, _ in OVERFLOWING_ANCHORS])
def test_overflowing_anchor_error_unchanged(tmp_path, key, value, error):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == [error]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize("key, value", [(k, v) for k in ("delta", "lambda", "q_plus")
                                        for v in (1e20, 2.0**60, 1e308)],
                         ids=lambda v: f"{v:g}" if isinstance(v, float) else v)
def test_turnpike_rates_past_rk4_stability_refused_at_validation(tmp_path, key, value):
    # on the shipped grid (h = 0.0025) the backward sweep would blow up, or the
    # forward one run out of halvings; only lambda = 1e308 overflows the anchor first
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["model"][key] = [value, 0.6] if key == "q_plus" else value
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    # a q_plus this large also breaks strategy 1's rate ordering: both are reported
    where = (["turnpike"] if (key, value) == ("lambda", 1e308) else
             ["turnpike", "turnpike.grid"] if key == "q_plus" else ["turnpike.grid"])
    assert [e.split(": ")[0] for e in err.value.errors] == where
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


#: one number of configs/p0_simulate.json pushed to an extreme: a rate (the
#: first entry of a vector or matrix) or the horizon of the 5000-step grid
EXTREME_SIMULATE = [(key, value) for key in ("lambda", "q_plus", "q_minus", "beta", "t_end")
                    for value in (1e20, 2.0**60)]


@pytest.mark.parametrize("key, value", EXTREME_SIMULATE,
                         ids=lambda v: f"{v:g}" if isinstance(v, float) else v)
def test_simulate_config_that_validates_also_solves(tmp_path, key, value):
    # the exponential step solves the decisions exactly, so a huge lambda runs;
    # a huge slow rate or step is past classical RK4's real stability bound
    # and is refused at the grid, where the solve would leave the simplex
    # after every step halving
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    if key == "t_end":
        data["simulate"]["grid"]["t_end"] = value
    elif key == "lambda":
        data["model"]["lambda"] = value
    elif key == "beta":
        data["model"]["beta"][0][0] = value
    else:
        data["model"][key][0] = value
    path = str(write_config(tmp_path, data))
    status = main(["solve", path, "--validate-only"])
    assert status == (0 if key == "lambda" else 1)
    if status == 0:
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("lam, n_steps, status", [
    (1e306, 5, 1), (1e307, 5, 1), (1e308, 5, 1),  # h = 10
    (1e305, 5, 0), (1e308, 5000, 0),  # h lam = 1e306 at h = 10 and at h = 0.01
], ids=["1e306-h10", "1e307-h10", "1e308-h10", "1e305-h10", "1e308-h0.01"])
def test_simulate_step_times_lambda_past_float_range_refused(tmp_path, lam, n_steps, status):
    # past h lam = 0.1 * 2^1023 the opening substeps' 2^k overflows (an
    # OverflowError from graded_opening once solving); slow rates of 1e-3
    # and no peers keep the grid within classical RK4's stability bound
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["model"].update({"lambda": lam, "q_plus": [1e-3, 1e-3], "q_minus": [1e-3, 1e-3],
                          "beta": [[0.0, 0.0], [0.0, 0.0]]})
    data["simulate"]["grid"]["n_steps"] = n_steps
    path = str(write_config(tmp_path, data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", path, "--validate-only"]) == status
        if status == 0:
            assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
    if status == 1:
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert [e.split(": ")[0] for e in err.value.errors] == ["simulate.grid"]


#: one step holds no node of the mid-horizon window
ONE_STEP = "holds no node of a 1-step grid: a turnpike needs n_steps >= 2"


@pytest.mark.parametrize("grid, message", [
    # P0's fastest rate is 101.3; on this grid the parent wrote |g| up to 3.5e30 and exited 0
    ({"t_start": 0.0, "t_end": 2.0, "n_steps": 50}, "step 0.04 times the fastest rate 101.3 is "
     "4.052, past classical RK4's real stability bound 2.785: the backward sweep would blow up"),
    ({"t_start": 0.0, "t_end": 0.01, "n_steps": 1},
     f"the mid-horizon window [0.001, 0.009] {ONE_STEP}"),
    # shorter than one default step
    ({"t_start": 0.0, "t_end": 0.0005}, f"the mid-horizon window [5e-05, 0.00045] {ONE_STEP}"),
], ids=["rk4-unstable", "one-step", "default-one-step"])
def test_turnpike_grid_refusals_reported_at_grid(tmp_path, grid, message):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"]["grid"] = grid
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert err.value.errors == [f"turnpike.grid: {message}"]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


@pytest.mark.parametrize("grid", [{"t_start": 0.0, "t_end": 2.0, "n_steps": 100},
                                  {"t_start": 0.0, "t_end": 0.01, "n_steps": 2}],
                         ids=["rk4-stable", "two-steps"])
def test_turnpike_grids_within_the_checks_run(tmp_path, grid):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"]["grid"] = grid
    assert run_scenario(parse_config_dict(data), tmp_path).n_succeeded == 1


#: P0 with one rate at 1e308: lambda, q_plus[1], q_minus[2] or beta[1][1] (1-based)
OVERFLOWING_RATES = [("lambda", 1e308), ("q_plus", [1e308, 0.6]), ("q_minus", [0.5, 1e308]),
                     ("beta", [[1e308, 0.05], [0.05, 0.05]])]


@pytest.mark.parametrize("key, value", OVERFLOWING_RATES, ids=[k for k, _ in OVERFLOWING_RATES])
@pytest.mark.parametrize("size, where", [({"n_agents": 100}, "nplayer.n_agents"),
                                         ({"n_list": [10, 20]}, "nplayer.n_list")],
                         ids=["n_agents", "n_list"])
def test_overflowing_jump_rates_refused_at_validation(tmp_path, key, value, size, where):
    # the jump loop's total rate would overflow and its pick fall past the
    # channel list; lambda with n_list is refused by its reference grid first
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["model"][key] = value
    data["nplayer"] = {"control": {"type": "single", "i": 1}, "x0": "uniform", "t_end": 1.0,
                       **size}
    if key == "lambda" and "n_list" in size:
        where = "nplayer.t_end"
    with pytest.raises(ConfigError) as err:
        parse_config_dict(data)
    assert [e.split(":")[0] for e in err.value.errors] == [where]
    assert main(["solve", str(write_config(tmp_path, data)), "--validate-only"]) == 1


def test_large_finite_jump_rates_still_run(tmp_path):
    data = json.loads((REPO_CONFIGS / "p0_nplayer.json").read_text())
    data["model"]["lambda"] = 1e300
    data["nplayer"].update(t_end=1.0, n_agents=100)
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1 and bundle.failures == []


def test_stationary_x0_under_mixed_control_starts_at_mixed_fixed_point(tmp_path, p0):
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["simulate"].update(control={"type": "mixed", "i": 1, "k": 2}, x0="stationary",
                            grid={"t_start": 0.0, "t_end": 1.0, "n_steps": 10})
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")[1:]
    assert first == [fmt(v) for v in fixed_point_mixed(p0, 0, 1).x]


#: a small-lam, large-beta model whose mixed candidates a damped Newton
#: reported as off the simplex; both have a stationary state
STRONG_INTERACTION = {"d": 2, "lambda": 1.57, "delta": 0.1, "q_plus": [1.8, 0.85],
                      "q_minus": [1.06, 1.77], "beta": [[20.2, 2.8], [4.1, 29.7]],
                      "w_I": [2.0, 3.0], "w_S": [1.0, 2.5]}


def test_stationary_x0_under_strong_interaction_stays_at_mixed_fixed_point(tmp_path):
    p = ModelParams(**{"lam" if k == "lambda" else k: v for k, v in STRONG_INTERACTION.items()})
    by_label = {r.control.label(): r.status for r in enumerate_equilibria(p).reports}
    assert by_label["mixed(1,2)"] == by_label["mixed(2,1)"] == "rejected"
    data = json.loads((REPO_CONFIGS / "p0_simulate.json").read_text())
    data["model"] = STRONG_INTERACTION
    data["simulate"].update(control={"type": "mixed", "i": 1, "k": 2}, x0="stationary",
                            grid={"t_start": 0.0, "t_end": 10.0, "n_steps": 1000})
    bundle = run_scenario(parse_config_dict(data), tmp_path)
    assert bundle.n_succeeded == 1 and bundle.failures == []
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:]
    x_star = fixed_point_mixed(p, 0, 1).x
    assert np.array_equal(rows[0], x_star)
    assert np.max(np.abs(rows - x_star)) <= 1e-12


def test_turnpike_explicit_anchor_states_reproduce_token_run(tmp_path, p0):
    data = json.loads((REPO_CONFIGS / "p0_turnpike.json").read_text())
    data["turnpike"].update(x0="stationary", g_terminal="stationary",
                            grid={"t_start": 0.0, "t_end": 10.0, "n_steps": 2000})
    assert run_scenario(parse_config_dict(data), tmp_path / "token").n_succeeded == 1
    x_star, g_star = stationary_anchor(p0, 0)
    data["turnpike"].update(x0=x_star.x.tolist(), g_terminal=g_star.g.tolist())
    assert run_scenario(parse_config_dict(data), tmp_path / "explicit").n_succeeded == 1
    token, explicit = ((tmp_path / d / "turnpike.csv").read_bytes() for d in ("token", "explicit"))
    assert explicit == token


@pytest.mark.parametrize("path", sorted(REPO_CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_echo_as_read(path):
    assert main(["solve", str(path), "--validate-only"]) == 0
    data = json.loads(path.read_text())
    assert parse_config(path).to_dict() == data
    cfg = parse_config_dict(data)
    data["model"]["beta"][0][0] = 1e3  # the echo is a copy, not the caller's object
    assert cfg.to_dict()["model"]["beta"][0][0] != 1e3


#: block entries that shorten the shipped configs' runs
SHORT_RUNS = {
    "simulate": {"grid": {"t_start": 0.0, "t_end": 5.0, "n_steps": 500}},
    "turnpike": {"grid": {"t_start": 0.0, "t_end": 5.0, "n_steps": 500}},
    "nplayer": {"t_end": 1.0, "n_agents": 100},
}


@pytest.mark.parametrize("run", list(BLOCKS))
def test_every_run_kind_has_a_shipped_config_and_a_runner(tmp_path, monkeypatch, run):
    # config.BLOCKS and the runner table of run_scenario list the same kinds:
    # a kind added to one and not the other fails here, not at run time
    shipped = [path for path in sorted(REPO_CONFIGS.glob("*.json"))
               if json.loads(path.read_text())["run"] == run]
    assert shipped, f"no config in configs/ has run {run!r}"
    data = json.loads(shipped[0].read_text())
    data.get(run, {}).update(SHORT_RUNS.get(run, {}))
    cfg = parse_config_dict(data)
    assert run_scenario(cfg, tmp_path / "run").n_succeeded >= 1
    # the table maps the kind to runs.run_<kind> as the module holds it at
    # the call, which is what a tracer that wraps the runners relies on
    called = []

    def stub(cfg, out_dir):
        called.append(run)
        return {}, {}

    monkeypatch.setattr(runs, f"run_{run}", stub)
    run_scenario(cfg, tmp_path / "stub")
    assert called == [run]


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("path", sorted(REPO_CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_json_artifacts_are_strict_json_of_the_built_objects(tmp_path, monkeypatch, path):
    # each shipped config as written, then shortened with its tables as JSON:
    # every JSON file is one line of strict JSON that parses to the object
    # the runner built, floats exact
    built = {}
    write_json = runs._write_json

    def recording(file, obj):
        built[file] = obj
        write_json(file, obj)

    monkeypatch.setattr(runs, "_write_json", recording)
    data = json.loads(path.read_text())
    run_scenario(parse_config_dict(data), tmp_path / "shipped")
    data.get(data["run"], {}).update(SHORT_RUNS.get(data["run"], {}))
    data["output"] = {"format": "json"}
    run_scenario(parse_config_dict(data), tmp_path / "json_tables")
    files = sorted(tmp_path.rglob("*.json"))
    assert files == sorted(built)
    for file in files:
        text = file.read_text()
        assert text.count("\n") == 1 and text.endswith("\n"), file
        assert _strict_json(text) == built[file], file


def test_manifest_echoes_scenario_with_seed_in_force(tmp_path):
    data = minimal_d1()
    data["model"]["lambda"] = 2  # an int stays an int; defaults are not filled in
    cfg = parse_config_dict(data)
    run_scenario(cfg, tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"] == data and "output" not in manifest["config"]
    run_scenario(replace(cfg, seed=7), tmp_path / "b")
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"] == {**data, "seed": 7}


def _csv_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV table (labels such as mixed(1,2) are quoted)."""
    with path.open(newline="") as fh:
        header, *lines = csv.reader(fh)
    return header, lines


def _table_cells_match(csv_path: Path, json_path: Path) -> None:
    header, lines = _csv_table(csv_path)
    table = json.loads(json_path.read_text())
    assert table["columns"] == header
    assert len(table["rows"]) == len(lines)
    for line, row in zip(lines, table["rows"]):
        for text, cell in zip(line, row, strict=True):
            try:
                number = float(text)
            except ValueError:
                number = None
            if number is None or not np.isfinite(number):
                assert cell == text  # labels, 'inf' and empty cells
            else:
                assert type(cell) in (int, float) and cell == number


#: the shipped table scenarios, shrunk; every table column kind occurs
TABLE_SCENARIOS = [
    ("p0_simulate", {"simulate": {"control": {"type": "single", "i": 1}, "x0": "uniform",
                                  "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 50}}}),
    ("p0_nplayer", {"nplayer": {"control": {"type": "single", "i": 1}, "x0": "uniform",
                                "t_end": 1.0, "n_agents": 40, "n_list": [10, 20],
                                "replications": 2}}),
    ("sweep_beta11", {"sweep": {"axes": [{"path": "lambda", "values": [50.0, 100.0]},
                                         {"path": "beta[2][2]", "values": [0.05, 1e8]}]}}),
    ("p0_turnpike", {"turnpike": {"strategy": 1, "x0": "uniform", "g_terminal": "stationary",
                                  "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 100}}}),
]


def _csv_and_json_tables(tmp_path, name: str, update: dict) -> list[tuple[Path, Path]]:
    """Run a shipped scenario once per table format: (csv, json) per table."""
    data = {**json.loads((REPO_CONFIGS / f"{name}.json").read_text()), **update}
    csv_bundle = run_scenario(parse_config_dict(data), tmp_path / "csv")
    data["output"] = {"format": "json"}
    json_bundle = run_scenario(parse_config_dict(data), tmp_path / "json")
    assert csv_bundle.artifacts.keys() == json_bundle.artifacts.keys()
    return [(path, json_bundle.artifacts[key]) for key, path in csv_bundle.artifacts.items()
            if path.suffix == ".csv"]


@pytest.mark.parametrize("name, update", TABLE_SCENARIOS)
def test_json_tables_hold_numbers(tmp_path, name, update):
    for csv_path, json_path in _csv_and_json_tables(tmp_path, name, update):
        _table_cells_match(csv_path, json_path)


#: integer columns: counts (n_jI / n_jS), N, replications, n_equilibria, the flags
INT_COLUMN = re.compile(r"(n_\d+[IS]|N|replications|n_equilibria|cone_ok|argmin_ok)")
TEXT_COLUMNS = {"status", "controls"}


@pytest.mark.parametrize("name, update", TABLE_SCENARIOS)
def test_json_table_cells_typed_by_column(tmp_path, name, update):
    """A JSON cell is its CSV cell as a number of its column's type (a float
    column holds floats at integral values too), or the same text: labels,
    'inf' and empty cells."""
    for csv_path, json_path in _csv_and_json_tables(tmp_path, name, update):
        header, lines = _csv_table(csv_path)
        table = json.loads(json_path.read_text())
        assert table["columns"] == header and len(table["rows"]) == len(lines)
        for line, row in zip(lines, table["rows"]):
            for column, text, cell in zip(header, line, row, strict=True):
                if column in TEXT_COLUMNS or text in ("inf", ""):
                    assert cell == text, (column, text, cell)
                elif INT_COLUMN.fullmatch(column):
                    assert type(cell) is int and cell == int(text), (column, text, cell)
                else:
                    assert type(cell) is float and cell == float(text), (column, text, cell)
