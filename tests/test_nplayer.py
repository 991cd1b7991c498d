"""Finite-N jump simulation: generator link, conservation, seeds, LLN error."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sismfg import (
    CountVector,
    MixedState,
    ModelParams,
    StationaryControl,
    TimeGrid,
    lln_error,
    simulate_ctmc,
)
from sismfg.dynamics import default_grid, integrate_forward, lln_reference_grid
from sismfg import nplayer
from sismfg.model import KIND_NAMES, PEER, Generator
from sismfg.nplayer import _reference
from sismfg.stationary import fixed_point_single

from conftest import (
    oracle_lln_sup_errors,
    oracle_path,
    random_control,
    random_params,
    random_state,
)


def test_zero_rates_constant_path():
    # all channel rates zero sits outside the ModelParams invariants; the
    # engine itself must treat the state as absorbing
    stub = SimpleNamespace(d=2, lam=0.0, delta=0.1, q_plus=np.zeros(2), q_minus=np.zeros(2),
                           beta=np.zeros((2, 2)), w_I=np.ones(2), w_S=np.zeros(2))
    n0 = CountVector([3, 4, 2, 1])
    path = simulate_ctmc(stub, n0, StationaryControl.single(2, 0), 10.0, seed=1)
    assert path.n_events == 0
    assert np.array_equal(path.terminal().n, n0.n)


def test_single_agent_telegraph_occupancy():
    p = ModelParams(d=1, lam=1.0, delta=0.1, q_plus=[0.5], q_minus=[0.5],
                    beta=[[0.0]], w_I=[2.0], w_S=[1.0])
    T = 4000.0
    path = simulate_ctmc(p, CountVector([0, 1]), StationaryControl.single(1, 0), T, seed=99)
    # time-average of the infected indicator
    times = np.concatenate([[0.0], path.times, [T]])
    counts = path.counts()
    infected = np.concatenate([counts[:, 0], [counts[-1, 0]]])
    t_infected = float(np.sum(np.diff(times) * infected[:-1]))
    frac = t_infected / T
    p_stat = 0.5  # q_minus / (q_minus + q_plus)
    # 3 standard errors of the long-run time average
    se = np.sqrt(2 * p_stat * (1 - p_stat) / ((0.5 + 0.5) * T))
    assert abs(frac - p_stat) <= 3 * se


def test_p0_large_population_terminal_state(p0):
    x_star, x_fix = fixed_point_single(p0, 0)
    n0 = CountVector.from_fractions(MixedState.uniform(2), 10_000)
    path = simulate_ctmc(p0, n0, StationaryControl.single(2, 0), 50.0, seed=777)
    terminal = path.terminal().n / 10_000
    assert np.max(np.abs(terminal - x_fix.x)) <= 0.02


def test_generator_drift_equals_kinetic_rhs():
    rng = np.random.default_rng(4)
    for _ in range(40):
        p = random_params(rng)
        u = random_control(rng, p.d)
        counts = CountVector(rng.integers(0, 50, 2 * p.d) + 1)
        # expected drift of n/N over the channel table
        n, N = counts.n.astype(float), counts.N
        peer = p.beta.T @ n[0::2] / N  # per-susceptible peer-infection rate
        drift = np.zeros(p.n_states)
        for frm, to, kind, coef in Generator.of(p, u).channels():
            r = (peer[coef] if kind == PEER else coef) * n[frm]
            drift[frm] -= r
            drift[to] += r
        drift /= N
        rhs = Generator.of(p, u).forward(counts.fractions().x)
        assert np.max(np.abs(drift - rhs)) <= 1e-12


def test_agent_count_conserved_at_every_jump(p0):
    n0 = CountVector.from_fractions(MixedState.uniform(2), 300)
    path = simulate_ctmc(p0, n0, StationaryControl.single(2, 0), 5.0, seed=3)
    counts = path.counts()
    assert path.n_events > 0
    assert np.all(counts.sum(axis=1) == 300)
    assert np.all(counts >= 0)


def test_seed_determinism(p0):
    n0 = CountVector.from_fractions(MixedState.uniform(2), 200)
    u = StationaryControl.single(2, 0)
    a = simulate_ctmc(p0, n0, u, 5.0, seed=42)
    b = simulate_ctmc(p0, n0, u, 5.0, seed=42)
    c = simulate_ctmc(p0, n0, u, 5.0, seed=43)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.from_state, b.from_state)
    assert np.array_equal(a.kinds, b.kinds)
    assert not np.array_equal(a.times, c.times)


def test_jump_events_expose_kinds(p0):
    n0 = CountVector.from_fractions(MixedState.uniform(2), 100)
    path = simulate_ctmc(p0, n0, StationaryControl.single(2, 0), 1.0, seed=5)
    assert path.times[0] > 0.0
    assert KIND_NAMES[path.kinds[0]] in KIND_NAMES
    assert 0 <= path.from_state[0] < 4 and 0 <= path.to_state[0] < 4


def test_largest_remainder_rounding():
    x = MixedState([0.25, 0.25, 0.25, 0.25])
    counts = CountVector.from_fractions(x, 250)
    assert counts.N == 250
    assert np.array_equal(np.sort(counts.n), [62, 62, 63, 63])
    # ties break by state order
    assert np.array_equal(counts.n, [63, 63, 62, 62])
    y = MixedState([0.5, 0.3, 0.15, 0.05])
    c2 = CountVector.from_fractions(y, 97)
    assert c2.N == 97
    assert np.max(np.abs(c2.n - np.array([0.5, 0.3, 0.15, 0.05]) * 97)) < 1.0


def test_lln_error_shrinks_with_population(p0):
    table = lln_error(
        p0, StationaryControl.single(2, 0), MixedState.uniform(2),
        t_end=20.0, N_list=[250, 1000], replications=10, seed=2024,
    )
    ratio = table.ratios()[0]
    assert 1.25 <= ratio <= 3.2
    for row in table.rows:
        assert row.sup_errors.shape == (10,)
        assert row.std_error > 0


def test_lln_error_zero_for_degenerate_rates():
    # no active transition: both the chain and the population ODE are frozen
    # (one strategy, so every agent already sits at its decision target)
    from sismfg import lln_error as lln

    stub = SimpleNamespace(d=1, n_states=2, lam=1.0, delta=0.1, q_plus=np.zeros(1),
                           q_minus=np.zeros(1), beta=np.zeros((1, 1)), w_I=np.ones(1),
                           w_S=np.zeros(1))
    table = lln(stub, StationaryControl.single(1, 0), MixedState([0.25, 0.75]),
                t_end=5.0, N_list=[4, 8], replications=3, seed=0)
    assert all(r.mean_sup_error == 0.0 for r in table.rows)


def test_lln_standard_error_shrinks_with_replications(p0):
    kwargs = dict(t_end=10.0, N_list=[100], seed=7)
    se25 = lln_error(p0, StationaryControl.single(2, 0), MixedState.uniform(2),
                     replications=25, **kwargs).rows[0].std_error
    se100 = lln_error(p0, StationaryControl.single(2, 0), MixedState.uniform(2),
                      replications=100, **kwargs).rows[0].std_error
    assert 0.5 / 1.6 <= se100 / se25 <= 0.5 * 1.6


def test_lln_replication_streams_are_split(p0):
    # replication r at size N always gets the stream Philox([seed, N, r]):
    # per-replication errors must be reproducible across calls
    a = lln_error(p0, StationaryControl.single(2, 0), MixedState.uniform(2),
                  t_end=5.0, N_list=[100], replications=5, seed=11)
    b = lln_error(p0, StationaryControl.single(2, 0), MixedState.uniform(2),
                  t_end=5.0, N_list=[100], replications=5, seed=11)
    assert np.array_equal(a.rows[0].sup_errors, b.rows[0].sup_errors)


def test_simulate_rejects_empty_population(p0):
    with pytest.raises(ValueError, match="agent"):
        simulate_ctmc(p0, CountVector([0, 0, 0, 0]), StationaryControl.single(2, 0), 1.0, 0)


@pytest.mark.parametrize("entry", ["lam", "q_plus", "q_minus", "beta"])
def test_overflowing_jump_rates_refused_before_the_run(p0, entry):
    # a total rate past the float range would send the pick past the channel list
    value = 1e308 if entry == "lam" else np.full_like(getattr(p0, entry), 1e308)
    p = replace(p0, **{entry: value})
    u = StationaryControl.single(2, 0)
    with pytest.raises(ValueError, match="N=100 agents"):
        simulate_ctmc(p, CountVector([25, 25, 25, 25]), u, 1.0, 0)
    with pytest.raises(ValueError, match="N=20 agents"):
        lln_error(p, u, MixedState.uniform(2), 1.0, [10, 20], 2, 0)


# ---------------------------------------------------------------------------
# the jump engine against the reference per-event loop, bitwise


def assert_path_equals_oracle(p, n0, u, t_end, seed):
    path = simulate_ctmc(p, n0, u, t_end, seed)
    times, kinds, frm, to, counts = oracle_path(p, n0, u, t_end, seed)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.kinds, kinds)
    assert np.array_equal(path.from_state, frm)
    assert np.array_equal(path.to_state, to)
    table = path.counts()
    assert np.array_equal(table[0], n0.n)
    assert np.array_equal(table[1:], counts)
    assert np.array_equal(path.terminal().n, table[-1])
    return table


def check_simulate_draws(d):
    rng = np.random.default_rng(500 + d)
    for trial, N in enumerate([1, 2, 17, 250, 2000]):
        p = random_params(rng, d)
        # odd trials draw per-state (mostly non-uniform) controls
        u = random_control(rng, d) if trial % 2 else StationaryControl.single(d, int(rng.integers(d)))
        n0 = CountVector.from_fractions(random_state(rng, d), N)
        assert_path_equals_oracle(p, n0, u, 2.0 if N <= 250 else 0.2, seed=trial)


def check_lln_draws(d):
    rng = np.random.default_rng(600 + d)
    for trial in range(2):
        p = random_params(rng, d)
        u = random_control(rng, d) if trial else StationaryControl.single(d, int(rng.integers(d)))
        x0 = random_state(rng, d)
        table = lln_error(p, u, x0, 1.0, [1, 40, 300], 3, seed=trial)
        ref = oracle_lln_sup_errors(p, u, x0, 1.0, [1, 40, 300], 3, trial)
        for row, errs in zip(table.rows, ref):
            assert np.array_equal(row.sup_errors, errs)


def check_emptied_strategy(p0):
    # under single(1) nothing migrates into strategy 2: once its two states
    # are empty its channels leave the loop's table for the rest of the run
    u = StationaryControl.single(2, 0)
    n0 = CountVector.from_fractions(MixedState.uniform(2), 40)
    counts = assert_path_equals_oracle(p0, n0, u, 3.0, seed=8)
    emptied = np.flatnonzero(counts[:, 2:].sum(axis=1) == 0)
    assert 0 < emptied[0] < counts.shape[0] - 10  # empties mid-run, events follow
    table = lln_error(p0, u, MixedState.uniform(2), 3.0, [40, 400], 3, seed=8)
    ref = oracle_lln_sup_errors(p0, u, MixedState.uniform(2), 3.0, [40, 400], 3, 8)
    for row, errs in zip(table.rows, ref):
        assert np.array_equal(row.sup_errors, errs)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_simulate_ctmc_bitwise_equals_oracle(d):
    check_simulate_draws(d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_lln_error_bitwise_equals_oracle(d):
    check_lln_draws(d)


def test_emptied_strategy_leaves_engine_bitwise_equal(p0):
    check_emptied_strategy(p0)


# a cache of one entry is emptied at every miss and never hit; one above any
# count of states a run reaches is never emptied
@pytest.mark.parametrize("limit", [1, 10**9])
def test_rate_cache_bound_leaves_engine_bitwise_equal(p0, limit, monkeypatch):
    monkeypatch.setattr(nplayer, "_RATE_CACHE", limit)
    for d in [1, 2, 3, 4, 5]:
        check_simulate_draws(d)
        check_lln_draws(d)
    check_emptied_strategy(p0)


def test_recurrent_chain_takes_cached_rates_bitwise(p0):
    # after the opening migration single(1) is a birth-death walk on strategy
    # 1's two states, which revisits a few hundred count states: most events
    # read their rates from the cache (2407 distinct rows of 24 014, most of
    # them the migration's)
    u = StationaryControl.single(2, 0)
    n0 = CountVector.from_fractions(MixedState.uniform(2), 4000)
    counts = assert_path_equals_oracle(p0, n0, u, 10.0, seed=3)
    assert np.unique(counts, axis=0).shape[0] * 5 < counts.shape[0]
    table = lln_error(p0, u, MixedState.uniform(2), 10.0, [4000], 2, seed=3)
    ref = oracle_lln_sup_errors(p0, u, MixedState.uniform(2), 10.0, [4000], 2, 3)
    assert np.array_equal(table.rows[0].sup_errors, ref[0])


def test_every_strategy_a_target_engine_bitwise_equal(p0):
    # mixed(1,2) sends infected agents to strategy 1 and susceptible ones to
    # strategy 2, so both keep an inflow and no channel ever leaves the
    # table, even from a start with strategy 2 empty
    u = StationaryControl.mixed(2, 0, 1)
    for n0 in (CountVector([30, 30, 0, 0]), CountVector.from_fractions(MixedState.uniform(2), 60)):
        counts = assert_path_equals_oracle(p0, n0, u, 3.0, seed=9)
        assert counts[-1, 2:].sum() > 0


# ---------------------------------------------------------------------------
# the recorded path's budget


MOVING = StationaryControl(target_I=[1, 0], target_S=[1, 0])  # keeps agents moving
SINGLE1 = StationaryControl.single(2, 0)


def test_recorded_path_refused_over_budget(p0, monkeypatch):
    import sismfg.dynamics

    n0 = CountVector.from_fractions(MixedState.uniform(2), 100)
    monkeypatch.setattr(sismfg.dynamics, "GRID_BUDGET", 4 * 20_000)
    with pytest.raises(ValueError, match=r"N=100, lambda=100, T=5\b.*budget of 80000"):
        simulate_ctmc(p0, n0, MOVING, 5.0, seed=3)


def test_recorded_path_budget_is_its_count_table(p0, monkeypatch):
    # checked at every draw refill and at the end: a path fits exactly when
    # (events + 1) x 2d entries fit, wherever the last refill fell
    import sismfg.dynamics

    n0 = CountVector.from_fractions(MixedState.uniform(2), 40)
    events = simulate_ctmc(p0, n0, MOVING, 5.0, seed=4).n_events
    assert events > 2 * 8192 and events % 8192
    monkeypatch.setattr(sismfg.dynamics, "GRID_BUDGET", (events + 1) * 4)
    assert simulate_ctmc(p0, n0, MOVING, 5.0, seed=4).n_events == events
    monkeypatch.setattr(sismfg.dynamics, "GRID_BUDGET", (events + 1) * 4 - 1)
    with pytest.raises(ValueError, match="over budget"):
        simulate_ctmc(p0, n0, MOVING, 5.0, seed=4)


# ---------------------------------------------------------------------------
# the ODE reference


def test_lln_reference_default_is_exponential_at_parent_compare_times(p0):
    # the nplayer benchmark scenario: P0, single(1), uniform x0, T = 10
    x0 = MixedState.uniform(2)
    times, rows, steps = _reference(p0, SINGLE1, x0, 10.0)
    assert steps == 2000
    assert times == default_grid(p0, 0.0, 10.0).times()[::5].tolist()  # 2001 times
    assert len(times) == 2001 and np.allclose(np.diff(times), 0.005, rtol=1e-9, atol=0.0)
    fine = integrate_forward(p0, x0, SINGLE1, TimeGrid(0.0, 10.0, 50_000))[::25]  # h = 0.02/lam
    assert np.max(np.abs(np.array(rows) - fine)) <= 1e-7
    table = lln_error(p0, SINGLE1, x0, 10.0, [20], 1, seed=0)
    assert table.reference_steps == 2000


@pytest.mark.parametrize("lam", [0.5, 1.0, 20.0, 100.0, 1e4])
def test_lln_reference_compare_times_are_default_grid_nodes(p0, lam):
    # every stride-th default-grid node, bitwise, without building that grid
    p = replace(p0, lam=lam)
    uneven = 0  # grids whose last node is not a compare time
    for t_end in (0.003, 0.7, 3.0, 10.0, 13.37, 49.99, 123.456):
        if lam * t_end > 2e5:  # this test builds the default grid: at most 2e6 nodes
            continue
        nodes = default_grid(p, 0.0, t_end).times()
        stride = max(1, nodes.size // 2000)
        uneven += (nodes.size - 1) % stride != 0
        times, grid = lln_reference_grid(p, t_end)
        assert np.array_equal(times, nodes[::stride])
        k = grid.n_steps // (times.size - 1)
        assert grid.n_steps == (times.size - 1) * k and grid.t_end == times[-1]
        assert grid.h <= 0.005 * (1 + 1e-9)
    assert uneven
