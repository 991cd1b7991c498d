"""Integrators, closed-form gap evolution, turnpike construction and metrics."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sismfg import (
    MixedState,
    ModelParams,
    StationaryControl,
    TimeGrid,
    TurnpikeHypothesisError,
    ValueVector,
    check_turnpike_hypotheses,
    default_grid,
    integrate_backward,
    integrate_forward,
    solve_turnpike,
)
from sismfg import dynamics
from sismfg.config import parse_config_dict
from sismfg.dynamics import (
    MAX_HALVINGS,
    RK4_REAL_STABILITY,
    STEP_REJECT_TOL,
    argmin_flags,
    cone_flags,
    etdrk4_operators,
    graded_opening,
    phi_functions,
    step_pattern,
    sweep_block,
)
from sismfg.model import (
    TIE_TOL,
    Generator,
    ParamStack,
    best_response,
    best_response_margins,
)
from sismfg.stationary import (
    ENTRY_BUDGET,
    FAILED,
    REJECTED,
    fixed_point_single,
    hjb_single_exact,
    solve_candidate,
    solve_points,
)

from conftest import (
    P0,
    P0_GAP,
    oracle_backward_blocked,
    oracle_backward_fixed,
    oracle_etdrk4_step,
    oracle_euler_path,
    oracle_gap_closed_form,
    oracle_rk4_forward_step,
    random_control,
    random_params,
    random_state,
    workload_scenario,
)

SINGLE1 = StationaryControl.single(2, 0)


def stationary_pair(p):
    x_star, x = fixed_point_single(p, 0)
    return x, hjb_single_exact(p, 0, x_star)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    assert TimeGrid(0.0, 2.0, 100).h == pytest.approx(0.02)


def test_default_grid_step_rule(p0):
    assert default_grid(p0, 0.0, 1.0).n_steps == 1000  # h = 0.1/lam = 1e-3
    slow = ModelParams(d=1, lam=5.0, delta=0.1, q_plus=[0.5], q_minus=[0.5],
                       beta=[[0.0]], w_I=[2.0], w_S=[1.0])
    assert default_grid(slow, 0.0, 1.0).n_steps == 100  # h = 0.01


# ---------------------------------------------------------------------------
# forward integration


def test_forward_fixed_point_is_stationary(p0):
    x, _ = stationary_pair(p0)
    grid = TimeGrid(0.0, 10.0, 2000)
    path = integrate_forward(p0, x, SINGLE1, grid)
    assert np.max(np.abs(path - x.x)) <= 1e-9


def test_forward_p0_uniform_reaches_fixed_point(p0):
    x_star, x_fix = fixed_point_single(p0, 0)
    grid = TimeGrid(0.0, 50.0, 10000)
    path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    assert np.max(np.abs(path[-1] - x_fix.x)) <= 1e-6
    # independent reference flow: fine-step Euler over the tail
    euler = oracle_euler_path(p0, MixedState.uniform(2).x, SINGLE1, 50.0, 400000)
    assert np.max(np.abs(path[-1] - euler)) <= 1e-6


def test_forward_nodes_stay_on_simplex(p0):
    grid = TimeGrid(0.0, 5.0, 1000)
    path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    assert np.all(path >= 0.0)
    assert np.max(np.abs(path.sum(axis=1) - 1.0)) <= 1e-12


def test_forward_substep_halving_recovers_coarse_grid(p0):
    # h = 1 with lam = 100: the one interval is the graded opening, and a
    # substep that leaves the simplex would be halved; neither is an accuracy
    # device, so the node is only loosely accurate but must stay on the simplex
    coarse = integrate_forward(p0, MixedState.uniform(2), SINGLE1, TimeGrid(0.0, 1.0, 1))
    fine = integrate_forward(p0, MixedState.uniform(2), SINGLE1, TimeGrid(0.0, 1.0, 1000))
    assert np.all(coarse[-1] >= 0.0)
    assert abs(coarse[-1].sum() - 1.0) <= 1e-12
    assert np.max(np.abs(coarse[-1] - fine[-1])) <= 0.05


#: a step of P0 short enough (h lam < 0.1) that the opening is one step
STUB_STEP = 2.0**-10


def _stub_forward(monkeypatch, p0, stub, n_steps=1, h=STUB_STEP):
    """integrate_forward on P0 at step h with the step replaced by stub(x, h)."""
    monkeypatch.setattr(dynamics, "_etdrk4_step_fn", lambda p, u: stub)
    return integrate_forward(p0, MixedState.uniform(2), SINGLE1,
                             TimeGrid(0.0, n_steps * h, n_steps))


@pytest.mark.parametrize("low", [-1e-9, -0.0])
def test_forward_node_clips_and_renormalizes(monkeypatch, p0, low):
    y = np.array([low, 0.3, 0.3, 0.4 + 1e-9])
    node = _stub_forward(monkeypatch, p0, lambda x, h: y.copy())[1]
    assert node[0] == 0.0 and not np.signbit(node[0])
    assert np.array_equal(node, np.maximum(y, 0.0) / np.maximum(y, 0.0).sum())


def test_forward_node_halves_a_step_off_the_simplex(monkeypatch, p0):
    calls = []

    def stub(x, h):  # the full step loses mass, each half step keeps it
        calls.append(h)
        return x * (1.0 - 2.0 * STEP_REJECT_TOL) if h == STUB_STEP else x.copy()

    node = _stub_forward(monkeypatch, p0, stub)[1]
    assert calls == [STUB_STEP, 0.5 * STUB_STEP, 0.5 * STUB_STEP]
    assert np.array_equal(node, MixedState.uniform(2).x)


def test_forward_node_raises_after_max_halvings(monkeypatch, p0):
    calls = []

    def stub(x, h):
        calls.append(h)
        return np.array([-2.0 * STEP_REJECT_TOL, 0.5, 0.5, 2.0 * STEP_REJECT_TOL])

    with pytest.raises(RuntimeError, match=f"after {MAX_HALVINGS} step halvings"):
        _stub_forward(monkeypatch, p0, stub)
    assert min(calls) == STUB_STEP * 0.5**MAX_HALVINGS and len(calls) == MAX_HALVINGS + 1


def _first_repeat(path):
    """Index of the first node that repeats its predecessor bit for bit."""
    bits = path.view(np.int64)
    return int(np.argmax(np.all(bits[1:] == bits[:-1], axis=1))) + 1


def test_forward_fixed_point_fast_path_is_full_stepping(monkeypatch, p0):
    # at h = 0.02 the path from uniform reaches its step map's fixed point
    # mid-horizon; the reference takes the opening as a one-step grid, then
    # steps every later interval with the regular step, clipped and
    # renormalized as integrate_forward does
    grid = TimeGrid(0.0, 60.0, 3000)
    ref = list(integrate_forward(p0, MixedState.uniform(2), SINGLE1, TimeGrid(0.0, grid.h, 1)))
    step = dynamics._etdrk4_step_fn(p0, SINGLE1)
    for _ in range(grid.n_steps - 1):
        y = np.maximum(dynamics._forward_node(step, ref[-1], grid.h)[0], 0.0)
        ref.append(y / y.sum())
    ref = np.array(ref)
    step_fn, calls = dynamics._etdrk4_step_fn, []

    def counted(p, u):
        step = step_fn(p, u)
        return lambda x, h: calls.append(h) or step(x, h)

    monkeypatch.setattr(dynamics, "_etdrk4_step_fn", counted)
    path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    assert path.tobytes() == ref.tobytes()
    stop = _first_repeat(ref)
    assert 0.25 * grid.n_steps < stop < 0.75 * grid.n_steps
    assert len(calls) == len(graded_opening(grid.h, p0.lam)) + stop - 1


def test_forward_stops_at_an_identity_step(monkeypatch, p0):
    calls = []

    def stub(x, h):
        calls.append(h)
        return x

    path = _stub_forward(monkeypatch, p0, stub, n_steps=10)
    assert len(calls) == 2
    assert path.tobytes() == np.tile(MixedState.uniform(2).x, (11, 1)).tobytes()


def test_forward_halved_opening_substep_keeps_its_input(monkeypatch):
    # at q_plus_1 = 300 and h = 0.1 opening substeps are halved, and each
    # substep's input is the step's own result of the substep before: the
    # step writes into the other of its two buffers, so the path is the one
    # a step that returns a new array gives
    p, grid = ModelParams(**{**P0, "q_plus": [300.0, 0.6]}), TimeGrid(0.0, 0.1, 1)
    path = integrate_forward(p, MixedState.uniform(2), SINGLE1, grid)
    step_fn, calls = dynamics._etdrk4_step_fn, []

    def copying(p, u):
        step = step_fn(p, u)
        return lambda x, h: calls.append(h) or step(x, h).copy()

    monkeypatch.setattr(dynamics, "_etdrk4_step_fn", copying)
    assert integrate_forward(p, MixedState.uniform(2), SINGLE1, grid).tobytes() == path.tobytes()
    assert len(calls) > len(graded_opening(grid.h, p.lam))


@lru_cache(maxsize=None)
def _workload_turnpike(seed):
    """(p, u, grid, g_T, x_path) of the turnpike workload at a seed; read only."""
    cfg = parse_config_dict(workload_scenario("turnpike", seed))
    p, tp = cfg.model, cfg.block
    u = StationaryControl.single(p.d, tp.strategy)
    x_path = integrate_forward(p, tp.x0, u, tp.grid)
    x_path.flags.writeable = False
    return p, u, tp.grid, tp.g_terminal, x_path


def test_etdrk4_opening_that_repeats_x0_does_not_stop(monkeypatch, p0):
    # the opening substeps leave x0 as it is; the regular step moves it
    h, calls = 0.1, []
    target = np.array([1.0, 0.0, 0.0, 0.0])

    def stub(x, sub):
        calls.append(sub)
        return 0.5 * (x + target) if sub == h else x

    path = _stub_forward(monkeypatch, p0, stub, n_steps=10, h=h)
    assert calls == graded_opening(h, p0.lam) + [h] * 9
    assert path[1].tobytes() == path[0].tobytes()
    assert all(path[m + 1].tobytes() != path[m].tobytes() for m in range(1, 10))


def test_forward_order_four(p0):
    # start on the single-strategy slow manifold so the stiff transient is
    # absent: the decisions act on zero mass, ETDRK4 with M = 0 is classical
    # RK4, and the step-halving error ratio is the clean fourth-order one
    x0 = MixedState([0.45, 0.55, 0.0, 0.0])
    T = 5.0

    def terminal(n):
        return integrate_forward(p0, x0, SINGLE1, TimeGrid(0.0, T, n))[-1]

    err = {}
    for n in (50, 100):
        err[n] = np.max(np.abs(terminal(n) - terminal(16 * n)))
    ratio = err[50] / err[100]
    assert 2.0 <= ratio / 8.0 <= 2.0 * 2.0  # h^4 within factor 2, i.e. [8, 32]


# ---------------------------------------------------------------------------
# exponential forward integration (ETDRK4)

EXPLICIT_D2 = StationaryControl(target_I=[1, 0], target_S=[0, 0])  # non-uniform
ETD_STEP = 0.005


def _p0_at(lam):
    return ModelParams(**{**P0, "lam": lam})


def etd_error_against_fine_rk4(p, x0, u, T):
    """Largest node difference between ETDRK4 at ETD_STEP and classical RK4
    (``oracle_rk4_forward_step``) at a step <= 0.02/lam (and <= ETD_STEP/4),
    compared at the ETD nodes."""
    n = int(round(T / ETD_STEP))
    etd = integrate_forward(p, x0, u, TimeGrid(0.0, T, n))
    k = int(np.ceil(ETD_STEP / min(0.02 / p.lam, ETD_STEP / 4)))
    step, h, x = oracle_rk4_forward_step(p, u), T / (n * k), x0.x
    fine = [x]
    for m in range(n * k):
        x = step(x, h)
        if (m + 1) % k == 0:
            fine.append(x)
    return float(np.max(np.abs(etd - np.array(fine))))


@pytest.mark.parametrize("lam, T", [(1.0, 5.0), (100.0, 2.0), (1e4, 0.1)])
@pytest.mark.parametrize("u", [SINGLE1, StationaryControl.mixed(2, 0, 1), EXPLICIT_D2],
                         ids=["single1", "mixed12", "explicit"])
def test_etdrk4_matches_fine_rk4(lam, T, u):
    # the horizon at lam = 1e4 spans the migration layer and 20 slow steps;
    # the fine reference there takes 50000 steps
    err = etd_error_against_fine_rk4(_p0_at(lam), MixedState.uniform(2), u, T)
    assert err <= 1e-7, err


def test_etdrk4_matches_fine_rk4_d3_draw():
    rng = np.random.default_rng(808)
    p = random_params(rng, 3)
    err = etd_error_against_fine_rk4(p, random_state(rng, 3), random_control(rng, 3), 2.0)
    assert err <= 1e-7, err


@pytest.mark.parametrize("lam", [1.0, 100.0, 1e4, 1e6])
def test_migration_propagator_is_stochastic(lam):
    p = _p0_at(lam)
    for u in (SINGLE1, StationaryControl.mixed(2, 0, 1), EXPLICIT_D2):
        gen = Generator.of(p, u)
        for h in (1e-7, 0.1 / lam, ETD_STEP, 0.5):
            for step in (0.5 * h, h):  # e^{hM} heads the stage sum, on x
                e = etdrk4_operators(gen.decisions, gen.exchange_weights, step).end[:4]
                assert np.max(np.abs(e.sum(axis=1) - 1.0)) <= 1e-14
                assert e.min() >= -1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.25, 2.78, 100.0]))
def test_fused_step_matches_unfused_oracle(seed, h_lam):
    # d up to 5, per-state targets, lam log-uniform up to 1e6 (raised where
    # needed so that h times the slow rate stays within the bound the config
    # layer enforces, ``check_forward_grid``), states on the simplex and off
    # it.  The fused step and the oracle share e^{hM/2}, e^{hM} and the phi's
    # bit for bit (the same ``phi_functions`` calls), so lam enters neither
    # difference; they differ in the order of their sums only, the fused step
    # composing each stage's linear map with W before it multiplies.  Every
    # entry of the result sums propagator terms, of size at most |x|_1, and
    # exchange terms, of size about h rate |x|_1 at stage states of size
    # |x|_1, each rounded a few times: a few eps |x|_1 max(1, h rate) in
    # all.  The bound allows 16; 3000 draws came within 2.1.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    w_S = rng.uniform(0.0, 4.0, d)
    q_plus, q_minus = rng.uniform(0.05, 2.0, d), rng.uniform(0.05, 2.0, d)
    beta = rng.uniform(0.0, 0.5, (d, d))
    rate = float(np.max(q_plus + q_minus + beta.max(axis=0)))
    lam = max(float(10.0 ** rng.uniform(0.0, 6.0)), h_lam * rate / RK4_REAL_STABILITY)
    p = ModelParams(d=d, lam=lam, delta=0.1, q_plus=q_plus, q_minus=q_minus, beta=beta,
                    w_I=w_S + rng.uniform(0.1, 3.0, d), w_S=w_S)
    u = random_control(rng, d)
    x = random_state(rng, d).x + rng.normal(scale=0.1, size=2 * d) * rng.integers(0, 2)
    h = h_lam / lam
    got = dynamics._etdrk4_step_fn(p, u)(x, h)
    want = oracle_etdrk4_step(p, u)(x, h)
    bound = 16.0 * np.finfo(float).eps * np.abs(x).sum() * max(1.0, h * rate)
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("seed", [1001, 1002])
def test_fused_path_matches_unfused_oracle_on_turnpike_workload(monkeypatch, seed):
    # the whole forward sweep, opening, halvings and fixed-point stop
    # included, with the unfused step in place of the fused one; the two
    # stop at different nodes, each a fixed point of its own step
    p, u, grid, _, x_path = _workload_turnpike(seed)
    monkeypatch.setattr(dynamics, "_etdrk4_step_fn", oracle_etdrk4_step)
    oracle_path = integrate_forward(p, MixedState(x_path[0]), u, grid)
    assert np.max(np.abs(x_path - oracle_path)) <= 1e-12


def test_phi_functions_against_series():
    for a in (-3.0, -1e-3, 0.0, 0.7):
        got = [float(v[0, 0]) for v in phi_functions(np.array([[a]]), 3)]
        want = [sum(a**j / math.factorial(j + k) for j in range(40)) for k in range(4)]
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    # a defective matrix: e^J = e^z [[1, 1], [0, 1]] for the Jordan block J
    z = -2.0
    e = phi_functions(np.array([[z, 1.0], [0.0, z]]), 1)[0]
    assert np.allclose(e, np.exp(z) * np.array([[1.0, 1.0], [0.0, 1.0]]), rtol=1e-14, atol=0.0)


def test_graded_opening_covers_one_step():
    assert graded_opening(ETD_STEP, 1.0) == [ETD_STEP]
    steps = graded_opening(ETD_STEP, 1e4)
    assert sum(steps) == ETD_STEP
    assert steps[0] <= 0.1 / 1e4 < 2 * steps[0]
    assert steps[1:] == [steps[0] * 2**j for j in range(len(steps) - 1)]


def test_etdrk4_nodes_stay_on_simplex():
    for lam in (100.0, 1e6):
        for u in (SINGLE1, StationaryControl.mixed(2, 0, 1), EXPLICIT_D2):
            path = integrate_forward(_p0_at(lam), MixedState.uniform(2), u,
                                     TimeGrid(0.0, 5.0, 1000))
            assert np.all(path >= 0.0)
            assert np.max(np.abs(path.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("h_lam", [0.25, 1.0, 2.78, 100.0])
@pytest.mark.parametrize("i", [0, 1])
def test_forward_off_strategy_mass_is_exact(h_lam, i):
    # under single(i) only the decisions move mass between strategies, so the
    # mass m off strategy i obeys m' = -lam m exactly: m(t) = m(0) e^(-lam t).
    # The step moves it by e^{hM} (rows renormalized to sum to one), and the
    # exchange terms carry no net mass out of a strategy, so a node is off by
    # roundoff only: a few eps of entries at most 1 per step or opening
    # substep, and the renormalization of the node adds one more.  The bound
    # allows 8 eps per step; classical RK4 misses m by 7.4e-6 at h lam = 0.25.
    grid = TimeGrid(0.0, 1.0, 100)
    p = _p0_at(h_lam / grid.h)
    path = integrate_forward(p, MixedState.uniform(2), StationaryControl.single(2, i), grid)
    off = path[:, [2 * (1 - i), 2 * (1 - i) + 1]].sum(axis=1)
    exact = 0.5 * np.exp(-p.lam * grid.times())
    steps = grid.n_steps - 1 + len(graded_opening(grid.h, p.lam))
    assert np.max(np.abs(off - exact)) <= 8 * steps * np.finfo(float).eps


# ---------------------------------------------------------------------------
# backward integration


def test_backward_stationary_values_constant(p0):
    x, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 10.0, 2000)
    x_path = np.tile(x.x, (grid.n_steps + 1, 1))
    g_path = integrate_backward(p0, g, x_path, SINGLE1, grid)
    assert np.max(np.abs(g_path - g.g)) <= 1e-9
    assert cone_flags(g_path, 0).all() and argmin_flags(g_path, SINGLE1).all()


def test_backward_zero_terminal_gap_matches_closed_form(p0):
    x, _ = stationary_pair(p0)
    grid = TimeGrid(0.0, 5.0, 20000)
    x_path = np.tile(x.x, (grid.n_steps + 1, 1))
    g_path = integrate_backward(p0, ValueVector(np.zeros(4)), x_path, SINGLE1, grid)
    gap_int = g_path[:, 0] - g_path[:, 1]
    gap_cf = oracle_gap_closed_form(p0, 0, x_path, 0.0, grid.h)
    assert np.max(np.abs(gap_int - gap_cf)) <= 1e-8


def test_backward_fixed_equals_adaptive_inside_cone(p0):
    x, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 20.0, 4000)
    x_path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    fixed = integrate_backward(p0, g, x_path, SINGLE1, grid)
    adaptive = oracle_backward_fixed(p0, g, x_path, None, grid.h)
    assert argmin_flags(fixed, SINGLE1).all()
    # the sweep steps the RK4 of the explicit-minimum stage loop, through its
    # affine step maps under the frozen control
    scale = max(1.0, float(np.abs(adaptive).max()))
    assert np.max(np.abs(fixed - adaptive)) <= 1e-12 * scale


def _linear_path(p, x1, n_steps):
    """Population path from the uniform state to x1, linear in time (on the
    simplex at every node, and moving, so every step has its own coupling)."""
    s = np.linspace(0.0, 1.0, n_steps + 1)[:, None]
    return (1.0 - s) * MixedState.uniform(p.d).x + s * x1


def _oracle_case(name):
    rng = np.random.default_rng(1500)
    if name == "P0 single(1)":
        p = ModelParams(**P0)
        u, gT = SINGLE1, stationary_pair(p)[1]
    elif name == "d=3 mixed(1,2)":
        p, u = random_params(rng, 3), StationaryControl.mixed(3, 0, 1)
        gT = ValueVector(rng.uniform(0.0, 5.0, 6))
    elif name == "d=3 non-uniform":
        p, u = random_params(rng, 3), StationaryControl([0, 2, 1], [1, 1, 0])
        gT = ValueVector(rng.uniform(0.0, 5.0, 6))
    else:
        p, u = random_params(rng, 20), StationaryControl.single(20, 0)
        gT = ValueVector(rng.uniform(0.0, 5.0, 40))
    return p, u, gT, random_state(rng, p.d).x


ORACLE_CASES = ("P0 single(1)", "d=3 mixed(1,2)", "d=3 non-uniform", "d=20 single(1)")


@pytest.mark.parametrize(
    "name, steps",
    [("P0 single(1)", 20000)]
    + [(name, steps) for name in ORACLE_CASES for steps in ("1", "block-1", "block+1")],
)
def test_backward_fixed_matches_stage_loop_oracle(name, steps):
    p, u, gT, x1 = _oracle_case(name)
    if isinstance(steps, str):  # around the sweep's block size under u
        block = sweep_block(p.n_states, step_pattern(u).probes.shape[1])
        steps = {"1": 1, "block-1": block - 1, "block+1": block + 1}[steps]
    grid = TimeGrid(0.0, 0.005 * steps, steps)
    x_path = _linear_path(p, x1, steps)
    g_path = integrate_backward(p, gT, x_path, u, grid)
    expected = oracle_backward_fixed(p, gT, x_path, u, grid.h)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.max(np.abs(g_path - expected)) <= 1e-12 * scale


def _stall_node(x_path):
    """The first node from which every node repeats the last one bit for bit."""
    bits = x_path.view(np.int64)
    moving = np.flatnonzero(np.any(bits != bits[-1], axis=1))
    return int(moving[-1]) + 1 if moving.size else 0


def _backward_case(p0, name):
    """(p, u, grid, g_T, x_path) of a backward case."""
    if name.startswith("seed"):
        seed, terminal = name.split()[1:]
        p, u, grid, gT, x_path = _workload_turnpike(int(seed))
        return p, u, grid, ValueVector(gT.g + float(terminal)), x_path
    x_star, g_star = stationary_pair(p0)
    block = sweep_block(p0.n_states, step_pattern(SINGLE1).probes.shape[1])
    kind, terminal = name.split()
    if kind == "moving":  # P0 over T = 5: the path never stalls
        grid = TimeGrid(0.0, 5.0, 2000)
        x_path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    elif kind == "x*":  # x0 = x*: the path is stalled from node 0
        grid = TimeGrid(0.0, 10.0, 4000)
        x_path = np.tile(x_star.x, (grid.n_steps + 1, 1))
    else:  # a moving start of 10 steps, then a stalled stretch around the block size
        stretch = block + {"block-1": -1, "block": 0, "block+1": 1}[kind]
        grid = TimeGrid(0.0, 0.0025 * (10 + stretch), 10 + stretch)
        x_path = np.concatenate([_linear_path(p0, x_star.x, 10), np.tile(x_star.x, (stretch, 1))])
    return p0, SINGLE1, grid, ValueVector(g_star.g + float(terminal)), x_path


@pytest.mark.parametrize("name", [
    "seed 1001 0", "seed 1004 0", "seed 1001 0.01", "moving 0", "x* 0", "x* 0.01",
    "block-1 0", "block 0", "block+1 0", "block-1 0.01", "block 0.01", "block+1 0.01",
])
def test_backward_stall_is_the_blocked_sweep(monkeypatch, p0, name):
    # over the stretch where x repeats its last node the sweep builds one map
    # and, at the first value node that repeats the node above it, copies it
    # down: the path is the blocked sweep's to the bit, and only a stretch
    # whose values repeat skips steps
    p, u, grid, gT, x_path = _backward_case(p0, name)
    expected = oracle_backward_blocked(p, gT, x_path, u, grid)
    affine, stepped = dynamics._affine_steps, []

    def counted(D, r, idx, g, out, **kw):
        lowest = affine(D, r, idx, g, out, **kw)
        stepped.append(len(out) - lowest)  # the nodes computed, not the copies
        return lowest

    monkeypatch.setattr(dynamics, "_affine_steps", counted)
    g_path = integrate_backward(p, gT, x_path, u, grid)
    assert g_path.tobytes() == expected.tobytes()
    bits, n = expected.view(np.int64), grid.n_steps
    stall = _stall_node(x_path)
    if name == "moving 0":
        assert stall == n
    repeats = np.flatnonzero(np.all(bits[stall:n] == bits[stall + 1:], axis=1))
    if name.endswith(" 0.01") or name == "moving 0":  # no value repeats: every step taken
        assert repeats.size == 0 and sum(stepped) == n
    else:  # the stall steps down to its first node that repeats the node above it
        first = stall + int(repeats[-1])
        assert sum(stepped) == stall + (n - first)
    if name == "seed 1001 0":  # from the top node
        assert sum(stepped) == stall + 1
    if name == "seed 1004 0":  # after a few steps
        assert sum(stepped) == stall + 4


def test_step_pattern_single_needs_four_probes_at_any_d():
    for d in (1, 2, 3, 20, 60):
        for i in {0, d - 1}:
            pattern = step_pattern(StationaryControl.single(d, i))
            assert pattern.probes.shape == (2 * d, min(4, 2 * d) + 1)
            assert pattern.idx.shape[0] == min(4, 2 * d)


def test_backward_memory_bounded_by_entry_budget(p0):
    # whatever n_steps is, the sweep holds block-sized arrays besides what it
    # returns: its stage and step-map arrays and switch rates; over a stall
    # (x* throughout, values 0.01 off the anchor's, which decay at rate delta
    # and so never repeat by T = 100) it steps one map broadcast over every step
    x, g = stationary_pair(p0)
    moving, stalled = TimeGrid(0.0, 1000.0, 200_000), TimeGrid(0.0, 100.0, 200_000)
    cases = {"moving": (moving, _linear_path(p0, x.x, moving.n_steps), g),
             "stalled": (stalled, np.tile(x.x, (stalled.n_steps + 1, 1)), ValueVector(g.g + 0.01))}
    for kind, (grid, x_path, gT) in cases.items():
        tracemalloc.start()
        try:
            g_path = integrate_backward(p0, gT, x_path, SINGLE1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - g_path.nbytes <= 16 * ENTRY_BUDGET * 8, kind
    bits = g_path.view(np.int64)
    assert np.any(bits[:-1] != bits[1:], axis=1).all()  # the stall's values never repeat


def test_backward_rejects_dimension_mismatch(p0):
    grid = TimeGrid(0.0, 1.0, 10)
    x_path = np.tile(MixedState.uniform(2).x, (grid.n_steps + 1, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        integrate_backward(p0, ValueVector(np.zeros(6)), x_path, SINGLE1, grid)


def test_backward_frozen_coefficients_matches_matrix_exponential():
    # with x frozen the fixed-control value equation is linear, dg/dtau = A g + b,
    # with the exact solution g(tau) = e^{A tau} (g_T + A^{-1} b) - A^{-1} b
    p = ModelParams(d=2, lam=2.0, delta=0.2, q_plus=[0.5, 0.7], q_minus=[0.6, 0.4],
                    beta=[[0.1, 0.05], [0.05, 0.1]], w_I=[2.0, 3.0], w_S=[1.0, 2.0])
    x, g = stationary_pair(p)
    gT = ValueVector(g.g + np.array([0.0, 0.0, 0.3, 0.2]))
    grid = TimeGrid(0.0, 1.0, 1000)
    x_path = np.tile(x.x, (grid.n_steps + 1, 1))
    u = StationaryControl.single(2, 0)
    g_path = integrate_backward(p, gT, x_path, u, grid)
    gen = Generator.of(p, u)
    rhs, c = gen.value_rhs, gen.switch_rates(x.x)
    b = rhs(c, np.zeros(4))
    A = np.column_stack([rhs(c, e) - b for e in np.eye(4)])
    w, V = np.linalg.eig(A)
    V_inv = np.linalg.inv(V)
    shift = np.linalg.solve(A, b)
    tau = grid.t_end - grid.times()
    exact = np.real(
        np.einsum("ij,tj,jk,k->ti", V, np.exp(np.outer(tau, w)), V_inv, gT.g + shift)
    ) - shift
    assert np.max(np.abs(g_path - exact)) <= 1e-9


# ---------------------------------------------------------------------------
# gap closed form


def test_gap_constant_path_scalar_solution(p0):
    x, _ = stationary_pair(p0)
    a = 0.5 + 0.5 + 0.1 + 0.2 * x.x_I(0)

    def sup_error(n):
        grid = TimeGrid(0.0, 50.0, n)
        x_path = np.tile(x.x, (n + 1, 1))
        gap = oracle_gap_closed_form(p0, 0, x_path, 0.0, grid.h)
        times = grid.times()
        exact = (1.0 / a) * (1.0 - np.exp(-a * (50.0 - times)))  # w gap = 1 at P0
        return np.max(np.abs(gap - exact)), gap[0]

    err_coarse, head = sup_error(5000)
    assert err_coarse <= 2e-5  # trapezoid quadrature, a*h^2/12 at h = 0.01
    assert head == pytest.approx(P0_GAP, abs=2e-5)  # long-horizon limit
    err_fine, _ = sup_error(20000)
    assert 8.0 <= err_coarse / err_fine <= 24.0  # second-order quadrature


def test_gap_short_horizon_recovers_terminal(p0):
    x, _ = stationary_pair(p0)
    grid = TimeGrid(0.0, 1e-4, 10)
    x_path = np.tile(x.x, (grid.n_steps + 1, 1))
    gap = oracle_gap_closed_form(p0, 0, x_path, 0.7, grid.h)
    assert gap[0] == pytest.approx(0.7, abs=2e-4)


def test_gap_envelope_bound(p0):
    grid = TimeGrid(0.0, 30.0, 6000)
    x_path = integrate_forward(p0, MixedState.uniform(2), SINGLE1, grid)
    gT_gap = 0.4
    gap = oracle_gap_closed_form(p0, 0, x_path, gT_gap, grid.h)
    times = grid.times()
    a_min = 0.5 + 0.5 + 0.1
    bound = np.exp(-a_min * (30.0 - times)) * gT_gap + 1.0 / a_min
    assert np.all(gap <= bound + 1e-12)


# ---------------------------------------------------------------------------
# hypotheses


def test_hypotheses_pass_at_p0(p0):
    _, g = stationary_pair(p0)
    report = check_turnpike_hypotheses(p0, 0, g)
    assert report.ok, report.failures


def test_hypotheses_flag_rate_ordering(p0):
    bad = ModelParams(d=2, lam=100.0, delta=0.1, q_plus=[0.5, 0.4], q_minus=[0.5, 0.3],
                      beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    _, g = stationary_pair(bad)
    with pytest.raises(TurnpikeHypothesisError) as err:
        solve_turnpike(bad, 0, MixedState.uniform(2), g,
                       TimeGrid(0.0, 1.0, 100))
    assert any("rate-ordering-q-plus(2)" in f for f in err.value.failures)


def test_hypotheses_flag_terminal_cone(p0):
    _, g = stationary_pair(p0)
    outside = g.g.copy()
    outside[2] = g.g[0] - 1.0  # strategy 2 infected value below the anchor
    with pytest.raises(TurnpikeHypothesisError) as err:
        solve_turnpike(p0, 0, MixedState.uniform(2), ValueVector(outside),
                       TimeGrid(0.0, 1.0, 100))
    assert any("terminal-cone" in f for f in err.value.failures)


# ---------------------------------------------------------------------------
# turnpike construction


def test_turnpike_stationary_inputs(p0):
    x, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 10.0, 2000)
    sol = solve_turnpike(p0, 0, x, g, grid)
    assert sol.certified
    assert sol.stats.sup_x_mid <= 1e-9
    assert sol.stats.sup_g_mid <= 1e-9
    # the stats' anchor is the candidate's stationary solution, bitwise
    eq = solve_candidate(p0, SINGLE1)
    assert np.array_equal(sol.stats.x_star.x, eq.x_star.x)
    assert np.array_equal(sol.stats.g_star.g, eq.g.g)
    assert sol.stats.entry == grid.t_start and sol.stats.exit == grid.t_end
    assert sol.stats.inside_fraction == 1.0


def test_turnpike_p0_long_horizon(p0):
    _, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 50.0, 10000)
    sol = solve_turnpike(p0, 0, MixedState.uniform(2), g, grid)
    assert sol.certified
    assert sol.cone_ok.all() and sol.argmin_ok.all()
    assert sol.stats.sup_g_mid <= 1e-3
    assert sol.stats.sup_x_mid <= 1e-3  # measured ~3.1e-4, transient tail
    assert sol.stats.inside_fraction >= 0.8
    assert sol.stats.exit == grid.t_end


def test_turnpike_population_path_ignores_terminal_values(p0):
    _, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 10.0, 2000)
    shifted = g.g.copy()
    shifted[2] += 0.05  # stays inside the cone
    shifted[3] += 0.05
    a = solve_turnpike(p0, 0, MixedState.uniform(2), g, grid)
    b = solve_turnpike(p0, 0, MixedState.uniform(2), ValueVector(shifted), grid)
    assert np.array_equal(a.x_path, b.x_path)  # bitwise decoupling


def test_turnpike_short_horizon_may_never_enter(p0):
    _, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 0.1, 200)
    sol = solve_turnpike(p0, 0, MixedState.uniform(2), g, grid)
    # x starts far from x*, 0.1 time units cannot close the gap
    assert sol.stats.never_entered
    assert sol.stats.inside_fraction == 0.0


def test_cone_invariance_random_admissible_draws():
    rng = np.random.default_rng(99)
    solved = 0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        q_plus = np.empty(d)
        q_minus = np.empty(d)
        q_plus[0] = rng.uniform(0.2, 0.6)
        q_minus[0] = rng.uniform(0.5, 1.5)
        q_plus[1:] = q_plus[0] + rng.uniform(0.02, 0.08, d - 1)
        q_minus[1:] = np.maximum(q_minus[0] - rng.uniform(0.05, 0.15, d - 1), 0.05)
        w_S = np.empty(d)
        w_I = np.empty(d)
        w_S[0] = rng.uniform(0.2, 1.0)
        w_I[0] = w_S[0] + rng.uniform(0.5, 2.0)
        w_S[1:] = w_S[0] + rng.uniform(1.2, 2.5, d - 1)
        w_I[1:] = np.maximum(w_I[0], w_S[1:]) + rng.uniform(0.5, 2.0, d - 1)
        p = ModelParams(d=d, lam=float(rng.uniform(1.0, 20.0)),
                        delta=float(rng.uniform(0.05, 0.5)),
                        q_plus=q_plus, q_minus=q_minus,
                        beta=rng.uniform(0.0, 0.01, (d, d)), w_I=w_I, w_S=w_S)
        x_star, _ = fixed_point_single(p, 0)
        gT = hjb_single_exact(p, 0, x_star)
        if not check_turnpike_hypotheses(p, 0, gT).ok:
            continue
        grid = TimeGrid(0.0, 3.0, 3000)
        sol = solve_turnpike(p, 0, MixedState.uniform(d), gT, grid)
        assert sol.certified, f"cone violated at t={sol.first_violation_time}"
        solved += 1
    assert solved >= 5  # the constructive draws should mostly satisfy the hypotheses


# ---------------------------------------------------------------------------
# per-node flags


def _best_response_flags(g_path, u):
    """Per-node oracle: the control is the best response and not degenerate."""
    flags = []
    for g in g_path:
        br, degenerate = best_response(ValueVector(g))
        flags.append(br == u and not degenerate)
    return np.array(flags)


def _flag_rows(d):
    """Value rows for the flag oracles: random nodes, some with the runner-up
    at an exact tie or near TIE_TOL, and at d > 1 edge rows of exact arithmetic."""
    rng = np.random.default_rng(100 + d)
    n = 400
    g_path = rng.normal(size=(n, 2 * d))
    # nodes whose runner-up trails the minimum by an exact tie, by exactly
    # TIE_TOL, and by gaps just inside and just outside TIE_TOL
    gaps = [0.0, TIE_TOL, 0.5 * TIE_TOL, 0.999 * TIE_TOL, 1.001 * TIE_TOL, 2.0 * TIE_TOL]
    for m in range(n // 2):
        comp = m % 2
        row = g_path[m, comp::2]
        best = int(np.argmin(row))
        if d > 1:
            other = (best + 1 + m % (d - 1)) % d
            row[other] = row[best] + gaps[m % len(gaps)]
    if d > 1:
        # runner-up exactly at 0, TIE_TOL and 2 TIE_TOL above a minimum of 0.0,
        # in either compartment (exact arithmetic, so the boundary is hit)
        edge = np.ones((6, 2 * d))
        edge[:, :2] = 0.0
        for r, gap in enumerate([0.0, TIE_TOL, 2.0 * TIE_TOL] * 2):
            edge[r, 2 + r // 3] = gap
        g_path = np.vstack([g_path, edge])
    return g_path


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_argmin_flags_match_best_response_oracle(d):
    g_path = _flag_rows(d)
    controls = [StationaryControl.single(d, 0), StationaryControl.single(d, d - 1)]
    if d > 1:
        controls += [StationaryControl.mixed(d, 0, 1), StationaryControl.mixed(d, d - 1, 0)]
        controls.append(StationaryControl(np.arange(d), np.zeros(d, dtype=int)))  # non-uniform
    for u in controls:
        expected = _best_response_flags(g_path, u)
        assert np.array_equal(argmin_flags(g_path, u), expected), u.label()
        assert u.is_uniform or not expected.any()
    # the per-node best responses themselves, so every node is flagged true once
    for u in {best_response(ValueVector(g))[0] for g in g_path}:
        assert np.array_equal(argmin_flags(g_path, u), _best_response_flags(g_path, u))


def test_argmin_flags_reject_non_finite_values():
    g_path = np.zeros((3, 4))
    g_path[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        argmin_flags(g_path, SINGLE1)


def _cone_oracle(g_path, i):
    """Per-node scalar oracle: g(iI) <= g(jI), g(iS) <= g(jS), g(jI) >= g(jS)."""
    return np.array([
        all(g[2 * i] <= g[2 * j] and g[2 * i + 1] <= g[2 * j + 1] and g[2 * j] >= g[2 * j + 1]
            for j in range(len(g) // 2))
        for g in g_path.tolist()
    ])


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cone_flags_match_scalar_oracle(d):
    # values from a small set put exact ties between strategies (zero margins)
    # and exact or tie-level I/S gaps on many nodes, inside and outside the cone
    rng = np.random.default_rng(200 + d)
    g_S = rng.choice([0.0, 0.25, 1.0], size=(300, d))
    g_I = g_S + rng.choice([-TIE_TOL, 0.0, 0.5], size=(300, d))
    constructed = np.empty((300, 2 * d))
    constructed[:, 0::2], constructed[:, 1::2] = g_I, g_S
    g_path = np.vstack([_flag_rows(d), constructed])
    seen = set()
    for i in {0, d - 1}:
        expected = _cone_oracle(g_path, i)
        assert np.array_equal(cone_flags(g_path, i), expected), i
        seen.update(expected.tolist())
    assert seen == {True, False}


def test_backward_returns_the_value_path(p0):
    x, g = stationary_pair(p0)
    grid = TimeGrid(0.0, 1.0, 50)
    x_path = np.tile(x.x, (grid.n_steps + 1, 1))
    g_path = integrate_backward(p0, g, x_path, SINGLE1, grid)
    assert type(g_path) is np.ndarray and g_path.shape == (grid.n_steps + 1, 4)
    with pytest.raises(TypeError, match="mode"):  # one sweep, the frozen control's
        integrate_backward(p0, g, x_path, SINGLE1, grid, mode="fixed")


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_turnpike_flags_are_the_flag_functions_across_chunks(p0, offset):
    # the flags are taken in chunks of sweep_block(2d, 1) nodes; a terminal value
    # with the runner-up tied at the anchor is in the cone but its best response
    # is degenerate, so the last chunk holds False nodes
    n_steps = sweep_block(p0.n_states, 1) + offset
    _, g = stationary_pair(p0)
    tied = g.g.copy()
    tied[2], tied[3] = tied[0], tied[1]
    grid = TimeGrid(0.0, 0.001 * n_steps, n_steps)
    sol = solve_turnpike(p0, 0, MixedState.uniform(2), ValueVector(tied), grid)
    assert np.array_equal(sol.cone_ok, cone_flags(sol.g_path, 0))
    assert np.array_equal(sol.argmin_ok, argmin_flags(sol.g_path, SINGLE1))
    assert sol.cone_ok.all() and not sol.argmin_ok[-1] and sol.argmin_ok[0]
    assert not sol.certified
    assert sol.first_violation_time == grid.times()[np.argmin(sol.argmin_ok)]


def test_hypothesis_cone_margins_are_the_best_response_margins(p0):
    rng = np.random.default_rng(2000)
    p3 = random_params(rng, 3)
    cases = [(p0, 0, stationary_pair(p0)[1])]
    cases += [(p3, i, ValueVector(rng.uniform(0.0, 5.0, 6))) for i in range(3)]
    for p, i, gT in cases:
        margins = check_turnpike_hypotheses(p, i, gT).margins
        cone_I, cone_S = best_response_margins(np.array([i]), np.array([i]), gT.g[None])
        for j in set(range(p.d)) - {i}:
            assert margins[f"terminal-cone-I-min({j + 1})"].hex() == float(cone_I[0, j]).hex()
            assert margins[f"terminal-cone-S-min({j + 1})"].hex() == float(cone_S[0, j]).hex()


def test_criterion_7_failure_strings(p0):
    # the named failures of criterion 7's two falsified inputs, as written
    _, g = stationary_pair(p0)
    flipped = ModelParams(**{**P0, "q_plus": [0.5, 0.4]})
    outside = g.g.copy()
    outside[3] = g.g[1] - 1.0
    assert check_turnpike_hypotheses(flipped, 0, g).failures == [
        "rate-ordering-q-plus(2) (margin -0.1)"]
    assert check_turnpike_hypotheses(p0, 0, ValueVector(outside)).failures == [
        "terminal-cone-S-min(2) (margin -1)"]


@pytest.mark.parametrize("d, i", [(3, 0), (1, 1)])
def test_turnpike_refuses_terminal_values_of_another_dimension(p0, d, i):
    # d = 3 would read a report off the first two strategies, d = 1 with
    # i = 1 would index past the vector
    gT = ValueVector(np.linspace(1.0, 2.0, 2 * d))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_turnpike_hypotheses(p0, i, gT)
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_turnpike(p0, i, MixedState.uniform(2), gT, TimeGrid(0.0, 1.0, 10))


@pytest.mark.parametrize("i", [-2, -1, 2])
def test_turnpike_refuses_strategy_out_of_range(p0, i):
    # numpy would wrap a negative index onto a strategy, and 2 is past d = 2
    _, g = stationary_pair(p0)
    with pytest.raises(ValueError, match=r"strategy index .* not in \[0, 2\)"):
        check_turnpike_hypotheses(p0, i, g)
    with pytest.raises(ValueError, match=r"strategy index .* not in \[0, 2\)"):
        solve_turnpike(p0, i, MixedState.uniform(2), g, TimeGrid(0.0, 1.0, 10))


# ---------------------------------------------------------------------------
# the turnpike's anchor and grid


@pytest.mark.parametrize("d", [2, 3])
def test_stationary_anchor_is_the_kernel_row(p0, d):
    # every single(i) row, rejected ones too (P0's single(2), a d = 3 draw's)
    p = p0 if d == 2 else random_params(np.random.default_rng(5), d=3)
    sol = solve_points(ParamStack.tile(p))
    rows = [i * d + i for i in range(d)]
    assert REJECTED in sol.status[rows] and FAILED not in sol.status[rows]
    for i, r in enumerate(rows):
        x_star, g_star = dynamics.stationary_anchor(p, i)
        assert x_star.x.tobytes() == sol.x[r].tobytes()
        assert g_star.g.tobytes() == sol.g[r].tobytes()


def test_stationary_anchor_failed_row_raises_its_detail(p0):
    p = ModelParams(**{**P0, "q_minus": [1e308, 0.3]})
    assert solve_points(ParamStack.tile(p)).failure[0] == "state entries must be finite"
    with pytest.raises(RuntimeError, match="^state entries must be finite$"):
        dynamics.stationary_anchor(p, 0)


def test_turnpike_grid_past_rk4_real_stability_refused(p0):
    # P0's rate bound lam + delta + max_j (q_plus_j + q_minus_j + max_k beta_kj) is
    # 101.3: on [0, 2] that is h * rate = 4.052 at 50 steps, 2.814 at 72, 2.775 at 73
    _, g_star = dynamics.stationary_anchor(p0, 0)
    x0 = MixedState.uniform(2)
    coarse = TimeGrid(0.0, 2.0, 50)
    x_path = integrate_forward(p0, x0, SINGLE1, coarse)
    assert np.abs(integrate_backward(p0, g_star, x_path, SINGLE1, coarse)).max() > 1e30
    for n in (50, 72):
        with pytest.raises(ValueError, match="past classical RK4's real stability bound 2.785"):
            solve_turnpike(p0, 0, x0, g_star, TimeGrid(0.0, 2.0, n))
    sol = solve_turnpike(p0, 0, x0, g_star, TimeGrid(0.0, 2.0, 73))
    assert np.abs(sol.g_path).max() <= np.abs(g_star.g).max() + 0.1


def test_turnpike_grid_of_one_step_refused(p0):
    # the mid-horizon window of the stats holds a node from 2 steps on
    _, g_star = dynamics.stationary_anchor(p0, 0)
    x0 = MixedState.uniform(2)
    with pytest.raises(ValueError, match=r"mid-horizon window \[0.001, 0.009\] holds no node"):
        solve_turnpike(p0, 0, x0, g_star, TimeGrid(0.0, 0.01, 1))
    assert np.isfinite(solve_turnpike(p0, 0, x0, g_star, TimeGrid(0.0, 0.01, 2)).stats.sup_x_mid)
