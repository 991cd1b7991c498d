"""Core model: containers, the generator and its products, best response."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sismfg import (
    MixedState,
    ModelParams,
    StationaryControl,
    ValueVector,
    best_response,
    consistency_residual,
)
from sismfg.model import PEER, Generator, ParamStack, kinetic_rhs_fn, state_targets
from sismfg.stationary import fixed_point_single, hjb_single_exact

from conftest import (
    P0_XSTAR,
    oracle_generator,
    oracle_kinetic_jacobian,
    oracle_kinetic_rhs,
    oracle_stationary_values,
    oracle_value_rhs,
    oracle_xstar,
    random_control,
    random_params,
    random_state,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rng_of(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# containers


def test_params_reject_swapped_costs():
    with pytest.raises(ValueError, match="better"):
        ModelParams(d=1, lam=1.0, delta=0.1, q_plus=[0.5], q_minus=[0.5],
                    beta=[[0.0]], w_I=[1.0], w_S=[2.0])


def test_params_collect_all_violations():
    try:
        ModelParams(d=2, lam=-1.0, delta=-0.5, q_plus=[0.5, 0.5], q_minus=[0.5, 0.5],
                    beta=[[0.0, 0.0], [0.0, 0.0]], w_I=[1.0, 1.0], w_S=[2.0, 0.5])
    except ValueError as exc:
        msg = str(exc)
        assert "lam" in msg and "delta" in msg and "w_S" in msg
    else:
        pytest.fail("expected ValueError")


def test_state_rejects_off_simplex():
    with pytest.raises(ValueError, match="sum to 1"):
        MixedState([0.5, 0.5, 0.1, 0.0])
    with pytest.raises(ValueError, match=">= 0"):
        MixedState([1.1, -0.1, 0.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            MixedState([bad, bad, 0.0, 0.0])


def test_control_constructors():
    u = StationaryControl.single(3, 1)
    assert u.is_single and u.as_pair() == (1, 1) and u.label() == "single(2)"
    v = StationaryControl.mixed(3, 0, 2)
    assert v.is_mixed and v.as_pair() == (0, 2) and v.label() == "mixed(1,3)"
    with pytest.raises(ValueError):
        StationaryControl.mixed(3, 1, 1)
    assert u != v and u == StationaryControl.single(3, 1)


def test_tilde_rates_dominate_base_rates(p0):
    rng = rng_of(7)
    for _ in range(20):
        x = random_state(rng, p0.d)
        qt = Generator.of(p0).switch_rates(x.x)[1::2]  # the S rows
        assert np.all(qt >= p0.q_minus)


# ---------------------------------------------------------------------------
# the population RHS


def test_kinetic_absorbing_state_no_pressure():
    # pressure-free limit (q_minus = 0 sits outside the ModelParams
    # invariants, so the raw coefficient path is exercised directly)
    stub = SimpleNamespace(
        d=1,
        lam=3.0,
        delta=0.1,
        q_plus=np.array([0.5]),
        q_minus=np.array([0.0]),
        beta=np.zeros((1, 1)),
        w_I=np.array([2.0]),
        w_S=np.array([1.0]),
    )
    y = kinetic_rhs_fn(np.empty(3))(np.array([0.0, 1.0]), Generator.of(stub).exchange_weights)
    assert np.all(y[:1] + y[1:2] == 0.0)


@settings(max_examples=60, deadline=None)
@given(seeds)
@example(6683)  # scatter-add RHS summed to 1.07e-14 here
@example(155500)  # and to 1.42e-14 here
def test_kinetic_mass_conservation(seed):
    # The exact RHS sums to 0, as the generator's rows do.  In floats three
    # roundings leave a residue (Higham, "Accuracy and Stability of Numerical
    # Algorithms", Lemma 3.1, gamma_k = k u / (1 - k u)):
    # - each decision flow lam x_s enters a sum of at most 2d flows at its
    #   target, off by <= gamma_2d of those flows, and leaves its source
    #   with one more rounding, so the decisions add <= (gamma_2d + u) lam |x|_1;
    # - the exchange term goes onto jI and off jS with one rounding each, and
    #   the 2d-term sum adds gamma_(2d-1) sum_k |rhs_k|.
    # On the simplex |rhs|_1 <= 2 R |x|_1 with R the total rate below, so
    # |sum rhs| <= (gamma_2d + u + gamma_(2d-1)) 2 R |x|_1 <= 2 gamma_4d R |x|_1.
    rng = rng_of(seed)
    p = random_params(rng)
    x = random_state(rng, p.d)
    u = random_control(rng, p.d)
    rates = p.lam + p.q_plus.sum() + p.q_minus.sum() + p.beta.sum()
    k = 4 * p.d
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    assert abs(Generator.of(p, u).forward(x.x).sum()) <= 2 * gamma * rates * np.abs(x.x).sum()


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_kinetic_positivity_on_boundary(seed):
    rng = rng_of(seed)
    p = random_params(rng)
    u = random_control(rng, p.d)
    x_arr = rng.dirichlet(np.ones(2 * p.d))
    kill = rng.integers(0, 2 * p.d, size=max(1, p.d))
    x_arr[kill] = 0.0
    x = MixedState(x_arr / x_arr.sum())
    rhs = Generator.of(p, u).forward(x.x)
    assert np.all(rhs[x.x == 0.0] >= 0.0)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_kinetic_jacobian_matches_central_differences(seed):
    # lam log-uniform up to 1e6, d up to 5, per-state (non-uniform) targets
    rng = rng_of(seed)
    d = int(rng.integers(1, 6))
    w_S = rng.uniform(0.0, 4.0, d)
    p = ModelParams(d=d, lam=float(10.0 ** rng.uniform(-0.3, 6.0)),
                    delta=float(rng.uniform(0.01, 1.0)), q_plus=rng.uniform(0.05, 2.0, d),
                    q_minus=rng.uniform(0.05, 2.0, d), beta=rng.uniform(0.0, 0.5, (d, d)),
                    w_I=w_S + rng.uniform(0.1, 3.0, d), w_S=w_S)
    u = random_control(rng, d)
    x = random_state(rng, d).x
    err = np.max(np.abs(Generator.of(p, u).jacobian(x) - oracle_kinetic_jacobian(p, u, x)))
    assert err <= 16.0 * np.finfo(float).eps * max(1.0, p.lam)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_one_point_product_matches_generator_forward_and_oracle(seed):
    # the one-matmul exchange of kinetic_rhs_fn, with the decisions x @ M the
    # exponential step solves, against the flow form and the dense oracle:
    # lam log-uniform up to 1e6, d up to 5, per-state targets, states on the
    # simplex and (as ETDRK4 stages meet) off it
    rng = rng_of(seed)
    d = int(rng.integers(1, 6))
    w_S = rng.uniform(0.0, 4.0, d)
    p = ModelParams(d=d, lam=float(10.0 ** rng.uniform(-0.3, 6.0)),
                    delta=float(rng.uniform(0.01, 1.0)), q_plus=rng.uniform(0.05, 2.0, d),
                    q_minus=rng.uniform(0.05, 2.0, d), beta=rng.uniform(0.0, 0.5, (d, d)),
                    w_I=w_S + rng.uniform(0.1, 3.0, d), w_S=w_S)
    u = random_control(rng, d)
    x = random_state(rng, d).x + rng.normal(scale=0.1, size=2 * d) * rng.integers(0, 2)
    gen = Generator.of(p, u)
    y = kinetic_rhs_fn(np.empty(3 * d))(x, gen.exchange_weights)
    net = y[:d] + y[d:2 * d]
    product = x @ gen.decisions
    product[0::2] += net
    product[1::2] -= net
    bound = 16.0 * np.finfo(float).eps * max(1.0, p.lam) * np.max(np.abs(x))
    for ref in (gen.forward(x), oracle_kinetic_rhs(p, u)(x)):
        assert np.max(np.abs(product - ref)) <= bound


def test_kinetic_stage_writes_only_its_slot(p0):
    # the forward step keeps the state and its stage slots side by side in
    # one buffer: a stage writes y = z @ w into its own slot, multiplies y_S
    # by y_beta there, and leaves the state and every other slot as they were
    w = Generator.of(p0).exchange_weights
    z = np.zeros(4 + 2 * 6)
    z[:4] = MixedState.uniform(2).x
    slot_a, slot_b = z[4:10], z[10:16]
    stage_a, stage_b = kinetic_rhs_fn(slot_a), kinetic_rhs_fn(slot_b)
    want = z[:4] @ w
    want[2:4] *= want[4:6]
    assert stage_a(z[:4], w) is slot_a
    assert slot_a.tobytes() == want.tobytes() and not slot_b.any()
    kept = z[:10].copy()
    # slot_b reads the state and slot_a: z[:4] @ w + slot_a, then the multiply
    assert stage_b(z[:10], np.vstack([w, np.eye(6)])) is slot_b
    assert z[:10].tobytes() == kept.tobytes()
    sums = z[:4] @ w + slot_a
    sums[2:4] *= sums[4:6]
    assert np.allclose(slot_b, sums, rtol=1e-15, atol=0.0)


def test_kinetic_vanishes_at_p0_fixed_point(p0):
    x_star = oracle_xstar(p0, 0)
    assert x_star == pytest.approx(P0_XSTAR, abs=1e-12)
    # the spec-level rounded value must also certify to 1e-4
    for share in (x_star, 0.54951):
        x = MixedState([share, 1.0 - share, 0.0, 0.0])
        rhs = Generator.of(p0, StationaryControl.single(2, 0)).forward(x.x)
        assert np.max(np.abs(rhs)) <= 1e-4


def test_generator_refuses_control_of_another_dimension(p0):
    with pytest.raises(ValueError, match="dimension"):
        Generator.of(p0, StationaryControl.single(3, 0))


# ---------------------------------------------------------------------------
# the value RHS


def test_hjb_constant_values_flat_costs():
    # w_I = w_S sits outside the invariants; raw-path check of the structure
    stub = SimpleNamespace(
        d=2,
        lam=7.0,
        delta=0.0,
        q_plus=np.array([0.5, 0.6]),
        q_minus=np.array([0.4, 0.3]),
        beta=np.zeros((2, 2)),
        w_I=np.full(2, 3.25),
        w_S=np.full(2, 3.25),
    )
    g = np.full(4, 11.0)
    u = StationaryControl.single(2, 0)  # the best response to constant values
    gen = Generator.of(stub, u)
    assert np.all(gen.value_rhs(gen.switch_rates(np.zeros(4)), g) == 3.25)
    stub.w_I = stub.w_S = np.zeros(2)
    gen = Generator.of(stub, u)
    assert np.all(gen.value_rhs(gen.switch_rates(np.zeros(4)), g) == 0.0)


def test_hjb_constant_values_admissible_costs():
    p = ModelParams(d=2, lam=7.0, delta=0.0, q_plus=[0.5, 0.6], q_minus=[0.4, 0.3],
                    beta=np.zeros((2, 2)), w_I=[2.0, 3.0], w_S=[1.0, 1.5])
    g = ValueVector(np.full(4, 5.0))
    gen = Generator.of(p, StationaryControl.single(2, 0))  # the best response to g
    out = gen.value_rhs(gen.switch_rates(MixedState.uniform(2).x), g.g)
    assert np.allclose(out, [2.0, 1.0, 3.0, 1.5], atol=0, rtol=0)


def test_hjb_d1_reduces_to_scalar_pair():
    p = ModelParams(d=1, lam=9.0, delta=0.2, q_plus=[0.7], q_minus=[0.4],
                    beta=[[0.3]], w_I=[2.0], w_S=[0.5])
    x = MixedState([0.6, 0.4])
    g = ValueVector([3.0, 1.0])
    gen = Generator.of(p, StationaryControl.single(1, 0))  # the only control at d = 1
    out = gen.value_rhs(gen.switch_rates(x.x), g.g)
    q_tilde = 0.4 + 0.3 * 0.6
    expect_I = 0.7 * (1.0 - 3.0) + 2.0 - 0.2 * 3.0
    expect_S = q_tilde * (3.0 - 1.0) + 0.5 - 0.2 * 1.0
    assert out == pytest.approx([expect_I, expect_S], abs=1e-15)


def test_hjb_stationary_at_p0(p0):
    x_star, x = fixed_point_single(p0, 0)
    u = StationaryControl.single(2, 0)
    g = ValueVector(oracle_stationary_values(p0, u, x))
    gen = Generator.of(p0, u)
    assert np.max(np.abs(gen.value_rhs(gen.switch_rates(x.x), g.g))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_hjb_fixed_control_matches_explicit_min_at_best_response(seed):
    rng = rng_of(seed)
    p = random_params(rng)
    x = random_state(rng, p.d)
    g = ValueVector(rng.normal(size=2 * p.d))
    u, _ = best_response(g)
    gen = Generator.of(p, u)
    c = gen.switch_rates(x.x)
    expanded = gen.value_rhs(c, g.g)
    explicit = oracle_value_rhs(p, None, x.infected, g.g)  # each state at the strategy minimum
    # the same sums in the same order; only the peer sums in c may round apart
    largest = max((p.lam + c.max()) * np.ptp(g.g), np.abs(gen.w).max(), p.delta * np.abs(g.g).max())
    assert np.max(np.abs(explicit - expanded)) <= 4.0 * np.finfo(float).eps * largest


def test_hjb_rhs_stacked_values_equal_one_by_one():
    # the backward sweep evaluates the value equation on stacked probes, states first
    rng = np.random.default_rng(15)
    for d in (1, 3):
        p = random_params(rng, d)
        c = Generator.of(p).switch_rates(rng.uniform(0.0, 0.5, (4, 2 * d)))  # one row per step
        g = rng.normal(size=(2 * d, 3, 4))  # g[:, k, m]: probe k at step m
        for u in (StationaryControl.single(d, 0), random_control(rng, d)):
            rhs = Generator.of(p, u).value_rhs
            stacked = rhs(c.T[:, None], g)
            for k in range(3):
                for m in range(4):
                    assert np.array_equal(stacked[:, k, m], rhs(c[m], g[:, k, m]))


# ---------------------------------------------------------------------------
# the generator


def _draws(seed):
    """(params, control, state, rng) at several d, targets per state."""
    rng = np.random.default_rng(seed)
    for d in (1, 2, 3, 5):
        for _ in range(10):
            p = random_params(rng, d)
            yield p, random_control(rng, d), random_state(rng, d).x, rng


def test_generator_rows_sum_to_zero_with_nonnegative_off_diagonal():
    # Q(x) read off the backward product (column t is Q(x) e_t) is the matrix
    # of the edge table and of the state-by-state oracle
    for p, u, x, _ in _draws(21):
        gen = Generator.of(p, u)
        q = gen.backward(gen.switch_rates(x)[:, None], np.eye(x.size))
        roundoff = ParamStack.tile(p).rate_roundoff()[0]
        assert q[~np.eye(x.size, dtype=bool)].min() >= 0.0
        assert np.max(np.abs(q.sum(axis=1))) <= roundoff
        frm, to, kind, rate = gen.edges
        rate[kind == PEER] = p.beta.T @ x[0::2]
        table = np.zeros_like(q)
        np.add.at(table, (frm, to), rate)
        np.add.at(table, (frm, frm), -rate)
        Q0, Qk = oracle_generator(p, u)
        for ref in (table, Q0 + np.tensordot(x[0::2], Qk, 1)):
            assert np.max(np.abs(q - ref)) <= roundoff


def test_generator_forward_backward_duality():
    # <x Q(x), g> = <x, Q(x) g>
    for p, u, x, rng in _draws(22):
        gen = Generator.of(p, u)
        g = rng.normal(scale=10.0, size=x.size)
        gap = gen.forward(x) @ g - x @ gen.backward(gen.switch_rates(x), g)
        assert abs(gap) <= ParamStack.tile(p).rate_roundoff()[0] * np.abs(g).max()


def test_generator_jacobian_matches_central_differences_of_forward():
    for p, u, x, _ in _draws(23):
        gen = Generator.of(p, u)
        diff = np.column_stack([(gen.forward(x + e) - gen.forward(x - e)) / 2.0
                                for e in np.eye(x.size)])
        assert np.max(np.abs(gen.jacobian(x) - diff)) <= 16.0 * np.finfo(float).eps * max(1.0, p.lam)


def test_stacked_generator_rows_equal_one_point_generators():
    rng = np.random.default_rng(24)
    d = 3
    points = [(random_params(rng, d), random_control(rng, d)) for _ in range(6)]
    tiles = [ParamStack.tile(p) for p, _ in points]
    stack = ParamStack(*(np.concatenate([getattr(t, f.name) for t in tiles])
                         for f in dataclasses.fields(ParamStack)))
    gen = Generator(stack, np.stack([state_targets(u) for _, u in points]))
    x = np.stack([random_state(rng, d).x for _ in points])
    g = rng.normal(size=x.shape)
    c = gen.switch_rates(x)
    for m, (p, u) in enumerate(points):
        one = Generator.of(p, u)
        roundoff = tiles[m].rate_roundoff()[0]
        assert np.array_equal(c[m], one.switch_rates(x[m]))
        assert np.max(np.abs(gen.forward(x)[m] - one.forward(x[m]))) <= roundoff
        assert np.max(np.abs(gen.jacobian(x)[m] - one.jacobian(x[m]))) <= roundoff
        assert np.max(np.abs(gen.value_rhs(c.T, g.T)[:, m] - one.value_rhs(c[m], g[m]))) <= roundoff


# ---------------------------------------------------------------------------
# best_response


def test_best_response_examples():
    u, degenerate = best_response(ValueVector([1.0, 2.0, 2.0, 1.0]))  # g_I=(1,2), g_S=(2,1)
    assert u == StationaryControl.mixed(2, 0, 1) and not degenerate
    _, degenerate = best_response(ValueVector([1.0, 5.0, 1.0, 6.0]))  # tied g_I
    assert degenerate


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_best_response_shift_invariance(seed):
    rng = rng_of(seed)
    g = rng.normal(size=2 * int(rng.integers(1, 5)))
    u1, d1 = best_response(ValueVector(g))
    u2, d2 = best_response(ValueVector(g + 123.456))
    assert u1 == u2 and d1 == d2


def test_best_response_matches_exhaustive_argmin(p0):
    x_star, _ = fixed_point_single(p0, 0)
    g = hjb_single_exact(p0, 0, x_star)
    u, degenerate = best_response(g)
    assert u == StationaryControl.single(2, 0) and not degenerate
    # exhaustive oracle
    gI, gS = g.infected_values, g.susceptible_values
    assert int(np.argmin(gI)) == 0 and int(np.argmin(gS)) == 0


# ---------------------------------------------------------------------------
# consistency_residual


def test_residual_certifies_p0_equilibrium(p0):
    x_star, x = fixed_point_single(p0, 0)
    g = hjb_single_exact(p0, 0, x_star)
    u = StationaryControl.single(2, 0)
    assert consistency_residual(p0, x, g, u) <= 1e-8


def test_residual_detects_perturbed_state(p0):
    x_star, x = fixed_point_single(p0, 0)
    g = hjb_single_exact(p0, 0, x_star)
    u = StationaryControl.single(2, 0)
    bumped = x.x.copy()
    bumped[2] += 0.1
    x_bad = MixedState(bumped / bumped.sum())
    assert consistency_residual(p0, x_bad, g, u) > 1e-3
