"""Stationary equilibria: fixed points, spectra, values, margins, enumeration."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sismfg import (
    MixedState,
    StationaryControl,
    best_response,
    consistency_residual,
)
from sismfg import stationary
from sismfg.config import SweepAxis, sweep_grid
from sismfg.dynamics import stationary_anchor
from sismfg.model import SIMPLEX_TOL, Generator, ModelParams, ParamStack
from sismfg.stationary import (
    consistency_mixed,
    consistency_single,
    enumerate_equilibria,
    fixed_point_mixed,
    fixed_point_single,
    hjb_mixed_exact,
    hjb_single_exact,
    solve_points,
    stability_single,
)

from conftest import (
    P0,
    P0_GAP,
    P0_G1I,
    P0_G1S,
    P0_XI_PRINCIPAL,
    P0_XSTAR,
    _oracle_rate_roundoff,
    _oracle_spectrum,
    mixed_asymptotic_values,
    mixed_first_order,
    oracle_enumerate,
    oracle_share_quadratic,
    oracle_stationary_values,
    oracle_xstar,
    random_params,
)


def single_dense_gap(p, i, state, rep):
    """Largest gap between a single-family spectrum and the dense reference."""
    dense = _oracle_spectrum(p, StationaryControl.single(p.d, i), state.x)
    return float(np.max(np.abs(rep.spectrum - dense)))


def quadratic_value(p, i, y):
    a, b, c = oracle_share_quadratic(p, i)
    return a * y * y + b * y + c


def single_margins(p, i):
    x_star, _ = fixed_point_single(p, i)
    return consistency_single(p, i, x_star, hjb_single_exact(p, i, x_star))


def mixed_margins(p, i, k):
    x = fixed_point_mixed(p, i, k)
    return consistency_mixed(p, i, k, x, hjb_mixed_exact(p, i, k, x))


# ---------------------------------------------------------------------------
# fixed_point_single


def test_fixed_point_symmetric_linear_case():
    p = ModelParams(d=1, lam=1.0, delta=0.1, q_plus=[0.5], q_minus=[0.5],
                    beta=[[0.0]], w_I=[2.0], w_S=[1.0])
    x_star, state = fixed_point_single(p, 0)
    assert x_star == pytest.approx(0.5, abs=0)
    assert state.x_I(0) == x_star and state.x_S(0) == pytest.approx(0.5)


def test_fixed_point_unit_self_interaction():
    p = ModelParams(d=1, lam=1.0, delta=0.1, q_plus=[0.5], q_minus=[0.5],
                    beta=[[1.0]], w_I=[2.0], w_S=[1.0])
    x_star, _ = fixed_point_single(p, 0)
    assert x_star == pytest.approx(oracle_xstar(p, 0), abs=1e-14)
    assert x_star == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_fixed_point_p0(p0):
    x_star, state = fixed_point_single(p0, 0)
    assert x_star == pytest.approx(oracle_xstar(p0, 0), abs=1e-9)
    assert x_star == pytest.approx(P0_XSTAR, abs=1e-15)
    assert np.max(np.abs(Generator.of(p0, StationaryControl.single(2, 0)).forward(state.x))) <= 1e-10


def test_fixed_point_certificates_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_params(rng)
        for i in range(p.d):
            x_star, state = fixed_point_single(p, i)
            assert 0.0 < x_star < 1.0
            assert abs(quadratic_value(p, i, x_star)) <= 1e-12
            rhs = Generator.of(p, StationaryControl.single(p.d, i)).forward(state.x)
            assert np.max(np.abs(rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# stability_single


def test_stability_p0_principal_eigenvalue(p0):
    x_star, state = fixed_point_single(p0, 0)
    rep = stability_single(p0, 0, x_star)
    assert rep.xi_principal == pytest.approx(P0_XI_PRINCIPAL, abs=1e-12)
    # spec-level arithmetic: (1 - 2 * 0.54951) * 0.2 - 1.0
    assert rep.xi_principal == pytest.approx(-1.01980, abs=1e-4)
    assert rep.stable
    assert single_dense_gap(p0, 0, state, rep) <= 1e-8


def test_stability_interaction_free_formula():
    p = ModelParams(d=2, lam=5.0, delta=0.1, q_plus=[0.7, 0.8], q_minus=[0.4, 0.2],
                    beta=np.zeros((2, 2)), w_I=[2.0, 3.0], w_S=[1.0, 1.5])
    x_star, _ = fixed_point_single(p, 0)
    rep = stability_single(p, 0, x_star)
    assert rep.xi_principal == pytest.approx(-(0.4 + 0.7), abs=1e-14)


def test_stability_fast_pair_contains_minus_lambda(p0):
    x_star, _ = fixed_point_single(p0, 0)
    rep = stability_single(p0, 0, x_star)
    assert rep.xi_pairs.shape == (1, 2)
    assert rep.xi_pairs[0, 1] == -100.0  # exactly -lam
    expected_slow = -(100.0 + 0.6 + 0.3 + x_star * 0.05)
    assert rep.xi_pairs[0, 0] == pytest.approx(expected_slow, abs=1e-12)


def test_stability_spectra_agree_large_lambda():
    # lam log-uniform over [1, 1e6], beyond the lam < 50 of random_params
    rng = np.random.default_rng(17)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        w_S = rng.uniform(0.0, 4.0, d)
        p = ModelParams(d=d, lam=float(10.0 ** rng.uniform(0.0, 6.0)),
                        delta=float(rng.uniform(0.01, 1.0)), q_plus=rng.uniform(0.05, 2.0, d),
                        q_minus=rng.uniform(0.05, 2.0, d), beta=rng.uniform(0.0, 0.5, (d, d)),
                        w_I=w_S + rng.uniform(0.1, 3.0, d), w_S=w_S)
        for i in range(d):
            x_star, state = fixed_point_single(p, i)
            rep = stability_single(p, i, x_star)
            assert single_dense_gap(p, i, state, rep) <= 1e-6
            assert rep.stable


def test_stability_spectra_agree_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = random_params(rng)
        for i in range(p.d):
            x_star, state = fixed_point_single(p, i)
            rep = stability_single(p, i, x_star)
            assert single_dense_gap(p, i, state, rep) <= 1e-8
            assert rep.stable


# ---------------------------------------------------------------------------
# hjb_single_exact


def test_values_p0_block(p0):
    x_star, x = fixed_point_single(p0, 0)
    g = hjb_single_exact(p0, 0, x_star)
    assert g.g_I(0) - g.g_S(0) == pytest.approx(P0_GAP, abs=1e-12)
    assert g.g_I(0) == pytest.approx(P0_G1I, abs=1e-10)
    assert g.g_S(0) == pytest.approx(P0_G1S, abs=1e-10)
    # generic dense-solve oracle over the full system
    dense = oracle_stationary_values(p0, StationaryControl.single(2, 0), x)
    assert np.max(np.abs(g.g - dense)) <= 1e-10


def test_values_gap_shrinks_with_cost_gap():
    gaps = []
    for eps in (1e-2, 1e-5):
        p = ModelParams(d=1, lam=1.0, delta=0.5, q_plus=[0.5], q_minus=[0.5],
                        beta=[[0.2]], w_I=[1.0 + eps], w_S=[1.0])
        x_star, _ = fixed_point_single(p, 0)
        g = hjb_single_exact(p, 0, x_star)
        gaps.append(g.g_I(0) - g.g_S(0))
    assert gaps[0] > 0 and gaps[1] > 0
    assert gaps[0] / gaps[1] == pytest.approx(1e3, rel=1e-6)


def test_values_random_draws_match_dense_solve():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = random_params(rng)
        for i in range(p.d):
            x_star, x = fixed_point_single(p, i)
            g = hjb_single_exact(p, i, x_star)
            dense = oracle_stationary_values(p, StationaryControl.single(p.d, i), x)
            scale = max(1.0, np.max(np.abs(dense)))
            assert np.max(np.abs(g.g - dense)) <= 1e-9 * scale
            assert g.g_I(i) > g.g_S(i)  # infected always costs more


def test_values_require_positive_discount():
    p = ModelParams(d=1, lam=1.0, delta=0.0, q_plus=[0.5], q_minus=[0.5],
                    beta=[[0.0]], w_I=[2.0], w_S=[1.0])
    with pytest.raises(ValueError, match="delta"):
        hjb_single_exact(p, 0, 0.5)


# ---------------------------------------------------------------------------
# single-family asymptotic margins: g(j .) = g(i .) + asymptotic_margin_*[j] / lam + O(1/lam^2)


def asymptotic_error(cm, lam):
    """Largest distance between the exact margins and their first-order
    prediction asymptotic_margin / lam."""
    return max(np.max(np.abs(cm.margin_I - cm.asymptotic_margin_I / lam)),
               np.max(np.abs(cm.margin_S - cm.asymptotic_margin_S / lam)))


def test_asymptotic_leading_order_collapses(p0):
    from dataclasses import replace

    huge = replace(p0, lam=1e12)
    cm = single_margins(huge, 0)
    assert abs(cm.asymptotic_margin_I[1] / huge.lam) <= 1e-10
    assert abs(cm.asymptotic_margin_S[1] / huge.lam) <= 1e-10


def test_asymptotic_error_scales_inverse_square(p0):
    errs = []
    for lam in (50.0, 100.0, 200.0):
        p = ModelParams(d=2, lam=lam, delta=0.1, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                        beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
        errs.append(asymptotic_error(single_margins(p, 0), lam))
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 4 / 1.5 <= ratio <= 4 * 1.5


def test_asymptotic_equals_exact_for_single_strategy():
    p = ModelParams(d=1, lam=3.0, delta=0.2, q_plus=[0.5], q_minus=[0.4],
                    beta=[[0.1]], w_I=[2.0], w_S=[1.0])
    cm = single_margins(p, 0)
    assert np.all(cm.asymptotic_margin_I == 0.0) and np.all(cm.asymptotic_margin_S == 0.0)
    assert asymptotic_error(cm, p.lam) == 0.0


# ---------------------------------------------------------------------------
# consistency_single


def test_consistency_p0_small_interaction_margins(p0):
    cm = single_margins(p0, 0)
    assert cm.small_interaction_margin_I[1] == pytest.approx(1.0 - 0.1 / 1.1, abs=1e-12)
    assert cm.small_interaction_margin_S[1] == pytest.approx(1.5 - 0.2 / 1.1, abs=1e-12)
    assert cm.accepted and not cm.degenerate


def test_consistency_symmetric_strategies_zero_margins():
    p = ModelParams(d=2, lam=10.0, delta=0.2, q_plus=[0.5, 0.5], q_minus=[0.4, 0.4],
                    beta=[[0.1, 0.1], [0.1, 0.1]], w_I=[2.0, 2.0], w_S=[1.0, 1.0])
    cm = single_margins(p, 0)
    assert abs(cm.margin_I[1]) <= 1e-12 and abs(cm.margin_S[1]) <= 1e-12
    assert cm.degenerate


def test_consistency_p0_dominated_strategy_fails(p0):
    cm = single_margins(p0, 1)  # strategy 2 is dominated by strategy 1
    assert cm.min_margin < 0 and not cm.accepted


# ---------------------------------------------------------------------------
# fixed_point_mixed


def test_mixed_fixed_point_interaction_free_limit():
    p = ModelParams(d=2, lam=1e6, delta=0.1, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                    beta=np.zeros((2, 2)), w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    x = fixed_point_mixed(p, 0, 1)
    # x_iI -> q_minus_k / (q_minus_k + q_plus_i) = 0.3 / 0.8
    assert x.x_I(0) == pytest.approx(0.375, abs=1e-5)
    assert np.max(np.abs(Generator.of(p, StationaryControl.mixed(2, 0, 1)).forward(x.x))) <= 1e-12


def test_mixed_fixed_point_share_ratio_approaches_one(p0):
    base = dict(d=2, delta=0.1, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    for lam in (100.0, 1000.0, 10000.0):
        p = ModelParams(lam=lam, **base)
        x = fixed_point_mixed(p, 0, 1)
        ratio = x.x_I(1) * lam / (x.x_I(0) * 0.5)
        assert abs(ratio - 1.0) <= 2.0 / lam


def test_mixed_fixed_point_forced_identity_and_residual(p0):
    x = fixed_point_mixed(p0, 0, 1)
    assert x.x_I(1) == x.x_S(0)  # exact, by construction
    u = StationaryControl.mixed(2, 0, 1)
    assert np.max(np.abs(Generator.of(p0, u).forward(x.x))) <= 1e-12


# ---------------------------------------------------------------------------
# hjb_mixed_exact / first-order mixed values


def test_mixed_values_certificate_and_dense_oracle(p0):
    x = fixed_point_mixed(p0, 0, 1)
    g = hjb_mixed_exact(p0, 0, 1, x)
    dense = oracle_stationary_values(p0, StationaryControl.mixed(2, 0, 1), x)
    assert np.max(np.abs(g.g - dense)) <= 1e-9 * max(1.0, np.max(np.abs(dense)))


def test_mixed_values_compartment_differences_shrink(p0):
    base = dict(d=2, delta=0.1, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    diffs = []
    for lam in (100.0, 1000.0):
        p = ModelParams(lam=lam, **base)
        x = fixed_point_mixed(p, 0, 1)
        g = hjb_mixed_exact(p, 0, 1, x)
        diffs.append((abs(g.g_S(0) - g.g_S(1)), abs(g.g_I(1) - g.g_I(0))))
    for a, b in zip(diffs[0], diffs[1]):
        assert 10 / 1.5 <= a / b <= 10 * 1.5


def test_mixed_asymptotic_structural_equalities(p0):
    g0, _ = mixed_asymptotic_values(p0, 0, 1, fixed_point_mixed(p0, 0, 1))
    assert g0[1] == g0[3]  # g0(iS) = g0(kS), exactly
    assert g0[0] == g0[2]  # g0(kI) = g0(iI), exactly


def test_mixed_asymptotic_error_scales_inverse_square():
    base = dict(d=2, delta=0.1, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    errs = []
    for lam in (50.0, 100.0, 200.0):
        p = ModelParams(lam=lam, **base)
        x = fixed_point_mixed(p, 0, 1)
        exact = hjb_mixed_exact(p, 0, 1, x)
        errs.append(np.max(np.abs(exact.g - mixed_asymptotic_values(p, 0, 1, x)[1])))
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 4 / 1.5 <= ratio <= 4 * 1.5


def test_mixed_first_order_degenerates_at_zero_discount():
    p = ModelParams(d=2, lam=100.0, delta=0.0, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                    beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    fo, _ = mixed_first_order(p, 0, 1, fixed_point_mixed(p, 0, 1))
    assert fo.det[0] == 0.0  # values blow up like 1/delta
    assert abs(fo.cross_margin_I[0]) <= 1e-10
    assert abs(fo.cross_margin_S[0]) <= 1e-10


def test_mixed_first_order_symmetric_boundary():
    # w_I equal, q_plus equal, effective infection rates equal (beta = 0,
    # q_minus equal): the first cross condition sits exactly on its boundary
    p = ModelParams(d=2, lam=100.0, delta=0.3, q_plus=[0.5, 0.5], q_minus=[0.4, 0.4],
                    beta=np.zeros((2, 2)), w_I=[2.0, 2.0], w_S=[1.0, 1.5])
    # beta = 0, so q~ is q_minus
    fo, _ = mixed_first_order(p, 0, 1, fixed_point_mixed(p, 0, 1))
    assert abs(fo.cross_margin_I[0]) <= 1e-12


# ---------------------------------------------------------------------------
# consistency_mixed


def test_mixed_consistency_displayed_inequality_arithmetic(p0):
    cm = mixed_margins(p0, 0, 1)
    # q_minus_2 (w_I_2 - w_I_1) + w_S_2 (q_plus_2 - q_plus_1) = 0.3 + 0.25
    assert cm.small_interaction_margin_I[1] == pytest.approx(0.55, abs=1e-12)


def test_mixed_consistency_identical_strategies_zero_margins():
    p = ModelParams(d=2, lam=50.0, delta=0.2, q_plus=[0.7, 0.7], q_minus=[0.4, 0.4],
                    beta=[[0.1, 0.1], [0.1, 0.1]], w_I=[2.0, 2.0], w_S=[1.0, 1.0])
    cm = mixed_margins(p, 0, 1)
    assert np.max(np.abs(cm.margin_I)) <= 1e-12
    assert np.max(np.abs(cm.margin_S)) <= 1e-12
    assert cm.degenerate


def test_mixed_consistency_sign_agreement_large_lam_small_delta():
    p = ModelParams(d=2, lam=1e4, delta=1e-3, q_plus=[0.5, 0.6], q_minus=[0.5, 0.3],
                    beta=[[0.2, 0.05], [0.05, 0.05]], w_I=[2.0, 3.0], w_S=[1.0, 2.5])
    cm = mixed_margins(p, 0, 1)
    assert np.sign(cm.margin_I[1]) == np.sign(cm.asymptotic_margin_I[1])
    assert np.sign(cm.margin_S[0]) == np.sign(cm.asymptotic_margin_S[0])


# ---------------------------------------------------------------------------
# enumerate_equilibria


def test_enumerate_d1_always_single():
    p = ModelParams(d=1, lam=2.0, delta=0.3, q_plus=[0.5], q_minus=[0.4],
                    beta=[[0.1]], w_I=[2.0], w_S=[1.0])
    res = enumerate_equilibria(p)
    assert len(res.reports) == 1
    assert len(res.equilibria) == 1
    assert res.equilibria[0].control == StationaryControl.single(1, 0)


def test_enumerate_p0_contains_single_one(p0):
    res = enumerate_equilibria(p0)
    labels = [s.control.label() for s in res.equilibria]
    assert "single(1)" in labels
    assert len(res.reports) == 4  # d^2 candidates
    for sol in res.equilibria:
        br, _ = best_response(sol.g)
        assert br == sol.control
        assert sol.residual <= 1e-8
        assert consistency_residual(p0, sol.x_star, sol.g, sol.control) <= 1e-8


def test_enumerate_symmetric_all_degenerate():
    p = ModelParams(d=2, lam=50.0, delta=0.2, q_plus=[0.7, 0.7], q_minus=[0.4, 0.4],
                    beta=[[0.1, 0.1], [0.1, 0.1]], w_I=[2.0, 2.0], w_S=[1.0, 1.0])
    res = enumerate_equilibria(p)
    assert len(res.equilibria) >= 2
    assert all(sol.degenerate for sol in res.equilibria)


def test_enumerate_finds_mixed_equilibrium():
    # strategy 1 is cheap while infected, strategy 2 cheap while susceptible:
    # the accepted stationary solution is the mixed control [1(I), 2(S)]
    p = ModelParams(
        d=2, lam=38.709887, delta=0.155832,
        q_plus=[0.8621620750563534, 0.527359309095329],
        q_minus=[0.6396749501384476, 0.22204729059445472],
        beta=[[0.07535131086748066, 0.053814331321927825],
              [0.03297317164990922, 0.07884287034284043]],
        w_I=[1.1839014310600735, 5.2286106351258095],
        w_S=[1.0118216247002567, 0.3826622937140774],
    )
    res = enumerate_equilibria(p)
    mixed = [s for s in res.equilibria if s.control.is_mixed]
    assert len(mixed) == 1
    sol = mixed[0]
    assert sol.control == StationaryControl.mixed(2, 0, 1)
    assert not sol.degenerate and sol.margins.min_margin > 1e-3
    assert sol.stability.stable
    assert sol.stability.xi_principal is None
    br, tie = best_response(sol.g)
    assert br == sol.control and not tie


def test_enumerate_deterministic_order(p0):
    r1 = enumerate_equilibria(p0)
    r2 = enumerate_equilibria(p0)
    assert [r.control.label() for r in r1.reports] == [r.control.label() for r in r2.reports]
    keys = [r.control.sort_key() for r in r1.reports]
    assert keys == sorted(keys)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_enumerate_reports_in_candidate_pairs_order(d):
    # equilibria.json takes each report's control block from candidate_pairs
    p = random_params(np.random.default_rng(2700 + d), d)
    pairs = [r.control.as_pair() for r in enumerate_equilibria(p).reports]
    assert pairs == list(zip(*(a.tolist() for a in stationary.candidate_pairs(d))))


def assert_mixed_states_on_simplex(p):
    """Every mixed candidate of p has its fixed point on the simplex."""
    for i in range(p.d):
        for k in range(p.d):
            if k != i:
                x = fixed_point_mixed(p, i, k).x  # MixedState also checks both
                assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= SIMPLEX_TOL


def test_enumerate_huge_self_interaction_solves_mixed_candidates(p0):
    # with beta_22 = 1e8 a damped Newton left the simplex for both mixed
    # candidates; the bracketed root solves both, and they are rejected on
    # their margins.  single(2) has b < 0 in its quadratic, and its
    # infected share 1 - 6e-9 must survive the root formula
    beta = np.array(p0.beta)
    beta[1, 1] = 1e8
    p = dataclasses.replace(p0, beta=beta)
    res = enumerate_equilibria(p)
    assert len(res.reports) == 4
    by_label = {r.control.label(): r for r in res.reports}
    assert by_label["mixed(1,2)"].status == "rejected"
    assert by_label["mixed(2,1)"].status == "rejected"
    assert_mixed_states_on_simplex(p)
    assert by_label["single(1)"].status == "accepted"
    assert by_label["single(2)"].status != "failed"
    x_star, _ = fixed_point_single(p, 1)
    assert abs(x_star - oracle_xstar(p, 1)) <= 1e-12


def test_enumerate_accepts_single_at_large_lambda_small_discount():
    # |g| ~ 1/delta = 1e4 and lam = 1e4: the residual of the true single(1)
    # equilibrium rounds to about 2.3e-8, above the absolute 1e-8
    p = ModelParams(d=3, lam=1e4, delta=1e-4, q_plus=[0.5, 0.6, 0.7], q_minus=[0.3, 0.5, 0.2],
                    beta=[[0.2, 0.05, 0.05], [0.05, 0.05, 0.05], [0.05, 0.05, 0.05]],
                    w_I=[2.0, 3.0, 4.0], w_S=[1.0, 0.88, 3.5])
    res = enumerate_equilibria(p)
    by_label = {r.control.label(): r for r in res.reports}
    assert by_label["single(1)"].status == "accepted"
    assert by_label["single(1)"].min_margin > 0
    assert "single(1)" in [s.control.label() for s in res.equilibria]


def test_enumerate_huge_lambda_spectra_within_rate_roundoff():
    # a dense eigen-solve rounds at about eps * lam: at lam = 1e10 it differs
    # from the block spectrum of either single candidate by 3.8e-6, which is
    # not a failure of the candidate
    p = ModelParams(**{**P0, "lam": 1e10})
    res = enumerate_equilibria(p)
    by_label = {r.control.label(): r for r in res.reports}
    assert len(by_label) == 4
    assert [r.detail for r in res.reports if r.status == "failed"] == []
    assert by_label["single(1)"].status == "accepted"
    assert "single(1)" in [s.control.label() for s in res.equilibria]
    for i in range(2):
        x_star, state = fixed_point_single(p, i)
        rep = stability_single(p, i, x_star)
        assert single_dense_gap(p, i, state, rep) <= 64 * np.finfo(float).eps * p.lam


def test_each_mixed_candidate_solved_once(p0, monkeypatch):
    # the kernel's mixed bisection and mixed value solve see every mixed
    # candidate exactly once (counted in pairs, as they take whole blocks)
    calls = {"_mixed_shares": 0, "_values_mixed": 0}

    def counted(name):
        fn = getattr(stationary, name)

        def wrapper(s, i, *args, **kwargs):
            calls[name] += i.size
            return fn(s, i, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(stationary, name, counted(name))
    res = enumerate_equilibria(p0)
    n_mixed = sum(1 for r in res.reports if r.control.is_mixed)
    assert n_mixed == 2
    assert calls == {"_mixed_shares": n_mixed, "_values_mixed": n_mixed}


def test_wide_draws_every_mixed_candidate_solved_on_simplex():
    # lam log-uniform in [0.1, 1e9], delta in [1e-8, 10], beta up to 100,
    # d <= 6: a damped Newton left the simplex for 77 of these 3334 mixed
    # candidates; every one has a bracketed stationary state
    rng = np.random.default_rng(2026)
    n_mixed = 0
    for _ in range(300):
        d = int(rng.integers(1, 7))
        w_S = rng.uniform(0.0, 4.0, d)
        p = ModelParams(d=d, lam=float(10 ** rng.uniform(-1, 9)),
                        delta=float(10 ** rng.uniform(-8, 1)),
                        q_plus=rng.uniform(0.05, 2.0, d), q_minus=rng.uniform(0.05, 2.0, d),
                        beta=rng.uniform(0.0, 100.0, (d, d)),
                        w_I=w_S + rng.uniform(0.1, 3.0, d), w_S=w_S)
        sol = solve_points(ParamStack.tile(p))
        assert_accepted_are_best_responses(sol)
        mix = np.flatnonzero(sol.i != sol.k)
        n_mixed += mix.size
        assert not np.any(sol.status[mix] == stationary.FAILED), [sol.detail(r) for r in mix]
        x, s = sol.x[mix], ParamStack.tile(p, mix.size)
        assert np.all(x >= 0.0) and np.all(np.abs(x.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
        defect = np.abs(stationary._generator(s, sol.i[mix], sol.k[mix]).forward(x)).max(axis=1)
        assert np.all(defect <= 4.0 * s.rate_roundoff()), (p, defect.max())
    assert n_mixed == 3334


def assert_accepted_are_best_responses(sol):
    """Every accepted pair's (i, k) is the argmin of g in both compartments,
    or the pair is degenerate (a margin within TIE_TOL of zero)."""
    acc = np.flatnonzero(sol.status == stationary.ACCEPTED)
    argmin = (np.argmin(sol.g[acc, 0::2], axis=1) == sol.i[acc]) & (
        np.argmin(sol.g[acc, 1::2], axis=1) == sol.k[acc]
    )
    assert np.all(argmin | sol.degenerate[acc])


def test_vanishing_discount_fails_every_candidate_as_report(p0):
    # at delta = 1e-310 the values overflow and the mixed 2x2 determinant
    # underflows to zero: every candidate is a failed report, with no
    # exception and no floating-point warning
    p = dataclasses.replace(p0, delta=1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = enumerate_equilibria(p).reports
        sol = solve_points(ParamStack.tile(p))
    finite = "value vector entries must be finite"
    assert [(r.status, r.detail) for r in reports] == [("failed", finite)] * 4
    assert np.all(sol.status == stationary.FAILED)
    assert [sol.detail(r) for r in range(4)] == [finite] * 4


def test_spectrum_failure_becomes_report(p0, monkeypatch):
    # a LAPACK error in one candidate's spectrum fails that candidate alone
    expected = enumerate_equilibria(p0).reports
    eigvals = np.linalg.eigvals
    calls = []

    def flaky(a):
        calls.append(np.ndim(a))
        if np.ndim(a) == 3 or calls.count(2) == 1:  # the batch, then mixed(1,2)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    reports = enumerate_equilibria(p0).reports
    assert [r.control.label() for r in reports] == ["single(1)", "mixed(1,2)", "mixed(2,1)",
                                                     "single(2)"]
    assert (reports[1].status, reports[1].detail) == ("failed", "Eigenvalues did not converge")
    assert reports[1].min_margin is None and reports[1].residual is None
    assert reports[:1] + reports[2:] == expected[:1] + expected[2:]


# ---------------------------------------------------------------------------
# batched kernel against the per-candidate oracle


#: details with which the oracle's mixed Newton raised
ORACLE_NEWTON_FAILURES = ("mixed fixed point", "Singular matrix")
NUMBER = re.compile(r"-?\d\.\d+e[-+]\d+")


def assert_matches_oracle(p, spectrum_tol=1e-10):
    """Same statuses and details as the pre-kernel loop (the numbers in a
    mixed candidate's detail may differ in their last digit), other numbers
    to 1e-12 of the value scale, and spectra of accepted candidates (against
    the dense and, for the single family, the closed-form reference) to
    spectrum_tol.  Single candidates have bitwise equal x and g; mixed
    ones, whose fixed point the oracle finds by Newton to a residual of
    1e-12, x to 1e-11 and g to 1e-12 of the value scale.  Where the
    oracle's Newton raised, the kernel must solve the candidate."""
    res = enumerate_equilibria(p)
    rows = solve_points(ParamStack.tile(p))
    assert_accepted_are_best_responses(rows)
    expected = oracle_enumerate(p)
    assert [r.control for r in res.reports] == [e["control"] for e in expected]
    for r, (rep, exp) in enumerate(zip(res.reports, expected)):
        if exp["detail"].startswith(ORACLE_NEWTON_FAILURES):
            assert rep.status != "failed", rep.detail
            continue
        assert rep.status == exp["status"]
        if rep.control.is_mixed:
            assert NUMBER.sub("#", rep.detail) == NUMBER.sub("#", exp["detail"])
        else:
            assert rep.detail == exp["detail"]
        if exp["solution"] is None:
            assert rep.min_margin is None and rep.residual is None
            continue
        ref = exp["solution"]
        scale = max(1.0, float(np.max(np.abs(ref["g"]))))
        assert rep.min_margin == pytest.approx(exp["min_margin"], rel=0, abs=1e-12 * scale)
        assert rep.residual == pytest.approx(exp["residual"], rel=0, abs=1e-12 * scale)
        if rep.control.is_single:
            assert np.array_equal(rows.x[r], ref["x"]) and np.array_equal(rows.g[r], ref["g"])
        else:
            assert np.max(np.abs(rows.x[r] - ref["x"])) <= 1e-11
            assert np.max(np.abs(rows.g[r] - ref["g"])) <= 1e-12 * scale
    accepted = [e for e in expected if e["status"] == "accepted"]
    assert [s.control for s in res.equilibria] == [e["control"] for e in accepted]
    for sol, exp in zip(res.equilibria, accepted):
        ref = exp["solution"]
        assert np.max(np.abs(sol.stability.spectrum - ref["numerical"])) <= spectrum_tol
        assert sol.stability.max_real_part == pytest.approx(
            ref["max_real_part"], rel=0, abs=spectrum_tol
        )
        if ref["closed_form"] is not None:
            assert np.max(np.abs(sol.stability.spectrum - ref["closed_form"])) <= spectrum_tol
        assert sol.degenerate == ref["degenerate"]
    return res


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_kernel_matches_oracle_random_draws(d):
    rng = np.random.default_rng(100 + d)
    statuses = set()
    for _ in range(12 if d <= 3 else 4):
        res = assert_matches_oracle(random_params(rng, d))
        statuses.update(r.status for r in res.reports)
    assert "accepted" in statuses and (d == 1 or "rejected" in statuses)


def test_kernel_matches_oracle_failed_candidates(p0):
    beta = np.array(p0.beta)
    beta[1, 1] = 1e8
    p = dataclasses.replace(p0, beta=beta)
    assert [e["status"] for e in oracle_enumerate(p)].count("failed") == 2
    res = assert_matches_oracle(p)
    assert [r.status for r in res.reports if r.control.is_mixed] == ["rejected"] * 2
    assert_mixed_states_on_simplex(p)


def test_kernel_matches_oracle_huge_lambda():
    # the dense reference itself rounds at about eps * lam here
    p = ModelParams(**{**P0, "lam": 1e10})
    assert_matches_oracle(p, spectrum_tol=max(1e-10, _oracle_rate_roundoff(p)))


def test_mixed_tie_not_rejected_on_value_residual():
    # at lam = 1e10 mixed(2,1) sits on its boundary (g(2I) - g(1I) = 8.4e-11):
    # the value defect under the explicit minimum multiplied that tie-level
    # gap by lam (residual 0.84); under the candidate's own control it is a
    # roundoff-level 5e-5 and the gap stays a term of its own
    p = ModelParams(**{**P0, "lam": 1e10})
    u = StationaryControl.mixed(2, 1, 0)
    by_label = {r.control.label(): r for r in enumerate_equilibria(p).reports}
    assert not by_label["mixed(2,1)"].detail.startswith("residual")
    sol = stationary.solve_candidate(p, u)
    assert consistency_residual(p, sol.x_star, sol.g, u) <= 1e-3
    assert sol.residual == consistency_residual(p, sol.x_star, sol.g, u)


def test_scalar_views_equal_kernel_rows(p0):
    # the one-pair views and the batched kernel share every piece
    res = enumerate_equilibria(p0)
    for sol in res.equilibria:
        i, k = sol.control.as_pair()
        one = stationary.solve_candidate(p0, sol.control)
        assert np.array_equal(one.x_star.x, sol.x_star.x) and np.array_equal(one.g.g, sol.g.g)
        assert np.array_equal(one.stability.spectrum, sol.stability.spectrum)
        margins = (consistency_single(p0, i, sol.x_star.x[2 * i], sol.g) if i == k
                   else consistency_mixed(p0, i, k, sol.x_star, sol.g))
        for name in ("margin_I", "margin_S", "asymptotic_margin_I", "asymptotic_margin_S",
                     "small_interaction_margin_I", "small_interaction_margin_S"):
            assert np.array_equal(getattr(margins, name), getattr(sol.margins, name))


def assert_solved_pairs_match_dense(p):
    """Every solved pair's spectrum, accepted or rejected, equals the dense
    reference at its fixed point to 1e-10; returns the (mixed, status) seen."""
    sol = solve_points(ParamStack.tile(p))
    controls = stationary.candidate_controls(p.d)
    seen = set()
    for r in np.flatnonzero(sol.status != stationary.FAILED):
        dense = _oracle_spectrum(p, controls[r], sol.x[r])
        assert np.max(np.abs(sol.spectrum[r] - dense)) <= 1e-10
        assert sol.max_real_part[r] == pytest.approx(dense.real.max(), rel=0, abs=1e-10)
        seen.add((controls[r].is_mixed, stationary.STATUS_NAMES[sol.status[r]]))
    return seen


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_every_solved_pair_matches_dense_spectrum(d):
    rng = np.random.default_rng(300 + d)
    seen = set()
    for _ in range(10):
        seen |= assert_solved_pairs_match_dense(random_params(rng, d))
    families = (False,) if d == 1 else (False, True)
    statuses = ("accepted",) if d == 1 else ("accepted", "rejected")
    assert {(mixed, status) for mixed in families for status in statuses} <= seen


def test_mixed_pair_with_six_empty_strategies_matches_dense_spectrum():
    seen = assert_solved_pairs_match_dense(random_params(np.random.default_rng(308), 8))
    assert (True, "rejected") in seen


def test_kernel_eigen_solves_are_at_most_3x3(monkeypatch):
    # a candidate's spectrum comes from its block-triangular Jacobian, so no
    # dense (2d-1) x (2d-1) eigen-solve runs in the kernel
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(np.shape(a)[-2:])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    res = enumerate_equilibria(random_params(np.random.default_rng(406), 6))
    assert len(res.reports) == 36
    assert shapes and max(max(shape) for shape in shapes) <= 3


#: the d = 3 model of the sweep benchmark: across (lambda, delta) its
#: equilibrium set moves between single(1), mixed(1,2) and both
SWEEP_D3 = dict(d=3, lam=100.0, delta=0.1, q_plus=[0.5, 0.6, 0.7], q_minus=[0.3, 0.5, 0.2],
                beta=[[0.2, 0.05, 0.05], [0.05, 0.05, 0.05], [0.05, 0.05, 0.05]],
                w_I=[2.0, 3.0, 4.0], w_S=[1.0, 0.88, 3.5])


def oracle_single_margin(p, i):
    """Smallest best-response margin of single(i) and the value scale, from
    the bisection root and the dense value solve."""
    x = np.zeros(2 * p.d)
    x[2 * i] = oracle_xstar(p, i)
    x[2 * i + 1] = 1.0 - x[2 * i]
    g = oracle_stationary_values(p, StationaryControl.single(p.d, i), MixedState(x))
    off = np.concatenate([np.delete(g[0::2] - g[2 * i], i), np.delete(g[1::2] - g[2 * i + 1], i)])
    return (off.min() if off.size else np.inf), max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("base", [P0, SWEEP_D3], ids=["P0", "sweep_d3"])
def test_regimes_small_discount_large_lambda(base):
    # delta in [1e-8, 1] x lam in [1, 1e6], the paper's small-discount and
    # large-lam regimes, in one kernel call: no candidate fails, and every
    # single(i) whose oracle margin is clear of the roundoff band is accepted
    p = ModelParams(**base)
    axes = (SweepAxis("lambda", tuple(np.logspace(0.0, 6.0, 13))),
            SweepAxis("delta", tuple(np.logspace(-8.0, 0.0, 17))))
    points, stack = sweep_grid(p, axes)
    sol = solve_points(stack)
    assert not np.any(sol.status == stationary.FAILED), [
        sol.detail(r) for r in np.flatnonzero(sol.status == stationary.FAILED)
    ]
    n_c, checked = p.d * p.d, 0
    for n, (lam, delta) in enumerate(points):
        q = ModelParams(**{**base, "lam": lam, "delta": delta})
        for i in range(p.d):
            margin, scale = oracle_single_margin(q, i)
            if margin > 1e-9 * scale:
                checked += 1
                r = n * n_c + i * p.d + i
                assert sol.status[r] == stationary.ACCEPTED, (lam, delta, i, sol.detail(r))
    assert checked > len(points) // 3  # 155 (P0) and 101 (sweep_d3) of 221 points


# ---------------------------------------------------------------------------
# rates at the float limit and strategy indices out of range

SRC = Path(__file__).resolve().parent.parent / "src"
#: P0 with q_plus[1] or beta[1][1] (1-based) at 1e308: the bracket of the
#: mixed(1,2) bisection is NaN
NAN_BRACKET = {"q_plus": [1e308, 0.6], "beta": [[1e308, 0.05], [0.05, 0.05]]}


def _bounded(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter, which must finish within a
    minute (a hang fails here instead of stalling the suite) and print no
    RuntimeWarning."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "always::RuntimeWarning", "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0 and "RuntimeWarning" not in done.stderr, done.stderr
    return done.stdout


@pytest.mark.parametrize("key", sorted(NAN_BRACKET))
def test_non_finite_bracket_fails_its_pairs_without_hanging(key):
    params = {**P0, key: NAN_BRACKET[key]}
    code = (
        "import json\n"
        "from sismfg import ModelParams, enumerate_equilibria\n"
        f"reports = enumerate_equilibria(ModelParams(**{params!r})).reports\n"
        "print(json.dumps([[r.control.label(), r.status, r.detail] for r in reports]))\n"
    )
    reports = {label: (status, detail) for label, status, detail in json.loads(_bounded(code))}
    assert reports["mixed(1,2)"] == ("failed", "state entries must be finite")
    # the single(1) root overflows at beta[1][1] = 1e308 too
    single = reports["single(1)"]
    assert single == (("failed", "state entries must be finite") if key == "beta"
                      else ("accepted", "equilibrium"))


def test_sweep_through_non_finite_bracket_returns(tmp_path):
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from sismfg import run_scenario\n"
        "from sismfg.config import parse_config_dict\n"
        "data = json.loads(Path(sys.argv[1]).read_text())\n"
        "data['sweep']['axes'] = [{'path': 'q_plus[1]', 'values': [0.5, 1e308]}]\n"
        "print(run_scenario(parse_config_dict(data), Path(sys.argv[2])).n_succeeded)\n"
    )
    config = SRC.parent / "configs" / "sweep_beta11.json"
    assert _bounded(code, str(config), str(tmp_path)).split() == ["2"]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0.5", "ok", "1"], ["1e+308", "ok", "1"]]


def test_overflowing_single_root_refused_as_state(p0):
    # at q_minus[1] = 1e308 the share's root is NaN: the one-pair view refuses the
    # state, without a floating-point warning, and the kernel fails that pair
    p = dataclasses.replace(p0, q_minus=np.array([1e308, 0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="state entries must be finite"):
            fixed_point_single(p, 0)
        reports = enumerate_equilibria(p).reports
    assert (reports[0].status, reports[0].detail) == ("failed", "state entries must be finite")


@pytest.mark.parametrize("view, args", [
    (fixed_point_single, (-1,)), (fixed_point_single, (2,)),
    (fixed_point_mixed, (0, -1)), (fixed_point_mixed, (2, 0)),
    (hjb_single_exact, (-1, 0.5)), (stationary_anchor, (2,)),
    (stability_single, (-2, 0.5)), (consistency_single, (-1, 0.5, None)),
], ids=lambda v: getattr(v, "__name__", None))
def test_one_pair_views_refuse_strategy_out_of_range(p0, view, args):
    # numpy would wrap a negative index onto the last strategies
    with pytest.raises(ValueError, match=r"strategy index -?\d+ is not in \[0, 2\)"):
        view(p0, *args)
