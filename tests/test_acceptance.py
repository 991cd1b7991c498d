"""Acceptance suite: ten oracle-backed criteria at pinned tolerances.

Each criterion is one test that prints a single [PASS]/[FAIL] line with its
measured numbers (run pytest with -s to see them all).  Tolerances are
fixed here, not calibrated: a failing line means the implementation (or the
stated bound) genuinely misses the mark.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sismfg import (
    CountVector,
    MixedState,
    StationaryControl,
    TimeGrid,
    TurnpikeHypothesisError,
    ValueVector,
    best_response,
    integrate_forward,
    lln_error,
    simulate_ctmc,
    solve_turnpike,
)
from sismfg.config import parse_config_dict
from sismfg.dynamics import MID_WINDOW_TRIM
from sismfg.model import ModelParams
from sismfg.runs import run_scenario
from sismfg.stationary import (
    consistency_single,
    enumerate_equilibria,
    fixed_point_mixed,
    fixed_point_single,
    hjb_mixed_exact,
    hjb_single_exact,
    stability_single,
)
from sismfg.model import kinetic_rhs

from conftest import (
    P0,
    _oracle_spectrum,
    mixed_asymptotic_values,
    mixed_first_order,
    oracle_gap_closed_form,
    oracle_share_quadratic,
    random_params,
)

N_DRAWS = 1000
SINGLE1 = StationaryControl.single(2, 0)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def p0():
    return ModelParams(**P0)


@pytest.fixture(scope="module")
def draw_certificates():
    """One sweep over the random admissible draws, shared by criteria 1-2."""
    rng = np.random.default_rng(20240817)
    worst = {
        "quadratic": 0.0,
        "kinetic_single": 0.0,
        "kinetic_mixed": 0.0,
        "spectrum_gap": 0.0,
        "max_real": -np.inf,
        "identity_violations": 0,
        "failures": 0,
    }
    for _ in range(N_DRAWS):
        p = random_params(rng)
        for i in range(p.d):
            x_star, state = fixed_point_single(p, i)
            a, b, c = oracle_share_quadratic(p, i)
            worst["quadratic"] = max(
                worst["quadratic"], abs(a * x_star * x_star + b * x_star + c)
            )
            rhs = kinetic_rhs(p, state, StationaryControl.single(p.d, i))
            worst["kinetic_single"] = max(worst["kinetic_single"], np.max(np.abs(rhs)))
            rep = stability_single(p, i, x_star)
            dense = _oracle_spectrum(p, StationaryControl.single(p.d, i), state.x)
            worst["spectrum_gap"] = max(worst["spectrum_gap"], np.max(np.abs(rep.spectrum - dense)))
            worst["max_real"] = max(worst["max_real"], rep.max_real_part)
            for k in range(p.d):
                if k == i:
                    continue
                try:
                    x = fixed_point_mixed(p, i, k)
                except ValueError:  # the state left the simplex
                    worst["failures"] += 1
                    continue
                if x.x_I(k) != x.x_S(i):
                    worst["identity_violations"] += 1
                rhs = kinetic_rhs(p, x, StationaryControl.mixed(p.d, i, k))
                worst["kinetic_mixed"] = max(worst["kinetic_mixed"], np.max(np.abs(rhs)))
    return worst


def test_criterion_01_fixed_point_certificates(draw_certificates):
    w = draw_certificates
    ok = (
        w["quadratic"] <= 1e-12
        and w["kinetic_single"] <= 1e-10
        and w["kinetic_mixed"] <= 1e-10
        and w["identity_violations"] == 0
        and w["failures"] == 0
    )
    detail = (
        f"{N_DRAWS} draws: max |Q(x*)| {w['quadratic']:.2e}, "
        f"max kinetic residual single {w['kinetic_single']:.2e} / "
        f"mixed {w['kinetic_mixed']:.2e}, "
        f"identity violations {w['identity_violations']}, solver failures {w['failures']}"
    )
    assert report("criterion 1 fixed-point certificates", ok, detail), detail


def test_criterion_02_single_family_always_stable(draw_certificates):
    w = draw_certificates
    ok = w["max_real"] < 0.0 and w["spectrum_gap"] <= 1e-8
    detail = (
        f"{N_DRAWS} draws: max eigenvalue real part {w['max_real']:.6f}, "
        f"worst gap to the dense reference spectrum {w['spectrum_gap']:.2e}"
    )
    assert report("criterion 2 always-stable single family", ok, detail), detail


def test_criterion_03_asymptotic_order():
    base = {k: v for k, v in P0.items() if k != "lam"}
    errs_single, errs_mixed = [], []
    struct_exact = True
    for lam in (50.0, 100.0, 200.0):
        p = ModelParams(lam=lam, **base)
        # the exact margins g(j .) - g(1 .) against their first-order prediction
        x_star, _ = fixed_point_single(p, 0)
        cm = consistency_single(p, 0, x_star, hjb_single_exact(p, 0, x_star))
        errs_single.append(max(np.max(np.abs(cm.margin_I - cm.asymptotic_margin_I / lam)),
                               np.max(np.abs(cm.margin_S - cm.asymptotic_margin_S / lam))))
        x = fixed_point_mixed(p, 0, 1)
        g0, g_asym = mixed_asymptotic_values(p, 0, 1, x)
        errs_mixed.append(np.max(np.abs(hjb_mixed_exact(p, 0, 1, x).g - g_asym)))
        struct_exact &= (g0[1] == g0[3]) and (g0[0] == g0[2])
    ratios = [
        errs_single[0] / errs_single[1],
        errs_single[1] / errs_single[2],
        errs_mixed[0] / errs_mixed[1],
        errs_mixed[1] / errs_mixed[2],
    ]
    ok = all(2.67 <= r <= 6.0 for r in ratios) and struct_exact
    detail = (
        f"error ratios per lam doubling {['%.2f' % r for r in ratios]} "
        f"(window [2.67, 6.0]), leading-order equalities exact: {struct_exact}"
    )
    assert report("criterion 3 asymptotic order", ok, detail), detail


def test_criterion_04_zero_discount_degeneracy():
    worst = 0.0
    cases = [ModelParams(**{**P0, "delta": 0.0})]
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_params(rng, d=2)
        cases.append(
            ModelParams(d=2, lam=q.lam, delta=0.0, q_plus=q.q_plus, q_minus=q.q_minus,
                        beta=q.beta, w_I=q.w_I, w_S=q.w_S)
        )
    for p in cases:
        x = fixed_point_mixed(p, 0, 1)
        fo, _ = mixed_first_order(p, 0, 1, x)
        worst = max(worst, abs(fo.cross_margin_I[0]), abs(fo.cross_margin_S[0]))
    ok = worst <= 1e-10
    detail = f"max |first-order cross margin| at delta=0 over {len(cases)} cases: {worst:.2e}"
    assert report("criterion 4 zero-discount degeneracy", ok, detail), detail


def test_criterion_05_consistency_closure(p0):
    result = enumerate_equilibria(p0)
    labels = [s.control.label() for s in result.equilibria]
    closure = True
    worst_residual = 0.0
    for sol in result.equilibria:
        br, _ = best_response(sol.g)
        closure &= br == sol.control
        worst_residual = max(worst_residual, sol.residual)
    ok = closure and worst_residual <= 1e-8 and "single(1)" in labels
    detail = (
        f"equilibria {labels}, best-response closure {closure}, "
        f"max residual {worst_residual:.2e}"
    )
    assert report("criterion 5 consistency closure", ok, detail), detail


TURNPIKE_X0 = MixedState.uniform(2)
# Envelope factor over the linear prediction C e^{-omega t}: the logistic
# curvature of the slow mode adds 1/(1 - beta_11 C / omega) ~ 1.01 and the
# O(1/lam) shift of the slow mode during the fast collapse about 1.02.
TURNPIKE_K = 1.1
# The quadratic term moves the local decay rate by beta_11 |x - x*| / omega
# ~ 6e-5 (relative) over the fit, far below this and 100x below a 0.9 omega rate.
TURNPIKE_RATE_RTOL = 1e-3
# Fit nodes stop at this deviation, above the RK4 round-off floor (~1e-13).
TURNPIKE_FIT_FLOOR = 1e-8


def turnpike_estimate(times, dev, sup_mid, t_lo, omega, amp):
    """Check the exponential turnpike estimate |x(t) - x*| <= K amp e^{-omega t}.

    dev is max_k |x_k(t) - x*_k| at each node.  Returns (envelope_ok,
    rate_ok, bound, slope): sup_mid against K amp e^{-omega t_lo}, and the
    least-squares log-slope of dev over nodes with t >= t_lo and dev above
    TURNPIKE_FIT_FLOOR against -omega.
    """
    bound = TURNPIKE_K * amp * np.exp(-omega * t_lo)
    fit = (times >= t_lo) & (dev >= TURNPIKE_FIT_FLOOR)
    slope = float(np.polyfit(times[fit], np.log(dev[fit]), 1)[0])
    rate_ok = abs(slope + omega) <= TURNPIKE_RATE_RTOL * omega
    return sup_mid <= bound, rate_ok, bound, slope


def turnpike_constants(p: ModelParams):
    """Decay rate omega of the slow mode and its amplitude C after the collapse.

    The fast collapse moves agents to strategy 1 without changing their
    compartment, so the slow mode starts at C = |sum_j x0_jI - x*_I|.
    """
    x_star, _ = fixed_point_single(p, 0)
    omega = -stability_single(p, 0, x_star).xi_principal
    return omega, abs(float(TURNPIKE_X0.infected.sum()) - x_star)


@pytest.fixture(scope="module")
def turnpike_run(p0):
    x_star, _ = fixed_point_single(p0, 0)
    gT = hjb_single_exact(p0, 0, x_star)
    grid = TimeGrid(0.0, 50.0, 200_000)
    sol = solve_turnpike(p0, 0, TURNPIKE_X0, gT, grid)
    return sol, gT


def test_turnpike_estimate_rejects_slower_decay(p0):
    omega, amp = turnpike_constants(p0)
    times = TimeGrid(0.0, 50.0, 2000).times()
    t_lo = MID_WINDOW_TRIM * 50.0

    def verdict(rate):
        dev = amp * np.exp(-rate * times)
        return turnpike_estimate(times, dev, dev[times >= t_lo].max(), t_lo, omega, amp)[:2]

    assert verdict(omega) == (True, True)
    assert verdict(0.9 * omega) == (False, False)


def test_criterion_06_turnpike(p0, turnpike_run):
    sol, gT = turnpike_run
    flags_ok = bool(sol.cone_ok.all() and sol.argmin_ok.all())
    gap_cf = oracle_gap_closed_form(p0, 0, sol.x_path, gT.g[0] - gT.g[1], sol.grid.h)
    gap_int = sol.g_path[:, 0] - sol.g_path[:, 1]
    gap_err = float(np.max(np.abs(gap_cf - gap_int)))
    omega, amp = turnpike_constants(p0)
    t_lo = sol.stats.window[0]
    dev = np.max(np.abs(sol.x_path - sol.stats.x_star.x), axis=1)
    sup_x = sol.stats.sup_x_mid
    sup_g = sol.stats.sup_g_mid
    envelope_ok, rate_ok, bound, slope = turnpike_estimate(
        sol.grid.times(), dev, sup_x, t_lo, omega, amp
    )
    ok = flags_ok and envelope_ok and rate_ok and sup_g <= 1e-3 and gap_err <= 1e-8
    detail = (
        f"cone+argmin {flags_ok}, sup|x-x*| mid-80% {sup_x:.3e} "
        f"(bound K C e^(-omega t_lo) = {bound:.3e} with K {TURNPIKE_K}, omega {omega:.6f}, "
        f"C {amp:.4f}, t_lo {t_lo:g}), log-slope {slope:.6f} (-omega to rel "
        f"{TURNPIKE_RATE_RTOL:g}), sup|g-g*| mid-80% {sup_g:.3e} (bound 1e-3), "
        f"gap match {gap_err:.3e} (bound 1e-8)"
    )
    assert report("criterion 6 turnpike certification", ok, detail), detail


def test_criterion_07_hypothesis_falsification(p0):
    x_star, _ = fixed_point_single(p0, 0)
    gT = hjb_single_exact(p0, 0, x_star)
    grid = TimeGrid(0.0, 1.0, 100)
    flipped = ModelParams(**{**P0, "q_plus": [0.5, 0.4]})
    named_rate = named_cone = False
    try:
        solve_turnpike(flipped, 0, MixedState.uniform(2), gT, grid)
    except TurnpikeHypothesisError as err:
        named_rate = any("rate-ordering-q-plus(2)" in f for f in err.failures)
    outside = gT.g.copy()
    outside[3] = gT.g[1] - 1.0  # push g(2S) below g(1S): anchor no longer minimal
    try:
        solve_turnpike(p0, 0, MixedState.uniform(2), ValueVector(outside), grid)
    except TurnpikeHypothesisError as err:
        named_cone = any("terminal-cone" in f for f in err.failures)
    ok = named_rate and named_cone
    detail = f"rate-ordering violation named: {named_rate}, cone violation named: {named_cone}"
    assert report("criterion 7 hypothesis falsification", ok, detail), detail


def test_criterion_08_mean_field_limit(p0):
    table = lln_error(
        p0, SINGLE1, MixedState.uniform(2),
        t_end=50.0, N_list=[250, 1000, 4000], replications=50, seed=12345,
    )
    ratios = table.ratios()
    ratios_ok = all(1.25 <= r <= 3.2 for r in ratios)
    x_star, x_fix = fixed_point_single(p0, 0)
    n0 = CountVector.from_fractions(MixedState.uniform(2), 10_000)
    path = simulate_ctmc(p0, n0, SINGLE1, 50.0, seed=777)
    terminal_err = float(np.max(np.abs(path.terminal().n / 10_000 - x_fix.x)))
    ok = ratios_ok and terminal_err <= 0.02
    means = {r.N: f"{r.mean_sup_error:.4f}" for r in table.rows}
    detail = (
        f"mean sup errors {means}, ratios per 4x in N {['%.2f' % r for r in ratios]} "
        f"(window [1.25, 3.2]), N=10^4 terminal error {terminal_err:.4f} (bound 0.02)"
    )
    assert report("criterion 8 mean-field limit", ok, detail), detail


def test_criterion_09_integrator_order(p0):
    x0 = MixedState([0.45, 0.55, 0.0, 0.0])  # slow manifold: no stiff transient
    T = 5.0

    def terminal(n):
        return integrate_forward(p0, x0, SINGLE1, TimeGrid(0.0, T, n))[-1]

    err_h = np.max(np.abs(terminal(50) - terminal(800)))
    err_h2 = np.max(np.abs(terminal(100) - terminal(1600)))
    ratio = float(err_h / err_h2)
    ok = 12.0 <= ratio <= 20.0
    detail = f"terminal-error ratio under step halving {ratio:.2f} (window [12, 20])"
    assert report("criterion 9 integrator order", ok, detail), detail


def test_criterion_10_determinism(tmp_path):
    model_json = {("lambda" if k == "lam" else k): v for k, v in P0.items()}
    scenarios = {
        "equilibria": {"model": dict(model_json), "run": "equilibria", "seed": 5},
        "nplayer": {
            "model": dict(model_json),
            "run": "nplayer",
            "seed": 5,
            "nplayer": {
                "control": {"type": "single", "i": 1},
                "x0": "uniform",
                "t_end": 5.0,
                "n_agents": 500,
            },
        },
        "turnpike": {
            "model": dict(model_json),
            "run": "turnpike",
            "seed": 5,
            "turnpike": {
                "strategy": 1,
                "x0": "uniform",
                "g_terminal": "stationary",
                "grid": {"t_start": 0.0, "t_end": 5.0, "n_steps": 1000},
            },
        },
    }
    identical = True
    for name, data in scenarios.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            run_scenario(parse_config_dict(json.loads(json.dumps(data))), out)
            blobs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(Path(out).iterdir())
                    if f.name != "manifest.json"
                }
            )
        identical &= blobs[0] == blobs[1]
    ok = identical
    detail = f"byte-identical numeric artifacts across reruns: {identical}"
    assert report("criterion 10 determinism", ok, detail), detail
