"""Scenario inputs of the four benchmark workloads, made from a seed.

Each function returns a scenario object in the format ``sismfg solve``
reads.  The same seed gives the same scenario.  The seed moves the inputs
but not the amount of work: grid sizes, sweep shapes, population sizes and
replication counts are fixed, so solve times compare across seeds.
"""

from __future__ import annotations

import numpy as np

#: the reference two-strategy scenario of configs/p0_*.json
P0 = {
    "d": 2,
    "lambda": 100.0,
    "delta": 0.1,
    "q_plus": [0.5, 0.6],
    "q_minus": [0.5, 0.3],
    "beta": [[0.2, 0.05], [0.05, 0.05]],
    "w_I": [2.0, 3.0],
    "w_S": [1.0, 2.5],
}

TURNPIKE_STEPS = 20000
TURNPIKE_T_END = 50.0

#: three strategies; strategy 2 is cheaper while susceptible but under more
#: direct pressure, so single(1), mixed(1,2) and both together all occur
#: across the (lambda, delta) plane
SWEEP_D3_MODEL = {
    "d": 3,
    "lambda": 100.0,
    "delta": 0.1,
    "q_plus": [0.5, 0.6, 0.7],
    "q_minus": [0.3, 0.5, 0.2],
    "beta": [[0.2, 0.05, 0.05], [0.05, 0.05, 0.05], [0.05, 0.05, 0.05]],
    "w_I": [2.0, 3.0, 4.0],
    "w_S": [1.0, 0.88, 3.5],
}
SWEEP_JITTERED = 16
#: the stationarity residual rounds at about eps * lam * |g|, and |g| grows
#: like 1/delta; lambda in [1, 100] and delta in [5e-3, 1] keep every seeded
#: point, and every seeded lambda or delta paired with the corner below, a
#: factor of at least 10 inside the absolute residual tolerance
SWEEP_LAMBDA_RANGE = (1.0, 100.0)
SWEEP_DELTA_RANGE = (5e-3, 1.0)
#: the small-discount corner: every (lambda, delta) pair of these two lists
#: has single(1) as a true equilibrium that the program rejects on its
#: absolute residual tolerance; these points do not depend on the seed
SWEEP_CORNER_LAMBDA = (1e4, 2e4)
SWEEP_CORNER_DELTA = (1e-4, 3e-5)

EQUILIBRIA_D = 20

NPLAYER_T_END = 10.0
NPLAYER_N_LIST = (250, 1000, 4000)
NPLAYER_REPLICATIONS = 16
NPLAYER_N_AGENTS = 10000


def _jitter(rng: np.random.Generator, values, spread: float = 0.03) -> list:
    arr = np.asarray(values, dtype=float)
    return (arr * rng.uniform(1.0 - spread, 1.0 + spread, arr.shape)).tolist()


def turnpike(seed: int) -> dict:
    """P0 with its rates and costs scaled by up to 3 %, on the explicit
    20000-step grid of configs/p0_turnpike.json."""
    rng = np.random.default_rng([seed, 1])
    model = dict(P0)
    for key in ("q_plus", "q_minus", "beta", "w_I", "w_S"):
        model[key] = _jitter(rng, P0[key])
    return {
        "model": model,
        "run": "turnpike",
        "seed": seed,
        "turnpike": {
            "strategy": 1,
            "x0": "uniform",
            "g_terminal": "stationary",
            "grid": {"t_start": 0.0, "t_end": TURNPIKE_T_END, "n_steps": TURNPIKE_STEPS},
        },
    }


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> list:
    return sorted(np.exp(rng.uniform(np.log(lo), np.log(hi), n)).tolist())


def sweep_d3(seed: int) -> dict:
    """(lambda, delta) sweep at d = 3: 16 seeded values per axis plus the
    fixed small-discount corner, 18 x 18 = 324 points."""
    rng = np.random.default_rng([seed, 2])
    lam = _log_uniform(rng, *SWEEP_LAMBDA_RANGE, SWEEP_JITTERED) + list(SWEEP_CORNER_LAMBDA)
    delta = _log_uniform(rng, *SWEEP_DELTA_RANGE, SWEEP_JITTERED) + list(SWEEP_CORNER_DELTA)
    return {
        "model": dict(SWEEP_D3_MODEL),
        "run": "sweep",
        "seed": seed,
        "sweep": {
            "axes": [
                {"path": "lambda", "values": lam},
                {"path": "delta", "values": delta},
            ]
        },
    }


def equilibria_d20(seed: int) -> dict:
    """d = 20: rates and costs ordered along the strategies with 3 % seeded
    jitter; strategy 2 is cheap while susceptible, so mixed(1,2) is the
    equilibrium and all 400 candidates are solved in full."""
    d = EQUILIBRIA_D
    rng = np.random.default_rng([seed, 3])
    s = np.linspace(0.0, 1.0, d)
    q_plus = _jitter(rng, 0.5 + 0.5 * s)
    q_minus = _jitter(rng, 0.5 - 0.3 * s)
    q_minus[1] = _jitter(rng, [0.6])[0]
    beta = (rng.uniform(0.0, 0.05, (d, d)) + 0.15 * np.eye(d)).tolist()
    w_I = _jitter(rng, 2.0 + 2.0 * s)
    w_S = _jitter(rng, 1.0 + 2.5 * s)
    w_S[1] = _jitter(rng, [0.85])[0]
    return {
        "model": {
            "d": d,
            "lambda": 100.0,
            "delta": 0.1,
            "q_plus": q_plus,
            "q_minus": q_minus,
            "beta": beta,
            "w_I": w_I,
            "w_S": w_S,
        },
        "run": "equilibria",
        "seed": seed,
    }


def nplayer(seed: int) -> dict:
    """Criterion-8 shape on P0: LLN replications at N = 250, 1000, 4000 and
    one N = 10^4 path on the default ODE grid; the seed keys the Philox
    streams."""
    return {
        "model": dict(P0),
        "run": "nplayer",
        "seed": seed,
        "nplayer": {
            "control": {"type": "single", "i": 1},
            "x0": "uniform",
            "t_end": NPLAYER_T_END,
            "n_list": list(NPLAYER_N_LIST),
            "replications": NPLAYER_REPLICATIONS,
            "n_agents": NPLAYER_N_AGENTS,
        },
    }


SCENARIOS = {
    "turnpike": turnpike,
    "sweep-d3": sweep_d3,
    "equilibria-d20": equilibria_d20,
    "nplayer": nplayer,
}
