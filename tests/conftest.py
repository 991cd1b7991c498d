"""Shared fixtures, random admissible parameter draws, and test-side oracles.

The oracles here are deliberately independent of the library's solution
paths: quadratic roots come from bisection, stationary values from a
generically assembled dense linear solve, Jacobians from central
differences, and reference trajectories from a plain fine-step Euler loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from sismfg import MixedState, ModelParams, StationaryControl

# the reference d=2 scenario used across the suite
P0 = dict(
    d=2,
    lam=100.0,
    delta=0.1,
    q_plus=[0.5, 0.6],
    q_minus=[0.5, 0.3],
    beta=[[0.2, 0.05], [0.05, 0.05]],
    w_I=[2.0, 3.0],
    w_S=[1.0, 2.5],
)

# frozen expectations for P0, strategy 1 (computed from the oracles below)
P0_XSTAR = 0.5495097567963924
P0_XI_PRINCIPAL = -1.0198039027185568
P0_GAP = 0.8265132549596587
P0_G1I = 15.867433725201707
P0_G1S = 15.040920470242048


@pytest.fixture(scope="session")
def p0() -> ModelParams:
    return ModelParams(**P0)


def random_params(rng: np.random.Generator, d: int | None = None) -> ModelParams:
    """A random admissible parameter set at desk scale (lam below 50).

    Absolute bounds of the tests that use it assume rates of this size, as
    roundoff grows with lam: the 1e-14 of ``test_kinetic_mass_conservation``
    and the 1e-8 spectral agreement of
    ``test_stability_spectra_agree_random_draws``, for example.  Tests of
    large lam draw their own parameters.
    """
    if d is None:
        d = int(rng.integers(1, 4))
    w_S = rng.uniform(0.0, 4.0, d)
    return ModelParams(
        d=d,
        lam=float(rng.uniform(0.5, 50.0)),
        delta=float(rng.uniform(0.01, 1.0)),
        q_plus=rng.uniform(0.05, 2.0, d),
        q_minus=rng.uniform(0.05, 2.0, d),
        beta=rng.uniform(0.0, 0.5, (d, d)),
        w_I=w_S + rng.uniform(0.1, 3.0, d),
        w_S=w_S,
    )


def random_state(rng: np.random.Generator, d: int) -> MixedState:
    x = rng.dirichlet(np.ones(2 * d))
    return MixedState(x / x.sum())


def random_control(rng: np.random.Generator, d: int) -> StationaryControl:
    return StationaryControl(rng.integers(0, d, d), rng.integers(0, d, d))


# ---------------------------------------------------------------------------
# oracles


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection root of f on [lo, hi] with f(lo) <= 0 <= f(hi) or reversed."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (flo <= 0) == (f(mid) <= 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_xstar(p: ModelParams, i: int) -> float:
    """Bisection root of the reduced stationary quadratic on (0, 1)."""
    b_ii = float(p.beta[i, i])
    qp, qm = float(p.q_plus[i]), float(p.q_minus[i])
    return bisect_root(lambda y: b_ii * y * y + y * (qp - b_ii + qm) - qm, 0.0, 1.0)


def _dense_rows(p: ModelParams, u: StationaryControl, x: MixedState):
    """Assemble the stationary value system A g = b generically, straight from
    the per-state balance: lam (g(target) - g(state)) + pressure terms + w =
    delta g(state)."""
    d = p.d
    qt = p.q_minus + p.beta.T @ x.infected
    A = np.zeros((2 * d, 2 * d))
    b = np.zeros(2 * d)
    for j in range(d):
        r = 2 * j  # (j, I)
        tI = int(u.target_I[j])
        if tI != j:
            A[r, 2 * tI] += p.lam
            A[r, 2 * j] -= p.lam
        A[r, 2 * j + 1] += p.q_plus[j]
        A[r, 2 * j] -= p.q_plus[j] + p.delta
        b[r] = -p.w_I[j]
        r = 2 * j + 1  # (j, S)
        tS = int(u.target_S[j])
        if tS != j:
            A[r, 2 * tS + 1] += p.lam
            A[r, 2 * j + 1] -= p.lam
        A[r, 2 * j] += qt[j]
        A[r, 2 * j + 1] -= qt[j] + p.delta
        b[r] = -p.w_S[j]
    return A, b


def oracle_stationary_values(p: ModelParams, u: StationaryControl, x: MixedState) -> np.ndarray:
    """Dense linear solve of the stationary value system (generic path)."""
    A, b = _dense_rows(p, u, x)
    return np.linalg.solve(A, b)


def oracle_kinetic_jacobian(p: ModelParams, u: StationaryControl, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the population RHS, column by column.

    The RHS is quadratic in x, so the difference quotient is exact at any
    step; a unit step keeps its roundoff at a few eps times the rates.
    """
    from sismfg.model import kinetic_rhs_fn

    rhs = kinetic_rhs_fn(p, u)
    jac = np.empty((x.size, x.size))
    for m in range(x.size):
        e = np.zeros(x.size)
        e[m] = 1.0
        jac[:, m] = (rhs(x + e) - rhs(x - e)) / 2.0
    return jac


def oracle_euler_path(p: ModelParams, x0: np.ndarray, u: StationaryControl, t_end: float,
                      n_steps: int) -> np.ndarray:
    """Plain forward-Euler terminal state at a fine step (reference flow)."""
    from sismfg.model import kinetic_rhs_fn

    rhs = kinetic_rhs_fn(p, u)
    h = t_end / n_steps
    x = x0.copy()
    for _ in range(n_steps):
        x = x + h * rhs(x)
    return x
