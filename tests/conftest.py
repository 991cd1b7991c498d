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


# ---------------------------------------------------------------------------
# reference jump engine: the per-event loop of the exact-jump simulation as it
# stood before the live channel table, kept verbatim so the library engine
# can be checked bitwise against it (same draws, same float operations)

_ORACLE_RNG_BUFFER = 8192
_KIND_DECISION, _KIND_PRESSURE, _KIND_RECOVERY, _KIND_PEER = range(4)


class _OracleStream:
    """Buffered draws from a counter-based generator."""

    def __init__(self, key):
        self.rng = np.random.Generator(np.random.Philox(key))
        self._exp = self.rng.standard_exponential(_ORACLE_RNG_BUFFER)
        self._uni = self.rng.random(_ORACLE_RNG_BUFFER)
        self._i = 0

    def next_pair(self) -> tuple[float, float]:
        if self._i >= _ORACLE_RNG_BUFFER:
            self._exp = self.rng.standard_exponential(_ORACLE_RNG_BUFFER)
            self._uni = self.rng.random(_ORACLE_RNG_BUFFER)
            self._i = 0
        i = self._i
        self._i += 1
        return self._exp[i], self._uni[i]


def _oracle_channels(p, u) -> list[tuple[int, int, int]]:
    """Static channel table (kind, from_state, to_state)."""
    chans: list[tuple[int, int, int]] = []
    for j in range(p.d):
        tI = int(u.target_I[j])
        if tI != j:
            chans.append((_KIND_DECISION, 2 * j, 2 * tI))
        tS = int(u.target_S[j])
        if tS != j:
            chans.append((_KIND_DECISION, 2 * j + 1, 2 * tS + 1))
        chans.append((_KIND_PRESSURE, 2 * j + 1, 2 * j))
        chans.append((_KIND_RECOVERY, 2 * j, 2 * j + 1))
        chans.append((_KIND_PEER, 2 * j + 1, 2 * j))
    return chans


def oracle_simulate(p, n0, u, t_end: float, stream: _OracleStream, record) -> None:
    """Drive the jump chain, calling record(t, channel_index, counts) per event,
    with every channel rate recomputed from scratch after every jump."""
    chans = _oracle_channels(p, u)
    kinds = [c[0] for c in chans]
    frms = [c[1] for c in chans]
    tos = [c[2] for c in chans]
    strat = [f // 2 for f in frms]
    n = [float(v) for v in n0.n]
    N = float(n0.N)
    d = p.d
    lam = float(p.lam)
    qp = [float(v) for v in p.q_plus]
    qm = [float(v) for v in p.q_minus]
    bcols = [[float(p.beta[k, j]) for k in range(d)] for j in range(d)]
    n_chan = len(chans)
    rates = [0.0] * n_chan
    t = 0.0
    while True:
        total = 0.0
        for c in range(n_chan):
            kind = kinds[c]
            j = strat[c]
            if kind == _KIND_DECISION:
                r = lam * n[frms[c]]
            elif kind == _KIND_PRESSURE:
                r = qm[j] * n[frms[c]]
            elif kind == _KIND_RECOVERY:
                r = qp[j] * n[frms[c]]
            else:
                col = bcols[j]
                s = 0.0
                for k in range(d):
                    s += col[k] * n[2 * k]
                r = s / N * n[frms[c]]
            rates[c] = r
            total += r
        if total <= 0.0:
            return
        e, uni = stream.next_pair()
        t += e / total
        if t > t_end:
            return
        pick = uni * total
        acc = 0.0
        chosen = n_chan - 1
        for c in range(n_chan):
            acc += rates[c]
            if pick < acc:
                chosen = c
                break
        n[frms[chosen]] -= 1.0
        n[tos[chosen]] += 1.0
        record(t, chosen, n)


def oracle_path(p, n0, u, t_end: float, seed: int):
    """(times, kinds, from_states, to_states, counts after each event) of the
    reference engine on the stream Philox([seed])."""
    chans = _oracle_channels(p, u)
    times, kinds, frm, to, counts = [], [], [], [], []

    def record(t, chosen, n):
        times.append(t)
        kinds.append(chans[chosen][0])
        frm.append(chans[chosen][1])
        to.append(chans[chosen][2])
        counts.append(list(n))

    oracle_simulate(p, n0, u, t_end, _OracleStream([seed]), record)
    return (np.asarray(times), np.asarray(kinds, dtype=np.int64),
            np.asarray(frm, dtype=np.int64), np.asarray(to, dtype=np.int64),
            np.asarray(counts, dtype=np.int64).reshape(len(times), n0.n.size))


def _oracle_sup_error_one_run(p, u, N, t_end, compare_times, ode_states, x0, stream) -> float:
    """Sup over compare_times of max |n(t)/N - x(t)| for one replication."""
    from sismfg import CountVector

    n0 = CountVector.from_fractions(x0, N)
    state = {"sup": 0.0, "gi": 0, "prev": [float(v) for v in n0.n]}
    n_cmp = compare_times.size
    n_states = n0.n.size
    ode_rows = ode_states.tolist()
    cmp_times = compare_times.tolist()

    def flush(upto: float, current: list) -> None:
        gi = state["gi"]
        sup = state["sup"]
        while gi < n_cmp and cmp_times[gi] < upto:
            row = ode_rows[gi]
            for q in range(n_states):
                err = current[q] / N - row[q]
                if err < 0.0:
                    err = -err
                if err > sup:
                    sup = err
            gi += 1
        state["gi"] = gi
        state["sup"] = sup

    def record(t, _chosen, n):
        flush(t, state["prev"])
        state["prev"] = list(n)

    oracle_simulate(p, n0, u, t_end, stream, record)
    flush(float("inf"), state["prev"])
    return state["sup"]


def oracle_lln_sup_errors(p, u, x0, t_end, N_list, replications, seed, grid=None,
                          n_compare: int = 2000) -> list[np.ndarray]:
    """Per-N replication sup errors of the reference engine, with the ODE
    reference and compare times chosen as ``lln_error`` chooses them."""
    from sismfg.dynamics import default_grid, integrate_forward

    if grid is None:
        grid = default_grid(p, 0.0, t_end)
    x_path = integrate_forward(p, x0, u, grid)
    times = grid.times()
    stride = max(1, times.size // n_compare)
    out = []
    for N in N_list:
        out.append(np.array([
            _oracle_sup_error_one_run(p, u, N, t_end, times[::stride], x_path[::stride], x0,
                                      _OracleStream([seed, N, r]))
            for r in range(replications)
        ]))
    return out
