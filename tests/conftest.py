"""Shared fixtures, random admissible parameter draws, and test-side oracles.

The oracles here are deliberately independent of the library's solution
paths: quadratic roots come from bisection, stationary values from a
generically assembled dense linear solve, the population generator and
the value equation from state-by-state assembly, Jacobians from central
differences, and reference trajectories from a plain fine-step Euler loop,
a fine-step classical RK4 loop, or the exponential step unfused, stage
state by stage state.  Where a sweep was made faster with
the same bits (the backward sweep that stops at its fixed point), the
code it replaced is kept here as a regression oracle, matched bit for bit.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from sismfg import MixedState, ModelParams, StationaryControl, ValueVector
from sismfg.dynamics import phi_functions, step_pattern, sweep_block
from sismfg.model import Generator

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
    roundoff grows with lam: the 1e-8 spectral agreement of
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


def oracle_share_quadratic(p: ModelParams, i: int) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the reduced stationary quadratic
    a y^2 + b y + c in the infected share y under the all-to-i control:
    (beta_ii, q_plus_i - beta_ii + q_minus_i, -q_minus_i)."""
    b_ii = float(p.beta[i, i])
    qp, qm = float(p.q_plus[i]), float(p.q_minus[i])
    return b_ii, qp - b_ii + qm, -qm


def oracle_xstar(p: ModelParams, i: int) -> float:
    """Bisection root of the reduced stationary quadratic on (0, 1)."""
    a, b, c = oracle_share_quadratic(p, i)
    return bisect_root(lambda y: a * y * y + b * y + c, 0.0, 1.0)


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


def oracle_generator(p: ModelParams, u: StationaryControl) -> tuple[np.ndarray, np.ndarray]:
    """Dense Q0 and Q_k of the population generator Q(x) = Q0 + sum_k x_kI Q_k
    under u, assembled state by state: each (j, C) moves to its target at lam
    when that differs from j, (j, S) to (j, I) at q_minus_j and, in Q_k, at
    beta[k, j], and (j, I) to (j, S) at q_plus_j."""
    d = p.d
    Q0 = np.zeros((2 * d, 2 * d))
    Qk = np.zeros((d, 2 * d, 2 * d))

    def edge(q, s, t, rate):
        q[s, t] += rate
        q[s, s] -= rate

    for j in range(d):
        for s, t in ((2 * j, 2 * int(u.target_I[j])), (2 * j + 1, 2 * int(u.target_S[j]) + 1)):
            if t != s:
                edge(Q0, s, t, p.lam)
        edge(Q0, 2 * j + 1, 2 * j, p.q_minus[j])
        edge(Q0, 2 * j, 2 * j + 1, p.q_plus[j])
        for k in range(d):
            edge(Qk[k], 2 * j + 1, 2 * j, p.beta[k, j])
    return Q0, Qk


def oracle_kinetic_rhs(p: ModelParams, u: StationaryControl):
    """x -> x Q(x) with the dense ``oracle_generator``."""
    Q0, Qk = oracle_generator(p, u)
    return lambda x: x @ Q0 + x[0::2] @ (x @ Qk)


def oracle_kinetic_jacobian(p: ModelParams, u: StationaryControl, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the population RHS, column by column.

    The RHS is quadratic in x, so the difference quotient is exact at any
    step; a unit step keeps its roundoff at a few eps times the rates.
    """
    rhs = oracle_kinetic_rhs(p, u)
    jac = np.empty((x.size, x.size))
    for m in range(x.size):
        e = np.zeros(x.size)
        e[m] = 1.0
        jac[:, m] = (rhs(x + e) - rhs(x - e)) / 2.0
    return jac


def oracle_euler_path(p: ModelParams, x0: np.ndarray, u: StationaryControl, t_end: float,
                      n_steps: int) -> np.ndarray:
    """Plain forward-Euler terminal state at a fine step (reference flow)."""
    rhs = oracle_kinetic_rhs(p, u)
    h = t_end / n_steps
    x = x0.copy()
    for _ in range(n_steps):
        x = x + h * rhs(x)
    return x


def oracle_value_rhs(p: ModelParams, u: StationaryControl | None, xI: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """Backward-time value RHS under u at infected shares xI, state by state
    from the per-state balance: lam (g(target) - g(state)) + switch rate
    (g(other compartment) - g(state)) + w - delta g(state).  u=None takes
    the argmin control of g: every infected state heads to the strategy of
    least g(jI), every susceptible one to that of least g(jS)."""
    if u is None:
        u = StationaryControl(np.full(p.d, np.argmin(g[0::2])), np.full(p.d, np.argmin(g[1::2])))
    qt = p.q_minus + p.beta.T @ xI
    out = np.empty(g.size)
    for j in range(p.d):
        for s, t, rate, w in ((2 * j, 2 * int(u.target_I[j]), p.q_plus[j], p.w_I[j]),
                              (2 * j + 1, 2 * int(u.target_S[j]) + 1, qt[j], p.w_S[j])):
            out[s] = p.lam * (g[t] - g[s]) + rate * (g[s ^ 1] - g[s]) + w - p.delta * g[s]
    return out


def oracle_backward_fixed(p: ModelParams, gT: ValueVector, x_path: np.ndarray,
                          u: StationaryControl | None, h: float) -> np.ndarray:
    """Reference fixed-control backward sweep: the classical RK4 stage loop,
    four ``oracle_value_rhs`` calls per step, at the infected shares of the
    nodes and of the step midpoints (population interpolated linearly).
    u=None is the explicit-minimum sweep: each stage under its own argmin
    control."""
    xI = x_path[:, 0::2]
    n_steps = x_path.shape[0] - 1
    g_path = np.empty_like(x_path)
    g = gT.g.copy()
    g_path[n_steps] = g
    for m in range(n_steps - 1, -1, -1):
        mid = 0.5 * (xI[m] + xI[m + 1])
        k1 = oracle_value_rhs(p, u, xI[m + 1], g)
        k2 = oracle_value_rhs(p, u, mid, g + 0.5 * h * k1)
        k3 = oracle_value_rhs(p, u, mid, g + 0.5 * h * k2)
        k4 = oracle_value_rhs(p, u, xI[m], g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g_path[m] = g
    return g_path


def oracle_rk4_forward_step(p: ModelParams, u: StationaryControl):
    """x, h -> one classical RK4 step of the population ODE, every stage and
    every RHS value a new array, the RHS one matmul x @ [M | C | E_S | E_I
    beta]: the fine-step reference the exponential forward step is
    checked against."""
    gen, d = Generator.of(p, u), p.d
    n, j = 2 * d, np.arange(d)
    w = np.zeros((n, 5 * d))
    w[:, :n] = gen.decisions
    w[2 * j, n + j] = -gen.q_plus
    w[2 * j + 1, n + j] = gen.q_minus
    w[2 * j + 1, n + d + j] = 1.0
    w[0::2, n + 2 * d:] = gen.beta

    def rhs(x):
        y = x @ w
        net = y[n:n + d] + y[n + d:n + 2 * d] * y[n + 2 * d:]
        out = y[:n]
        out[0::2] += net
        out[1::2] -= net
        return out

    def step(x, h):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def oracle_etdrk4_step(p: ModelParams, u: StationaryControl):
    """x, h -> one Cox-Matthews ETDRK4 step of the population ODE x' = x M +
    N(x), unfused: e^{hM/2}, e^{hM} (rows renormalized to sum to one, as
    the library does) and phi_1..phi_3 come from ``phi_functions``, kept per
    step size; N(y) is ``Generator.exchange`` put onto jI and taken off jS;
    and the stage states a, b, c are materialised, every value a new array.
    The reference the fused step is checked against."""
    gen = Generator.of(p, u)
    ops = {}

    def scattered(y):
        out = np.empty(y.size)
        out[0::2] = gen.exchange(y)
        out[1::2] = -out[0::2]
        return out

    def step(x, h):
        if h not in ops:
            e_half, p1_half = phi_functions(0.5 * h * gen.decisions, 1)
            e, p1, p2, p3 = phi_functions(h * gen.decisions, 3)
            ops[h] = (e_half / e_half.sum(axis=1, keepdims=True), 0.5 * h * p1_half,
                      e / e.sum(axis=1, keepdims=True), h * (p1 - 3.0 * p2 + 4.0 * p3),
                      2.0 * h * (p2 - 2.0 * p3), h * (4.0 * p3 - p2))
        e_half, ph, e, f1, f2, f3 = ops[h]
        n_x = scattered(x)
        a = x @ e_half + n_x @ ph
        n_a = scattered(a)
        b = x @ e_half + n_a @ ph
        n_b = scattered(b)
        c = a @ e_half + (2.0 * n_b - n_x) @ ph
        n_c = scattered(c)
        return x @ e + n_x @ f1 + (n_a + n_b) @ f2 + n_c @ f3

    return step


def oracle_backward_blocked(p: ModelParams, gT: ValueVector, x_path: np.ndarray,
                            u: StationaryControl, grid) -> np.ndarray:
    """The fixed-mode backward sweep as written before it stopped at its
    fixed point: every block of ``sweep_block`` steps from the top down
    steps the ``step_pattern`` probes, reads the maps g -> g + D_m g + r_m
    off them and runs one sparse update per node, over the whole grid."""
    gen = Generator.of(p, u)
    rhs, switch_rates = gen.value_rhs, gen.switch_rates
    idx, color, probes = step_pattern(u)
    block = sweep_block(p.n_states, probes.shape[1])
    h, n_steps = grid.h, grid.n_steps
    g_path = np.empty_like(x_path)
    g = g_path[n_steps] = gT.g
    terms = np.empty(idx.shape)
    for top in range(n_steps, 0, -block):
        lo = max(0, top - block)
        c = switch_rates(x_path[lo:top + 1]).T[:, None].copy()
        c_mid = switch_rates(0.5 * (x_path[lo:top] + x_path[lo + 1:top + 1])).T[:, None].copy()
        g0 = probes[:, :, None]
        k1 = rhs(c[..., 1:], g0)
        k2 = rhs(c_mid, g0 + 0.5 * h * k1)
        k3 = rhs(c_mid, g0 + 0.5 * h * k2)
        k4 = rhs(c[..., :-1], g0 + h * k3)
        maps = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # maps[s, probe, m]
        r = maps[:, -1]
        D = maps[np.arange(p.n_states), color] - r  # D[k, s, m]
        for m in range(top - lo - 1, -1, -1):
            row = g_path[lo + m]
            np.multiply(D[..., m], g[idx], out=terms)
            np.add.reduce(terms, axis=0, out=row)
            row += r[:, m]
            row += g
            g = row
    return g_path


def workload_scenario(name: str, seed: int) -> dict:
    """The scenario of a benchmark workload at a seed (``perfbench/workloads.py``),
    read without writing bytecode there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return getattr(module, name.replace("-", "_"))(seed)


def oracle_gap_closed_form(p: ModelParams, i: int, x_path: np.ndarray, gT_gap: float,
                           h: float) -> np.ndarray:
    """Closed-form g(iI) - g(iS) under single(i) along a population path, per
    node of a grid of step h.

    gap(t) = e^{-int_t^T a} gT_gap + (w_I_i - w_S_i) int_t^T e^{-int_t^s a} ds
    with a(s) = q_plus_i + q_minus_i + delta + sum_k beta_ki x_kI(s).
    Both integrals use trapezoid quadrature on the grid; the evaluation runs
    as a backward recursion so only order-one exponentials ever appear.
    """
    a = p.q_plus[i] + p.q_minus[i] + p.delta + x_path[:, 0::2] @ p.beta[:, i]
    w_gap = float(p.w_I[i] - p.w_S[i])
    n_steps = x_path.shape[0] - 1
    gap = np.empty(n_steps + 1)
    gap[n_steps] = gT_gap
    for m in range(n_steps - 1, -1, -1):
        decay = np.exp(-0.5 * h * (a[m] + a[m + 1]))
        gap[m] = decay * gap[m + 1] + w_gap * 0.5 * h * (1.0 + decay)
    return gap


def oracle_csv_table(header: list[str], *columns: np.ndarray) -> bytes:
    """CSV bytes of a table of number columns (one value or one array row
    per column), written cell by cell with Python's csv module: a float as
    "%.17g", an integer as str() writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for m in range(len(columns[0])):
        cells = [v for c in columns for v in np.atleast_1d(c[m]).tolist()]
        writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in cells])
    return buf.getvalue().encode()


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


def oracle_lln_sup_errors(p, u, x0, t_end, N_list, replications, seed) -> list[np.ndarray]:
    """Per-N replication sup errors of the reference engine against the
    compare times and ODE rows of the production reference
    (``nplayer._reference``), so only the jump and compare loop is checked."""
    from sismfg.nplayer import _reference

    times, rows, _ = _reference(p, u, x0, t_end)
    times, rows = np.array(times), np.array(rows)
    out = []
    for N in N_list:
        out.append(np.array([
            _oracle_sup_error_one_run(p, u, N, t_end, times, rows, x0,
                                      _OracleStream([seed, N, r]))
            for r in range(replications)
        ]))
    return out


# ---------------------------------------------------------------------------
# reference stationary solver: the per-candidate loop as it stood before the
# batched kernel, one candidate and one scalar formula at a time, kept so the
# kernel can be checked against it (same statuses and details, bitwise equal
# fixed points and values).  Its residual is ``model.consistency_residual``.

_ORACLE_NEWTON_TOL = 1e-12
_ORACLE_SPECTRUM_TOL = 1e-6
_ORACLE_VALUE_TOL = 1e-10
_ORACLE_EQUILIBRIUM_TOL = 1e-8


def _oracle_rate_roundoff(p) -> float:
    rate = max(p.lam, float(p.q_plus.max()), float(p.q_minus.max()), float(p.beta.max()))
    return 64.0 * np.finfo(float).eps * rate


def _oracle_floor(p, g: np.ndarray) -> float:
    return _oracle_rate_roundoff(p) * max(1.0, float(np.max(np.abs(g))))


def _oracle_root_unit(a: float, b: float, c: float) -> float:
    if a == 0.0:
        return -c / b
    disc = b * b - 4.0 * a * c
    if b < 0.0:
        return (-b + np.sqrt(disc)) / (2.0 * a)
    return 2.0 * (-c) / (b + np.sqrt(disc))


def _oracle_share(p, i: int, k: int) -> float:
    a = float(p.beta[i, k])
    b = float(p.q_plus[i] - p.beta[i, k] + p.q_minus[k])
    return _oracle_root_unit(a, b, -float(p.q_minus[k]))


def _oracle_fixed_point_mixed(p, i: int, k: int) -> MixedState:
    lam = p.lam
    qpi, qpk = float(p.q_plus[i]), float(p.q_plus[k])
    qmi, qmk = float(p.q_minus[i]), float(p.q_minus[k])
    bii, bki = float(p.beta[i, i]), float(p.beta[k, i])
    bik, bkk = float(p.beta[i, k]), float(p.beta[k, k])

    def residual(v):
        xiI, xkI = v
        xkS = 1.0 - xiI - 2.0 * xkI
        f1 = xkI * qmi - xiI * qpi + xkI * xiI * bii + xkI * xkI * bki + lam * xkI
        f2 = xkS * (qmk + xkI * bkk + xiI * bik) - (lam + qpk) * xkI
        return np.array([f1, f2])

    def jacobian(v):
        xiI, xkI = v
        xkS = 1.0 - xiI - 2.0 * xkI
        press = qmk + xkI * bkk + xiI * bik
        return np.array([
            [-qpi + xkI * bii, qmi + xiI * bii + 2.0 * xkI * bki + lam],
            [-press + xkS * bik, -2.0 * press + xkS * bkk - (lam + qpk)],
        ])

    xiI0 = _oracle_share(p, i, k)
    v = np.array([xiI0, xiI0 * qpi / lam])
    res = residual(v)
    norm = np.max(np.abs(res))
    its = 0
    for its in range(1, 101):
        if norm < _ORACLE_NEWTON_TOL:
            break
        step = np.linalg.solve(jacobian(v), res)
        scale = 1.0
        for _ in range(30):
            v_new = v - scale * step
            res_new = residual(v_new)
            norm_new = np.max(np.abs(res_new))
            if norm_new < norm:
                break
            scale *= 0.5
        v, res, norm = v_new, res_new, norm_new
    if norm >= _ORACLE_NEWTON_TOL:
        raise RuntimeError(
            f"mixed fixed point Newton did not converge for (i={i}, k={k}); "
            f"residual {norm:.3e} after {its} iterations"
        )
    xiI, xkI = v
    x = np.zeros(p.n_states)
    x[2 * i] = xiI
    x[2 * i + 1] = xkI
    x[2 * k] = xkI
    x[2 * k + 1] = 1.0 - xiI - 2.0 * xkI
    if np.any(x < 0):
        raise RuntimeError(f"mixed fixed point left the simplex for (i={i}, k={k}): {x.tolist()}")
    return MixedState(x)


def _oracle_certify(p, x: MixedState, u: StationaryControl, g: ValueVector) -> None:
    defect = float(np.max(np.abs(oracle_value_rhs(p, u, x.infected, g.g))))
    if defect > max(_ORACLE_VALUE_TOL, _oracle_floor(p, g.g)):
        raise RuntimeError(f"stationary value solve failed its certificate: defect {defect:.3e}")


def _oracle_values_single(p, i: int, x_star: float) -> np.ndarray:
    lam, delta = p.lam, p.delta
    den_i = float(p.q_minus[i] + p.q_plus[i] + p.beta[i, i] * x_star + p.delta)
    gap_i = float(p.w_I[i] - p.w_S[i]) / den_i
    g_iI = (float(p.w_I[i]) - float(p.q_plus[i]) * gap_i) / p.delta
    g = np.empty(p.n_states)
    g[2 * i] = g_iI
    g[2 * i + 1] = g_iI - gap_i
    for j in range(p.d):
        if j == i:
            continue
        qt_j = float(p.q_minus[j] + p.beta[i, j] * x_star)
        gap_j = (float(p.w_I[j] - p.w_S[j]) + lam * gap_i) / (lam + float(p.q_plus[j]) + qt_j + delta)
        g_jI = (lam * g_iI + float(p.w_I[j]) - float(p.q_plus[j]) * gap_j) / (lam + delta)
        g[2 * j] = g_jI
        g[2 * j + 1] = g_jI - gap_j
    return g


def _oracle_values_mixed(p, i: int, k: int, x: MixedState) -> np.ndarray:
    lam, delta = p.lam, p.delta
    qt = p.q_minus + p.beta.T @ x.infected
    qpi, qpk = float(p.q_plus[i]), float(p.q_plus[k])
    qti, qtk = float(qt[i]), float(qt[k])
    wiI, wiS = float(p.w_I[i]), float(p.w_S[i])
    wkI, wkS = float(p.w_I[k]), float(p.w_S[k])
    a11 = -(lam * (qpi + delta) + delta * (qpi + qti + delta))
    a12 = lam * qpi
    b1 = -wiI * (lam + delta + qti) - wiS * qpi
    a21 = -lam * qtk
    a22 = lam * (qtk + delta) + delta * (qtk + qpk + delta)
    b2 = wkI * qtk + wkS * (lam + delta + qpk)
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise RuntimeError("singular 2x2 system for the mixed stationary values")
    g_iI = (b1 * a22 - a12 * b2) / det
    g_kS = (a11 * b2 - b1 * a21) / det
    g = np.empty(p.n_states)
    g[2 * i], g[2 * i + 1] = g_iI, g_iI + (delta * g_iI - wiI) / qpi
    g[2 * k], g[2 * k + 1] = g_kS + (delta * g_kS - wkS) / qtk, g_kS
    for j in range(p.d):
        if j in (i, k):
            continue
        qtj, qpj = float(qt[j]), float(p.q_plus[j])
        mat = np.array([[lam + delta + qpj, -qpj], [-qtj, lam + delta + qtj]])
        rhs = np.array([lam * g_iI + float(p.w_I[j]), lam * g_kS + float(p.w_S[j])])
        g[2 * j], g[2 * j + 1] = np.linalg.solve(mat, rhs)
    return g


def _oracle_kinetic_jacobian(p, u: StationaryControl, x: np.ndarray) -> np.ndarray:
    """The exact Jacobian as one dense matrix per call: Q(x) transposed, plus
    on column kI the derivative x Q_k of x Q(x) through the entries of Q(x)
    (``oracle_generator``)."""
    Q0, Qk = oracle_generator(p, u)
    jac = (Q0 + np.tensordot(x[0::2], Qk, 1)).T
    jac[:, 0::2] += (x @ Qk).T
    return jac


def _oracle_sorted(values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def _oracle_spectrum(p, u: StationaryControl, x: np.ndarray) -> np.ndarray:
    n = x.size
    basis = np.vstack([np.eye(n - 1), -np.ones(n - 1)])
    gram = np.eye(n - 1) + 1.0
    tangent = np.linalg.solve(gram, basis.T @ (_oracle_kinetic_jacobian(p, u, x) @ basis))
    return _oracle_sorted(np.linalg.eigvals(tangent))


def oracle_solve_candidate(p, u: StationaryControl) -> dict:
    """One candidate solved the pre-kernel way; raises as that solver raised."""
    from sismfg.model import consistency_residual

    i, k = u.as_pair()
    if u.is_single:
        x_star = _oracle_share(p, i, i)
        xs = np.zeros(p.n_states)
        xs[2 * i], xs[2 * i + 1] = x_star, 1.0 - x_star
        x = MixedState(xs)
        g = ValueVector(_oracle_values_single(p, i, x_star))
    else:
        x = _oracle_fixed_point_mixed(p, i, k)
        g = ValueVector(_oracle_values_mixed(p, i, k, x))
    _oracle_certify(p, x, u, g)
    margin_I = g.infected_values - g.g_I(i)
    margin_S = g.susceptible_values - g.g_S(k)
    off = np.array([margin_I[j] for j in range(p.d) if j != i]
                   + [margin_S[j] for j in range(p.d) if j != k])
    numerical = _oracle_spectrum(p, u, x.x)
    closed, agreement = None, None
    max_real = float(numerical.real.max())
    if u.is_single:
        xi = float((1.0 - 2.0 * x_star) * p.beta[i, i] - p.q_minus[i] - p.q_plus[i])
        values = [xi]
        for j in range(p.d):
            if j != i:
                slow = float(-p.lam - (p.q_plus[j] + p.q_minus[j] + x_star * p.beta[i, j]))
                values.extend((slow, -p.lam))
        closed = _oracle_sorted(values)
        agreement = float(np.max(np.abs(closed - numerical)))
        max_real = max(max_real, float(closed.real.max()))
        if agreement > max(_ORACLE_SPECTRUM_TOL, _oracle_rate_roundoff(p)):
            raise RuntimeError(
                f"closed-form and numerical spectra disagree by {agreement:.3e} "
                f"at the single({i + 1}) fixed point"
            )
    return {
        "x": x.x, "g": g.g, "numerical": numerical, "closed_form": closed, "agreement": agreement,
        "max_real_part": max_real,
        "min_margin": float(off.min()) if off.size else np.inf,
        "degenerate": bool(off.size and np.any(np.abs(off) <= 1e-10)),
        "residual": consistency_residual(p, x, g, u),
    }


def oracle_enumerate(p) -> list[dict]:
    """Per candidate, in the kernel's order: status, detail, min_margin and
    residual as the pre-kernel loop reported them, plus its solution."""
    from sismfg import best_response

    out = []
    for i in range(p.d):
        for k in range(p.d):
            u = StationaryControl.single(p.d, i) if i == k else StationaryControl.mixed(p.d, i, k)
            try:
                sol = oracle_solve_candidate(p, u)
            except (RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
                out.append({"control": u, "status": "failed", "detail": str(exc),
                            "min_margin": None, "residual": None, "solution": None})
                continue
            row = {"control": u, "min_margin": sol["min_margin"], "residual": sol["residual"],
                   "solution": sol}
            if sol["min_margin"] >= -1e-10 and sol["residual"] <= max(
                _ORACLE_EQUILIBRIUM_TOL, _oracle_floor(p, sol["g"])
            ):
                br, _ = best_response(ValueVector(sol["g"]))
                if not (br == u or sol["degenerate"]):
                    row.update(status="failed",
                               detail="margins accepted but best response disagrees")
                else:
                    row.update(status="accepted", detail="degenerate (boundary margin)"
                               if sol["degenerate"] else "equilibrium")
            elif sol["min_margin"] < -1e-10:
                row.update(status="rejected", detail=f"negative margin {sol['min_margin']:.3e}")
            else:
                row.update(status="rejected",
                           detail=f"residual {sol['residual']:.3e} above tolerance")
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# first-order mixed values, assembled from the kernel's first-order data (not oracles)


def mixed_first_order(p, i: int, k: int, x: MixedState):
    """``stationary._mixed_first_order`` of the pair [i(I), k(S)] at its
    fixed point x, each field one entry, with the effective infection rates
    q~ there."""
    from sismfg import stationary
    from sismfg.model import ParamStack, effective_infection

    s = ParamStack.tile(p)
    qt = effective_infection(s, x.x[None, 0::2])
    return stationary._mixed_first_order(s, np.array([i]), np.array([k]), qt), qt[0]


def mixed_asymptotic_values(p, i: int, k: int, x: MixedState) -> tuple[np.ndarray, np.ndarray]:
    """(g0, g0 + g1 / lam) under the mixed control [i(I), k(S)] of a
    two-strategy model with delta > 0, at its fixed point x.  The zeroth
    order has g0(kI) = g0(iI) and g0(iS) = g0(kS) exactly; g1(iS) and g1(kI)
    follow from g(iS) = g(iI) + (delta g(iI) - w_I_i) / q_plus_i and its
    twin g(kI) = g(kS) + (delta g(kS) - w_S_k) / q~_k."""
    assert p.d == 2 and p.delta > 0
    fo, qt = mixed_first_order(p, i, k, x)
    lam, delta = p.lam, p.delta
    g0_iI, g0_kS = fo.G0_iI[0] / delta, fo.G0_kS[0] / delta
    g1_iI, g1_kS = fo.R_iI[0] / fo.det[0], fo.R_kS[0] / fo.det[0]
    g1_iS = g1_iI * (p.q_plus[i] + delta) / p.q_plus[i]
    g1_kI = g1_kS * (qt[k] + delta) / qt[k]
    g = np.empty(4)
    g[2 * i], g[2 * i + 1] = g0_iI + g1_iI / lam, g0_kS + g1_iS / lam
    g[2 * k], g[2 * k + 1] = g0_iI + g1_kI / lam, g0_kS + g1_kS / lam
    return np.tile([g0_iI, g0_kS], 2), g
