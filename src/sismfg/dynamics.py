"""Time-dependent solutions and the turnpike construction.

Both sweeps take fixed steps on one grid (default step min(0.01, 0.1/lam)).
Every forward path (``simulate``, ``turnpike`` and the LLN reference of
``nplayer.lln_error``) takes exponential RK4 steps (Cox-Matthews ETDRK4,
2002): x Q(x) is split as x @ M + N(x), with M the constant generator of
the decisions (``model.Generator.decisions``), whose e^{hM} and
phi_1..phi_3(hM) come from one scaling-and-squaring exponential per step
size, so the step follows the slow rates instead of lam.  Every stage
state is a linear image of x and the exchanges before it, so a step keeps
one stage buffer [x | Y_x | Y_a | Y_b | Y_c] of x and each stage's
exchange slot, allocated once per integration: a stage is one call of a
``model.kinetic_rhs_fn`` closure (one matmul of a prefix of the buffer
into its slot with the stage's map composed with the exchange weights,
and one multiply), and the step's result is one matmul of the buffer
(``etdrk4_operators``).  Each node is checked once, by its min and its
sum: it is clipped only when an entry is <= 0, and retried with halved
substeps only when it leaves the simplex by more than STEP_REJECT_TOL.
The backward value equation takes classical RK4 steps; lam sets its
stiffness (``check_turnpike_grid``).

Under the frozen control a regular forward step (grid step h, with its
halvings, clipping and renormalization) is a fixed map of the node alone,
so once node m + 1 repeats node m bit for bit, every later node repeats
it too: ``integrate_forward`` stops stepping there and fills the rest of
the path with that node.  A long turnpike or simulate horizon reaches this
fixed point of its discrete flow (P0 under all-to-1 from the uniform state
at h = 0.0025: node 11001 of 20000, t = 27.50), and the path is the one
full stepping gives, to the bit.

Under a frozen control the value equation is linear, so its RK4 step is
an affine map g -> g + D_m g + r_m.  ``integrate_backward`` builds these
maps for a block of steps at once, by stepping a few probe vectors (a
column coloring of D_m's sparsity pattern, which ``step_pattern`` reads
off the control) through ``model.Generator.value_rhs`` of the frozen
control, and then runs the sequential recursion with one sparse update
per node.  Switch rates are computed per block of steps, so the
sweep's working memory is bounded by ``stationary.ENTRY_BUDGET`` whatever
the number of steps.  Where the forward path has stopped at its fixed
point, every step is one map, built once, and the stretch is stepped in
one pass that stops at the first value node repeating the node above it
and copies that node down to the start of the stretch (at the stationary
terminal values of P0 on the ``turnpike`` grid, after one step).

``solve_turnpike`` builds the time-dependent solution anchored at an
all-to-i stationary solution (``stationary_anchor``, the kernel's single(i)
row), on a grid that ``check_turnpike_grid`` accepts (RK4-stable, at least
2 steps): with the control frozen the population decouples and integrates
forward, the values integrate backward against that path, and the run is
certified by checking at every node that the value vector stays in the cone

    g(iI) <= g(jI),  g(iS) <= g(jS),  g(jI) >= g(jS)   for all j

and that the frozen control is the actual argmin (both read the margins of
``model.best_response_margins``).  Inside the cone the
fixed-control and explicit-minimum evolutions coincide, which is what makes
the frozen-control solution a solution of the full consistency problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Generator,
    MixedState,
    ModelParams,
    ParamStack,
    StationaryControl,
    ValueVector,
    _check_dims,
    best_response_margins,
    kinetic_rhs_fn,
    margin_summary,
    state_targets,
)
from .stationary import ENTRY_BUDGET, _pair, _small_interaction_single, _solve_pair

#: compare times (about) and largest step of the LLN reference
REFERENCE_COMPARE = 2000
REFERENCE_MAX_STEP = 0.005
#: simplex violation that triggers step halving in the forward integrator
STEP_REJECT_TOL = 1e-6
MAX_HALVINGS = 20
#: default turnpike-window distance threshold
DEFAULT_WINDOW_EPS = 1e-3
#: fraction trimmed from each end for the mid-horizon statistics
MID_WINDOW_TRIM = 0.1
#: classical RK4 is stable on the real interval [-2.7853, 0] of h * eigenvalue
RK4_REAL_STABILITY = 2.785
#: most entries (nodes x 2d) of a trajectory grid or a recorded CTMC
#: path: one float64 path of this size takes 128 MiB
GRID_BUDGET = 1 << 24


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps steps (n_steps+1 nodes)."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end ({self.t_end}) must be > t_start ({self.t_start})")
        if self.n_steps < 1:
            raise ValueError(f"n_steps ({self.n_steps}) must be >= 1")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def horizon(self) -> float:
        return self.t_end - self.t_start

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)


def default_grid(p: ModelParams, t_start: float, t_end: float) -> TimeGrid:
    """Grid with the default step min(0.01, 0.1/lam)."""
    h = min(0.01, 0.1 / p.lam)
    return TimeGrid(t_start, t_end, max(1, int(np.ceil((t_end - t_start) / h))))


def lln_reference_grid(p: ModelParams, t_end: float) -> tuple[np.ndarray, TimeGrid]:
    """Compare times and ETDRK4 grid of the LLN reference on [0, t_end].

    The compare times are every stride-th node of ``default_grid``, stride
    = max(1, nodes // REFERENCE_COMPARE), computed as i * (t_end / n) like
    ``TimeGrid.times`` without building that grid.  The reference steps
    from 0 to the last compare time at (compare spacing) / k, k the
    smallest that keeps it <= REFERENCE_MAX_STEP, so every k-th node is a
    compare time (to rounding).
    """
    n = default_grid(p, 0.0, t_end).n_steps
    stride = max(1, (n + 1) // REFERENCE_COMPARE)
    n_cmp = n // stride
    times = np.arange(n_cmp + 1, dtype=float) * float(stride) * (t_end / n)
    if n % stride == 0:
        times[-1] = t_end
    t_last = float(times[-1])
    k = max(1, int(np.ceil(t_last / (n_cmp * REFERENCE_MAX_STEP) - 1e-9)))
    return times, TimeGrid(0.0, t_last, n_cmp * k)


# ---------------------------------------------------------------------------
# forward integration


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: a degree-18 Taylor
    polynomial (Horner form) at 1-norm <= 1/2, then squared back."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    e = eye + a / 18.0
    for k in range(17, 0, -1):
        e = eye + (a @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def phi_functions(a: np.ndarray, order: int) -> list[np.ndarray]:
    """[e^a, phi_1(a), ..., phi_order(a)] for a square matrix a, with
    phi_k(a) = sum_m a^m / (m + k)!, from one exponential of the block
    matrix [[a, I, 0, ...], [0, 0, I, ...], ..., [0, ..., 0]]: its first
    block row is exactly this list.  a may be singular."""
    n = a.shape[0]
    block = np.zeros(((order + 1) * n, (order + 1) * n))
    block[:n, :n] = a
    for k in range(order):
        block[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    top = _expm(block)[:n]
    return [top[:, k * n:(k + 1) * n] for k in range(order + 1)]


class EtdOperators(NamedTuple):
    """ETDRK4 operators of one step size h for x' = x @ M + N(x) @ S (S the
    scatter of each strategy's net exchange onto +jI, -jS), acting on the
    stage buffer z = [x | Y_x | Y_a | Y_b | Y_c] of ``_etdrk4_step_fn``.

    Y_y = [Y_C | Y_S | Y_beta] is the exchange slot of a stage state y:
    y @ W, W the ``model.Generator.exchange_weights``, with Y_S multiplied
    by Y_beta in place, so that N(y) = Y_C + Y_S.  With E = e^{hM/2} and
    P = S (h/2) phi_1(hM/2), every stage state is a linear image of what z
    already holds:
        a = x E + N(x) P,   b = x E + N(a) P,
        c = a E + (2 N(b) - N(x)) P = x e^{hM} + N(x) (P E - P) + 2 N(b) P.
    stages[k] is that map composed with W (stages[0] is W), so stage k
    writes z[:2d + 3dk] @ stages[k] into its slot.  z @ end is the step's
    result: e^{hM} on x, and on the slots of x, a, b and c
    S h (phi_1 - 3 phi_2 + 4 phi_3), S 2h (phi_2 - 2 phi_3) twice and
    S h (4 phi_3 - phi_2), phi_k = phi_k(hM).  A map puts the same rows on
    a slot's Y_C and Y_S and zeros on its Y_beta, and zeros on a slot it
    does not read."""

    stages: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    end: np.ndarray


def etdrk4_operators(m: np.ndarray, w: np.ndarray, h: float) -> EtdOperators:
    """The operators of step h for the decision generator m (rows sum to
    zero) and the exchange weights w.

    The rows of both exponentials are renormalized to sum to one: each
    squaring of ``_expm`` doubles their roundoff, which would otherwise
    reach 1e-11 at lam * h = 5000."""
    d = w.shape[0] // 2
    scatter = np.kron(np.eye(d), [1.0, -1.0])  # net of strategy j -> +jI, -jS
    e_half, p1_half = phi_functions(0.5 * h * m, 1)
    e, p1, p2, p3 = phi_functions(h * m, 3)
    e_half = e_half / e_half.sum(axis=1, keepdims=True)
    e = e / e.sum(axis=1, keepdims=True)
    ph = scatter @ (0.5 * h * p1_half)
    skip = np.zeros((3 * d, 3 * d))  # a stage slot the map does not read

    def net(p: np.ndarray) -> np.ndarray:  # the rows of one Y that give N @ p
        return np.vstack([p, p, np.zeros_like(p)])

    x_half, n_half = e_half @ w, net(ph @ w)  # a and b: x E + N P
    w23 = net(scatter @ (2.0 * h * (p2 - 2.0 * p3)))
    return EtdOperators(
        stages=(w, np.vstack([x_half, n_half]), np.vstack([x_half, skip, n_half]),
                np.vstack([e @ w, net((ph @ e_half - ph) @ w), skip, 2.0 * n_half])),
        end=np.vstack([e, net(scatter @ (h * (p1 - 3.0 * p2 + 4.0 * p3))), w23, w23,
                       net(scatter @ (h * (4.0 * p3 - p2)))]),
    )


def _etdrk4_step_fn(p: ModelParams, u: StationaryControl):
    """Cox-Matthews ETDRK4 step x, h -> x(t + h) of the population ODE split
    as x' = x @ M + N(x): M the generator of the decisions under u
    (``model.Generator.decisions``), N the net exchange of each strategy
    scattered +/- onto the I/S states.  The decisions are solved exactly,
    so the step need only follow the slow infection and recovery rates.

    The step copies x into its stage buffer z = [x | Y_x | Y_a | Y_b | Y_c]
    (``EtdOperators``), evaluates each stage with one call of a
    ``model.kinetic_rhs_fn`` closure, one matmul of a prefix of z into the
    stage's slot and one multiply, and takes its result as one matmul of z.
    The operators are computed once per step size and kept; z is allocated
    once, and the step writes its result into one of two buffers, never the
    one x is."""
    gen, n, d = Generator.of(p, u), p.n_states, p.d
    m, w = gen.decisions, gen.exchange_weights
    ops: dict[float, EtdOperators] = {}
    z = np.empty(n + 12 * d)
    z_x, z_a, z_b, z_c = (z[:n + 3 * k * d] for k in range(4))  # the prefix each stage reads
    stage_x, stage_a, stage_b, stage_c = (
        kinetic_rhs_fn(z[n + 3 * k * d:n + 3 * (k + 1) * d]) for k in range(4))
    outs = (np.empty(n), np.empty(n))

    def step(x: np.ndarray, h: float) -> np.ndarray:
        if h not in ops:
            ops[h] = etdrk4_operators(m, w, h)
        (w_x, w_a, w_b, w_c), end = ops[h]
        out = outs[x is outs[0]]
        z_x[...] = x
        stage_x(z_x, w_x)
        stage_a(z_a, w_a)
        stage_b(z_b, w_b)
        stage_c(z_c, w_c)
        return np.matmul(z, end, out)

    return step


def _forward_node(step, x: np.ndarray, h: float, depth: int = 0):
    """One interval of length h with step(x, h), halving the substep while
    the state leaves the simplex; returns the state with its min and sum.
    The state may be the step's own buffer, which its next call
    overwrites: the first half of a halved interval is copied out of it."""
    y = step(x, h)
    lo, total = np.minimum.reduce(y), np.add.reduce(y)
    if lo > -STEP_REJECT_TOL and abs(total - 1.0) < STEP_REJECT_TOL:
        return y, lo, total
    if depth >= MAX_HALVINGS:
        raise RuntimeError(
            f"forward integration left the simplex (min {lo:.3e}) "
            f"after {MAX_HALVINGS} step halvings"
        )
    half = _forward_node(step, x, 0.5 * h, depth + 1)[0].copy()
    return _forward_node(step, half, 0.5 * h, depth + 1)


def graded_opening(h: float, lam: float) -> list[float]:
    """Substeps h/2^k, h/2^k, h/2^(k-1), ..., h/2 that cover one interval of
    length h, the first no longer than 0.1/lam: they resolve the migration
    layer that opens a path at rate lam, and double up to the step h.
    [h] when h is already that short."""
    k = int(np.ceil(np.log2(h * lam / 0.1))) if h * lam > 0.1 else 0
    if k == 0:
        return [h]
    return [h / 2.0**k] + [h / 2.0**j for j in range(k, 0, -1)]


def integrate_forward(
    p: ModelParams, x0: MixedState, u: StationaryControl, grid: TimeGrid
) -> np.ndarray:
    """Path of the population ODE on the grid; shape (n_steps+1, 2d).

    Every step is exponential (``_etdrk4_step_fn``): the decisions are
    solved exactly, so the step follows the slow rates instead of lam, and
    the first interval is covered by ``graded_opening`` substeps, which
    resolve the migration layer.  Each node is renormalized to sum to one,
    after clipping when an entry is <= 0 (tiny negatives and -0.0 become
    +0.0); a step that leaves the simplex by more than STEP_REJECT_TOL is
    retried with halved substeps (``_forward_node``).

    The control is frozen, so a regular step (every interval after the
    first, which the opening substeps cover) maps a node to
    the next as a function of that node alone.  The loop stops at the
    first such step whose node repeats its predecessor bit for bit (``==``
    would equate -0.0 and +0.0) and copies that node to the rest of the
    path: full stepping would reproduce it exactly.  A control that varies
    along the path would break this.
    """
    h = grid.h
    step, opening = _etdrk4_step_fn(p, u), graded_opening(h, p.lam)
    path = np.empty((grid.n_steps + 1, p.n_states))
    path[0] = x0.x
    x = path[0]
    for m in range(grid.n_steps):
        y = x
        for sub in opening if m == 0 else (h,):
            y, lo, total = _forward_node(step, y, sub)
        if lo <= 0.0:  # also turns -0.0 into +0.0
            y = np.maximum(y, 0.0)
            total = y.sum()
        x = path[m + 1]
        np.divide(y, total, out=x)
        if m and x.tobytes() == path[m].tobytes():  # the regular step's fixed point
            path[m + 2:] = x
            break
    return path


# ---------------------------------------------------------------------------
# backward integration


def cone_flags(g_path: np.ndarray, i: int) -> np.ndarray:
    """Per node, the cone check g(iI) <= g(jI), g(iS) <= g(jS) (every
    best-response margin at base (i, i) is >= 0) and g(jI) >= g(jS)."""
    base = np.full(g_path.shape[0], i)
    margin_I, margin_S = best_response_margins(base, base, g_path)
    return (np.all(margin_I >= 0.0, axis=1) & np.all(margin_S >= 0.0, axis=1)
            & np.all(g_path[:, 0::2] >= g_path[:, 1::2], axis=1))


def argmin_flags(g_path: np.ndarray, u: StationaryControl) -> np.ndarray:
    """Per node, whether u is the best response to the value vector there
    and that best response is not degenerate: every margin off u's bases is
    > 0 and none is within the tie tolerance, ``best_response``'s rule
    taken over all nodes at once.  A non-uniform u is never a best response."""
    if not np.all(np.isfinite(g_path)):
        raise ValueError("value vector entries must be finite")
    if not u.is_uniform:
        return np.zeros(g_path.shape[0], dtype=bool)
    base_I, base_S = (np.full(g_path.shape[0], b) for b in u.as_pair())
    margins = best_response_margins(base_I, base_S, g_path)
    min_margin, degenerate = margin_summary(base_I, base_S, *margins)
    return (min_margin > 0.0) & ~degenerate


class StepPattern(NamedTuple):
    """Sparsity of the fixed-control RK4 step g -> g + D g + r and its probes.

    probes holds one column per color, the sum of that color's unit
    vectors, and a last column of zeros, whose step gives r.  idx[:, s]
    lists the columns of row s of D and color[:, s] the probe that reads
    each; a short row is padded with column s read off the zero probe, so
    its padding entries of D are r - r = 0."""

    idx: np.ndarray
    color: np.ndarray
    probes: np.ndarray


def step_pattern(u: StationaryControl) -> StepPattern:
    """The pattern of a fixed-control RK4 step under u, and probes to read it.

    One RHS evaluation couples state s to s, its partner and its target
    under u, so the four stages of a step reach at most four such hops.
    Columns are colored greedily so that no row meets two columns of one
    color (Curtis-Powell-Reid, 1974): the step of a color's probe, less r,
    then holds in each row the one entry of D in that color.  Under
    single(i) that is 4 colors whatever d is.
    """
    n = 2 * u.target_I.size
    hop = np.stack([np.arange(n), np.arange(n) ^ 1, state_targets(u)], axis=1)
    reach = [{s} for s in range(n)]
    for _ in range(4):
        reach = [set(hop[list(r)].ravel().tolist()) for r in reach]
    rows_of = [[] for _ in range(n)]
    for s, r in enumerate(reach):
        for j in r:
            rows_of[j].append(s)
    color = np.full(n, -1)
    for j in range(n):
        taken = {color[k] for s in rows_of[j] for k in reach[s]}
        color[j] = min(set(range(n)) - taken)
    cols = [sorted(r) for r in reach]
    width, zero = max(map(len, cols)), color.max() + 1
    idx = np.array([c + [s] * (width - len(c)) for s, c in enumerate(cols)]).T.copy()
    entry_color = np.array([color[c].tolist() + [zero] * (width - len(c)) for c in cols]).T.copy()
    probes = np.zeros((n, zero + 1))
    probes[np.arange(n), color] = 1.0
    return StepPattern(idx=idx, color=entry_color, probes=probes)


def sweep_block(n: int, width: int) -> int:
    """Steps per block of the backward sweep that steps width value vectors
    of n entries: a block's step results hold at most ENTRY_BUDGET entries."""
    return max(1, ENTRY_BUDGET // (width * n))


def _affine_steps(D: np.ndarray, r: np.ndarray, idx: np.ndarray, g: np.ndarray,
                  out: np.ndarray, stalled: bool = False) -> int:
    """The nodes of a block from its top node's g down: out[m] = g + (D[m] g
    + r[m]), with D[m] g summed over the pattern idx, one update per node.
    stalled says every step is one map (broadcast over the block): then a
    node that repeats the node above it bit for bit repeats at every node
    below, so it is copied down to out[0].  Returns the lowest node stepped."""
    terms = np.empty(idx.shape)
    for m in range(len(out) - 1, -1, -1):
        row = out[m]
        np.multiply(D[m], g[idx], out=terms)
        np.add.reduce(terms, axis=0, out=row)
        row += r[m]
        row += g
        if stalled and row.tobytes() == g.tobytes():
            out[:m] = row
            return m
        g = row
    return 0


def _step_maps(gen: Generator, pattern: StepPattern, x_nodes: np.ndarray, h: float):
    """D[m] and r[m] of the fixed-control steps from node m + 1 to node m of
    x_nodes, read off one classical RK4 step of every ``step_pattern`` probe
    over every step at once, with the switch rates and the value RHS of the
    one-point generator gen: the states on the first axis, switch rates
    c[s, 0, m] and probes g[s, probe, 0]."""
    c = gen.switch_rates(x_nodes).T[:, None].copy()
    c_mid = gen.switch_rates(0.5 * (x_nodes[:-1] + x_nodes[1:])).T[:, None].copy()
    g = pattern.probes[:, :, None]
    k1 = gen.value_rhs(c[..., 1:], g)
    k2 = gen.value_rhs(c_mid, g + 0.5 * h * k1)
    k3 = gen.value_rhs(c_mid, g + 0.5 * h * k2)
    k4 = gen.value_rhs(c[..., :-1], g + h * k3)
    maps = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # maps[s, probe, m]
    r = maps[:, -1]
    D = maps[np.arange(x_nodes.shape[1]), pattern.color] - r  # D[k, s, m]
    return D.transpose(2, 0, 1).copy(), r.T.copy()


def _stall_start(x_path: np.ndarray, block: int) -> int:
    """The first node from which every node repeats the last one bit for bit
    (``==`` would equate -0.0 and +0.0), scanned down block by block."""
    last = x_path[-1].view(np.uint64)
    for top in range(len(x_path), 0, -block):
        lo = max(0, top - block)
        moved = np.flatnonzero(np.any(x_path[lo:top].view(np.uint64) != last, axis=1))
        if moved.size:
            return lo + int(moved[-1]) + 1
    return 0


def integrate_backward(
    p: ModelParams,
    gT: ValueVector,
    x_path: np.ndarray,
    u: StationaryControl,
    grid: TimeGrid,
) -> np.ndarray:
    """The value path under the frozen control u from the horizon down;
    shape (n_steps+1, 2d).

    The population path is taken on the same grid and interpolated linearly
    at stage midpoints.  Each step is classical RK4, and under the frozen
    control it is affine, g -> g + D_m g + r_m: the sweep steps the
    ``step_pattern`` probes of a block of ``sweep_block`` steps at once,
    reads the sparse D_m and r_m off them, and then runs one sparse update
    per node.  Switch rates are computed per block, so the working memory
    is bounded whatever n_steps is.

    Where x_path repeats its last node bit for bit (the forward sweep's
    fixed point, ``integrate_forward``), every step is the same map: it is
    built once, from the last step, and the stretch is stepped in one pass
    with that map, which stops at the first value node that repeats the
    node above it and copies it down to the start of the stretch.  The
    value path is the one full stepping gives, to the bit.
    """
    _check_dims(p, gT, u)
    if x_path.shape != (grid.n_steps + 1, p.n_states):
        raise ValueError("x_path does not match the grid")
    gen, h, top = Generator.of(p, u), grid.h, grid.n_steps
    pattern = step_pattern(u)
    block = sweep_block(p.n_states, pattern.probes.shape[1])
    g_path = np.empty_like(x_path)
    g = g_path[top] = gT.g
    stall = _stall_start(x_path, block)
    if stall < top:  # the last step's map, a view for every step of the stall
        maps = _step_maps(gen, pattern, x_path[top - 1:], h)
        D, r = (np.broadcast_to(a, (top - stall, *a.shape[1:])) for a in maps)
        _affine_steps(D, r, pattern.idx, g, g_path[stall:top], stalled=True)
        g, top = g_path[stall], stall
    for top in range(top, 0, -block):  # steps lo..top-1, nodes lo..top
        lo = max(0, top - block)
        D, r = _step_maps(gen, pattern, x_path[lo:top + 1], h)
        _affine_steps(D, r, pattern.idx, g, g_path[lo:top])
        g = g_path[lo]
    return g_path


# ---------------------------------------------------------------------------
# turnpike hypotheses and construction


class TurnpikeHypothesisError(ValueError):
    """A named hypothesis of the frozen-control construction fails."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("turnpike hypotheses violated: " + "; ".join(self.failures))


@dataclass(frozen=True)
class HypothesisReport:
    """Named margins of the turnpike hypotheses (all must be > 0 / satisfied)."""

    margins: dict[str, float]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_turnpike_hypotheses(
    p: ModelParams, i: int, gT: ValueVector
) -> HypothesisReport:
    """Check every hypothesis of the frozen-control turnpike construction.

    Named checks, for every j != i:
      strict-consistency-I(j)/S(j): strict interaction-free stationary
        optimality conditions for strategy i
        (``stationary._small_interaction_single``);
      rate-ordering-q-plus(j)/q-minus(j): q_plus_j > q_plus_i and
        q_minus_i > q_minus_j;
      terminal-cone-*: gT has g(jI) >= g(jS) everywhere and strategy i
        minimal in both compartments (the I/S-min margins are
        ``model.best_response_margins`` of gT at base (i, i));
      terminal-gap-smallness-I(j)/S(j): the terminal gap g_T(iI) - g_T(iS)
        is small enough that the cone bound propagates, using the
        conservative envelope gap <= gT_gap + (w_I_i - w_S_i)/(q_plus_i +
        q_minus_i + delta) and worst-case interaction extremes on the S side.
    ValueError when gT's dimension is not p's or i is not a strategy in
    [0, d).
    """
    _check_dims(p, gT)
    (base,) = _pair(p.d, i)
    margins: dict[str, float] = {}
    failures: list[str] = []

    def record(name: str, margin: float, strict: bool = True) -> None:
        margins[name] = float(margin)
        if margin <= 0 if strict else margin < 0:
            failures.append(f"{name} (margin {margin:.6g})")

    w_gap = float(p.w_I[i] - p.w_S[i])
    den0 = float(p.q_plus[i] + p.q_minus[i] + p.delta)
    gT_gap = gT.g_I(i) - gT.g_S(i)
    envelope = gT_gap + w_gap / den0  # bound on g(iI) - g(iS) along the run
    strict = _small_interaction_single(ParamStack.tile(p), base)
    strict_I, strict_S = (m[0] for m in strict)  # row 0: the one pair
    cone_I, cone_S = (m[0] for m in best_response_margins(base, base, gT.g[None]))
    for j in range(p.d):
        if j == i:
            continue
        lbl = f"({j + 1})"
        record("strict-consistency-I" + lbl, strict_I[j])
        record("strict-consistency-S" + lbl, strict_S[j])
        record("rate-ordering-q-plus" + lbl, float(p.q_plus[j] - p.q_plus[i]))
        record("rate-ordering-q-minus" + lbl, float(p.q_minus[i] - p.q_minus[j]))
        record(
            "terminal-gap-smallness-I" + lbl,
            float(p.w_I[j] - p.w_I[i]) - float(p.q_plus[j] - p.q_plus[i]) * envelope,
        )
        s_coeff = (
            float(p.q_minus[i] - p.q_minus[j])
            + float(p.beta[:, i].max())
            - float(p.beta[:, j].min())
        )
        record(
            "terminal-gap-smallness-S" + lbl,
            float(p.w_S[j] - p.w_S[i]) - s_coeff * envelope,
        )
        record("terminal-cone-I-min" + lbl, cone_I[j], strict=False)
        record("terminal-cone-S-min" + lbl, cone_S[j], strict=False)
    for j in range(p.d):
        record(f"terminal-cone-gap({j + 1})", gT.g_I(j) - gT.g_S(j), strict=False)
    return HypothesisReport(margins=margins, failures=failures)


def require_turnpike_hypotheses(p: ModelParams, i: int, gT: ValueVector) -> None:
    """Raise TurnpikeHypothesisError naming every failed hypothesis of
    ``check_turnpike_hypotheses``; the config layer and ``solve_turnpike``
    both refuse a construction this way."""
    report = check_turnpike_hypotheses(p, i, gT)
    if not report.ok:
        raise TurnpikeHypothesisError(report.failures)


@dataclass(frozen=True)
class TurnpikeStats:
    """Turnpike statistics against the stationary anchor (x_star, g_star).

    sup_x_mid / sup_g_mid are sup distances over the trimmed mid-horizon
    ``window``; entry / exit are the first and last node times within
    DEFAULT_WINDOW_EPS of the stationary pair (None when never entered) and
    inside_fraction the share of nodes within it.
    """

    window: tuple[float, float]
    sup_x_mid: float
    sup_g_mid: float
    entry: float | None
    exit: float | None
    inside_fraction: float
    x_star: MixedState
    g_star: ValueVector

    @property
    def never_entered(self) -> bool:
        return self.entry is None


def _mid_window(grid: TimeGrid) -> tuple[float, float]:
    """The grid's horizon less MID_WINDOW_TRIM of it at each end."""
    return (grid.t_start + MID_WINDOW_TRIM * grid.horizon,
            grid.t_end - MID_WINDOW_TRIM * grid.horizon)


def _turnpike_stats(grid: TimeGrid, x_path: np.ndarray, g_path: np.ndarray,
                    x_star: MixedState, g_star: ValueVector) -> TurnpikeStats:
    times = grid.times()
    dx = np.max(np.abs(x_path - x_star.x), axis=1)
    dg = np.max(np.abs(g_path - g_star.g), axis=1)
    lo, hi = _mid_window(grid)
    mid = (times >= lo) & (times <= hi)
    inside = (dx <= DEFAULT_WINDOW_EPS) & (dg <= DEFAULT_WINDOW_EPS)
    idx = np.nonzero(inside)[0]
    return TurnpikeStats(
        window=(lo, hi),
        sup_x_mid=float(dx[mid].max()),
        sup_g_mid=float(dg[mid].max()),
        entry=float(times[idx[0]]) if idx.size else None,
        exit=float(times[idx[-1]]) if idx.size else None,
        inside_fraction=float(inside.mean()),
        x_star=x_star,
        g_star=g_star,
    )


@dataclass(frozen=True)
class TrajectorySolution:
    """A certified (or diagnosed) frozen-control time-dependent solution."""

    control: StationaryControl
    grid: TimeGrid
    x_path: np.ndarray
    g_path: np.ndarray
    cone_ok: np.ndarray
    argmin_ok: np.ndarray
    certified: bool
    first_violation_time: float | None
    stats: TurnpikeStats


def stationary_anchor(p: ModelParams, i: int) -> tuple[MixedState, ValueVector]:
    """The all-to-i stationary pair (x*, g*) a turnpike is anchored at: the
    single(i) row of the kernel (``stationary._solve_pair``), which may be
    rejected as an equilibrium; RuntimeError with its detail when it failed."""
    _, sol = _solve_pair(p, i, i)
    return MixedState(sol.x[0]), ValueVector(sol.g[0])


def check_turnpike_grid(p: ModelParams, grid: TimeGrid) -> None:
    """ValueError when a turnpike cannot run on the grid.

    The mid-horizon window of ``TurnpikeStats`` must hold a node, which
    takes at least 2 steps.  The backward sweep must be stable: under the
    frozen control single(i) the value equation is dg/dtau = A g + w with
    A = Q(x) - delta, block-triangular once the (iI, iS) block comes first.
    That block has eigenvalues -delta and -delta - (q_plus_i + q~_i), and
    each j != i block, [[-lam - q_plus_j, q_plus_j], [q~_j, -lam - q~_j]]
    less delta, has -lam - delta and -lam - delta - (q_plus_j + q~_j).  So
    every eigenvalue is real, in [-rate, -delta] with
        rate = lam + delta + max_j (q_plus_j + q_minus_j + max_k beta_kj),
    since q~_j = q_minus_j + sum_k beta_kj x_kI and the infected shares sum
    to at most 1.  Classical RK4 damps a real mode z only for h z in
    [-2.7853, 0]; past it the mode grows every step, so h * rate must not
    exceed RK4_REAL_STABILITY.
    """
    lo, hi = _mid_window(grid)
    if grid.n_steps < 2:
        raise ValueError(f"the mid-horizon window [{lo:g}, {hi:g}] holds no node of a "
                         f"{grid.n_steps}-step grid: a turnpike needs n_steps >= 2")
    _require_rk4_stable(p, grid.h, p.lam + p.delta, "rate", "backward sweep")


def check_forward_grid(p: ModelParams, grid: TimeGrid) -> None:
    """ValueError when the forward sweep would blow up on the grid.

    The exponential step solves the decisions exactly, so its stability is
    that of the exchange, the part its stages evaluate.  On the rows of a
    strategy that is its own target M is zero, so e^{hM} is the identity
    there and phi_k = 1/k!: the step is classical RK4 on that strategy's
    exchange (ETDRK4 with M = 0 is classical RK4).  With the peer rate
    frozen, strategy j's exchange x_jS q~_j - x_jI q_plus_j has the
    eigenvalues 0 and -(q_plus_j + q~_j), and q~_j <= q_minus_j + max_k
    beta_kj since the infected shares sum to at most 1.  Classical RK4
    damps a real mode z only for h z in [-2.7853, 0]; past it the mode grows
    every step until the path leaves the simplex.  So h * rate with
        rate = max_j (q_plus_j + q_minus_j + max_k beta_kj)
    must not exceed RK4_REAL_STABILITY; lam does not enter.

    lam enters the step's float range instead.  ``graded_opening`` takes
    2^k with k = ceil(log2(h lam / 0.1)), and ``_expm`` 2^s with
    s = ceil(log2(|hM|_1 / 0.5)), where |M|_1 <= d lam: a column of M holds
    lam from each of at most d states of one compartment.  Both powers must
    stay finite, at most 2^1023 (``np.finfo(float).maxexp`` - 1), so h lam
    must not exceed min(0.1, 0.5 / d) 2^1023.
    """
    _require_rk4_stable(p, grid.h, 0.0, "slow rate", "forward sweep")
    top = min(0.1, 0.5 / p.d) * 2.0 ** (np.finfo(float).maxexp - 1)
    if grid.h * p.lam > top:
        raise ValueError(
            f"step {grid.h:.4g} times lam {p.lam:.4g} is {grid.h * p.lam:.4g}, past "
            f"{top:.4g}: the forward sweep's opening substeps and exponentials would "
            f"overflow"
        )


def _require_rk4_stable(p: ModelParams, h: float, fast: float, what: str, sweep: str) -> None:
    """ValueError naming the sweep when h times the rate, fast + max_j
    (q_plus_j + q_minus_j + max_k beta_kj), is past RK4_REAL_STABILITY."""
    with np.errstate(over="ignore"):  # a rate past the float range is refused as inf
        rate = fast + float(np.max(p.q_plus + p.q_minus + p.beta.max(axis=0)))
    if h * rate > RK4_REAL_STABILITY:
        raise ValueError(
            f"step {h:.4g} times the fastest {what} {rate:.4g} is {h * rate:.4g}, past "
            f"classical RK4's real stability bound {RK4_REAL_STABILITY}: the {sweep} "
            f"would blow up"
        )


def solve_turnpike(
    p: ModelParams, i: int, x0: MixedState, gT: ValueVector, grid: TimeGrid,
    anchor: tuple[MixedState, ValueVector] | None = None,
) -> TrajectorySolution:
    """Construct and certify the frozen-control solution anchored at i.

    ``anchor`` is ``stationary_anchor(p, i)``, solved here when not given.
    Raises TurnpikeHypothesisError when a named hypothesis (including the
    terminal-cone membership of gT) fails, and then ValueError when the grid
    is refused (``check_turnpike_grid``).  A cone or argmin violation along
    the integrated path is diagnostic output, not an exception: the solution
    is returned uncertified with the first violation time.
    """
    require_turnpike_hypotheses(p, i, gT)
    check_turnpike_grid(p, grid)
    u = StationaryControl.single(p.d, i)
    x_path = integrate_forward(p, x0, u, grid)
    g_path = integrate_backward(p, gT, x_path, u, grid)
    per_node = sweep_block(p.n_states, 1)  # chunks of nodes bound the flags' temporaries
    chunks = [g_path[lo:lo + per_node] for lo in range(0, grid.n_steps + 1, per_node)]
    cone_ok = np.concatenate([cone_flags(g, i) for g in chunks])
    argmin_ok = np.concatenate([argmin_flags(g, u) for g in chunks])
    ok = cone_ok & argmin_ok
    certified = bool(ok.all())
    first_violation = None if certified else float(grid.times()[np.argmin(ok)])

    stats = _turnpike_stats(grid, x_path, g_path, *(anchor or stationary_anchor(p, i)))
    return TrajectorySolution(
        control=u,
        grid=grid,
        x_path=x_path,
        g_path=g_path,
        cone_ok=cone_ok,
        argmin_ok=argmin_ok,
        certified=certified,
        first_violation_time=first_violation,
        stats=stats,
    )
