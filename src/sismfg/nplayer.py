"""Exact-jump simulation of the N-player Markov game.

The continuous-time chain moves one agent at a time through four channel
kinds per strategy j:

  decision   (j,C) -> (target, C) at rate lam per agent, only when the
             control's target differs from j (agents already at their
             target generate no event),
  pressure   (j,S) -> (j,I) at rate q_minus[j] per agent,
  recovery   (j,I) -> (j,S) at rate q_plus[j] per agent,
  peer       (j,S) -> (j,I) at rate sum_k beta[k,j] n_kI / N per agent.

They are the edges of the population generator that move an agent, and
``model.Generator.channels`` lists them; the jump loop and the event
decoding of ``simulate_ctmc`` read that table.  The 1/N normalization of
the peer channel makes the expected drift of n/N equal the population ODE
right-hand side exactly, at every count state, which is the defining link
to the mean-field limit (checked by tests).

The jump loop (Gillespie's direct method) evaluates the live channels only.
Only decisions move agents between strategies, so a strategy that no
decision channel leads to never regains agents: once both of its states
are empty, its channels have rate 0 for the rest of the run and leave the
loop's table.  A rate of 0.0 changes neither the total rate nor the
cumulative sums the pick is compared against, so the path is bitwise the
one the full table gives.

The channel rates and their prefix sums depend only on the count state,
and after the opening migration the chain revisits a few hundred states.
So the loop keeps them per state, keyed by the integer code
sum_s n_s (N+1)^s, which each jump moves by its channel's step.  A state met
again reuses the very floats that the same operations on the same counts
made before, so the path stays bitwise the one recomputation gives.  The
store holds at most ``_RATE_CACHE`` states and is emptied when full; it
goes with the live table, since its entries index that table's channels.

``lln_error`` compares every replication with the population ODE path at
fixed compare times.  That reference is exponential RK4 (ETDRK4), whose
step follows the slow rates instead of lam, on the grid that
``dynamics.lln_reference_grid`` works out; the config layer budgets the
same grid.  A recorded path (``simulate_ctmc``) is refused once its count
table would exceed ``dynamics.GRID_BUDGET``, and a population whose total
jump rate could overflow is refused before it runs (``check_rate_bound``).

Randomness: Philox counter-based bit generators.  ``simulate_ctmc`` uses
Philox([seed]); ``lln_error`` gives replication r at population size N the
stream Philox([seed, N, r]), so every replication is independently
reproducible and replications can run concurrently.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .model import DECISION, PEER, Generator, MixedState, ModelParams, StationaryControl
from .dynamics import ETDRK4, integrate_forward, lln_reference_grid

_RNG_BUFFER = 8192
#: count states whose rate table the jump loop keeps; the cache is emptied
#: when it reaches this size
_RATE_CACHE = 256
#: the largest total jump rate a run admits: half the largest float, so the
#: loop's running sum of channel rates stays finite with room to spare
RATE_LIMIT = np.finfo(float).max / 2


@dataclass(frozen=True)
class CountVector:
    """Agent counts per state, interleaved (0I, 0S, 1I, 1S, ...)."""

    n: np.ndarray

    def __post_init__(self):
        arr = np.array(self.n, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2 or arr.size % 2:
            raise ValueError(f"count vector must have even length >= 2, got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("agent counts must be >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr)

    @property
    def N(self) -> int:
        return int(self.n.sum())

    @property
    def d(self) -> int:
        return self.n.size // 2

    def fractions(self) -> MixedState:
        return MixedState(self.n / self.N)

    @classmethod
    def from_fractions(cls, x: MixedState, N: int) -> "CountVector":
        """Largest-remainder rounding of x*N to integer counts summing to N.

        Ties in the remainders break by state order, so the rounding is
        deterministic.
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        quota = x.x * N
        base = np.floor(quota).astype(np.int64)
        left = N - int(base.sum())
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:left]] += 1
        return cls(base)


@dataclass(frozen=True)
class CtmcPath:
    """Piecewise-constant jump path: counts are constant between event times."""

    initial: CountVector
    times: np.ndarray        # (m,), strictly increasing event times
    from_state: np.ndarray   # (m,), state index the moving agent leaves
    to_state: np.ndarray     # (m,)
    kinds: np.ndarray        # (m,), int codes into model.KIND_NAMES
    t_end: float

    @property
    def n_events(self) -> int:
        return self.times.size

    def counts(self) -> np.ndarray:
        """Counts after each event; shape (m+1, 2d), row 0 is the initial state."""
        m = self.n_events
        out = np.zeros((m + 1, self.initial.n.size), dtype=np.int64)
        out[0] = self.initial.n
        # one -1 and one +1 per event row (from and to states differ), summed down
        rows = np.arange(1, m + 1)
        out[rows, self.from_state] = -1
        out[rows, self.to_state] = 1
        return np.cumsum(out, axis=0, out=out)

    def terminal(self) -> CountVector:
        n = self.initial.n.copy()
        np.subtract.at(n, self.from_state, 1)
        np.add.at(n, self.to_state, 1)
        return CountVector(n)


def _compare(n: list, N: float, times: list, rows: list, gi: int, upto: float, sup: float):
    """Raise sup to max_q |n_q/N - rows[g][q]| over the compare times
    times[g] < upto from index gi on; returns the next index and sup."""
    while gi < len(times) and times[gi] < upto:
        for a, b in zip(n, rows[gi]):
            err = a / N - b
            if err < 0.0:
                err = -err
            if err > sup:
                sup = err
        gi += 1
    return gi, sup


def _check_path_budget(p: ModelParams, n0: CountVector, t_end: float, n_events: int) -> None:
    """Refuse a recorded path whose count table, (events + 1) x 2d entries
    (``CtmcPath.counts``), would exceed ``dynamics.GRID_BUDGET``."""
    if (n_events + 1) * n0.n.size > dynamics.GRID_BUDGET:
        raise ValueError(
            f"CTMC path over budget: N={n0.N}, lambda={p.lam:g}, T={t_end:g} recorded "
            f"{n_events} events, whose count table exceeds the grid budget of "
            f"{dynamics.GRID_BUDGET} entries (events + 1) x 2d"
        )


def check_rate_bound(p: ModelParams, N: int) -> None:
    """Refuse N agents whose total jump rate could pass ``RATE_LIMIT``.

    An agent leaves its state at most at rate R = lam + max q_plus +
    max q_minus + max_j sum_k beta[k, j] (one decision, pressure or
    recovery channel, and the peer channel, whose coefficient is at most
    the column sum of beta), so every partial sum of the jump loop's channel
    rates is at most N R.
    """
    with np.errstate(over="ignore"):
        bound = N * (p.lam + p.q_plus.max() + p.q_minus.max() + p.beta.sum(axis=0).max())
    if not bound <= RATE_LIMIT:
        raise ValueError(
            f"N={N} agents may jump at a total rate of N (lambda + max q_plus + max q_minus "
            f"+ max column sum of beta) = {bound:.3g}, above {RATE_LIMIT:.3g}"
        )


def _simulate(
    p: ModelParams,
    chans: list[tuple[int, int, int, float]],
    n0: CountVector,
    t_end: float,
    key: list[int],
    events: tuple[list, list] | None = None,
    compare: tuple[list, list] | None = None,
) -> float:
    """Drive the jump chain from n0 on [0, t_end] with the draws of Philox(key).

    ``chans`` is the channel table (``model.Generator.channels``).
    ``events``, a pair of lists, receives the time and the index into
    ``chans`` of every jump; at each refill of the draws the recorded path
    is checked against the budget (``_check_path_budget``).  ``compare``,
    a pair (times, rows) of increasing compare times and reference states,
    makes the run return the sup over those times of max_q |n_q(t)/N -
    row_q|, n(t) being the counts in force at each time; without it the
    run returns 0.0.

    Rates are those of the live channels (see the module docstring), kept
    in plain Python floats: the loop is the hot path and scalar numpy would
    dominate the cost.  The prefix sums and total of a count state are
    computed at its first visit and kept under its code, so a later visit
    skips the peer and prefix-sum loops and picks from the same floats.
    The store is emptied when it holds ``_RATE_CACHE`` states and replaced
    with the live table.  Draws come in blocks of _RNG_BUFFER exponentials
    then _RNG_BUFFER uniforms.  A state where every channel rate is zero is
    absorbing and ends the run.
    """
    d = p.d
    n = [float(v) for v in n0.n]
    N = float(n0.N)
    # bcols[j][k] = beta[k, j]: the peer sum of strategy j runs over k in order
    bcols = [[float(p.beta[k, j]) for k in range(d)] for j in range(d)]
    fed = {to // 2 for _, to, kind, _ in chans if kind == DECISION}
    # mortal[s]: nothing migrates into the strategy of state s, so once its
    # two states are empty they stay empty
    mortal = [s // 2 not in fed for s in range(2 * d)]

    # code = sum_s n_s (N+1)^s names the count state; a jump on channel c
    # adds step[c] to it
    base = [(n0.N + 1) ** s for s in range(2 * d)]

    def live_table():
        alive = [j for j in range(d) if not (mortal[2 * j] and n[2 * j] == n[2 * j + 1] == 0.0)]
        ids = [c for c, ch in enumerate(chans) if ch[0] // 2 in alive]
        infected = [2 * k for k in alive]
        # peer slots of coef are overwritten before every use
        peer = [(slot, [bcols[chans[c][3]][q // 2] for q in infected])
                for slot, c in enumerate(ids) if chans[c][2] == PEER]
        return (ids, [chans[c][0] for c in ids], [chans[c][1] for c in ids],
                [chans[c][3] for c in ids], peer, infected,
                [base[chans[c][1]] - base[chans[c][0]] for c in ids], {})

    ids, frm, to, coef, peer, infected, step, cache = live_table()
    code = sum(int(v) * b for v, b in zip(n0.n, base))
    cmp_times, cmp_rows = compare if compare is not None else ([], [])
    gi, sup = 0, 0.0
    next_cmp = cmp_times[0] if cmp_times else float("inf")
    rng = np.random.Generator(np.random.Philox(key))
    i = _RNG_BUFFER
    t = 0.0
    while True:
        rates = cache.get(code)
        if rates is None:
            for slot, col in peer:
                s = 0.0
                for b, q in zip(col, infected):
                    s += b * n[q]
                coef[slot] = s / N
            cum = []
            total = 0.0
            for c, f in zip(coef, frm):
                total += c * n[f]
                cum.append(total)
            if len(cache) == _RATE_CACHE:
                cache.clear()
            cache[code] = cum, total
        else:
            cum, total = rates
        if total <= 0.0:
            break
        if i == _RNG_BUFFER:
            if events is not None:
                _check_path_budget(p, n0, t_end, len(events[0]))
            exps = rng.standard_exponential(_RNG_BUFFER).tolist()
            unis = rng.random(_RNG_BUFFER).tolist()
            i = 0
        t += exps[i] / total
        if t > t_end:
            break
        if t > next_cmp:
            gi, sup = _compare(n, N, cmp_times, cmp_rows, gi, t, sup)
            next_cmp = cmp_times[gi] if gi < len(cmp_times) else float("inf")
        # unis[i] < 1 makes the pick < total = cum[-1], so an index always exists,
        # and never one of a zero-rate channel
        chosen = bisect_right(cum, unis[i] * total)
        i += 1
        if events is not None:
            events[0].append(t)
            events[1].append(ids[chosen])
        f = frm[chosen]
        n[f] -= 1.0
        n[to[chosen]] += 1.0
        code += step[chosen]
        if n[f] == 0.0 and mortal[f] and n[f ^ 1] == 0.0:
            ids, frm, to, coef, peer, infected, step, cache = live_table()
    return _compare(n, N, cmp_times, cmp_rows, gi, float("inf"), sup)[1]


def simulate_ctmc(
    p: ModelParams,
    n0: CountVector,
    u: StationaryControl,
    t_end: float,
    seed: int,
) -> CtmcPath:
    """Exact-jump path of the N-agent chain on [0, t_end] (deterministic in seed).

    A path whose count table would exceed ``dynamics.GRID_BUDGET`` entries is
    refused with a ValueError, during the run (checked every _RNG_BUFFER
    events) or at its end; so, before the run, is a population whose jump
    rates could overflow (``check_rate_bound``).
    """
    if n0.d != p.d:
        raise ValueError(f"dimension mismatch: params d={p.d}, counts d={n0.d}")
    if n0.N < 1:
        raise ValueError("at least one agent is required")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    check_rate_bound(p, n0.N)
    chans = Generator.of(p, u).channels()
    times: list[float] = []
    picks: list[int] = []
    _simulate(p, chans, n0, t_end, [seed], events=(times, picks))
    _check_path_budget(p, n0, t_end, len(times))
    table = np.array([ch[:3] for ch in chans], dtype=np.int64)
    picks_arr = np.asarray(picks, dtype=np.int64)
    frm, to, kinds = (table[picks_arr, col] for col in range(3))
    return CtmcPath(
        initial=n0,
        times=np.asarray(times, dtype=float),
        from_state=frm,
        to_state=to,
        kinds=kinds,
        t_end=float(t_end),
    )


@dataclass(frozen=True)
class LlnErrorRow:
    N: int
    mean_sup_error: float
    std_error: float
    sup_errors: np.ndarray


@dataclass(frozen=True)
class LlnErrorTable:
    """Per-N rows, and the ETDRK4 step count of the ODE reference."""

    rows: list[LlnErrorRow]
    replications: int
    t_end: float
    reference_steps: int

    def ratios(self) -> list[float]:
        """Consecutive mean-error ratios between successive N values."""
        means = [r.mean_sup_error for r in self.rows]
        return [means[m] / means[m + 1] for m in range(len(means) - 1)]


def _reference(
    p: ModelParams, u: StationaryControl, x0: MixedState, t_end: float
) -> tuple[list, list, int]:
    """Compare times and ODE rows of ``lln_error``, and the reference's steps:
    ETDRK4 on ``lln_reference_grid``, read at every k-th node."""
    times, grid = lln_reference_grid(p, t_end)
    k = grid.n_steps // (times.size - 1)
    x_rows = integrate_forward(p, x0, u, grid, method=ETDRK4)[::k]
    return times.tolist(), x_rows.tolist(), grid.n_steps


def lln_error(
    p: ModelParams,
    u: StationaryControl,
    x0: MixedState,
    t_end: float,
    N_list: list[int],
    replications: int,
    seed: int,
) -> LlnErrorTable:
    """Mean sup-norm distance between n(t)/N and the population ODE path.

    For each N, averages over ``replications`` independent runs (stream
    Philox([seed, N, r])); errors are expected to shrink like N^{-1/2}.
    The ODE reference is exponential RK4 (ETDRK4), whose step follows the
    slow rates, compared at about ``dynamics.REFERENCE_COMPARE`` nodes of the
    default grid (``dynamics.lln_reference_grid``).
    """
    if not N_list:
        raise ValueError("N_list must be non-empty")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    check_rate_bound(p, max(N_list))
    cmp_times, cmp_rows, steps = _reference(p, u, x0, t_end)
    compare = (cmp_times, cmp_rows)
    chans = Generator.of(p, u).channels()
    rows = []
    for N in N_list:
        n0 = CountVector.from_fractions(x0, N)
        errs = np.empty(replications)
        for r in range(replications):
            errs[r] = _simulate(p, chans, n0, t_end, [seed, N, r], compare=compare)
        std_err = float(errs.std(ddof=1) / np.sqrt(replications)) if replications > 1 else 0.0
        rows.append(
            LlnErrorRow(
                N=int(N),
                mean_sup_error=float(errs.mean()),
                std_error=std_err,
                sup_errors=errs,
            )
        )
    return LlnErrorTable(rows=rows, replications=replications, t_end=float(t_end),
                         reference_steps=steps)
