"""Data model and the generator of the strategic SIS game.

Agents occupy one of 2d states (j, I) or (j, S): strategy j in {0..d-1}
combined with an infected or susceptible compartment.  Vectors over states
use the fixed interleaved order (0I, 0S, 1I, 1S, ...); public file formats
label the same order 1-based (x_1I, x_1S, ...).

The population is a nonlinear Markov chain on these states (Kolokoltsov,
*Nonlinear Markov Processes and Kinetic Equations*, 2010), and the module
writes its dynamics once, as the generator
Q(x) = Q0 + sum_k x_kI Q_k: Q0 holds the decisions at rate lam and the
pressure and recovery rates, Q_k the peer edges jS -> jI at beta[k, j].
``Generator`` holds its edge table, at one point or stacked over the
points of a ``ParamStack``, and reads off it every product the package
uses:
  - the population ODE right-hand side x Q(x) (``Generator.forward`` in
    flow form; at one point ``kinetic_rhs_fn`` compiles it per control
    into one matmul; ``kinetic_rhs``), its exact Jacobian, and its split
    into the constant generator of the decisions and the exchange for the
    exponential integrator,
  - Q(x) g, and with it the backward right-hand side of the discounted
    optimal-cost equation (``Generator.value_rhs``; ``hjb_rhs_fn`` and
    ``hjb_rhs``), where the Hamiltonian puts the explicit strategy minimum
    in place of the values at the targets,
  - the channel table of the N-agent jump chain.
It also provides the parameter / state / control / value containers with
their invariants, ``ParamStack`` (the constants of many parameter points
stacked as arrays), the best-response operator, the best-response
margins and their tie rule (``best_response_margins``, ``margin_summary``;
the stationary kernel and the turnpike's flags and hypotheses read them)
and the scalar stationarity certificate ``consistency_residual``.

All functions are pure; containers are frozen and hold read-only arrays
(``ParamStack`` excepted: a sweep writes its axes into one), and a
``Generator`` is never changed after it is built, so everything here is
safe under unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

#: tolerance for "the entries sum to one" on population states
SIMPLEX_TOL = 1e-12
#: absolute tie tolerance for argmin comparisons between strategies
TIE_TOL = 1e-10


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """All game constants.

    d        -- number of strategies (>= 1)
    lam      -- rate at which an agent's pending strategy decision executes
    delta    -- discount rate (>= 0; stationary value solves need > 0)
    q_plus   -- per-strategy recovery rate, I -> S
    q_minus  -- per-strategy direct-pressure infection rate, S -> I
    beta     -- beta[k, j]: rate at which one (k, I) agent pushes a (j, S)
                agent into (j, I); enters through the mean field
    w_I, w_S -- running cost per unit time in (j, I) / (j, S); w_S < w_I
                because the susceptible state is the better one
    """

    d: int
    lam: float
    delta: float
    q_plus: np.ndarray
    q_minus: np.ndarray
    beta: np.ndarray
    w_I: np.ndarray
    w_S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "delta", float(self.delta))
        for name in ("q_plus", "q_minus", "w_I", "w_S", "beta"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        errors = self.invariant_errors()
        if errors:
            raise ValueError("; ".join(errors))

    def invariant_errors(self) -> list[str]:
        """All violated invariants, one message each (empty list if valid)."""
        errs: list[str] = []
        if self.d < 1:
            errs.append(f"d must be >= 1, got {self.d}")
            return errs
        for name in ("q_plus", "q_minus", "w_I", "w_S"):
            if getattr(self, name).shape != (self.d,):
                errs.append(f"{name} must have shape ({self.d},), got {getattr(self, name).shape}")
        if self.beta.shape != (self.d, self.d):
            errs.append(f"beta must have shape ({self.d}, {self.d}), got {self.beta.shape}")
        if errs:
            return errs
        return [msg for msg, _ in ParamStack.tile(self).violations()]

    @property
    def n_states(self) -> int:
        return 2 * self.d


@dataclass(frozen=True)
class ParamStack:
    """The constants of n parameter points, stacked along a leading axis.

    lam and delta have shape (n,), q_plus, q_minus, w_I and w_S (n, d) and
    beta (n, d, d).  The arrays are writable, so a sweep can write its axes
    into a stack tiled from one model (``config.apply_override``).
    """

    lam: np.ndarray
    delta: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    beta: np.ndarray
    w_I: np.ndarray
    w_S: np.ndarray

    @classmethod
    def tile(cls, p: ModelParams, n: int = 1) -> "ParamStack":
        """n copies of the constants of p."""
        return cls(*(np.asarray(a, dtype=float)[None].repeat(n, axis=0)
                     for a in (p.lam, p.delta, p.q_plus, p.q_minus, p.beta, p.w_I, p.w_S)))

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def d(self) -> int:
        return self.q_plus.shape[1]

    def take(self, idx) -> "ParamStack":
        """The points at idx (an index array or slice)."""
        return ParamStack(*(getattr(self, f.name)[idx] for f in fields(self)))

    def rate_roundoff(self) -> np.ndarray:
        """64 eps times the largest rate (lam, q_plus, q_minus or beta) per
        point: the roundoff of a computation that multiplies by every rate."""
        rate = np.maximum.reduce([
            self.lam, self.q_plus.max(axis=1), self.q_minus.max(axis=1),
            self.beta.max(axis=(1, 2)),
        ])
        return 64.0 * np.finfo(float).eps * rate

    def violations(self, positive_discount: bool = False) -> list[tuple[str, np.ndarray]]:
        """The value invariants of ``ModelParams`` (and delta > 0 when
        positive_discount) that some point breaks: one (message, mask of the
        offending points) per invariant, the message worded at the first
        offending point."""
        out: list[tuple[str, np.ndarray]] = []

        def check(ok: np.ndarray, message) -> None:
            if not ok.all():
                first = int(np.argmin(ok))
                out.append((message(first), ~ok))

        check(self.lam > 0, lambda n: f"lam must be > 0, got {self.lam[n]}")
        if positive_discount:
            check(self.delta > 0, lambda n: "delta must be > 0 for stationary discounted "
                                            f"values, got {self.delta[n]}")
        else:
            check(self.delta >= 0, lambda n: f"delta must be >= 0, got {self.delta[n]}")
        check(np.all(self.q_plus > 0, axis=1), lambda n: "q_plus entries must be > 0")
        check(np.all(self.q_minus > 0, axis=1), lambda n: "q_minus entries must be > 0")
        check(np.all(self.beta >= 0, axis=(1, 2)), lambda n: "beta entries must be >= 0")
        ordered = self.w_S < self.w_I

        def cost_message(n: int) -> str:
            js = ", ".join(str(j + 1) for j in np.nonzero(~ordered[n])[0])
            return (f"w_S must be < w_I for every strategy (susceptible is the better, "
                    f"cheaper state); violated at strategy {js}")

        check(np.all(ordered, axis=1), cost_message)
        return out


@dataclass(frozen=True)
class MixedState:
    """Population distribution over the 2d states (a point on the simplex)."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x))
        if self.x.ndim != 1 or self.x.size < 2 or self.x.size % 2:
            raise ValueError(f"state vector must have even length >= 2, got shape {self.x.shape}")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("state entries must be finite")
        if np.any(self.x < 0):
            raise ValueError(f"state entries must be >= 0, min is {self.x.min()}")
        total = float(self.x.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"state entries must sum to 1 within {SIMPLEX_TOL}, got {total!r}")

    @property
    def d(self) -> int:
        return self.x.size // 2

    def x_I(self, j: int) -> float:
        return float(self.x[2 * j])

    def x_S(self, j: int) -> float:
        return float(self.x[2 * j + 1])

    @property
    def infected(self) -> np.ndarray:
        """Infected fractions per strategy (view)."""
        return self.x[0::2]

    @classmethod
    def uniform(cls, d: int) -> "MixedState":
        return cls(np.full(2 * d, 1.0 / (2 * d)))


@dataclass(frozen=True, eq=False)
class StationaryControl:
    """Strategy targets per state: target_I[j] / target_S[j] in {0..d-1}.

    The canonical families are ``single(d, i)`` (everyone heads to strategy
    i) and ``mixed(d, i, k)`` (infected head to i, susceptible to k != i).
    """

    target_I: np.ndarray
    target_S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target_I", _frozen_array(self.target_I, dtype=np.int64))
        object.__setattr__(self, "target_S", _frozen_array(self.target_S, dtype=np.int64))
        d = self.target_I.size
        if self.target_S.size != d:
            raise ValueError("target_I and target_S must have equal length")
        for name, t in (("target_I", self.target_I), ("target_S", self.target_S)):
            if t.ndim != 1 or np.any(t < 0) or np.any(t >= d):
                raise ValueError(f"{name} entries must be strategies in [0, {d})")

    @classmethod
    def single(cls, d: int, i: int) -> "StationaryControl":
        return cls(np.full(d, i), np.full(d, i))

    @classmethod
    def mixed(cls, d: int, i: int, k: int) -> "StationaryControl":
        if k == i:
            raise ValueError("mixed control requires k != i")
        return cls(np.full(d, i), np.full(d, k))

    @property
    def d(self) -> int:
        return self.target_I.size

    @property
    def is_uniform(self) -> bool:
        """True when all I-targets agree and all S-targets agree."""
        return (
            bool(np.all(self.target_I == self.target_I[0]))
            and bool(np.all(self.target_S == self.target_S[0]))
        )

    @property
    def is_single(self) -> bool:
        return self.is_uniform and self.target_I[0] == self.target_S[0]

    @property
    def is_mixed(self) -> bool:
        return self.is_uniform and self.target_I[0] != self.target_S[0]

    def as_pair(self) -> tuple[int, int]:
        """(i, k) for a uniform control: I-states target i, S-states target k."""
        if not self.is_uniform:
            raise ValueError("control is not of the uniform [i(I), k(S)] form")
        return int(self.target_I[0]), int(self.target_S[0])

    def label(self) -> str:
        """Human-readable 1-based label, e.g. 'single(1)' or 'mixed(1,2)'."""
        if self.is_single:
            return f"single({self.target_I[0] + 1})"
        if self.is_mixed:
            return f"mixed({self.target_I[0] + 1},{self.target_S[0] + 1})"
        return f"targets_I={ (self.target_I + 1).tolist() },targets_S={ (self.target_S + 1).tolist() }"

    def sort_key(self) -> tuple:
        return tuple(self.target_I.tolist()) + tuple(self.target_S.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StationaryControl):
            return NotImplemented
        return np.array_equal(self.target_I, other.target_I) and np.array_equal(
            self.target_S, other.target_S
        )

    def __hash__(self) -> int:
        return hash(self.sort_key())


@dataclass(frozen=True)
class ValueVector:
    """Discounted optimal cost per state, same interleaved order as MixedState."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen_array(self.g))
        if self.g.ndim != 1 or self.g.size < 2 or self.g.size % 2:
            raise ValueError(f"value vector must have even length >= 2, got shape {self.g.shape}")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("value vector entries must be finite")

    @property
    def d(self) -> int:
        return self.g.size // 2

    def g_I(self, j: int) -> float:
        return float(self.g[2 * j])

    def g_S(self, j: int) -> float:
        return float(self.g[2 * j + 1])

    @property
    def infected_values(self) -> np.ndarray:
        return self.g[0::2]

    @property
    def susceptible_values(self) -> np.ndarray:
        return self.g[1::2]


def _check_dims(p: ModelParams, *vecs) -> None:
    for v in vecs:
        if v.d != p.d:
            raise ValueError(f"dimension mismatch: params have d={p.d}, argument has d={v.d}")


def _interleave(vals_I, vals_S) -> np.ndarray:
    """Per-strategy I and S entries in the state order (0I, 0S, 1I, ...)."""
    vals_I = np.asarray(vals_I)
    out = np.empty(vals_I.shape[:-1] + (2 * vals_I.shape[-1],), dtype=vals_I.dtype)
    out[..., 0::2] = vals_I
    out[..., 1::2] = vals_S
    return out


def state_targets(u: StationaryControl) -> np.ndarray:
    """Target state of every state under u, in the interleaved state order."""
    return _interleave(2 * u.target_I, 2 * u.target_S + 1)


def effective_infection(s, xI: np.ndarray) -> np.ndarray:
    """Effective infection rate q~_j = q_minus_j + sum_k beta[k, j] xI_k of
    every strategy at infected shares xI: one row per point of a
    ``ParamStack`` (or ``Generator``) s, or any leading axes at one point of
    a ``Generator``."""
    if s.beta.ndim == 2:
        return s.q_minus + xI @ s.beta
    return s.q_minus + np.matmul(xI[:, None], s.beta)[:, 0]


#: edge kinds of the generator, in the order of one strategy's edges
DECISION, PRESSURE, RECOVERY, PEER = range(4)
KIND_NAMES = ("decision", "pressure", "recovery", "peer")


class Generator:
    """The generator Q(x) = Q0 + sum_k x_kI Q_k of the population chain, at
    the points of a ``ParamStack`` s under per-point state targets
    (``state_targets``, shape (n, 2d)).  ``Generator.of(p, u)`` is the
    one-point stack, whose arrays carry no point axis.

    Its edge table (``edges``) lists every transition.  Strategy j owns
    five edges, in this order: its I and S decisions, to their targets at
    rate lam (to == frm and rate 0 where a state is its own target);
    pressure jS -> jI at q_minus_j; recovery jI -> jS at q_plus_j; and peer
    jS -> jI, the edge of the Q_k, at rate sum_k beta[k, j] x_kI (constant
    rate 0).  The decision edges, one per state, are each state's decision
    rate ``decide`` toward its target; every other edge joins a state to
    its partner, the other compartment of its strategy, so those make one
    net ``exchange`` per strategy.  The products below and the jump chain's
    ``channels`` are read off these.

    Population states x are rows, as in x Q(x): the states on the last
    axis, one row per point (at one point, ``exchange`` and
    ``switch_rates`` also take leading axes).  Value vectors g are columns,
    as in Q(x) g: the states on the first axis, one column per point (at
    one point, any trailing axes).
    """

    def __init__(self, s: ParamStack, target: np.ndarray):
        points, d = target.shape[:-1], s.d

        def per_point(a: np.ndarray) -> np.ndarray:
            return a.reshape(points + a.shape[1:])

        self.s, self.target = s, target
        self.lam, self.delta = per_point(s.lam), per_point(s.delta)
        self.q_plus, self.q_minus = per_point(s.q_plus), per_point(s.q_minus)
        self.beta = per_point(s.beta)
        self.w = _interleave(per_point(s.w_I), per_point(s.w_S)).T  # a column per point
        self.decide = np.where(target != np.arange(2 * d), self.lam[..., None], 0.0)
        # the target of every state as an index into the flattened rows of all points
        rows = np.arange(0, target.size, 2 * d).reshape(points + (1,))
        self._target_flat = (target + rows).ravel()

    @classmethod
    def of(cls, p: ModelParams, u: StationaryControl | None = None) -> "Generator":
        """The generator of p under control u; without u nobody decides (every
        state is its own target), so only the compartment edges remain."""
        if u is None:
            return cls(ParamStack.tile(p), np.arange(2 * p.d))
        _check_dims(p, u)
        return cls(ParamStack.tile(p), state_targets(u))

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edge table (frm, to, kind, rate), strategy by strategy in the
        order above: edge e moves an agent from state frm[e] to state
        to[..., e] at the constant rate rate[..., e]; kind[e] says why."""
        d = self.q_plus.shape[-1]
        I, S = np.arange(0, 2 * d, 2), np.arange(1, 2 * d, 2)
        frm = np.stack([I, S, S, I, S], axis=1).ravel()
        kind = np.tile([DECISION, DECISION, PRESSURE, RECOVERY, PEER], d)
        # a decision leads to the target, every other edge to the partner state
        to = np.where(kind == DECISION, self.target[..., frm], frm ^ 1)
        rate = np.stack([self.decide[..., 0::2], self.decide[..., 1::2], self.q_minus, self.q_plus,
                         np.zeros_like(self.q_plus)], axis=-1)
        return frm, to, kind, rate.reshape(to.shape)

    @property
    def decisions(self) -> np.ndarray:
        """The constant generator M of the decision edges alone: row s holds
        -lam on its diagonal and lam at its target when s moves, and is zero
        at a target; rows sum to zero, so e^{tM} is stochastic."""
        n = self.target.shape[-1]
        m = (self.target[..., None] == np.arange(n)) * self.decide[..., None]
        m[..., np.arange(n), np.arange(n)] -= self.decide
        return m

    def exchange(self, x: np.ndarray) -> np.ndarray:
        """Net flow over each strategy's compartment edges, jS -> jI (pressure
        and peer) minus jI -> jS (recovery): x_jS q~_j - x_jI q_plus_j with
        q~ the ``effective_infection``."""
        xI = x[..., 0::2]
        return x[..., 1::2] * effective_infection(self, xI) - xI * self.q_plus

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The population RHS x Q(x), built from mass flows so that the
        components sum to zero to roundoff and a zero coordinate never has a
        negative rate (the simplex is forward invariant): each state's
        decision flow decide * x moves to its target, and each strategy's
        ``exchange`` moves from jS to jI."""
        flow = self.decide * x
        out = np.bincount(self._target_flat, flow.ravel(), flow.size).reshape(flow.shape) - flow
        net = self.exchange(x)
        out[..., 0::2] += net
        out[..., 1::2] -= net
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian of ``forward`` at x: entry [..., a, b] is the
        derivative of component a in x_b.  The decisions are linear and
        enter as ``decisions`` transposed; the exchange of strategy j,
        x_jS q~_j - x_jI q_plus_j with q~_j = q_minus_j + sum_k beta[k, j] x_kI,
        is quadratic."""
        d = self.q_plus.shape[-1]
        eye = np.eye(d)
        jac = np.swapaxes(self.decisions, -1, -2)
        net = np.empty(x.shape[:-1] + (d, 2 * d))  # derivatives of the exchange per strategy
        net[..., 0::2] = (x[..., 1::2, None] * np.swapaxes(self.beta, -1, -2)
                          - eye * self.q_plus[..., None, :])
        net[..., 1::2] = eye * effective_infection(self, x[..., 0::2])[..., None]
        jac[..., 0::2, :] += net
        jac[..., 1::2, :] -= net
        return jac

    def switch_rates(self, x: np.ndarray) -> np.ndarray:
        """Q(x)[s, s'] with s' the partner of s: q_plus from the I states,
        the effective infection rate from the S states."""
        qt = effective_infection(self, x[..., 0::2])
        return _interleave(np.broadcast_to(self.q_plus, qt.shape), qt)

    def backward(self, c: np.ndarray, g: np.ndarray, best: np.ndarray | None = None) -> np.ndarray:
        """Q(x) g row by row, lam (g(target) - g) + c (g(s') - g), at the
        switch rates c (``switch_rates`` as columns, broadcasting against g).
        ``best`` replaces g at the targets: the strategy minimum makes this
        the Hamiltonian."""
        if best is None:
            best = (g[self.target] if self.target.ndim == 1
                    else np.take_along_axis(g, self.target.T, axis=0))
        return self.lam * (best - g) + c * (g[np.arange(g.shape[0]) ^ 1] - g)

    def value_rhs(self, c: np.ndarray, g: np.ndarray, best: np.ndarray | None = None) -> np.ndarray:
        """Backward-time RHS of the discounted value equation,
        ``backward`` + w - delta g; a stationary value vector gives zero."""
        w = self.w.reshape(self.w.shape + (1,) * (g.ndim - self.w.ndim))
        return self.backward(c, g, best) + w - self.delta * g

    def channels(self) -> list[tuple[int, int, int, float]]:
        """The channel table of the N-agent jump chain at one point: (from,
        to, kind, coefficient) per edge that moves an agent, in edge order.
        A channel's rate is its coefficient times the count of its
        from-state; a peer channel carries its strategy j instead, as its
        per-agent rate sum_k beta[k, j] n_kI / N moves with the counts."""
        table = zip(*(column.tolist() for column in self.edges))
        return [(f, t, k, f // 2 if k == PEER else r) for f, t, k, r in table if t != f]


def kinetic_rhs_fn(p: ModelParams, u: StationaryControl) -> Callable[..., np.ndarray]:
    """Compiled-once population RHS x -> x Q(x) at one point under a fixed
    control, for one state vector x: one matmul
    y = x @ [M | C | E_S | E_I beta] per call.  M is ``Generator.decisions``
    in a block of its own (so -lam is never summed with -q_plus), C the
    linear part of the exchange (-q_plus on row jI, q_minus on row jS); the
    exchange y_C + y_S y_beta goes onto jI and off jS.  Stacks keep the flow
    form of ``Generator.forward``: there the matrix is one dense 2d x 5d
    block per point, which made the stationary kernel 1.5x slower at
    d = 20.

    The closure ``rhs(x, out=None)`` writes into ``out`` (2d entries, not
    x) when given and returns it, else into a new array: y and the exchange
    live in buffers of the closure, so no returned array is ever written
    by a later call."""
    gen, d = Generator.of(p, u), p.d
    n, j = 2 * d, np.arange(d)
    w = np.zeros((n, 5 * d))
    w[:, :n] = gen.decisions
    w[2 * j, n + j] = -gen.q_plus
    w[2 * j + 1, n + j] = gen.q_minus
    w[2 * j + 1, n + d + j] = 1.0
    w[0::2, n + 2 * d:] = gen.beta
    y, net = np.empty(5 * d), np.empty(d)
    y_MI, y_MS, y_C, y_S, y_beta = y[0:n:2], y[1:n:2], y[n:n + d], y[n + d:n + 2 * d], y[n + 2 * d:]

    def rhs(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(n)
        np.matmul(x, w, y)
        np.add(y_C, np.multiply(y_S, y_beta, net), net)
        np.add(y_MI, net, out[0::2])
        np.subtract(y_MS, net, out[1::2])
        return out

    return rhs


def kinetic_rhs(p: ModelParams, x: MixedState, u: StationaryControl) -> np.ndarray:
    """Rate of change of the population state under common control u."""
    _check_dims(p, x, u)
    return kinetic_rhs_fn(p, u)(x.x)


def hjb_rhs_fn(
    p: ModelParams, u: StationaryControl | None
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compiled-once backward-time value RHS dg/dtau (tau = time to horizon).

    The returned ``rhs(c, g)`` takes the switch rates c
    (``Generator.switch_rates``) and evaluates ``Generator.value_rhs``:
    under u the generator's own backward product, with u=None the
    Hamiltonian, where each state decides for the strategy minimum of g
    over its compartment.  g is one value vector, or many stacked along
    trailing axes with the states on the first axis (g[s, ...], so every
    gather is numpy's plain row index); c broadcasts against it.
    """
    gen = Generator.of(p, u)
    if u is not None:
        return gen.value_rhs
    parity = np.arange(2 * p.d) % 2

    def rhs(c: np.ndarray, g: np.ndarray) -> np.ndarray:
        return gen.value_rhs(c, g, g.reshape(-1, 2, *g.shape[1:]).min(axis=0)[parity])

    return rhs


def hjb_rhs(p: ModelParams, x: MixedState, g: ValueVector) -> np.ndarray:
    """Backward-time RHS of the discounted value equation, explicit minimum.

    Returns dg/dtau with tau the time to the horizon; a stationary value
    vector therefore gives the zero vector.
    """
    _check_dims(p, x, g)
    return hjb_rhs_fn(p, None)(Generator.of(p).switch_rates(x.x), g.g)


def best_response(g: ValueVector) -> tuple[StationaryControl, bool]:
    """Argmin control for a value vector, plus a degeneracy flag.

    The minimizing strategy is the same from every current state, so the
    result is always of the uniform [i(I), k(S)] form.  The flag is True
    when some non-minimal strategy is within TIE_TOL of the minimum in
    either compartment (tied argmin, control not unique).
    """
    gI = g.infected_values
    gS = g.susceptible_values
    i = int(np.argmin(gI))
    k = int(np.argmin(gS))
    degenerate = False
    for best, vals in ((i, gI), (k, gS)):
        others = np.delete(vals, best)
        if others.size and others.min() - vals[best] <= TIE_TOL:
            degenerate = True
    d = g.d
    return StationaryControl(np.full(d, i), np.full(d, k)), degenerate


def best_response_margins(i: np.ndarray, k: np.ndarray,
                          g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """margin_I[j] = g(jI) - g(iI) and margin_S[j] = g(jS) - g(kS), per row
    of g (a candidate pair or a node of a value path), at bases i and k."""
    r = np.arange(i.size)
    return g[:, 0::2] - g[r, 2 * i][:, None], g[:, 1::2] - g[r, 2 * k + 1][:, None]


def margin_summary(i, k, margin_I, margin_S) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the smallest margin off the base entries (inf when there is
    none, d = 1) and whether one of them is within TIE_TOL of zero."""
    strategies = np.arange(margin_I.shape[1])
    off_I, off_S = strategies != i[:, None], strategies != k[:, None]
    min_margin = np.minimum(
        np.where(off_I, margin_I, np.inf).min(axis=1), np.where(off_S, margin_S, np.inf).min(axis=1)
    )
    degenerate = np.any(off_I & (np.abs(margin_I) <= TIE_TOL), axis=1) | np.any(
        off_S & (np.abs(margin_S) <= TIE_TOL), axis=1
    )
    return min_margin, degenerate


def consistency_residual(
    p: ModelParams, x: MixedState, g: ValueVector, u: StationaryControl
) -> float:
    """Stationary equilibrium certificate.

    Max of three sup-norms: the population RHS at (x, u), the stationary
    value-equation defect at (x, g) under u's own control, and the
    best-response gap of u against g.  Zero exactly at a stationary solution
    of the coupled system whose common control is individually optimal.

    The defect is taken under u, not the explicit minimum: a tie-level
    best-response gap then stays its own term instead of being multiplied
    by lam in the value equation.
    """
    _check_dims(p, x, g, u)
    gen = Generator.of(p, u)
    kin = float(np.max(np.abs(gen.forward(x.x))))
    hjb = float(np.max(np.abs(gen.value_rhs(gen.switch_rates(x.x), g.g))))
    # best-response gap: g at u's targets above the strategy minimum, per compartment
    gI, gS = g.infected_values, g.susceptible_values
    br = max((gI[u.target_I] - gI.min()).max(), (gS[u.target_S] - gS.min()).max())
    return max(kin, hjb, float(br))
