"""Data model and right-hand sides of the strategic SIS game.

Agents occupy one of 2d states (j, I) or (j, S): strategy j in {0..d-1}
combined with an infected or susceptible compartment.  Vectors over states
use the fixed interleaved order (0I, 0S, 1I, 1S, ...); public file formats
label the same order 1-based (x_1I, x_1S, ...).

The module provides:
  - parameter / state / control / value containers with their invariants,
    and ``ParamStack``, the constants of many parameter points stacked as
    arrays (the batched stationary kernel and sweep validation use it),
  - the population ODE right-hand side (``kinetic_rhs``): decision-driven
    migration at rate lam plus infection / recovery pressure and pairwise
    peer infection, also split into its constant migration generator
    (``migration_generator``) and net-infection term (``net_infection_fn``),
    and its exact Jacobian (``kinetic_jacobian``, stacked over points by
    ``kinetic_jacobian_stack``),
  - the backward right-hand side of the discounted optimal-cost equation
    (``hjb_rhs``, compiled per control by ``hjb_rhs_fn``), with the
    strategy minimum taken explicitly or expanded at a fixed control,
  - the best-response operator and the scalar stationarity certificate
    ``consistency_residual``.

All functions are pure; containers are frozen and hold read-only arrays
(``ParamStack`` excepted: a sweep writes its axes into one), so
everything here is safe under unrestricted concurrent use.
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

    @property
    def susceptible(self) -> np.ndarray:
        return self.x[1::2]

    @classmethod
    def uniform(cls, d: int) -> "MixedState":
        return cls(np.full(2 * d, 1.0 / (2 * d)))

    @classmethod
    def point(cls, d: int, j: int, compartment: str) -> "MixedState":
        """Point mass on state (j, compartment), compartment 'I' or 'S'."""
        x = np.zeros(2 * d)
        x[2 * j + (0 if compartment == "I" else 1)] = 1.0
        return cls(x)


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


def _migration(p: ModelParams, u: StationaryControl) -> tuple[np.ndarray, np.ndarray]:
    """Per-state migration rate (lam away from the target, 0 at it) and the
    0/1 incidence matrix whose row s has its one at the target of s."""
    _check_dims(p, u)
    n = 2 * p.d
    target = state_targets(u)
    moves = target != np.arange(n)
    rate = np.where(moves, p.lam, 0.0)
    incidence = np.zeros((n, n))
    incidence[moves, target[moves]] = 1.0
    return rate, incidence


def migration_generator(p: ModelParams, u: StationaryControl) -> np.ndarray:
    """Constant generator M of migration under u: x' = x @ M for migration
    alone.  Row s carries -lam on its diagonal and lam at its target when
    s moves, and is zero at a target; rows sum to zero, so e^{tM} is
    stochastic."""
    rate, incidence = _migration(p, u)
    return rate[:, None] * incidence - np.diag(rate)


def net_infection_fn(p: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    """Net infection per strategy, x -> xS_j q~_j - xI_j q_plus_j with
    q~_j = q_minus_j + sum_k beta[k, j] xI_k: the flow jS -> jI minus the
    recovery jI -> jS.  The population RHS is x @ M (``migration_generator``)
    plus this term on the I states and minus it on the S states."""
    q_plus, q_minus, beta_T = p.q_plus, p.q_minus, p.beta.T

    def net(x: np.ndarray) -> np.ndarray:
        xI = x[0::2]
        return x[1::2] * (q_minus + beta_T @ xI) - xI * q_plus

    return net


def kinetic_rhs_fn(p: ModelParams, u: StationaryControl) -> Callable[[np.ndarray], np.ndarray]:
    """Compiled-once population RHS for a fixed control, on raw arrays.

    Built from mass flows, so the components sum to zero to roundoff and a
    zero coordinate never has a negative rate (the simplex is forward
    invariant).  Migration is the flow lam * x out of every state away from
    its target, routed in by a 0/1 incidence matrix built once (the flow
    form of x @ ``migration_generator``); agents already at their target
    produce no migration flow.  ``net_infection_fn`` gives the rest.
    """
    rate, incidence = _migration(p, u)
    net_infection = net_infection_fn(p)

    def rhs(x: np.ndarray) -> np.ndarray:
        net = net_infection(x)
        flow = rate * x
        out = flow @ incidence - flow
        out[0::2] += net
        out[1::2] -= net
        return out

    return rhs


def kinetic_rhs(p: ModelParams, x: MixedState, u: StationaryControl) -> np.ndarray:
    """Rate of change of the population state under common control u."""
    _check_dims(p, x, u)
    return kinetic_rhs_fn(p, u)(x.x)


def effective_infection(s: ParamStack, x: np.ndarray) -> np.ndarray:
    """Effective infection rate q~_j = q_minus_j + sum_k beta[k, j] xI_k of
    every strategy, at stacked points s and raw states x (one row each)."""
    return s.q_minus + np.matmul(np.swapaxes(s.beta, 1, 2), x[:, 0::2, None])[..., 0]


def kinetic_jacobian_stack(s: ParamStack, target: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact Jacobians of the population RHS at stacked points: row m of the
    stacked constants s, the state targets target[m] (``state_targets``) and
    the raw state x[m].  Entry [m, a, b] is the derivative of component a in
    x_b.

    Migration is linear: lam on the target row and -lam on the diagonal of
    every column whose state moves.  The net infection of strategy j,
    xS_j q~_j - xI_j q_plus_j with q~_j = q_minus_j + sum_k beta[k, j] xI_k,
    is quadratic.
    """
    m, n = x.shape
    rows, states = np.arange(m)[:, None], np.arange(n)
    rate = np.where(target != states, s.lam[:, None], 0.0)
    jac = np.zeros((m, n, n))
    jac[rows, target, states] = rate
    jac[rows, states, states] -= rate
    eye = np.eye(n // 2)
    beta_T = np.swapaxes(s.beta, 1, 2)
    net = np.empty((m, n // 2, n))  # derivatives of the net infection per strategy
    net[:, :, 0::2] = x[:, 1::2, None] * beta_T - eye * s.q_plus[:, None, :]
    net[:, :, 1::2] = eye * effective_infection(s, x)[:, :, None]
    jac[:, 0::2] += net
    jac[:, 1::2] -= net
    return jac


def kinetic_jacobian(p: ModelParams, u: StationaryControl, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian of ``kinetic_rhs_fn(p, u)`` at the raw state x (the
    one-point case of ``kinetic_jacobian_stack``)."""
    _check_dims(p, u)
    return kinetic_jacobian_stack(ParamStack.tile(p), state_targets(u)[None], x[None])[0]


def hjb_coupling(p: ModelParams, xI: np.ndarray) -> np.ndarray:
    """Compartment-switch rate per state for the value equation: q_plus on
    the I rows, the effective infection rate q_minus + xI @ beta on the S
    rows.  xI has shape (..., d), one row per population state."""
    xI = np.asarray(xI, dtype=float)
    return _interleave(np.broadcast_to(p.q_plus, xI.shape), p.q_minus + xI @ p.beta)


def hjb_rhs_fn(
    p: ModelParams, u: StationaryControl | None
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compiled-once backward-time value RHS dg/dtau (tau = time to horizon).

    The returned ``rhs(c, g)`` takes the coupling row c = hjb_coupling(p, xI)
    and evaluates, per state s with partner s' (the other compartment of the
    same strategy),

        lam * (best(s) - g(s)) + c(s) * (g(s') - g(s)) + w(s) - delta * g(s).

    With u=None best(s) is the explicit strategy minimum of g over the
    compartment of s; otherwise it is g at the target of s under u.  g is
    one value vector, or many stacked along trailing axes with the states on
    the first axis (g[s, ...], so every gather is numpy's plain row index);
    c broadcasts against it.
    """
    if u is not None:
        _check_dims(p, u)
        target = state_targets(u)
    n = 2 * p.d
    partner = np.arange(n) ^ 1
    parity = np.arange(n) % 2
    w = _interleave(p.w_I, p.w_S)
    lam, delta = p.lam, p.delta

    def rhs(c: np.ndarray, g: np.ndarray) -> np.ndarray:
        w_g = w if g.ndim == 1 else w.reshape(w.shape + (1,) * (g.ndim - 1))
        if u is None:
            best = g.reshape(-1, 2, *g.shape[1:]).min(axis=0)[parity]
        else:
            best = g[target]
        return lam * (best - g) + c * (g[partner] - g) + w_g - delta * g

    return rhs


def hjb_rhs(p: ModelParams, x: MixedState, g: ValueVector) -> np.ndarray:
    """Backward-time RHS of the discounted value equation, explicit minimum.

    Returns dg/dtau with tau the time to the horizon; a stationary value
    vector therefore gives the zero vector.
    """
    _check_dims(p, x, g)
    return hjb_rhs_fn(p, None)(hjb_coupling(p, x.infected), g.g)


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
    kin = float(np.max(np.abs(kinetic_rhs(p, x, u))))
    hjb = float(np.max(np.abs(hjb_rhs_fn(p, u)(hjb_coupling(p, x.infected), g.g))))
    # best-response gap: g at u's targets above the strategy minimum, per compartment
    gI, gS = g.infected_values, g.susceptible_values
    br = max((gI[u.target_I] - gI.min()).max(), (gS[u.target_S] - gS.min()).max())
    return max(kin, hjb, float(br))
