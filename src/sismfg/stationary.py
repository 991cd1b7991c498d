"""Stationary equilibria of the strategic SIS game.

A candidate is a uniform control [i(I), k(S)]: infected agents head to
strategy i and susceptible agents to strategy k (the single family k == i,
the mixed family k != i).  For a candidate the module computes the
population fixed point, the exact stationary discounted values
(closed-form block elimination of the linear system), the optimality
margins that certify the control as a best response, the stationarity
residual and the linearization spectrum at the fixed point.  The large-lam
asymptotic margins (and the first-order mixed data ``_mixed_first_order``)
are cross-checks.

All of it is one array kernel.  ``solve_points`` solves every candidate at
every point of a ``ParamStack`` as one flat batch of (point, candidate)
pairs: closed-form roots for the single family, a bracketed bisection for
the mixed one (its stationary state always exists), closed-form values, and
spectra from the block-triangular Jacobian at a fixed point
(``_block_spectra``: one 3x3 ``eigvals`` per mixed pair, closed forms for
the rest).  The batch runs in blocks whose per-pair copies of beta hold at
most ENTRY_BUDGET entries.  The budget bounds those O(d^2) copies only:
each pair's O(d) arrays (state, values, spectrum, temporaries) come on top,
and at small d, where a block holds thousands of pairs, they are most of
the kernel's working memory.  Each pair
ends with a status (accepted / rejected / failed) and, when it failed, the
reason.  ``enumerate_equilibria`` runs the kernel on one model, and a sweep
(``runs.run_sweep``) on all of its grid points at once.  The scalar
functions ``fixed_point_single`` / ``_mixed``, ``hjb_single_exact`` /
``_mixed_exact``, ``consistency_single`` / ``_mixed``, ``stability_single``,
``stability_numerical`` and ``solve_candidate`` are one-pair views of the
same kernel pieces, so every formula has one source; a turnpike's anchor
(``dynamics.stationary_anchor``) is a row of the kernel itself.

Acceptance of a candidate is decided on exact margins and the stationarity
residual only; the asymptotic formulas are diagnostics.  Margins within
``TIE_TOL`` of zero mark a boundary / bifurcation case: the candidate is
kept but flagged degenerate.  Per-candidate failures become reports, never
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .model import (
    TIE_TOL,
    Generator,
    MixedState,
    ModelParams,
    ParamStack,
    StationaryControl,
    ValueVector,
    _interleave,
    best_response_margins,
    effective_infection,
    margin_summary,
)

#: residual bound certifying an exact linear solve of the stationary values
VALUE_RESIDUAL_TOL = 1e-10
#: residual bound for accepting an equilibrium
EQUILIBRIUM_RESIDUAL_TOL = 1e-8
#: most entries of beta a block holds, one d x d copy per pair (``ParamStack.take``):
#: a block takes max(1, ENTRY_BUDGET // d^2) pairs; their O(d) arrays come on top
ENTRY_BUDGET = 1 << 15

#: status codes of a solved pair, indexes into STATUS_NAMES
ACCEPTED, REJECTED, FAILED = 0, 1, 2
STATUS_NAMES = ("accepted", "rejected", "failed")

_NEEDS_DISCOUNT = "stationary discounted values require delta > 0"
#: the floating-point state the value solves run in: an overflowing or
#: singular closed form leaves non-finite values, which their checks report
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _require_positive_discount(p: ModelParams) -> None:
    if not p.delta > 0:
        raise ValueError(_NEEDS_DISCOUNT)


def _pair(d: int, *values: int) -> tuple[np.ndarray, ...]:
    """One-pair index arrays for the scalar views; ValueError on a strategy
    outside [0, d) (numpy would wrap a negative one)."""
    for v in values:
        if not 0 <= v < d:
            raise ValueError(f"strategy index {v} is not in [0, {d})")
    return tuple(np.array([v]) for v in values)


def _generator(s: ParamStack, i: np.ndarray, k: np.ndarray) -> Generator:
    """The generator of the control [i[m](I), k[m](S)] at each point m of s."""
    ones = np.ones(s.d, dtype=np.int64)
    return Generator(s, _interleave(np.outer(2 * i, ones), np.outer(2 * k + 1, ones)))


def _roundoff_floor(s: ParamStack, g: np.ndarray) -> np.ndarray:
    """Level below which a stationarity defect at the values g is roundoff.

    Evaluating the value equation multiplies g by every rate, so it rounds
    at about eps * (largest of lam, q_plus, q_minus, beta) * |g|; with
    |g| ~ 1/delta that exceeds the absolute bounds above at large rates
    and small discount.  Both certificates allow max(their bound, floor).
    """
    return s.rate_roundoff() * np.maximum(1.0, np.abs(g).max(axis=1))


# ---------------------------------------------------------------------------
# fixed points


def _share_quadratic(s: ParamStack, i: np.ndarray):
    """Per pair, the coefficients (a, b, c) of a y^2 + b y + c for the
    stationary infected share of the all-to-i control."""
    r = np.arange(s.n)
    beta = s.beta[r, i, i]
    return beta, s.q_plus[r, i] - beta + s.q_minus[r, i], -s.q_minus[r, i]


def _quadratic_root_unit(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Positive root of a y^2 + b y + c for a >= 0, c < 0 (and b > 0 when
    a = 0, the linear root -c / b).

    Cancellation-free for either sign of b: 2|c| / (b + sqrt(b^2 - 4ac))
    when b >= 0, (-b + sqrt(b^2 - 4ac)) / (2a) when b < 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # the branches not taken
        root = np.sqrt(b * b - 4.0 * a * c)
        return np.where(
            a == 0.0, -c / b, np.where(b < 0.0, (-b + root) / (2.0 * a), 2.0 * (-c) / (b + root))
        )


def _single_states(d: int, i: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """All mass on strategy i, infected share x_star, per pair."""
    r = np.arange(i.size)
    x = np.zeros((i.size, 2 * d))
    x[r, 2 * i] = x_star
    x[r, 2 * i + 1] = 1.0 - x_star
    return x


def fixed_point_single(p: ModelParams, i: int) -> tuple[float, MixedState]:
    """Stationary state under the all-to-i control.

    Returns (x_star, state): the infected share x_star solves
    beta_ii y^2 + y (q_plus_i - beta_ii + q_minus_i) - q_minus_i = 0 on (0, 1),
    all mass sits on strategy i, and every other coordinate is zero.
    """
    (i_,) = _pair(p.d, i)
    with np.errstate(**_QUIET):  # an overflowing root leaves a state MixedState refuses
        x_star = _quadratic_root_unit(*_share_quadratic(ParamStack.tile(p), i_))
    return float(x_star[0]), MixedState(_single_states(p.d, i_, x_star)[0])


def _mixed_shares(s: ParamStack, i: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_iI, x_kI) of the mixed fixed point, per pair, by bisection.

    Only strategies i and k are populated and the reduction forces
    x_iS = x_kI = y and x_kS = 1 - x_iI - 2y.  The first equation gives
    x_iI(y) = y (q_minus_i + lam + beta_ki y) / (q_plus_i - beta_ii y), and
    the second becomes one scalar equation
        f(y) = x_kS (q_minus_k + beta_kk y + beta_ik x_iI) - (lam + q_plus_k) y.
    f(0) = q_minus_k > 0 and f(y_b) < 0 at the smaller positive root y_b of
    (q_plus_i - beta_ii y) x_kS(y), and every point of [0, y_b] is on the
    simplex, so a root is bracketed there.  y_b takes the cancellation-free
    form of ``_quadratic_root_unit``.  The bisection runs until every
    midpoint equals an endpoint (an endpoint keeps its sign of f, so a pair
    that is done stays put) and returns the lower ends, where f > 0 and so
    x_kS > 0.  A pair whose y_b is not finite (a rate near the float
    limit) gets NaN shares; it bisects the empty bracket [0, 0], which is
    done at once, so the stop test needs no term of its own.
    """
    r = np.arange(s.n)
    qpi, qmk = s.q_plus[r, i], s.q_minus[r, k]
    bii, bki, bik, bkk = s.beta[r, i, i], s.beta[r, k, i], s.beta[r, i, k], s.beta[r, k, k]
    inflow_i, outflow_k = s.q_minus[r, i] + s.lam, s.lam + s.q_plus[r, k]

    def share_i(y):
        return y * (inflow_i + bki * y) / (qpi - bii * y)

    b = bii + 2.0 * qpi + inflow_i
    hi = 2.0 * qpi / (b + np.sqrt(b * b - 4.0 * (2.0 * bii - bki) * qpi))
    bracketed = np.isfinite(hi)
    lo, hi = np.zeros(s.n), np.where(bracketed, hi, 0.0)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            y = np.where(bracketed, lo, np.nan)
            return share_i(y), y
        xiI = share_i(mid)
        up = (1.0 - xiI - 2.0 * mid) * (qmk + bkk * mid + bik * xiI) - outflow_k * mid > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)


def _mixed_states(d: int, i: np.ndarray, k: np.ndarray, x_iI: np.ndarray,
                  x_kI: np.ndarray) -> np.ndarray:
    r = np.arange(i.size)
    x = np.zeros((i.size, 2 * d))
    x[r, 2 * i] = x_iI
    x[r, 2 * i + 1] = x_kI  # forced by the reduction: x_iS = x_kI
    x[r, 2 * k] = x_kI
    x[r, 2 * k + 1] = 1.0 - x_iI - 2.0 * x_kI
    return x


def fixed_point_mixed(p: ModelParams, i: int, k: int) -> MixedState:
    """Stationary state under the mixed control [i(I), k(S)], k != i, by the
    bisection of the kernel (see ``_mixed_shares``); one always exists."""
    if k == i:
        raise ValueError("mixed fixed point requires k != i")
    i_, k_ = _pair(p.d, i, k)
    with np.errstate(**_QUIET):  # a bracket that is not finite leaves a state MixedState refuses
        shares = _mixed_shares(ParamStack.tile(p), i_, k_)
    return MixedState(_mixed_states(p.d, i_, k_, *shares)[0])


# ---------------------------------------------------------------------------
# linearization spectrum


def _sorted_spectrum(values: np.ndarray) -> np.ndarray:
    """Each row sorted by real part, then imaginary part."""
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


def _tangent_map(jac: np.ndarray) -> np.ndarray:
    """Stacked mass-conserving Jacobians restricted to the simplex tangent
    space, in the basis e_a - e_last: J[:-1, :-1] - J[:-1, -1:]."""
    return jac[..., :-1, :-1] - jac[..., :-1, -1:]


def _block_spectra(s: ParamStack, i: np.ndarray, k: np.ndarray, x: np.ndarray, qt: np.ndarray):
    """Sorted tangent spectra at the fixed points x of the controls
    [i(I), k(S)], per pair, where the effective infection rate is qt
    (``model.effective_infection``): (spectra, xi_principal, xi_pairs, failures).

    At such a fixed point every strategy other than i and k is empty, so
    the Jacobian is block-triangular: the occupied states (iI, iS, and kI,
    kS for the mixed family) form one mass-conserving block, and each empty
    strategy j a 2x2 block with eigenvalues -lam and -lam - (q_plus_j + q~_j).
    The occupied block is the Jacobian (``model.Generator.jacobian``) of
    the two-strategy sub-model (i, k) under the control [0(I), 1(S)], with
    the duplicate strategy of a single pair empty.  The spectrum is that of
    its tangent map (1x1 for the single family, where it is the principal
    eigenvalue xi; 3x3 for the mixed family) plus those pairs.
    xi_principal and xi_pairs, the pairs (-lam - (q_plus_j + q~_j), -lam)
    of j != i, are NaN on mixed pairs.  failures[m] says why the spectrum
    of pair m could not be computed, or is None.
    """
    m, d = i.size, s.d
    sgl, mix = np.flatnonzero(i == k), np.flatnonzero(i != k)
    ik, rows = np.stack([i, k], axis=1), np.arange(m)[:, None]
    sub = ParamStack(s.lam, s.delta, s.q_plus[rows, ik], s.q_minus[rows, ik],
                     s.beta[rows[..., None], ik[:, :, None], ik[:, None, :]],
                     s.w_I[rows, ik], s.w_S[rows, ik])
    sub_x = x[rows, np.stack([2 * i, 2 * i + 1, 2 * k, 2 * k + 1], axis=1)]
    sub_x[sgl, 2:] = 0.0
    block = _generator(sub, np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)).jacobian(sub_x)
    slow = -s.lam[:, None] - (s.q_plus + qt)
    pairs = np.stack([slow, np.broadcast_to(-s.lam[:, None], slow.shape)], axis=2)
    strategies = np.arange(d)
    empty = (strategies != i[:, None]) & (strategies != k[:, None])

    values = np.empty((m, 2 * d - 1), dtype=complex)
    xi_principal = np.full(m, np.nan)
    xi_pairs = np.full((m, d - 1, 2), np.nan)
    failures: list[str | None] = [None] * m
    xi_principal[sgl] = _tangent_map(block[sgl, :2, :2])[:, 0, 0]
    xi_pairs[sgl] = pairs[sgl][empty[sgl]].reshape(sgl.size, d - 1, 2)
    values[sgl, 0] = xi_principal[sgl]
    values[sgl, 1:] = xi_pairs[sgl].reshape(sgl.size, 2 * d - 2)
    if mix.size:
        values[mix, 3:] = pairs[mix][empty[mix]].reshape(mix.size, 2 * d - 4)
        tangent = _tangent_map(block[mix])
        try:
            values[mix, :3] = np.linalg.eigvals(tangent)
        except np.linalg.LinAlgError:  # find the matrices that fail, one by one
            for q, t in zip(mix, tangent):
                try:
                    values[q, :3] = np.linalg.eigvals(t)
                except np.linalg.LinAlgError as exc:
                    values[q, :3] = np.nan
                    failures[q] = str(exc)
    return _sorted_spectrum(values), xi_principal, xi_pairs, failures


@dataclass(frozen=True)
class StabilityReport:
    """Linearization spectrum at a fixed point, restricted to the simplex
    tangent space and sorted by real part, then imaginary part.

    xi_principal and xi_pairs (see ``_block_spectra``) are populated for the
    single family only.
    """

    spectrum: np.ndarray
    xi_principal: float | None
    xi_pairs: np.ndarray | None
    max_real_part: float
    stable: bool


def _stability_report(spectrum: np.ndarray, xi_principal=None, xi_pairs=None) -> StabilityReport:
    """The report of one spectrum; xi_principal and xi_pairs are given for
    the single family only."""
    max_real = float(spectrum.real.max())
    return StabilityReport(
        spectrum=spectrum,
        xi_principal=None if xi_principal is None else float(xi_principal), xi_pairs=xi_pairs,
        max_real_part=max_real, stable=max_real < 0.0,
    )


def stability_single(p: ModelParams, i: int, x_star: float) -> StabilityReport:
    """Spectrum at the single-family fixed point with infected share x_star
    (``_block_spectra`` of one pair)."""
    (i_,) = _pair(p.d, i)
    s, x = ParamStack.tile(p), _single_states(p.d, i_, np.array([x_star], dtype=float))
    spectrum, xi, pairs, _ = _block_spectra(s, i_, i_, x, effective_infection(s, x[:, 0::2]))
    return _stability_report(spectrum[0], xi[0], pairs[0])


def stability_numerical(p: ModelParams, u: StationaryControl, x: MixedState) -> StabilityReport:
    """Spectrum of the population Jacobian restricted to the simplex tangent
    space at any state x, by a dense eigen-solve of its tangent map."""
    tangent = _tangent_map(Generator.of(p, u).jacobian(x.x))
    return _stability_report(_sorted_spectrum(np.linalg.eigvals(tangent).astype(complex)))


# ---------------------------------------------------------------------------
# stationary values


def _single_block(s: ParamStack, i: np.ndarray, x_star: np.ndarray):
    """(gap, g(iI), g(iS)) of the all-to-i control per pair; the (iI, iS)
    block decouples:
        gap = g(iI) - g(iS) = (w_I_i - w_S_i) / (q_minus_i + q_plus_i + beta_ii x_star + delta)
        delta g(iI) = w_I_i - q_plus_i gap.
    """
    r = np.arange(i.size)
    den_i = s.q_minus[r, i] + s.q_plus[r, i] + s.beta[r, i, i] * x_star + s.delta
    gap_i = (s.w_I[r, i] - s.w_S[r, i]) / den_i
    g_iI = (s.w_I[r, i] - s.q_plus[r, i] * gap_i) / s.delta
    return gap_i, g_iI, g_iI - gap_i


def _residual_values(s: ParamStack, qt: np.ndarray, gap: np.ndarray,
                     g_iI: np.ndarray) -> np.ndarray:
    """Values of the residual strategies j (not i or k) under the control
    [i(I), k(S)], per pair, from g(iI) and gap = g(iI) - g(kS); qt is the
    effective infection rate.  Each j is the 2x2 system
    [[lam + delta + q_plus_j, -q_plus_j], [-q~_j, lam + delta + q~_j]] with
    determinant (lam + delta)(lam + delta + q_plus_j + q~_j) > 0, solved as
        gap_j = g(jI) - g(jS) = (w_I_j - w_S_j + lam gap) / (lam + q_plus_j + q~_j + delta)
        g(jI) = (lam g(iI) + w_I_j - q_plus_j gap_j) / (lam + delta).
    The entries of i and k are left to the caller.
    """
    lam, delta = s.lam[:, None], s.delta[:, None]
    gap_j = (s.w_I - s.w_S + lam * gap[:, None]) / (lam + s.q_plus + qt + delta)
    g_I = (lam * g_iI[:, None] + s.w_I - s.q_plus * gap_j) / (lam + delta)
    return _interleave(g_I, g_I - gap_j)


def _values_single(s: ParamStack, i: np.ndarray, x_star: np.ndarray,
                   qt: np.ndarray) -> np.ndarray:
    """Exact stationary values under the all-to-i control, per pair, at
    infected share x_star and effective infection rate qt.

    The (iI, iS) block decouples (``_single_block``); each j != i block
    then follows from (g(iI), gap_i) in closed form (``_residual_values``).
    """
    r = np.arange(i.size)
    gap_i, g_iI, g_iS = _single_block(s, i, x_star)
    g = _residual_values(s, qt, gap_i, g_iI)
    g[r, 2 * i] = g_iI
    g[r, 2 * i + 1] = g_iS
    return g


def _values_mixed(s: ParamStack, i: np.ndarray, k: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Exact stationary values under the mixed control [i(I), k(S)], per pair.

    The four (i, k)-block equations reduce to a 2x2 system in
    (g(iI), g(kS)), solved by Cramer's rule (a zero determinant leaves the
    values non-finite); g(iS) and g(kI) follow by direct substitution and
    the residual strategies by ``_residual_values``.  qt is the effective
    infection rate at the fixed point (``model.effective_infection``).
    """
    r = np.arange(i.size)
    lam, delta = s.lam, s.delta
    qpi, qpk = s.q_plus[r, i], s.q_plus[r, k]
    qti, qtk = qt[r, i], qt[r, k]
    wiI, wiS = s.w_I[r, i], s.w_S[r, i]
    wkI, wkS = s.w_I[r, k], s.w_S[r, k]
    # rows: unknowns (g(iI), g(kS))
    a11 = -(lam * (qpi + delta) + delta * (qpi + qti + delta))
    a12 = lam * qpi
    b1 = -wiI * (lam + delta + qti) - wiS * qpi
    a21 = -lam * qtk
    a22 = lam * (qtk + delta) + delta * (qtk + qpk + delta)
    b2 = wkI * qtk + wkS * (lam + delta + qpk)
    det = a11 * a22 - a12 * a21
    g_iI = (b1 * a22 - a12 * b2) / det
    g_kS = (a11 * b2 - b1 * a21) / det
    g_iS = g_iI + (delta * g_iI - wiI) / qpi
    g_kI = g_kS + (delta * g_kS - wkS) / qtk
    g = _residual_values(s, qt, g_iI - g_kS, g_iI)
    g[r, 2 * i], g[r, 2 * i + 1] = g_iI, g_iS
    g[r, 2 * k], g[r, 2 * k + 1] = g_kI, g_kS
    return g


def _value_certificate(gen: Generator, x: np.ndarray,
                       g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value defect per pair and the mask of pairs that fail the
    certificate max(VALUE_RESIDUAL_TOL, roundoff floor).

    The defect is the sup-norm of the stationary value equation
    (``model.Generator.value_rhs``) at the fixed points x and values g, under
    the pairs' generator gen.
    """
    defect = np.abs(gen.value_rhs(gen.switch_rates(x).T, g.T)).max(axis=0)
    return defect, defect > np.maximum(VALUE_RESIDUAL_TOL, _roundoff_floor(gen.s, g))


def _certificate_failure(defect: float) -> str:
    return f"stationary value solve failed its certificate: defect {defect:.3e}"


def _certified(s: ParamStack, i: int, k: int, x: np.ndarray, g: np.ndarray) -> ValueVector:
    """One pair's values, checked finite and certified at its fixed point x
    (the scalar views)."""
    values = ValueVector(g[0])
    defect, bad = _value_certificate(_generator(s, *_pair(s.d, i, k)), x, g)
    if bad[0]:
        raise RuntimeError(_certificate_failure(defect[0]))
    return values


def hjb_single_exact(p: ModelParams, i: int, x_star: float) -> ValueVector:
    """Exact stationary values under the all-to-i control (``_values_single``),
    certified by the value defect."""
    _require_positive_discount(p)
    s, (i_,), shares = ParamStack.tile(p), _pair(p.d, i), np.array([x_star], dtype=float)
    x = _single_states(p.d, i_, shares)
    with np.errstate(**_QUIET):
        g = _values_single(s, i_, shares, effective_infection(s, x[:, 0::2]))
        return _certified(s, i, i, x, g)


def hjb_mixed_exact(p: ModelParams, i: int, k: int, x: MixedState) -> ValueVector:
    """Exact stationary values under the mixed control [i(I), k(S)] at its
    fixed point x (``_values_mixed``), certified by the value defect."""
    _require_positive_discount(p)
    if k == i:
        raise ValueError("mixed values require k != i")
    s = ParamStack.tile(p)
    qt = effective_infection(s, x.x[None, 0::2])
    with np.errstate(**_QUIET):
        return _certified(s, i, k, x.x[None], _values_mixed(s, *_pair(p.d, i, k), qt))


@dataclass(frozen=True)
class MixedFirstOrder:
    """Scale-free first-order data for the mixed family.

    R_iI and R_kS are det * g1(iI) and det * g1(kS) where g1 are the 1/lam
    coefficients of g(iI), g(kS) and det = delta (q~_k + q_plus_i + delta)
    is the determinant of the first-order system.  Both R's are polynomial
    in delta, so they remain well defined at delta = 0 where g1 itself blows
    up.  cross_margin_I / cross_margin_S are the scaled slacks of
    g(iI) <= g(kI) and g(kS) <= g(iS); they vanish identically at delta = 0.
    Each field is an array with one entry per pair.
    """

    G0_iI: np.ndarray
    G0_kS: np.ndarray
    gap0: np.ndarray
    R_iI: np.ndarray
    R_kS: np.ndarray
    det: np.ndarray
    cross_margin_I: np.ndarray
    cross_margin_S: np.ndarray


def _mixed_first_order(s: ParamStack, i: np.ndarray, k: np.ndarray,
                       qt: np.ndarray) -> MixedFirstOrder:
    """First-order (in 1/lam) coefficients of the mixed stationary values,
    per pair.

    Solves the first-order 2x2 system by Cramer's rule in a form that stays
    finite as delta -> 0.  G0_iI / G0_kS are delta * g0(iI) and
    delta * g0(kS); gap0 = g0(iI) - g0(kS) is finite.
    """
    r = np.arange(i.size)
    delta = s.delta
    qpi, qpk = s.q_plus[r, i], s.q_plus[r, k]
    qti, qtk = qt[r, i], qt[r, k]
    wiI, wiS = s.w_I[r, i], s.w_S[r, i]
    wkI, wkS = s.w_I[r, k], s.w_S[r, k]
    den0 = qtk + qpi + delta
    G0_iI = (qtk * wiI + qpi * wkS + delta * wiI) / den0
    G0_kS = (qtk * wiI + qpi * wkS + delta * wkS) / den0
    gap0 = (wiI - wkS) / den0
    rhs1 = (qpi + qti + delta) * G0_iI - wiI * (delta + qti) - wiS * qpi
    rhs2 = -(qtk + qpk + delta) * G0_kS + wkI * qtk + wkS * (delta + qpk)
    R_kS = (qpi + delta) * rhs2 - qtk * rhs1
    R_iI = qpi * rhs2 - (qtk + delta) * rhs1
    return MixedFirstOrder(
        G0_iI=G0_iI,
        G0_kS=G0_kS,
        gap0=gap0,
        R_iI=R_iI,
        R_kS=R_kS,
        det=delta * den0,
        cross_margin_I=((qtk + delta) * R_kS - qtk * R_iI) / (den0 * den0),
        cross_margin_S=((qpi + delta) * R_iI - qpi * R_kS) / (den0 * den0),
    )


# ---------------------------------------------------------------------------
# optimality margins


@dataclass(frozen=True)
class ConsistencyMargins:
    """Slacks of the best-response inequalities for a candidate control.

    Exact margins come from the solved stationary values:
        margin_I[j] = g(jI) - g(iI),   margin_S[j] = g(jS) - g(kS)
    (k = i for the single family); base entries are zero.  The candidate is
    a best response iff every exact margin is >= 0; margins within TIE_TOL
    of zero are boundary / bifurcation cases.  min_margin is the smallest
    margin off the base entries (inf when d = 1), accepted says it is
    >= -TIE_TOL and degenerate that one of them is within TIE_TOL of zero.

    asymptotic_margin_* are the first-order (large-lam, and small-delta for
    the mixed cross terms) sufficient-condition slacks.  small_interaction_*
    evaluate the interaction-free display family (the bound that drops the
    beta-dependence); they are diagnostics only.
    """

    base_I: int
    base_S: int
    margin_I: np.ndarray
    margin_S: np.ndarray
    asymptotic_margin_I: np.ndarray
    asymptotic_margin_S: np.ndarray
    small_interaction_margin_I: np.ndarray
    small_interaction_margin_S: np.ndarray
    min_margin: float
    accepted: bool
    degenerate: bool


def _small_interaction_single(s: ParamStack, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-free strict optimality conditions for the all-to-i
    candidate, per pair, for j != i (zero at i), with D = q_minus_i + q_plus_i + delta:
        I[j]: (w_I_j - w_I_i) / (w_I_i - w_S_i) - (q_plus_j - q_plus_i) / D
        S[j]: (w_S_j - w_S_i) / (w_I_i - w_S_i) - (q_minus_i - q_minus_j) / D
    """
    r = np.arange(i.size)
    others = np.arange(s.d) != i[:, None]
    den0 = (s.q_minus[r, i] + s.q_plus[r, i] + s.delta)[:, None]
    w_gap = (s.w_I[r, i] - s.w_S[r, i])[:, None]
    sm_I = (s.w_I - s.w_I[r, i][:, None]) / w_gap - (s.q_plus - s.q_plus[r, i][:, None]) / den0
    sm_S = (s.w_S - s.w_S[r, i][:, None]) / w_gap - (s.q_minus[r, i][:, None] - s.q_minus) / den0
    return np.where(others, sm_I, 0.0), np.where(others, sm_S, 0.0)


def _families_single(s: ParamStack, i: np.ndarray, x_star: np.ndarray):
    """Asymptotic and small-interaction margins of the all-to-i candidate
    with infected share x_star, per pair.  The asymptotic margins are the
    leading-order-in-1/lam conditions
        (w_I_j - w_I_i) - (q_plus_j - q_plus_i) gap_i >= 0
        (w_S_j - w_S_i) - (q_minus_i - q_minus_j + (beta_ii - beta_ij) x*) gap_i >= 0,
    and the small-interaction family divides out gap_i and drops x*.
    """
    r = np.arange(i.size)
    others = np.arange(s.d) != i[:, None]
    gap_i = _single_block(s, i, x_star)[0][:, None]
    asy_I = (s.w_I - s.w_I[r, i][:, None]) - (s.q_plus - s.q_plus[r, i][:, None]) * gap_i
    asy_S = (s.w_S - s.w_S[r, i][:, None]) - (
        (s.q_minus[r, i][:, None] - s.q_minus)
        + (s.beta[r, i, i][:, None] - s.beta[r, i, :]) * x_star[:, None]
    ) * gap_i
    return (np.where(others, asy_I, 0.0), np.where(others, asy_S, 0.0),
            *_small_interaction_single(s, i))


def _families_mixed(s: ParamStack, i: np.ndarray, k: np.ndarray, qt: np.ndarray,
                    fo: MixedFirstOrder):
    """Asymptotic and small-interaction margins of the mixed candidate
    [i(I), k(S)], per pair, from its first-order data fo
    (``_mixed_first_order`` at the effective infection rate qt).

    Asymptotic margins: the scaled first-order cross conditions for
    g(iI) <= g(kI) and g(kS) <= g(iS) (which vanish identically at
    delta = 0), and for residual strategies the first-order brackets
        I[j]: w_I_j - delta g0(iI) - q_plus_j (g0(iI) - g0(kS))
        S[j]: w_S_j - delta g0(kS) + q~_j (g0(iI) - g0(kS)).
    The small-interaction family evaluates, verbatim, the four strict
    inequalities of the small-beta / small-delta sufficient-condition display:
        I[j], j not in {i,k}: q_plus_j (w_I_i - w_S_k) + w_I_j (q_minus_k + q_plus_i)
        S[j], j not in {i,k}: q_minus_j (w_I_i - w_S_k) + w_S_j (q_minus_k + q_plus_i)
        I[k]: q_minus_k (w_I_k - w_I_i) + w_S_k (q_plus_k - q_plus_i)
        S[i]: q_plus_i (w_S_i - w_S_k) + w_I_i (q_minus_i - q_minus_k)
    These trace the displayed inequalities only; sign agreement with the
    exact margins is not guaranteed (the asymptotic margins are the
    first-order conditions that do track the exact solve).
    """
    r = np.arange(i.size)
    strategies = np.arange(s.d)
    rest = (strategies != i[:, None]) & (strategies != k[:, None])
    asy_I = np.where(rest, s.w_I - fo.G0_iI[:, None] - s.q_plus * fo.gap0[:, None], 0.0)
    asy_S = np.where(rest, s.w_S - fo.G0_kS[:, None] + qt * fo.gap0[:, None], 0.0)
    asy_I[r, k] = fo.cross_margin_I
    asy_S[r, i] = fo.cross_margin_S
    head = (s.w_I[r, i] - s.w_S[r, k])[:, None]
    qsum = (s.q_minus[r, k] + s.q_plus[r, i])[:, None]
    sm_I = np.where(rest, s.q_plus * head + s.w_I * qsum, 0.0)
    sm_S = np.where(rest, s.q_minus * head + s.w_S * qsum, 0.0)
    sm_I[r, k] = s.q_minus[r, k] * (s.w_I[r, k] - s.w_I[r, i]) + s.w_S[r, k] * (
        s.q_plus[r, k] - s.q_plus[r, i]
    )
    sm_S[r, i] = s.q_plus[r, i] * (s.w_S[r, i] - s.w_S[r, k]) + s.w_I[r, i] * (
        s.q_minus[r, i] - s.q_minus[r, k]
    )
    return asy_I, asy_S, sm_I, sm_S


_FAMILIES = ("asymptotic_margin_I", "asymptotic_margin_S",
             "small_interaction_margin_I", "small_interaction_margin_S")


def _margins(s: ParamStack, i: int, k: int, x: np.ndarray, g: np.ndarray) -> ConsistencyMargins:
    """The full margins of one pair: exact from its values g, the diagnostic
    families from its fixed point x."""
    i_, k_ = _pair(s.d, i, k)
    if i == k:
        families = _families_single(s, i_, x[:, 2 * i])
    else:
        qt = effective_infection(s, x[:, 0::2])
        families = _families_mixed(s, i_, k_, qt, _mixed_first_order(s, i_, k_, qt))
    margin_I, margin_S = best_response_margins(i_, k_, g)
    min_margin, degenerate = margin_summary(i_, k_, margin_I, margin_S)
    return ConsistencyMargins(
        base_I=i, base_S=k, margin_I=margin_I[0], margin_S=margin_S[0],
        **{name: values[0] for name, values in zip(_FAMILIES, families)},
        min_margin=float(min_margin[0]), accepted=bool(min_margin[0] >= -TIE_TOL),
        degenerate=bool(degenerate[0]),
    )


def consistency_single(p: ModelParams, i: int, x_star: float, g: ValueVector) -> ConsistencyMargins:
    """Best-response margins for the all-to-i candidate with infected share
    x_star and solved values g (families: ``_families_single``)."""
    x = _single_states(p.d, *_pair(p.d, i), np.array([x_star], dtype=float))
    return _margins(ParamStack.tile(p), i, i, x, g.g[None])


def consistency_mixed(
    p: ModelParams, i: int, k: int, x: MixedState, g: ValueVector
) -> ConsistencyMargins:
    """Best-response margins for the mixed candidate [i(I), k(S)] with
    fixed point x and solved values g (families: ``_families_mixed``)."""
    return _margins(ParamStack.tile(p), i, k, x.x[None], g.g[None])


# ---------------------------------------------------------------------------
# the kernel


@dataclass(frozen=True)
class PairSolutions:
    """The kernel's results for a flat batch of (point, candidate) pairs,
    one row per pair.

    A pair's status is FAILED exactly when a stage of its solve failed;
    ``failure`` then says why and its numbers are not meaningful.  The
    single-family columns xi_principal and xi_pairs are NaN on mixed pairs.
    """

    i: np.ndarray
    k: np.ndarray
    status: np.ndarray
    failure: list
    x: np.ndarray
    g: np.ndarray
    min_margin: np.ndarray
    degenerate: np.ndarray
    residual: np.ndarray
    spectrum: np.ndarray
    xi_principal: np.ndarray
    xi_pairs: np.ndarray
    max_real_part: np.ndarray

    @classmethod
    def concat(cls, parts: list["PairSolutions"]) -> "PairSolutions":
        return cls(**{
            f.name: sum((getattr(b, f.name) for b in parts), [])
            if f.name == "failure" else np.concatenate([getattr(b, f.name) for b in parts])
            for f in fields(cls)
        })

    def detail(self, r: int) -> str:
        if self.status[r] == FAILED:
            return self.failure[r]
        if self.status[r] == ACCEPTED:
            return "degenerate (boundary margin)" if self.degenerate[r] else "equilibrium"
        if self.min_margin[r] < -TIE_TOL:
            return f"negative margin {self.min_margin[r]:.3e}"
        return f"residual {self.residual[r]:.3e} above tolerance"

    def report(self, r: int, control: StationaryControl) -> "CandidateReport":
        if self.status[r] == FAILED:
            return CandidateReport(control, "failed", None, None, self.failure[r])
        return CandidateReport(control, STATUS_NAMES[self.status[r]], float(self.min_margin[r]),
                               float(self.residual[r]), self.detail(r))

    def solution(self, s: ParamStack, r: int, control: StationaryControl) -> "EquilibriumSolution":
        """The full solution of pair r; s holds the constants of its point."""
        i, k = int(self.i[r]), int(self.k[r])
        single = (self.xi_principal[r], self.xi_pairs[r]) if i == k else ()
        return EquilibriumSolution(
            control=control,
            x_star=MixedState(self.x[r]),
            g=ValueVector(self.g[r]),
            stability=_stability_report(self.spectrum[r], *single),
            margins=_margins(s, i, k, self.x[r][None], self.g[r][None]),
            residual=float(self.residual[r]),
            degenerate=bool(self.degenerate[r]),
        )


def _solve_block(s: ParamStack, i: np.ndarray, k: np.ndarray) -> PairSolutions:
    """Solve the pairs of one block: row m of s holds the constants of pair
    m, whose candidate is [i[m](I), k[m](S)].

    The stages follow one pair's solve in order: fixed point (which always
    exists), values and their certificate, margins, residual, acceptance
    test, spectrum.  The first failure of a pair is its detail, and later
    stages skip it; a pair is FAILED exactly when a stage failed.
    """
    m, d = i.size, s.d
    single = i == k
    failure: list[str | None] = [None] * m

    def fail(mask: np.ndarray, why) -> None:
        for q in np.flatnonzero(mask):
            if failure[q] is None:
                failure[q] = why(q)

    def alive() -> np.ndarray:
        return np.array([f is None for f in failure], dtype=bool)

    # fixed points (at rates near the float limit a state may be non-finite), values,
    # certified by the value defect, margins, stationarity residual (population RHS,
    # value defect, best-response gap) and acceptance; a failed pair's numbers may be
    # non-finite, and its detail reports it
    x = np.zeros((m, 2 * d))
    sgl, mix = np.flatnonzero(single), np.flatnonzero(~single)
    s_sgl, s_mix = s.take(sgl), s.take(mix)
    g = np.empty((m, 2 * d))
    with np.errstate(**_QUIET):
        x[sgl] = _single_states(d, i[sgl], _quadratic_root_unit(*_share_quadratic(s_sgl, i[sgl])))
        x[mix] = _mixed_states(d, i[mix], k[mix], *_mixed_shares(s_mix, i[mix], k[mix]))
        fail(~np.isfinite(x).all(axis=1), lambda q: "state entries must be finite")
        qt = effective_infection(s, x[:, 0::2])
        g[sgl] = _values_single(s_sgl, i[sgl], x[sgl, 2 * i[sgl]], qt[sgl])
        g[mix] = _values_mixed(s_mix, i[mix], k[mix], qt[mix])
        fail(~np.isfinite(g).all(axis=1), lambda q: "value vector entries must be finite")
        gen = _generator(s, i, k)
        defect, uncertified = _value_certificate(gen, x, g)
        kinetic = np.abs(gen.forward(x)).max(axis=1)
        del gen  # its per-pair arrays would otherwise stay alive through the spectra
        fail(uncertified, lambda q: _certificate_failure(defect[q]))
        margin_I, margin_S = best_response_margins(i, k, g)
        min_margin, degenerate = margin_summary(i, k, margin_I, margin_S)
        residual = np.maximum.reduce(
            [kinetic, defect, -margin_I.min(axis=1), -margin_S.min(axis=1)])
        # a kept pair not degenerate has argmin (i, k): another argmin would have a margin
        # <= 0, and kept bounds it below by -TIE_TOL
        kept = (min_margin >= -TIE_TOL) & (
            residual <= np.maximum(EQUILIBRIUM_RESIDUAL_TOL, _roundoff_floor(s, g))
        )

    # spectra of the pairs whose values hold
    spectrum = np.full((m, 2 * d - 1), np.nan, dtype=complex)
    xi_principal = np.full(m, np.nan)
    xi_pairs = np.full((m, d - 1, 2), np.nan)
    live = np.flatnonzero(alive())
    spectrum[live], xi_principal[live], xi_pairs[live], spectrum_failures = _block_spectra(
        s.take(live), i[live], k[live], x[live], qt[live]
    )
    for q, why in zip(live, spectrum_failures):
        failure[q] = why
    max_real_part = spectrum.real.max(axis=1)

    status = np.where(alive(), np.where(kept, ACCEPTED, REJECTED), FAILED)
    return PairSolutions(
        i=i, k=k, status=status, failure=failure, x=x, g=g,
        min_margin=min_margin, degenerate=degenerate, residual=residual,
        spectrum=spectrum, xi_principal=xi_principal, xi_pairs=xi_pairs,
        max_real_part=max_real_part,
    )


def candidate_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) of the d^2 uniform candidates in lexicographic order: d single
    (k == i) and d(d-1) mixed."""
    return np.repeat(np.arange(d), d), np.tile(np.arange(d), d)


@lru_cache(maxsize=None)
def candidate_controls(d: int) -> tuple[StationaryControl, ...]:
    """The candidates of ``candidate_pairs`` as controls (built once per d)."""
    return tuple(
        StationaryControl.single(d, i) if i == k else StationaryControl.mixed(d, i, k)
        for i, k in zip(*(a.tolist() for a in candidate_pairs(d)))
    )


def solve_points(points: ParamStack) -> PairSolutions:
    """Solve every candidate at every point of the stack.

    Pairs are in point order, and within a point in the order of
    ``candidate_pairs``.  They are solved in blocks of at most
    max(1, ENTRY_BUDGET // d^2) pairs, as each pair holds its own copy of
    the d x d beta, so the working memory is bounded whatever the number
    of points.
    """
    if not np.all(points.delta > 0):
        raise ValueError(_NEEDS_DISCOUNT)
    d = points.d
    cand_i, cand_k = candidate_pairs(d)
    n_pairs = points.n * cand_i.size
    per_block = max(1, ENTRY_BUDGET // d**2)
    blocks = []
    for start in range(0, n_pairs, per_block):
        point, cand = np.divmod(np.arange(start, min(start + per_block, n_pairs)), cand_i.size)
        blocks.append(_solve_block(points.take(point), cand_i[cand], cand_k[cand]))
    return PairSolutions.concat(blocks)


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EquilibriumSolution:
    """A certified stationary solution of the coupled consistency problem."""

    control: StationaryControl
    x_star: MixedState
    g: ValueVector
    stability: StabilityReport
    margins: ConsistencyMargins
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class CandidateReport:
    control: StationaryControl
    status: str  # accepted | rejected | failed
    min_margin: float | None
    residual: float | None
    detail: str


@dataclass(frozen=True)
class EnumerationResult:
    equilibria: list[EquilibriumSolution]
    reports: list[CandidateReport]


def _solve_pair(p: ModelParams, i: int, k: int) -> tuple[ParamStack, PairSolutions]:
    """The kernel on the one pair [i(I), k(S)], accepted or rejected, with
    the stack of its point; RuntimeError with its detail when a stage of
    the solve failed."""
    _require_positive_discount(p)
    s = ParamStack.tile(p)
    sol = _solve_block(s, *_pair(p.d, i, k))
    if sol.status[0] == FAILED:
        raise RuntimeError(sol.failure[0])
    return s, sol


def solve_candidate(p: ModelParams, u: StationaryControl) -> EquilibriumSolution:
    """Solve one candidate control without accepting or rejecting it (the
    kernel on one pair); RuntimeError when a stage of the solve fails."""
    s, sol = _solve_pair(p, *u.as_pair())
    return sol.solution(s, 0, u)


def enumerate_equilibria(p: ModelParams) -> EnumerationResult:
    """Solve every uniform candidate control and keep the certified ones.

    Candidates are the d single and d(d-1) mixed controls, in deterministic
    (lexicographic) order.  A candidate is kept when all exact margins are
    >= 0 (within TIE_TOL) and the stationarity residual is at most
    EQUILIBRIUM_RESIDUAL_TOL or, when larger, ``_roundoff_floor`` of its
    values.  Per-candidate failures become reports, never exceptions.
    """
    _require_positive_discount(p)
    s = ParamStack.tile(p)
    sol = solve_points(s)
    controls = candidate_controls(p.d)
    return EnumerationResult(
        equilibria=[sol.solution(s, r, controls[r]) for r in np.flatnonzero(sol.status == ACCEPTED)],
        reports=[sol.report(r, u) for r, u in enumerate(controls)],
    )
