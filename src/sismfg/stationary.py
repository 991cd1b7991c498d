"""Stationary equilibria of the strategic SIS game.

For each candidate control family the module computes the population fixed
point, the exact stationary discounted values (closed-form block
elimination of the linear system), the large-lam asymptotic values used as
cross-checks and Newton seeds, the optimality margins that certify the
control as a best response, and the linearization spectrum at the fixed
point.  ``enumerate_equilibria`` sweeps every uniform candidate control
(d single + d(d-1) mixed) and returns the certified solutions.

Acceptance of a candidate is decided on exact margins and the stationarity
residual only; the asymptotic formulas are diagnostics.  Margins within
``TIE_TOL`` of zero mark a boundary / bifurcation case: the candidate is
kept but flagged degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    TIE_TOL,
    MixedState,
    ModelParams,
    StationaryControl,
    ValueVector,
    best_response,
    consistency_residual,
    hjb_coupling,
    hjb_rhs_fn,
    kinetic_jacobian,
)

#: closed-form vs numerical spectrum disagreement treated as an internal error
SPECTRUM_ERROR_TOL = 1e-6
#: Newton convergence threshold on the reduced fixed-point system
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30
#: residual bound certifying an exact linear solve of the stationary values
VALUE_RESIDUAL_TOL = 1e-10
#: residual bound for accepting an equilibrium
EQUILIBRIUM_RESIDUAL_TOL = 1e-8


def _rate_roundoff(p: ModelParams) -> float:
    """64 eps times the largest rate (lam, q_plus, q_minus or beta): the
    roundoff of a computation that multiplies by every rate."""
    rate = max(p.lam, float(p.q_plus.max()), float(p.q_minus.max()), float(p.beta.max()))
    return 64.0 * np.finfo(float).eps * rate


def _roundoff_floor(p: ModelParams, g: ValueVector) -> float:
    """Level below which a stationarity defect at the values g is roundoff.

    Evaluating the value equation multiplies g by every rate, so it rounds
    at about eps * (largest of lam, q_plus, q_minus, beta) * |g|; with
    |g| ~ 1/delta that exceeds the absolute bounds above at large rates
    and small discount.  Both certificates allow max(their bound, floor).
    """
    return _rate_roundoff(p) * max(1.0, float(np.max(np.abs(g.g))))


# ---------------------------------------------------------------------------
# fixed points


def infected_share_quadratic(p: ModelParams, i: int, k: int) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the reduced quadratic a y^2 + b y + c for the
    stationary infected share, with the pressure pair (q_plus[i], q_minus[k])
    and self-interaction beta[i, k].  The single-control case is k == i."""
    a = float(p.beta[i, k])
    b = float(p.q_plus[i] - p.beta[i, k] + p.q_minus[k])
    c = -float(p.q_minus[k])
    return a, b, c


def _quadratic_root_unit(a: float, b: float, c: float) -> float:
    """Positive root of a y^2 + b y + c for a >= 0, c < 0 (and b > 0 when
    a = 0, the linear root -c / b).

    Cancellation-free for either sign of b: 2|c| / (b + sqrt(b^2 - 4ac))
    when b >= 0, (-b + sqrt(b^2 - 4ac)) / (2a) when b < 0.
    """
    if a == 0.0:
        return -c / b
    disc = b * b - 4.0 * a * c
    if b < 0.0:
        return (-b + np.sqrt(disc)) / (2.0 * a)
    return 2.0 * (-c) / (b + np.sqrt(disc))


def _single_state(p: ModelParams, i: int, x_star: float) -> MixedState:
    """All mass on strategy i, infected share x_star."""
    x = np.zeros(p.n_states)
    x[2 * i] = x_star
    x[2 * i + 1] = 1.0 - x_star
    return MixedState(x)


def fixed_point_single(p: ModelParams, i: int) -> tuple[float, MixedState]:
    """Stationary state under the all-to-i control.

    Returns (x_star, state): the infected share x_star solves
    beta_ii y^2 + y (q_plus_i - beta_ii + q_minus_i) - q_minus_i = 0 on (0, 1),
    all mass sits on strategy i, and every other coordinate is zero.
    """
    a, b, c = infected_share_quadratic(p, i, i)
    x_star = _quadratic_root_unit(a, b, c)
    return x_star, _single_state(p, i, x_star)


@dataclass(frozen=True)
class NewtonInfo:
    iterations: int
    residual: float


def fixed_point_mixed(p: ModelParams, i: int, k: int) -> tuple[MixedState, NewtonInfo]:
    """Stationary state under the mixed control [i(I), k(S)], k != i.

    Only strategies i and k are populated and the reduction forces
    x_kI = x_iS and x_kS = 1 - x_iI - 2 x_kI, leaving two equations in
    (x_iI, x_kI).  They are solved by damped Newton seeded with the
    large-lam asymptotics: x_iI from the reduced quadratic with the
    (q_plus[i], q_minus[k]) pressure pair, x_kI = x_iI q_plus[i] / lam.
    """
    if k == i:
        raise ValueError("mixed fixed point requires k != i")
    lam = p.lam
    qpi, qpk = float(p.q_plus[i]), float(p.q_plus[k])
    qmi, qmk = float(p.q_minus[i]), float(p.q_minus[k])
    bii, bki = float(p.beta[i, i]), float(p.beta[k, i])
    bik, bkk = float(p.beta[i, k]), float(p.beta[k, k])

    def residual(v: np.ndarray) -> np.ndarray:
        xiI, xkI = v
        xkS = 1.0 - xiI - 2.0 * xkI
        f1 = xkI * qmi - xiI * qpi + xkI * xiI * bii + xkI * xkI * bki + lam * xkI
        f2 = xkS * (qmk + xkI * bkk + xiI * bik) - (lam + qpk) * xkI
        return np.array([f1, f2])

    def jacobian(v: np.ndarray) -> np.ndarray:
        xiI, xkI = v
        xkS = 1.0 - xiI - 2.0 * xkI
        press = qmk + xkI * bkk + xiI * bik
        return np.array(
            [
                [-qpi + xkI * bii, qmi + xiI * bii + 2.0 * xkI * bki + lam],
                [-press + xkS * bik, -2.0 * press + xkS * bkk - (lam + qpk)],
            ]
        )

    a, b, c = infected_share_quadratic(p, i, k)
    xiI0 = _quadratic_root_unit(a, b, c)
    v = np.array([xiI0, xiI0 * qpi / lam])
    res = residual(v)
    norm = np.max(np.abs(res))
    its = 0
    for its in range(1, NEWTON_MAX_ITER + 1):
        if norm < NEWTON_TOL:
            break
        step = np.linalg.solve(jacobian(v), res)
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            v_new = v - scale * step
            res_new = residual(v_new)
            norm_new = np.max(np.abs(res_new))
            if norm_new < norm:
                break
            scale *= 0.5
        v, res, norm = v_new, res_new, norm_new
    if norm >= NEWTON_TOL:
        raise RuntimeError(
            f"mixed fixed point Newton did not converge for (i={i}, k={k}); "
            f"residual {norm:.3e} after {its} iterations"
        )
    xiI, xkI = v
    x = np.zeros(p.n_states)
    x[2 * i] = xiI
    x[2 * i + 1] = xkI  # forced by the reduction: x_iS = x_kI
    x[2 * k] = xkI
    x[2 * k + 1] = 1.0 - xiI - 2.0 * xkI
    if np.any(x < 0):
        raise RuntimeError(
            f"mixed fixed point left the simplex for (i={i}, k={k}): {x.tolist()}"
        )
    return MixedState(x), NewtonInfo(iterations=its, residual=float(norm))


# ---------------------------------------------------------------------------
# linearization spectrum


def tangent_jacobian(p: ModelParams, u: StationaryControl, x_arr: np.ndarray) -> np.ndarray:
    """Jacobian of the population RHS restricted to the simplex tangent space.

    The tangent basis is e_m - e_last, and the restriction is well defined
    because the RHS conserves mass.
    """
    jac = kinetic_jacobian(p, u, x_arr)
    n = x_arr.size
    basis = np.vstack([np.eye(n - 1), -np.ones(n - 1)])
    gram = np.eye(n - 1) + 1.0  # basis columns share the last coordinate
    return np.linalg.solve(gram, basis.T @ (jac @ basis))


def _sorted_spectrum(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


@dataclass(frozen=True)
class StabilityReport:
    """Linearization spectrum at a fixed point, restricted to the simplex.

    closed_form / xi_principal / xi_pairs are populated for the single
    family only; the mixed family is classified from the numerical spectrum.
    """

    numerical: np.ndarray
    closed_form: np.ndarray | None
    xi_principal: float | None
    xi_pairs: np.ndarray | None
    max_real_part: float
    stable: bool
    agreement: float | None

    @classmethod
    def from_spectra(cls, numerical, closed_form=None, xi_principal=None, xi_pairs=None):
        numerical = _sorted_spectrum(np.asarray(numerical, dtype=complex))
        agreement = None
        if closed_form is not None:
            closed_form = _sorted_spectrum(np.asarray(closed_form, dtype=complex))
            agreement = float(np.max(np.abs(closed_form - numerical)))
        max_real = float(numerical.real.max())
        if closed_form is not None:
            max_real = max(max_real, float(closed_form.real.max()))
        return cls(
            numerical=numerical,
            closed_form=closed_form,
            xi_principal=xi_principal,
            xi_pairs=xi_pairs,
            max_real_part=max_real,
            stable=max_real < 0.0,
            agreement=agreement,
        )


def stability_single(p: ModelParams, i: int, x_star: float) -> StabilityReport:
    """Spectrum at the single-family fixed point.

    Closed form: the principal eigenvalue (1 - 2 x_star) beta_ii - q_minus_i
    - q_plus_i plus, for every j != i, the pair (-lam - (q_plus_j + q_minus_j
    + x_star beta_ij), -lam).  Cross-checked against the numerical tangent
    Jacobian; disagreement beyond SPECTRUM_ERROR_TOL raises, or beyond the
    rate roundoff when that is larger: eigvals rounds at about eps times the
    largest Jacobian entry, which grows with lam.
    """
    xi = float((1.0 - 2.0 * x_star) * p.beta[i, i] - p.q_minus[i] - p.q_plus[i])
    pairs = []
    closed = [xi]
    for j in range(p.d):
        if j == i:
            continue
        slow = float(-p.lam - (p.q_plus[j] + p.q_minus[j] + x_star * p.beta[i, j]))
        pairs.append((slow, -p.lam))
        closed.extend((slow, -p.lam))
    x = _single_state(p, i, x_star).x
    numerical = np.linalg.eigvals(tangent_jacobian(p, StationaryControl.single(p.d, i), x))
    report = StabilityReport.from_spectra(
        numerical,
        closed_form=np.array(closed),
        xi_principal=xi,
        xi_pairs=np.array(pairs) if pairs else np.empty((0, 2)),
    )
    if report.agreement is not None and report.agreement > max(
        SPECTRUM_ERROR_TOL, _rate_roundoff(p)
    ):
        raise RuntimeError(
            f"closed-form and numerical spectra disagree by {report.agreement:.3e} "
            f"at the single({i + 1}) fixed point"
        )
    return report


def stability_numerical(p: ModelParams, u: StationaryControl, x: MixedState) -> StabilityReport:
    """Numerical-only spectrum (used for the mixed family)."""
    numerical = np.linalg.eigvals(tangent_jacobian(p, u, x.x))
    return StabilityReport.from_spectra(numerical)


# ---------------------------------------------------------------------------
# stationary values, single family


def _require_positive_discount(p: ModelParams) -> None:
    if not p.delta > 0:
        raise ValueError("stationary discounted values require delta > 0")


def _certify_values(p: ModelParams, x: MixedState, u: StationaryControl, g: ValueVector) -> None:
    defect = float(np.max(np.abs(hjb_rhs_fn(p, u)(hjb_coupling(p, x.infected), g.g))))
    if defect > max(VALUE_RESIDUAL_TOL, _roundoff_floor(p, g)):
        raise RuntimeError(f"stationary value solve failed its certificate: defect {defect:.3e}")


def _single_block(p: ModelParams, i: int, x_star: float) -> tuple[float, float, float]:
    """(gap, g(iI), g(iS)) of the all-to-i control; the (iI, iS) block decouples:
        gap = g(iI) - g(iS) = (w_I_i - w_S_i) / (q_minus_i + q_plus_i + beta_ii x_star + delta)
        delta g(iI) = w_I_i - q_plus_i gap.
    """
    den_i = float(p.q_minus[i] + p.q_plus[i] + p.beta[i, i] * x_star + p.delta)
    gap_i = float(p.w_I[i] - p.w_S[i]) / den_i
    g_iI = (float(p.w_I[i]) - float(p.q_plus[i]) * gap_i) / p.delta
    return gap_i, g_iI, g_iI - gap_i


def hjb_single_exact(p: ModelParams, i: int, x_star: float) -> ValueVector:
    """Exact stationary values under the all-to-i control.

    The (iI, iS) block decouples (``_single_block``); each j != i block is
    then a 2x2 linear solve given (g(iI), g(iS)).
    """
    _require_positive_discount(p)
    lam, delta = p.lam, p.delta
    gap_i, g_iI, g_iS = _single_block(p, i, x_star)
    g = np.empty(p.n_states)
    g[2 * i] = g_iI
    g[2 * i + 1] = g_iS
    for j in range(p.d):
        if j == i:
            continue
        qt_j = float(p.q_minus[j] + p.beta[i, j] * x_star)
        gap_j = (float(p.w_I[j] - p.w_S[j]) + lam * gap_i) / (lam + float(p.q_plus[j]) + qt_j + delta)
        g_jI = (lam * g_iI + float(p.w_I[j]) - float(p.q_plus[j]) * gap_j) / (lam + delta)
        g[2 * j] = g_jI
        g[2 * j + 1] = g_jI - gap_j
    values = ValueVector(g)
    _certify_values(p, _single_state(p, i, x_star), StationaryControl.single(p.d, i), values)
    return values


@dataclass(frozen=True)
class SingleAsymptotics:
    """First-order-in-1/lam stationary values for the all-to-i control.

    ``values`` carries the exact i-block and, for j != i,
    g(j .) = g(i .) + correction[j .] / lam; ``correction`` holds the 1/lam
    coefficients (zero on the i-block).
    """

    values: ValueVector
    correction: np.ndarray


def hjb_single_asymptotic(p: ModelParams, i: int, x_star: float) -> SingleAsymptotics:
    _require_positive_discount(p)
    delta = p.delta
    gap_i, g_iI, g_iS = _single_block(p, i, x_star)
    g = np.empty(p.n_states)
    corr = np.zeros(p.n_states)
    g[2 * i] = g_iI
    g[2 * i + 1] = g_iS
    for j in range(p.d):
        if j == i:
            continue
        c_I = float(p.w_I[j]) - float(p.q_plus[j]) * gap_i - delta * g_iI
        c_S = float(p.w_S[j]) + (float(p.q_minus[j]) + p.beta[i, j] * x_star) * gap_i - delta * g_iS
        corr[2 * j] = c_I
        corr[2 * j + 1] = c_S
        g[2 * j] = g_iI + c_I / p.lam
        g[2 * j + 1] = g_iS + c_S / p.lam
    return SingleAsymptotics(values=ValueVector(g), correction=corr)


# ---------------------------------------------------------------------------
# stationary values, mixed family


def hjb_mixed_exact(p: ModelParams, i: int, k: int, x: MixedState) -> ValueVector:
    """Exact stationary values under the mixed control [i(I), k(S)].

    The four (i, k)-block equations reduce to a 2x2 system in
    (g(iI), g(kS)); g(iS) and g(kI) follow by direct substitution and each
    residual strategy j is a decoupled 2x2 solve.
    """
    _require_positive_discount(p)
    if k == i:
        raise ValueError("mixed values require k != i")
    lam, delta = p.lam, p.delta
    qt = p.q_minus + p.beta.T @ x.infected
    qpi = float(p.q_plus[i])
    qpk = float(p.q_plus[k])
    qti = float(qt[i])
    qtk = float(qt[k])
    wiI, wiS = float(p.w_I[i]), float(p.w_S[i])
    wkI, wkS = float(p.w_I[k]), float(p.w_S[k])
    # rows: unknowns (g(iI), g(kS))
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
    g_iS = g_iI + (delta * g_iI - wiI) / qpi
    g_kI = g_kS + (delta * g_kS - wkS) / qtk
    g = np.empty(p.n_states)
    g[2 * i], g[2 * i + 1] = g_iI, g_iS
    g[2 * k], g[2 * k + 1] = g_kI, g_kS
    for j in range(p.d):
        if j in (i, k):
            continue
        qtj = float(qt[j])
        qpj = float(p.q_plus[j])
        mat = np.array([[lam + delta + qpj, -qpj], [-qtj, lam + delta + qtj]])
        rhs = np.array([lam * g_iI + float(p.w_I[j]), lam * g_kS + float(p.w_S[j])])
        g_j = np.linalg.solve(mat, rhs)
        g[2 * j], g[2 * j + 1] = g_j[0], g_j[1]
    values = ValueVector(g)
    _certify_values(p, x, StationaryControl.mixed(p.d, i, k), values)
    return values


@dataclass(frozen=True)
class MixedFirstOrder:
    """Scale-free first-order data for the mixed family.

    R_iI and R_kS are det * g1(iI) and det * g1(kS) where g1 are the 1/lam
    coefficients of g(iI), g(kS) and det = delta (q~_k + q_plus_i + delta)
    is the determinant of the first-order system.  Both R's are polynomial
    in delta, so they remain well defined at delta = 0 where g1 itself blows
    up.  cross_margin_I / cross_margin_S are the scaled slacks of
    g(iI) <= g(kI) and g(kS) <= g(iS); they vanish identically at delta = 0.
    """

    G0_iI: float
    G0_kS: float
    gap0: float
    R_iI: float
    R_kS: float
    det: float
    cross_margin_I: float
    cross_margin_S: float


def mixed_first_order(p: ModelParams, i: int, k: int, qt: np.ndarray) -> MixedFirstOrder:
    """First-order (in 1/lam) coefficients of the mixed stationary values.

    Solves the first-order 2x2 system by Cramer's rule in a form that stays
    finite as delta -> 0.  G0_iI / G0_kS are delta * g0(iI) and
    delta * g0(kS); gap0 = g0(iI) - g0(kS) is finite.
    """
    delta = p.delta
    qpi = float(p.q_plus[i])
    qpk = float(p.q_plus[k])
    qti = float(qt[i])
    qtk = float(qt[k])
    wiI, wiS = float(p.w_I[i]), float(p.w_S[i])
    wkI, wkS = float(p.w_I[k]), float(p.w_S[k])
    den0 = qtk + qpi + delta
    G0_iI = (qtk * wiI + qpi * wkS + delta * wiI) / den0
    G0_kS = (qtk * wiI + qpi * wkS + delta * wkS) / den0
    gap0 = (wiI - wkS) / den0
    rhs1 = (qpi + qti + delta) * G0_iI - wiI * (delta + qti) - wiS * qpi
    rhs2 = -(qtk + qpk + delta) * G0_kS + wkI * qtk + wkS * (delta + qpk)
    R_kS = (qpi + delta) * rhs2 - qtk * rhs1
    R_iI = qpi * rhs2 - (qtk + delta) * rhs1
    det = delta * den0
    cross_I = ((qtk + delta) * R_kS - qtk * R_iI) / (den0 * den0)
    cross_S = ((qpi + delta) * R_iI - qpi * R_kS) / (den0 * den0)
    return MixedFirstOrder(
        G0_iI=G0_iI,
        G0_kS=G0_kS,
        gap0=gap0,
        R_iI=R_iI,
        R_kS=R_kS,
        det=det,
        cross_margin_I=cross_I,
        cross_margin_S=cross_S,
    )


@dataclass(frozen=True)
class MixedAsymptotics:
    """Zeroth/first order stationary values for the mixed control.

    The zeroth order satisfies g0(iS) = g0(kS) and g0(kI) = g0(iI) exactly
    (instantaneous decision execution cannot distinguish strategies).
    ``values`` (present only for delta > 0) carries g0 + g1/lam for the
    (i, k) block and the 1/lam expansions of the residual strategies; its
    error against the exact solve is O(1/lam^2).
    """

    first_order: MixedFirstOrder
    g0: np.ndarray | None
    values: ValueVector | None


def hjb_mixed_asymptotic(p: ModelParams, i: int, k: int, x: MixedState) -> MixedAsymptotics:
    if k == i:
        raise ValueError("mixed values require k != i")
    qt = p.q_minus + p.beta.T @ x.infected
    fo = mixed_first_order(p, i, k, qt)
    if p.delta == 0.0:
        return MixedAsymptotics(first_order=fo, g0=None, values=None)
    lam, delta = p.lam, p.delta
    qpi = float(p.q_plus[i])
    qtk = float(qt[k])
    g0 = np.empty(p.n_states)
    g0_iI = fo.G0_iI / delta
    g0_kS = fo.G0_kS / delta
    g0[2 * i] = g0_iI
    g0[2 * k] = g0_iI        # g0(kI) = g0(iI), exactly
    g0[2 * i + 1] = g0_kS    # g0(iS) = g0(kS), exactly
    g0[2 * k + 1] = g0_kS
    for j in range(p.d):
        if j not in (i, k):
            g0[2 * j] = g0_iI
            g0[2 * j + 1] = g0_kS
    g1_iI = fo.R_iI / fo.det
    g1_kS = fo.R_kS / fo.det
    g1_iS = g1_iI * (qpi + delta) / qpi   # from g(iS) = g(iI) + (delta g(iI) - w_I_i)/q_plus_i
    g1_kI = g1_kS * (qtk + delta) / qtk
    g = np.empty(p.n_states)
    g[2 * i] = g0_iI + g1_iI / lam
    g[2 * i + 1] = g0_kS + g1_iS / lam
    g[2 * k] = g0_iI + g1_kI / lam
    g[2 * k + 1] = g0_kS + g1_kS / lam
    for j in range(p.d):
        if j in (i, k):
            continue
        c_I = float(p.w_I[j]) - fo.G0_iI - float(p.q_plus[j]) * fo.gap0
        c_S = float(p.w_S[j]) - fo.G0_kS + float(qt[j]) * fo.gap0
        g[2 * j] = g[2 * i] + c_I / lam
        g[2 * j + 1] = g[2 * k + 1] + c_S / lam
    return MixedAsymptotics(first_order=fo, g0=g0, values=ValueVector(g))


# ---------------------------------------------------------------------------
# optimality margins


@dataclass(frozen=True)
class ConsistencyMargins:
    """Slacks of the best-response inequalities for a candidate control.

    Exact margins come from the solved stationary values:
        margin_I[j] = g(jI) - g(iI),   margin_S[j] = g(jS) - g(kS)
    (k = i for the single family); base entries are zero.  The candidate is
    a best response iff every exact margin is >= 0; margins within TIE_TOL
    of zero are boundary / bifurcation cases.

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

    def _off_base(self) -> np.ndarray:
        d = self.margin_I.size
        vals = []
        for j in range(d):
            if j != self.base_I:
                vals.append(self.margin_I[j])
            if j != self.base_S:
                vals.append(self.margin_S[j])
        return np.asarray(vals)

    @property
    def min_margin(self) -> float:
        off = self._off_base()
        return float(off.min()) if off.size else np.inf

    @property
    def accepted(self) -> bool:
        return self.min_margin >= -TIE_TOL

    @property
    def degenerate(self) -> bool:
        off = self._off_base()
        return bool(off.size and np.any(np.abs(off) <= TIE_TOL))


def margins_from_values(g: ValueVector, i: int, k: int, **families) -> ConsistencyMargins:
    margin_I = g.infected_values - g.g_I(i)
    margin_S = g.susceptible_values - g.g_S(k)
    return ConsistencyMargins(
        base_I=i, base_S=k, margin_I=margin_I, margin_S=margin_S, **families
    )


def small_interaction_margins_single(p: ModelParams, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-free strict optimality conditions for the all-to-i
    candidate, for j != i (zero at i), with D = q_minus_i + q_plus_i + delta:
        I[j]: (w_I_j - w_I_i) / (w_I_i - w_S_i) - (q_plus_j - q_plus_i) / D
        S[j]: (w_S_j - w_S_i) / (w_I_i - w_S_i) - (q_minus_i - q_minus_j) / D
    """
    sm_I = np.zeros(p.d)
    sm_S = np.zeros(p.d)
    den0 = float(p.q_minus[i] + p.q_plus[i] + p.delta)
    w_gap = float(p.w_I[i] - p.w_S[i])
    for j in range(p.d):
        if j == i:
            continue
        sm_I[j] = float(p.w_I[j] - p.w_I[i]) / w_gap - float(p.q_plus[j] - p.q_plus[i]) / den0
        sm_S[j] = float(p.w_S[j] - p.w_S[i]) / w_gap - float(p.q_minus[i] - p.q_minus[j]) / den0
    return sm_I, sm_S


def consistency_single(p: ModelParams, i: int, x_star: float, g: ValueVector) -> ConsistencyMargins:
    """Best-response margins for the all-to-i candidate with infected share
    x_star and solved values g.

    Exact margins from g.  Asymptotic margins are the leading-order-in-1/lam
    conditions
        (w_I_j - w_I_i) - (q_plus_j - q_plus_i) gap_i >= 0
        (w_S_j - w_S_i) - (q_minus_i - q_minus_j + (beta_ii - beta_ij) x*) gap_i >= 0,
    and the small-interaction family divides out gap_i and drops x*.
    """
    gap_i = _single_block(p, i, x_star)[0]
    asy_I = np.zeros(p.d)
    asy_S = np.zeros(p.d)
    for j in range(p.d):
        if j == i:
            continue
        asy_I[j] = float(p.w_I[j] - p.w_I[i]) - float(p.q_plus[j] - p.q_plus[i]) * gap_i
        asy_S[j] = float(p.w_S[j] - p.w_S[i]) - (
            float(p.q_minus[i] - p.q_minus[j]) + float(p.beta[i, i] - p.beta[i, j]) * x_star
        ) * gap_i
    sm_I, sm_S = small_interaction_margins_single(p, i)
    return margins_from_values(
        g,
        i,
        i,
        asymptotic_margin_I=asy_I,
        asymptotic_margin_S=asy_S,
        small_interaction_margin_I=sm_I,
        small_interaction_margin_S=sm_S,
    )


def small_interaction_margins_mixed(
    p: ModelParams, i: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-free display family for the mixed candidate (diagnostic).

    Evaluates, verbatim, the four strict inequalities of the small-beta /
    small-delta sufficient-condition display:
        I[j], j not in {i,k}: q_plus_j (w_I_i - w_S_k) + w_I_j (q_minus_k + q_plus_i)
        S[j], j not in {i,k}: q_minus_j (w_I_i - w_S_k) + w_S_j (q_minus_k + q_plus_i)
        I[k]: q_minus_k (w_I_k - w_I_i) + w_S_k (q_plus_k - q_plus_i)
        S[i]: q_plus_i (w_S_i - w_S_k) + w_I_i (q_minus_i - q_minus_k)
    These trace the displayed inequalities only; sign agreement with the
    exact margins is not guaranteed (see asymptotic_margin_* for the
    first-order conditions that do track the exact solve).
    """
    sm_I = np.zeros(p.d)
    sm_S = np.zeros(p.d)
    head = float(p.w_I[i] - p.w_S[k])
    qsum = float(p.q_minus[k] + p.q_plus[i])
    for j in range(p.d):
        if j not in (i, k):
            sm_I[j] = float(p.q_plus[j]) * head + float(p.w_I[j]) * qsum
            sm_S[j] = float(p.q_minus[j]) * head + float(p.w_S[j]) * qsum
    sm_I[k] = float(p.q_minus[k]) * (p.w_I[k] - p.w_I[i]) + float(p.w_S[k]) * (
        p.q_plus[k] - p.q_plus[i]
    )
    sm_S[i] = float(p.q_plus[i]) * (p.w_S[i] - p.w_S[k]) + float(p.w_I[i]) * (
        p.q_minus[i] - p.q_minus[k]
    )
    return sm_I, sm_S


def consistency_mixed(
    p: ModelParams, i: int, k: int, x: MixedState, g: ValueVector
) -> ConsistencyMargins:
    """Best-response margins for the mixed candidate [i(I), k(S)] with
    fixed point x and solved values g.

    Exact margins from g.  Asymptotic margins: the scaled
    first-order cross conditions for g(iI) <= g(kI) and g(kS) <= g(iS)
    (which vanish identically at delta = 0), and for residual strategies the
    first-order brackets
        I[j]: w_I_j - delta g0(iI) - q_plus_j (g0(iI) - g0(kS))
        S[j]: w_S_j - delta g0(kS) + q~_j (g0(iI) - g0(kS)).
    """
    qt = p.q_minus + p.beta.T @ x.infected
    fo = mixed_first_order(p, i, k, qt)
    asy_I = np.zeros(p.d)
    asy_S = np.zeros(p.d)
    asy_I[k] = fo.cross_margin_I
    asy_S[i] = fo.cross_margin_S
    for j in range(p.d):
        if j in (i, k):
            continue
        asy_I[j] = float(p.w_I[j]) - fo.G0_iI - float(p.q_plus[j]) * fo.gap0
        asy_S[j] = float(p.w_S[j]) - fo.G0_kS + float(qt[j]) * fo.gap0
    sm_I, sm_S = small_interaction_margins_mixed(p, i, k)
    return margins_from_values(
        g,
        i,
        k,
        asymptotic_margin_I=asy_I,
        asymptotic_margin_S=asy_S,
        small_interaction_margin_I=sm_I,
        small_interaction_margin_S=sm_S,
    )


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


def _candidate_controls(d: int) -> list[StationaryControl]:
    out = []
    for i in range(d):
        out.append(StationaryControl.single(d, i))
        for k in range(d):
            if k != i:
                out.append(StationaryControl.mixed(d, i, k))
    out.sort(key=lambda u: u.sort_key())
    return out


def solve_candidate(p: ModelParams, u: StationaryControl) -> EquilibriumSolution:
    """Solve one candidate control without accepting or rejecting it."""
    i, k = u.as_pair()
    if u.is_single:
        x_star, x = fixed_point_single(p, i)
        g = hjb_single_exact(p, i, x_star)
        margins = consistency_single(p, i, x_star, g)
        stability = stability_single(p, i, x_star)
    else:
        x, _ = fixed_point_mixed(p, i, k)
        g = hjb_mixed_exact(p, i, k, x)
        margins = consistency_mixed(p, i, k, x, g)
        stability = stability_numerical(p, u, x)
    residual = consistency_residual(p, x, g, u)
    return EquilibriumSolution(
        control=u,
        x_star=x,
        g=g,
        stability=stability,
        margins=margins,
        residual=residual,
        degenerate=margins.degenerate,
    )


def enumerate_equilibria(p: ModelParams) -> EnumerationResult:
    """Solve every uniform candidate control and keep the certified ones.

    Candidates are the d single and d(d-1) mixed controls, in deterministic
    (lexicographic) order.  A candidate is kept when all exact margins are
    >= 0 (within TIE_TOL) and the stationarity residual is at most
    EQUILIBRIUM_RESIDUAL_TOL or, when larger, ``_roundoff_floor`` of its
    values.  Per-candidate failures become reports, never exceptions.
    """
    _require_positive_discount(p)
    equilibria: list[EquilibriumSolution] = []
    reports: list[CandidateReport] = []
    for u in _candidate_controls(p.d):
        try:
            sol = solve_candidate(p, u)
        except (RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
            # ValueError: a MixedState or ValueVector rejected the candidate's
            # numbers, e.g. a fixed point rounded just off the simplex
            reports.append(CandidateReport(u, "failed", None, None, str(exc)))
            continue
        min_margin = sol.margins.min_margin
        if sol.margins.accepted and sol.residual <= max(
            EQUILIBRIUM_RESIDUAL_TOL, _roundoff_floor(p, sol.g)
        ):
            # residual control gap can be positive only through tie-level noise here
            br, _ = best_response(sol.g)
            detail = "degenerate (boundary margin)" if sol.degenerate else "equilibrium"
            if not (br == sol.control or sol.degenerate):
                reports.append(
                    CandidateReport(u, "failed", min_margin, sol.residual,
                                    "margins accepted but best response disagrees")
                )
                continue
            equilibria.append(sol)
            reports.append(CandidateReport(u, "accepted", min_margin, sol.residual, detail))
        else:
            why = (
                f"negative margin {min_margin:.3e}"
                if min_margin < -TIE_TOL
                else f"residual {sol.residual:.3e} above tolerance"
            )
            reports.append(CandidateReport(u, "rejected", min_margin, sol.residual, why))
    return EnumerationResult(equilibria=equilibria, reports=reports)
