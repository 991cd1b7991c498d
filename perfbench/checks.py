"""Checks of the program's artifacts, computed apart from the program.

Everything here uses numpy and the scenario inputs only: the stationary
states, values and rates are rebuilt from the model through the one-agent
generator matrix, never through ``sismfg``.  Each check returns a list of
error strings; an empty list means the artifact passed.

State vectors use the order (1I, 1S, 2I, 2S, ...), 0-based in code.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

#: roundoff allowance relative to the size of the rates and values; the
#: program's own solves are exact to a few ulps of lam * |g|
REL_TOL = 1e-12
#: band around zero inside which a best-response margin is too close to a
#: bifurcation for the membership of a candidate to be decided, relative
#: to the size of the values: the refined dense solve resolves value
#: differences to a few eps * |g|, and this is about 450 eps
MARGIN_BAND = 1e-13
#: the program's documented absolute tie tolerance between strategies
TIE_TOL = 1e-10
#: the exponential turnpike estimate of acceptance criterion 6
TURNPIKE_K = 1.1
MID_WINDOW_TRIM = 0.1
#: mid-window distance of the values from the stationary values, relative
#: to the stationary values (the criterion-6 bound is 1e-3 on g* of size 15)
TURNPIKE_G_RTOL = 1e-4
#: the gap column against the benchmark's own quadrature, relative to the
#: size of the gap
GAP_RTOL = 1e-8
LLN_RATIO_WINDOW = (1.25, 3.2)
TERMINAL_FRACTION_TOL = 0.02


class Model:
    """The game constants of a scenario's model block, as arrays."""

    def __init__(self, block: dict):
        self.d = int(block["d"])
        self.lam = float(block["lambda"])
        self.delta = float(block["delta"])
        self.q_plus = np.asarray(block["q_plus"], dtype=float)
        self.q_minus = np.asarray(block["q_minus"], dtype=float)
        self.beta = np.asarray(block["beta"], dtype=float)
        self.w = np.empty(2 * self.d)
        self.w[0::2] = block["w_I"]
        self.w[1::2] = block["w_S"]

    def generator(self, x: np.ndarray, target_I, target_S) -> np.ndarray:
        """One-agent generator matrix Q[from, to] against the population x.

        Rows sum to zero.  The population drift is x @ Q and the stationary
        discounted values solve delta g = w + Q g.
        """
        n = 2 * self.d
        q = np.zeros((n, n))
        pressure = self.q_minus + self.beta.T @ x[0::2]
        for j in range(self.d):
            if target_I[j] != j:
                q[2 * j, 2 * target_I[j]] += self.lam
            if target_S[j] != j:
                q[2 * j + 1, 2 * target_S[j] + 1] += self.lam
            q[2 * j, 2 * j + 1] += self.q_plus[j]
            q[2 * j + 1, 2 * j] += pressure[j]
        q[np.diag_indices(n)] = -q.sum(axis=1)
        return q

    def stationary_values(self, x: np.ndarray, target_I, target_S) -> np.ndarray:
        """Dense linear solve of delta g = w + Q g, with one step of
        iterative refinement on a residual formed in extended precision."""
        mat = self.delta * np.eye(2 * self.d) - self.generator(x, target_I, target_S)
        g = np.linalg.solve(mat, self.w)
        wide = mat.astype(np.longdouble)
        resid = self.w.astype(np.longdouble) - wide @ g.astype(np.longdouble)
        return g + np.linalg.solve(mat, resid.astype(float))

    def infected_share(self, i: int) -> float:
        """Root on (0, 1) of beta_ii y^2 + (q+_i - beta_ii + q-_i) y - q-_i,
        by bisection (the polynomial is -q-_i at 0 and q+_i at 1)."""
        a = self.beta[i, i]
        b = self.q_plus[i] - a + self.q_minus[i]
        c = -self.q_minus[i]
        lo, hi = 0.0, 1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            if (a * mid + b) * mid + c < 0.0:
                lo = mid
            else:
                hi = mid

    def single_state(self, i: int) -> np.ndarray:
        y = self.infected_share(i)
        x = np.zeros(2 * self.d)
        x[2 * i] = y
        x[2 * i + 1] = 1.0 - y
        return x

    def single_candidate(self, i: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(x*, g*, min margin) of the all-to-i control.  The margin is the
        least slack of g(jI) >= g(iI) and g(jS) >= g(iS) over j != i."""
        x = self.single_state(i)
        targets = [i] * self.d
        g = self.stationary_values(x, targets, targets)
        gI, gS = g[0::2], g[1::2]
        others = [j for j in range(self.d) if j != i]
        if not others:
            return x, g, np.inf
        margin = min(float(np.min(gI[others] - gI[i])), float(np.min(gS[others] - gS[i])))
        return x, g, margin


def _value_scale(g: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(g))))


def single_membership(model: Model) -> dict[int, tuple[str, np.ndarray]]:
    """For every strategy i: ('member' | 'not' | 'undecided', x*)."""
    out = {}
    for i in range(model.d):
        x, g, margin = model.single_candidate(i)
        band = MARGIN_BAND * _value_scale(g)
        verdict = "member" if margin > band else "not" if margin < -band else "undecided"
        out[i] = (verdict, x)
    return out


def stationary_equation_errors(model: Model, label: str, target_I, target_S,
                               x: np.ndarray, g: np.ndarray) -> list[str]:
    """Zero population drift, zero value defect and best response at (x, g)."""
    errors = []
    q = model.generator(x, target_I, target_S)
    scale = 1.0 + model.lam + float(np.max(model.q_plus)) + float(np.max(model.q_minus)) \
        + float(np.max(model.beta))
    gs = _value_scale(g)
    if np.any(x < 0) or abs(float(x.sum()) - 1.0) > REL_TOL * x.size:
        errors.append(f"{label}: x* is off the simplex")
    drift = float(np.max(np.abs(x @ q)))
    if drift > REL_TOL * scale:
        errors.append(f"{label}: population drift {drift:.3e} at x*")
    defect = float(np.max(np.abs(model.delta * g - model.w - q @ g)))
    if defect > REL_TOL * scale * gs:
        errors.append(f"{label}: value defect {defect:.3e} at g*")
    gI, gS = g[0::2], g[1::2]
    slack = max(float(np.max(gI[target_I] - gI.min())), float(np.max(gS[target_S] - gS.min())))
    if slack > max(TIE_TOL, MARGIN_BAND * gs):
        errors.append(f"{label}: control is not a best response (slack {slack:.3e})")
    return errors


def _single_index(label: str) -> int | None:
    if label.startswith("single(") and label.endswith(")"):
        return int(label[7:-1]) - 1
    return None


# ---------------------------------------------------------------------------
# equilibria-d20


def check_equilibria(scenario: dict, out_dir: Path) -> list[str]:
    model = Model(scenario["model"])
    data = json.loads((out_dir / "equilibria.json").read_text())
    errors = []
    listed_singles = {}
    for eq in data["equilibria"]:
        label = eq["control"]["label"]
        t_I = [t - 1 for t in eq["control"]["target_I"]]
        t_S = [t - 1 for t in eq["control"]["target_S"]]
        x = np.asarray(eq["x_star"], dtype=float)
        g = np.asarray(eq["g"], dtype=float)
        errors += stationary_equation_errors(model, label, t_I, t_S, x, g)
        i = _single_index(label)
        if i is not None:
            listed_singles[i] = eq
    accepted = sorted(c["control"]["label"] for c in data["candidates"] if c["status"] == "accepted")
    if accepted != sorted(eq["control"]["label"] for eq in data["equilibria"]):
        errors.append("the listed equilibria are not the accepted candidates")
    for i, (verdict, x_own) in single_membership(model).items():
        label = f"single({i + 1})"
        if verdict == "member" and i not in listed_singles:
            errors.append(f"{label} is an equilibrium but is not listed")
        if verdict == "not" and i in listed_singles:
            errors.append(f"{label} is listed but is not an equilibrium")
        if i in listed_singles:
            eq = listed_singles[i]
            x = np.asarray(eq["x_star"], dtype=float)
            if float(np.max(np.abs(x - x_own))) > REL_TOL:
                errors.append(f"{label}: x* differs from the bisection root")
            if not eq["stability"]["max_real_part"] < 0:
                errors.append(f"{label}: max_real_part {eq['stability']['max_real_part']} >= 0")
    return errors


# ---------------------------------------------------------------------------
# sweep-d3


def check_sweep(scenario: dict, out_dir: Path) -> tuple[list[str], int]:
    """Errors, and the number of points whose row misses a single(i) that
    the benchmark certifies (the small-discount residual fault)."""
    axes = scenario["sweep"]["axes"]
    paths = [a["path"] for a in axes]
    with (out_dir / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    grid = [(a, b) for a in axes[0]["values"] for b in axes[1]["values"]]
    errors = []
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows for {len(grid)} points"], 0
    missing_points = 0
    for row, values in zip(rows, grid):
        where = ", ".join(f"{p}={v:.6g}" for p, v in zip(paths, values))
        if any(float(row[p]) != v for p, v in zip(paths, values)):
            errors.append(f"row out of grid order at {where}")
            continue
        if row["status"] != "ok":
            errors.append(f"point failed at {where}")
            continue
        model = Model({**scenario["model"], **dict(zip(paths, values))})  # axes are top-level keys
        labels = [s for s in row["controls"].split(";") if s]
        if int(row["n_equilibria"]) != len(labels):
            errors.append(f"n_equilibria disagrees with the control list at {where}")
        listed = [i for i in map(_single_index, labels) if i is not None]
        missing = False
        for i, (verdict, _) in single_membership(model).items():
            if verdict == "member" and i not in listed:
                missing = True
            if verdict == "not" and i in listed:
                errors.append(f"single({i + 1}) listed but not an equilibrium at {where}")
        missing_points += missing
        if listed:
            x_own = model.infected_share(listed[0])
            if abs(float(row["x_star"]) - x_own) > REL_TOL:
                errors.append(f"x* of single({listed[0] + 1}) differs at {where}")
            if not float(row["max_real_part"]) < 0:
                errors.append(f"max_real_part >= 0 for single({listed[0] + 1}) at {where}")
    return errors, missing_points


# ---------------------------------------------------------------------------
# turnpike


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def gap_quadrature(model: Model, i: int, t: np.ndarray, x_path: np.ndarray,
                   gap_end: float) -> np.ndarray:
    """g(iI) - g(iS) along the path, from the gap equation
    d gap/d tau = (w_I - w_S)_i - a(t) gap,  a = q+_i + q-_i + delta + sum_k beta_ki x_kI,
    with a linear between nodes as the path is.  Per interval the integrating
    factor is exact and the source integral uses Simpson's rule."""
    a = model.q_plus[i] + model.q_minus[i] + model.delta + x_path[:, 0::2] @ model.beta[:, i]
    w_gap = model.w[2 * i] - model.w[2 * i + 1]
    h = np.diff(t)
    a0, a1 = a[:-1], a[1:]
    # exp(-int_{t_m}^{s} a) at s = t_m, midpoint, t_{m+1}
    e_mid = np.exp(-0.5 * h * (0.75 * a0 + 0.25 * a1))
    e_end = np.exp(-0.5 * h * (a0 + a1))
    source = w_gap * h / 6.0 * (1.0 + 4.0 * e_mid + e_end)
    gap = np.empty(t.size)
    gap[-1] = gap_end
    for m in range(t.size - 2, -1, -1):
        gap[m] = e_end[m] * gap[m + 1] + source[m]
    return gap


def check_turnpike(scenario: dict, out_dir: Path) -> list[str]:
    model = Model(scenario["model"])
    block = scenario["turnpike"]
    i = block["strategy"] - 1
    d = model.d
    summary = json.loads((out_dir / "turnpike_summary.json").read_text())
    header, table = _read_table(out_dir / "turnpike.csv")
    errors = []
    t = table[:, 0]
    x_path = table[:, 1:1 + 2 * d]
    g_path = table[:, 1 + 2 * d:1 + 4 * d]
    flags = table[:, 1 + 4 * d:]
    if header[-2:] != ["cone_ok", "argmin_ok"] or flags.shape[1] != 2:
        return ["turnpike table lacks the cone_ok / argmin_ok columns"]
    grid = block["grid"]
    if t.size != grid["n_steps"] + 1:
        errors.append(f"{t.size} nodes for {grid['n_steps']} steps")
    if np.any(x_path < 0) or float(np.max(np.abs(x_path.sum(axis=1) - 1.0))) > REL_TOL * x_path.shape[1]:
        errors.append("an x row is off the simplex")
    if summary["certified"] is not True:
        errors.append("the run is not certified")
    if not np.all(flags == 1):
        errors.append(f"{int(np.sum(flags != 1))} cone/argmin flags are not 1")

    x_star = model.single_state(i)
    y_star = x_star[2 * i]
    b = model.beta[i, i]
    omega = model.q_plus[i] + model.q_minus[i] - b + 2.0 * b * y_star
    x0 = np.full(2 * d, 1.0 / (2 * d)) if block["x0"] == "uniform" else np.asarray(block["x0"])
    amplitude = abs(float(x0[0::2].sum()) - y_star)
    horizon = grid["t_end"] - grid["t_start"]
    t_lo = grid["t_start"] + MID_WINDOW_TRIM * horizon
    t_hi = grid["t_end"] - MID_WINDOW_TRIM * horizon
    mid = (t >= t_lo) & (t <= t_hi)
    sup_x = float(np.max(np.abs(x_path[mid] - x_star)))
    bound = TURNPIKE_K * amplitude * np.exp(-omega * t_lo)
    if not sup_x <= bound:
        errors.append(f"mid-window sup|x - x*| {sup_x:.4e} above K C e^(-omega t_lo) = {bound:.4e}")

    targets = [i] * d
    g_star = model.stationary_values(x_star, targets, targets)
    sup_g = float(np.max(np.abs(g_path[mid] - g_star)))
    if not sup_g <= TURNPIKE_G_RTOL * _value_scale(g_star):
        errors.append(f"mid-window sup|g - g*| {sup_g:.4e} against the dense solve")

    gap = g_path[:, 2 * i] - g_path[:, 2 * i + 1]
    own = gap_quadrature(model, i, t, x_path, gap[-1])
    worst = float(np.max(np.abs(gap - own)))
    if not worst <= GAP_RTOL * max(1.0, float(np.max(np.abs(own)))):
        errors.append(f"gap column differs from the quadrature by {worst:.3e}")
    return errors


# ---------------------------------------------------------------------------
# nplayer


def check_nplayer(scenario: dict, out_dir: Path) -> list[str]:
    model = Model(scenario["model"])
    block = scenario["nplayer"]
    errors = []
    header, table = _read_table(out_dir / "nplayer_path.csv")
    t = table[:, 0]
    counts = table[:, 1:]
    n_agents = block["n_agents"]
    if np.any(counts.sum(axis=1) != n_agents):
        errors.append(f"a count row does not sum to N = {n_agents}")
    if t[0] != 0.0 or not np.all(np.diff(t) > 0) or t[-1] > block["t_end"]:
        errors.append("event times do not increase inside [0, t_end]")
    i = block["control"]["i"] - 1
    terminal = counts[-1] / n_agents
    dev = float(np.max(np.abs(terminal - model.single_state(i))))
    if not dev <= TERMINAL_FRACTION_TOL:
        errors.append(f"terminal fractions {dev:.4f} from x* (bound {TERMINAL_FRACTION_TOL})")

    with (out_dir / "lln_error.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["N"]) for r in rows] != list(block["n_list"]):
        errors.append("lln_error rows do not match n_list")
        return errors
    means = [float(r["mean_sup_error"]) for r in rows]
    lo, hi = LLN_RATIO_WINDOW
    for m in range(len(means) - 1):
        ratio = means[m] / means[m + 1]
        if not lo <= ratio <= hi:
            errors.append(
                f"mean error ratio {ratio:.3f} from N={rows[m]['N']} to N={rows[m + 1]['N']} "
                f"outside [{lo}, {hi}]"
            )
    return errors


def check(workload: str, scenario: dict, out_dir: Path) -> tuple[list[str], int]:
    """All checks of one workload: (errors, failed operations per solve)."""
    if workload == "sweep-d3":
        return check_sweep(scenario, out_dir)
    fn = {
        "turnpike": check_turnpike,
        "equilibria-d20": check_equilibria,
        "nplayer": check_nplayer,
    }[workload]
    return fn(scenario, out_dir), 0
