"""Run orchestration and result persistence.

Each run kind has one runner, ``run_<kind>(cfg, out_dir)``, which reads
what it needs from the scenario (``cfg.block`` is the run kind's block,
whose states the config layer has built: a runner sees no tokens);
``run_scenario`` picks it by ``cfg.run``.  Every run writes its artifacts
plus a ``manifest.json`` (the scenario as read with the seed in force,
tool version, timestamps, artifact list, failures, and the run's summary:
for an ``nplayer`` run with ``n_list`` this includes the integrator and
step count of the LLN reference).  The manifest is written even when the
run fails.  Numeric artifacts are deterministic functions of (config,
seed): JSON keys are sorted and sweep rows are emitted in grid order, so
identical runs produce byte-identical numeric files (manifest timestamps
excluded).

Tables (``_write_table``) take rows of Python numbers and strings, or the
float and integer columns of a number table (``_Columns``).  In a CSV
table a float carries 17 significant digits (round-trip exact); a number
table is written ROW_CHUNK rows at a time, with one %-format per chunk in
which a column constant over the chunk is literal text (``_Columns``), in
the bytes of formatting every cell.  In a JSON
table a cell is a JSON number typed by its column (float columns hold
floats; counts, N and the flags hold integers); a non-finite float
(``inf``) and an empty cell are strings.

Trajectory column contract:
    t, x_1I, x_1S, ..., x_dI, x_dS[, g_1I, g_1S, ..., cone_ok, argmin_ok]
with the g/flag columns present for turnpike runs; flags are 1/0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .dynamics import integrate_forward, solve_turnpike
from .model import StationaryControl
from .nplayer import CountVector, lln_error, simulate_ctmc
from .stationary import (
    ACCEPTED,
    EnumerationResult,
    EquilibriumSolution,
    candidate_controls,
    enumerate_equilibria,
    solve_points,
)


def fmt(v: float) -> str:
    """17-significant-digit float formatting (round-trip safe)."""
    return format(float(v), ".17g")


@dataclass
class ResultBundle:
    manifest: dict
    artifacts: dict[str, Path] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    n_succeeded: int = 0


def _state_labels(d: int, prefix: str) -> list[str]:
    out = []
    for j in range(1, d + 1):
        out.append(f"{prefix}_{j}I")
        out.append(f"{prefix}_{j}S")
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


#: the CSV cell rule by numpy dtype kind: a float carries 17 significant
#: digits, an integer is written as str() writes it
CELL_FORMAT = {"f": "%.17g", "i": "%d"}


def _write_table(out_dir: Path, name: str, fmt_kind: str, header: list[str], rows) -> Path:
    """Bulk numeric table in the configured encoding (csv or json records).

    rows hold Python numbers and strings, or are ``_Columns``.  CSV writes
    a float with the 17-digit rule and any other cell as str() does (the
    csv module's own conversion); ``_Columns`` are written a chunk at a
    time (``_Columns.csv_text``), their columns' cell rules joined, which
    gives the same bytes.  JSON keeps numbers as numbers and writes a non-finite
    float as its text ('inf').
    """
    if fmt_kind == "csv":
        path = out_dir / f"{name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, _Columns):
                dialect = writer.dialect
                fh.writelines(rows.csv_text(dialect.delimiter, dialect.lineterminator))
            else:
                writer.writerows(
                    [CELL_FORMAT["f"] % c if isinstance(c, float) else c for c in r] for r in rows
                )
    else:
        path = out_dir / f"{name}.json"
        rows = [[fmt(c) if isinstance(c, float) and not math.isfinite(c) else c for c in r]
                for r in rows]
        _write_json(path, {"columns": header, "rows": rows})
    return path


def _control_json(u: StationaryControl) -> dict:
    return {
        "label": u.label(),
        "target_I": (u.target_I + 1).tolist(),
        "target_S": (u.target_S + 1).tolist(),
    }


def _equilibrium_json(sol: EquilibriumSolution) -> dict:
    m = sol.margins
    return {
        "control": _control_json(sol.control),
        "x_star": sol.x_star.x.tolist(),
        "g": sol.g.g.tolist(),
        "residual": sol.residual,
        "degenerate": sol.degenerate,
        "stability": {
            "stable": sol.stability.stable,
            "max_real_part": sol.stability.max_real_part,
            "xi_principal": sol.stability.xi_principal,
            "xi_pairs": None
            if sol.stability.xi_pairs is None
            else sol.stability.xi_pairs.tolist(),
            "spectrum": [[float(v.real), float(v.imag)] for v in sol.stability.spectrum],
        },
        "margins": {
            "min_margin": m.min_margin,
            "margin_I": m.margin_I.tolist(),
            "margin_S": m.margin_S.tolist(),
            "asymptotic_margin_I": m.asymptotic_margin_I.tolist(),
            "asymptotic_margin_S": m.asymptotic_margin_S.tolist(),
            "small_interaction_margin_I": m.small_interaction_margin_I.tolist(),
            "small_interaction_margin_S": m.small_interaction_margin_S.tolist(),
        },
    }


def _enumeration_json(result: EnumerationResult) -> dict:
    return {
        "equilibria": [_equilibrium_json(s) for s in result.equilibria],
        "candidates": [
            {
                "control": _control_json(r.control),
                "status": r.status,
                "min_margin": r.min_margin,
                "residual": r.residual,
                "detail": r.detail,
            }
            for r in result.reports
        ],
    }


def run_equilibria(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, Path], dict]:
    result = enumerate_equilibria(cfg.model)
    path = out_dir / "equilibria.json"
    _write_json(path, _enumeration_json(result))
    summary = {
        "n_equilibria": len(result.equilibria),
        "controls": [s.control.label() for s in result.equilibria],
    }
    return {"equilibria": path}, summary


def run_simulate(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, Path], dict]:
    p, sim = cfg.model, cfg.block
    x_path = integrate_forward(p, sim.x0, sim.control, sim.grid)
    header = ["t"] + _state_labels(p.d, "x")
    rows = _Columns(sim.grid.times(), x_path)
    path = _write_table(out_dir, "trajectory", cfg.output.format, header, rows)
    return {"trajectory": path}, {"terminal": x_path[-1].tolist()}


#: rows converted to Python objects, or written, at a time when a table of
#: columns is written
ROW_CHUNK = 256


class _Columns:
    """A table of equally long float or integer column arrays (one value or
    one array row per column).

    Iterated, it gives flat rows as Python numbers: an object array gives
    Python floats and ints, typed by their column, without a per-value
    conversion, and converting a chunk of rows at a time keeps the whole
    table from existing as Python objects at once.  ``formats`` holds the
    CSV cell rule of every column (``CELL_FORMAT`` of its dtype).
    ``csv_text`` writes the rows ROW_CHUNK at a time.
    """

    def __init__(self, *columns: np.ndarray):
        self.blocks = [c.reshape(c.shape[0], -1) for c in columns]
        self.formats = [CELL_FORMAT[b.dtype.kind] for b in self.blocks for _ in range(b.shape[1])]

    def __iter__(self):
        for start in range(0, self.blocks[0].shape[0], ROW_CHUNK):
            chunk = [b[start:start + ROW_CHUNK].astype(object) for b in self.blocks]
            yield from np.concatenate(chunk, axis=1).tolist()

    def csv_text(self, delimiter: str, terminator: str):
        """The CSV rows, one string per chunk of ROW_CHUNK rows, each row
        its columns' cell rules joined.  A column whose bits are the same
        over the whole chunk (so -0.0 and +0.0 differ) is formatted once,
        as literal text in that chunk's row format (a formatted number holds
        no '%' to escape): the stalled tail of a trajectory, a state that
        holds its count.  The bytes are those of formatting every cell."""
        for start in range(0, self.blocks[0].shape[0], ROW_CHUNK):
            chunk = [b[start:start + ROW_CHUNK] for b in self.blocks]
            const = [np.all(c.view(f"u{c.itemsize}") == c[:1].view(f"u{c.itemsize}"), axis=0)
                     for c in chunk]
            first = [v for c in chunk for v in c[0].tolist()]
            cells = [f % v if k else f
                     for f, v, k in zip(self.formats, first, np.concatenate(const).tolist())]
            row_format = delimiter.join(cells) + terminator
            rows = np.concatenate([c[:, ~k].astype(object) for c, k in zip(chunk, const)], axis=1)
            yield "".join([row_format % tuple(r) for r in rows.tolist()])


def run_turnpike(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, Path], dict]:
    p, tp = cfg.model, cfg.block
    sol = solve_turnpike(p, tp.strategy, tp.x0, tp.g_terminal, tp.grid, tp.anchor)
    header = (
        ["t"] + _state_labels(p.d, "x") + _state_labels(p.d, "g") + ["cone_ok", "argmin_ok"]
    )
    rows = _Columns(sol.grid.times(), sol.x_path, sol.g_path,
                    sol.cone_ok.astype(int), sol.argmin_ok.astype(int))
    path = _write_table(out_dir, "turnpike", cfg.output.format, header, rows)
    summary = {
        "certified": sol.certified,
        "first_violation_time": sol.first_violation_time,
        "mid_window": list(sol.stats.window),
        "sup_x_mid": sol.stats.sup_x_mid,
        "sup_g_mid": sol.stats.sup_g_mid,
        "window_entry": sol.stats.entry,
        "window_exit": sol.stats.exit,
        "inside_fraction": sol.stats.inside_fraction,
    }
    spath = out_dir / "turnpike_summary.json"
    _write_json(spath, summary)
    return {"turnpike": path, "turnpike_summary": spath}, summary


def run_nplayer(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, Path], dict]:
    p, npl, fmt_kind = cfg.model, cfg.block, cfg.output.format
    artifacts: dict[str, Path] = {}
    summary: dict = {}
    if npl.n_list is not None:
        table = lln_error(p, npl.control, npl.x0, npl.t_end, list(npl.n_list), npl.replications,
                          cfg.seed)
        header = ["N", "mean_sup_error", "std_error", "replications"]
        rows = [[r.N, r.mean_sup_error, r.std_error, table.replications] for r in table.rows]
        artifacts["lln_error"] = _write_table(out_dir, "lln_error", fmt_kind, header, rows)
        summary["mean_sup_errors"] = {str(r.N): r.mean_sup_error for r in table.rows}
        summary["ratios"] = table.ratios()
        summary["lln_reference"] = {"integrator": "etdrk4", "steps": table.reference_steps}
    if npl.n_agents is not None:
        n0 = CountVector.from_fractions(npl.x0, npl.n_agents)
        ctmc = simulate_ctmc(p, n0, npl.control, npl.t_end, cfg.seed)
        counts = ctmc.counts()
        header = ["t"] + _state_labels(p.d, "n")
        times = np.concatenate([[0.0], ctmc.times])
        artifacts["nplayer_path"] = _write_table(
            out_dir, "nplayer_path", fmt_kind, header, _Columns(times, counts)
        )
        summary["n_events"] = ctmc.n_events
        summary["terminal_fractions"] = (counts[-1] / npl.n_agents).tolist()
    return artifacts, summary


def run_sweep(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, Path], dict]:
    """One equilibria summary row per grid point.  The config layer has
    checked every point, and the kernel solves all points' candidates at
    once; per-candidate failures are part of a point's result."""
    axes, points = cfg.block.axes, cfg.block.points
    sol = solve_points(cfg.block.stack)
    controls = candidate_controls(cfg.model.d)
    labels = [u.label() for u in controls]
    single = np.array([u.is_single for u in controls])
    accepted = (sol.status == ACCEPTED).reshape(len(points), len(controls))

    header = [axis.path for axis in axes] + [
        "status",
        "n_equilibria",
        "controls",
        "x_star",
        "min_margin",
        "max_real_part",
    ]
    rows = []
    for n, (coords, found) in enumerate(zip(points.tolist(), accepted)):
        found = np.flatnonzero(found)
        first = ["", "", ""]  # x_star, min_margin, max_real_part of the first single equilibrium
        singles = found[single[found]]
        if singles.size:
            r = n * len(controls) + singles[0]
            first = [sol.x[r, 2 * sol.i[r]], sol.min_margin[r], sol.max_real_part[r]]
        rows.append(
            coords + ["ok", found.size, ";".join(labels[c] for c in found)] + first
        )
    path = _write_table(out_dir, "sweep", cfg.output.format, header, rows)
    summary = {"n_points": len(points), "n_succeeded": len(points)}
    return {"sweep": path}, summary


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> ResultBundle:
    """Execute a validated scenario; always writes manifest.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    bundle = ResultBundle(manifest={})
    summary: dict = {}
    # built at each call, so a runner replaced at module level (a tracer's
    # wrapper) is the one called
    runners = {"equilibria": run_equilibria, "simulate": run_simulate,
               "turnpike": run_turnpike, "nplayer": run_nplayer, "sweep": run_sweep}
    try:
        artifacts, summary = runners[cfg.run](cfg, out_dir)
        bundle.artifacts.update(artifacts)
        # a sweep succeeds point by point, every other run once
        bundle.n_succeeded = summary.get("n_succeeded", 1)
    except (RuntimeError, ValueError) as exc:
        bundle.failures.append(str(exc))
    finally:
        bundle.manifest = {
            "tool": "sismfg",
            "version": __version__,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "config": cfg.to_dict(),
            "artifacts": sorted(str(p.name) for p in bundle.artifacts.values()),
            "failures": bundle.failures,
            "summary": summary,
        }
        _write_json(out_dir / "manifest.json", bundle.manifest)
    return bundle
