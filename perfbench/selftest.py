"""Show that every check in checks.py rejects a perturbed artifact.

    python3 perfbench/selftest.py [--seed N]

Solves each workload once (about 20 s in all), confirms that the checks
pass on the true artifacts, then applies one perturbation at a time to a
copy and confirms that the checks reject it: an error, or for the sweep a
changed count of failed points.  Exits 1 if any perturbation passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import run
import workloads
import checks


def _edit_csv(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _add(rows, header, m, col, delta):
    c = header.index(col)
    rows[m][c] = repr(float(rows[m][c]) + delta)


def _node_at(rows, t):
    return min(range(len(rows)), key=lambda m: abs(float(rows[m][0]) - t))


def turnpike_perturbations():
    csv_name = "turnpike.csv"

    def flag(col, m):
        def edit(header, rows):
            rows[m][header.index(col)] = "0"
        return csv_name, edit

    def off_simplex(header, rows):
        _add(rows, header, 100, "x_1I", 1e-6)

    def window_start(header, rows):
        m = _node_at(rows, 5.0)
        _add(rows, header, m, "x_1I", 1e-4)
        _add(rows, header, m, "x_1S", -1e-4)

    def value_node(header, rows):
        _add(rows, header, 12000, "g_1I", 1e-6)

    def value_window(header, rows):
        m = _node_at(rows, 25.0)
        for col in header:
            if col.startswith("g_"):
                _add(rows, header, m, col, 1e-2)

    def uncertified(data):
        data["certified"] = False

    return {
        "argmin flag flipped at one node": flag("argmin_ok", 10000),
        "cone flag flipped at one node": flag("cone_ok", 5000),
        "x row off the simplex by 1e-6": (csv_name, off_simplex),
        "x at the window start moved 1e-4 along the simplex": (csv_name, window_start),
        "g(1I) off by 1e-6 at one node": (csv_name, value_node),
        "all g off by 1e-2 at mid-window": (csv_name, value_window),
        "summary not certified": ("turnpike_summary.json", uncertified),
    }


def sweep_perturbations():
    csv_name = "sweep.csv"

    def first_row(rows, header, pred):
        return next(r for r in rows if pred(dict(zip(header, r))))

    def drop_single(header, rows):
        r = first_row(rows, header, lambda d: d["controls"].startswith("single(1);"))
        r[header.index("controls")] = r[header.index("controls")].split(";", 1)[1]
        r[header.index("n_equilibria")] = str(int(r[header.index("n_equilibria")]) - 1)

    def x_star(header, rows):
        r = first_row(rows, header, lambda d: d["x_star"] != "")
        r[header.index("x_star")] = repr(float(r[header.index("x_star")]) + 1e-6)

    def add_single(header, rows):
        r = first_row(rows, header, lambda d: d["controls"] == "single(1)")
        r[header.index("controls")] = "single(1);single(2)"
        r[header.index("n_equilibria")] = "2"

    def unstable(header, rows):
        r = first_row(rows, header, lambda d: d["max_real_part"] != "")
        r[header.index("max_real_part")] = "0.5"

    def failed(header, rows):
        rows[0][header.index("status")] = "failed"

    return {
        "single(1) removed from a row": (csv_name, drop_single),
        "x* off by 1e-6": (csv_name, x_star),
        "single(2) added to a row": (csv_name, add_single),
        "max_real_part made positive": (csv_name, unstable),
        "one point marked failed": (csv_name, failed),
    }


def equilibria_perturbations():
    name = "equilibria.json"

    def x_star(data):
        x = data["equilibria"][0]["x_star"]
        j = max(range(len(x)), key=lambda q: x[q])
        x[j] -= 1e-6
        x[(j + 1) % len(x)] += 1e-6

    def value(data):
        data["equilibria"][0]["g"][3] += 1e-6

    def removed(data):
        data["equilibria"].pop(0)

    def relabel(data):
        eq = data["equilibria"][0]
        d = len(eq["x_star"]) // 2
        eq["control"] = {"label": "single(3)", "target_I": [3] * d, "target_S": [3] * d}

    def fake_single(data):
        eq = json.loads(json.dumps(data["equilibria"][0]))
        d = len(eq["x_star"]) // 2
        eq["control"] = {"label": "single(1)", "target_I": [1] * d, "target_S": [1] * d}
        data["equilibria"].append(eq)

    return {
        "x* off by 1e-6": (name, x_star),
        "one value off by 1e-6": (name, value),
        "an equilibrium removed": (name, removed),
        "control relabelled single(3)": (name, relabel),
        "single(1) added": (name, fake_single),
    }


def nplayer_perturbations():
    path = "nplayer_path.csv"

    def count(header, rows):
        _add(rows, header, 500, "n_1I", 1)

    def order(header, rows):
        rows[200][0], rows[201][0] = rows[201][0], rows[200][0]

    def terminal(header, rows):
        _add(rows, header, len(rows) - 1, "n_1I", 300)
        _add(rows, header, len(rows) - 1, "n_1S", -300)

    def lln(header, rows):
        _add(rows, header, 2, "mean_sup_error", float(rows[2][header.index("mean_sup_error")]))

    def as_int(edit):  # counts are written as integers
        def wrapped(header, rows):
            edit(header, rows)
            for r in rows:
                for c in range(1, len(r)):
                    r[c] = str(int(float(r[c])))
        return wrapped

    return {
        "one count off by 1": (path, as_int(count)),
        "two event times swapped": (path, order),
        "terminal fractions moved by 0.03": (path, as_int(terminal)),
        "mean error at N=4000 doubled": ("lln_error.csv", lln),
    }


PERTURBATIONS = {
    "turnpike": turnpike_perturbations,
    "sweep-d3": sweep_perturbations,
    "equilibria-d20": equilibria_perturbations,
    "nplayer": nplayer_perturbations,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run._import_sismfg()
    from sismfg.config import parse_config_dict
    from sismfg.runs import run_scenario

    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    passed_wrongly = 0
    for workload, make in PERTURBATIONS.items():
        scenario = workloads.SCENARIOS[workload](args.seed)
        true_dir = base / workload / "true"
        bundle = run_scenario(parse_config_dict(scenario), true_dir)
        if bundle.failures:
            print(f"{workload}: the solve failed: {bundle.failures}")
            return 1
        errors, failed = checks.check(workload, scenario, true_dir)
        print(f"{workload}: true artifacts: {len(errors)} errors, {failed} failed points")
        if errors:
            print("  " + "\n  ".join(errors))
            return 1
        for k, (label, (artifact, edit)) in enumerate(make().items()):
            work = base / workload / f"p{k}"
            shutil.copytree(true_dir, work)
            target = work / artifact
            (_edit_json if artifact.endswith(".json") else _edit_csv)(target, edit)
            p_errors, p_failed = checks.check(workload, scenario, work)
            rejected = bool(p_errors) or p_failed != failed
            why = "; ".join(p_errors) if p_errors else f"{p_failed} failed points instead of {failed}"
            print(f"  {'rejected' if rejected else 'PASSED  '}  {label}: {why if rejected else ''}")
            passed_wrongly += not rejected
    shutil.rmtree(base, ignore_errors=True)
    print("every perturbation rejected" if not passed_wrongly
          else f"{passed_wrongly} perturbations passed the checks")
    return 1 if passed_wrongly else 0


if __name__ == "__main__":
    sys.exit(main())
