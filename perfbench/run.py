"""sismfg benchmark: one workload, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The workload's scenario
is made from the seed (see workloads.py), then solved through
``sismfg.runs.run_scenario`` one solve after another until the next solve
would end past S seconds.  The artifacts of every solve must be
byte-identical, and those of the last are checked against computations
made apart from the program (checks.py).

With --trace 0 the end-to-end metrics are reported: set-up time from a
fresh interpreter to the scenario parsed (median of several), the median
solve time and the peak resident set.  With --trace 1 the layer functions
are wrapped (spans.py) and the per-layer metrics are reported per solve.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one thread everywhere, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: at least this many solves per run, so artifacts can be compared
MIN_SOLVES = 2
#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: one probe quantum: a pure-Python loop of fixed work
PROBE_ITERATIONS = 200_000
#: median seconds of one quantum on the reference machine (2 cores,
#: Python 3.11.7, numpy 2.4.6); reported times are scaled to this speed
PROBE_NOMINAL_S = 0.0125
#: probe time before each solve, as a share of the previous solve
PROBE_SHARE = 0.1

SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from sismfg.config import parse_config
parse_config(sys.argv[2])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_sismfg():
    if not (SRC / "sismfg" / "__init__.py").is_file():
        _fail(f"no sismfg sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sismfg

    if not Path(sismfg.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"sismfg was imported from {sismfg.__file__}, not from {SRC}")
    return sismfg


class SpeedProbe:
    """The machine's speed through a run, relative to the reference machine.

    A shared host can run the same code up to twice as slowly for tens of
    seconds at a time.  Quanta of fixed pure-Python work, run between the
    timed sections, sample that speed; ``scale`` converts a wall time
    measured in this run to the reference machine's speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, budget_s: float) -> None:
        end = perf_counter() + budget_s
        start = len(self.samples)
        while len(self.samples) - start < 2 or perf_counter() < end:
            t0 = perf_counter()
            acc = 0
            for k in range(PROBE_ITERATIONS):
                acc += k
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def time_setup(scenario_path: Path, probe: SpeedProbe) -> list[float]:
    """Wall time from starting a fresh interpreter until it has imported
    sismfg and parsed the scenario, once per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(0.05)
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(scenario_path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.close()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            _fail(f"set-up child exited with {code} before parsing the scenario")
        times.append(t1 - t0)
    return times


def artifact_digest(artifacts: dict) -> dict[str, str]:
    """sha256 of every numeric artifact (the manifest carries timestamps)."""
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in sorted(artifacts.items())
    }


def solve_loop(runs, cfg, out_dir: Path, seconds: float, probe: SpeedProbe,
               errors: list[str]):
    """Solve back to back, probing the speed before each solve and after
    the last; returns the wall time of each solve.  ``run_scenario`` is
    looked up in the ``runs`` module at each call, so a traced run sees it."""
    times: list[float] = []
    reference = None
    start = perf_counter()
    while True:
        probe.sample(PROBE_SHARE * (times[-1] if times else 1.0))
        t0 = perf_counter()
        bundle = runs.run_scenario(cfg, out_dir)
        times.append(perf_counter() - t0)
        for failure in bundle.failures:
            errors.append(f"solve {len(times)}: {failure}")
        digest = artifact_digest(bundle.artifacts)
        if reference is None:
            reference = digest
        elif digest != reference:
            changed = sorted(k for k in digest if digest[k] != reference.get(k))
            errors.append(f"solve {len(times)}: artifacts differ from solve 1: {changed}")
        elapsed = perf_counter() - start
        if len(times) >= MIN_SOLVES and elapsed + statistics.median(times) > seconds:
            probe.sample(PROBE_SHARE * times[-1])
            return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCENARIOS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if not args.seconds > 0:
        _fail("--seconds must be > 0")

    _import_sismfg()
    from sismfg import runs
    from sismfg.config import parse_config

    scenario = workloads.SCENARIOS[args.workload](args.seed)
    out_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    scenario_path = out_dir / "scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n")

    probe = SpeedProbe()
    setup = [] if args.trace else time_setup(scenario_path, probe)
    cfg = parse_config(scenario_path)
    errors: list[str] = []
    rec = spans.Recorder() if args.trace else None
    with spans.traced(rec) if rec else contextlib.nullcontext():
        times = solve_loop(runs, cfg, out_dir, args.seconds, probe, errors)
    scale = probe.scale()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        check_errors, failed_per_solve = checks.check(args.workload, scenario, out_dir)
    except Exception:  # an artifact the checks cannot read is a wrong output
        traceback.print_exc()
        check_errors, failed_per_solve = ["the artifacts could not be checked"], 0
    errors += check_errors
    ops_per_solve = 1
    if args.workload == "sweep-d3":
        ops_per_solve = len(scenario["sweep"]["axes"][0]["values"]) * len(
            scenario["sweep"]["axes"][1]["values"]
        )

    if rec:
        rec.write(out_dir / "spans.csv")
        values = spans.layer_metrics(rec, len(times), scenario["model"]["d"])
        values["trace.solve_s"] = statistics.median(times)
        unit_of = spans.UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(times),
            "peak_rss_mib": peak_rss_mib,
        }
        unit_of = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
    for name, unit in unit_of.items():  # times to the reference machine's speed
        if unit in ("s", "us"):
            values[name] *= scale
        elif unit == "events/s":
            values[name] /= scale
    metrics = {name: {"value": v, "unit": unit_of[name]} for name, v in values.items()}

    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(times)} solves: "
          + ", ".join(f"{t:.3f}" for t in times) + " s wall")
    print(f"  speed against the reference machine {scale:.3f} "
          f"({len(probe.samples)} probes, median {statistics.median(probe.samples) * 1e3:.2f} ms)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": len(times) * ops_per_solve,
        "failed": len(times) * failed_per_solve,
        "metrics": metrics,
    }
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
