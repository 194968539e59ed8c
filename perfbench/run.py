"""Benchmark of the symphonic operator ladder, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog, curved-fields, flow-sym, flow-bisym (see README.md).
The run prepares its inputs from the seed (untimed), times the set-up in
fresh processes, then runs units of work one after another for S
seconds, checking every output.  It prints a table of every metric
(median, tail percentile, sample count) and the machine facts, writes
the same to perfbench/results/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
units alternate between untraced and traced, and the metrics are the
per-layer ones plus the tracing overhead.  Exit code 0 iff every check
passed; 2 when the tree holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("catalog", "curved-fields", "flow-sym", "flow-bisym")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up probes: at least SETUP_MIN_RUNS fresh processes, more while the
# probes have taken less than SETUP_SECONDS (cheap set-ups get more)
SETUP_MIN_RUNS = 5
SETUP_MAX_RUNS = 15
SETUP_SECONDS = 3.0

# (name, unit, better) of the metrics on the final line with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# workload-specific metrics, printed and saved but not on the final line
EXTRA = {
    "points_per_s": ("1/s", "higher"),
    "steps_per_s": ("1/s", "higher"),
    "steps_to_tol": ("count", "lower"),
    "bi_tension_ms": ("ms", "lower"),
    "jacobi_operator_ms": ("ms", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts(seed: int) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "sympy": version("sympy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "commit": commit or "unknown (not a git checkout)",
    }


def setup_samples(workload: str, seed: int) -> list:
    """Set-up seconds from fresh processes, one at a time."""
    out = []
    start = time.perf_counter()
    while len(out) < SETUP_MIN_RUNS or (
            len(out) < SETUP_MAX_RUNS
            and time.perf_counter() - start < SETUP_SECONDS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def timed(fn, arg):
    t0 = time.perf_counter()
    out = fn(arg)
    return out, time.perf_counter() - t0


def run_units(wl, seconds: float, trace: bool, tally, layers):
    """Closed loop of units for `seconds`; returns (untraced walls,
    traced walls, per-layer values of each traced unit)."""
    walls, traced_walls, unit_values = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        done = len(walls) + len(traced_walls) >= wl.min_units and \
            time.perf_counter() - start >= seconds
        if trace:
            done = done and walls and traced_walls
        if done:
            break
        inp = wl.next_input()
        # untraced, traced, traced, untraced, ...: drift hits both alike
        if trace and k % 4 in (1, 2):
            (out, wall), tracer = layers.traced(timed, wl.unit, inp)
            traced_walls.append(wall)
        else:
            out, wall = timed(wl.unit, inp)
            walls.append(wall)
            tracer = None
        checked = wl.check(out, wall)
        tally.add(checked)
        if tracer is not None:
            unit_values.append(layers.raw_values(
                tracer, checked.notes.get("accepted_steps", 0)))
        k += 1
    return walls, traced_walls, unit_values


def extra_spec(key: str):
    return EXTRA[key.split(".", 1)[0]]


def print_table(rows):
    print(f"{'metric':44} {'unit':6} {'median':>14} {'tail':>14} "
          f"{'at':>6} {'n':>6}")
    for name, unit, summ in rows:
        tail = "-" if summ["tail"] is None else f"{summ['tail']:.6g}"
        print(f"{name:44} {unit:6} {summ['median']:14.6g} {tail:>14} "
              f"{summ['tail_label']:>6} {summ['n']:6d}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "symphonic" / "__init__.py").is_file()
            and (ROOT / "tests" / "symbolic_oracle.py").is_file()):
        print(f"error: no symphonic source tree under {ROOT}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Checked

    facts = machine_facts(args.seed)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        tally = Checked(attempted=0)
        final, rows = measure(args, WORKLOADS[args.workload](args.seed, tmp),
                              tally)
    return report(args, facts, tally, final, rows)


def measure(args, wl, tally):
    """(final-line metrics, table rows) of one run; every checked
    operation is added to tally."""
    import layers

    tally.add(wl.prepare())
    if tally.failed:
        return {}, []
    if args.trace:
        _, setup_tracer = layers.traced(wl.setup)
        setup_values = layers.raw_values(setup_tracer, 0)
    else:
        setups = setup_samples(args.workload, args.seed)
        wl.setup()
    walls, traced_walls, unit_values = run_units(
        wl, args.seconds, bool(args.trace), tally, layers)

    rows, final = [], {}
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values = layers.layer_metrics(setup_values, unit_values, overhead)
        rows.append(("wall_s (untraced units)", "s",
                     stats.summarize(walls)))
        rows.append(("wall_s (traced units)", "s",
                     stats.summarize(traced_walls)))
        for name, unit, better in layers.PER_LAYER:
            rows.append((name, unit, stats.summarize([values[name]], better)))
            final[name] = {"value": values[name], "unit": unit}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = {"setup_s": setups, "wall_s": walls,
                    "peak_rss_mb": [rss_mb]}
        for name, unit, better in END_TO_END:
            summ = stats.summarize(measured[name], better)
            rows.append((name, unit, summ))
            final[name] = {"value": summ["median"], "unit": unit}
        for key in sorted(tally.samples):
            unit, better = extra_spec(key)
            rows.append((key, unit, stats.summarize(tally.samples[key],
                                                    better)))
    rows.append(("failed_frac", "ratio", stats.summarize(
        [stats.failed_frac(tally.attempted, tally.failed)])))
    return final, rows


def report(args, facts, tally, final, rows) -> int:
    failed = tally.failed
    correct = failed == 0 and tally.attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  (closed loop, one caller)")
    print("machine  " + json.dumps(facts, sort_keys=True))
    if rows:
        print_table(rows)
    for key, value in sorted(tally.notes.items()):
        print(f"note {key} = {value}")
    for msg in tally.failures:
        print(f"FAILED: {msg}")
    saved = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "machine": facts, "attempted": tally.attempted,
             "failed": failed, "failures": tally.failures,
             "notes": tally.notes,
             "metrics": {name: dict(summ, unit=unit)
                         for name, unit, summ in rows}}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
