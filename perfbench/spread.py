"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... \
        [--seconds S]

Runs the benchmark once per seed (untraced, one after another) and
prints, per metric, the ten-run style steadiness figure: the distance
between the first and third quartile of the run medians as a share of
their median, next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import iqr_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    values = {}
    ok = True
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and last["correct"]
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {proc.returncode} "
              f"({time.perf_counter() - start:.0f} s) " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()),
            flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        spread = iqr_share(vals) if len(vals) > 1 else 0.0
        print(f"{metric['name']:14} median {statistics.median(vals):.6g} "
              f"spread {spread:.4f} bound {metric['bound']} "
              f"(a third: {metric['bound'] / 3:.4f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
