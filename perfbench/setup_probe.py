"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints {"setup_s": seconds}: importing symphonic plus the workload's
loading before its first operator call (load_spec for curved-fields,
load_spec + flow_init for the flows, the import alone for catalog).
Interpreter start-up is not included.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name](seed, tmp=None).setup()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
