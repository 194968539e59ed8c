"""Write one curved-target spec, with its sympy-derived tension field.

    python3 perfbench/gen_fields.py --seed S --map torus|annulus --out PATH

The map is one of the two curved-target configurations that
tests/test_acceptance._random_map_configs draws from the seeded
generator (the torus-source one or the annulus-source one).  The field
"tau_s" holds the symphonic tension derived by
tests/symbolic_oracle.tau_s_dsl_sources, so the criterion-6 identity
bi_tension == jacobi_operator(tau_s) can be checked on the loaded spec.
Run as its own process: sympy never enters the benchmark's process.
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from symbolic_oracle import tau_s_dsl_sources  # noqa: E402
from test_acceptance import _random_map_configs  # noqa: E402

TWO_PI = 2.0 * math.pi
TARGET_COORDS = ["y1", "y2"]
SOURCES = {
    "torus": {"name": "torus2", "dim": 2, "coords": ["x1", "x2"],
              "domain": {"intervals": [[0.0, TWO_PI], [0.0, TWO_PI]],
                         "periodic": [True, True]}},
    "annulus": {"name": "annulus", "dim": 2, "coords": ["r", "th"],
                "domain": {"intervals": [[0.5, 2.0], [0.0, TWO_PI]],
                           "periodic": [False, True]}},
}


def curved_configs(seed: int) -> dict:
    """The curved-target configurations for a seed, keyed by source kind."""
    configs = _random_map_configs(np.random.default_rng(seed))
    return {kind: (g, h, phi) for kind, g, h, phi in configs
            if h[0][0] != "1"}


def spec_document(seed: int, kind: str) -> dict:
    g, h, phi = curved_configs(seed)[kind]
    source = dict(SOURCES[kind], metric=g)
    tau = tau_s_dsl_sources(source["coords"], TARGET_COORDS, g, h, phi)
    return {
        "source": source,
        "target": {"name": "curved", "dim": 2, "coords": TARGET_COORDS,
                   "metric": h,
                   "domain": {"intervals": [[None, None], [None, None]]}},
        "map": {"components": phi},
        "fields": [{"name": "tau_s", "components": tau}],
    }


def spec_bytes(seed: int, kind: str) -> bytes:
    text = json.dumps(spec_document(seed, kind), indent=1, sort_keys=True)
    return (text + "\n").encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--map", choices=sorted(SOURCES), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).write_bytes(spec_bytes(args.seed, args.map))
    return 0


if __name__ == "__main__":
    sys.exit(main())
