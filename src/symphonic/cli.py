"""Command-line front end.

Commands:

    verify     run the worked-example catalog (all or one case)
    eval       evaluate a pointwise operator over points or a grid, CSV out
    variation  compare a closed-form variation pairing with its FD oracle
    flow       run the gradient flow on a periodic chart

Exit codes: 0 success, 1 checks failed, 2 usage error, 3 I/O error,
4 numerical-domain error.  A command returns 0 or 1, or 4 for eval's
NaN rows and a stalled or aborted flow.  Every other failure is raised,
and ``main`` alone turns it into one ``error:`` line and its code:

    CliError                                 its own code
    FileNotFoundError (spec file unreadable) 3
    SpecFileError, FlowSetupError            2
    StepTooLargeError                        4, as "step too large: ..."
    GeometryError, ExprError, JetDomainError 4

Any other exception is a bug and keeps its traceback.  The default
random seed is 0x5EED (24301); the SYMPHONIC_SEED environment variable
(an integer) overrides it, --seed overrides both.  All numbers are
printed in shortest round-trip form, so equal seeds give byte-identical
reports (timing aside).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import cases as case_mod
from . import flow as flow_mod
from . import geometry as geo
from . import maps as mp
from . import oracle as orc
from . import variational as va
from .expr import ExprError
from .jet import JetDomainError
from .mesh import build_mesh
from .specfile import SpecFileError, load_spec

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# options that only make sense as positive finite numbers
POSITIVE_OPTIONS = ("grid", "fd_step", "dt")

OPS = ("pullback", "energy-density", "tension", "symphonic-tension",
       "bi-tension", "jacobi")


class CliError(Exception):
    """A failure the CLI detects itself; main prints its message and
    exits with its code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return repr(float(x))


def _default_seed() -> int:
    env = os.environ.get("SYMPHONIC_SEED")
    if not env:
        return case_mod.DEFAULT_SEED
    try:
        return int(env, 0)
    except ValueError:
        raise CliError(EXIT_USAGE, f"SYMPHONIC_SEED must be an integer, "
                                   f"got {env!r}") from None


def _write(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot write {path!r}: {err}") from err


def _write_json(path, payload):
    _write(path, json.dumps(payload, indent=2) + "\n")


def _field(fields, name):
    """The spec's field of that name; an unknown name is a usage error."""
    if name not in fields:
        raise CliError(EXIT_USAGE, f"unknown field '{name}' "
                                   f"(spec defines: {sorted(fields)})")
    return fields[name]


# verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.case != "all" and args.case not in case_mod.CASES:
        known = ", ".join(sorted(case_mod.CASES))
        raise CliError(EXIT_USAGE,
                       f"unknown case '{args.case}' (known: {known})")
    names = list(case_mod.CASES) if args.case == "all" else [args.case]
    t0 = time.perf_counter()
    results = []
    case_seconds = {}
    for name in names:
        t1 = time.perf_counter()
        results.append(case_mod.run_case(name, seed=args.seed))
        case_seconds[name] = time.perf_counter() - t1
    elapsed = time.perf_counter() - t0
    all_pass = True
    for r in results:
        ok = r.passed_at(args.tol_scale)
        all_pass &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {r.case_id}: {r.description}")
        for c in r.checks:
            flag = "ok" if c.evaluate(args.tol_scale) else "FAIL"
            print(f"    {flag:4} {c.name}: measured={_fmt(c.measured)} "
                  f"expected={_fmt(c.expected)} tol={_fmt(c.tolerance)}")
        for key, value in r.extra.items():
            print(f"    note {key} = {value}")
    if args.json:
        _write_json(args.json, {
            "version": __version__,
            "command": "verify --case " + args.case,
            "seed": args.seed,
            "tol_scale": args.tol_scale,
            "cases": [r.to_dict(args.tol_scale) for r in results],
            "timing": {"total_seconds": elapsed, **case_seconds},
        })
    return EXIT_OK if all_pass else EXIT_CHECKS_FAILED


# eval -----------------------------------------------------------------------


def _eval_points(args, spec):
    if args.points:
        try:
            with open(args.points, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise CliError(EXIT_IO, f"cannot read points file: {err}") from err
        except UnicodeDecodeError as err:
            raise CliError(EXIT_USAGE, f"points file {args.points!r} is not "
                                       f"UTF-8 text: {err}") from err
        try:
            return [[float(v) for v in line.replace(",", " ").split()]
                    for line in text.splitlines() if line.strip()]
        except ValueError as err:
            raise CliError(EXIT_USAGE,
                           f"points file {args.points!r}: {err}") from err
    res = args.grid
    m = spec.source.dim
    axes = []
    for k in range(m):
        lo, hi = spec.source.intervals[k]
        if lo is None or hi is None:
            raise CliError(EXIT_USAGE, "--grid needs a bounded source chart")
        if spec.source.periodic[k]:
            axes.append(lo + (hi - lo) / res * np.arange(res))
        else:
            axes.append(np.linspace(lo, hi, res))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1).tolist()


def _apply_op(args, spec, field, x):
    if args.op == "pullback":
        return mp.pullback_metric(spec, x).ravel()
    if args.op == "energy-density":
        return np.array([mp.symphonic_energy_density(spec, x)])
    if args.op == "tension":
        return mp.tension_field(spec, x)
    if args.op == "symphonic-tension":
        return mp.symphonic_tension(spec, x)
    if args.op == "bi-tension":
        return va.bi_tension(spec, x, variant=args.variant)
    return va.jacobi_operator(spec, x, field, variant=args.variant)


def cmd_eval(args) -> int:
    spec, fields = load_spec(args.spec)
    field = None
    if args.op == "jacobi":
        if not args.field:
            raise CliError(EXIT_USAGE, "--op jacobi requires --field")
        field = _field(fields, args.field)
    pts = _eval_points(args, spec)
    m = spec.source.dim
    rows = []
    bad = 0
    width = None
    first_error = None
    for x in pts:
        if len(x) != m:
            raise CliError(EXIT_USAGE, f"point {x} has {len(x)} coordinates, "
                                       f"chart has {m}")
        try:
            out = np.asarray(_apply_op(args, spec, field, x), dtype=float)
            width = len(out)
            rows.append((x, out))
        except (geo.GeometryError, ExprError, JetDomainError) as err:
            bad += 1
            rows.append((x, None))
            if first_error is None:
                first_error = f"point {x}: {err}"
    if width is None:
        raise CliError(EXIT_NUMERICAL, "every point failed its domain "
                                       f"checks; first {first_error}")
    header = spec.source.coords + [f"{args.op}_{k + 1}" for k in range(width)]
    lines = [",".join(header)]
    for x, out in rows:
        vals = [_fmt(v) for v in x]
        vals += ["nan"] * width if out is None else [_fmt(v) for v in out]
        lines.append(",".join(vals))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if bad:
        print(f"warning: {bad} point(s) failed domain checks (NaN rows)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# variation ------------------------------------------------------------------


def cmd_variation(args) -> int:
    t0 = time.perf_counter()
    if args.second and args.energy == "bisym":
        raise CliError(EXIT_USAGE, "the second variation of the bi-energy is "
                                   "not implemented (--second needs --energy "
                                   "sym)")
    spec, fields = load_spec(args.spec)
    v = _field(fields, args.field)
    if args.second:
        if not args.field2:
            raise CliError(EXIT_USAGE, "--second requires --field2")
        w = _field(fields, args.field2)
    try:
        mesh = build_mesh(spec.source, args.grid)
    except geo.GeometryError as err:
        raise CliError(EXIT_USAGE, str(err)) from err
    step = args.fd_step
    t1 = time.perf_counter()
    if args.second:
        analytic = va.index_form_pairing(spec, v, w, mesh, variant=va.FULL)
        fd_at = functools.partial(orc.fd_second_variation, spec, v, w, mesh)
        tolerance, label = 1e-3, "mixed second variation"
    elif args.energy == "bisym":
        pairing = va.bi_variation_pairing(spec, v, mesh, variant=va.FULL)
        analytic = -2.0 * pairing
        fd_at = functools.partial(orc.fd_first_variation, spec, v, mesh,
                                  energy=orc.ENERGY_BISYM)
        tolerance, label = 1e-3, "bi-energy first variation"
    else:
        analytic = va.first_variation_pairing(spec, v, mesh)
        fd_at = functools.partial(orc.fd_first_variation, spec, v, mesh)
        tolerance, label = 1e-4, "first variation"
    t2 = time.perf_counter()
    fd, fd_half, fd_quarter = [fd_at(step / k) for k in (1, 2, 4)]
    t3 = time.perf_counter()
    order = orc.richardson_order(fd, fd_half, fd_quarter)
    # +1 in the denominator keeps the check meaningful at critical
    # points where both sides vanish
    rel = abs(analytic - fd) / (max(abs(analytic), abs(fd)) + 1.0)
    print(f"{label} on {mesh.description}")
    print(f"  analytic pairing : {_fmt(analytic)}")
    print(f"  fd oracle        : {_fmt(fd)} (step {_fmt(step)})")
    print(f"  discrepancy      : {_fmt(abs(analytic - fd))} "
          f"(relative {_fmt(rel)})")
    print(f"  observed order   : "
          f"{'undefined (converged)' if order is None else _fmt(order)}")
    if args.energy == "bisym" and not args.second:
        measured = fd / pairing if pairing else float("nan")
        print(f"  measured constant vs the -1-normalized pairing: {_fmt(measured)}")
    if args.json:
        _write_json(args.json, {
            "version": __version__,
            "command": "variation",
            "seed": args.seed,
            "cases": [],
            "results": [{
                "label": label,
                "analytic": analytic,
                "fd": fd,
                "fd_step": step,
                "relative_discrepancy": rel,
                "observed_order": order,
            }],
            "timing": {"total_seconds": time.perf_counter() - t0,
                       "analytic_seconds": t2 - t1,
                       "fd_seconds": t3 - t2},
        })
    return EXIT_OK if rel <= tolerance else EXIT_CHECKS_FAILED


# flow -----------------------------------------------------------------------


def cmd_flow(args) -> int:
    spec, _ = load_spec(args.spec)
    state = flow_mod.flow_init(spec, args.grid, epsilon=args.dt,
                               energy=args.energy)
    trace_rows = []

    def on_step(st, gnorm):
        trace_rows.append((st.iteration, st.epsilon,
                           st.energy_history[-1], gnorm))

    state = flow_mod.flow_run(state, args.steps, args.tol, on_step=on_step)
    if args.trace:
        header = "step,epsilon,E_sym,max_tau_s_norm" \
            if args.energy == "sym" else "step,epsilon,E_2sym,max_tau_s2_norm"
        lines = [header]
        for row in trace_rows:
            lines.append(",".join([str(row[0])] + [_fmt(v) for v in row[1:]]))
        _write(args.trace, "\n".join(lines) + "\n")
    print(f"status     : {state.status}")
    if state.status == flow_mod.STATUS_ABORTED:
        print(f"reason     : {state.reason}")
    print(f"iterations : {state.iteration}")
    print(f"energy     : {_fmt(state.energy_history[-1])}")
    print(f"max grad   : {_fmt(flow_mod.max_gradient_norm(state))}")
    if state.status in (flow_mod.STATUS_CONVERGED,
                        flow_mod.STATUS_CONVERGED_BISYM):
        return EXIT_OK
    if state.status == flow_mod.STATUS_BUDGET:
        return EXIT_CHECKS_FAILED
    return EXIT_NUMERICAL


# entry point ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: argparse's parsers, actions
    and formatters form reference cycles, which a parser per call would
    leave to the cycle collector."""
    parser = argparse.ArgumentParser(
        prog="symphonic",
        description="Numerical toolkit for symphonic and bi-symphonic maps.",
        epilog="Default seed 0x5EED; SYMPHONIC_SEED and --seed override.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the worked-example catalog")
    p.add_argument("--case", default="all",
                   help="case name or 'all' (default)")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply every tolerance by this factor")
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate an operator over points")
    p.add_argument("--spec", required=True,
                   help="JSON spec file or builtin:NAME")
    p.add_argument("--op", required=True, choices=OPS)
    p.add_argument("--field", help="field name for --op jacobi")
    p.add_argument("--variant", choices=(va.REDUCED, va.FULL),
                   default=va.REDUCED,
                   help="operator variant for bi-tension/jacobi "
                        "(default reduced, the four classical groups)")
    p.add_argument("--points", help="file with one point per line")
    p.add_argument("--grid", type=int, default=10,
                   help="per-axis grid resolution when no --points")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("variation",
                       help="closed-form pairing vs finite differences")
    p.add_argument("--spec", required=True)
    p.add_argument("--field", required=True, help="variation field name")
    p.add_argument("--field2", help="second field for --second")
    p.add_argument("--second", action="store_true",
                   help="mixed second variation instead of first")
    p.add_argument("--energy", choices=("sym", "bisym"), default="sym")
    p.add_argument("--grid", type=int, default=24)
    p.add_argument("--fd-step", type=float, default=None)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("flow", help="gradient flow on a periodic chart")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--dt", type=float, default=2e-3,
                   help="initial step size (halved on energy increase)")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--energy", choices=("sym", "bisym"), default="sym")
    p.add_argument("--trace", help="per-step CSV trace path")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    p.set_defaults(func=cmd_flow)
    return parser


def _check_options(args):
    """Fill in the seed and FD step defaults; reject bad numbers."""
    if getattr(args, "seed", None) is None:
        args.seed = _default_seed()
    if getattr(args, "fd_step", None) is None and args.command == "variation":
        args.fd_step = (orc.DEFAULT_SECOND_STEP if args.second
                        else orc.DEFAULT_FIRST_STEP)
    for name in POSITIVE_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(EXIT_USAGE, f"--{name.replace('_', '-')} must be "
                                       f"positive, got {value!r}")


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        # overflow and NaN surface as domain errors (exit 4), so numpy's
        # floating-point warnings would only repeat them on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except CliError as err:
        code, message = err.code, str(err)
    except FileNotFoundError as err:  # load_spec cannot read the file
        code, message = EXIT_IO, str(err)
    except (SpecFileError, flow_mod.FlowSetupError) as err:
        code, message = EXIT_USAGE, str(err)
    except orc.StepTooLargeError as err:
        code, message = EXIT_NUMERICAL, f"step too large: {err}"
    except (geo.GeometryError, ExprError, JetDomainError) as err:
        code, message = EXIT_NUMERICAL, str(err)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
