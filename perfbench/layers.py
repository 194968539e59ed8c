"""Which public functions of each module are traced, and the per-layer
metrics built from the traces.

Layers are the modules of ``src/symphonic/``.  Each traced function
gives ``<module>.<function>.calls`` and ``.self_s``; a few give extra
counts.  ``JetSpace.mul`` runs hundreds of thousands of times per unit,
so it is counted but gets no span; its time stays in its caller's self
time.
"""

from __future__ import annotations

import statistics

from symphonic import (cases, cli, expr, flow, geometry, jet, maps, mesh,
                       oracle, specfile, variational)
from tracing import Tracer

PACKAGE = "symphonic"

# (owner, attribute, metric prefix); every binding of the same function
# object in the package is wrapped too, e.g. variational.compose,
# flow.pairwise_sum and cli.build_mesh.
SPANS = [
    (expr, "parse", "expr.parse"),
    (expr, "eval_jet", "expr.eval_jet"),
    (expr, "eval_value", "expr.eval_value"),
    (jet, "compose", "jet.compose"),
    (geometry, "metric_jets", "geometry.metric_jets"),
    (geometry, "christoffel_jets", "geometry.christoffel_jets"),
    (geometry, "metric_at", "geometry.metric_at"),
    (geometry, "frame_at", "geometry.frame_at"),
    (maps.MapSpec, "component_jets", "maps.component_jets"),
    (maps, "tables_from_jets", "maps.tables_from_jets"),
    (maps, "source_point_data", "maps.source_point_data"),
    (maps, "tau_s_from_tables", "maps.tau_s_from_tables"),
    (variational, "tau_s_jets", "variational.tau_s_jets"),
    (variational, "field_covariant_data", "variational.field_covariant_data"),
    (variational, "jacobi_groups", "variational.jacobi_groups"),
    (variational, "bi_tension", "variational.bi_tension"),
    (variational, "jacobi_operator", "variational.jacobi_operator"),
    (variational, "first_variation_pairing",
     "variational.first_variation_pairing"),
    (variational, "bi_variation_pairing", "variational.bi_variation_pairing"),
    (variational, "index_form_pairing", "variational.index_form_pairing"),
    (oracle, "fd_first_variation", "oracle.fd_first_variation"),
    (oracle, "fd_second_variation", "oracle.fd_second_variation"),
    (mesh, "build_mesh", "mesh.build_mesh"),
    (mesh, "pairwise_sum", "mesh.pairwise_sum"),
    (flow, "flow_step", "flow.flow_step"),
    (flow, "flow_energy", "flow.flow_energy"),
    (flow, "grid_tau_s", "flow.grid_tau_s"),
    (flow, "grid_bi_tension", "flow.grid_bi_tension"),
    (flow, "max_gradient_norm", "flow.max_gradient_norm"),
    (specfile, "load_spec", "specfile.load_spec"),
    (cli, "main", "cli.main"),
]
ENERGY_EVALS = "oracle.energy_evals"
CASE_IDS = list(cases.CASES)

_MEASURES = {
    "expr.parse": lambda args, result: [("chars", len(args[0]))],
    "mesh.build_mesh": lambda args, result: [("nodes", len(result))],
}


def _metric_list():
    out = []
    for _, _, name in SPANS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("expr.parse.chars", "count", "lower"),
        ("jet.mul.calls", "count", "lower"),
        (f"{ENERGY_EVALS}.calls", "count", "lower"),
        (f"{ENERGY_EVALS}.self_s", "s", "lower"),
        ("oracle.step_too_large", "count", "lower"),
        ("mesh.build_mesh.nodes", "count", "lower"),
        ("flow.accepted_steps", "count", "lower"),
        ("flow.accepted_per_energy_eval", "ratio", "higher"),
        ("flow.gradients_per_step", "ratio", "lower"),
    ]
    out += [(f"cases.{cid}.wall_s", "s", "lower") for cid in CASE_IDS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = _metric_list()


def install(tracer: Tracer) -> None:
    """Wrap every traced binding; tracer.restore() undoes it."""
    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name, measure=_MEASURES.get(name))
    tracer.wrap(oracle.Deformation, "energy_fn", ENERGY_EVALS, mode="result")
    tracer.wrap(jet.JetSpace, "mul", "jet.mul", mode="count")
    tracer.wrap(flow, "gradient_field", "flow.gradient_field", mode="count")
    for cid in CASE_IDS:
        tracer.wrap(cases.CASES, cid, f"cases.{cid}")


def traced(fn, *args):
    """(fn(*args), tracer) with every layer wrapped during the call."""
    tracer = Tracer(PACKAGE)
    install(tracer)
    try:
        return fn(*args), tracer
    finally:
        tracer.restore()


def raw_values(tracer: Tracer, accepted_steps: int) -> dict:
    """Additive per-layer values of one traced call (no ratios)."""
    selfs = tracer.self_times()
    totals = tracer.total_times()
    out = {}
    for _, _, name in SPANS + [(None, None, ENERGY_EVALS)]:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    out["expr.parse.chars"] = tracer.measures.get("expr.parse.chars", 0)
    out["jet.mul.calls"] = tracer.calls.get("jet.mul", 0)
    out["oracle.step_too_large"] = tracer.raised.get(
        (ENERGY_EVALS, "StepTooLargeError"), 0)
    out["mesh.build_mesh.nodes"] = tracer.measures.get(
        "mesh.build_mesh.nodes", 0)
    out["flow.accepted_steps"] = accepted_steps
    out["flow.gradient_field.calls"] = tracer.calls.get(
        "flow.gradient_field", 0)
    for cid in CASE_IDS:
        out[f"cases.{cid}.wall_s"] = totals.get(f"cases.{cid}", 0.0)
    return out


def layer_metrics(setup_values: dict, unit_values: list,
                  overhead_s: float) -> dict:
    """Per-layer metrics: set-up once plus the median traced unit.

    unit_values holds raw_values() of each traced unit; the flow ratios
    are taken from the median unit's counts.
    """
    merged = {}
    for key in setup_values:
        merged[key] = setup_values[key] + statistics.median(
            u[key] for u in unit_values)
    steps = statistics.median(u["flow.accepted_steps"] for u in unit_values)
    energy = statistics.median(u["flow.flow_energy.calls"]
                               for u in unit_values)
    grads = statistics.median(u["flow.gradient_field.calls"]
                              for u in unit_values)
    merged["flow.accepted_steps"] = steps
    merged["flow.accepted_per_energy_eval"] = steps / energy if energy else 0.0
    merged["flow.gradients_per_step"] = grads / steps if steps else 0.0
    merged["trace.overhead_s"] = overhead_s
    return {name: int(merged[name]) if unit == "count"
            and float(merged[name]).is_integer() else merged[name]
            for name, unit, _ in PER_LAYER}
