"""Loading map specifications from JSON files or built-in names.

Built-in specs make every verification runnable without authoring
files:

    builtin:sphere-2 / sphere-3 / sphere-4   canonical sphere inclusion
    builtin:power-curve:A                    curve t -> t^A, A a finite
                                             decimal or a fraction like
                                             4/3
    builtin:torus-test                       linear-plus-trig torus map
                                             with fields 'v' and 'w'
    builtin:linear-torus                     plain linear torus map
                                             with the same fields

File specs are validated against the packaged schema
symphonic/schemas/spec.schema.json; validation failures report
JSON-pointer paths.  jsonschema is imported only then, so builtin specs
and the commands that read no spec file never load it.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from pathlib import Path

from . import charts
from . import expr as ex
from . import geometry as geo
from . import maps as mp


class SpecFileError(ValueError):
    """Invalid spec document (schema or consistency failure)."""


def load_schema(name: str) -> dict:
    """A schema shipped with the package (spec or report)."""
    ref = resources.files("symphonic").joinpath(f"schemas/{name}")
    return json.loads(ref.read_text())


def _schema():
    return load_schema("spec.schema.json")


def _parse_each(texts, coords, pointer: str) -> list:
    """texts parsed in coords; a parse error names its element, pointer/k."""
    out = []
    for k, text in enumerate(texts):
        try:
            out.append(ex.parse(text, coords))
        except ex.ExprError as err:
            raise SpecFileError(f"{pointer}/{k}: {err}") from err
    return out


def _chart_from_dict(doc: dict, label: str) -> geo.ManifoldModel:
    dim = doc["dim"]
    coords = doc["coords"]
    if len(coords) != dim:
        raise SpecFileError(f"/{label}/coords: expected {dim} names, "
                            f"got {len(coords)}")
    metric = doc["metric"]
    if len(metric) != dim or any(len(row) != dim for row in metric):
        raise SpecFileError(f"/{label}/metric: expected a {dim}x{dim} array")
    metric_exprs = [_parse_each(row, coords, f"/{label}/metric/{i}")
                    for i, row in enumerate(metric)]
    domain = doc["domain"]
    intervals = [tuple(pair) for pair in domain["intervals"]]
    if len(intervals) != dim:
        raise SpecFileError(f"/{label}/domain/intervals: expected {dim} pairs")
    periodic = domain.get("periodic", [False] * dim)
    if len(periodic) != dim:
        raise SpecFileError(f"/{label}/domain/periodic: expected {dim} flags")
    exclusions = [(tuple(b["center"]), float(b["radius"]))
                  for b in domain.get("exclusions", [])]
    for k, (center, _) in enumerate(exclusions):
        if len(center) != dim:
            raise SpecFileError(
                f"/{label}/domain/exclusions/{k}/center: expected {dim} "
                f"coordinates")
    try:
        return geo.ManifoldModel(doc.get("name", label), coords, metric_exprs,
                                 intervals, list(periodic), exclusions)
    except (geo.GeometryError, ex.ExprError) as err:
        # the symmetry check evaluates the metric at sample points
        raise SpecFileError(f"/{label}: {err}") from err


def parse_spec_document(doc: dict):
    """Validated (MapSpec, fields) from a spec dictionary."""
    import jsonschema  # here only: no other path needs it

    validator = jsonschema.Draft7Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        lines = [f"{e.json_path}: {e.message}" for e in errors]
        raise SpecFileError("spec document is invalid: " + "; ".join(lines))
    source = _chart_from_dict(doc["source"], "source")
    target = _chart_from_dict(doc["target"], "target")
    comps_raw = doc["map"]["components"]
    if len(comps_raw) != target.dim:
        raise SpecFileError(f"/map/components: expected {target.dim} "
                            f"expressions, got {len(comps_raw)}")
    comps = _parse_each(comps_raw, source.coords, "/map/components")
    try:
        spec = mp.MapSpec(source, target, comps)
    except geo.GeometryError as err:
        raise SpecFileError(f"/map: {err}") from err
    fields = {}
    for k, fdoc in enumerate(doc.get("fields", [])):
        if len(fdoc["components"]) != target.dim:
            raise SpecFileError(f"/fields/{k}/components: expected "
                                f"{target.dim} expressions")
        fcomps = _parse_each(fdoc["components"], source.coords,
                             f"/fields/{k}/components")
        bump = fdoc.get("bump")
        fields[fdoc["name"]] = mp.TangentField(
            fcomps,
            bump_center=list(bump["center"]) if bump else None,
            bump_radius=float(bump["radius"]) if bump else None)
    return spec, fields


_DECIMAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_EXPONENT = re.compile(f"({_DECIMAL})(?:/({_DECIMAL}))?")


def _parse_exponent(text: str) -> float:
    """A finite decimal, or a fraction of two with a non-zero
    denominator; anything else is a SpecFileError."""
    match = _EXPONENT.fullmatch(text)
    if match:
        num, den = (float(g) for g in match.groups("1"))
        value = num / den if den else math.nan
        if all(map(math.isfinite, (num, den, value))):
            return value
    raise SpecFileError(f"invalid power-curve exponent '{text}'")


def load_builtin(name: str):
    """(MapSpec, fields) for a builtin:... spec name."""
    key = name.removeprefix("builtin:")
    if key in ("sphere-2", "sphere-3", "sphere-4"):
        m = int(key.rsplit("-", 1)[1])
        spec = charts.sphere_inclusion(m)
        return spec, {"position": charts.position_field(spec)}
    if key.startswith("power-curve:"):
        a = _parse_exponent(key.split(":", 1)[1])
        spec = charts.power_curve(a)
        bump = mp.TangentField([ex.parse("1", ["t"])],
                               bump_center=[2.0], bump_radius=1.2)
        return spec, {"bump": bump}
    if key == "torus-test":
        return charts.torus_test_map(), charts.torus_test_fields()
    if key == "linear-torus":
        return charts.linear_torus_map(), charts.torus_test_fields()
    raise SpecFileError(f"unknown builtin spec '{name}'")


def load_spec(ref: str):
    """(MapSpec, fields) from a builtin name or a JSON file path."""
    if ref.startswith("builtin:"):
        return load_builtin(ref)
    path = Path(ref)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise FileNotFoundError(f"cannot read spec file {ref!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise SpecFileError(f"spec file {ref!r} is not UTF-8 text: "
                            f"{err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFileError(f"spec file {ref!r} is not valid JSON: {err}") from err
    return parse_spec_document(doc)
