import argparse
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from symphonic import cli
from symphonic import geometry as geo
from symphonic import variational as va
from symphonic.cli import main
from symphonic.specfile import load_schema, load_spec, SpecFileError

REPORT_SCHEMA = load_schema("report.schema.json")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_case(capsys):
    code, out, _ = run(["verify", "--case", "scalar-symphonic"], capsys)
    assert code == 0
    assert "[PASS] scalar-symphonic" in out


def test_repeated_main_leaves_no_argparse_garbage(capsys):
    run(["verify", "--case", "scalar-symphonic"], capsys)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(["verify", "--case", "scalar-symphonic"], capsys)
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leaked


def test_verify_unknown_case(capsys):
    code, _, err = run(["verify", "--case", "nope"], capsys)
    assert code == 2
    assert "unknown case" in err


def test_verify_json_report_valid_and_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(["verify", "--case", "power-curves", "--seed", "7",
                          "--json", str(out)], capsys)
        assert code == 0
    doc1 = json.loads(out1.read_text())
    jsonschema.validate(doc1, REPORT_SCHEMA)
    doc2 = json.loads(out2.read_text())
    del doc1["timing"]
    del doc2["timing"]
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2,
                                                          sort_keys=True)


def test_verify_json_timing_has_each_case(tmp_path, capsys):
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code, _, _ = run(["verify", "--case", "all", "--seed", "1",
                          "--json", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        timing = doc.pop("timing")
        ids = [case["id"] for case in doc["cases"]]
        assert set(timing) == {"total_seconds", *ids}
        assert all(isinstance(timing[k], float) and timing[k] >= 0.0
                   for k in timing)
        assert sum(timing[k] for k in ids) <= timing["total_seconds"]
        texts.append(json.dumps(doc, indent=2))
    assert texts[0] == texts[1]


def test_verify_tol_scale_can_fail_controls(capsys, tmp_path):
    # shrinking tolerances by a huge factor trips the exact-value checks
    code, out, _ = run(["verify", "--case", "power-curves",
                        "--tol-scale", "1e-20"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_eval_sphere_tension(tmp_path, capsys):
    out = tmp_path / "vals.csv"
    code, _, _ = run(["eval", "--spec", "builtin:sphere-2",
                      "--op", "symphonic-tension", "--grid", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,symphonic-tension_1,symphonic-tension_2," \
                       "symphonic-tension_3"
    import math
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        t1, t2 = vals[:2]
        pos = [math.sin(t1) * math.cos(t2), math.sin(t1) * math.sin(t2),
               math.cos(t1)]
        # embedding convention: (cos t1, sin t1 cos t2, sin t1 sin t2)
        pos = [math.cos(t1), math.sin(t1) * math.cos(t2),
               math.sin(t1) * math.sin(t2)]
        for got, p in zip(vals[2:], pos):
            assert got == pytest.approx(-2 * p, abs=1e-9)


def test_eval_linear_bi_tension_zero(capsys):
    code, out, _ = run(["eval", "--spec", "builtin:linear-torus",
                        "--op", "bi-tension", "--grid", "3"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        vals = [float(v) for v in line.split(",")]
        assert all(abs(v) <= 1e-10 for v in vals[2:])


def test_eval_power_curve_bi_tension_value(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1.0\n")
    code, out, _ = run(["eval", "--spec", "builtin:power-curve:2",
                        "--op", "bi-tension", "--points", str(pts)], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    # reduced variant: three times the classical curve condition (448)
    assert float(row[1]) == pytest.approx(1344.0, rel=1e-12)
    code, out, _ = run(["eval", "--spec", "builtin:power-curve:2",
                        "--op", "bi-tension", "--variant", "full",
                        "--points", str(pts)], capsys)
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(
        1728.0, rel=1e-12)


def test_eval_jacobi_requires_field(capsys):
    code, _, err = run(["eval", "--spec", "builtin:torus-test",
                        "--op", "jacobi"], capsys)
    assert code == 2
    assert "--field" in err


def test_eval_jacobi_with_field(capsys):
    code, out, _ = run(["eval", "--spec", "builtin:torus-test",
                        "--op", "jacobi", "--field", "v", "--grid", "3"],
                       capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_eval_missing_spec_file(capsys):
    code, _, err = run(["eval", "--spec", "/nonexistent.json",
                        "--op", "tension"], capsys)
    assert code == 3
    assert "cannot read" in err


@pytest.mark.parametrize("command", [
    ["eval", "--op", "tension"], ["variation", "--field", "v"], ["flow"],
], ids=["eval", "variation", "flow"])
@pytest.mark.parametrize("content,code,message", [
    (None, 3, "cannot read spec file"),
    ("{not json", 2, "is not valid JSON"),
], ids=["missing", "not-json"])
def test_unreadable_and_invalid_spec_files(tmp_path, capsys, command,
                                           content, code, message):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    got, _, err = run(command[:1] + ["--spec", str(path)] + command[1:],
                      capsys)
    assert got == code
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]


def test_eval_domain_error_rows(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1.0\n9.5\n")  # second point outside [0.5, 4]
    code, out, err = run(["eval", "--spec", "builtin:power-curve:2",
                          "--op", "tension", "--points", str(pts)], capsys)
    assert code == 4
    lines = out.strip().splitlines()
    assert "nan" in lines[2]
    assert "domain" in err


def _per_point_rows(spec_ref, op, points, field=None):
    """Each point's row as eval gave it calling the operator point by
    point, or None where the point fails its checks."""
    spec, fields = load_spec(spec_ref)
    args = argparse.Namespace(op=op, variant=va.REDUCED)
    rows = []
    for x in points:
        try:
            rows.append(cli._apply_op(args, spec, fields.get(field), x))
        except geo.GeometryError:
            rows.append(None)
    return rows


def _csv_rows(out):
    return [[float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[1:]]


@pytest.mark.parametrize("spec_ref,op,field,tol", [
    ("builtin:sphere-2", op, None, 1e-14) for op in cli.OPS if op != "jacobi"
] + [("builtin:torus-test", "jacobi", "v", 1e-14),
     ("builtin:torus-test", "bi-tension", None, 1e-14),
     # near S^3's pole margins the batched and the per-point einsums sum
     # in different orders, and the bi-tension's cancellations there
     # magnify the last bits to 1.6e-14 of a row's largest entry; on
     # this grid the rows are up to 2.4e-10 from the exact 27 phi(x)
     ("builtin:sphere-3", "bi-tension", None, 1e-13)])
def test_eval_grid_is_one_batch_with_the_per_point_values(spec_ref, op, field,
                                                         tol, capsys):
    args = ["eval", "--spec", spec_ref, "--op", op, "--grid", "7"]
    code, out, err = run(args + (["--field", field] if field else []), capsys)
    assert (code, err) == (0, "")
    m = load_spec(spec_ref)[0].source.dim
    rows = _csv_rows(out)
    expected = _per_point_rows(spec_ref, op, [row[:m] for row in rows], field)
    for row, ref in zip(rows, expected):
        # the batch may change a row's last digits only
        scale = np.abs(ref).max()
        assert np.abs(np.array(row[m:]) - ref).max() <= tol * scale


def test_eval_runs_a_large_grid_in_chunks(capsys, monkeypatch):
    args = ["eval", "--spec", "builtin:sphere-2", "--op", "pullback",
            "--grid", "65"]  # 4225 points, more than one chunk
    code, chunked, err = run(args, capsys)
    assert (code, err) == (0, "")
    assert len(chunked.splitlines()) == 1 + 65 ** 2 > 1 + cli.EVAL_CHUNK
    monkeypatch.setattr(cli, "EVAL_CHUNK", 65 ** 2)
    assert run(args, capsys) == (0, chunked, "")


def test_eval_falls_back_per_point_within_the_failing_chunk(tmp_path, capsys,
                                                            monkeypatch):
    # the fifth point lies inside the pole margin, in the second chunk
    points = [[0.5 + 0.1 * k, 1.0 + 0.3 * k] for k in range(9)]
    points[4] = [0.01, 1.0]
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(f"{a!r} {b!r}\n" for a, b in points))
    args = ["eval", "--spec", "builtin:sphere-2", "--op", "tension",
            "--points", str(pts)]
    whole = run(args, capsys)
    monkeypatch.setattr(cli, "EVAL_CHUNK", 3)
    assert run(args, capsys) == whole
    code, out, err = whole
    assert code == 4
    assert err == "warning: 1 point(s) failed domain checks (NaN rows)\n"
    expected = _per_point_rows("builtin:sphere-2", "tension", points)
    assert [ref is None for ref in expected] == [k == 4 for k in range(9)]
    for line, x, ref in zip(out.strip().splitlines()[1:], points, expected):
        vals = ["nan"] * 3 if ref is None else [repr(float(v)) for v in ref]
        assert line == ",".join([repr(v) for v in x] + vals)


def test_eval_points_with_one_outside_the_chart_fall_back_per_point(
        tmp_path, capsys):
    points = [[0.5, 1.0], [1.2, 2.0], [0.01, 1.0], [2.0, 5.5]]
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(f"{a!r} {b!r}\n" for a, b in points))
    code, out, err = run(["eval", "--spec", "builtin:sphere-2",
                          "--op", "bi-tension", "--points", str(pts)], capsys)
    # the third point lies inside the pole margin
    assert code == 4
    assert err == "warning: 1 point(s) failed domain checks (NaN rows)\n"
    expected = _per_point_rows("builtin:sphere-2", "bi-tension", points)
    assert expected[2] is None
    for line, x, ref in zip(out.strip().splitlines()[1:], points, expected):
        vals = ["nan"] * 3 if ref is None else [repr(float(v)) for v in ref]
        assert line == ",".join([repr(v) for v in x] + vals)


def test_spec_file_round_trip(tmp_path, capsys):
    doc = {
        "source": {
            "dim": 1, "coords": ["t"], "metric": [["1"]],
            "domain": {"intervals": [[0.5, 4.0]]},
        },
        "target": {
            "dim": 1, "coords": ["y"], "metric": [["1"]],
            "domain": {"intervals": [[None, None]]},
        },
        "map": {"components": ["t^2"]},
        "fields": [{"name": "u", "components": ["1"],
                    "bump": {"center": [2.0], "radius": 1.0}}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec, fields = load_spec(str(path))
    assert spec.target.dim == 1
    assert "u" in fields
    code, out, _ = run(["eval", "--spec", str(path), "--op", "tension",
                        "--grid", "3"], capsys)
    assert code == 0
    assert out.startswith("t,tension_1")


def test_spec_file_schema_error_has_pointer(tmp_path):
    doc = {"source": {"dim": 1}, "target": {}, "map": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError) as err:
        load_spec(str(path))
    assert "$." in str(err.value)


def test_spec_file_dimension_mismatch(tmp_path):
    doc = {
        "source": {"dim": 2, "coords": ["a"], "metric": [["1"]],
                   "domain": {"intervals": [[0, 1]]}},
        "target": {"dim": 1, "coords": ["y"], "metric": [["1"]],
                   "domain": {"intervals": [[None, None]]}},
        "map": {"components": ["a"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError) as err:
        load_spec(str(path))
    assert "/source/coords" in str(err.value)


@pytest.mark.parametrize("pointer", ["/map/components/1",
                                     "/fields/0/components/1",
                                     "/source/metric/0/1"])
def test_expression_parse_error_names_its_element(tmp_path, pointer):
    """An expression that fails to parse is named by its own JSON
    pointer, not by the array that holds it."""
    doc = {
        "source": {"dim": 2, "coords": ["a", "b"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[0, 1], [0, 1]]}},
        "target": {"dim": 2, "coords": ["y", "z"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[None, None], [None, None]]}},
        "map": {"components": ["a", "b"]},
        "fields": [{"name": "u", "components": ["1", "a"]}],
    }
    node = doc
    *path, last = pointer.strip("/").split("/")
    for key in path:
        node = node[int(key) if key.isdigit() else key]
    node[int(last)] = "a*-"
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError) as err:
        load_spec(str(spec))
    assert str(err.value).startswith(f"{pointer}: ")


def test_variation_defaults(capsys):
    code, out, _ = run(["variation", "--spec", "builtin:torus-test",
                        "--field", "v", "--grid", "16"], capsys)
    assert code == 0
    assert "analytic pairing" in out


def test_variation_symphonic_map_near_zero(capsys):
    code, out, _ = run(["variation", "--spec", "builtin:linear-torus",
                        "--field", "v", "--grid", "12"], capsys)
    assert code == 0


def test_variation_second(capsys):
    code, out, _ = run(["variation", "--spec", "builtin:linear-torus",
                        "--field", "v", "--field2", "w", "--second",
                        "--grid", "16"], capsys)
    assert code == 0
    assert "mixed second variation" in out


def test_variation_second_of_bi_energy_is_a_usage_error(capsys):
    code, out, err = run(["variation", "--spec", "builtin:linear-torus",
                          "--field", "v", "--field2", "w", "--second",
                          "--energy", "bisym", "--grid", "16"], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "bi-energy" in lines[0] and "not implemented" in lines[0]


def test_variation_step_too_large(tmp_path, capsys):
    doc = {
        "source": {"dim": 1, "coords": ["t"], "metric": [["1"]],
                   "domain": {"intervals": [[0.5, 1.4]]}},
        "target": {"dim": 1, "coords": ["y"], "metric": [["1"]],
                   "domain": {"intervals": [[0.0, 2.05]]}},
        "map": {"components": ["t^2"]},
        "fields": [{"name": "u", "components": ["1"]}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["variation", "--spec", str(path), "--field", "u",
                        "--grid", "8", "--fd-step", "0.2"], capsys)
    assert code == 4
    assert "step too large" in err


def test_flow_refuses_nonperiodic(capsys):
    code, _, err = run(["flow", "--spec", "builtin:power-curve:2"], capsys)
    assert code == 2
    assert "periodic" in err


def test_flow_budget_exhausted(capsys):
    code, out, _ = run(["flow", "--spec", "builtin:torus-test",
                        "--grid", "16", "--steps", "3", "--tol", "1e-12"],
                       capsys)
    assert code == 1
    assert "budget-exhausted" in out


def test_flow_converges_and_traces(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(["flow", "--spec", "builtin:linear-torus",
                        "--grid", "16", "--steps", "10", "--tol", "1e-8",
                        "--trace", str(trace)], capsys)
    assert code == 0
    assert "converged-symphonic" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,epsilon,E_sym,max_tau_s_norm"


def test_seed_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SYMPHONIC_SEED", "99")
    out = tmp_path / "r.json"
    code, _, _ = run(["verify", "--case", "scalar-symphonic",
                      "--json", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 99


def test_seed_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SYMPHONIC_SEED", "abc")
    code, out, err = run(["verify", "--case", "power-curves"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: SYMPHONIC_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("argv,expected", [
    (["flow", "--spec", "builtin:torus-test", "--grid", "8", "--steps", "1"],
     1),  # the step budget runs out
    (["eval", "--spec", "builtin:torus-test", "--op", "tension", "--grid",
      "2"], 0),
])
def test_commands_without_a_seed_ignore_symphonic_seed(capsys, monkeypatch,
                                                       argv, expected):
    monkeypatch.setenv("SYMPHONIC_SEED", "abc")
    code, out, err = run(argv, capsys)
    assert code == expected
    assert err == ""
    assert out


@pytest.mark.parametrize("argv", [
    ["flow", "--spec", "builtin:torus-test", "--grid", "8", "--steps", "1"],
    ["eval", "--spec", "builtin:torus-test", "--op", "tension", "--grid", "2"],
])
def test_commands_without_a_seed_reject_seed_option(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv + ["--seed", "3"], capsys)
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_verify_failure_goes_through_the_exit_code_rule(capsys, monkeypatch):
    from symphonic import cases
    from symphonic.geometry import GeometryError

    def boom(name, seed):
        raise GeometryError("boom")

    monkeypatch.setattr(cases, "run_case", boom)
    code, _, err = run(["verify", "--case", "power-curves"], capsys)
    assert code == 4
    assert err == "error: boom\n"


@pytest.mark.parametrize("exponent", ["abc", "1/0", "1e400", "inf", "nan", ""])
def test_malformed_power_curve_exponent_is_a_usage_error(capsys, exponent):
    code, out, err = run(["eval", "--spec", f"builtin:power-curve:{exponent}",
                          "--op", "tension", "--grid", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid power-curve exponent '{exponent}'\n"


@pytest.mark.parametrize("exponent,value", [
    ("4/3", 4 / 3), ("15/11", 15 / 11), ("2", 2.0), ("-1", -1.0),
])
def test_power_curve_exponent_forms(capsys, exponent, value):
    code, out, _ = run(["eval", "--spec", f"builtin:power-curve:{exponent}",
                        "--op", "pullback", "--grid", "2"], capsys)
    assert code == 0
    # the pullback metric of t -> t^a at t = 4 is (a t^(a-1))^2
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx((value * 4.0 ** (value - 1)) ** 2,
                                           rel=1e-12)


def test_unknown_second_field_names_the_spec_fields(capsys):
    code, _, err = run(["variation", "--spec", "builtin:torus-test",
                        "--field", "v", "--second", "--field2", "u"], capsys)
    assert code == 2
    assert err == "error: unknown field 'u' (spec defines: ['v', 'w'])\n"


_INDEFINITE = [["1", "0"], ["0", "-1"]]
_INDEFINITE_ERROR = ("metric of chart '{side}' is not positive definite "
                     "(min eigenvalue -1.000e+00)")


def _torus_spec(source_metric, target_metric):
    period = [0.0, 6.283185307179586]
    return {
        "source": {"dim": 2, "coords": ["x1", "x2"], "metric": source_metric,
                   "domain": {"intervals": [period, period],
                              "periodic": [True, True]}},
        "target": {"dim": 2, "coords": ["y1", "y2"], "metric": target_metric,
                   "domain": {"intervals": [[None, None], [None, None]]}},
        "map": {"components": ["x1 + 0.1*sin(x2)", "x2"]},
    }


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("command", [
    ["eval", "--op", "symphonic-tension", "--grid", "2"],
    ["flow", "--grid", "8", "--steps", "2"],
], ids=["eval", "flow"])
def test_constant_metric_not_positive_definite_is_a_usage_error(
        tmp_path, capsys, side, command):
    euclid = [["1", "0"], ["0", "1"]]
    doc = _torus_spec(*((_INDEFINITE, euclid) if side == "source"
                        else (euclid, _INDEFINITE)))
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(command[:1] + ["--spec", str(path)] + command[1:],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: /{side}: {_INDEFINITE_ERROR.format(side=side)}\n"


def test_cli_closes_the_files_it_opens(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("0.5 1.0\n")
    out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run(["eval", "--spec", "builtin:sphere-2", "--op", "tension",
             "--points", str(points), "--out", str(out)], capsys)
        run(["flow", "--spec", "builtin:linear-torus", "--grid", "8",
             "--steps", "2", "--trace", str(trace)], capsys)
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]
    assert out.read_text().count("\n") == 2
    assert trace.read_text().startswith("step,epsilon,E_sym,")


def test_the_package_ships_both_schemas():
    # the packaged files are the one copy of each schema
    for name in ("spec.schema.json", "report.schema.json"):
        schema = load_schema(name)
        jsonschema.Draft7Validator.check_schema(schema)
        assert schema["type"] == "object"


def test_only_a_spec_file_loads_jsonschema(tmp_path):
    """Importing the command line and loading a builtin spec leave
    jsonschema unimported; validating a spec file imports it."""
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_one_dim_spec("t^2")))
    script = (
        "import sys\n"
        "import symphonic.cli\n"
        "from symphonic.specfile import load_spec\n"
        "load_spec('builtin:torus-test')\n"
        "assert 'jsonschema' not in sys.modules, 'builtin'\n"
        "load_spec(sys.argv[1])\n"
        "assert 'jsonschema' in sys.modules, 'file'\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _one_dim_spec(component):
    return {
        "source": {"dim": 1, "coords": ["t"], "metric": [["1"]],
                   "domain": {"intervals": [[0.5, 4.0]]}},
        "target": {"dim": 1, "coords": ["y"], "metric": [["1"]],
                   "domain": {"intervals": [[None, None]]}},
        "map": {"components": [component]},
    }


@pytest.mark.parametrize("component,expected", [
    # a 3000-term sum evaluates; over-nesting is a syntax error
    pytest.param(" + ".join(["t^2"] * 3000), 0, id="sum-3000"),
    pytest.param("(" * 5000 + "t" + ")" * 5000, 2, id="parens-5000"),
])
def test_eval_deep_expression_exits_cleanly(tmp_path, capsys, component,
                                            expected):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_one_dim_spec(component)))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code in range(5)
    assert code == expected
    assert "Traceback" not in err
    if expected == 0:
        # tension of t -> 3000 t^2 with flat metrics is 6000
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(6000.0)


@pytest.mark.parametrize("component", [
    pytest.param("(" * 5000 + "t" + ")" * 5000, id="parens-5000"),
    pytest.param("-" * 3000 + "t", id="minus-3000"),
])
def test_eval_over_nested_component_is_one_error_line(tmp_path, capsys,
                                                      component):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_one_dim_spec(component)))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert lines[0].endswith("expression nested too deeply "
                             "(line 1, column 101)")


@pytest.mark.parametrize("component,message", [
    # a unary minus with nothing after it
    pytest.param("t*-", "unexpected token 'end of input' (line 1, column 4)",
                 id="minus-at-end"),
    # a superscript two is a digit but not a decimal one: a name
    pytest.param("t*²", "undeclared variable '²' (line 1, column 3)",
                 id="superscript-two"),
    # an exponent fraction over zero
    pytest.param("t^1/0", "exponent fraction has a zero denominator "
                 "(line 1, column 5)", id="zero-denominator"),
    # an exponent that overflows to infinity
    pytest.param("t^1e400", "exponent must be finite (line 1, column 3)",
                 id="infinite-exponent"),
    # a number literal that overflows to infinity
    pytest.param("t*1e400", "number must be finite (line 1, column 3)",
                 id="infinite-literal"),
])
def test_eval_malformed_map_component_is_a_usage_error(tmp_path, capsys,
                                                       component, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_one_dim_spec(component)))
    code, _, err = run(["eval", "--spec", str(path), "--op", "tension",
                        "--grid", "3"], capsys)
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]


def test_eval_overflow_is_a_domain_error(tmp_path, capsys):
    # exp(4^5) overflows at the last grid point: a NaN row and exit 4
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_one_dim_spec("exp(t^5)")))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code == 4
    assert "Traceback" not in err
    assert out.strip().splitlines()[-1].endswith("nan")


def test_eval_infinite_trig_argument_is_a_domain_error(tmp_path, capsys):
    # t*1e300*1e300 is infinite at every grid point, so every point fails
    path = tmp_path / "infinite-sin.json"
    path.write_text(json.dumps(_one_dim_spec("sin(t*1e300*1e300)")))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code == 4
    assert "Traceback" not in err
    assert "domain" in err


@pytest.mark.parametrize("component", [
    # inf - inf is NaN at every grid point: alone, and as a sin argument
    pytest.param("t*1e300*1e300 - t*1e300*1e300", id="inf-minus-inf"),
    pytest.param("sin(t*1e300*1e300 - t*1e300*1e300)", id="sin-of-nan"),
])
def test_eval_nan_is_a_domain_error(tmp_path, capsys, component):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(_one_dim_spec(component)))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code == 4
    assert "Traceback" not in err
    assert "domain" in err


def test_flow_map_undefined_on_the_grid_is_a_domain_error(tmp_path, capsys):
    doc = _one_dim_spec("sqrt(t - 1)")
    doc["source"]["domain"] = {"intervals": [[0.5, 2.0]], "periodic": [True]}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["flow", "--spec", str(path), "--grid", "8",
                        "--steps", "2"], capsys)
    assert code == 4
    assert "Traceback" not in err
    assert "sqrt of non-positive value" in err


def test_variation_metric_undefined_on_the_mesh_is_a_domain_error(tmp_path,
                                                                  capsys):
    doc = _one_dim_spec("t")
    doc["source"] = {"dim": 1, "coords": ["t"], "metric": [["log(t)"]],
                     "domain": {"intervals": [[-1.0, 2.0]]}}
    doc["fields"] = [{"name": "v", "components": ["1"]}]
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["variation", "--spec", str(path), "--field", "v",
                        "--grid", "4"], capsys)
    assert code == 4
    assert "Traceback" not in err
    assert "log of non-positive value" in err


def test_variation_json_report_has_timing_and_is_deterministic(tmp_path,
                                                               capsys):
    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code, _, _ = run(["variation", "--spec", "builtin:torus-test",
                          "--field", "v", "--grid", "12", "--seed", "3",
                          "--json", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert set(doc["timing"]) == {"total_seconds", "analytic_seconds",
                                      "fd_seconds"}
        del doc["timing"]
        docs.append(json.dumps(doc, indent=2))
    assert docs[0] == docs[1]


def test_deep_source_metric_passes_the_symmetry_check(tmp_path, capsys):
    # the off-diagonal entries are compared structurally, at any depth
    off = " + ".join(["0.0001*x1"] * 3000)
    spec = {
        "source": {"dim": 2, "coords": ["x1", "x2"],
                   "metric": [["1", off], [off, "1"]],
                   "domain": {"intervals": [[0.0, 1.0], [0.0, 1.0]]}},
        "target": {"dim": 1, "coords": ["y"], "metric": [["1"]],
                   "domain": {"intervals": [[None, None]]}},
        "map": {"components": ["x1 + x2"]},
    }
    path = tmp_path / "deep-metric.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["eval", "--spec", str(path),
                          "--op", "energy-density", "--grid", "2"], capsys)
    assert code in range(5)
    assert code == 0
    assert "Traceback" not in err
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "--spec", "builtin:sphere-2", "--op", "tension",
                  "--points", "{points}"], id="eval-points-not-numeric"),
    pytest.param(["eval", "--spec", "builtin:sphere-2", "--op", "tension",
                  "--grid", "0"], id="eval-grid-0"),
    pytest.param(["variation", "--spec", "builtin:torus-test", "--field", "v",
                  "--fd-step", "0"], id="variation-fd-step-0"),
    pytest.param(["flow", "--spec", "builtin:torus-test", "--dt", "-1"],
                 id="flow-dt-negative"),
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv):
    points = tmp_path / "points.txt"
    points.write_text("0.5 1.0\n0.7 abc\n")
    argv = [a.replace("{points}", str(points)) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("option", ["--spec", "--points"])
def test_non_utf8_input_file_is_a_usage_error(tmp_path, capsys, option):
    path = tmp_path / "not-utf8.txt"
    path.write_bytes(b"\xff\xfe\x00")
    args = {"--spec": "builtin:power-curve:2", "--points": None}
    args[option] = str(path)
    argv = ["eval", "--spec", args["--spec"], "--op", "tension"]
    if args["--points"]:
        argv += ["--points", args["--points"]]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and "UTF-8" in lines[0]


def test_eval_every_point_failing_names_the_first_cause(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps(_one_dim_spec("sqrt(t - 5)")))
    code, out, err = run(["eval", "--spec", str(path), "--op", "tension",
                          "--grid", "3"], capsys)
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: every point failed its domain checks")
    assert "point [0.5]: sqrt of non-positive value -4.5" in lines[0]


def test_flow_initial_image_in_an_excluded_ball_is_a_domain_error(tmp_path,
                                                                  capsys):
    doc = {
        "source": {"dim": 2, "coords": ["x1", "x2"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[0, 6.283185307179586]] * 2,
                              "periodic": [True, True]}},
        "target": {"dim": 2, "coords": ["y1", "y2"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[-3, 3], [-3, 3]],
                              "exclusions": [{"center": [0, 0],
                                              "radius": 0.5}]}},
        "map": {"components": ["0.1*sin(x1)", "0.1*cos(x2)"]},
    }
    path = tmp_path / "hole.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["flow", "--spec", str(path), "--grid", "16",
                          "--steps", "50"], capsys)
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "outside the domain" in lines[0]


def test_flow_domain_abort_prints_its_reason(tmp_path, capsys):
    # the initial image misses the ball; the first candidate, a step of
    # 10 along the tension, lands grid nodes in it
    doc = {
        "source": {"dim": 2, "coords": ["x1", "x2"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[0, 6.283185307179586]] * 2,
                              "periodic": [True, True]}},
        "target": {"name": "plane-minus-ball", "dim": 2,
                   "coords": ["y1", "y2"],
                   "metric": [["1", "0"], ["0", "1"]],
                   "domain": {"intervals": [[None, None]] * 2,
                              "exclusions": [{"center": [-2, 3],
                                              "radius": 0.5}]}},
        "map": {"components": ["x1 + 0.4*sin(x1)", "x2"]},
    }
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["flow", "--spec", str(path), "--grid", "16",
                          "--dt", "10", "--steps", "5"], capsys)
    assert code == 4
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "status     : aborted-domain"
    assert lines[1].startswith("reason     : grid node (")
    assert lines[1].endswith("is outside the domain of chart "
                             "'plane-minus-ball'")
    assert lines[2] == "iterations : 0"
