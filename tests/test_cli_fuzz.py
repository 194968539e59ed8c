"""Property test of the CLI contract: whatever the arguments, spec file
and points file, ``symphonic`` ends with an exit code in 0..4 and never
prints a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symphonic.cli import main

# expression texts over the coordinates; some fail to parse, some leave
# the real domain (log of a negative, a division by zero, inf - inf)
_EXPRS_1D = ["1", "t", "t^2", "2*t + 1", "sin(t)", "exp(t)", "log(t)",
             "sqrt(t - 1)", "1/(t - 1)", "pow(t, 4/3)", "0",
             "t*1e300*1e300 - t*1e300*1e300", "sin(", "t +", "q", "-2^2"]
_EXPRS_2D = ["1", "0", "x1", "x2", "x1 + 0.3*x2", "sin(x1)*cos(x2)",
             "1 + 0.2*cos(x2)", "x1^2", "log(x1)", "1/x2", "exp(x1*x2)",
             "0.1*sin(x1 + x2)", "-x1", "sqrt(x1)", "cos(", "x3"]
_BUILTINS = ["builtin:torus-test", "builtin:linear-torus", "builtin:sphere-2",
             "builtin:power-curve:2", "builtin:power-curve:abc",
             "builtin:power-curve:1/0", "builtin:power-curve:1e400",
             "builtin:nope"]
_NUMBER = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 6.283185307179586]),
                    st.floats(-3.0, 3.0), st.just(None))


@st.composite
def _chart(draw, dim):
    exprs = _EXPRS_1D if dim == 1 else _EXPRS_2D
    coords = ["t"] if dim == 1 else ["x1", "x2"]
    diag = st.sampled_from(["1", "1"] + exprs)
    off = st.sampled_from(["0", "0"] + exprs)
    metric = [[draw(diag) if i == j else draw(off) for j in range(dim)]
              for i in range(dim)]
    intervals = [[draw(_NUMBER), draw(_NUMBER)] for _ in range(dim)]
    chart = {"dim": dim, "coords": coords, "metric": metric,
             "domain": {"intervals": intervals}}
    if draw(st.booleans()):
        chart["domain"]["periodic"] = [draw(st.booleans())
                                       for _ in range(dim)]
    return chart


@st.composite
def _spec_text(draw):
    """A spec file: usually schema-valid JSON, sometimes not."""
    kind = draw(st.sampled_from(["spec", "spec", "spec", "junk", "partial"]))
    if kind == "junk":
        return draw(st.sampled_from(["", "{", "[]", "null", "{\"source\": 1}"]))
    dim = draw(st.sampled_from([1, 2]))
    exprs = _EXPRS_1D if dim == 1 else _EXPRS_2D
    tdim = draw(st.sampled_from([1, 2]))
    doc = {"source": draw(_chart(dim)),
           "target": {"dim": tdim, "coords": ["y1", "y2"][:tdim],
                      "metric": [["1" if i == j else "0" for j in range(tdim)]
                                 for i in range(tdim)],
                      "domain": {"intervals": [[None, None]] * tdim}},
           "map": {"components": [draw(st.sampled_from(exprs))
                                  for _ in range(tdim)]},
           "fields": [{"name": "v",
                       "components": [draw(st.sampled_from(exprs))
                                      for _ in range(tdim)]}]}
    if kind == "partial":
        del doc[draw(st.sampled_from(["source", "map", "target"]))]
    return json.dumps(doc)


_POINTS = st.sampled_from(["0.5\n1.5\n", "0.5 1.0\n2.0 3.0\n", "1 2 3\n",
                           "abc\n", "", "nan\n", "inf 1\n", "0.5, 0.25\n"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["verify", "eval", "variation", "flow",
                                    "bogus"]))
    spec = draw(st.sampled_from(_BUILTINS + ["{spec}"] * 4))
    grid = str(draw(st.sampled_from([0, 1, 2, 3, 4, 8, -1])))
    if command == "verify":
        return ["verify", "--case",
                draw(st.sampled_from(["power-curves", "nope"])),
                "--seed", str(draw(st.integers(0, 3)))]
    if command == "eval":
        argv = ["eval", "--spec", spec, "--op",
                draw(st.sampled_from(["pullback", "energy-density",
                                      "tension", "symphonic-tension",
                                      "bi-tension", "jacobi", "bad"]))]
        if draw(st.booleans()):
            argv += ["--field", draw(st.sampled_from(["v", "w"]))]
        if draw(st.booleans()):
            return argv + ["--points", "{points}"]
        return argv + ["--grid", grid]
    if command == "variation":
        argv = ["variation", "--spec", spec, "--field",
                draw(st.sampled_from(["v", "w", "u"])), "--grid", grid,
                "--energy", draw(st.sampled_from(["sym", "bisym"])),
                "--fd-step", draw(st.sampled_from(["1e-3", "0.5", "0",
                                                   "nan"]))]
        if draw(st.booleans()):
            argv += ["--second", "--field2", "w"]
        if draw(st.booleans()):
            argv += ["--json", "{json}"]
        return argv
    if command == "flow":
        return ["flow", "--spec", spec, "--grid",
                draw(st.sampled_from(["8", "2", "0"])), "--steps",
                draw(st.sampled_from(["1", "2"])), "--dt",
                draw(st.sampled_from(["2e-3", "-1"])),
                "--energy", draw(st.sampled_from(["sym", "bisym"]))]
    return [command]


@given(_argv(), _spec_text(), _POINTS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes_and_no_traceback(argv, spec_text, points_text):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{spec}": Path(tmp) / "spec.json",
                 "{points}": Path(tmp) / "points.txt",
                 "{json}": Path(tmp) / "report.json"}
        files["{spec}"].write_text(spec_text)
        files["{points}"].write_text(points_text)
        argv = [str(files.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
