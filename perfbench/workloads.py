"""The benchmark's four workloads.

Each is a closed loop: one caller runs a unit of work, waits for it,
checks it, then starts the next.  A workload has

    prepare()     untimed input generation, -> Checked
    setup()       the set-up a user pays before the first operator call
    next_input()  untimed per-unit input (fresh flow state, sample points)
    unit(inp)     the timed unit of work, through public entry points
    check(out, wall)
                  -> Checked(attempted, failed, failures, samples, notes)

A workload writes its scratch files into the directory it is given.

Every call into the package goes through a module attribute
(``cli.main``, ``variational.bi_tension`` ...) so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from symphonic import cli, flow, specfile
from symphonic import expr as ex
from symphonic import geometry as geo
from symphonic import variational as va
from symphonic.jet import JetDomainError

HERE = Path(__file__).resolve().parent
CACHE = HERE / "cache"

# criterion 6 of the acceptance suite
IDENTITY_REL_TOL = 1e-8


@dataclass
class Checked:
    """Operations attempted and failed by a check, with the failure
    messages, timing samples per metric and notes for the report."""

    attempted: int
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)   # metric -> [values]
    notes: dict = field(default_factory=dict)

    def add(self, other: "Checked") -> None:
        """Fold another result into this running total."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        for key, values in other.samples.items():
            self.samples.setdefault(key, []).extend(values)
        self.notes.update(other.notes)


def monotone(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


class Catalog:
    """``symphonic verify --case all`` in-process, with its JSON report."""

    name = "catalog"
    min_units = 2   # the determinism check compares two reports

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.first_report = None
        self.schema = None

    def prepare(self):
        return Checked(attempted=0)

    def setup(self):
        pass   # importing symphonic is the whole set-up

    def next_input(self):
        return os.path.join(self.tmp, "report.json")

    def unit(self, path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--case", "all", "--seed",
                             str(self.seed), "--json", path])
        with open(path, "rb") as fh:
            return code, fh.read()

    def check(self, out, wall) -> Checked:
        code, data = out
        res = Checked(attempted=1)
        problems = []
        if code != 0:
            problems.append(f"verify exited {code}")
        doc = json.loads(data)
        if self.schema is None:
            self.schema = specfile.load_schema("report.schema.json")
        try:
            jsonschema.validate(doc, self.schema)
        except jsonschema.ValidationError as err:
            problems.append(f"report fails its schema: {err.message}")
        doc.pop("timing", None)
        report = json.dumps(doc, indent=2)
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            problems.append("report differs from the first run's "
                            "(timing dropped)")
        if problems:
            res.failed = 1
            res.failures = problems
        res.notes["checks"] = sum(len(c["checks"]) for c in doc["cases"])
        return res



class CurvedFields:
    """Criterion 6, bi_tension == jacobi_operator(tau_s), on the two
    curved-target maps with sympy-derived tension fields."""

    name = "curved-fields"
    min_units = 1
    kinds = ("torus", "annulus")

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.loaded = {}
        self.rngs = {}
        self.worst_rel = 0.0

    def spec_path(self, kind: str) -> Path:
        return CACHE / f"curved-{kind}-seed{self.seed}.json"

    def prepare(self):
        """Generate the specs (sympy, in child processes), or regenerate
        and compare when cached; either way two independent generations
        must give the same bytes."""
        CACHE.mkdir(exist_ok=True)
        res = Checked(attempted=len(self.kinds))
        cached = all(self.spec_path(k).exists() for k in self.kinds)
        copies = 1 if cached else 2
        # longest job first, both copies of a map side by side
        tmp = Path(self.tmp)
        jobs = [(kind, tmp / f"{kind}-{c}.json")
                for kind in self.kinds for c in range(copies)]
        res.failures = _run_generators(self.seed, jobs)
        if res.failures:
            res.failed = len(self.kinds)
            return res
        for kind in self.kinds:
            fresh = (tmp / f"{kind}-0.json").read_bytes()
            other = (self.spec_path(kind).read_bytes() if cached else
                     (tmp / f"{kind}-1.json").read_bytes())
            if fresh != other:
                res.failed += 1
                res.failures.append(f"regenerating the {kind} spec for seed "
                                    f"{self.seed} gave different bytes")
            elif not cached:
                self.spec_path(kind).write_bytes(fresh)
        res.notes["spec_cache"] = "hit" if cached else "miss"
        return res

    def setup(self):
        for k, kind in enumerate(self.kinds):
            spec, fields = specfile.load_spec(str(self.spec_path(kind)))
            self.loaded[kind] = (spec, fields["tau_s"])
            self.rngs[kind] = np.random.default_rng([self.seed, k])

    def next_input(self):
        return [(kind, self.loaded[kind][0].source.sample_points(
            1, self.rngs[kind])[0]) for kind in self.kinds]

    def unit(self, points):
        out = []
        for kind, x in points:
            spec, field_ = self.loaded[kind]
            t0 = time.perf_counter()
            try:
                bt = va.bi_tension(spec, x, variant=va.REDUCED)
                t1 = time.perf_counter()
                jv = va.jacobi_operator(spec, x, field_, variant=va.REDUCED)
            except (geo.GeometryError, ex.ExprError, JetDomainError) as err:
                out.append((kind, x, None, err, 0.0, 0.0))
                continue
            out.append((kind, x, bt, jv, t1 - t0, time.perf_counter() - t1))
        return out

    def check(self, out, wall) -> Checked:
        res = Checked(attempted=len(out))
        res.samples["points_per_s"] = [len(out) / wall]
        for kind, x, bt, jv, t_bt, t_jv in out:
            if bt is None:
                res.failed += 1
                res.failures.append(f"{kind} point {x}: {jv}")
                continue
            res.samples[f"bi_tension_ms.{kind}"] = [1e3 * t_bt]
            res.samples[f"jacobi_operator_ms.{kind}"] = [1e3 * t_jv]
            scale = max(float(np.abs(bt).max()), 1e-12)
            rel = float(np.abs(bt - jv).max()) / scale
            self.worst_rel = max(self.worst_rel, rel)
            res.notes["worst_identity_rel"] = self.worst_rel
            if not rel <= IDENTITY_REL_TOL:
                res.failed += 1
                res.failures.append(f"{kind} point {x}: identity rel "
                                    f"{rel:.3e} > {IDENTITY_REL_TOL:g}")
        return res


def _run_generators(seed: int, jobs) -> list:
    """Run gen_fields.py for each (kind, out) job, two at a time, in
    order; failure messages for jobs that failed."""
    failures = []
    pending = list(jobs)
    running = []
    while pending or running:
        while pending and len(running) < 2:
            kind, out = pending.pop(0)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "gen_fields.py"), "--seed",
                 str(seed), "--map", kind, "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            running.append((kind, proc))
        kind, proc = running.pop(0)
        _, err = proc.communicate()
        if proc.returncode != 0:
            failures.append(f"generating the {kind} spec failed: "
                            f"{err.decode(errors='replace').strip()[-300:]}")
    return failures


class _Flow:
    """Shared part of the two flow workloads: flow_run from a fresh
    flow_init state of the README map, timed per step."""

    min_units = 1
    spec_ref = "builtin:torus-test"

    def __init__(self, seed: int, tmp: str):
        self.seed = seed   # the README map is fixed; the seed is recorded
        self.spec = None

    def prepare(self):
        return Checked(attempted=0)

    def setup(self):
        self.spec, _ = specfile.load_spec(self.spec_ref)
        self.next_input()   # a user's first flow_init is set-up too

    def next_input(self):
        return flow.flow_init(self.spec, self.grid, epsilon=self.dt,
                              energy=self.energy)

    def unit(self, state):
        stamps = []

        def on_step(_state, _gnorm):
            stamps.append(time.perf_counter())

        state = flow.flow_run(state, self.budget, self.tol, on_step=on_step)
        return state, stamps

    def _checked(self, out, problems) -> Checked:
        state, stamps = out
        res = Checked(attempted=1)
        if problems:
            res.failed = 1
            res.failures = problems
        dts = np.diff(stamps)
        res.samples["steps_per_s"] = list(1.0 / dts[dts > 0])
        res.notes["accepted_steps"] = state.iteration
        res.notes["status"] = state.status
        res.notes["final_energy"] = state.energy_history[-1]
        return res


class FlowSym(_Flow):
    """The README flow: grid 32, dt 2e-3, tol 1e-5, 5000-step budget."""

    name = "flow-sym"
    grid, dt, tol, budget, energy = 32, 2e-3, 1e-5, 5000, flow.ENERGY_SYM

    def check(self, out, wall) -> Checked:
        state, _ = out
        problems = []
        if state.status != flow.STATUS_CONVERGED:
            problems.append(f"flow ended {state.status} after "
                            f"{state.iteration} steps")
        if not monotone(state.energy_history):
            problems.append("energy history is not monotone")
        res = self._checked(out, problems)
        res.samples["steps_to_tol"] = [state.iteration]
        return res


class FlowBisym(_Flow):
    """The same map under the bi-energy, grid 16, a fixed step budget
    (this flow does not reach its tolerance)."""

    name = "flow-bisym"
    grid, dt, tol, budget, energy = 16, 2e-3, 1e-5, 1000, flow.ENERGY_BISYM

    def check(self, out, wall) -> Checked:
        state, _ = out
        problems = []
        if state.status not in (flow.STATUS_BUDGET,
                                flow.STATUS_CONVERGED_BISYM):
            problems.append(f"flow ended {state.status} after "
                            f"{state.iteration} steps")
        hist = state.energy_history
        if not monotone(hist):
            problems.append("energy history is not monotone")
        if not hist[-1] < hist[0]:
            problems.append(f"final energy {hist[-1]!r} is not below the "
                            f"initial {hist[0]!r}")
        return self._checked(out, problems)


WORKLOADS = {cls.name: cls for cls in (Catalog, CurvedFields, FlowSym,
                                       FlowBisym)}
