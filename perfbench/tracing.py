"""Spans around the program's public calls, installed from outside.

The tracer replaces public functions, methods and grid operator properties
with timing wrappers while one traced operation runs, and puts the originals
back afterwards, so untraced operations run the program unchanged.  A
wrapped function is replaced under every name that binds it in the
`shallowshell` modules (`from .energy import make_assembly` makes a second
binding in `solver`).  Spans (name, start, end, parent) stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from shallowshell.config import StudyConfig
from shallowshell.energy import EnergyAssembly
from shallowshell.grid import Grid

LAYERS = ("grid", "geometry", "elasticity", "energy", "solver", "study", "io",
          "config", "verification")

# (span name, module, function); the span's layer is the part before the dot.
# homotopy_solve lives in solver.py but is the study's loop over t.
FUNCTIONS = (
    ("geometry.geometry_field", "shallowshell.geometry", "geometry_field"),
    ("geometry.cell_geometry", "shallowshell.geometry", "cell_geometry"),
    ("geometry.c2_distance", "shallowshell.geometry", "c2_distance"),
    ("elasticity.positivity_gap", "shallowshell.elasticity", "positivity_gap"),
    ("energy.make_assembly", "shallowshell.energy", "make_assembly"),
    ("solver.minimize", "shallowshell.solver", "minimize"),
    ("study.homotopy_solve", "shallowshell.solver", "homotopy_solve"),
    ("study.run_convergence_study", "shallowshell.study", "run_convergence_study"),
    ("io.write_displacement_csv", "shallowshell.io", "write_displacement_csv"),
    ("io.write_geometry_csv", "shallowshell.io", "write_geometry_csv"),
    ("io.write_study_csv", "shallowshell.io", "write_study_csv"),
    ("io.read_displacement_csv", "shallowshell.io", "read_displacement_csv"),
    ("config.parse_config_text", "shallowshell.config", "parse_config_text"),
    ("config.parse_config", "shallowshell.config", "parse_config"),
)

METHODS = (
    ("energy.full_evaluation", EnergyAssembly, "full_evaluation"),
    ("energy.energy", EnergyAssembly, "energy"),
    ("energy.hessian_diagonal_estimate", EnergyAssembly, "hessian_diagonal_estimate"),
    ("config.config_hash", StudyConfig, "config_hash"),
)

# Every sparse operator a Grid builds lazily on first use.
GRID_OPERATORS = ("d1_ops", "d2_ops", "cell_d1_ops", "cell_avg_op",
                  "interior_d1_ops", "clamped_d2_ops", "transposed_ops")

# The 23 checks of run_verification, each timed under verification.<name>_s.
VERIFICATION_CHECKS = (
    "geometry_derivatives", "metric_inverse", "plate_flat", "christoffel_cross",
    "c2_monotone", "tensor_symmetries", "contract_symmetry", "trace_identity",
    "positivity_realized", "plate_tensor", "operator_linearity",
    "integration_by_parts", "mixed_symmetry", "korn", "bubble_h2", "gradient",
    "plate_path", "energy_nonnegative", "strain_symmetry", "load_bilinearity",
    "solver_zero_load", "solver_determinism", "solver_monotone",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    op: int      # traced operation the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _is_zero_displacement(u) -> bool:
    return not any(c.any() for c in u.components())


def _note_minimize(span, args, kwargs, result):
    _, diag = result
    u0 = args[1] if len(args) > 1 else kwargs["u0"]
    span.attrs["iterations"] = diag.iterations
    span.attrs["backtracks"] = diag.line_search_failures
    span.attrs["cold"] = _is_zero_displacement(u0)


def _note_file(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


_NOTES = {
    "solver.minimize": _note_minimize,
    "io.write_displacement_csv": _note_file,
    "io.write_geometry_csv": _note_file,
    "io.write_study_csv": _note_file,
    "io.read_displacement_csv": _note_file,
}


class Tracer:
    """Collects spans of the operations run between install() and uninstall()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.grids = 0
        self.ops = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.ops)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "shallowshell" or n.startswith("shallowshell.")]
        targets = [(n, sys.modules[m].__dict__[f]) for n, m, f in FUNCTIONS]
        targets += [(f"verification.{c}", sys.modules["shallowshell.verification"]
                     .__dict__[f"check_{c}"]) for c in VERIFICATION_CHECKS]
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)
        for name, cls, attr in METHODS:
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for attr in GRID_OPERATORS:
            prop = cached_property(self._wrap(f"grid.{attr}", Grid.__dict__[attr].func))
            prop.__set_name__(Grid, attr)
            self._replace(Grid, attr, prop)
        post_init = Grid.__dict__["__post_init__"]

        def counted_post_init(grid):
            self.grids += 1
            post_init(grid)

        self._replace(Grid, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.ops += 1

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


def per_layer(tracer: Tracer, overhead_s: float, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced operation, as {name: (value, unit)}.

    `wall_s` is the median wall time of the run's untraced operations, and
    `overhead_s` the median of traced minus untraced wall time.
    """
    spans = tracer.spans
    n = max(tracer.ops, 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def outermost(layer):
        return sum(s.duration for s in spans
                   if s.layer == layer and (s.parent < 0 or spans[s.parent].layer != layer))

    self_s = {layer: 0.0 for layer in LAYERS}
    for k, s in enumerate(spans):
        self_s[s.layer] += s.duration - child_time[k]

    full = named("energy.full_evaluation")
    energy_calls = named("energy.energy")
    minimizes = named("solver.minimize")
    cold = sum(s.attrs["iterations"] for s in minimizes if s.attrs["cold"])
    warm = sum(s.attrs["iterations"] for s in minimizes if not s.attrs["cold"])
    in_solver = sum(1 for s in full if s.parent >= 0 and spans[s.parent].name == "solver.minimize")
    writes = [s for s in spans if s.name.startswith("io.write_")]
    reads = named("io.read_displacement_csv")

    m = {
        "grid.ops_s": (outermost("grid") / n, "s"),
        "grid.grids_built": (tracer.grids / n, "count"),
        "geometry.field_s": (total("geometry.geometry_field", "geometry.cell_geometry") / n, "s"),
        "geometry.c2_distance_s": (total("geometry.c2_distance") / n, "s"),
        "elasticity.positivity_gap_s": (total("elasticity.positivity_gap") / n, "s"),
        "energy.assemblies": (len(named("energy.make_assembly")) / n, "count"),
        "energy.make_assembly_s": (total("energy.make_assembly") / n, "s"),
        "energy.full_evals": (len(full) / n, "count"),
        "energy.full_eval_ms": (1e3 * total("energy.full_evaluation") / max(len(full), 1), "ms"),
        "energy.full_eval_s": (total("energy.full_evaluation") / n, "s"),
        "energy.energy_ms": (1e3 * total("energy.energy") / max(len(energy_calls), 1), "ms"),
        "energy.hdiag_s": (total("energy.hessian_diagonal_estimate") / n, "s"),
        "solver.minimize_s": (total("solver.minimize") / n, "s"),
        "solver.iterations.cold": (cold / n, "count"),
        "solver.iterations.warm": (warm / n, "count"),
        "solver.evaluations": (in_solver / n, "count"),
        "solver.backtracks": (sum(s.attrs["backtracks"] for s in minimizes) / n, "count"),
        "solver.accept_ratio": ((cold + warm) / in_solver if in_solver else 0.0, "ratio"),
        "study.homotopy_s": (total("study.homotopy_solve") / n, "s"),
        "study.rows_s": (sum(s.duration - child_time[k] for k, s in enumerate(spans)
                             if s.name == "study.run_convergence_study") / n, "s"),
        "io.write_s": (sum(s.duration for s in writes) / n, "s"),
        "io.bytes_written": (sum(s.attrs["bytes"] for s in writes) / n, "count"),
        "io.read_s": (sum(s.duration for s in reads) / n, "s"),
        "io.bytes_read": (sum(s.attrs["bytes"] for s in reads) / n, "count"),
        "config.parse_s": (outermost("config") / n, "s"),
    }
    for c in VERIFICATION_CHECKS:
        m[f"verification.{c}_s"] = (total(f"verification.{c}") / n, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    m["trace.spans"] = (len(spans) / n, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["op.wall_s"] = (wall_s, "s")
    return m
