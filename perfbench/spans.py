"""Span recording around the package's public functions, from outside.

``from .x import y`` binds ``y`` in the importing module at import time, so
a function is replaced in its defining module and in every module of the
package that holds the same object.  Each call of a timed function records a
span (name, start, end, parent); the high-frequency ``membership`` and
``rank`` are only counted.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

MODULES = ("cli", "polyhedral", "cellular", "intlinalg", "cohomology", "genfun")

TIMED = {
    "cli": ("main", "parse_spec", "run", "emit_report"),
    "polyhedral": ("build_fan", "check_complete", "support_from_ray_values",
                   "lattice_polytope", "normal_fan_of_polytope", "dual_cone"),
    "cellular": ("cell_complex", "chain_complex", "reduced_homology",
                 "homology_dims_mod_p"),
    "intlinalg": ("invariant_factors",),
    "cohomology": ("degree_region", "check_shell", "cohomology_table",
                   "support_subcomplex", "signed_count", "graded_cohomology",
                   "chi_polynomial", "brion_terms", "brion_sum", "verify_identity"),
    "genfun": ("rational_equal", "cone_genfun", "triangulate_halfopen",
               "parallelepiped_points"),
}
COUNTED = {"cohomology": ("membership",), "intlinalg": ("rank",)}


def _sizes(name, args, kwargs, result, counts, subcomplexes):
    """Counters of the sizes that drive each layer's work."""
    if name == "polyhedral.build_fan":
        counts["polyhedral.rays"] += len(result.rays)
        counts["polyhedral.cones"] += len(result.cones)
        counts["polyhedral.maximal_cones"] += len(result.maximal_ids)
    elif name == "cohomology.cohomology_table":
        counts["cohomology.candidates"] += len(result.region.candidates)
    elif name == "cohomology.brion_sum":
        counts["genfun.brion_denominator_factors"] += len(result.denominator_factors)
        counts["genfun.brion_numerator_terms"] += len(result.numerator.terms)
    elif name == "genfun.parallelepiped_points":
        counts["genfun.parallelepiped_points.count"] += len(result)
    elif name == "cellular.chain_complex":
        keep = args[1] if len(args) > 1 else kwargs["keep"]
        if not callable(keep):
            subcomplexes.add(frozenset(keep))


class Tracer:
    """Installs the wrappers; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.subcomplexes: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _timed(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, subcomplexes = self._stack, self.counts, self.subcomplexes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            _sizes(name, args, kwargs, result, counts, subcomplexes)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"toricgf.{m}") for m in MODULES}
        everywhere = [importlib.import_module("toricgf"), *mods.values()]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for modname, fnames in table.items():
                for fname in fnames:
                    orig = getattr(mods[modname], fname)
                    wrapped = make(f"{modname}.{fname}", orig)
                    for mod in everywhere:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)
                                self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def reset_op(self):
        """Start the per-operation counters afresh."""
        for key in self.counts:
            self.counts[key] = 0
        self.subcomplexes.clear()

    def mark(self) -> int:
        return len(self.names)

    def op_totals(self, first: int) -> dict[str, float]:
        """Per-layer totals of the spans recorded since ``first``."""
        out: dict[str, float] = {}
        child = [0.0] * (len(self.names) - first)
        for i in range(len(self.names) - 1, first - 1, -1):
            dur = self.ends[i] - self.starts[i]
            name = self.names[i]
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child[i - first]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            parent = self.parents[i]
            if parent >= first:
                child[parent - first] += dur
        out.update(self.counts)
        out["cellular.distinct_subcomplexes"] = len(self.subcomplexes)
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent] to a JSON file."""
        with open(path, "w") as fh:
            json.dump({"spans": [[n, s, e, p] for n, s, e, p in
                                 zip(self.names, self.starts, self.ends, self.parents)]},
                      fh)


COUNTER_NAMES = (
    "cohomology.membership.calls", "intlinalg.rank.calls",
    "polyhedral.rays", "polyhedral.cones", "polyhedral.maximal_cones",
    "cohomology.candidates", "genfun.brion_denominator_factors",
    "genfun.brion_numerator_terms", "genfun.parallelepiped_points.count",
)

# Per-layer metrics, each a mean per successful operation of a traced run.
# Times end in .s (whole span) or .self_s (span minus its child spans).
LAYER_METRICS = (
    "cli.main.s", "cli.parse_spec.s", "cli.emit_report.s", "cli.run.self_s",
    "cli.cohomology_table.calls", "cli.brion_terms.calls",
    "polyhedral.build_fan.s", "polyhedral.check_complete.self_s",
    "polyhedral.support_from_ray_values.s", "polyhedral.lattice_polytope.s",
    "polyhedral.normal_fan_of_polytope.s", "polyhedral.dual_cone.s",
    "polyhedral.rays", "polyhedral.cones", "polyhedral.maximal_cones",
    "cellular.cell_complex.s", "cellular.chain_complex.s",
    "cellular.chain_complex.calls", "cellular.reduced_homology.s",
    "cellular.homology_dims_mod_p.s", "cellular.distinct_subcomplexes",
    "intlinalg.invariant_factors.s", "intlinalg.invariant_factors.calls",
    "intlinalg.rank.calls",
    "cohomology.degree_region.s", "cohomology.check_shell.s",
    "cohomology.support_subcomplex.s", "cohomology.signed_count.s",
    "cohomology.graded_cohomology.self_s", "cohomology.verify_identity.self_s",
    "cohomology.candidates", "cohomology.membership.calls",
    "cohomology.brion_sum.s", "genfun.rational_equal.s",
    "genfun.brion_denominator_factors", "genfun.brion_numerator_terms",
    "genfun.cone_genfun.s", "genfun.triangulate_halfopen.s",
    "genfun.parallelepiped_points.s", "genfun.parallelepiped_points.count",
)
# The two CLI call counts are the calls of the cohomology functions that
# cli.run makes once itself and once more through verify_identity.
_SOURCE = {"cli.cohomology_table.calls": "cohomology.cohomology_table.calls",
           "cli.brion_terms.calls": "cohomology.brion_terms.calls"}


def layer_unit(metric: str) -> str:
    return "s/op" if metric.endswith((".s", ".self_s")) else "count/op"


def layer_source(metric: str) -> str:
    """Key of ``Tracer.op_totals`` that a per-layer metric reads."""
    return _SOURCE.get(metric, metric)
