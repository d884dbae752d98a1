"""Span tracing of eigenbouquet's public functions, from outside the package.

``Tracer.install`` replaces every public function of the package's modules,
and a few named methods, by a wrapper that records a span: name, start,
end and parent. The wrapper is bound at the name the caller looks up, so a
function imported into another module (``from .algebra import bareiss_det``)
is traced there as well. ``Tracer.uninstall`` puts the originals back.

Spans are kept in flat arrays in memory and written out by ``write``.
``Tracer.aggregate`` turns the spans of one pass into the per-layer metrics
listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict

PACKAGE = "eigenbouquet"

# Module -> layer name. The layers are the package's modules; the exact
# algebra substrate is one layer.
MODULES = {
    "eigenbouquet.algebra.scalars": "algebra",
    "eigenbouquet.algebra.universe": "algebra",
    "eigenbouquet.algebra.poly": "algebra",
    "eigenbouquet.algebra.parser": "algebra",
    "eigenbouquet.algebra.gcdtools": "algebra",
    "eigenbouquet.algebra.linalg": "algebra",
    "eigenbouquet.algebra.groebner": "algebra",
    "eigenbouquet.family": "family",
    "eigenbouquet.bouquet": "bouquet",
    "eigenbouquet.resolve": "resolve",
    "eigenbouquet.frames": "frames",
    "eigenbouquet.realnormal": "realnormal",
    "eigenbouquet.oracle": "oracle",
    "eigenbouquet.report": "report",
    "eigenbouquet.cli": "cli",
}
LAYERS = tuple(dict.fromkeys(MODULES.values()))

# Methods traced besides the module-level functions.
METHODS = {
    "eigenbouquet.algebra.poly": {
        "Polynomial": ("eval_scalar", "eval_complex", "substitute"),
    },
    "eigenbouquet.frames": {"PluckerSection": ("recover_quadratics",)},
}

# Public functions left untraced: a sort key and a conversion called so often
# (per comparison, per evaluated variable) that a span around each would
# dominate the trace.
SKIP = {"grlex_key", "as_scalar"}

# Spans whose descendants are counted separately (see ``aggregate``).
_MINORS_SCOPE = "bouquet.fitting_minors"
_SAMPLING_SCOPES = ("resolve.principality_status", "resolve.propose_center")


def _time(span):
    return ("time", span)


def _calls(span):
    return ("calls", span)


def _self(span):
    return ("self", span)


def _count(name):
    return ("count", name)


# A ratio names its numerator (a counter or a metric) and its denominator
# (a metric); it reads 0 when the denominator is 0.


# Per-layer metric -> how it is read off one traced pass. The comment above
# each group names the end-to-end metric and workload it should move; the
# same mapping is written out in BENCHMARK.json.
PER_LAYER = {
    # Split report_s on every workload.
    "cli.stage_analyze_s": _time("cli.stage_analyze"),
    "cli.stage_resolve_s": _time("cli.stage_resolve"),
    "cli.stage_frames_s": _time("cli.stage_frames"),
    "cli.stage_check_s": _time("cli.stage_check"),
    # analyze_s on exact_charts.
    "family.analyze_spectrum_s": _time("family.analyze_spectrum"),
    # analyze_s on exact_charts and complex_normal.
    "bouquet.fitting_minors_s": _time("bouquet.fitting_minors"),
    "bouquet.minors_computed": _count("bouquet.minors_computed"),
    "bouquet.minors_kept": _count("bouquet.minors_kept"),
    "bouquet.minors_kept_ratio": ("ratio", "bouquet.minors_kept", "bouquet.minors_computed"),
    "algebra.bareiss_det_calls": _calls("algebra.bareiss_det"),
    "algebra.bareiss_det_s": _time("algebra.bareiss_det"),
    # report_s on exact_charts.
    "algebra.gcd_calls": _calls("algebra.gcd_multivariate"),
    "algebra.gcd_s": _time("algebra.gcd_multivariate"),
    "algebra.divexact_s": _time("algebra.divexact"),
    "algebra.groebner_calls": _calls("algebra.ideal_contains_one"),
    "algebra.groebner_s": _time("algebra.ideal_contains_one"),
    "algebra.groebner_reductions": _count("algebra.groebner_reductions"),
    "algebra.groebner_yes_ratio": ("ratio", "algebra.groebner_yes", "algebra.groebner_calls"),
    "algebra.substitute_s": _time("algebra.Polynomial.substitute"),
    "resolve.principality_s": _time("resolve.principality_status"),
    "resolve.weak_transform_s": _time("resolve.weak_transform"),
    "resolve.blowup_s": _time("resolve.blowup_charts"),
    "resolve.propose_center_s": _time("resolve.propose_center"),
    "resolve.sample_evals": _count("resolve.sample_evals"),
    "resolve.charts_certified": _count("resolve.charts_ResolvedCertified"),
    "resolve.charts_probable": _count("resolve.charts_ResolvedProbable"),
    "resolve.charts_unresolved": _count("resolve.charts_Unresolved"),
    # report_s on exact_charts, a little on demo_frames.
    "algebra.eval_scalar_calls": _calls("algebra.Polynomial.eval_scalar"),
    "algebra.eval_scalar_s": _time("algebra.Polynomial.eval_scalar"),
    # report_s on demo_frames and complex_normal.
    "algebra.eval_complex_calls": _calls("algebra.Polynomial.eval_complex"),
    "algebra.eval_complex_s": _time("algebra.Polynomial.eval_complex"),
    "frames.family_matrix_calls": _calls("frames.family_matrix"),
    "frames.extract_bouquet_calls": _calls("frames.extract_bouquet_at_point"),
    "frames.extract_bouquet_s": _time("frames.extract_bouquet_at_point"),
    "frames.recover_quadratics_s": _time("frames.PluckerSection.recover_quadratics"),
    "frames.local_frame_self_s": _self("frames.local_frame_and_eigenvalues"),
    "frames.grid_points": _count("frames.grid_points"),
    "frames.exceptional_points": _count("frames.exceptional_points"),
    "oracle.eigh_jacobi_calls": _calls("oracle.eigh_jacobi"),
    "oracle.eigh_jacobi_s": _time("oracle.eigh_jacobi"),
    "oracle.principal_angles_calls": _calls("oracle.principal_angles"),
    "oracle.principal_angles_s": _time("oracle.principal_angles"),
    "oracle.extrapolate_calls": _calls("oracle.extrapolate_along_curve"),
    "oracle.extrapolate_s": _time("oracle.extrapolate_along_curve"),
    "oracle.extrapolate_useful_ratio": ("ratio", "frames.exceptional_points", "oracle.extrapolate_calls"),
    # report_s on complex_normal.
    "realnormal.split_and_double_s": _time("realnormal.split_and_double"),
    "realnormal.arcp_extract_s": _time("realnormal.arcp_extract"),
    "realnormal.arcp_extract_calls": _calls("realnormal.arcp_extract"),
    "realnormal.complexified_eigenvalues_s": _time("realnormal.complexified_eigenvalues"),
    # report_s on every workload.
    "report.canonical_json_s": _time("report.canonical_json"),
    "report.bytes": _count("report.bytes"),
}
# Self time of each layer: where a pass spends its time, layer by layer.
PER_LAYER.update({f"{layer}.self_s": ("layer", layer) for layer in LAYERS})


def _observe_fitting(counters, result):
    counters["bouquet.minors_kept"] += len(result.gens)


def _observe_groebner(counters, result):
    counters["algebra.groebner_reductions"] += result.reductions
    counters["algebra.groebner_yes"] += result.contains_one


def _observe_principality(counters, status):
    counters[f"resolve.charts_{status}"] += 1


def _observe_frames(counters, report):
    counters["frames.grid_points"] += len(report.points)
    counters["frames.exceptional_points"] += sum(report.exceptional_mask)


def _observe_report(counters, text):
    counters["report.bytes"] += len(text.encode("utf-8"))


OBSERVERS = {
    "bouquet.fitting_minors": _observe_fitting,
    "algebra.ideal_contains_one": _observe_groebner,
    "resolve.principality_status": _observe_principality,
    "frames.local_frame_and_eigenvalues": _observe_frames,
    "report.canonical_json": _observe_report,
}


def traced_functions():
    """(span name, layer, owner, attribute, function) for every traced callable."""
    out = []
    for modname, layer in MODULES.items():
        module = importlib.import_module(modname)
        for attr, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == modname
                and not attr.startswith("_")
                and attr not in SKIP
            ):
                out.append((f"{layer}.{attr}", layer, module, attr, fn))
        for clsname, methods in METHODS.get(modname, {}).items():
            cls = getattr(module, clsname)
            for attr in methods:
                fn = vars(cls)[attr]
                out.append((f"{layer}.{clsname}.{attr}", layer, cls, attr, fn))
    names = [entry[0] for entry in out]
    if len(set(names)) != len(names):
        raise RuntimeError("two traced callables share a span name")
    return out


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # an ancestor span has the same name
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, fn, name_id: int, observe):
        stack, active = self._stack, self._active
        name_of, parent, start, end, nested = (
            self.name_of, self.parent, self.start, self.end, self.nested,
        )
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            nested.append(active[name_id] > 0)
            end.append(0.0)
            stack.append(idx)
            active[name_id] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[name_id] -= 1
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def open_span(self, name: str):
        """Start a span that the caller ends with ``close_span`` (job roots)."""
        name_id = self._name_id(name, "bench")
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.nested.append(False)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int):
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def install(self):
        """Replace every traced callable wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, layer, owner, attr, fn in traced_functions():
            wrapper = self._wrap(fn, self._name_id(name, layer), OBSERVERS.get(name))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        for modname in (*MODULES, f"{PACKAGE}.algebra", PACKAGE):
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def aggregate(self, first: int, last: int, counters: dict) -> dict[str, float]:
        """Per-layer metrics of the spans with index in [first, last)."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_t = [0.0] * n_names
        scope = {}
        minors_id = self._id_or_none(_MINORS_SCOPE)
        sampling_ids = {self._id_or_none(s) for s in _SAMPLING_SCOPES} - {None}
        det_id = self._id_or_none("algebra.bareiss_det")
        eval_id = self._id_or_none("algebra.Polynomial.eval_scalar")
        minors_computed = 0
        sample_evals = 0
        name_of, parent, start, end, nested = (
            self.name_of, self.parent, self.start, self.end, self.nested,
        )
        for i in range(first, last):
            nid = name_of[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            if not nested[i]:
                incl[nid] += dur
            self_t[nid] += dur
            p = parent[i]
            flags = 0
            if p >= first:
                self_t[name_of[p]] -= dur
                pid = name_of[p]
                flags = scope.get(p, 0)
                if pid == minors_id:
                    flags |= 1
                elif pid in sampling_ids:
                    flags |= 2
            if flags:
                scope[i] = flags
                if nid == det_id and flags & 1:
                    minors_computed += 1
                if nid == eval_id and flags & 2:
                    sample_evals += 1
        by_name = self._ids
        counts = dict(counters)
        counts["bouquet.minors_computed"] = minors_computed
        counts["resolve.sample_evals"] = sample_evals
        layer_self = {layer: 0.0 for layer in LAYERS}
        for k in range(n_names):
            if self.layers[k] in layer_self:
                layer_self[self.layers[k]] += self_t[k]

        out = {}
        for metric, spec in PER_LAYER.items():
            kind, key = spec[0], spec[1]
            k = by_name.get(key)
            if kind == "time":
                out[metric] = incl[k] if k is not None else 0.0
            elif kind == "self":
                out[metric] = self_t[k] if k is not None else 0.0
            elif kind == "calls":
                out[metric] = calls[k] if k is not None else 0
            elif kind == "count":
                out[metric] = counts.get(key, 0)
            elif kind == "layer":
                out[metric] = layer_self[key]
        for metric, spec in PER_LAYER.items():
            if spec[0] == "ratio":
                num = out.get(spec[1], counts.get(spec[1], 0))
                den = out[spec[2]]
                out[metric] = num / den if den else 0.0
        out["trace.spans"] = last - first
        return out

    def _id_or_none(self, name: str):
        return self._ids.get(name)

    def write(self, path) -> None:
        """Write every span as CSV (id, name, parent, start_s, end_s), gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name_of[i]]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "report.bytes":
        return "bytes"
    return "count"
