"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``metricprod`` layer from
outside the package: methods on the catalog classes, module functions in
the module that defines them and in every module that imported them by
value (``cli`` imports the check functions directly, and keeps some in a
dispatch dict).  Each call becomes a span with a name, start, end, parent
span, job id and counters.  Spans stay in memory and are written as JSONL
at exit; :func:`summarize` turns them into per-layer totals, where a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


class Recorder:
    """In-memory span recorder; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []          # (span id, name) of the open spans
        self._next = 0

    def call(self, name, fn, args, kwargs, count=None, top_level_only=False):
        if top_level_only and self._stack and self._stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._finish(sid, parent, name, start, perf_counter(), None)
            raise
        end = perf_counter()
        self._finish(sid, parent, name, start, end,
                     count(args, kwargs, out) if count else None)
        return out

    def _finish(self, sid, parent, name, start, end, counters):
        self._stack.pop()
        self.spans.append((sid, parent, self.job, name, start, end, counters))

    def wrap(self, name, fn, count=None, top_level_only=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, top_level_only)
        return traced

    def reset(self):
        self.spans.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, counters in self.spans:
                rec = {"id": sid, "parent": parent, "job": job, "name": name,
                       "start": start, "end": end}
                if counters:
                    rec.update(counters)
                fh.write(json.dumps(rec) + "\n")


# -- counters -------------------------------------------------------------------


def _rows(_args, _kwargs, out):
    """Rows in a returned batch: a float counts as one row."""
    if isinstance(out, tuple):
        out = out[0]
    shape = getattr(out, "shape", ())
    return {"rows": int(shape[0]) if shape else 1}


def _nodes(_args, _kwargs, out):
    return {"nodes": int(out.nodes)}


def _cat0(_args, _kwargs, out):
    return {"checked": int(out.samples),
            "sampled": int(out.samples) + int(out.details["skipped_degenerate"])}


def _uniqueness(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"hits": int(out.details.get("perturbation_hits", 0)),
                "attempts": int(bound.arguments["perturbations"])}
    return count


# -- patching -------------------------------------------------------------------


def install(recorder: Recorder) -> None:
    """Wrap every traced function of the imported ``metricprod`` package."""
    from metricprod import cli, curves, geodesics, gluing, product, rank, reports, sampling, spaces

    modules = [m for name, m in sys.modules.items()
               if name == "metricprod" or name.startswith("metricprod.")]
    targets = []

    def method(cls, attr, name, count=None):
        targets.append((cls, attr, name, count, False))

    def function(module, attr, name, count=None, top_level_only=False):
        targets.append((module, attr, name, count, top_level_only))

    catalog = (spaces.RealLine, spaces.HalfLine, spaces.LpSpace,
               spaces.DiscreteSpace, spaces.FiniteMetricSpace)
    for cls in catalog:
        method(cls, "distance", "spaces.distance")
        method(cls, "distance_batch", "spaces.distance_batch", _rows)
        method(cls, "sample_batch", "sampling.draw", _rows)
    method(spaces.FiniteMetricSpace, "__init__", "spaces.finite_init")
    function(sampling, "quadrant_samples", "sampling.draw", _rows)
    function(sampling, "signed_samples", "sampling.draw", _rows)

    method(gluing.GluingFunction, "__call__", "gluing.eval", _rows)
    method(gluing.GluingFunction, "classification", "gluing.classification")
    function(gluing, "classify", "gluing.classify")
    for attr in ("check_definiteness", "check_quadrant_triangle", "check_norm_conditions",
                 "check_strict_convexity", "check_axis_pythagoras",
                 "check_symmetrized_norm_axioms"):
        function(gluing, attr, "gluing.checks")

    method(product.ProductSpace, "distance", "product.distance")
    method(product.ProductSpace, "distance_batch", "product.distance_batch", _rows)
    function(product, "verify_metric_axioms", "product.metric_axioms")

    function(curves, "curve_length", "curves.curve_length")
    function(curves, "product_curve_length_check", "curves.product_length")
    function(curves, "arclength_check", "curves.arclength")

    function(geodesics, "product_geodesic", "geodesics.product_geodesic")
    function(geodesics, "midpoint", "geodesics.midpoint")
    function(geodesics, "geodesy_test", "geodesics.geodesy")
    function(geodesics, "component_progress_check", "geodesics.geodesy")
    function(geodesics, "uniqueness_probe", "geodesics.uniqueness",
             _uniqueness(geodesics.uniqueness_probe))
    function(geodesics, "busemann_convexity_check", "geodesics.busemann")
    function(geodesics, "cat0_four_point_check", "geodesics.cat0", _cat0)

    function(rank, "finite_embedding_oracle", "rank.embedding", _nodes)
    function(rank, "alpha_decompose", "rank.alpha")
    function(rank, "counterexample_sum_halflines", "rank.counterexample")
    function(rank, "declared_rank", "rank.records")
    function(rank, "product_rank", "rank.records")

    function(reports, "to_jsonable", "reports.to_jsonable", top_level_only=True)

    method(cli.RunContext, "__init__", "cli.context")
    function(cli, "run_checks", "cli.dispatch")
    function(cli, "emit", "cli.emit")

    for owner, attr, name, count, top in targets:
        original = getattr(owner, attr)
        traced = recorder.wrap(name, original, count, top)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = traced


# -- analysis ---------------------------------------------------------------------


def summarize(lines) -> dict:
    """Per-name totals over all spans.

    Returns ``{name: {"calls", "self_s", "total_s", <counter sums>}}``; under
    ``gluing.classification`` it also counts ``"misses"``, the calls with a
    ``gluing.classify`` child span.
    """
    spans = list(map(json.loads, lines))
    child_time = defaultdict(float)
    classify_parents = set()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            if s["name"] == "gluing.classify":
                classify_parents.add(s["parent"])
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time.get(s["id"], 0.0)
        for key in ("rows", "nodes", "hits", "attempts", "checked", "sampled"):
            if key in s:
                agg[key] += s[key]
        if s["name"] == "gluing.classification" and s["id"] in classify_parents:
            agg["misses"] += 1
    return {name: dict(agg) for name, agg in out.items()}
