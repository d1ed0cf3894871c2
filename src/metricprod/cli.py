"""Command-line front end.

Reads a declarative JSON config naming spaces, gluing functions, curves,
and a list of checks; runs the checks in order and emits one record per
check, as aligned text or line-delimited JSON.  Exit codes: 0 all
non-informational checks passed, 1 a check failed, 2 bad config, 3 search
budget exceeded, 4 stdout was closed before the records were all written.

Structured output is byte-identical across runs for a fixed config and
seed: records carry no wall clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .curves import (
    arclength_check,
    circle_arc,
    curve_length,
    non_length_space_demo,
    polyline,
    product_curve_length_check,
    segment,
)
from .gluing import (
    GLUING_KEYS,
    GluingClass,
    GluingFunction,
    check_axis_pythagoras,
    check_definiteness,
    check_norm_conditions,
    check_quadrant_triangle,
    check_strict_convexity,
    check_symmetrized_norm_axioms,
    refuse_unread,
    scalar_product_weights,
)
from .geodesics import (
    busemann_convexity_check,
    cat0_four_point_check,
    component_progress_check,
    geodesic_between,
    geodesy_test,
    product_geodesic,
    uniqueness_probe,
)
from .product import ProductSpace, verify_metric_axioms
from .rank import (
    BudgetExceededError,
    RankRecord,
    alpha_decompose,
    counterexample_sum_halflines,
    declared_rank,
    finite_embedding_oracle,
    product_rank,
)
from .reports import FAIL, PASS, UNDETERMINED, Tolerances, to_jsonable
from .sampling import SampleConfig
from .spaces import DiscreteSpace, FiniteMetricSpace, HalfLine, LpSpace, RealLine, batch_form

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_PIPE_CLOSED = 4

MACHINE_EPS = float(np.finfo(float).eps)


class ConfigError(ValueError):
    """Malformed or unresolvable configuration."""


# -- object construction -------------------------------------------------------


def build_phi(defn) -> GluingFunction:
    if not isinstance(defn, dict) or "type" not in defn:
        raise ConfigError("gluing definition needs a 'type' field")
    kind = defn["type"]
    dim = defn.get("dim")
    try:
        # a custom gluing's evaluator is a callable, which a config cannot hold
        if kind in GLUING_KEYS and kind != "custom":
            refuse_unread(kind, defn.get("weights"), defn.get("p"))
            if kind == "coordinate-power":
                return GluingFunction.coordinate_power(
                    int(dim), float(defn["exponent"]), int(defn.get("coordinate", 0)))
            weights = defn.get("weights")
            if dim is None and weights is None:
                fields = "'dim' or 'weights'" if GLUING_KEYS[kind] else "'dim'"
                raise ConfigError(f"{kind} needs {fields}")
            dim = len(weights) if dim is None else int(dim)
            if kind != "weighted-lp":
                return GluingFunction(dim, kind, weights=weights)
            p = defn.get("p")
            return GluingFunction.lp(dim, math.inf if p in ("inf", "oo") else float(p), weights)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad gluing definition: {exc}") from exc
    raise ConfigError(f"unknown gluing type {kind!r}")


def build_space(defn, ctx):
    """A space from its definition; factors and gluings are resolved through ``ctx``."""
    if not isinstance(defn, dict) or "type" not in defn:
        raise ConfigError("space definition needs a 'type' field")
    kind = defn["type"]
    try:
        if kind == "real-line":
            return RealLine()
        if kind == "half-line":
            return HalfLine()
        if kind == "lp":
            p = defn.get("p", 2)
            p = math.inf if p in ("inf", "oo") else float(p)
            return LpSpace(int(defn["dim"]), p, defn.get("weights"))
        if kind == "discrete":
            return DiscreteSpace(int(defn["points"]))
        if kind == "finite":
            return FiniteMetricSpace(defn["matrix"])
        if kind == "product":
            return ProductSpace([ctx.space(f) for f in defn["factors"]], ctx.phi(defn["phi"]))
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad space definition: {exc}") from exc
    raise ConfigError(f"unknown space type {kind!r}")


def build_curve(defn, ctx):
    if not isinstance(defn, dict) or "kind" not in defn:
        raise ConfigError("curve definition needs a 'kind' field")
    kind = defn["kind"]
    try:
        if kind == "polyline":
            space = ctx.space(defn["space"])
            pts = [ctx.point(space, p) for p in defn["points"]]
            return polyline(space, pts, bool(defn.get("constant_speed", True)))
        if kind == "segment":
            space = ctx.space(defn["space"])
            return segment(ctx.point(space, defn["start"]), ctx.point(space, defn["end"]))
        if kind == "circle-arc":
            return circle_arc(defn["center"], float(defn["radius"]),
                              float(defn.get("angle_start", 0.0)),
                              float(defn.get("angle_end", 2 * math.pi)))
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad curve definition: {exc}") from exc
    raise ConfigError(f"unknown curve kind {kind!r}")


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    return section


class RunContext:
    """Resolved configuration: named objects plus run-wide defaults.

    ``tol`` is the run's tolerance record.  ``structure`` is the sample config of
    geodesics, ranks and decompositions, which classify only gluings without a
    proven class by it: the default budget with ``tol``.
    A reference to a space, gluing or curve is its name or an inline definition.
    """

    def __init__(self, config: dict, seed=None, samples=None, depth=None,
                 tolerances: Tolerances | None = None):
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        if config.get("version") != 1:
            raise ConfigError("config needs 'version': 1")
        self.default_seed = 0 if seed is None else int(seed)
        self.default_samples = 10_000 if samples is None else int(samples)
        self.default_depth = 12 if depth is None else int(depth)
        self.tol = tolerances or Tolerances()
        self.structure = SampleConfig(tol=self.tol)
        self.phis = {name: build_phi(d) for name, d in _section(config, "phis").items()}
        self.spaces = {}
        for name, d in _section(config, "spaces").items():
            self.spaces[name] = self.space(d)
        self.curve_defs = _section(config, "curves")
        self.checks = config.get("checks", [])
        if not isinstance(self.checks, list):
            raise ConfigError("'checks' must be a list")

    @staticmethod
    def _named(kind: str, ref, named: dict):
        if not isinstance(ref, str):
            raise ConfigError(f"{kind} {ref!r} is neither a name nor an object")
        if ref not in named:
            raise ConfigError(f"unknown {kind} {ref!r}")
        return named[ref]

    def space(self, ref):
        if isinstance(ref, dict):
            return build_space(ref, self)
        return self._named("space", ref, self.spaces)

    def product(self, ref) -> ProductSpace:
        space = self.space(ref)
        if not isinstance(space, ProductSpace):
            raise ConfigError(f"space {ref!r} is not a product")
        return space

    def phi(self, ref) -> GluingFunction:
        return build_phi(ref) if isinstance(ref, dict) else self._named("phi", ref, self.phis)

    def curve(self, ref, space):
        """Curve ``ref`` to be measured in ``space``; a start that ``space`` refuses as its
        point, read through its JSON form, or a batch of another form is a config error."""
        defn = ref if isinstance(ref, dict) else self._named("curve", ref, self.curve_defs)
        curve = build_curve(defn, self)
        try:
            start = self.point(space, space.point_to_json(curve.at(0.0)))
            if batch_form(curve.at_many(np.zeros(1))) != batch_form(space.stack([start])):
                raise ValueError("its points are batched in another form")
        except (ValueError, TypeError) as exc:        # ConfigError is a ValueError
            raise ConfigError(f"curve {ref!r} does not lie in {space.name}: {exc}") from exc
        return curve

    @staticmethod
    def point(space, obj):
        """``obj`` read as a point of ``space``; a point the space refuses is a config error."""
        try:
            return space.point_from_json(obj)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad point {obj!r}: {exc}") from exc

    def sample_config(self, params: _Fields) -> SampleConfig:
        count = params.number("samples", self.default_samples, int)
        if count < 0:
            raise ConfigError(f"field 'samples' must be >= 0, got {count}")
        return SampleConfig(
            count=count,
            seed=params.number("seed", self.default_seed, int),
            radius=params.positive("radius", 10.0),
            tol=self.tol,
        )


# -- checks ------------------------------------------------------------------


class _Fields(dict):
    """A check's parameters: a missing field, or a number that is not finite, is a config error."""

    def __missing__(self, key):
        raise ConfigError(f"missing field {key!r}")

    def number(self, key: str, default=None, kind=float):
        """Field ``key`` as a finite ``kind`` (``float`` or ``int``), ``default`` if absent."""
        if key not in self:
            return default
        try:
            value = kind(self[key])
            if math.isfinite(value):
                return value
        except (TypeError, ValueError, OverflowError):     # int() of inf raises OverflowError
            pass
        raise ConfigError(f"field {key!r} must be a finite number, got {self[key]!r}")

    def positive(self, key: str, default, kind=float):
        """Field ``key`` as a finite ``kind`` > 0, ``default`` if absent."""
        value = self.number(key, default, kind)
        if not value > 0:
            raise ConfigError(f"field {key!r} must be > 0, got {value}")
        return value


def _expectation(record: dict, expect, observed) -> dict:
    if expect is not None:
        record["expected"] = expect
        record["observed"] = observed
        record["verdict"] = "pass" if observed == expect else "fail"
    return record


def _run_classify(ctx, params):
    phi = ctx.phi(params["phi"])
    result = phi.classification(ctx.sample_config(params))
    return {"check": "classify", "gluing": phi.label, "class": result.value,
            "conditions": {k: r.verdict for k, r in result.reports.items()},
            "verdict": PASS}


def _run_scalar_product_weights(ctx, params):
    weights = scalar_product_weights(ctx.phi(params["phi"]), ctx.sample_config(params))
    return {"check": "scalar-product-weights", "verdict": PASS,
            "weights": to_jsonable(weights)}


def _run_curve_length(ctx, params):
    space = ctx.space(params["space"])
    res = curve_length(space, ctx.curve(params["curve"], space),
                       params.number("depth", ctx.default_depth, int))
    record = {"check": "curve-length", "length": res.length, "trace": to_jsonable(res.trace),
              "diverged": res.diverged}
    sound = math.isfinite(res.length) and not res.diverged and res.trace_drop(ctx.tol)[1] == PASS
    ok = sound
    if "expect_length" in params:
        record["expected"] = params.number("expect_length")
        ok = ok and abs(res.length - record["expected"]) <= params.number("tolerance", 1e-6)
    record["verdict"] = PASS if ok else FAIL
    if sound and res.still_growing:
        record.update(verdict=UNDETERMINED, reason="trace not converged")
    return record


def _run_product_length(ctx, params):
    prod = ctx.product(params["product"])
    comps = [ctx.curve(c, f) for c, f in zip(params["components"], prod.factors, strict=True)]
    return product_curve_length_check(prod, comps, params.number("depth", ctx.default_depth, int),
                                      ctx.tol)


def _run_arclength(ctx, params):
    space = ctx.space(params["space"])
    return arclength_check(space, ctx.curve(params["curve"], space),
                           params.number("grid", 8, int), params.number("depth", 8, int),
                           ctx.tol)


def _geodesic_from_params(ctx, space, params):
    if not isinstance(params, dict):
        raise ConfigError("a geodesic is an object with 'start' and 'end'")
    params = _Fields(params)
    start = ctx.point(space, params["start"])
    end = ctx.point(space, params["end"])
    if "via" in params:
        if not isinstance(space, ProductSpace):
            raise ConfigError("'via' routes need a product space")
        return product_geodesic(space, start, end,
                                via=ctx.point(space, params["via"]), cfg=ctx.structure)
    return geodesic_between(space, start, end, params.get("selector", "affine"), ctx.structure)


def _run_geodesy(ctx, params):
    space = ctx.space(params["space"])
    geo = _geodesic_from_params(ctx, space, params)
    rec = geodesy_test(space, geo, params.number("grid", 64, int), ctx.structure).to_record()
    rec["midpoint"] = to_jsonable(space.point_to_json(geo.at(geo.length / 2.0)))
    return rec


def _run_component_progress(ctx, params):
    prod = ctx.product(params["space"])
    return component_progress_check(prod, _geodesic_from_params(ctx, prod, params),
                                    params.number("grid", 64, int), ctx.structure)


def _run_uniqueness(ctx, params):
    prod = ctx.product(params["product"])
    return uniqueness_probe(
        prod, ctx.point(prod, params["start"]), ctx.point(prod, params["end"]),
        grid=params.number("grid", 64, int), perturbations=params.number("perturbations", 64, int),
        seed=params.number("seed", ctx.default_seed, int), cfg=ctx.structure)


def _run_busemann(ctx, params):
    space = ctx.space(params["space"])
    g1 = _geodesic_from_params(ctx, space, params["g1"])
    g2 = _geodesic_from_params(ctx, space, params["g2"])
    return busemann_convexity_check(space, g1, g2, params.number("grid", 32, int),
                                    tau=params.number("tau"), cfg=ctx.structure)


def _run_cat0(ctx, params):
    space = ctx.space(params["space"])
    triangles = None
    if "triangles" in params:
        triangles = [tuple(ctx.point(space, p) for p in tri) for tri in params["triangles"]]
    return cat0_four_point_check(
        space, params.number("count", 1000, int), params.number("seed", ctx.default_seed, int),
        params.positive("radius", 5.0), triangles, ctx.structure)


def _run_embedding_oracle(ctx, params):
    space = ctx.space(params["space"])
    if "points" in params:
        points = [ctx.point(space, p) for p in params["points"]]
    else:
        sample = _Fields(_section(params, "sample"))
        points = space.sample_points(sample.positive("count", 32, int),
                                     sample.number("seed", ctx.default_seed, int),
                                     sample.positive("radius", 5.0))
    pattern = np.asarray(params["pattern"], float)
    probe = finite_embedding_oracle(pattern, points, space, tau=ctx.tol.embed)
    return dict(probe.to_record(), verdict=PASS)


def _run_non_length_space(ctx, params):
    ends = params.get("endpoints", [[0.0, 0.0], [1.0, 0.0]])
    if not isinstance(ends, list) or len(ends) != 2:
        raise ConfigError(f"'endpoints' must be a list of two points, got {ends!r}")
    paths = params.positive("paths", 5, int)
    plane = ProductSpace((RealLine(), RealLine()), GluingFunction.two_valued(2))
    return non_length_space_demo(
        params.number("depth", 8, int), [ctx.point(plane, e) for e in ends],
        paths, params.number("seed", ctx.default_seed, int))


def _rank_record(rank: RankRecord) -> dict:
    """A rank record with its verdict: ``fail`` when it gives a reason, else ``pass``."""
    return dict(rank.to_record(), verdict=PASS if rank.reason is None else FAIL)


def _builtin_embedding(name, prod: ProductSpace):
    """The embedding ``name`` names.  Its scale is measured at its first call, so after
    ``alpha_decompose`` refuses a gluing whose axis value may be 0."""
    n = len(prod.factors)
    if isinstance(name, str) and name.startswith("axis:"):
        index = name[len("axis:"):]
        if not (index.isdecimal() and int(index) < n):
            raise ConfigError(f"embedding {name!r} needs an index 0 <= i < {n}")
        i = int(index)
        scale = functools.cache(lambda: 1.0 / prod.phi.axis_values()[i])
        return lambda v: tuple(float(v[0]) * scale() if j == i else 0.0 for j in range(n))
    if name in ("diagonal", "diagonal-rescaled"):
        scale = functools.cache(lambda: 1.0 / float(prod.phi(np.ones(n)))
                                if name == "diagonal-rescaled" else 1.0)
        return lambda v: tuple(float(v[0]) * scale() for _ in range(n))
    raise ConfigError(f"unknown builtin embedding {name!r}")


def _run_alpha(ctx, params):
    prod = ctx.product(params["product"])
    embedding = _builtin_embedding(params.get("embedding", "axis:0"), prod)
    # the embedding's source is the real line: bases and vectors are its config points
    line = RealLine()
    vec_spec = params.get("vectors", {"linspace": [-3.0, 3.0, 13]})
    if isinstance(vec_spec, dict) and "linspace" in vec_spec:
        spec = vec_spec["linspace"]
        if not isinstance(spec, list) or len(spec) != 3:
            raise ConfigError(f"'linspace' must be [lo, hi, count], got {spec!r}")
        lin = _Fields(zip(("lo", "hi", "count"), spec))
        lo, hi, count = lin.number("lo"), lin.number("hi"), lin.number("count", kind=int)
        if count < 1:
            raise ConfigError(f"'linspace' count must be >= 1, got {count}")
        vectors = np.linspace(lo, hi, count)
    elif isinstance(vec_spec, list) and vec_spec:
        vectors = np.array([ctx.point(line, v) for v in vec_spec])
    else:
        raise ConfigError(f"'vectors' must be a nonempty list or a linspace, got {vec_spec!r}")
    _, reps = alpha_decompose(embedding, prod, ctx.point(line, params.get("base_a", 0.0)),
                              ctx.point(line, params.get("base_b", 1.0)), vectors,
                              cfg=ctx.structure)
    # ``isometric`` expects the alpha-isometry record to pass, ``non-isometric`` to fail
    expect = {"isometric": PASS, "non-isometric": FAIL}.get(params.get("expect"))
    return [_expectation(rep.to_record(), expect, rep.verdict)
            if rep.condition == "alpha-isometry" else rep.to_record() for rep in reps]


#: Check name -> runner(ctx, params), returning a report, a record or a list of either.
#: Entries reach library functions through module-level names.
CHECK_RUNNERS = {
    "classify": _run_classify,
    "definiteness": lambda ctx, p: check_definiteness(ctx.phi(p["phi"]), ctx.sample_config(p)),
    "quadrant-triangle": lambda ctx, p: check_quadrant_triangle(ctx.phi(p["phi"]),
                                                                ctx.sample_config(p)),
    "axis-pythagoras": lambda ctx, p: check_axis_pythagoras(ctx.phi(p["phi"]),
                                                            ctx.sample_config(p)),
    "strict-convexity": lambda ctx, p: check_strict_convexity(ctx.phi(p["phi"]),
                                                              ctx.sample_config(p)),
    "norm-conditions": lambda ctx, p: check_norm_conditions(ctx.phi(p["phi"]),
                                                            ctx.sample_config(p)),
    "psi-norm-axioms": lambda ctx, p: check_symmetrized_norm_axioms(ctx.phi(p["phi"]),
                                                                    ctx.sample_config(p)),
    "scalar-product-weights": _run_scalar_product_weights,
    "metric-axioms": lambda ctx, p: verify_metric_axioms(ctx.product(p["product"]),
                                                         ctx.sample_config(p)),
    "curve-length": _run_curve_length,
    "product-curve-length": _run_product_length,
    "arclength": _run_arclength,
    "non-length-space": _run_non_length_space,
    "geodesy": _run_geodesy,
    "component-progress": _run_component_progress,
    "unique-geodesic": _run_uniqueness,
    "busemann-convexity": _run_busemann,
    "cat0-four-point": _run_cat0,
    "declared-rank": lambda ctx, p: _rank_record(declared_rank(ctx.space(p["space"]))),
    "product-rank": lambda ctx, p: _rank_record(product_rank(ctx.product(p["space"]),
                                                             ctx.structure)),
    "rank-counterexample": lambda ctx, p: counterexample_sum_halflines(
        p.number("T", 10.0), p.number("grid", 101, int)),
    "embedding-oracle": _run_embedding_oracle,
    "alpha-decomposition": _run_alpha,
}

#: Checks whose ``expect`` is not a verdict: the words each can observe, and its
#: reading of a record (alpha compares its own alpha-isometry record).
_READINGS = {
    "classify": (tuple(c.value for c in GluingClass), lambda rec: rec["class"]),
    "unique-geodesic": (("unique", "non-unique"),
                        lambda rec: "unique" if rec["verdict"] == PASS else "non-unique"),
    "embedding-oracle": (("found", "none"), lambda rec: "found" if rec["found"] else "none"),
    "alpha-decomposition": (("isometric", "non-isometric"), None),
}
_VERDICTS = ((PASS, FAIL, UNDETERMINED), lambda rec: rec["verdict"])
#: The other expectation keys and the checks that read them, each in place of ``expect``.
_KEYED = {"expect_rank": ("declared-rank", "product-rank"), "expect_length": ("curve-length",)}


def _reading(name: str, params: dict):
    """The reading that ``expect`` is compared with; a word the check cannot observe
    is a config error."""
    for key, checks in _KEYED.items():
        if key in params and (name not in checks or "expect" in params):
            raise ConfigError(f"{key!r} applies to {', '.join(checks)} only, not with 'expect'")
    if "expect" not in params:
        return None
    words, reading = _READINGS.get(name, _VERDICTS)
    if params["expect"] not in words:
        raise ConfigError(f"'expect' must be one of {', '.join(words)}, "
                          f"got {params['expect']!r}")
    return reading


def _records(out) -> list[dict]:
    return [r if isinstance(r, dict) else r.to_record()
            for r in (out if isinstance(out, list) else [out])]


def run_checks(ctx: RunContext) -> tuple[list[dict], int]:
    records = []
    exit_code = EXIT_OK
    for i, params in enumerate(ctx.checks):
        if not isinstance(params, dict) or "check" not in params:
            raise ConfigError(f"check #{i} needs a 'check' field")
        name = params["check"]
        if not isinstance(name, str) or name not in CHECK_RUNNERS:
            raise ConfigError(f"unknown check {name!r}")
        try:
            reading = _reading(name, params)
            recs = _records(CHECK_RUNNERS[name](ctx, _Fields(params)))
        except ConfigError as exc:
            raise ConfigError(f"check #{i} ({name}): {exc}") from exc
        except ValueError as exc:
            recs = [{"check": name, "verdict": FAIL, "error": str(exc)}]
        else:
            for rec in recs:
                if reading:
                    _expectation(rec, params["expect"], reading(rec))
                if "expect_rank" in params:
                    rec["expected"] = params["expect_rank"]
                    rec["verdict"] = PASS if rec["rank"] == params["expect_rank"] else FAIL
        informational = bool(params.get("informational", False))
        for rec in recs:
            rec["id"] = len(records)
            if "name" in params:
                rec["name"] = params["name"]
            rec["informational"] = informational
            if not informational and rec.get("verdict") != "pass":
                exit_code = EXIT_CHECK_FAILED
            records.append(rec)
    return records, exit_code


def emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(to_jsonable(rec), sort_keys=True) + "\n")
        return
    for rec in records:
        label = rec.get("name") or rec.get("check", "?")
        verdict = rec.get("verdict", "-")
        margin = rec.get("margin")
        extra = "" if margin is None else f" margin={margin:.6g}"
        if "class" in rec:
            extra += f" class={rec['class']}"
        if "rank" in rec:
            extra += f" rank={rec['rank']} ({rec.get('provenance')})"
        info = " (informational)" if rec.get("informational") else ""
        out.write(f"{verdict.upper():12s} {label}{extra}{info}\n")


# -- built-in demos ------------------------------------------------------------


_PLANE_SUM = {"type": "product", "factors": [{"type": "real-line"}, {"type": "real-line"}],
              "phi": {"type": "sum", "dim": 2}}

#: The built-in demos, in listing order: name -> check(depth, seed).
DEMOS = {
    "counterexample": lambda depth, seed: {
        "check": "rank-counterexample", "T": 10.0, "grid": 101, "expect": "pass"},
    "non-length-space": lambda depth, seed: {
        "check": "non-length-space", "depth": depth, "seed": seed, "expect": "pass"},
    "L1-non-uniqueness": lambda depth, seed: {
        "check": "unique-geodesic", "product": "plane", "start": [0, 0], "end": [1, 1],
        "seed": seed, "expect": "non-unique"},
    "CAT0-failure": lambda depth, seed: {
        "check": "cat0-four-point", "space": "plane",
        "triangles": [[[0, 0], [2, 0], [0, 2]]], "expect": "fail"},
}


def _list_demos() -> int:
    sys.stdout.write("".join(name + "\n" for name in DEMOS))
    return EXIT_OK


def _demo_config(name: str, depth: int, seed: int) -> dict:
    if name not in DEMOS:
        raise ConfigError(f"unknown demo {name!r}; available: {', '.join(sorted(DEMOS))}")
    return {"version": 1, "spaces": {"plane": _PLANE_SUM},
            "checks": [dict(DEMOS[name](depth, seed), name=name)]}


# -- argument parsing ----------------------------------------------------------


def _parse_tolerances(items) -> Tolerances:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--tolerance expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        if key not in ("metric", "strict", "embed"):
            raise ConfigError(f"unknown tolerance key {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {val!r}") from exc
        if not MACHINE_EPS <= out[key] < math.inf:
            raise ConfigError(f"tolerance {key} must be finite and >= machine epsilon")
    return Tolerances(**out)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _json_point(option: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{option} is not valid JSON: {exc}") from exc


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--tolerance", action="append", metavar="KEY=VAL",
                        help="override a tolerance (metric, strict, embed)")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricprod",
        description="Glued metric products: classification and verification checks.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-demos", action="store_true",
                        help="list built-in demo names and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="run every check in a config file")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("validate-phi", help="classification ladder for one gluing")
    p.add_argument("--config")
    p.add_argument("--phi", help="name in the config, or inline JSON")
    p.add_argument("--kind", help="builtin kind (sum, max, two-valued, ...)")
    p.add_argument("--dim", type=int, help="default: the number of --weights, else 2")
    p.add_argument("--p", type=float)
    p.add_argument("--weights", help="comma-separated positive weights")
    _add_common(p)

    p = sub.add_parser("check-product", help="metric axioms of a product space")
    p.add_argument("config")
    p.add_argument("--product", required=True)
    _add_common(p)

    p = sub.add_parser("length", help="dyadic length of a named curve")
    p.add_argument("config")
    p.add_argument("--curve", required=True)
    p.add_argument("--space", required=True)
    _add_common(p)

    p = sub.add_parser("geodesic", help="construct a geodesic and test geodesy")
    p.add_argument("config")
    p.add_argument("--space", required=True)
    p.add_argument("--start", required=True, help="point as JSON")
    p.add_argument("--end", required=True, help="point as JSON")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--selector", default="affine")
    _add_common(p)

    p = sub.add_parser("rank", help="rank record for a named space")
    p.add_argument("config")
    p.add_argument("--space", required=True)
    _add_common(p)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("demo_name", nargs="?")
    p.add_argument("--list", action="store_true")
    _add_common(p)
    return parser


def _validate_phi_config(args) -> dict:
    if args.kind:
        defn = {"type": args.kind, "dim": 2 if args.dim is None and not args.weights else args.dim}
        if args.p is not None:
            defn["p"] = args.p
        if args.weights:
            try:
                defn["weights"] = [float(w) for w in args.weights.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--weights expects numbers, got {args.weights!r}") from exc
    elif args.config and args.phi:
        try:
            defn = json.loads(args.phi)
        except json.JSONDecodeError:
            defn = args.phi
    else:
        raise ConfigError("validate-phi needs --kind or --config with --phi")
    config = {"version": 1,
              "checks": [{"check": "classify", "phi": defn},
                         {"check": "definiteness", "phi": defn},
                         {"check": "quadrant-triangle", "phi": defn},
                         {"check": "norm-conditions", "phi": defn},
                         {"check": "strict-convexity", "phi": defn},
                         {"check": "axis-pythagoras", "phi": defn}]}
    if args.config:
        base = _load_config(args.config)
        config["phis"] = base.get("phis", {})
    for chk in config["checks"][1:]:
        chk["informational"] = True
    return config


def _rank_check(args, config) -> dict:
    space_def = _section(config, "spaces").get(args.space)
    check = "product-rank" if isinstance(space_def, dict) and \
        space_def.get("type") == "product" else "declared-rank"
    return {"check": check, "space": args.space}


#: Subcommands that run one check against the objects of a config file.
_ONE_CHECK = {
    "check-product": lambda args, config: {"check": "metric-axioms", "product": args.product},
    "length": lambda args, config: {"check": "curve-length", "space": args.space,
                                    "curve": args.curve},
    "geodesic": lambda args, config: {"check": "geodesy", "space": args.space,
                                      "start": _json_point("--start", args.start),
                                      "end": _json_point("--end", args.end),
                                      "grid": args.grid, "selector": args.selector},
    "rank": _rank_check,
}


def _command_config(args) -> dict:
    """The config a subcommand runs."""
    if args.command == "validate-phi":
        return _validate_phi_config(args)
    if args.command == "demo":
        return _demo_config(args.demo_name, 8 if args.depth is None else args.depth,
                            0 if args.seed is None else args.seed)
    config = _load_config(args.config)
    if args.command in _ONE_CHECK:
        config["checks"] = [_ONE_CHECK[args.command](args, config)]
    return config


def _dispatch(args) -> int:
    tolerances = _parse_tolerances(args.tolerance)
    if args.command == "demo" and (args.list or not args.demo_name):
        return _list_demos()
    ctx = RunContext(_command_config(args), seed=args.seed, samples=args.samples,
                     depth=args.depth, tolerances=tolerances)
    records, code = run_checks(ctx)
    emit(records, args.format, sys.stdout)
    return code


def main(argv=None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` by default) and return its exit code.

    It may be called many times in one process: the parser is built on the first call
    and reused, and each call parses into a fresh namespace.  A reader that closes
    stdout early (``| head -1``) ends the run with ``EXIT_PIPE_CLOSED`` and no traceback.
    """
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.list_demos:
        return _list_demos()
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return _dispatch(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except BrokenPipeError:
        # stdout's buffer still holds records: send them to devnull, so that the flush
        # at exit does not raise again ("Note on SIGPIPE" in the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED


if __name__ == "__main__":
    sys.exit(main())
