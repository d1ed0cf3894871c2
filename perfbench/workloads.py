"""Seeded generator of ``metricprod run`` configs for the benchmark workloads.

Job ``i`` of a workload is a pure function of ``(workload, seed, i)``.  The
job's *shape* (which checks run, at which sizes and dimensions) repeats
every ``CYCLE[workload]`` jobs and does not depend on the seed; the seed
only picks weights, points and sample seeds.  Timing statistics are taken
over whole cycles, so every run measures the same mix of work without two
jobs being identical.

Each job carries the verdicts the paper predicts for some of its records
(see ``Job.expect``).  They are kept here rather than as config ``expect``
keys because ``metric-axioms`` would apply one config ``expect`` to all
three of its records alike.  Only facts the paper fixes are stored: the
classification ladder of each gluing, uniqueness of geodesics iff the
gluing is strictly convex over uniquely geodesic factors, the flat
four-point comparison under the Euclidean gluing (and its failure on the
taxicab corner triangle), the metric axioms iff the gluing is
metric-compatible, and the outcome the built-in demos assert.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("paths", "bulk")
CYCLE = {"paths": 48, "bulk": 40}
# job indices run once, untimed, before a workload's timed jobs
WARMUP = {"paths": (0,), "bulk": (0, 3)}

INF = math.inf


@dataclass
class Job:
    """One config plus the record verdicts it is checked against.

    ``expect`` holds ``(name, record_check, field, value, known)``: the
    record whose ``name`` and ``check`` match must carry ``value`` in
    ``field``.  ``known`` marks a prediction this commit is known to miss
    (see ``KNOWN_MISSES``); a miss there is still counted as a failed record.
    """

    config: dict
    expect: list = field(default_factory=list)

    @property
    def checks(self) -> list:
        return [c["check"] for c in self.config["checks"]]


def job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _GENERATORS[workload](rng, index)


def warmup(workload: str) -> list:
    """Small fixed jobs that load the workload's code paths once: on
    ``bulk`` one classification-ladder job and one metric-axioms job."""
    return [job(workload, -1, i) for i in WARMUP[workload]]


# -- gluings and their ladder ---------------------------------------------------

# (type, p) variants used by ``bulk``; ``p`` only for weighted-lp
GLUING_VARIANTS = (
    ("weighted-lp", 1.0), ("weighted-lp", 1.5), ("weighted-lp", 3.0),
    ("weighted-lp", INF), ("weighted-euclidean", 2.0), ("sum", 1.0),
    ("max", INF), ("two-valued", None), ("coordinate-power", None),
)


def _weights(rng, dim):
    return [round(rng.uniform(0.25, 4.0), 6) for _ in range(dim)]


def gluing(rng, variant, dim, exponent=None, coordinate=0) -> dict:
    kind, p = variant
    if kind == "weighted-lp":
        return {"type": kind, "p": "inf" if p == INF else p, "weights": _weights(rng, dim)}
    if kind == "weighted-euclidean":
        return {"type": kind, "weights": _weights(rng, dim)}
    if kind == "coordinate-power":
        return {"type": kind, "dim": dim, "exponent": exponent,
                "coordinate": coordinate}
    return {"type": kind, "dim": dim}


def ladder_verdicts(defn: dict) -> dict:
    """Record check -> predicted verdict, plus the class, for a gluing of dim >= 2.

    Norm-type gluings (weighted-lp, sum, max, weighted-euclidean) satisfy
    every norm condition; strict convexity holds iff 1 < p < oo and the
    axis Pythagoras identity iff p = 2.  The two-valued gluing is a metric
    but not homogeneous.  ``q[c]^e`` vanishes off its axis, so it is never
    definite; it is subadditive (and satisfies the triangle condition) iff
    e <= 1, never homogeneous for e != 1, and trivially splits along axes.
    """
    kind = defn["type"]
    if kind in ("weighted-lp", "weighted-euclidean", "sum", "max"):
        p = {"sum": 1.0, "max": INF, "weighted-euclidean": 2.0}.get(kind)
        if p is None:
            p = INF if defn["p"] == "inf" else float(defn["p"])
        strict = 1.0 < p < INF
        euclid = p == 2.0
        v = dict.fromkeys(("definiteness", "quadrant-triangle", "positivity",
                           "monotonicity", "subadditivity", "homogeneity",
                           "psi-positivity", "psi-homogeneity",
                           "psi-subadditivity"), "pass")
        v["strict-convexity"] = "pass" if strict else "fail"
        v["axis-pythagoras"] = "pass" if euclid else "fail"
        v["scalar-product-weights"] = "pass" if euclid else "fail"
        v["class"] = ("scalar-product-induced" if euclid else
                      "strictly-convex-norm" if strict else "norm-induced")
        return v
    if kind == "two-valued":
        v = dict.fromkeys(("definiteness", "quadrant-triangle", "positivity",
                           "monotonicity", "subadditivity", "psi-positivity",
                           "psi-subadditivity"), "pass")
        v.update({"homogeneity": "fail", "psi-homogeneity": "fail",
                  "strict-convexity": "undetermined", "axis-pythagoras": "fail",
                  "scalar-product-weights": "fail", "class": "metric-compatible"})
        return v
    if kind == "coordinate-power":
        sub = "pass" if defn["exponent"] <= 1.0 else "fail"
        return {"definiteness": "fail", "quadrant-triangle": sub,
                "positivity": "fail", "monotonicity": "pass",
                "subadditivity": sub, "homogeneity": "fail",
                "psi-positivity": "fail", "psi-homogeneity": "fail",
                "psi-subadditivity": sub, "strict-convexity": "undetermined",
                "axis-pythagoras": "pass", "scalar-product-weights": "fail",
                "class": "not-a-metric-product"}
    raise ValueError(f"no ladder prediction for {kind!r}")


# (gluing type, record check) whose paper prediction the sampled check can
# miss.  psi = |x[c]|^e vanishes on the hyperplane x[c] = 0, so psi-positivity
# must fail; ``check_symmetrized_norm_axioms`` draws only uniform signed
# samples, with no corner block, so it fails only when some sampled value
# happens to fall below the tolerance (never for e = 0.5, often for e = 3).
KNOWN_MISSES = {("coordinate-power", "psi-positivity")}

# record checks each ladder check emits
LADDER_RECORDS = {
    "classify": ("classify",),
    "definiteness": ("definiteness",),
    "quadrant-triangle": ("quadrant-triangle",),
    "norm-conditions": ("positivity", "monotonicity", "subadditivity", "homogeneity"),
    "strict-convexity": ("strict-convexity",),
    "axis-pythagoras": ("axis-pythagoras",),
    "psi-norm-axioms": ("psi-positivity", "psi-homogeneity", "psi-subadditivity"),
    "scalar-product-weights": ("scalar-product-weights",),
}
LADDER_CHECKS = tuple(LADDER_RECORDS)


# -- bulk: classification-ladder jobs --------------------------------------------

LADDER_SAMPLES = (10_000, 20_000, 30_000, 50_000)
_LADDER_FIRST = (0, 2, 5)     # first gluing number of jobs 3k, 3k+1, 3k+2


def _ladder(rng, i):
    """Ladder job ``i``: 2-4 fresh gluings, one ladder check on each, two on
    the first.

    Gluing number ``g`` (counted over all ladder jobs) fixes the variant,
    the dimension and the check, so each three-job block covers all nine
    variants, each 72 gluings (24 jobs) every variant/check pairing, and
    the job shapes repeat every 24 ladder jobs.  Every check draws its own sample
    seed, so no (gluing, samples) pair recurs across jobs.
    """
    count = 2 + i % 3
    first = 9 * (i // 3) + _LADDER_FIRST[i % 3]
    samples = LADDER_SAMPLES[(i // 3) % len(LADDER_SAMPLES)]
    phis, checks, expect = {}, [], []
    for g in range(first, first + count):
        name = f"g{g}"
        dim = 2 + g % 72 % 5
        exponent = (0.5, 2.0, 3.0)[g // 9 % 8 % 3]
        defn = gluing(rng, GLUING_VARIANTS[g % len(GLUING_VARIANTS)], dim, exponent, g % 72 % dim)
        phis[name] = defn
        verdicts = ladder_verdicts(defn)
        picks = [g % 8, (g + 4) % 8] if g == first else [g % 8]
        for check in (LADDER_CHECKS[k] for k in picks):
            label = f"{name}:{check}"
            checks.append({"check": check, "phi": name, "samples": samples,
                           "seed": rng.randrange(2**31), "name": label})
            for rec in LADDER_RECORDS[check]:
                known = (defn["type"], rec) in KNOWN_MISSES
                if rec == "classify":
                    expect.append((label, rec, "class", verdicts["class"], known))
                else:
                    expect.append((label, rec, "verdict", verdicts[rec], known))
    return Job({"version": 1, "phis": phis, "checks": checks}, expect)


# -- paths --------------------------------------------------------------------

# small fixed pool of catalog gluings shared by all paths jobs
PATH_GLUINGS = {
    "E2": {"type": "weighted-euclidean", "weights": [1.0, 1.0]},
    "E3": {"type": "weighted-euclidean", "weights": [1.0, 2.0, 1.0]},
    "T2": {"type": "sum", "dim": 2},
    "T3": {"type": "sum", "dim": 3},
    "L2": {"type": "weighted-lp", "p": 1.5, "weights": [1.0, 1.0]},
    "L3": {"type": "weighted-lp", "p": 3.0, "weights": [1.0, 1.0, 2.0]},
}
_FLAT = ("E2", "E3")
_TAXI = ("T2", "T3")
_STRICT = ("E2", "E3", "L2", "L3")

DEMOS = {
    "counterexample": {"check": "rank-counterexample", "T": 10.0, "grid": 101,
                       "expect": "pass"},
    "non-length-space": {"check": "non-length-space", "depth": 8, "seed": 0,
                         "expect": "pass"},
    "L1-non-uniqueness": {"check": "unique-geodesic", "product": "demo-plane",
                          "start": [0, 0], "end": [1, 1], "seed": 0,
                          "expect": "non-unique"},
    "CAT0-failure": {"check": "cat0-four-point", "space": "demo-plane",
                     "triangles": [[[0, 0], [2, 0], [0, 2]]], "expect": "fail"},
}
DEMO_RECORD = {"counterexample": "rank-counterexample",
               "non-length-space": "non-length-space-demo",
               "L1-non-uniqueness": "unique-geodesic",
               "CAT0-failure": "cat0-four-point"}

BUSEMANN_GRIDS = (16, 32, 48, 64)
CAT0_COUNTS = (100, 150, 200, 250)


FACTOR_KINDS = ("real-line", "half-line", "lp")


def _path_factor(rng, kind, euclidean, p):
    """Factor definition and a point generator for it."""
    if kind == "lp":
        p = 2.0 if euclidean else p
        return ({"type": "lp", "dim": 2, "p": p},
                lambda: [round(rng.uniform(-5, 5), 6) for _ in range(2)])
    if kind == "half-line":
        return {"type": "half-line"}, lambda: round(rng.uniform(0.0, 5.0), 6)
    return {"type": "real-line"}, lambda: round(rng.uniform(-5, 5), 6)


def _path_product(rng, phi, cfg, i):
    """Declare factors f0.. and product P glued by pool gluing ``phi``."""
    n = PATH_GLUINGS[phi]["dim"] if "dim" in PATH_GLUINGS[phi] else \
        len(PATH_GLUINGS[phi]["weights"])
    draws = []
    for k in range(n):
        kind = FACTOR_KINDS[(i + k) % 3]
        defn, draw = _path_factor(rng, kind, phi in _FLAT, (1.5, 2.0, 3.0)[(i // 4 + k) % 3])
        cfg["spaces"][f"f{k}"] = defn
        draws.append(draw)
    cfg["phis"][phi] = PATH_GLUINGS[phi]
    cfg["spaces"]["P"] = {"type": "product",
                          "factors": [f"f{k}" for k in range(n)], "phi": phi}
    return lambda: [d() for d in draws]


def _segment_components(cfg, rng, point, i):
    """One constant-speed component curve per factor of P."""
    a, b = point(), point()
    names = []
    for k, (x, y) in enumerate(zip(a, b)):
        space = cfg["spaces"][f"f{k}"]
        if space["type"] == "lp" and space["p"] == 2.0 and (i // 4 + k) % 2:
            curve = {"kind": "circle-arc", "center": x, "radius": round(rng.uniform(0.5, 3), 6),
                     "angle_start": 0.0, "angle_end": round(rng.uniform(1.0, 6.0), 6)}
        else:
            curve = {"kind": "segment", "space": f"f{k}", "start": x, "end": y}
        cfg["curves"][f"c{k}"] = curve
        names.append(f"c{k}")
    return names


def _paths(rng, i):
    """Scalar and small-batch work on 2-3 factor products.

    Template ``i % 4`` picks the check group and ``(i // 4) % 4`` the size
    level; in the first and third groups the pool gluing also rotates with
    ``i // 16``, so each meets all six gluings within 48 jobs.
    """
    template, level, turn = i % 4, (i // 4) % 4, i // 16
    cfg = {"version": 1, "phis": {}, "spaces": {}, "curves": {}, "checks": []}
    checks, expect = cfg["checks"], []

    def add(check, **params):
        label = f"k{len(checks)}"
        checks.append({"check": check, "name": label, **params})
        return label

    if template == 0:       # geodesics: construction, geodesy, uniqueness, Busemann
        phi = (_STRICT + _TAXI)[(2 * turn + level) % 6]
        point = _path_product(rng, phi, cfg, i)
        a, b = point(), point()
        add("geodesy", space="P", start=a, end=b, grid=32 + 32 * (level % 2))
        add("component-progress", space="P", start=a, end=b)
        label = add("unique-geodesic", product="P", start=a, end=b,
                    seed=rng.randrange(2**31))
        expect.append((label, "unique-geodesic", "verdict",
                       "fail" if phi in _TAXI else "pass", False))
        add("busemann-convexity", space="P", grid=BUSEMANN_GRIDS[level],
            g1={"start": point(), "end": point()},
            g2={"start": point(), "end": point()})
    elif template == 1:     # flat comparison and product length
        flat = level % 2 == 0
        phi = (_FLAT if flat else _TAXI)[level // 2]
        point = _path_product(rng, phi, cfg, i)
        if flat:
            label = add("cat0-four-point", space="P", count=CAT0_COUNTS[level],
                        seed=rng.randrange(2**31), radius=5.0)
        else:
            triangles = []
            for _ in range(1 + level):
                base = point()
                s = round(rng.uniform(0.5, 3.0), 6)
                q, r = list(base), list(base)
                q[0], r[1] = _shift(base[0], s), _shift(base[1], s)
                triangles.append([base, q, r])
            label = add("cat0-four-point", space="P", triangles=triangles)
        expect.append((label, "cat0-four-point", "verdict", "pass" if flat else "fail",
                       False))
        add("product-curve-length", product="P",
            components=_segment_components(cfg, rng, point, i), depth=10 + level % 3)
    elif template == 2:     # curve lengths: dyadic, arclength, polyline in P
        phi = (_STRICT + _TAXI)[(2 * turn + level + 3) % 6]
        point = _path_product(rng, phi, cfg, i)
        cfg["curves"]["poly"] = {"kind": "polyline", "space": "P",
                                 "points": [point() for _ in range(3 + level)]}
        add("arclength", space="P", curve="poly", grid=6 + level, depth=8)
        add("curve-length", space="P", curve="poly", depth=10 + level)
        add("product-curve-length", product="P",
            components=_segment_components(cfg, rng, point, i))
        add("geodesy", space="P", start=point(), end=point(), grid=48)
    else:                   # built-in demos, the non-length space, taxicab uniqueness
        demo = tuple(DEMOS)[level]
        cfg["spaces"]["demo-plane"] = {
            "type": "product", "factors": [{"type": "real-line"}] * 2,
            "phi": {"type": "sum", "dim": 2}}
        label = add(**DEMOS[demo])
        expect.append((label, DEMO_RECORD[demo], "verdict", "pass", False))
        x0 = round(rng.uniform(-2, 0), 6)
        label = add("non-length-space", depth=6 + level, paths=3 + level,
                    seed=rng.randrange(2**31),
                    endpoints=[[x0, 0.0], [round(x0 + rng.uniform(0.5, 3), 6), 1.0]])
        expect.append((label, "non-length-space-demo", "verdict", "pass", False))
        phi = _TAXI[level % 2]
        point = _path_product(rng, phi, cfg, i)
        label = add("unique-geodesic", product="P", start=point(), end=point(),
                    perturbations=16 * (1 + level), seed=rng.randrange(2**31))
        expect.append((label, "unique-geodesic", "verdict", "fail", False))
    return Job(cfg, expect)


def _shift(x, s):
    """Move a factor point by ``s`` along its first coordinate, away from 0
    so that half-line points stay valid."""
    if isinstance(x, list):
        return [_shift(x[0], s)] + x[1:]
    return round(x + s, 6) if x >= 0 else round(x - s, 6)


# -- bulk: metric-axioms and rank jobs ---------------------------------------------

AXIOM_SAMPLES = (50_000, 100_000, 150_000, 200_000)
FINITE_SIZES = (50, 100, 150, 200)
EMBED_TARGETS = (16, 32, 48, 64)
AXIOM_RECORDS = ("identity-of-indiscernibles", "symmetry", "triangle-inequality")


LP_PS = (1.0, 1.5, 2.0, 3.0, "inf")


def _lp_factor(i, k, dim=None):
    """Factor ``k`` of job ``i``: dimension and exponent cycle with the index."""
    return {"type": "lp", "dim": dim or 1 + (7 * k + i) % 8, "p": LP_PS[(i % 16 + 2 * k) % 5]}


def _finite(rng, n):
    """Distance matrix of ``n`` random points in the plane (a metric)."""
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    m = [[0.0] * n for _ in range(n)]
    for a in range(n):
        xa, ya = pts[a]
        for b in range(a + 1, n):
            d = math.hypot(xa - pts[b][0], ya - pts[b][1]) + 0.01
            m[a][b] = m[b][a] = d
    return {"type": "finite", "matrix": m}


def _bulk_gluing(rng, g, dim):
    """Gluing number ``g`` for a metric-axioms job; the last variant is
    ``q[0]^2``, which is not metric-compatible."""
    variant = GLUING_VARIANTS[g % len(GLUING_VARIANTS)]
    return gluing(rng, variant, dim, exponent=2.0)


def _batch(rng, i):
    """Batch job ``i``: metric axioms, finite matrices, nested products,
    and the rank and embedding records.

    Template ``i % 4`` picks the group and ``(i // 4) % 4`` the size level.
    Inner gluings of nested products are metric-compatible.  Factor 0 of
    every metric-axioms product is continuous, so under ``q[0]^2`` the
    sampled triangle inequality fails.
    """
    template, level = i % 4, (i // 4) % 4
    cfg = {"version": 1, "phis": {}, "spaces": {}, "checks": []}
    expect = []
    if template < 3:
        g = 3 * level + template
        if template == 0:       # flat product of lp factors
            factors = [_lp_factor(i, k) for k in range(2 + level % 3)]
        elif template == 1:     # discrete and explicit finite factors
            factors = [_lp_factor(i, 0), {"type": "discrete", "points": 10 + 10 * level},
                       _finite(rng, FINITE_SIZES[level])]
        else:                   # products nested 2-3 deep
            inner = {"type": "product", "factors": [_lp_factor(i, 0), {"type": "real-line"}],
                     "phi": gluing(rng, GLUING_VARIANTS[(g + 4) % 8], 2)}
            if level % 2:
                inner = {"type": "product", "factors": [inner, _lp_factor(i, 1, 2)],
                         "phi": gluing(rng, GLUING_VARIANTS[(g + 1) % 8], 2)}
            factors = [inner, _lp_factor(i, 2), {"type": "discrete", "points": 7}]
        phi = _bulk_gluing(rng, g, len(factors))
        cfg["spaces"]["P"] = {"type": "product", "factors": factors, "phi": phi}
        cfg["checks"].append({"check": "metric-axioms", "product": "P", "name": "axioms",
                              "samples": AXIOM_SAMPLES[level],
                              "seed": rng.randrange(2**31)})
        if phi["type"] == "coordinate-power":
            expect.append(("axioms", "triangle-inequality", "verdict", "fail", False))
        else:
            expect += [("axioms", rec, "verdict", "pass", False) for rec in AXIOM_RECORDS]
        return Job(cfg, expect)

    m = EMBED_TARGETS[level]
    k = 5 + level
    phi = gluing(rng, GLUING_VARIANTS[(1, 2, 4)[level % 3]], 2)
    cfg["phis"]["S"] = phi
    cfg["spaces"] = {
        "R": {"type": "real-line"},
        "L": {"type": "lp", "dim": 2 + level % 3, "p": (1.0, 2.0, "inf")[level % 3]},
        "F": _finite(rng, 20),
        "P": {"type": "product", "factors": ["R", "R"], "phi": "S"},
        "N": {"type": "product", "factors": ["P", "L"], "phi": {"type": "sum", "dim": 2}},
    }
    offset = rng.randint(0, 100)
    targets = [offset + j for j in range(m)]
    rng.shuffle(targets)
    chosen = sorted(rng.sample(range(m), k))
    line = [[abs(a - b) for b in chosen] for a in chosen]
    noise = [[0.0 if a == b else round(rng.uniform(1.0, 2.0), 6) for b in range(k)]
             for a in range(k)]
    for a in range(k):
        for b in range(a):
            noise[a][b] = noise[b][a]
    cfg["checks"] = [
        {"check": "embedding-oracle", "space": "R", "points": targets, "pattern": line},
        {"check": "embedding-oracle", "space": "L", "pattern": noise,
         "sample": {"count": m, "seed": rng.randrange(2**31), "radius": 5.0}},
        {"check": "rank-counterexample", "T": round(rng.uniform(1, 20), 6),
         "grid": 101 + 50 * level},
        {"check": "declared-rank", "space": "L"},
        {"check": "declared-rank", "space": "F"},
        {"check": "product-rank", "space": "N"},
        {"check": "alpha-decomposition", "product": "P",
         "embedding": ("axis:0", "axis:1", "diagonal-rescaled")[level % 3],
         "vectors": {"linspace": [-3.0, 3.0, 9 + 4 * level]}},
    ]
    return Job(cfg, expect)


def _bulk(rng, i):
    """Large-batch work in units of five jobs: three ladder jobs, then two
    batch jobs.  Eight units hold one cycle of each (24 ladder and 16 batch
    job shapes), so the shapes repeat every 40 jobs."""
    unit, k = divmod(i, 5)
    return _ladder(rng, 3 * unit + k) if k < 3 else _batch(rng, 2 * unit + k - 3)


_GENERATORS = {"paths": _paths, "bulk": _bulk}
