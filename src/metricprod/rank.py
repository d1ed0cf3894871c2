"""Minkowski-rank bookkeeping for factors and glued products.

Rank values for catalog spaces are declared metadata, never computed: the
rank is a supremum over all normed spaces and is not computable in
general.  Product ranks add exactly when the gluing is at least
strictly-convex-norm class; at norm-induced only the superadditive lower
bound is reported, and the sum-of-half-lines construction below shows why
the strictness hypothesis cannot be dropped.  Below norm-induced the sum
of the factor ranks bounds nothing, so no rank is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gluing import GluingClass, GluingFunction, judge
from .geodesics import Geodesic
from .product import ProductSpace
from .reports import Tolerances, ValidationReport, worst
from .sampling import DEFAULT_SAMPLES, SampleConfig
from .spaces import CATALOG_NOTE, FiniteMetricSpace, HalfLine, MetricSpace

class BudgetExceededError(RuntimeError):
    """Exhaustive search budget exceeded."""


@dataclass
class RankRecord:
    """Rank of a space together with where the value came from."""

    space: str
    rank: int | None
    #: declared | strict-norm-additivity | superadditive-lower-bound, or the gluing
    #: class below norm-induced that licenses no rank
    provenance: str
    additivity_guaranteed: bool = True
    notes: tuple = ()
    #: why the record fails (a product that is not a metric space); ``None`` when it holds
    reason: str | None = None

    def to_record(self) -> dict:
        rec = {
            "check": "rank",
            "space": self.space,
            "rank": self.rank,
            "provenance": self.provenance,
            "additivity_guaranteed": self.additivity_guaranteed,
            "notes": list(self.notes),
        }
        if self.reason is not None:
            rec["reason"] = self.reason
        return rec


def declared_rank(space: MetricSpace) -> RankRecord:
    """Rank from catalog metadata; unknown spaces stay unknown."""
    rank = space.properties.known_minkowski_rank
    notes = (CATALOG_NOTE,) if rank is not None else ("rank unknown for this space",)
    return RankRecord(space.name, rank, "declared", notes=notes)


def product_rank(prod: ProductSpace, cfg: SampleConfig = DEFAULT_SAMPLES) -> RankRecord:
    """Sum of factor ranks, exact or as a lower bound, as the gluing's class licenses.

    The class is :meth:`GluingFunction.gluing_class` (proven for weighted p-norms,
    sampled otherwise).  From strictly-convex-norm the sum is exact; at norm-induced
    it is the superadditive lower bound, since the factors' flats glue to a normed
    space.  Below norm-induced no rank is given and the provenance names the class;
    a product that is not a metric space, or has such a factor, fails with a reason.
    """
    parts = [product_rank(f, cfg) if isinstance(f, ProductSpace) else declared_rank(f)
             for f in prod.factors]
    label = "product(" + ", ".join(r.space for r in parts) + ")"
    cls = prod.phi.gluing_class(cfg)
    additive = cls.at_least(GluingClass.STRICTLY_CONVEX_NORM)
    if not cls.at_least(GluingClass.NORM_INDUCED):
        reason = (None if cls.at_least(GluingClass.METRIC_COMPATIBLE)
                  else "the gluing does not make the product a metric space")
        return RankRecord(label, None, cls.value, additive,
                          notes=(f"gluing class {cls.value} is below norm-induced: "
                                 "the sum of the factor ranks bounds nothing",), reason=reason)
    if any(r.rank is None for r in parts):
        reason = next((f"factor {r.space}: {r.reason}" for r in parts if r.reason), None)
        return RankRecord(label, None, "declared", additive, notes=("factor rank unknown",),
                          reason=reason)
    total = sum(r.rank for r in parts)
    if additive:
        return RankRecord(label, total, "strict-norm-additivity", additive)
    return RankRecord(label, total, "superadditive-lower-bound", additive,
                      notes=("additivity not guaranteed: gluing is not strictly convex",
                             "value is the superadditive lower bound"))


def counterexample_geodesic(T: float = 10.0) -> Geodesic:
    """Unit-speed line through the sum-glued product of two half-lines.

    Runs down the first axis and up the second; its existence embeds a
    one-dimensional normed space into a product whose factors both have
    rank zero.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))

    def evaluator(ts):
        t = np.asarray(ts, float) - T
        return (np.maximum(-t, 0.0), np.maximum(t, 0.0))

    return Geodesic(prod, (T, 0.0), (0.0, T), 2.0 * T, evaluator,
                    descriptor="axes-line")


def counterexample_sum_halflines(T: float = 10.0, grid: int = 101) -> ValidationReport:
    """Exact witness that rank additivity needs strict convexity.

    The piecewise-axis path in the sum-glued product of two half-lines is
    checked to be distance preserving on the full parameter grid; the
    arithmetic is exact on the grid, so the verdict requires margin zero.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))
    params = np.linspace(-T, T, grid)
    first = np.maximum(-params, 0.0)
    second = np.maximum(params, 0.0)
    ii, jj = np.triu_indices(grid, k=1)
    pts = (first, second)
    dist = prod.distance_batch(prod.take(pts, ii), prod.take(pts, jj))
    gaps = np.abs(params[ii] - params[jj])
    diffs = np.abs(dist - gaps)
    witness = {"s": params[ii], "t": params[jj], "distance": dist, "gap": gaps}
    return judge("rank-counterexample", [(diffs, witness)], len(diffs), T=T, grid=grid,
                 exact=True, embedded_dimension=1, factor_ranks=[0, 0])


@dataclass
class EmbeddingProbe:
    """Result of the exhaustive finite-pattern embedding search."""

    pattern_size: int
    target_size: int
    assignment: tuple | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.assignment is not None

    def to_record(self) -> dict:
        return {
            "check": "embedding-oracle",
            "pattern_size": self.pattern_size,
            "target_size": self.target_size,
            "found": self.found,
            "assignment": None if self.assignment is None else list(self.assignment),
            "nodes": self.nodes,
        }


MAX_PATTERN = 8
MAX_TARGET = 64


def finite_embedding_oracle(pattern, target_points: list, space: MetricSpace,
                            tau: float = Tolerances().embed) -> EmbeddingProbe:
    """Exhaustive search for a distance-preserving placement of a finite
    pattern among sampled target points.

    Depth-first over injective assignments in index order, pruning on the
    first mismatched pair, so the result is the lexicographically first
    assignment independent of any parallel schedule.
    """
    raw = np.asarray(getattr(pattern, "matrix", pattern), float)
    k = raw.shape[0]
    m = len(target_points)
    if k > MAX_PATTERN:
        raise BudgetExceededError(f"pattern size {k} exceeds budget {MAX_PATTERN}")
    if m > MAX_TARGET:
        raise BudgetExceededError(f"target sample size {m} exceeds budget {MAX_TARGET}")
    dpat = FiniteMetricSpace(raw).matrix
    batch = space.stack(target_points)
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    dtar = space.distance_batch(
        space.take(batch, ii.ravel()), space.take(batch, jj.ravel())
    ).reshape(m, m)

    assignment: list[int] = []
    used = np.zeros(m, dtype=bool)
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        for j in range(m):
            if used[j]:
                continue
            nodes += 1
            # a NaN mismatch prunes too
            if i and not np.abs(dtar[j, assignment] - dpat[i, :i]).max() <= tau:
                continue
            assignment.append(j)
            used[j] = True
            if i + 1 == k or extend(i + 1):
                return True
            assignment.pop()
            used[j] = False
        return False

    found = extend(0) if k <= m else False
    return EmbeddingProbe(k, m, tuple(assignment) if found else None, nodes)


@dataclass
class AlphaDecomposition:
    """Per-factor distance gauges recovered from an embedding into a product.

    ``gauges[r, i]`` is the i-th factor distance between the images of
    ``base_a`` and ``base_a + vectors[r]``; for an isometric embedding with
    a strictly convex gluing these are base-independent pseudonorms.
    """

    base_a: np.ndarray
    base_b: np.ndarray
    vectors: np.ndarray
    gauges: np.ndarray
    gauges_at_b: np.ndarray

    def gauge(self, i: int) -> np.ndarray:
        return self.gauges[:, i]


def _factor_gaps(prod: ProductSpace, embedding, base: np.ndarray,
                 vectors: np.ndarray) -> np.ndarray:
    origin = embedding(base)
    images = prod.stack([embedding(base + v) for v in vectors])
    anchors = prod.stack([origin] * len(vectors))
    return prod.factor_distance_batch(anchors, images)


def alpha_decompose(embedding, prod: ProductSpace, base_a, base_b, vectors,
                    source_norm=None, cfg: SampleConfig = DEFAULT_SAMPLES):
    """Decompose a claimed isometric embedding into per-factor gauges.

    Verifies, on the vector grid: the isometry identity (glued gauges
    reproduce the source norm), base-point independence, positive
    homogeneity at scales 0.5, 2 and 3, and the triangle inequality of each
    gauge over the first 16 vectors.  A failed isometry identity is
    reported, with the decomposition still returned for inspection.
    """
    cls = prod.phi.gluing_class(cfg)
    if not cls.at_least(GluingClass.STRICTLY_CONVEX_NORM):
        raise ValueError(
            f"gluing classifies as {cls.value}; decomposition needs a strictly convex norm")
    vecs = np.asarray(vectors, float)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    a = np.atleast_1d(np.asarray(base_a, float))
    b = np.atleast_1d(np.asarray(base_b, float))
    if source_norm is None:
        source_norm = lambda v: np.linalg.norm(v, axis=-1)

    gauges_a = _factor_gaps(prod, embedding, a, vecs)
    gauges_b = _factor_gaps(prod, embedding, b, vecs)
    decomp = AlphaDecomposition(a, b, vecs, gauges_a, gauges_b)
    reports = []

    glued = np.asarray(prod.phi(gauges_a), float)
    norms = np.asarray(source_norm(vecs), float)
    nz = norms > 1e-12
    rel = np.zeros_like(norms)
    rel[nz] = np.abs(glued[nz] - norms[nz]) / norms[nz]
    reports.append(judge("alpha-isometry", [(rel, {"v": vecs, "glued": glued, "norm": norms})],
                         int(nz.sum()), cfg.tol.metric, relative=True))
    if reports[-1].failed:
        reports[-1].details["reason"] = "not an isometric embedding"

    diffs = np.abs(gauges_a - gauges_b)
    tol = cfg.tol.scaled(float(gauges_a.max(initial=0.0)))
    r, i = np.unravel_index(np.arange(diffs.size), diffs.shape)
    reports.append(judge("alpha-base-independence", [(diffs, {"v": vecs[r], "factor": i})],
                         diffs.size, tol, tolerance=tol))

    lambdas = (0.5, 2.0, 3.0)
    diffs = np.array([np.abs(_factor_gaps(prod, embedding, a, lam * vecs) - lam * gauges_a)
                      for lam in lambdas])
    tol = cfg.tol.scaled(float(gauges_a.max(initial=0.0)) * max(lambdas))
    k, verdict = worst(diffs, tol)
    lam, r, i = np.unravel_index(k, diffs.shape)
    # exact homogeneity everywhere leaves no witness
    witness = {"lambda": lambdas[lam], "v": vecs[r], "factor": int(i)} if diffs.flat[k] else None
    reports.append(ValidationReport(
        "alpha-homogeneity", verdict,
        diffs.size, float(diffs.flat[k]), witness,
        {"lambdas": list(lambdas), "tolerance": tol}))

    sub = vecs[:16]
    gsub = gauges_a[:len(sub)]
    # margins[r, w, i]: factor i's triangle margin for the vector pair (sub[r], sub[w])
    margins = np.array([_factor_gaps(prod, embedding, a, v + sub) - g - gsub
                        for v, g in zip(sub, gsub)])
    tol = cfg.tol.scaled(float(gsub.max(initial=0.0)))
    r, w, i = np.unravel_index(np.arange(margins.size), margins.shape)
    reports.append(judge("alpha-triangle", [(margins, {"v": sub[r], "w": sub[w], "factor": i})],
                         margins.size, tol, tolerance=tol))
    return decomp, reports
