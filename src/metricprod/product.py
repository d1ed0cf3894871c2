"""Glued products of metric spaces.

A product space carries a tuple of factor spaces and a gluing function of
matching dimension; the product distance is the gluing function applied
to the vector of factor distances.  Structural flags are inherited from
the factors only when the gluing function's classification licenses the
preservation, otherwise they stay unknown.
"""

from __future__ import annotations

import numpy as np

from .gluing import GluingClass, GluingFunction, by_blocks, rowwise
from .reports import FAIL, PASS, ValidationReport, worst
from .sampling import DEFAULT_SAMPLES, ZERO_FLOOR, SampleConfig
from .spaces import DeclaredProperties, MetricSpace


class ProductSpace(MetricSpace):
    """Product of factor spaces glued by a quadrant function.

    Points are tuples of factor points; batches are tuples of factor
    batches.  Nested products are allowed (a product may itself be a
    factor).
    """

    name = "product"

    def __init__(self, factors, phi: GluingFunction):
        factors = tuple(factors)
        if len(factors) < 1:
            raise ValueError("need at least one factor")
        if len(factors) != phi.dim:
            raise ValueError(
                f"gluing dimension {phi.dim} does not match {len(factors)} factors"
            )
        self.factors = factors
        self.phi = phi
        dims = [f.coord_dim for f in factors]
        self.coord_dim = None if None in dims else sum(dims)

    # -- metric --------------------------------------------------------------

    def factor_distance_batch(self, xs, ys) -> np.ndarray:
        cols = [f.distance_batch(xi, yi) for f, xi, yi in zip(self.factors, xs, ys)]
        return np.column_stack(cols)

    def distance_batch(self, xs, ys) -> np.ndarray:
        glued = by_blocks(lambda x, y: self.phi(self.factor_distance_batch(x, y)),
                          max(self.size(xs), self.size(ys)), xs, ys)
        return np.asarray(glued, float)

    def _check(self, x) -> tuple:
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise ValueError(
                f"product points are {len(self.factors)}-tuples of factor points"
            )
        return x

    def check(self, x) -> tuple:
        return tuple(f.check(xi) for f, xi in zip(self.factors, self._check(x)))

    # -- classification-driven structure --------------------------------------

    def gluing_class(self, cfg: SampleConfig | None = None) -> GluingClass:
        """The class construction reads: proven for weighted p-norms, sampled otherwise."""
        return self.phi.known_class or self.phi.classification(cfg).gluing_class

    @property
    def supports_interpolation(self) -> bool:
        return all(f.supports_interpolation for f in self.factors)

    @property
    def properties(self) -> DeclaredProperties:
        cls = self.gluing_class()
        norm = cls.at_least(GluingClass.NORM_INDUCED)
        strict = cls.at_least(GluingClass.STRICTLY_CONVEX_NORM)

        def licensed(flag, attr):
            vals = [getattr(f.properties, attr) for f in self.factors]
            if flag and all(v is True for v in vals):
                return True
            return None

        return DeclaredProperties(
            is_length_space=licensed(norm, "is_length_space"),
            is_geodesic=licensed(norm, "is_geodesic"),
            is_uniquely_geodesic=licensed(strict, "is_uniquely_geodesic"),
            is_convex=licensed(strict, "is_convex"),
            known_minkowski_rank=None,
        )

    # -- batch plumbing --------------------------------------------------------

    def sample_batch(self, count, seed=0, radius=1.0):
        base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        return tuple(
            f.sample_batch(count, base + [i], radius) for i, f in enumerate(self.factors)
        )

    def stack(self, points):
        # the factors fix the arity, so an empty list still stacks to a tuple
        return tuple(
            f.stack([p[i] for p in points]) for i, f in enumerate(self.factors)
        )

    def offset(self, point, directions, scales):
        """Each factor moved by its own columns of the flat ``directions``."""
        parts, start = [], 0
        for f, p in zip(self.factors, point):
            parts.append(f.offset(p, directions[:, start:start + f.coord_dim], scales))
            start += f.coord_dim
        return tuple(parts)

    # -- (de)serialization -------------------------------------------------------

    def descriptor(self):
        return {
            "type": "product",
            "factors": [f.descriptor() for f in self.factors],
            "phi": self.phi.descriptor(),
        }

    def point_from_json(self, obj):
        if len(obj) != len(self.factors):
            raise ValueError("point arity does not match factor count")
        return tuple(f.point_from_json(o) for f, o in zip(self.factors, obj))

    def point_to_json(self, point):
        return [f.point_to_json(p) for f, p in zip(self.factors, self._check(point))]


def verify_metric_axioms(prod: ProductSpace,
                         cfg: SampleConfig | None = None) -> list[ValidationReport]:
    """Sampled metric axioms for a glued product.

    Returns three reports: identity of indiscernibles, symmetry, and the
    triangle inequality over ``cfg.count`` sampled point triples.  Margins
    are reported raw so tightness can be inspected.
    """
    cfg = cfg or DEFAULT_SAMPLES
    xs = prod.sample_batch(cfg.count, [cfg.seed, 1], cfg.radius)
    ys = prod.sample_batch(cfg.count, [cfg.seed, 2], cfg.radius)
    zs = prod.sample_batch(cfg.count, [cfg.seed, 3], cfg.radius)
    reports = []

    # identity of indiscernibles
    self_d = prod.distance_batch(xs, xs)
    fd = prod.factor_distance_batch(xs, ys)
    dxy = np.asarray(prod.phi(fd), float)
    distinct = rowwise(np.maximum, fd) > 0
    worst_self = float(self_d.max())
    min_distinct = float(dxy[distinct].min()) if distinct.any() else np.inf
    bad = worst_self > ZERO_FLOOR or min_distinct <= ZERO_FLOOR
    i = int(np.argmax(self_d))
    witness = {"point": prod.point_at(xs, i), "self_distance": worst_self}
    if min_distinct <= ZERO_FLOOR:
        j = int(np.argmin(np.where(distinct, dxy, np.inf)))
        witness = {
            "x": prod.point_at(xs, j),
            "y": prod.point_at(ys, j),
            "distance": float(dxy[j]),
        }
    reports.append(ValidationReport(
        "identity-of-indiscernibles", FAIL if bad else PASS, cfg.count,
        max(worst_self, ZERO_FLOOR - min_distinct), witness,
        {"min_distinct_distance": min_distinct}))

    # symmetry
    dyx = prod.distance_batch(ys, xs)
    diffs = np.abs(dxy - dyx)
    i, verdict = worst(diffs, cfg.tol.scaled(float(dxy.max(initial=0.0))))
    reports.append(ValidationReport(
        "symmetry", verdict, cfg.count, float(diffs[i]),
        {"x": prod.point_at(xs, i), "y": prod.point_at(ys, i)}, {}))

    # triangle inequality
    dyz = prod.distance_batch(ys, zs)
    dxz = prod.distance_batch(xs, zs)
    margins = dxz - dxy - dyz
    tol = cfg.tol.scaled(float(dxz.max(initial=0.0)))
    i, verdict = worst(margins, tol)
    reports.append(ValidationReport(
        "triangle-inequality", verdict, cfg.count,
        float(margins[i]),
        {"x": prod.point_at(xs, i), "y": prod.point_at(ys, i),
         "z": prod.point_at(zs, i),
         "distances": [float(dxz[i]), float(dxy[i]), float(dyz[i])]},
        {"tolerance": tol}))
    return reports
