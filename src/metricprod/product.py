"""Glued products of metric spaces.

A product space carries a tuple of factor spaces and a gluing function of
matching dimension; the product distance is the gluing function applied
to the vector of factor distances.  Structural flags are inherited from
the factors only when the gluing function's classification licenses the
preservation, otherwise they stay unknown.
"""

from __future__ import annotations

import numpy as np

from .gluing import GluingClass, GluingFunction, by_blocks, judge, rowwise, scan
from .reports import ValidationReport
from .sampling import DEFAULT_SAMPLES, SampleConfig, zero_floor_verdict
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

    @property
    def supports_interpolation(self) -> bool:
        return all(f.supports_interpolation for f in self.factors)

    @property
    def properties(self) -> DeclaredProperties:
        cls = self.phi.gluing_class()
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

    def sample_stream(self, seed=0, radius=1.0):
        base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        draws = [f.sample_stream(base + [i], radius) for i, f in enumerate(self.factors)]
        return lambda k: tuple(draw(k) for draw in draws)

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

    def route(self, xs, ys, ds):
        """Each factor runs its own default route at its share of the speed
        (:class:`_Sync`), its lengths measured here once; a row of length 0 stays at its
        start."""
        ys = self.where(ds == 0, xs, ys)
        ells = [f.distance_batch(x, y) for f, x, y in zip(self.factors, xs, ys)]
        return _Sync([f.route(x, y, ell) for f, x, y, ell in zip(self.factors, xs, ys, ells)],
                     ells, ds)

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


class _Sync:
    """The sync arithmetic of product routes: at parameters ``ts``, factor i runs
    along ``routes[i]``, of length ``lengths[i]``, to ``ts * (lengths[i] / ds)``.

    Rows of length 0 pass ``ts`` to factor routes that stay at their start.  The
    routes and lengths stay readable, so a route is named without measuring it again.
    """

    def __init__(self, routes, lengths, ds):
        self.routes, self.lengths = routes, lengths
        self.flat = ds == 0
        self.scale = np.where(self.flat, 1.0, ds)

    def __call__(self, ts):
        return tuple(route(np.where(self.flat, ts, ts * (ell / self.scale)))
                     for route, ell in zip(self.routes, self.lengths))


def verify_metric_axioms(prod: ProductSpace,
                         cfg: SampleConfig = DEFAULT_SAMPLES) -> list[ValidationReport]:
    """Sampled metric axioms for a glued product.

    Returns three reports: identity of indiscernibles, symmetry, and the
    triangle inequality over ``cfg.count`` sampled point triples, drawn and
    measured one row block at a time.  Margins are reported raw so tightness
    can be inspected.
    """

    def axioms(xs, ys, zs):
        self_d = prod.distance_batch(xs, xs)
        fd = prod.factor_distance_batch(xs, ys)
        dxy = np.asarray(prod.phi(fd), float)
        distinct = np.where(rowwise(np.maximum, fd) > 0, -dxy, -np.inf)   # -oo on equal pairs
        diffs = np.abs(dxy - prod.distance_batch(ys, xs))
        dxz, dyz = prod.distance_batch(xs, zs), prod.distance_batch(ys, zs)
        return [(self_d, {"point": xs}), (distinct, {"x": xs, "y": ys}),
                (diffs, {"x": xs, "y": ys}),
                (dxz - dxy - dyz, {"x": xs, "y": ys, "z": zs, "distances": (dxz, dxy, dyz)})], \
            [dxy, dxz]

    draws = [prod.sample_stream([cfg.seed, s], cfg.radius) for s in (1, 2, 3)]
    ((worst_self, at_self), (least, pair), symmetry, triangle), (dxy_peak, dxz_peak) = \
        scan(cfg.count, draws, axioms)

    # identity of indiscernibles: the distinct pair at least distance -least
    min_distinct = -float(least)
    floor_margin, verdict, near_zero = zero_floor_verdict(float(worst_self), min_distinct)
    witness = {"point": prod.point_at(at_self["point"], 0), "self_distance": float(worst_self)}
    if near_zero:
        witness = {"x": prod.point_at(pair["x"], 0), "y": prod.point_at(pair["y"], 0),
                   "distance": min_distinct}
    tol = cfg.tol.scaled(dxz_peak)
    return [ValidationReport("identity-of-indiscernibles", verdict, cfg.count, floor_margin,
                             witness, {"min_distinct_distance": min_distinct}),
            judge("symmetry", [symmetry], cfg.count, cfg.tol.scaled(dxy_peak)),
            judge("triangle-inequality", [triangle], cfg.count, tol, tolerance=tol)]
