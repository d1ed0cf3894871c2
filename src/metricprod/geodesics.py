"""Geodesics in factors and glued products, and the comparison checks.

A geodesic here is always unit speed on [0, D]: distances along it equal
parameter gaps.  Product geodesics synchronize factor geodesics, each
slowed to its share of the total speed; for a norm-class gluing the
result is again a geodesic.  Non-uniqueness witnesses in the sum/max
planes come from explicit selector families (corner routes, bounded
wander) rather than generic numeric search, so they are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .curves import Curve
from .gluing import GluingClass, judge
from .product import ProductSpace, _Sync
from .reports import PASS, UNDETERMINED, ValidationReport, worst
from .sampling import DEFAULT_SAMPLES, SampleConfig, rng_stream
from .spaces import MetricSpace, where


@dataclass
class Geodesic(Curve):
    """Unit-speed curve on [0, length] realizing the distance between its
    endpoints; ``descriptor`` names the route."""

    space: MetricSpace
    start: Any
    end: Any
    length: float
    evaluator: Callable[[np.ndarray], Any]
    descriptor: str = "affine"


def _corner_index(selector):
    """The coordinate a factor's corner selector names; None for the default route."""
    pair = isinstance(selector, (tuple, list)) and len(selector) == 2 and type(selector[1]) is int
    text = f"{selector[0]}({selector[1]})" if pair else selector
    if text is None or text == "affine":
        return None
    if not (isinstance(text, str) and re.fullmatch(r"corner\(-?[0-9]+\)", text)):
        raise ValueError(f"unknown geodesic selector {selector!r}")
    return int(text[len("corner("):-1])


def geodesic_between(space: MetricSpace, x, y, selector="affine",
                     cfg: SampleConfig = DEFAULT_SAMPLES) -> Geodesic:
    """Geodesic in a factor, or in a product from "affine" or one selector per factor.

    Without a selector it is the default route, a one-row batch of
    :meth:`~MetricSpace.route`.  The corner selector picks alternative
    representatives where geodesics are not unique: an axis-first route for the
    p=1 norm, a bounded wander of one coordinate for the sup norm.
    """
    if isinstance(space, ProductSpace):
        return product_geodesic(space, x, y, None if selector == "affine" else selector,
                                cfg=cfg)
    _require_geodesic(space, cfg)
    xs, ys = space.stack([space.check(x)]), space.stack([space.check(y)])
    ds = space.distance_batch(xs, ys)
    idx = _corner_index(selector)
    route = None if idx is None else space.corner_route(x, y, idx)
    return Geodesic(space, x, y, float(ds[0]), *(route or _default_route(space, xs, ys, ds)))


def product_geodesic(prod: ProductSpace, x, y, selectors=None, via=None,
                     cfg: SampleConfig = DEFAULT_SAMPLES) -> Geodesic:
    """Geodesic in a glued product of geodesic factors.

    Requires the gluing to classify at least norm-induced; otherwise there
    is no geodesic guarantee and construction is refused.  ``selectors``, one
    per factor, sync the factor geodesics they name.  With ``via`` the route is
    the two-segment concatenation through the given point, valid only if that
    point splits the endpoint distance additively; it takes no selectors.
    Between equal endpoints every route is the constant one.
    """
    if via is not None and selectors is not None:
        raise ValueError("a via route takes no factor selectors")
    _require_geodesic(prod, cfg)
    xs, ys = prod.stack([prod.check(x)]), prod.stack([prod.check(y)])
    d, route = prod.distance_batch(xs, ys), None
    if selectors is not None:
        if not isinstance(selectors, (list, tuple)) or len(selectors) != len(prod.factors):
            raise ValueError(f"a product geodesic takes a list of factor selectors, one per "
                             f"factor ({len(prod.factors)}), got {selectors!r}")
        comps = [geodesic_between(f, xi, yi, sel, cfg)
                 for f, xi, yi, sel in zip(prod.factors, x, y, selectors)]
        route = (_Sync([c.at_many for c in comps], [c.length for c in comps], d),
                 f"sync[{','.join(c.descriptor for c in comps)}]")
    elif via is not None:
        vs = prod.stack([prod.check(via)])
        d1, d2 = prod.distance_batch(xs, vs), prod.distance_batch(vs, ys)
        if abs(d1 + d2 - d)[0] > cfg.tol.scaled(d[0]):
            raise ValueError("via point does not split the distance additively")
        route = _via_route(prod, xs, vs, ys, d1, d2), f"via({prod.point_to_json(via)})"
    if route is None or d[0] == 0:
        route = _default_route(prod, xs, ys, d)
    return Geodesic(prod, x, y, float(d[0]), *route)


def _require_geodesic(space: MetricSpace, cfg) -> None:
    """The refusals of geodesic construction in ``space``, nested products included,
    raised before any endpoint is measured."""
    if isinstance(space, ProductSpace):
        cls = space.phi.gluing_class(cfg)
        if not cls.at_least(GluingClass.NORM_INDUCED):
            raise ValueError(
                f"gluing classifies as {cls.value}; geodesic construction needs norm-induced")
        for f in space.factors:
            if f.properties.is_geodesic is not True:
                raise ValueError(f"factor {f.name} is not geodesic")
        for f in space.factors:
            _require_geodesic(f, cfg)
    elif space.coord_dim is None:
        raise ValueError(f"{space.name} is not a geodesic space in the catalog")


def _default_route(space: MetricSpace, xs, ys, ds):
    """The default route between the one-row batches ``xs`` and ``ys``, of length
    ``ds``, and its name."""
    route = space.route(xs, ys, ds)
    return route, _route_name(route, ds[0])


def _route_name(route, d: float) -> str:
    """Name of a one-row default route of length ``d``, read off the factor lengths a
    product route measured: a route of length 0 is constant."""
    if d == 0 or not isinstance(route, _Sync):
        return "affine" if d else "constant"
    names = [_route_name(r, ell[0]) for r, ell in zip(route.routes, route.lengths)]
    return "sync[" + ",".join(names) + "]"


def _via_route(prod: ProductSpace, xs, vs, ys, d1, d2):
    """Evaluator of the two-segment routes from ``xs[k]`` through ``vs[k]`` to ``ys[k]``,
    in the batch convention of :meth:`~MetricSpace.route`: the default route of length
    ``d1[k]`` to the via point, then that of length ``d2[k]`` on."""
    first, second = prod.route(xs, vs, d1), prod.route(vs, ys, d2)
    return lambda ts: prod.where(ts <= d1, first(np.clip(ts, 0.0, d1)),
                                 second(np.clip(ts - d1, 0.0, d2)))


def midpoint(space: MetricSpace, x, y, cfg: SampleConfig = DEFAULT_SAMPLES):
    _require_geodesic(space, cfg)
    xs, ys = space.stack([space.check(x)]), space.stack([space.check(y)])
    ds = space.distance_batch(xs, ys)
    return space.point_at(space.route(xs, ys, ds)(ds / 2.0), 0)


def geodesy_test(space: MetricSpace, geo: Geodesic, grid: int = 64,
                 cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Definitional check: distances along the path equal parameter gaps.  A grid
    below 3, with no interior point, is refused."""
    if grid < 3:
        raise ValueError("grid must be at least 3")
    d = geo.length
    ts = np.linspace(0.0, d, grid)
    pts = geo.at_many(ts)
    ii, jj = np.triu_indices(grid, k=1)
    dist = space.distance_batch(space.take(pts, ii), space.take(pts, jj))
    gaps = np.abs(ts[ii] - ts[jj])
    diffs = np.abs(dist - gaps)
    tol = cfg.tol.scaled(d)
    return judge("geodesy", [(diffs, {"s": ts[ii], "t": ts[jj], "distance": dist, "gap": gaps})],
                 len(diffs), tol, length=d, tolerance=tol, descriptor=geo.descriptor)


def component_progress_check(prod: ProductSpace, geo: Geodesic, grid: int = 64,
                             cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Factor distances along a product geodesic grow proportionally: the
    i-th component at parameter t sits at fraction t/D of its factor
    distance.  A grid below 3, with no interior point, is refused."""
    if grid < 3:
        raise ValueError("grid must be at least 3")
    d = geo.length
    ts = np.linspace(0.0, d, grid)
    pts = geo.at_many(ts)
    fracs = ts / d if d > 0 else np.zeros_like(ts)
    # progress[i, k]: factor i's distance from its start at ts[k]; expected, its share
    progress = np.array([f.distance_batch(f.stack([geo.start[i]] * grid), pts[i])
                         for i, f in enumerate(prod.factors)])
    expected = np.array([fracs * f.distance(geo.start[i], geo.end[i])
                         for i, f in enumerate(prod.factors)])
    diffs = np.abs(progress - expected)
    tol = cfg.tol.scaled(d)
    factor, k = np.unravel_index(np.arange(diffs.size), diffs.shape)
    return judge("component-progress", [(diffs, {"factor": factor, "t": ts[k],
                                                 "progress": progress.ravel(),
                                                 "expected": expected.ravel()})],
                 diffs.size, tol, length=d, tolerance=tol)


def _coordinate_directions(n: int) -> list:
    """Structured offsets of a point with ``n`` coordinates: single
    coordinates and signed pairs (the flat directions of the p=1 ball live
    here)."""
    dirs = []
    for a in range(n):
        for s in (1.0, -1.0):
            dirs.append(np.zeros(n))
            dirs[-1][a] = s
    for a in range(n):
        for b in range(a + 1, n):
            for s in (1.0, -1.0):
                dirs.append(np.zeros(n))
                dirs[-1][[a, b]] = 1.0, s
    return dirs


def uniqueness_probe(prod: ProductSpace, x, y, grid: int = 64, perturbations: int = 64,
                     seed: int = 0, cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Search for distinct geodesics between two product points.

    Candidates come from two sources: corner routes through per-factor via
    points, and a midpoint perturbation search (alternative midpoints at
    distance D/2 from both endpoints induce two-segment geodesics).  The
    verdict is pass when every candidate coincides with the default geodesic
    on the grid: no sup distance above ``1e-6 * max(1, D)``.  Via points and perturbed
    midpoints are screened in batches, and the via routes of the candidates that pass
    are compared with the default route in one more.  A negative ``perturbations``
    is refused, and so is a grid below 3: every candidate shares the two endpoints.
    """
    if grid < 3:
        raise ValueError("grid must be at least 3")
    if perturbations < 0:
        raise ValueError(f"perturbations must be >= 0, got {perturbations}")
    d = prod.distance(x, y)
    tol = cfg.tol.scaled(d)
    threshold = 1e-6 * max(1.0, d)
    base = product_geodesic(prod, x, y, cfg=cfg)
    if d <= tol:
        return ValidationReport("unique-geodesic", PASS, 1, 0.0, None,
                                {"reason": "degenerate endpoints"})
    vias = []           # the via point of every candidate that passes its screen

    # corner routes: finish one subset of the factors first; corners[k] takes factor i from
    # y where bit i of k + 1 is set
    xb, yb = prod.stack([x]), prod.stack([y])
    n = len(prod.factors)
    if n > 1:
        bits = np.arange(1, 2**n - 1)[:, None] >> np.arange(n) & 1
        corners = tuple(where(bits[:, i] == 1, yi, xi) for i, (xi, yi) in enumerate(zip(xb, yb)))
        d1, d2 = prod.distance_batch(xb, corners), prod.distance_batch(corners, yb)
        vias += [prod.point_at(corners, k) for k in
                 np.flatnonzero((tol < d1) & (tol < d2) & (abs(d1 + d2 - d) <= tol))]

    # midpoint perturbation search: per direction, the first delta whose offset of the
    # midpoint lies off it at d/2 from both ends, screened in one batch per delta
    mid = base.at(d / 2.0)
    n = prod.coord_dim
    accepted = 0
    if n is not None:
        directions = _coordinate_directions(n)
        gauss = rng_stream(seed, 41).normal(size=(max(0, perturbations - len(directions)), n))
        vecs = np.concatenate([directions, gauss])[:perturbations]
        mb = prod.stack([mid])
        width = prod.distance_batch(mb, prod.offset(mid, vecs, np.ones(len(vecs))))
        live = ~(width <= tol)                  # a NaN width stays, and fails the screens
        vecs, width = vecs[live], width[live]
        cands, hits = [], []
        for delta in (d / 4.0, d / 32.0):
            cands.append(prod.offset(mid, vecs, delta / width))
            # half the via tolerance so the two half-distances cannot
            # jointly overshoot the concatenation check
            hits.append(~(prod.distance_batch(mb, cands[-1]) <= tol)
                        & (abs(prod.distance_batch(xb, cands[-1]) - d / 2.0) <= 0.5 * tol)
                        & (abs(prod.distance_batch(cands[-1], yb) - d / 2.0) <= 0.5 * tol))
        chosen = prod.where(hits[0], cands[0], cands[1])
        found = [prod.point_at(chosen, k) for k in np.flatnonzero(hits[0] | hits[1])]
        vias += found
        accepted = len(found)

    # sup distance of each candidate from the default route on the grid, the default
    # route first at 0: row j * len(vias) + c of the batch is candidate c at ts[j]
    sups = [0.0]
    if vias:
        ts = np.repeat(np.linspace(0.0, d, grid), len(vias))
        vb = prod.take(prod.stack(vias), np.tile(np.arange(len(vias)), grid))
        d1, d2 = prod.distance_batch(xb, vb), prod.distance_batch(vb, yb)
        dist = prod.distance_batch(base.at_many(ts), _via_route(prod, xb, vb, yb, d1, d2)(ts))
        sups += dist.reshape(grid, -1).max(axis=0).tolist()
    k, verdict = worst(sups, threshold)
    witness = {"geodesics": [base.descriptor, f"via({prod.point_to_json(vias[k - 1])})"],
               "sup_distance": sups[k]} if k else None
    return ValidationReport("unique-geodesic", verdict, len(sups), sups[k], witness,
                            {"distinct_threshold": threshold, "candidates": len(sups),
                             "perturbation_hits": accepted, "length": d})


def busemann_convexity_check(space: MetricSpace, g1: Geodesic, g2: Geodesic,
                             grid: int = 32, tau: float | None = None,
                             cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Joint midpoint convexity of the distance between two geodesics.

    Both geodesics are renormalized to [0, 1]; the distance is evaluated
    on the refined uniform grid so that every midpoint of grid parameters
    is again a grid parameter.  The check is global on the given
    geodesics; it does not probe smaller scales.  ``tau``, when given, is
    an absolute tolerance in place of the scaled ``cfg.tol``.  A grid below
    2 is refused.  The margin of (s, t) against (s2, t2) is that of (s2, t2)
    against (s, t), so only s2 >= s is reduced: the first worst pair is there.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    fine = 2 * grid - 1
    u = np.linspace(0.0, 1.0, fine)
    p1, p2 = g1.at_many(u * g1.length), g2.at_many(u * g2.length)
    ii, jj = np.divmod(np.arange(fine * fine), fine)
    dmat = space.distance_batch(space.take(p1, ii), space.take(p2, jj)).reshape(fine, fine)
    even = np.ascontiguousarray(dmat[::2, ::2])      # values at grid points, contiguous
    window = np.lib.stride_tricks.sliding_window_view(dmat, (grid, grid))  # dmat[a + c, b + d]
    # margins[a, b, c, d] = window[a, b, c, d] - (even[a, b] + even[c, d]) / 2 equals its
    # twin margins[c, d, a, b] bit for bit (NaN too), which comes first in C order when c < a;
    # so the first largest has c >= a, and slab a reduces only c in [a, grid), in grid**3 memory
    # peak[a]: slab a's first largest margin (argmax picks a NaN first), at index at[a]
    buf, peak, at = np.empty(grid**3), np.empty(grid), np.empty((grid, 4), int)
    for a in range(grid):
        margins = buf[:grid * (grid - a) * grid].reshape(grid, grid - a, grid)
        np.add(even[a, :, None, None], even[None, a:], out=margins)
        np.subtract(window[a, :, a:], np.multiply(margins, 0.5, out=margins), out=margins)
        b, c, d = np.unravel_index(np.argmax(margins), margins.shape)
        peak[a], at[a] = margins[b, c, d], (a, b, c + a, d)
    tol = tau if tau is not None else cfg.tol.scaled(float(dmat.max(initial=0.0)))
    # times the step: index / (grid - 1) can differ in the last bit
    witness = dict(zip(("s", "t", "s2", "t2"), (at * (1.0 / (grid - 1))).T))
    return judge("busemann-convexity", [(peak, witness)], grid**4, tol,
                 tolerance=tol, scope="global on the given geodesics")


def cat0_four_point_check(space: MetricSpace, count: int = 1000, seed: int = 0,
                          radius: float = 5.0, triangles=None,
                          cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Euclidean comparison of geodesic midpoints (the flat case).

    For each triangle (p, q, r): the distance from p to the geodesic
    midpoint of q and r must not exceed the corresponding median of the
    Euclidean triangle with the same side lengths.  Curvature comparison
    for nonzero bounds is out of scope.  The sides, the screen of degenerate
    triangles, the midpoints and their distances are each one batch.
    """
    if triangles is None:       # a count of 0 draws no triangle; a negative one is refused
        draws = [space.sample_points(count, [seed, s], radius) for s in (7, 8, 9)] if count else []
        triangles = list(zip(*draws))
    else:
        triangles = [tuple(map(space.check, (p, q, r))) for p, q, r in triangles]
    n, rows, scale = len(triangles), np.empty(0, int), 1.0
    if n:
        ps, qs, rs = (space.stack([t[j] for t in triangles]) for j in range(3))
        a, b, c = (space.distance_batch(u, v) for u, v in ((ps, qs), (ps, rs), (qs, rs)))
        scale = float(np.fmax.reduce(np.concatenate([[scale], a, b, c])))  # passes NaN over
        slack = cfg.tol.metric * np.fmax.reduce([np.ones(n), abs(a), abs(b), abs(c)])
        rows = np.flatnonzero(~((c > a + b + slack) | (a > b + c + slack) | (b > a + c + slack)))
    tol = cfg.tol.scaled(scale)
    details = {"skipped_degenerate": n - len(rows), "tolerance": tol}
    if not len(rows):
        details["reason"] = "every triangle degenerate" if n else "no triangles"
        return ValidationReport("cat0-four-point", UNDETERMINED, 0, 0.0, None, details)
    ps, qs, rs = (space.take(u, rows) for u in (ps, qs, rs))
    a, b, c = a[rows], b[rows], c[rows]
    _require_geodesic(space, cfg)
    mids = space.route(qs, rs, c)(c / 2.0)
    comparison = (2 * a * a + 2 * b * b - c * c) / 4.0
    comparison = np.sqrt(np.where(comparison > 0.0, comparison, 0.0))
    margins = space.distance_batch(ps, mids) - comparison
    witness = {"p": ps, "q": qs, "r": rs, "midpoint": mids,
               "sides": np.column_stack([a, b, c]), "comparison": comparison}
    return judge("cat0-four-point", [(margins, witness)], len(rows), tol, **details)
