"""Geodesics in factors and glued products, and the comparison checks.

A geodesic here is always unit speed on [0, D]: distances along it equal
parameter gaps.  Product geodesics synchronize factor geodesics, each
slowed to its share of the total speed; for a norm-class gluing the
result is again a geodesic.  Non-uniqueness witnesses in the sum/max
planes come from explicit selector families (corner routes, bounded
wander) rather than generic numeric search, so they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .curves import Curve
from .gluing import GluingClass
from .product import ProductSpace
from .reports import PASS, UNDETERMINED, ValidationReport, worst
from .sampling import DEFAULT_SAMPLES, SampleConfig, rng_stream
from .spaces import MetricSpace, lerp, where


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


def _parse_selector(selector):
    if selector is None or selector == "affine":
        return ("affine", None)
    if isinstance(selector, (tuple, list)) and len(selector) == 2 and selector[0] == "corner":
        return ("corner", int(selector[1]))
    if isinstance(selector, str) and selector.startswith("corner"):
        inner = selector[len("corner"):].strip("()")
        return ("corner", int(inner))
    raise ValueError(f"unknown geodesic selector {selector!r}")


def factor_geodesic(space: MetricSpace, x, y, selector="affine") -> Geodesic:
    """Closed-form constant-speed geodesic in a catalog factor space.

    The affine segment is the default everywhere it is a geodesic.  The
    corner selector picks alternative representatives where geodesics are
    not unique: an axis-first route for the p=1 norm, a bounded wander of
    one coordinate for the sup norm.
    """
    kind, idx = _parse_selector(selector)
    return Geodesic(space, x, y, *space.geodesic_route(x, y, kind, idx))


def product_geodesic(prod: ProductSpace, x, y, selectors=None, via=None,
                     cfg: SampleConfig = DEFAULT_SAMPLES) -> Geodesic:
    """Geodesic in a glued product of geodesic factors.

    Requires the gluing to classify at least norm-induced; otherwise there
    is no geodesic guarantee and construction is refused.  With ``via``
    the route is the two-segment concatenation through the given point,
    valid only if that point splits the endpoint distance additively.
    """
    _require_geodesic_product(prod, cfg)
    d = prod.distance(x, y)
    if d == 0:
        return Geodesic(prod, x, y, *prod.affine_route(x, y, d))

    if via is not None:
        d1 = prod.distance(x, via)
        d2 = prod.distance(via, y)
        if abs(d1 + d2 - d) > cfg.tol.scaled(d):
            raise ValueError("via point does not split the distance additively")
        g1 = product_geodesic(prod, x, via, selectors, cfg=cfg)
        g2 = product_geodesic(prod, via, y, selectors, cfg=cfg)

        def via_eval(ts, d1=d1):
            first = g1.at_many(np.clip(ts, 0.0, max(d1, 0.0)))
            second = g2.at_many(np.clip(ts - d1, 0.0, g2.length))
            return prod.where(ts <= d1, first, second)

        return Geodesic(prod, x, y, d, via_eval,
                        descriptor=f"via({prod.point_to_json(via)})")

    comps = [geodesic_between(f, xi, yi, sel, cfg) for f, xi, yi, sel
             in zip(prod.factors, x, y, selectors or ["affine"] * len(prod.factors))]
    desc = ",".join(c.descriptor for c in comps)
    return Geodesic(prod, x, y, d, _sync([c.at_many for c in comps], [c.length for c in comps], d),
                    descriptor=f"sync[{desc}]")


def _require_geodesic_product(prod: ProductSpace, cfg) -> None:
    """The refusals of product geodesic construction, raised before any route is built."""
    cls = prod.gluing_class(cfg)
    if not cls.at_least(GluingClass.NORM_INDUCED):
        raise ValueError(
            f"gluing classifies as {cls.value}; geodesic construction needs norm-induced")
    for f in prod.factors:
        if f.properties.is_geodesic is not True:
            raise ValueError(f"factor {f.name} is not geodesic")


def geodesic_between(space: MetricSpace, x, y, selector="affine",
                     cfg: SampleConfig = DEFAULT_SAMPLES) -> Geodesic:
    """Geodesic in a factor, or in a product from "affine" or one selector per factor."""
    if isinstance(space, ProductSpace):
        if isinstance(selector, list):
            return product_geodesic(space, x, y, selectors=selector, cfg=cfg)
        if selector not in (None, "affine"):
            raise ValueError(f"a product geodesic takes a list of factor selectors, "
                             f"got {selector!r}")
        return product_geodesic(space, x, y, cfg=cfg)
    return factor_geodesic(space, x, y, selector)


def _require_geodesic(space: MetricSpace, cfg) -> None:
    """The refusals of default geodesic construction in ``space``, nested products included."""
    if isinstance(space, ProductSpace):
        _require_geodesic_product(space, cfg)
        for f in space.factors:
            _require_geodesic(f, cfg)
    elif not space.supports_interpolation:
        raise ValueError(f"{space.name} is not a geodesic space in the catalog")


def _sync(routes, lengths, ds):
    """The sync arithmetic of product routes: at parameters ``ts``, factor i runs
    along ``routes[i]``, of length ``lengths[i]``, to ``ts * (lengths[i] / ds)``.

    Rows of length 0 pass ``ts`` to factor routes that stay at their start.
    """
    flat = ds == 0
    scale = np.where(flat, 1.0, ds)
    return lambda ts: tuple(route(np.where(flat, ts, ts * (ell / scale)))
                            for route, ell in zip(routes, lengths))


def _sync_route(space: MetricSpace, xs, ys, ds: np.ndarray):
    """Evaluator of the default geodesics from ``xs[k]`` to ``ys[k]``, of lengths
    ``ds[k]``: at parameters ``ts`` it returns row k at ``ts[k]``, and one-row batches
    broadcast against the parameters.

    A product syncs its factors' routes (:func:`_sync`), measured here once; a
    segment runs ``ts / ds`` of the way, and a row of length 0 stays at its start.
    The refusals are :func:`_require_geodesic`'s, raised by the callers.
    """
    flat = ds == 0
    if isinstance(space, ProductSpace):
        ys = space.where(flat, xs, ys)
        ells = [f.distance_batch(x, y) for f, x, y in zip(space.factors, xs, ys)]
        return _sync([_sync_route(f, x, y, ell) for f, x, y, ell
                      in zip(space.factors, xs, ys, ells)], ells, ds)
    end, scale = where(flat, xs, ys), np.where(flat, 1.0, ds)
    return lambda ts: lerp(xs, end, np.where(flat, ts, ts / scale))


def midpoint(space: MetricSpace, x, y, cfg: SampleConfig = DEFAULT_SAMPLES):
    _require_geodesic(space, cfg)
    xs, ys = space.stack([space.check(x)]), space.stack([space.check(y)])
    ds = space.distance_batch(xs, ys)
    return space.point_at(_sync_route(space, xs, ys, ds)(ds / 2.0), 0)


def geodesy_test(space: MetricSpace, geo: Geodesic, grid: int = 64,
                 cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Definitional check: distances along the path equal parameter gaps."""
    d = geo.length
    ts = np.linspace(0.0, d, grid)
    pts = geo.at_many(ts)
    ii, jj = np.triu_indices(grid, k=1)
    dist = space.distance_batch(space.take(pts, ii), space.take(pts, jj))
    gaps = np.abs(ts[ii] - ts[jj])
    diffs = np.abs(dist - gaps)
    tol = cfg.tol.scaled(d)
    k, verdict = worst(diffs, tol)
    witness = {"s": float(ts[ii[k]]), "t": float(ts[jj[k]]),
               "distance": float(dist[k]), "gap": float(gaps[k])}
    return ValidationReport("geodesy", verdict,
                            len(diffs), float(diffs[k]), witness,
                            {"length": d, "tolerance": tol,
                             "descriptor": geo.descriptor})


def component_progress_check(prod: ProductSpace, geo: Geodesic, grid: int = 64,
                             cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Factor distances along a product geodesic grow proportionally: the
    i-th component at parameter t sits at fraction t/D of its factor
    distance."""
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
    k, verdict = worst(diffs, tol)
    i, k = divmod(k, grid)
    witness = {"factor": i, "t": float(ts[k]),
               "progress": float(progress[i, k]), "expected": float(expected[i, k])}
    return ValidationReport("component-progress", verdict,
                            grid * len(prod.factors), float(diffs[i, k]), witness,
                            {"length": d, "tolerance": tol})


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
    midpoints are screened in batches; only a candidate that passes the
    screen is built as a geodesic.  A negative ``perturbations`` is refused.
    """
    if perturbations < 0:
        raise ValueError(f"perturbations must be >= 0, got {perturbations}")
    d = prod.distance(x, y)
    tol = cfg.tol.scaled(d)
    threshold = 1e-6 * max(1.0, d)
    base = product_geodesic(prod, x, y, cfg=cfg)
    if d <= tol:
        return ValidationReport("unique-geodesic", PASS, 1, 0.0, None,
                                {"reason": "degenerate endpoints"})
    candidates = [base]

    # corner routes: finish one subset of the factors first; vias[k] takes factor i from y
    # where bit i of k + 1 is set; a screened via splits d and so passes construction
    xb, yb = prod.stack([x]), prod.stack([y])
    n = len(prod.factors)
    if n > 1:
        bits = np.arange(1, 2**n - 1)[:, None] >> np.arange(n) & 1
        vias = tuple(where(bits[:, i] == 1, yi, xi) for i, (xi, yi) in enumerate(zip(xb, yb)))
        d1, d2 = prod.distance_batch(xb, vias), prod.distance_batch(vias, yb)
        for k in np.flatnonzero((tol < d1) & (tol < d2) & (abs(d1 + d2 - d) <= tol)):
            candidates.append(product_geodesic(prod, x, y, via=prod.point_at(vias, k), cfg=cfg))

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
        for k in np.flatnonzero(hits[0] | hits[1]):
            candidates.append(product_geodesic(prod, x, y, via=prod.point_at(chosen, k), cfg=cfg))
            accepted += 1

    ts = np.linspace(0.0, d, grid)
    base_pts = base.at_many(ts)
    # sup distance of each candidate from the base geodesic; the base itself is at 0
    sups = [0.0] + [float(prod.distance_batch(base_pts, cand.at_many(ts)).max())
                    for cand in candidates[1:]]
    k, verdict = worst(sups, threshold)
    witness = {"geodesics": [base.descriptor, candidates[k].descriptor],
               "sup_distance": sups[k]} if k else None
    return ValidationReport("unique-geodesic", verdict, len(candidates), sups[k],
                            witness,
                            {"distinct_threshold": threshold,
                             "candidates": len(candidates),
                             "perturbation_hits": accepted,
                             "length": d})


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
    buf, slabs = np.empty(grid**3), []
    for a in range(grid):
        margins = buf[:grid * (grid - a) * grid].reshape(grid, grid - a, grid)
        np.add(even[a, :, None, None], even[None, a:], out=margins)
        np.subtract(window[a, :, a:], np.multiply(margins, 0.5, out=margins), out=margins)
        k = np.unravel_index(worst(margins)[0], margins.shape)
        slabs.append((float(margins[k]), (a, k[0], k[1] + a, k[2])))
    tol = tau if tau is not None else cfg.tol.scaled(float(dmat.max(initial=0.0)))
    a, verdict = worst([m for m, _ in slabs], tol)
    margin, k = slabs[a]
    step = 1.0 / (grid - 1)
    witness = {"s": k[0] * step, "t": k[1] * step,
               "s2": k[2] * step, "t2": k[3] * step}
    return ValidationReport("busemann-convexity", verdict,
                            grid**4, margin, witness,
                            {"tolerance": tol, "scope": "global on the given geodesics"})


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
    if triangles is None:
        triangles = list(zip(*(space.sample_points(count, [seed, s], radius) for s in (7, 8, 9))))
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
    mids = _sync_route(space, qs, rs, c)(c / 2.0)
    comparison = (2 * a * a + 2 * b * b - c * c) / 4.0
    comparison = np.sqrt(np.where(comparison > 0.0, comparison, 0.0))
    margins = space.distance_batch(ps, mids) - comparison
    k, verdict = worst(margins, tol)
    witness = {name: space.point_to_json(space.point_at(batch, k)) for name, batch in
               (("p", ps), ("q", qs), ("r", rs), ("midpoint", mids))}
    witness.update(sides=[float(a[k]), float(b[k]), float(c[k])], comparison=float(comparison[k]))
    return ValidationReport("cat0-four-point", verdict, len(rows), float(margins[k]), witness,
                            details)
