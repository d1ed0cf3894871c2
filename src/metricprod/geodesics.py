"""Geodesics in factors and glued products, and the comparison checks.

A geodesic here is always unit speed on [0, D]: distances along it equal
parameter gaps.  Product geodesics synchronize factor geodesics, each
slowed to its share of the total speed; for a norm-class gluing the
result is again a geodesic.  Non-uniqueness witnesses in the sum/max
planes come from explicit selector families (corner routes, bounded
wander) rather than generic numeric search, so they are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .curves import Curve
from .gluing import GluingClass
from .product import ProductSpace
from .reports import PASS, UNDETERMINED, ValidationReport, worst
from .sampling import DEFAULT_SAMPLES, rng_stream
from .spaces import MetricSpace


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


def product_geodesic(prod: ProductSpace, x, y, selectors=None, via=None, cfg=None) -> Geodesic:
    """Geodesic in a glued product of geodesic factors.

    Requires the gluing to classify at least norm-induced; otherwise there
    is no geodesic guarantee and construction is refused.  With ``via``
    the route is the two-segment concatenation through the given point,
    valid only if that point splits the endpoint distance additively.
    """
    cfg = cfg or DEFAULT_SAMPLES
    cls = prod.gluing_class(cfg)
    if not cls.at_least(GluingClass.NORM_INDUCED):
        raise ValueError(
            f"gluing classifies as {cls.value}; geodesic construction needs norm-induced")
    for f in prod.factors:
        if f.properties.is_geodesic is not True:
            raise ValueError(f"factor {f.name} is not geodesic")
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

    if selectors is None:
        selectors = ["affine"] * len(prod.factors)
    comps = [geodesic_between(f, xi, yi, sel, cfg)
             for f, xi, yi, sel in zip(prod.factors, x, y, selectors)]

    def sync_eval(ts):
        return tuple(c.at_many(ts * (c.length / d)) for c in comps)

    desc = ",".join(c.descriptor for c in comps)
    return Geodesic(prod, x, y, d, sync_eval, descriptor=f"sync[{desc}]")


def geodesic_between(space: MetricSpace, x, y, selector="affine", cfg=None) -> Geodesic:
    """Geodesic in a factor, or in a product from "affine" or one selector per factor."""
    if isinstance(space, ProductSpace):
        if isinstance(selector, list):
            return product_geodesic(space, x, y, selectors=selector, cfg=cfg)
        if selector not in (None, "affine"):
            raise ValueError(f"a product geodesic takes a list of factor selectors, "
                             f"got {selector!r}")
        return product_geodesic(space, x, y, cfg=cfg)
    return factor_geodesic(space, x, y, selector)


def midpoint(space: MetricSpace, x, y, cfg=None):
    g = geodesic_between(space, x, y, cfg=cfg)
    return g.at(g.length / 2.0)


def geodesy_test(space: MetricSpace, geo: Geodesic, grid: int = 64,
                 cfg=None) -> ValidationReport:
    """Definitional check: distances along the path equal parameter gaps."""
    cfg = cfg or DEFAULT_SAMPLES
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
                             cfg=None) -> ValidationReport:
    """Factor distances along a product geodesic grow proportionally: the
    i-th component at parameter t sits at fraction t/D of its factor
    distance."""
    cfg = cfg or DEFAULT_SAMPLES
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


def uniqueness_probe(prod: ProductSpace, x, y, selector_sets=None, grid: int = 64,
                     perturbations: int = 64, seed: int = 0, cfg=None) -> ValidationReport:
    """Search for distinct geodesics between two product points.

    Candidates come from three sources: explicit selector sets, corner
    routes through per-factor via points, and a midpoint perturbation
    search (alternative midpoints at distance D/2 from both endpoints
    induce two-segment geodesics).  The verdict is pass when every
    candidate coincides with the default geodesic on the grid: no sup
    distance above ``1e-6 * max(1, D)``.
    """
    cfg = cfg or DEFAULT_SAMPLES
    d = prod.distance(x, y)
    tol = cfg.tol.scaled(d)
    threshold = 1e-6 * max(1.0, d)
    base = product_geodesic(prod, x, y, cfg=cfg)
    if d <= tol:
        return ValidationReport("unique-geodesic", PASS, 1, 0.0, None,
                                {"reason": "degenerate endpoints"})
    candidates = [base]

    for sel in selector_sets or []:
        if isinstance(sel, dict):
            candidates.append(product_geodesic(
                prod, x, y, selectors=sel.get("factor_selectors"),
                via=sel.get("via"), cfg=cfg))
        else:
            candidates.append(product_geodesic(prod, x, y, selectors=sel, cfg=cfg))

    # corner routes: finish one subset of the factors first
    n = len(prod.factors)
    for mask in range(1, 2**n - 1):
        via = tuple(y[i] if mask >> i & 1 else x[i] for i in range(n))
        d1 = prod.distance(x, via)
        d2 = prod.distance(via, y)
        if tol < d1 and tol < d2 and abs(d1 + d2 - d) <= tol:
            candidates.append(product_geodesic(prod, x, y, via=via, cfg=cfg))

    # midpoint perturbation search
    mid = base.at(d / 2.0)
    n = prod.coord_dim
    rng = rng_stream(seed, 41)
    accepted = 0
    if n is not None:
        directions = _coordinate_directions(n)
        while len(directions) < perturbations:
            directions.append(rng.normal(size=n))
        for vec in directions[:perturbations]:
            probe = prod.offset(mid, vec, 1.0)
            width = prod.distance(mid, probe)
            if width <= tol:
                continue
            for delta in (d / 4.0, d / 32.0):
                cand = prod.offset(mid, vec, delta / width)
                if prod.distance(mid, cand) <= tol:
                    continue
                # half the via tolerance so the two half-distances cannot
                # jointly overshoot the concatenation check
                if abs(prod.distance(x, cand) - d / 2.0) <= 0.5 * tol and \
                   abs(prod.distance(cand, y) - d / 2.0) <= 0.5 * tol:
                    candidates.append(product_geodesic(prod, x, y, via=cand, cfg=cfg))
                    accepted += 1
                    break

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
                             cfg=None) -> ValidationReport:
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
    cfg = cfg or DEFAULT_SAMPLES
    fine = 2 * grid - 1
    u = np.linspace(0.0, 1.0, fine)
    p1, p2 = g1.at_many(u * g1.length), g2.at_many(u * g2.length)
    ii, jj = np.divmod(np.arange(fine * fine), fine)
    dmat = space.distance_batch(space.take(p1, ii), space.take(p2, jj)).reshape(fine, fine)
    even = dmat[::2, ::2]                            # values at grid points
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
                          radius: float = 5.0, triangles=None, cfg=None) -> ValidationReport:
    """Euclidean comparison of geodesic midpoints (the flat case).

    For each triangle (p, q, r): the distance from p to the geodesic
    midpoint of q and r must not exceed the corresponding median of the
    Euclidean triangle with the same side lengths.  Curvature comparison
    for nonzero bounds is out of scope.
    """
    cfg = cfg or DEFAULT_SAMPLES
    if triangles is None:
        ps = space.sample_points(count, [seed, 7], radius)
        qs = space.sample_points(count, [seed, 8], radius)
        rs = space.sample_points(count, [seed, 9], radius)
        triangles = list(zip(ps, qs, rs))
    checked, margins = [], []     # (p, q, r, midpoint, sides, comparison) per margin
    scale = 1.0
    for p, q, r in triangles:
        a = space.distance(p, q)
        b = space.distance(p, r)
        c = space.distance(q, r)
        scale = max(scale, a, b, c)
        slack = cfg.tol.scaled(a, b, c)
        if c > a + b + slack or a > b + c + slack or b > a + c + slack:
            continue
        m = midpoint(space, q, r, cfg=cfg)
        comparison = math.sqrt(max(0.0, (2 * a * a + 2 * b * b - c * c) / 4.0))
        margins.append(space.distance(p, m) - comparison)
        checked.append((p, q, r, m, [a, b, c], comparison))
    tol = cfg.tol.scaled(scale)
    details = {"skipped_degenerate": len(triangles) - len(checked), "tolerance": tol}
    margin, witness, verdict = 0.0, None, UNDETERMINED
    if margins:
        k, verdict = worst(margins, tol)
        p, q, r, m, sides, comparison = checked[k]
        margin = float(margins[k])
        witness = {"p": space.point_to_json(p), "q": space.point_to_json(q),
                   "r": space.point_to_json(r), "midpoint": space.point_to_json(m),
                   "sides": sides, "comparison": comparison}
    else:
        details["reason"] = "every triangle degenerate" if triangles else "no triangles"
    return ValidationReport("cat0-four-point", verdict, len(checked), margin, witness, details)
