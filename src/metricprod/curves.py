"""Curves, subdivision length, and the product-length check.

Length is computed as the limit of sums of chord distances over uniform
dyadic subdivisions.  The triangle inequality makes these sums nondecreasing
under refinement, so the dyadic limit equals the supremum over all
subdivisions for continuous curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .gluing import GluingFunction, judge
from .product import ProductSpace
from .reports import FAIL, PASS, UNDETERMINED, Tolerances, ValidationReport, worst
from .sampling import ZERO_FLOOR, rng_stream
from .spaces import RealLine, lerp, point_at, stack

LEN_FLOOR = 1e-6
DIVERGENCE_FACTOR = 1e6


def tau_len(depth: int, first_level):
    """Length tolerance at a dyadic depth; the chord scale decays linearly
    in the step count, floored at LEN_FLOOR.  ``first_level`` may be an array."""
    return np.maximum(LEN_FLOOR, np.asarray(first_level, float) / 2**depth)


class Curve:
    """Parameterized path into some metric space.

    The evaluator is vectorized: it maps an array of parameters to a batch
    of points (see :mod:`metricprod.spaces` for the batch format).  Curves
    built here run over [0, 1]; geodesics run over [0, length].
    """

    def __init__(self, evaluator: Callable[[np.ndarray], Any]):
        self.evaluator = evaluator

    def at_many(self, ts) -> Any:
        return self.evaluator(np.asarray(ts, float))

    def at(self, t: float):
        return point_at(self.at_many(np.array([float(t)])), 0)


def segment(x, y) -> Curve:
    """Affine segment between two coordinate (or tuple) points."""
    a, b = stack([x]), stack([y])
    return Curve(lambda ts: lerp(a, b, ts))


def polyline(space, points, constant_speed: bool = True) -> Curve:
    """Piecewise-affine path through the given breakpoints.

    With ``constant_speed`` the parameter is proportional to arclength in
    the given space, so the result is parameterized by (scaled) arclength.
    """
    if space.coord_dim is None:
        raise ValueError(f"{space.name} does not support interpolated curves")
    pts = [space.check(p) for p in points]
    if len(pts) < 2:
        raise ValueError("polyline needs at least two breakpoints")
    stacked = space.stack(pts)
    if constant_speed:
        idx = np.arange(len(pts))
        seglens = space.distance_batch(space.take(stacked, idx[:-1]), space.take(stacked, idx[1:]))
        keep = seglens > 0
        if not keep.any():
            return segment(pts[0], pts[0])
        stacked = space.take(stacked, np.concatenate([[0], idx[1:][keep]]))
        seglens = seglens[keep]
        knots = np.concatenate([[0.0], np.cumsum(seglens)]) / seglens.sum()
    else:
        knots = np.linspace(0.0, 1.0, len(pts))

    def evaluator(ts, nseg=len(knots) - 1):
        ts = np.clip(ts, 0.0, 1.0)
        seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, nseg - 1)
        u = (ts - knots[seg]) / (knots[seg + 1] - knots[seg])
        return space.lerp(space.take(stacked, seg), space.take(stacked, seg + 1), u)

    return Curve(evaluator)


def circle_arc(center, radius: float, angle_start: float, angle_end: float) -> Curve:
    """Constant-speed circular arc in a 2-d coordinate space."""
    cx, cy = map(float, center)     # a center of other than two coordinates is refused
    if not np.isfinite([cx, cy, radius, angle_start, angle_end]).all():
        raise ValueError("circle-arc center, radius and angles must be finite")

    def evaluator(ts):
        theta = angle_start + np.asarray(ts, float) * (angle_end - angle_start)
        return np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])

    return Curve(evaluator)


def product_curve(components: list[Curve]) -> Curve:
    """Synchronized tuple of component curves over the shared parameter."""
    comps = list(components)
    return Curve(lambda ts: tuple(c.at_many(ts) for c in comps))


def warped(curve: Curve, warp: Callable[[np.ndarray], np.ndarray]) -> Curve:
    """Reparameterize a curve by a (vectorized) warp of [0, 1]."""
    return Curve(lambda ts: curve.at_many(warp(ts)))


@dataclass
class LengthResult:
    """Length estimate at the finest dyadic level plus the refinement trace.

    ``trace[d]`` is the chord sum over 2^d uniform segments.  ``diverged``
    flags traces that blow past DIVERGENCE_FACTOR times the chord scale, which
    signals a non-rectifiable path rather than an error.  ``still_growing``
    flags traces that (from depth 5) still grow past 1.5 times their value four
    levels up without slowing down: such a trace has not converged, which a
    non-rectifiable path and a rectifiable one with corners the window does not
    yet resolve share, so it is no evidence either way.
    """

    length: float
    trace: list[float]
    diverged: bool
    still_growing: bool

    def trace_drop(self, tol: Tolerances) -> tuple[float, str]:
        """Largest drop of the trace under refinement, and its verdict: refinement cannot
        shorten a dyadic trace (triangle inequality), so a drop is kernel error."""
        drops = -np.diff(self.trace)
        i, verdict = worst(drops, tol.scaled(*self.trace))
        return float(drops[i]), verdict


def curve_length(space, curve: Curve, depth: int = 12) -> LengthResult:
    """Dyadic subdivision length of a curve in the given space."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pts = curve.at_many(np.linspace(0.0, 1.0, 2**depth + 1))
    return _length(_dyadic_chords(space, pts, depth), depth)


def _dyadic_chords(space, pts, depth: int) -> np.ndarray:
    """The chords of every dyadic level to ``depth`` in one batch, from the points at
    the ``2^depth + 1`` uniform parameters: level d's chords are ``[2^d - 1, 2^(d+1) - 1)``."""
    idx = [np.arange(0, 2**depth + 1, 2 ** (depth - d)) for d in range(depth + 1)]
    return space.distance_batch(space.take(pts, np.concatenate([i[:-1] for i in idx])),
                                space.take(pts, np.concatenate([i[1:] for i in idx])))


def _length(chords: np.ndarray, depth: int) -> LengthResult:
    """Length and trace read from the chords of the dyadic levels up to ``depth``."""
    trace = [float(chords[2**d - 1:2 ** (d + 1) - 1].sum()) for d in range(depth + 1)]
    # the chord scale is the largest mean chord of any level: the first
    # levels alone degenerate for closed and nearly closed curves
    scale = max(t / 2**d for d, t in enumerate(trace))
    diverged = scale > 0 and trace[-1] > DIVERGENCE_FACTOR * scale
    # a converging trace has shrinking increments; one still growing past 1.5 times its
    # value four levels up, a quarter of that rise or more in the last level, has not
    # converged.  At depth 4 that window would reach trace[0], near 0 on a closed curve
    growing = False
    if depth > 4:
        rise = trace[-1] - trace[-5]
        growing = trace[-1] > 1.5 * trace[-5] and trace[-1] - trace[-2] >= rise / 4
    return LengthResult(trace[-1], trace, diverged, growing)


#: The product-length precondition is :func:`arclength_check` at this grid and depth;
#: its 16 * 2^7 steps are the chords of dyadic level 11.
COMPONENT_GRID, COMPONENT_DEPTH, COMPONENT_LEVEL = 16, 7, 11


def product_curve_length_check(prod, components: list[Curve], depth: int = 12,
                               tol: Tolerances = Tolerances()) -> ValidationReport:
    """Product curve length must equal the gluing of the factor lengths.

    Components must be (scaled-)arclength parameterized in their factors: a
    component that :func:`arclength_check` does not pass yields an
    undetermined verdict with that check's witness, not a failure.  Each
    component is evaluated once, on the dyadic grid of the finer of ``depth`` and
    the precondition's level, and its chords there serve the precondition and its
    factor length; the product chords are the gluing of the factor chords, as a
    product batch distance is.
    """
    if len(components) != len(prod.factors):
        raise ValueError("one component curve per factor required")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # the dyadic parameters are exact, so a coarser level's are every 2^k-th of these
    level = max(depth, COMPONENT_LEVEL)
    pts = [comp.at_many(np.linspace(0.0, 1.0, 2**level + 1)) for comp in components]
    chords = [_dyadic_chords(f, p, level) for f, p in zip(prod.factors, pts)]
    for i, (factor, p, c) in enumerate(zip(prod.factors, pts, chords)):
        cuts = factor.take(p, np.arange(0, 2**level + 1, 2**level // COMPONENT_GRID))
        rep = _arclength(factor, _length(c, COMPONENT_DEPTH),
                         c[2**COMPONENT_LEVEL - 1:2 ** (COMPONENT_LEVEL + 1) - 1], cuts,
                         COMPONENT_GRID, COMPONENT_DEPTH, tol)
        if not rep.passed:
            return ValidationReport(
                "product-length", UNDETERMINED, 0, rep.margin,
                {"component": i, **(rep.witness or {})},
                {**rep.details, "reason": "component not constant-speed"})
    lengths = np.array([_length(c, depth).length for c in chords])
    expected = float(prod.phi(lengths))
    glued = prod.phi(np.column_stack([c[:2 ** (depth + 1) - 1] for c in chords]))
    measured = _length(np.asarray(glued, float), depth)
    tol = tau_len(depth, measured.trace[0])
    # one margin, so a one-row field: factor_lengths stays a list for one factor too
    witness = {"factor_lengths": lengths[None], "expected": expected, "measured": measured.length}
    return judge("product-length", [(abs(measured.length - expected), witness)], 2**depth, tol,
                 depth=depth, tolerance=tol)


def arclength_check(space, curve: Curve, grid: int = 8, depth: int = 8,
                    tol: Tolerances = Tolerances()) -> ValidationReport:
    """Restriction lengths must scale linearly in the parameter interval.

    The length of ``[i/grid, j/grid]`` is a difference of prefix sums of one
    chord pass over ``grid * 2^depth`` uniform steps: one resolution for all.
    A grid below 2, which compares the whole curve with itself, is refused.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    total = curve_length(space, curve, depth)
    step = 2**depth
    pts = curve.at_many(np.linspace(0.0, 1.0, grid * step + 1))
    idx = np.arange(grid * step + 1)
    chords = space.distance_batch(space.take(pts, idx[:-1]), space.take(pts, idx[1:]))
    return _arclength(space, total, chords, space.take(pts, idx[::step]), grid, depth, tol)


def _arclength(space, total: LengthResult, chords: np.ndarray, cuts, grid: int, depth: int,
               tol: Tolerances) -> ValidationReport:
    """:func:`arclength_check` from the dyadic length at ``depth``, the ``grid * 2^depth``
    uniform chords and the ``grid + 1`` cut points."""
    if total.diverged or total.still_growing:
        reason = "curve appears non-rectifiable" if total.diverged else "trace not converged"
        return ValidationReport("arclength-parameterization", UNDETERMINED, 0, 0.0,
                                None, {"reason": reason})
    drop, verdict = total.trace_drop(tol)
    if verdict == FAIL:
        return ValidationReport("arclength-parameterization", FAIL, 0, drop,
                                {"trace": total.trace},
                                {"reason": "dyadic trace decreases under refinement"})
    prefix = np.concatenate([[0.0], np.cumsum(chords.reshape(grid, 2**depth).sum(axis=1))])
    i, j = np.triu_indices(grid + 1, 1)
    span = space.distance_batch(space.take(cuts, i), space.take(cuts, j))
    measured = prefix[j] - prefix[i]
    expected = (j - i) / grid * prefix[-1]
    margins = np.abs(measured - expected) - tau_len(depth, np.maximum(span, expected))
    witness = {"interval": (i / grid, j / grid), "measured": measured, "expected": expected}
    return judge("arclength-parameterization", [(margins, witness)], margins.size,
                 total_length=prefix[-1], depth=depth)


def non_length_space_demo(depth: int = 8, endpoints=((0.0, 0.0), (1.0, 0.0)),
                          paths: int = 5, seed: int = 0) -> ValidationReport:
    """Two-valued gluing of two lines: path length diverges, so the product
    is not a length space.

    Every dyadic step that moves in the first coordinate has product
    distance at least 1, so each subdivision sum at depth d is at least
    2^d.  The bound is exact integer arithmetic, no tolerance involved.
    """
    prod = ProductSpace((RealLine(), RealLine()), GluingFunction.two_valued(2))
    try:
        ends = np.asarray(endpoints, float)
    except (TypeError, ValueError):                 # ragged, or not numbers
        ends = np.empty(0)
    if ends.shape != (2, 2) or not np.isfinite(ends).all():
        raise ValueError(f"endpoints must be two finite points of the plane, got {endpoints!r}")
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    a, b = (tuple(map(float, end)) for end in ends)
    if a == b:
        return ValidationReport("non-length-space-demo", PASS, 0, 0.0,
                                {"endpoints": [a, b]},
                                {"mode": "identical-endpoints", "length": 0.0})
    if abs(a[0] - b[0]) <= ZERO_FLOOR:
        return ValidationReport("non-length-space-demo", UNDETERMINED, 0, 0.0,
                                {"endpoints": [a, b]},
                                {"reason": "first coordinates not distinct beyond tolerance"})

    rng = rng_stream(seed, 31)
    family = [segment(a, b)]
    lo, hi = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
    for _ in range(paths - 1):
        k = int(rng.integers(1, 4))
        xs = np.sort(rng.uniform(lo, hi, k))
        ys = rng.uniform(min(a[1], b[1]) - 1.0, max(a[1], b[1]) + 1.0, k)
        mids = list(zip(xs, ys)) if a[0] < b[0] else list(zip(xs[::-1], ys))
        pts = [a] + [(float(x), float(y)) for x, y in mids] + [b]
        family.append(polyline(prod, pts, constant_speed=False))

    # sums[path, d - 1] is the subdivision sum at depth d, bounded below by 2^d
    sums = np.array([curve_length(prod, path, depth).trace[1:] for path in family])
    slack = 2.0 ** np.arange(1, depth + 1) - sums
    path, d = np.unravel_index(np.arange(slack.size), slack.shape)
    witness = {"path": path, "depth": d + 1, "subdivision_sum": sums.ravel(),
               "lower_bound": 2 ** (d + 1)}
    return judge("non-length-space-demo", [(slack, witness)], slack.size,
                 mode="divergence", max_depth=depth, paths=len(family))
