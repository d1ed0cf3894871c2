import math

import numpy as np
import pytest

from metricprod import curves
from metricprod.reports import worst
from metricprod import (
    Curve,
    GluingFunction,
    LpSpace,
    ProductSpace,
    RealLine,
    Tolerances,
    ValidationReport,
    arclength_check,
    circle_arc,
    curve_length,
    non_length_space_demo,
    polyline,
    product_curve,
    product_curve_length_check,
    segment,
    tau_len,
    warped,
)


def plane(phi=None):
    return ProductSpace((RealLine(), RealLine()),
                        phi or GluingFunction.euclidean((1.0, 1.0)))


def test_unit_segment_exact_at_every_depth():
    seg = segment(0.0, 1.0)
    for depth in (1, 4, 8):
        res = curve_length(RealLine(), seg, depth)
        assert res.length == 1.0
        assert res.trace == [1.0] * (depth + 1)


def test_quarter_circle_length():
    # oracle: the analytic arclength pi/2; inscribed chords approach from below
    arc = circle_arc((0.0, 0.0), 1.0, 0.0, math.pi / 2)
    res = curve_length(LpSpace(2, 2.0), arc, depth=12)
    assert abs(res.length - math.pi / 2) < 1e-4
    assert res.length <= math.pi / 2 + 1e-12


def test_taxicab_corner_polyline():
    prod = plane(GluingFunction.sum(2))
    path = polyline(prod, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    res = curve_length(prod, path, depth=10)
    assert res.length == pytest.approx(2.0, abs=1e-12)


def test_refinement_trace_monotone_and_bounded_below_by_chord():
    rng = np.random.default_rng(3)
    prod = plane(GluingFunction.lp(2, 3.0))
    for _ in range(20):
        pts = [tuple(rng.uniform(-5, 5, 2)) for _ in range(4)]
        path = polyline(prod, pts)
        res = curve_length(prod, path, depth=8)
        chord = prod.distance(pts[0], pts[-1])
        for a, b in zip(res.trace, res.trace[1:]):
            assert b >= a - Tolerances().scaled(a)
        for level in res.trace:
            assert level >= chord - Tolerances().scaled(chord)


def test_divergence_factor_rule(monkeypatch):
    # a full circle's trace converges to 2 pi, and its chord scale is 2 (two diameters at
    # level 1), so only a factor below pi flags it
    circle = circle_arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)
    monkeypatch.setattr(curves, "DIVERGENCE_FACTOR", 3.0)
    assert curve_length(LpSpace(2, 2.0), circle, depth=12).diverged
    monkeypatch.setattr(curves, "DIVERGENCE_FACTOR", 1e6)
    assert not curve_length(LpSpace(2, 2.0), circle, depth=12).diverged


def test_growth_rule_reads_a_doubling_trace_as_still_growing():
    # every chord of every level is 1, so the trace doubles at every level: 16x over the
    # last four, far past the factor rule's reach (the chord scale is 1, the factor 1e6)
    prod = plane(GluingFunction.two_valued(2))
    path = segment((0.0, 0.0), (1.0, 0.0))
    for depth in (5, 8, 12):
        res = curve_length(prod, path, depth)
        assert res.still_growing and not res.diverged
        assert res.trace == [2.0**d for d in range(depth + 1)]
    # at depth 4 the window would reach trace[0]; the chord scale alone decides there
    res = curve_length(prod, path, depth=4)
    assert not res.still_growing and not res.diverged


def test_growth_rule_passes_converging_traces():
    # a polyline whose corners fall off the dyadic grid: its trace can still grow by half
    # over the last four of five levels, but its increments shrink as it converges
    prod = plane(GluingFunction.lp(2, 3.0))
    rng = np.random.default_rng(5)
    grew = 0
    for _ in range(20):
        path = polyline(prod, [tuple(rng.uniform(-5, 5, 2)) for _ in range(5)])
        res = curve_length(prod, path, depth=5)
        assert not res.still_growing and not res.diverged
        grew += res.trace[-1] > 1.5 * res.trace[-5]
    assert grew >= 5


def test_unresolved_corners_read_as_not_converged():
    # 200 corners, 256 chords: the trace is still growing at depth 8, and the curve is
    # rectifiable, so the length is unknown there, not diverged; at depth 12 it settles
    rng = np.random.default_rng(0)
    prod = plane()
    pts = [tuple(rng.uniform(-5, 5, 2)) for _ in range(200)]
    path = polyline(prod, pts)
    res = curve_length(prod, path, depth=8)
    assert res.still_growing and not res.diverged
    rep = arclength_check(prod, path, depth=8)
    assert rep.verdict == "undetermined" and rep.details == {"reason": "trace not converged"}
    res = curve_length(prod, path, depth=12)
    assert not res.still_growing and not res.diverged
    assert res.length == pytest.approx(sum(prod.distance(a, b) for a, b in zip(pts, pts[1:])),
                                       rel=0.02)


def per_level_trace(space, curve, depth):
    """Reference: one take and one distance_batch per dyadic level."""
    n = 2**depth
    pts = curve.at_many(np.linspace(0.0, 1.0, n + 1))
    trace = []
    for d in range(depth + 1):
        idx = np.arange(0, n + 1, 2 ** (depth - d))
        trace.append(float(space.distance_batch(space.take(pts, idx[:-1]),
                                                space.take(pts, idx[1:])).sum()))
    return trace


@pytest.mark.parametrize("depth", [1, 4, 9, 12])
def test_curve_length_is_one_distance_pass(monkeypatch, depth):
    rng = np.random.default_rng(depth)
    cases = [(plane(GluingFunction.lp(2, 1.5)),
              polyline(plane(GluingFunction.lp(2, 1.5)),
                       [tuple(rng.uniform(-5, 5, 2)) for _ in range(6)])),
             (LpSpace(2, 3.0), circle_arc((0.5, -1.0), 2.0, 0.3, 5.0)),
             (RealLine(), polyline(RealLine(), list(rng.uniform(-5, 5, 7))))]
    for space, curve in cases:
        expected = per_level_trace(space, curve, depth)
        calls = []
        kind = type(space)
        batch = kind.distance_batch
        monkeypatch.setattr(kind, "distance_batch",
                            lambda self, xs, ys: calls.append(1) or batch(self, xs, ys))
        res = curve_length(space, curve, depth)
        monkeypatch.undo()
        assert res.trace == expected and res.length == expected[-1]
        assert len(calls) == 1


def test_nearly_closed_curve_not_flagged():
    # the chord and the two-piece sum are both about 1e-12; the mean chord at
    # four pieces is 1, and the length is 4, not a divergence
    path = polyline(RealLine(), [0.0, 1.0, 0.0, 1.0, 1e-12])
    res = curve_length(RealLine(), path, depth=8)
    assert not res.diverged
    assert res.length == pytest.approx(4.0)
    assert arclength_check(RealLine(), path).passed


def test_tau_len_reads_arrays_as_scalars():
    assert tau_len(3, 16.0) == 2.0
    assert tau_len(3, 0.0) == curves.LEN_FLOOR
    assert np.array_equal(tau_len(3, np.array([16.0, 0.0])), [2.0, curves.LEN_FLOOR])


def test_closed_curve_not_flagged():
    circle = circle_arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)
    res = curve_length(LpSpace(2, 2.0), circle, depth=10)
    assert not res.diverged
    assert res.length == pytest.approx(2 * math.pi, abs=1e-3)


def test_product_length_345():
    rep = product_curve_length_check(plane(), [segment(0.0, 3.0), segment(0.0, 4.0)],
                                     depth=12)
    assert rep.passed
    assert rep.witness["measured"] == pytest.approx(5.0, abs=1e-6)


def test_product_length_sum_is_seven():
    prod = plane(GluingFunction.sum(2))
    rep = product_curve_length_check(prod, [segment(0.0, 3.0), segment(0.0, 4.0)],
                                     depth=12)
    assert rep.passed
    # independent confirmation by the refinement trace of the product curve
    measured = curve_length(prod, product_curve([segment(0.0, 3.0), segment(0.0, 4.0)]), 12)
    assert measured.length == pytest.approx(7.0, abs=1e-9)
    assert rep.witness["expected"] == pytest.approx(7.0)


def test_product_length_with_constant_component():
    phi = GluingFunction.euclidean((1.0, 4.0))
    prod = plane(phi)
    rep = product_curve_length_check(prod, [segment(0.0, 3.0), segment(1.0, 1.0)],
                                     depth=10)
    assert rep.passed
    # homogeneity on the axis: glued length is 3 * axis value of the gluing
    assert rep.witness["expected"] == pytest.approx(3.0 * phi.axis_value(0))


def test_product_length_undetermined_for_warped_component():
    prod = plane()
    bad = warped(segment(0.0, 3.0), lambda t: t**2)
    rep = product_curve_length_check(prod, [bad, segment(0.0, 4.0)], depth=10)
    assert rep.verdict == "undetermined"
    assert rep.details["reason"] == "component not constant-speed"
    # the record carries the component's arclength witness and margin
    own = arclength_check(RealLine(), bad, grid=16, depth=7)
    assert own.failed
    assert rep.witness == {"component": 0, **own.witness}
    assert rep.margin == own.margin


def test_product_length_identity_over_random_polylines():
    # dyadic-aligned constant-speed polylines make the dyadic sums exact
    rng = np.random.default_rng(7)
    line = RealLine()
    gluings = [GluingFunction.euclidean((1.0, 1.0)), GluingFunction.sum(2),
               GluingFunction.max(2), GluingFunction.lp(2, 1.5),
               GluingFunction.lp(2, 3.0)]
    for trial in range(20):
        comps = []
        for _ in range(2):
            k = int(rng.choice([2, 4, 8]))
            steps = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0)
            pts = np.concatenate([[0.0], np.cumsum(steps)])
            comps.append(polyline(line, list(pts)))
        for phi in gluings:
            rep = product_curve_length_check(plane(phi), comps, depth=12)
            assert rep.passed, (trial, phi.label, rep.margin)


def replaced_product_length(prod, components, depth):
    """Reference: the product-length check that measured each component on its own
    and inside the product curve, as separate curve evaluations."""
    for i, (factor, comp) in enumerate(zip(prod.factors, components)):
        rep = arclength_check(factor, comp, grid=16, depth=7)
        if not rep.passed:
            return ValidationReport(
                "product-length", "undetermined", 0, rep.margin,
                {"component": i, **(rep.witness or {})},
                {**rep.details, "reason": "component not constant-speed"})
    lengths = np.array([curve_length(f, c, depth).length
                        for f, c in zip(prod.factors, components)])
    expected = float(prod.phi(lengths))
    measured = curve_length(prod, product_curve(components), depth)
    margin = abs(measured.length - expected)
    tol = tau_len(depth, measured.trace[0])
    return ValidationReport(
        "product-length", worst(margin, tol)[1], 2**depth, margin,
        {"factor_lengths": lengths, "expected": expected, "measured": measured.length},
        {"depth": depth, "tolerance": tol})


def product_length_cases():
    rng = np.random.default_rng(11)
    plane_lp = LpSpace(2, 3.0, (1.0, 2.0))
    walk = [tuple(p) for p in np.cumsum(rng.uniform(-1.0, 1.0, (6, 2)), axis=0)]
    zigzag = polyline(RealLine(), list(np.cumsum(rng.uniform(-1.0, 1.0, 7))))
    arc = circle_arc((0.5, -1.0), 2.0, 0.3, 2.9)
    inner = ProductSpace((RealLine(), RealLine()), GluingFunction.lp(2, 1.5))
    yield plane(GluingFunction.lp(2, 3.0)), [zigzag, segment(0.0, 4.0)]
    yield ProductSpace((plane_lp, RealLine()), GluingFunction.sum(2)), \
        [polyline(plane_lp, walk), zigzag]
    yield ProductSpace((LpSpace(2, 2.0), RealLine()), GluingFunction.max(2)), [arc, zigzag]
    yield ProductSpace((inner, RealLine()), GluingFunction.euclidean((1.0, 3.0))), \
        [product_curve([zigzag, segment(1.0, -2.0)]), segment(0.0, 4.0)]
    yield plane(GluingFunction.coordinate_power(2, 2.0)), [zigzag, segment(0.0, 4.0)]
    yield plane(), [segment(0.0, 3.0), warped(segment(0.0, 4.0), lambda t: t**2)]
    yield ProductSpace((RealLine(),), GluingFunction.lp(1, 3.0)), [zigzag]


@pytest.mark.parametrize("depth", [1, 5, 10, 11, 12, 13])
def test_product_length_is_the_separately_measured_reference(depth):
    """Reading the precondition, the factor lengths and the product chords off one
    evaluation of each component gives the records of separate evaluations."""
    for prod, comps in product_length_cases():
        rep = product_curve_length_check(prod, comps, depth)
        assert rep.to_record() == replaced_product_length(prod, comps, depth).to_record()


def test_product_length_evaluates_each_component_once():
    # on the finer of the depth's grid and the precondition's 16 x 2^7 steps
    for depth, points in ((8, 2**11 + 1), (13, 2**13 + 1)):
        calls = []
        seg = segment(0.0, 2.0)
        comps = [Curve(lambda ts, k=k: calls.append((k, len(ts))) or seg.at_many(ts))
                 for k in range(2)]
        assert product_curve_length_check(plane(), comps, depth).passed
        assert calls == [(0, points), (1, points)]
    # a depth below 1 is refused before any component is evaluated, warped or not
    calls.clear()
    for parts in (comps, [warped(comps[0], lambda t: t**2), comps[1]]):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            product_curve_length_check(plane(), parts, 0)
    assert calls == []


def test_arclength_check_constant_speed_segment():
    rep = arclength_check(RealLine(), segment(0.0, 2.0), grid=8, depth=8)
    assert rep.passed


def test_arclength_check_fails_for_quadratic_speed():
    rep = arclength_check(RealLine(), warped(segment(0.0, 2.0), lambda t: t**2),
                          grid=8, depth=8)
    assert rep.failed
    # restriction lengths scale like t^2, not t: margin is macroscopic
    assert rep.margin > 0.2


def test_arclength_check_constant_speed_zigzag():
    # every interval [i/8, j/8] holds whole chords of the same resolution, so
    # the lengths add up: [0, 0.875] measures 3.5, as expected
    zigzag = polyline(RealLine(), [0.0, 1.0, 0.0, 1.0, 0.0])
    rep = arclength_check(RealLine(), zigzag, grid=8, depth=8)
    assert rep.passed
    assert rep.details["total_length"] == 4.0


def test_arclength_check_evaluates_the_curve_twice_at_any_grid():
    # once for the dyadic trace, once for every chord of every interval
    for grid in (4, 9):
        calls = []
        seg = segment(0.0, 2.0)
        curve = Curve(lambda ts: calls.append(len(ts)) or seg.at_many(ts))
        assert arclength_check(RealLine(), curve, grid=grid, depth=5).passed
        assert calls == [2**5 + 1, grid * 2**5 + 1]


def test_arclength_check_product_of_segments():
    prod = plane(GluingFunction.lp(2, 3.0))
    curve = product_curve([segment(0.0, 3.0), segment(0.0, 4.0)])
    rep = arclength_check(prod, curve, grid=6, depth=8)
    assert rep.passed


def test_non_length_space_demo_diverges():
    rep = non_length_space_demo(depth=4)
    assert rep.passed
    assert rep.details["mode"] == "divergence"
    # straight path at depth 4: every one of the 16 steps costs at least 1
    prod = plane(GluingFunction.two_valued(2))
    res = curve_length(prod, segment((0.0, 0.0), (1.0, 0.0)), depth=4)
    assert res.trace[4] >= 16.0


def test_non_length_space_demo_depths_exact():
    rep = non_length_space_demo(depth=10, paths=4, seed=5)
    assert rep.passed
    assert rep.margin <= 0.0


def test_non_length_space_demo_identical_endpoints():
    rep = non_length_space_demo(depth=4, endpoints=((1.0, 2.0), (1.0, 2.0)))
    assert rep.passed
    assert rep.details["length"] == 0.0


@pytest.mark.parametrize("endpoints", [((0.0, 0.0), (math.inf, 0.0)),
                                       ((0.0, math.nan), (1.0, 0.0)),
                                       ((0.0, 0.0), (1.0, 0.0, 2.0)),
                                       ((0.0, 0.0),), ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))],
                         ids=["inf", "nan", "three-coordinates", "one-point", "three-points"])
def test_non_length_space_demo_refuses_bad_endpoints(endpoints):
    """Given from Python, the endpoints are checked before any path is sampled."""
    with pytest.raises(ValueError, match="endpoints must be two finite points"):
        non_length_space_demo(4, endpoints)


@pytest.mark.parametrize("paths", [0, -2])
def test_non_length_space_demo_refuses_fewer_than_one_path(paths):
    with pytest.raises(ValueError, match="paths must be >= 1"):
        non_length_space_demo(depth=4, paths=paths)


def test_non_length_space_demo_one_path_is_the_segment():
    rep = non_length_space_demo(depth=4, paths=1)
    assert rep.passed
    assert rep.details["paths"] == 1


def test_non_length_space_demo_degenerate_offset():
    rep = non_length_space_demo(depth=4, endpoints=((0.0, 0.0), (1e-12, 0.0)))
    assert rep.verdict == "undetermined"


def test_polyline_needs_interpolation_support():
    from metricprod import DiscreteSpace
    with pytest.raises(ValueError):
        polyline(DiscreteSpace(3), [0, 1, 2])


def test_polyline_constant_speed_parameterization():
    path = polyline(RealLine(), [0.0, 3.0, 4.5], constant_speed=True)
    # breakpoint sits at parameter 2/3 of the total length 4.5
    assert path.at(2.0 / 3.0) == pytest.approx(3.0)
    rep = arclength_check(RealLine(), path, grid=6, depth=8)
    assert rep.passed


def test_curve_construction_evaluates_nothing():
    calls = []
    seg = segment(0.0, 2.0)
    curve = warped(Curve(lambda ts: calls.append(len(ts)) or seg.at_many(ts)),
                   lambda t: 0.25 + 0.5 * t)
    assert calls == []
    res = curve_length(RealLine(), curve, depth=4)
    assert calls == [17]
    assert res.length == pytest.approx(1.0)


def test_circle_arc_needs_a_planar_center():
    for center in ((0.0, 0.0, 5.0), (1.0,)):
        with pytest.raises(ValueError):
            circle_arc(center, 1.0, 0.0, math.pi)
