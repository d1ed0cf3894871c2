import math
import tracemalloc

import numpy as np
import pytest

from metricprod import (
    DiscreteSpace,
    Geodesic,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
    busemann_convexity_check,
    cat0_four_point_check,
    component_progress_check,
    counterexample_geodesic,
    geodesic_between,
    geodesy_test,
    midpoint,
    product_geodesic,
    uniqueness_probe,
)
from metricprod import gluing

def plane(phi=None):
    return ProductSpace((RealLine(), RealLine()),
                        phi or GluingFunction.euclidean((1.0, 1.0)))


def test_line_geodesic():
    g = geodesic_between(RealLine(), 0.0, 5.0)
    assert g.length == 5.0
    for t in (0.0, 1.5, 5.0):
        assert g.at(t) == pytest.approx(t)


def test_half_line_geodesic_descending():
    g = geodesic_between(HalfLine(), 2.0, 0.0)
    assert g.at(1.0) == pytest.approx(1.0)
    assert geodesy_test(HalfLine(), g, grid=32).passed


def test_l1_corner_geodesic():
    space = LpSpace(2, 1.0)
    g = geodesic_between(space, (0.0, 0.0), (1.0, 1.0), selector=("corner", 0))
    assert g.length == 2.0
    assert g.at(1.0) == pytest.approx((1.0, 0.0))  # route passes the corner
    assert geodesy_test(space, g, grid=64).passed


def test_linf_wander_geodesic():
    space = LpSpace(2, math.inf)
    g = geodesic_between(space, (0.0, 0.0), (1.0, 0.0), selector=("corner", 1))
    assert geodesy_test(space, g, grid=64).passed
    assert abs(g.at(0.5)[1]) > 0.1  # the second coordinate actually wanders


def test_affine_segment_in_euclidean_plane_is_geodesic():
    space = LpSpace(2, 2.0)
    g = geodesic_between(space, (0.0, 1.0), (3.0, -2.0))
    assert geodesy_test(space, g, grid=64).passed


def test_synchronized_product_geodesic_for_sum_and_max():
    for phi in (GluingFunction.sum(2), GluingFunction.max(2)):
        prod = plane(phi)
        g = product_geodesic(prod, (0.0, 1.0), (3.0, -2.0))
        assert geodesy_test(prod, g, grid=64).passed, phi.label


def test_corner_selector_invalid_for_strictly_convex():
    with pytest.raises(ValueError):
        geodesic_between(LpSpace(2, 2.0), (0.0, 0.0), (1.0, 1.0), selector=("corner", 0))


def test_non_geodesic_factor_rejected():
    with pytest.raises(ValueError):
        geodesic_between(DiscreteSpace(3), 0, 1)


def test_product_geodesic_euclidean_midpoint():
    g = product_geodesic(plane(), (0.0, 0.0), (3.0, 4.0))
    assert g.length == 5.0
    assert g.at(2.5) == pytest.approx((1.5, 2.0))
    assert geodesy_test(plane(), g, grid=64).passed


def test_product_geodesic_sum_half_lines():
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))
    g = product_geodesic(prod, (1.0, 0.0), (0.0, 1.0))
    assert g.length == 2.0
    assert g.at(1.0) == pytest.approx((0.5, 0.5))
    assert geodesy_test(prod, g, grid=64).passed


def test_product_geodesic_degenerate():
    g = product_geodesic(plane(), (1.0, 1.0), (1.0, 1.0))
    assert g.length == 0.0
    assert g.at(0.0) == pytest.approx((1.0, 1.0))


def count_distance_batches(spaces):
    """Wrap each space's ``distance_batch`` with a counter; return the counts by name."""
    counts = dict.fromkeys(spaces, 0)

    def counting(name, measure):
        def wrapped(xs, ys):
            counts[name] += 1
            return measure(xs, ys)
        return wrapped

    for name, space in spaces.items():
        space.distance_batch = counting(name, space.distance_batch)
    return counts


@pytest.mark.parametrize("nested", [False, True], ids=["line-x-plane", "nested"])
def test_default_product_geodesic_measures_each_factor_length_once(nested):
    """One ``distance_batch`` for the product distance (which measures every factor once)
    and one per factor for the route's factor lengths; the route's name is read off those
    lengths, not measured again.  A nested product's route measures its own factors again."""
    line, lp_plane = RealLine(), LpSpace(2, 1.5)
    spaces = {"line": line, "plane": lp_plane}
    if nested:
        spaces["inner"] = ProductSpace((line, lp_plane), GluingFunction.sum(2))
        spaces["outer"] = RealLine()
        spaces["prod"] = ProductSpace((spaces["inner"], spaces["outer"]),
                                      GluingFunction.euclidean((1.0, 2.0)))
        x, y = ((0.0, np.zeros(2)), 1.0), ((1.0, np.array([2.0, 1.0])), -2.0)
        expected = {"line": 3, "plane": 3, "inner": 2, "outer": 2, "prod": 1}
    else:
        spaces["prod"] = ProductSpace((line, lp_plane), GluingFunction.euclidean((1.0, 1.0)))
        x, y = (0.0, np.zeros(2)), (1.0, np.array([2.0, 1.0]))
        expected = {"line": 2, "plane": 2, "prod": 1}
    counts = count_distance_batches(spaces)
    g = product_geodesic(spaces["prod"], x, y)
    assert counts == expected
    assert g.descriptor == ("sync[sync[affine,affine],affine]" if nested
                            else "sync[affine,affine]")


def test_product_geodesic_refuses_non_norm_gluing():
    prod = plane(GluingFunction.two_valued(2))
    with pytest.raises(ValueError):
        product_geodesic(prod, (0.0, 0.0), (1.0, 1.0))


def test_product_geodesic_refuses_non_geodesic_factor():
    prod = ProductSpace((RealLine(), DiscreteSpace(3)), GluingFunction.sum(2))
    with pytest.raises(ValueError):
        product_geodesic(prod, (0.0, 0), (1.0, 1))


def test_geodesy_detects_warped_parameterization():
    # quadratic-speed path: chord and parameter gap disagree
    bad = Geodesic(RealLine(), 0.0, 1.0, 1.0,
                   lambda ts: (np.asarray(ts, float)) ** 2, descriptor="warped")
    rep = geodesy_test(RealLine(), bad, grid=32)
    assert rep.failed


def test_counterexample_line_passes_geodesy():
    geo = counterexample_geodesic(5.0)
    rep = geodesy_test(geo.space, geo, grid=64)
    assert rep.passed


def test_component_progress_identity():
    prod = plane(GluingFunction.lp(2, 1.5))
    g = product_geodesic(prod, (0.0, 1.0), (4.0, -2.0))
    rep = component_progress_check(prod, g, grid=64)
    assert rep.passed
    assert rep.margin <= 1e-9 * max(1.0, g.length)


def test_uniqueness_euclidean():
    rep = uniqueness_probe(plane(), (0.0, 0.0), (1.0, 1.0), seed=0)
    assert rep.passed


def test_uniqueness_fails_for_sum_with_two_witnesses():
    prod = plane(GluingFunction.sum(2))
    rep = uniqueness_probe(prod, (0.0, 0.0), (1.0, 1.0), seed=0)
    assert rep.failed
    assert rep.witness["sup_distance"] > 0.1
    assert len(rep.witness["geodesics"]) == 2


def test_uniqueness_fails_for_max_via_wander():
    prod = plane(GluingFunction.max(2))
    rep = uniqueness_probe(prod, (0.0, 0.0), (1.0, 0.0), seed=0)
    assert rep.failed
    assert rep.witness["sup_distance"] > 0.1


def test_uniqueness_corner_routes_alone_find_the_l1_detour():
    prod = plane(GluingFunction.sum(2))
    rep = uniqueness_probe(prod, (0.0, 0.0), (1.0, 1.0), perturbations=0)
    assert rep.failed
    assert rep.witness["geodesics"][1] == "via([1.0, 0.0])"


def test_uniqueness_refuses_negative_perturbations(monkeypatch):
    # a negative count would slice the directions from their end; it is refused first
    calls = []
    original = ProductSpace.distance_batch
    monkeypatch.setattr(ProductSpace, "distance_batch",
                        lambda self, *args: calls.append(1) or original(self, *args))
    with pytest.raises(ValueError, match=r"^perturbations must be >= 0, got -3$"):
        uniqueness_probe(plane(), (0.0, 0.0), (1.0, 1.0), perturbations=-3)
    assert calls == []


def test_busemann_affine_segments_in_plane():
    space = LpSpace(2, 2.0)
    g1 = geodesic_between(space, (0.0, 0.0), (3.0, 0.0))
    g2 = geodesic_between(space, (0.0, 1.0), (1.0, 4.0))
    rep = busemann_convexity_check(space, g1, g2, grid=16)
    assert rep.passed


def test_busemann_product_geodesics_strictly_convex():
    rng = np.random.default_rng(2)
    for phi in (GluingFunction.euclidean((1.0, 1.0)), GluingFunction.lp(2, 3.0)):
        prod = plane(phi)
        for _ in range(5):
            a, b, c, d = (tuple(rng.uniform(-4, 4, 2)) for _ in range(4))
            g1 = product_geodesic(prod, a, b)
            g2 = product_geodesic(prod, c, d)
            rep = busemann_convexity_check(prod, g1, g2, grid=16)
            assert rep.passed, (phi.label, rep.margin)


def test_busemann_informational_for_corner_vs_diagonal():
    prod = plane(GluingFunction.sum(2))
    g1 = product_geodesic(prod, (0.0, 0.0), (1.0, 1.0))
    g2 = product_geodesic(prod, (0.0, 0.0), (1.0, 1.0), via=(1.0, 0.0))
    rep = busemann_convexity_check(prod, g1, g2, grid=16)
    assert rep.verdict in ("pass", "fail")
    assert math.isfinite(rep.margin)
    assert rep.details["scope"] == "global on the given geodesics"


def dense_busemann_margin(space, g1, g2, grid):
    """Reference: the grid**4 margin array of the check, reduced at once."""
    fine = 2 * grid - 1
    u = np.linspace(0.0, 1.0, fine)
    p1, p2 = g1.at_many(u * g1.length), g2.at_many(u * g2.length)
    ii, jj = np.meshgrid(np.arange(fine), np.arange(fine), indexing="ij")
    dmat = space.distance_batch(space.take(p1, ii.ravel()),
                                space.take(p2, jj.ravel())).reshape(fine, fine)
    s = np.add.outer(np.arange(grid), np.arange(grid))
    even = dmat[::2, ::2]
    margins = dmat[s[:, None, :, None], s[None, :, None, :]] - \
        0.5 * (even[:, :, None, None] + even[None, None, :, :])
    k = np.unravel_index(int(np.argmax(margins)), margins.shape)
    return float(margins[k]), [int(i) * (1.0 / (grid - 1)) for i in k]


def sup_norm_geodesics():
    space = LpSpace(2, math.inf)
    return space, [
        (geodesic_between(space, (0.0, 0.0), (2.0, 1.0), selector=("corner", 1)),
         geodesic_between(space, (0.0, 1.0), (3.0, 0.5), selector=("corner", 1))),
        (geodesic_between(space, (0.0, 0.0), (1.0, 0.0), selector=("corner", 1)),
         geodesic_between(space, (0.0, 0.0), (1.0, 0.0))),
        (geodesic_between(space, (0.0, 0.0), (1.0, 0.0)),     # parallel: ties everywhere
         geodesic_between(space, (0.0, 1.0), (1.0, 1.0))),
    ]


def dense_reference_cases():
    """(space, g1, g2) whose margins tie, reach a positive worst, or hold NaN."""
    space, pairs = sup_norm_geodesics()
    cases = [(space, g1, g2) for g1, g2 in pairs]
    taxi = plane(GluingFunction.sum(2))              # corner against diagonal: worst margin 1
    cases.append((taxi, product_geodesic(taxi, (0.0, 0.0), (1.0, 1.0)),
                  product_geodesic(taxi, (0.0, 0.0), (1.0, 1.0), via=(1.0, 0.0))))
    # at p = 1000, ends 10 apart overflow the length, so every point is NaN; on geodesics
    # of length 2 the cross distances past about 2.03 overflow, so dmat holds inf beside
    # finite values and the first NaN margin lies off the start
    big = LpSpace(2, 1000.0)
    for a, b, c, d in [((0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)),
                       ((0.0, 0.0), (2.0, 0.0), (0.5, 1.0), (2.5, 1.0))]:
        cases.append((big, geodesic_between(big, a, b), geodesic_between(big, c, d)))
    return cases


@pytest.mark.parametrize("grid", [2, 3, 5, 8, 16])
def test_busemann_matches_dense_reduction(grid):
    margins = []
    with np.errstate(all="ignore"):
        for space, g1, g2 in dense_reference_cases():
            rep = busemann_convexity_check(space, g1, g2, grid=grid)
            margin, witness = dense_busemann_margin(space, g1, g2, grid)
            assert rep.margin == margin or (math.isnan(rep.margin) and math.isnan(margin))
            assert [rep.witness[k] for k in ("s", "t", "s2", "t2")] == witness
            assert rep.samples == grid**4
            margins.append(margin)
    assert margins[3] == 1.0 and math.isnan(margins[4]) and math.isnan(margins[5])


@pytest.mark.parametrize("grid", [8, 16])
def test_busemann_matches_dense_reduction_in_chunks(grid, monkeypatch):
    """Chunks of 16 * 4 = 64 margins split every slab; the worst margin of case 0 and the
    first NaN of case 5 lie past the first chunk of their slab."""
    monkeypatch.setattr(gluing, "BLOCK_ROWS", 4)
    test_busemann_matches_dense_reduction(grid)
    with np.errstate(all="ignore"):
        cases = dense_reference_cases()
        for space, g1, g2 in (cases[0], cases[5]):
            s, t = dense_busemann_margin(space, g1, g2, grid)[1][:2]
            a, b = round(s * (grid - 1)), round(t * (grid - 1))
            assert b >= max(1, 64 // ((grid - a) * grid))    # b rows per chunk of slab a


def test_busemann_margin_of_huge_distances_does_not_overflow():
    """At distance 1e308 the sum d1 + d2 overflows to inf, so d - (d1 + d2) / 2 reads -inf;
    the halved terms d1 / 2 + d2 / 2 give the true margin 0, with no overflow."""
    line = RealLine()
    g1, g2 = geodesic_between(line, 0.0, 0.0), geodesic_between(line, 1e308, 1e308)
    with np.errstate(over="raise"):
        rep = busemann_convexity_check(line, g1, g2, grid=4, tau=0.0)
    assert (rep.margin, rep.verdict) == (0.0, "pass")


def test_busemann_holds_one_chunk_and_the_distance_matrix():
    """At grid 64 a chunk is 512 KiB and the fine**2 distances 126 KiB; a whole
    grid**3 slab buffer would be 2 MiB."""
    space, pairs = sup_norm_geodesics()
    g1, g2 = pairs[0]
    tracemalloc.start()
    try:
        busemann_convexity_check(space, g1, g2, grid=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_busemann_memory_is_cubic_in_grid():
    space, pairs = sup_norm_geodesics()
    g1, g2 = pairs[0]
    tracemalloc.start()
    try:
        busemann_convexity_check(space, g1, g2, grid=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20   # the grid**4 margin array alone is 42 MB


def test_cat0_passes_for_euclidean_plane():
    rep = cat0_four_point_check(plane(), count=300, seed=0)
    assert rep.passed


def test_cat0_fails_for_sum_with_exact_margin():
    # direct evaluation: d(p, m) = 2 while the comparison triangle with
    # sides 2, 2, 4 degenerates to a segment, so the comparison median is 0
    prod = plane(GluingFunction.sum(2))
    tri = [((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))]
    m = midpoint(prod, tri[0][1], tri[0][2])
    assert m == pytest.approx((1.0, 1.0))
    assert prod.distance(tri[0][0], m) == 2.0
    rep = cat0_four_point_check(prod, triangles=tri)
    assert rep.failed
    assert rep.margin == 2.0


def test_cat0_passes_for_line_times_half_line():
    prod = ProductSpace((RealLine(), HalfLine()), GluingFunction.euclidean((1.0, 1.0)))
    rep = cat0_four_point_check(prod, count=300, seed=1)
    assert rep.passed


def test_cat0_counts_skipped_degenerate_triangles():
    # squared first-coordinate gluing breaks the triangle inequality, so the
    # explicit triple below is degenerate and must be skipped, not compared
    prod = ProductSpace((RealLine(),), GluingFunction.coordinate_power(1, 2.0))
    rep = cat0_four_point_check(prod, triangles=[((0.0,), (1.0,), (2.0,))])
    assert rep.details["skipped_degenerate"] == 1
    assert rep.samples == 0


def test_cat0_with_every_triangle_skipped_is_undetermined():
    prod = ProductSpace((RealLine(),), GluingFunction.coordinate_power(1, 2.0))
    rep = cat0_four_point_check(prod, triangles=[((0.0,), (1.0,), (2.0,))])
    assert rep.verdict == "undetermined"
    assert rep.details["reason"] == "every triangle degenerate"


def test_cat0_with_no_triangles_is_undetermined():
    rep = cat0_four_point_check(LpSpace(2, 2.0), triangles=[])
    assert rep.verdict == "undetermined"
    assert rep.details == {"skipped_degenerate": 0, "tolerance": 1e-9,
                           "reason": "no triangles"}


def test_cat0_with_count_zero_is_the_no_triangles_record():
    space = LpSpace(2, 2.0)
    rep = cat0_four_point_check(space, count=0)
    assert rep.to_record() == cat0_four_point_check(space, triangles=[]).to_record()
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        cat0_four_point_check(space, count=-1)


def test_cat0_on_plain_lp_factors():
    assert cat0_four_point_check(LpSpace(2, 2.0), count=200, seed=4).passed
    rep = cat0_four_point_check(
        LpSpace(2, 1.0), triangles=[((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))])
    assert rep.failed and rep.margin == 2.0


def test_geodesy_on_nested_euclidean_product():
    eu = GluingFunction.euclidean((1.0, 1.0))
    prod = ProductSpace((plane(eu), RealLine()), eu)
    g = product_geodesic(prod, ((0.0, 0.0), 0.0), ((3.0, 4.0), 12.0))
    assert g.length == pytest.approx(13.0)
    assert g.descriptor == "sync[sync[affine,affine],affine]"
    assert geodesy_test(prod, g, grid=32).passed
    assert component_progress_check(prod, g, grid=32).passed


def test_uniqueness_fails_on_nested_sum_with_perturbation_hits():
    taxi = GluingFunction.sum(2)
    prod = ProductSpace((plane(taxi), RealLine()), taxi)
    assert prod.coord_dim == 3
    rep = uniqueness_probe(prod, ((0.0, 0.0), 0.0), ((1.0, 1.0), 1.0), seed=0)
    assert rep.failed
    assert rep.details["perturbation_hits"] > 0
