import numpy as np
import pytest

from metricprod import (
    DiscreteSpace,
    GluingClass,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
    SampleConfig,
    verify_metric_axioms,
)

CFG = SampleConfig(count=3000, seed=0)


def plane(phi=None):
    return ProductSpace((RealLine(), RealLine()),
                        phi or GluingFunction.euclidean((1.0, 1.0)))


def test_euclidean_plane_distance():
    assert plane().distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_sum_of_half_lines_distance():
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))
    assert prod.distance((1.0, 0.0), (0.0, 1.0)) == 2.0


def test_single_factor_identity_gluing_recovers_distance():
    phi = GluingFunction.custom(1, lambda q: q[..., 0], label="identity")
    prod = ProductSpace((RealLine(),), phi)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, 2)
        assert prod.distance((x,), (y,)) == RealLine().distance(x, y)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ProductSpace((RealLine(),), GluingFunction.sum(2))


def test_point_arity_checked():
    with pytest.raises(ValueError):
        plane().distance((0.0,), (1.0, 1.0))


def test_monotone_coupling():
    # equal factor-distance vectors force equal product distances
    prod = plane(GluingFunction.lp(2, 3.0))
    pairs = [((0.0, 0.0), (1.0, 2.0)), ((5.0, -1.0), (6.0, 1.0)),
             ((-3.0, 7.0), (-2.0, 9.0))]
    dists = {prod.distance(x, y) for x, y in pairs}
    assert len(dists) == 1


def test_nested_products():
    inner = plane()
    outer = ProductSpace((inner, RealLine()), GluingFunction.sum(2))
    d = outer.distance(((0.0, 0.0), 0.0), ((3.0, 4.0), 2.0))
    assert d == pytest.approx(7.0)


def test_metric_axioms_pass_for_two_valued():
    prod = plane(GluingFunction.two_valued(2))
    reports = verify_metric_axioms(prod, SampleConfig(count=3000, seed=0))
    assert [r.condition for r in reports] == [
        "identity-of-indiscernibles", "symmetry", "triangle-inequality"]
    assert all(r.passed for r in reports)


def test_metric_axioms_fail_for_square_gluing():
    # independent witness: points 0, 1, 2 on the line give 4 > 1 + 1
    prod = ProductSpace((RealLine(),), GluingFunction.coordinate_power(1, 2.0))
    assert prod.distance((0.0,), (2.0,)) == 4.0
    assert prod.distance((0.0,), (1.0,)) + prod.distance((1.0,), (2.0,)) == 2.0
    reports = verify_metric_axioms(prod, SampleConfig(count=3000, seed=0))
    tri = reports[2]
    assert tri.failed
    d = tri.witness["distances"]
    assert d[0] > d[1] + d[2]


def test_metric_axioms_pass_for_lp3_with_discrete_factor():
    prod = ProductSpace((RealLine(), DiscreteSpace(4)), GluingFunction.lp(2, 3.0))
    reports = verify_metric_axioms(prod, SampleConfig(count=3000, seed=0))
    assert all(r.passed for r in reports)


def test_metric_axioms_pass_for_all_metric_gluings_and_factor_mixes():
    gluings = [GluingFunction.euclidean((1.0, 1.0)), GluingFunction.sum(2),
               GluingFunction.max(2), GluingFunction.two_valued(2)]
    factor_pairs = [(RealLine(), HalfLine()), (HalfLine(), HalfLine()),
                    (LpSpace(2, 2.0), RealLine())]
    for phi in gluings:
        for factors in factor_pairs:
            prod = ProductSpace(factors, phi)
            reports = verify_metric_axioms(prod, SampleConfig(count=1000, seed=1))
            assert all(r.passed for r in reports), (phi.label, factors)


def test_properties_licensed_by_classification():
    euclid = plane()
    euclid.phi.classification(CFG)
    props = euclid.properties
    assert props.is_length_space and props.is_geodesic
    assert props.is_uniquely_geodesic and props.is_convex

    taxicab = plane(GluingFunction.sum(2))
    taxicab.phi.classification(CFG)
    props = taxicab.properties
    assert props.is_length_space and props.is_geodesic
    assert props.is_uniquely_geodesic is None
    assert props.is_convex is None

    twoval = plane(GluingFunction.two_valued(2))
    twoval.phi.classification(CFG)
    props = twoval.properties
    assert props.is_length_space is None
    assert props.is_geodesic is None


def test_properties_need_geodesic_factors():
    prod = ProductSpace((RealLine(), DiscreteSpace(3)), GluingFunction.euclidean((1.0, 1.0)))
    prod.phi.classification(CFG)
    assert prod.properties.is_geodesic is None


def test_classification_shortcut():
    prod = plane(GluingFunction.lp(2, 1.5))
    assert prod.phi.classification(CFG).gluing_class is GluingClass.STRICTLY_CONVEX_NORM
    assert prod.phi.gluing_class(CFG) is GluingClass.STRICTLY_CONVEX_NORM


def test_sampling_and_json_round_trip():
    prod = ProductSpace((RealLine(), LpSpace(2, 2.0), DiscreteSpace(3)),
                        GluingFunction.sum(3))
    pts = prod.sample_points(5, seed=2, radius=4.0)
    assert len(pts) == 5
    for p in pts:
        back = prod.point_from_json(prod.point_to_json(p))
        assert prod.distance(p, back) == 0.0
