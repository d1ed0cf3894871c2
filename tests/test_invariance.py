"""Invariance properties that follow from the definitions of glued products.

* R^m with a weighted p-norm is m real lines glued by the weighted-lp
  gluing with the same p and weights, so both give the same floats;
* ``sum`` and ``max`` are the weighted-lp gluings at p = 1 and p = oo with
  unit weights, and evaluate to the plain sum and maximum;
* permuting the axes of a gluing changes neither its class nor, when the
  factors are permuted with it, the product distance;
* scaling a gluing by a positive constant keeps its class;
* nesting ``g(g(R, R), R)`` gives the flat ``g(R, R, R)`` distance for the
  sum and the unit Euclidean gluing.
"""

import math

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
    classify,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


def _weights(kind, dim, seed):
    if kind == "unit":
        return None
    return np.random.default_rng(seed).uniform(0.25, 4.0, dim)


@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("p", EXPONENTS)
def test_lp_space_is_glued_real_lines(p, dim, weights):
    w = _weights(weights, dim, seed=dim)
    space = LpSpace(dim, p, w)
    glued = ProductSpace([RealLine()] * dim, GluingFunction.lp(dim, p, w))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10.0, 10.0, (500, dim))
    ys = rng.uniform(-10.0, 10.0, (500, dim))
    expected = space.distance_batch(xs, ys)
    got = glued.distance_batch(tuple(xs.T), tuple(ys.T))
    assert np.array_equal(got, expected)
    assert glued.distance(tuple(xs[0]), tuple(ys[0])) == space.distance(xs[0], ys[0])


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_sum_and_max_are_plain_reductions(dim):
    q = np.random.default_rng(dim).uniform(0.0, 10.0, (1000, dim))
    assert np.array_equal(GluingFunction.sum(dim)(q), q.sum(-1))
    assert np.array_equal(GluingFunction.max(dim)(q), q.max(-1))
    assert GluingFunction.sum(dim)(q[0]) == q[0].sum()
    assert GluingFunction.max(dim)(q[0]) == q[0].max()


@pytest.mark.parametrize("p, expected", [
    (1.0, GluingClass.NORM_INDUCED),
    (1.5, GluingClass.STRICTLY_CONVEX_NORM),
    (2.0, GluingClass.SCALAR_PRODUCT_INDUCED),
    (3.0, GluingClass.STRICTLY_CONVEX_NORM),
    (math.inf, GluingClass.NORM_INDUCED),
])
def test_class_is_invariant_under_permuted_weights(p, expected):
    cfg = SampleConfig(count=500, seed=3)
    w = np.array([1.0, 2.5, 0.5])
    for perm in ([0, 1, 2], [2, 0, 1], [1, 0, 2]):
        assert classify(GluingFunction.lp(3, p, w[perm]), cfg).gluing_class is expected


@pytest.mark.parametrize("p", EXPONENTS)
def test_product_distance_is_invariant_under_permuted_factors(p):
    factors = [RealLine(), HalfLine(), LpSpace(2, 1.5, [1.0, 2.0]), DiscreteSpace(5)]
    weights = np.array([1.0, 0.5, 3.0, 2.0])
    prod = ProductSpace(factors, GluingFunction.lp(4, p, weights))
    xs = prod.sample_batch(1000, seed=1, radius=5.0)
    ys = prod.sample_batch(1000, seed=2, radius=5.0)
    expected = prod.distance_batch(xs, ys)
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        permuted = ProductSpace([factors[i] for i in perm],
                                GluingFunction.lp(4, p, weights[perm]))
        got = permuted.distance_batch(tuple(xs[i] for i in perm),
                                      tuple(ys[i] for i in perm))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


CATALOG_GLUINGS = {
    "sum": GluingFunction.sum(2),
    "max": GluingFunction.max(2),
    "weighted-euclidean": GluingFunction.euclidean([1.0, 2.0]),
    "lp-1.5": GluingFunction.lp(2, 1.5),
    "lp-3": GluingFunction.lp(2, 3.0),
    "two-valued": GluingFunction.two_valued(2),
    "coordinate-power": GluingFunction.coordinate_power(2, 0.5),
}


@pytest.mark.parametrize("c", [0.5, 3.0])
@pytest.mark.parametrize("name", list(CATALOG_GLUINGS))
def test_class_is_invariant_under_scaling(name, c):
    phi = CATALOG_GLUINGS[name]
    cfg = SampleConfig(count=500, seed=3)
    scaled = GluingFunction.custom(phi.dim, lambda q: c * phi(q))
    assert classify(scaled, cfg).gluing_class is classify(phi, cfg).gluing_class


@pytest.mark.parametrize("glue, exact", [
    (GluingFunction.sum, True),
    (lambda dim: GluingFunction.euclidean([1.0] * dim), False),
])
def test_nested_product_equals_flat_product(glue, exact):
    nested = ProductSpace([ProductSpace([RealLine()] * 2, glue(2)), RealLine()], glue(2))
    flat = ProductSpace([RealLine()] * 3, glue(3))
    rng = np.random.default_rng(11)
    xs = rng.uniform(-10.0, 10.0, (3, 1000))
    ys = rng.uniform(-10.0, 10.0, (3, 1000))
    got = nested.distance_batch(((xs[0], xs[1]), xs[2]), ((ys[0], ys[1]), ys[2]))
    expected = flat.distance_batch(tuple(xs), tuple(ys))
    if exact:
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
