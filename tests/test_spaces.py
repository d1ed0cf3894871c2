import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricprod import (
    DeclaredProperties,
    DiscreteSpace,
    FiniteMetricSpace,
    GluingFunction,
    HalfLine,
    INFINITY,
    LpSpace,
    ProductSpace,
    RealLine,
    Tolerances,
    line_pattern,
)

CATALOG = [
    RealLine(),
    HalfLine(),
    LpSpace(2, 2.0),
    LpSpace(2, 1.0),
    LpSpace(3, 1.5, weights=(1.0, 2.0, 0.5)),
    LpSpace(2, INFINITY),
    DiscreteSpace(5),
    FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
]


def test_line_distance():
    assert RealLine().distance(0.0, 3.0) == 3.0
    assert RealLine().distance(-2.0, 2.0) == 4.0


def test_l1_distance():
    space = LpSpace(2, 1.0, weights=(1.0, 1.0))
    assert space.distance((0.0, 0.0), (1.0, 1.0)) == 2.0


def test_finite_matrix_lookup():
    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert space.distance(0, 2) == 2.0


def test_lp2_matches_euclidean_norm():
    space = LpSpace(4, 2.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert space.distance(x, y) == pytest.approx(np.linalg.norm(x - y), abs=1e-14)


def test_linf_is_max_of_coordinates():
    space = LpSpace(3, INFINITY)
    assert space.distance((0.0, 0.0, 0.0), (1.0, -3.0, 2.0)) == 3.0


def test_sampling_deterministic():
    for space in CATALOG:
        a = space.sample_points(3, seed=7, radius=1.0)
        b = space.sample_points(3, seed=7, radius=1.0)
        for p, q in zip(a, b):
            assert space.distance(p, q) == 0.0


def test_half_line_samples_nonnegative():
    pts = HalfLine().sample_points(200, seed=1, radius=2.0)
    assert all(p >= 0.0 for p in pts)


def test_half_line_samples_cover_zero_to_radius():
    """The sampler draws from [0, radius): clipping a symmetric draw at 0 put
    half of the samples exactly on 0."""
    xs = HalfLine().sample_batch(10_000, seed=3, radius=2.5)
    assert not (xs == 0.0).any()
    assert ((xs >= 0.0) & (xs < 2.5)).all()


def test_discrete_samples_in_carrier():
    pts = DiscreteSpace(5).sample_points(10, seed=1, radius=1.0)
    assert all(0 <= p < 5 for p in pts)


def test_sampling_parameter_validation():
    with pytest.raises(ValueError):
        RealLine().sample_points(0, seed=0, radius=1.0)
    with pytest.raises(ValueError):
        RealLine().sample_points(3, seed=0, radius=0.0)


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: repr(s))
def test_metric_axioms_on_samples(space):
    xs = space.sample_points(300, seed=3, radius=5.0)
    ys = space.sample_points(300, seed=4, radius=5.0)
    zs = space.sample_points(300, seed=5, radius=5.0)
    for x, y, z in zip(xs, ys, zs):
        dxy = space.distance(x, y)
        dyz = space.distance(y, z)
        dxz = space.distance(x, z)
        assert space.distance(x, x) == 0.0
        assert dxy == space.distance(y, x)
        assert dxz <= dxy + dyz + Tolerances().scaled(dxz, dxy, dyz)


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: repr(s))
def test_declared_properties_consistent(space):
    props = space.properties
    if props.is_uniquely_geodesic:
        assert props.is_geodesic
    if props.is_geodesic:
        assert props.is_length_space


def test_declared_properties_reject_inconsistency():
    with pytest.raises(ValueError):
        DeclaredProperties(is_length_space=False, is_geodesic=True)
    with pytest.raises(ValueError):
        DeclaredProperties(is_length_space=True, is_geodesic=False,
                           is_uniquely_geodesic=True)


def test_known_ranks():
    assert RealLine().properties.known_minkowski_rank == 1
    assert HalfLine().properties.known_minkowski_rank == 0
    assert LpSpace(3, 2.0).properties.known_minkowski_rank == 3
    assert DiscreteSpace(7).properties.known_minkowski_rank == 0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        LpSpace(2, 2.0).distance((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_index_out_of_range_raises():
    with pytest.raises(ValueError):
        DiscreteSpace(3).distance(0, 3)
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1], [1, 0]]).distance(-1, 0)


def test_half_line_rejects_negative_points():
    with pytest.raises(ValueError):
        HalfLine().distance(-1.0, 2.0)


def test_finite_matrix_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1], [2, 0]])          # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace([[1, 1], [1, 0]])          # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 0], [0, 0]])          # zero off-diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle fails


def test_line_pattern_helper():
    pat = line_pattern([0.0, 1.0, 2.0])
    assert pat.distance(0, 2) == 2.0
    assert pat.distance(0, 1) == 1.0


def test_lp_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LpSpace(2, 0.5)
    with pytest.raises(ValueError):
        LpSpace(2, 2.0, weights=(1.0, -1.0))
    with pytest.raises(ValueError):
        LpSpace(0, 2.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_line_triangle_property(x, y, z):
    line = RealLine()
    dxz = line.distance(x, z)
    assert dxz <= line.distance(x, y) + line.distance(y, z) + Tolerances().scaled(dxz)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_weighted_lp_triangle_property(x, y, z):
    space = LpSpace(2, 1.5, weights=(2.0, 0.5))
    dxz = space.distance(x, z)
    dxy = space.distance(x, y)
    dyz = space.distance(y, z)
    assert dxz <= dxy + dyz + Tolerances().scaled(dxz, dxy, dyz)


def test_batch_matches_scalar():
    for space in CATALOG:
        xs = space.sample_points(20, seed=8, radius=3.0)
        ys = space.sample_points(20, seed=9, radius=3.0)
        batch = space.distance_batch(space.stack(xs), space.stack(ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert batch[i] == pytest.approx(space.distance(x, y), abs=1e-15)


BITWISE_CATALOG = CATALOG + [LpSpace(3, p, weights=(1.0, 2.0, 0.5)) for p in (1.5, 3.0, 7.0)] + [
    ProductSpace((RealLine(), LpSpace(2, 1.5), HalfLine()), GluingFunction.lp(3, p, (1.0, 3.0, 0.5)))
    for p in (1.5, 2.0, 3.0, 7.0, INFINITY)
] + [
    ProductSpace((ProductSpace((RealLine(), LpSpace(2, 3.0)), GluingFunction.lp(2, 1.5)),
                  DiscreteSpace(4), FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])),
                 GluingFunction.lp(3, 7.0, (2.0, 1.0, 0.25))),
]


@pytest.mark.parametrize("space", BITWISE_CATALOG,
                         ids=[f"{s.name}-{i}" for i, s in enumerate(BITWISE_CATALOG)])
def test_scalar_distance_is_the_batch_row_bitwise(space):
    """A scalar distance is a one-row batch: the same float as its row of any batch."""
    xs = space.sample_batch(400, seed=[3, 1], radius=4.0)
    ys = space.sample_batch(400, seed=[3, 2], radius=4.0)
    batch = space.distance_batch(xs, ys)
    scalar = [space.distance(x, y) for x, y in zip(space.unstack(xs), space.unstack(ys))]
    assert batch.tolist() == scalar


@pytest.mark.parametrize("space, point", [
    (RealLine(), math.nan),
    (HalfLine(), math.inf),
    (LpSpace(2, 2.0), [0.0, math.nan]),
    (DiscreteSpace(3), math.inf),
    (FiniteMetricSpace([[0, 1], [1, 0]]), math.nan),
    (ProductSpace((RealLine(), LpSpace(2, 1.0)), GluingFunction.sum(2)), [0.0, [-math.inf, 0.0]]),
], ids=["line", "half-line", "lp", "discrete", "finite", "product"])
def test_point_from_json_refuses_non_finite_coordinates(space, point):
    with pytest.raises(ValueError, match="finite"):
        space.point_from_json(point)


def test_finite_matrix_refuses_non_finite_entries():
    # inf - inf is NaN, which a triangle comparison alone would let through
    with pytest.raises(ValueError, match="finite"):
        FiniteMetricSpace([[0, math.inf, 1], [math.inf, 0, 1], [1, 1, 0]])


def test_triangle_violation_reports_the_dense_worst():
    rng = np.random.default_rng(0)
    m = rng.uniform(1.0, 3.0, (12, 12))
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    m[0, 5] = m[5, 0] = 20.0
    dense = float((m[:, :, None] - m[:, None, :] - m.T[None, :, :]).max())
    with pytest.raises(ValueError, match=re.escape(f"triangle inequality fails by {dense}")):
        FiniteMetricSpace(m)


def test_finite_space_memory_is_quadratic():
    v = np.arange(300.0)
    matrix = np.abs(v[:, None] - v[None, :])
    tracemalloc.start()
    try:
        FiniteMetricSpace(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
