"""The point/batch format owned by ``metricprod.spaces``.

Every space stacks points into a batch and reads them back unchanged, and
the interpolating spaces mix two batches row by row with ``lerp`` and
``where``.
"""

import numpy as np
import pytest

from metricprod import (
    DiscreteSpace,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
)

NESTED = ProductSpace(
    (ProductSpace((RealLine(), HalfLine()), GluingFunction.euclidean((1.0, 1.0))),
     LpSpace(3, p=1.0)),
    GluingFunction.sum(2))
INTERPOLATING = [RealLine(), HalfLine(), LpSpace(3, p=1.0), NESTED]
COUNT = 6


def space_id(space):
    return type(space).__name__


def assert_same_point(p, q):
    """Same structure, same leaf types, same values."""
    assert type(p) is type(q)
    if isinstance(p, tuple):
        assert len(p) == len(q)
        for a, b in zip(p, q):
            assert_same_point(a, b)
    else:
        assert np.array_equal(p, q)


def assert_close_point(p, q):
    if isinstance(p, tuple):
        for a, b in zip(p, q):
            assert_close_point(a, b)
    else:
        np.testing.assert_allclose(p, q, rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", INTERPOLATING + [DiscreteSpace(4)], ids=space_id)
def test_stack_take_unstack_point_at_round_trip(space):
    pts = space.sample_points(COUNT, seed=3, radius=2.0)
    batch = space.stack(pts)
    for i, p in enumerate(pts):
        assert_same_point(space.point_at(batch, i), p)
    for p, q in zip(space.unstack(batch), pts):
        assert_same_point(p, q)
    idx = np.array([4, 0, 4])
    for p, i in zip(space.unstack(space.take(batch, idx)), idx):
        assert_same_point(p, pts[i])


@pytest.mark.parametrize("space", INTERPOLATING, ids=space_id)
def test_lerp_returns_endpoints(space):
    a = space.sample_batch(COUNT, seed=1, radius=2.0)
    b = space.sample_batch(COUNT, seed=2, radius=2.0)
    at_start = space.lerp(a, b, np.zeros(COUNT))
    at_end = space.lerp(a, b, np.ones(COUNT))
    for i in range(COUNT):
        assert_same_point(space.point_at(at_start, i), space.point_at(a, i))
        assert_close_point(space.point_at(at_end, i), space.point_at(b, i))


@pytest.mark.parametrize("space", INTERPOLATING, ids=space_id)
def test_where_picks_per_row(space):
    a = space.sample_batch(COUNT, seed=1, radius=2.0)
    b = space.sample_batch(COUNT, seed=2, radius=2.0)
    mask = np.arange(COUNT) % 3 == 0
    picked = space.where(mask, a, b)
    for i in range(COUNT):
        assert_same_point(space.point_at(picked, i), space.point_at(a if mask[i] else b, i))


def test_half_line_offset_clamps_at_zero():
    dirs, scales = np.array([[-1.0], [1.0], [-1.0]]), np.array([2.0, 2.0, 0.5])
    assert HalfLine().offset(0.5, dirs, scales).tolist() == [0.0, 2.5, 0.0]
    assert RealLine().offset(0.5, dirs, scales).tolist() == [-1.5, 2.5, 0.0]


def test_lp_space_stacks_coordinate_tuples_as_rows():
    # an lp point may be any coordinate sequence; a tuple is not a product point there
    space = LpSpace(2, p=1.0)
    batch = space.stack([(0.0, 1.0), [2.0, 3.0], np.array([4.0, 5.0])])
    assert batch.shape == (3, 2) and batch.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert space.stack([]).shape == (0, 2)
    with pytest.raises(ValueError):
        space.stack([(0.0, 1.0, 2.0)])
