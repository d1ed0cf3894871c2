"""Blocked batch evaluation and the in-place quadrant sampler, bit for bit.

``gluing.by_blocks`` runs a row-wise kernel ``BLOCK_ROWS`` rows at a time.
Every blocked entry point (a gluing's evaluation, ``LpSpace.distance_batch``
and ``ProductSpace.distance_batch``) must give the floats of one whole call,
which the tests get by raising ``BLOCK_ROWS`` past the batch, at sizes around
the block edges.  ``quadrant_samples`` must equal the corner block stacked on
``uniform(0, radius)`` draws of the same stream.
"""

import math
import re

import numpy as np
import pytest

from metricprod import (DiscreteSpace, GluingFunction, LpSpace, ProductSpace, RealLine,
                        SampleConfig)
from metricprod import gluing
from metricprod.gluing import BLOCK_ROWS, weighted_pnorm
from metricprod.sampling import quadrant_corners, quadrant_samples, rng_stream

B = BLOCK_ROWS
SIZES = [1, B - 1, B, B + 1, 3 * B + 17]
SPECIALS = np.array([-0.0, math.nan, math.inf, -math.inf])


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture
def whole(monkeypatch):
    """``fn(*args)`` evaluated in one block."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(gluing, "BLOCK_ROWS", 10**9)
            return fn(*args)
    return run


def quadrant(rng, n, dim, zeros=0.1):
    """Quadrant vectors over eight decades; a ``zeros`` share of entries is -0.0 or 0.0."""
    q = rng.random((n, dim)) * 10.0 ** rng.integers(-4, 4, (n, dim))
    hit = rng.random(q.shape) < zeros
    q[hit] = rng.choice([-0.0, 0.0], int(hit.sum()))
    return q


def custom_gluing(dim):
    return GluingFunction.custom(dim, lambda q: np.sqrt((q * q).sum(axis=-1)) + q[..., 0],
                                 label="custom-root")


CATALOG = [GluingFunction.sum(3), GluingFunction.max(4), GluingFunction.euclidean((1.0, 4.0)),
           GluingFunction.lp(3, 1.5), GluingFunction.lp(6, 3.0, (1, 2, 3, 1, 2, 3)),
           GluingFunction.lp(9, 1.5), GluingFunction.lp(5, math.inf, (1, 2, 0.5, 1, 3)),
           GluingFunction.two_valued(3), GluingFunction.coordinate_power(2, 0.5, 1),
           custom_gluing(3)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("phi", CATALOG, ids=lambda phi: phi.label)
def test_gluing_in_blocks_is_the_whole_evaluation(phi, n, whole):
    q = quadrant(np.random.default_rng(n), n, phi.dim)
    assert same_bits(phi(q), whole(phi, q))


def test_a_custom_gluing_sees_row_blocks():
    seen = []
    phi = GluingFunction.custom(2, lambda q: seen.append(q.shape) or q.sum(axis=-1))
    phi(np.ones((3 * B + 17, 2)))
    assert seen == [(B, 2)] * 3 + [(17, 2)]
    seen.clear()
    phi(np.ones((B, 2)))
    assert seen == [(B, 2)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("phi", [GluingFunction.lp(3, 1.5), custom_gluing(3)],
                         ids=lambda phi: phi.label)
def test_bad_input_raises_the_same_message_in_blocks(phi, n):
    """Validation and the finiteness check read the whole array, whatever block the row is in."""
    q = quadrant(np.random.default_rng(n), n, 3)
    for value, message in ((-1.0, "componentwise nonnegative"),
                           (math.inf, re.escape(f"gluing {phi.label} has a non-finite value")),
                           (math.nan, re.escape(f"gluing {phi.label} has a non-finite value"))):
        bad = q.copy()
        bad[-1, 1] = value
        with pytest.raises(ValueError, match=message):
            phi(bad)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_distances_in_blocks_are_the_whole_kernel(p, n, whole):
    rng = np.random.default_rng(n)
    for dim in range(1, 13):
        xs, ys = (rng.uniform(-5.0, 5.0, (n, dim)) for _ in range(2))
        hit = rng.random(xs.shape) < 0.01
        xs[hit] = rng.choice(SPECIALS, int(hit.sum()))
        for weights in (None, rng.uniform(0.1, 5.0, dim)):
            space = LpSpace(dim, p, weights)
            blocked = space.distance_batch(xs, ys)
            assert same_bits(blocked, whole(space.distance_batch, xs, ys))
            with np.errstate(invalid="ignore"):   # inf - inf
                delta = np.abs(xs - ys)
            assert same_bits(blocked, weighted_pnorm(delta, p, space._norm_weights))


def nested_product():
    inner = ProductSpace((LpSpace(3, 1.5), RealLine()), GluingFunction.sum(2))
    return ProductSpace((inner, LpSpace(5, 3.0), DiscreteSpace(7)),
                        GluingFunction.lp(3, 3.0, (1.0, 2.0, 0.5)))


@pytest.mark.parametrize("n", SIZES)
def test_nested_product_distances_in_blocks_are_the_whole_kernel(n, whole):
    prod = nested_product()
    xs, ys = prod.sample_batch(n, [n, 1], 4.0), prod.sample_batch(n, [n, 2], 4.0)
    assert same_bits(prod.distance_batch(xs, ys), whole(prod.distance_batch, xs, ys))
    # a one-row batch broadcasts against every block
    one = prod.take(xs, [0])
    assert same_bits(prod.distance_batch(one, ys), whole(prod.distance_batch, one, ys))
    assert same_bits(prod.distance_batch(ys, one), whole(prod.distance_batch, ys, one))


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("radius", [1e-3, 1.0, 10.0])
def test_quadrant_samples_are_the_stacked_uniform_draws(dim, seed, radius):
    cfg = SampleConfig(count=500, seed=seed, radius=radius)
    for stream in (0, 3):
        draws = rng_stream(seed, 101, stream).uniform(0.0, radius, (cfg.count, dim))
        reference = np.vstack([quadrant_corners(dim, radius), draws])
        assert same_bits(quadrant_samples(dim, cfg, stream), reference)
