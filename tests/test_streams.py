"""Sample streams and the checks that draw them one row block at a time.

A stream's ``draw(k)`` returns its next ``k`` rows, so drawing a stream in
chunks of any size must give the rows of one whole draw, bit for bit: the
catalog spaces (the index spaces' bounded integer draws included), a nested
product, and the quadrant and signed streams.  The uniform streams scale the
generator's doubles in place and must give the floats of numpy's ``uniform``.

Every streamed check holds ``gluing.BLOCK_ROWS`` rows of a stream at a time.
Its records must equal those of the same check run in one block (the
whole-array evaluation, ``BLOCK_ROWS`` raised past the sample count) at counts
around the block edges, including for a gluing whose margins turn NaN in late
blocks (the first NaN stays the witness) and one whose largest margin is an
exact tie between two blocks (the earlier row wins).
"""

import json
import math

import numpy as np
import pytest

from metricprod import (DiscreteSpace, FiniteMetricSpace, GluingFunction, HalfLine, LpSpace,
                        ProductSpace, RealLine, SampleConfig, check_definiteness,
                        check_norm_conditions, check_quadrant_triangle, classify, gluing)
from metricprod.gluing import (BLOCK_ROWS, check_axis_pythagoras, check_strict_convexity,
                               check_symmetrized_norm_axioms)
from metricprod.product import verify_metric_axioms
from metricprod.sampling import (quadrant_corners, quadrant_samples, quadrant_stream,
                                 rng_stream, signed_samples, signed_stream, uniform_stream)

B = BLOCK_ROWS
ROWS = 3 * B + 5
CHUNKS = [1, 7, B - 1, B, B + 1]
COUNTS = [B - 1, B, B + 1, 3 * B + 5]


def same_bits(x, y) -> bool:
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(same_bits, x, y))
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def concat(parts):
    """One batch of the batches ``parts``, leaf by leaf."""
    if isinstance(parts[0], tuple):
        return tuple(concat([p[i] for p in parts]) for i in range(len(parts[0])))
    return np.concatenate(parts)


def in_chunks(draw, n, k):
    return concat([draw(min(k, n - at)) for at in range(0, n, k)])


def rows_for(k):
    """Rows drawn in chunks of k: past three blocks, or 2,000 for the small chunks."""
    return ROWS if k > 7 else 2000


def nested_product():
    inner = ProductSpace((LpSpace(3, 1.5), RealLine()), GluingFunction.sum(2))
    return ProductSpace((inner, LpSpace(5, 3.0), DiscreteSpace(7)),
                        GluingFunction.lp(3, 3.0, (1.0, 2.0, 0.5)))


SPACES = [RealLine(), HalfLine(), LpSpace(1), LpSpace(3, 1.5, (1.0, 2.0, 0.5)),
          LpSpace(8, math.inf), DiscreteSpace(1), DiscreteSpace(7), DiscreteSpace(2**33),
          FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), nested_product()]


@pytest.mark.parametrize("k", CHUNKS)
@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_space_streams_in_chunks_are_one_draw(space, k):
    whole = space.sample_batch(rows_for(k), [5, 1], 3.0)
    assert same_bits(in_chunks(space.sample_stream([5, 1], 3.0), rows_for(k), k), whole)


@pytest.mark.parametrize("k", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 6])
def test_quadrant_and_signed_streams_in_chunks_are_one_draw(dim, k):
    cfg = SampleConfig(count=rows_for(k), seed=11, radius=2.5)
    whole = quadrant_samples(dim, cfg, 4)
    assert same_bits(in_chunks(quadrant_stream(dim, cfg, 4), len(whole), k), whole)
    assert same_bits(in_chunks(signed_stream(dim, cfg, 8), cfg.count, k),
                     signed_samples(dim, cfg, 8))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 4.0), (-3.0, 3.0), (-2.5, 2.5),
                                    (0.0, 1e-3), (-7.0, 1.0)])
@pytest.mark.parametrize("dim", [None, 1, 6])
def test_uniform_stream_is_numpy_uniform(lo, hi, dim):
    """``random`` scaled in place is ``uniform(lo, hi)`` bit for bit, drawn whole or in chunks."""
    shape = ROWS if dim is None else (ROWS, dim)
    reference = rng_stream(3, 9).uniform(lo, hi, shape)
    assert same_bits(uniform_stream(rng_stream(3, 9), lo, hi, dim)(ROWS), reference)
    assert same_bits(in_chunks(uniform_stream(rng_stream(3, 9), lo, hi, dim), ROWS, B - 1),
                     reference)


def test_catalog_draws_are_the_uniform_calls_they_replaced():
    seed, r, n = [4, 2], 1.5, 1000
    assert same_bits(RealLine().sample_batch(n, seed, r),
                     rng_stream(seed, 11).uniform(-r, r, n))
    assert same_bits(HalfLine().sample_batch(n, seed, r),
                     rng_stream(seed, 12).uniform(0.0, r, n))
    assert same_bits(LpSpace(3).sample_batch(n, seed, r),
                     rng_stream(seed, 13).uniform(-r, r, (n, 3)))
    assert same_bits(DiscreteSpace(9).sample_batch(n, seed, r),
                     rng_stream(seed, 14).integers(0, 9, n))
    cfg = SampleConfig(count=n, seed=6, radius=r)
    assert same_bits(signed_samples(4, cfg, 21), rng_stream(6, 202, 21).uniform(-r, r, (n, 4)))
    corners = quadrant_corners(4, r)
    assert same_bits(quadrant_samples(4, cfg, 3),
                     np.concatenate([corners, rng_stream(6, 101, 3).uniform(0.0, r, (n, 4))]))


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_non_finite_sample_range_is_refused_as_uniform_refuses_it(radius):
    with pytest.raises(OverflowError):
        rng_stream(0).uniform(-radius, radius, 3)
    with pytest.raises(OverflowError):
        RealLine().sample_batch(3, 0, radius)


def test_negative_sample_count_is_refused():
    with pytest.raises(ValueError, match="sample count"):
        SampleConfig(count=-1)


@pytest.mark.parametrize("radius", [0.0, -2.0, math.inf, math.nan])
def test_sample_radius_not_finite_and_above_zero_is_refused(radius):
    with pytest.raises(ValueError, match="^sample radius must be finite and > 0, got "):
        SampleConfig(radius=radius)


# -- streamed checks against one block -------------------------------------------


def record(report) -> str:
    return json.dumps(report.to_record(), sort_keys=True)


def records(result) -> list[str]:
    if hasattr(result, "reports"):
        return [f"{result.value}"] + [record(r) for r in result.reports.values()]
    return [record(r) for r in (result if isinstance(result, list) else [result])]


@pytest.fixture
def whole(monkeypatch):
    """``fn(*args)`` with every sampled stream evaluated in one block."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(gluing, "BLOCK_ROWS", 10**9)
            return fn(*args)
    return run


def marked(dim, marks, label):
    """The sum gluing, except value ``marks[x]`` on a row whose first coordinate is x."""
    def func(q):
        out = q.sum(axis=-1)
        for x, value in marks.items():
            out = np.where(q[:, 0] == x, value, out)
        return out
    return GluingFunction.custom(dim, func, label=label)


def late_rows(n):
    """Two sampled rows in the last two blocks of n rows, or the last two rows when the
    block before the last would put the first one among the corner rows."""
    return [n - 1 - B, n - 1] if n - 1 - B >= 100 else [n - 2, n - 1]


def nan_gluing(dim, cfg):
    """Value 1e308 on two late rows of the homogeneity and Pythagoras streams, so their
    margins read inf - inf there: NaN in a late block."""
    q = quadrant_samples(dim, cfg, 7)
    lam = rng_stream(cfg.seed, 505).uniform(0.0, 4.0, len(q))
    # expected = lam * 1e308 overflows only where lam > 1.8
    homogeneity = [max(i for i in range(r + 1) if lam[i] > 1.8) for r in late_rows(len(q))]
    pythagoras = rng_stream(cfg.seed, 606).uniform(0.0, cfg.radius, (cfg.count, dim))
    marks = {q[i, 0]: 1e308 for i in homogeneity}
    marks.update({pythagoras[i, 0]: 1e308 for i in late_rows(cfg.count)})
    return marked(dim, marks, "nan-late"), q[homogeneity[0]], pythagoras[late_rows(cfg.count)[0]]


def tie_gluing(dim, cfg):
    """Value 0 at p and q, and 1e6 at p + q, on two late rows of the triangle streams, and
    1e-10 on two late rows of the definiteness stream: each is an exact extreme tie."""
    p, q = quadrant_samples(dim, cfg, 2), quadrant_samples(dim, cfg, 3)
    rows = late_rows(len(p))
    marks = {x: 0.0 for i in rows for x in (p[i, 0], q[i, 0])}
    marks.update({(p[i] + q[i])[0]: 1e6 for i in rows})
    definite = quadrant_samples(dim, cfg, 1)
    marks.update({definite[i, 0]: 1e-10 for i in late_rows(len(definite))})
    return marked(dim, marks, "tie"), p[rows[0]], definite[late_rows(len(definite))[0]]


CHECKS = [check_definiteness, check_quadrant_triangle, check_norm_conditions,
          check_strict_convexity, check_axis_pythagoras, check_symmetrized_norm_axioms, classify]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")     # inf - inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e308 * lam
@pytest.mark.parametrize("count", COUNTS)
def test_streamed_checks_are_the_one_block_checks(count, whole):
    cfg = SampleConfig(count=count, seed=4, radius=3.0)
    for phi in (GluingFunction.lp(3, 1.5, (1.0, 2.0, 0.5)), GluingFunction.max(2),
                nan_gluing(2, cfg)[0], tie_gluing(3, cfg)[0]):
        for check in CHECKS:
            assert records(check(phi, cfg)) == records(whole(check, phi, cfg)), (phi, check)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("count", COUNTS)
def test_first_nan_of_a_late_block_is_the_witness(count):
    cfg = SampleConfig(count=count, seed=4, radius=3.0)
    phi, q, lam = nan_gluing(2, cfg)
    homogeneity = check_norm_conditions(phi, cfg)[-1]
    assert homogeneity.failed and homogeneity.margin == math.inf
    assert same_bits(homogeneity.witness["q"], q)
    pythagoras = check_axis_pythagoras(phi, cfg)
    assert pythagoras.failed and math.isnan(pythagoras.margin)
    assert same_bits(pythagoras.witness["lambda"], lam)


@pytest.mark.parametrize("count", COUNTS)
def test_exact_tie_across_blocks_keeps_the_earlier_row(count):
    cfg = SampleConfig(count=count, seed=4, radius=3.0)
    phi, p, q = tie_gluing(3, cfg)
    triangle = check_quadrant_triangle(phi, cfg)
    assert triangle.failed and triangle.margin == 1e6
    assert triangle.witness["shape"] == "sum" and same_bits(triangle.witness["left"], p)
    definite = check_definiteness(phi, cfg)
    assert definite.failed and definite.witness["value"] == 1e-10
    assert same_bits(definite.witness["q"], q)


@pytest.mark.parametrize("count", COUNTS)
def test_streamed_metric_axioms_are_the_one_block_axioms(count, whole):
    cfg = SampleConfig(count=count, seed=4, radius=3.0)
    lines = ProductSpace((RealLine(), HalfLine()), GluingFunction.coordinate_power(2, 2.0))
    discrete = ProductSpace((DiscreteSpace(2), DiscreteSpace(3)), GluingFunction.sum(2))
    for prod in (nested_product(), lines, discrete):
        assert records(verify_metric_axioms(prod, cfg)) == \
            records(whole(verify_metric_axioms, prod, cfg))
