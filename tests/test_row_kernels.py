"""The column-fold reduction kernel and the ladder's evaluation plan.

``gluing.rowwise`` must equal ``ufunc.reduce(a, axis=-1)`` bit for bit, and
``weighted_pnorm`` must equal the row-reduction formula it replaced.  These
tests also pin numpy's summation order: a row of fewer than 8 columns sums left
to right from 0.0, and from 8 columns on it does not, so a numpy release that
changes either order fails here before it moves golden digits.

The ladder evaluates each distinct sample block once; its reports must equal,
as JSON, references that evaluate the stacked blocks whole through the
replaced kernels.
"""

import json
import math

import numpy as np
import pytest

from metricprod import (GluingFunction, SampleConfig, ValidationReport, check_norm_conditions,
                        check_quadrant_triangle)
from metricprod.gluing import rowwise, weighted_pnorm
from metricprod.reports import worst
from metricprod.sampling import quadrant_samples, rng_stream

FOLDS = [np.add, np.maximum]
SPECIALS = np.array([0.0, -0.0, math.nan, math.inf, -math.inf])


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def spread_floats(rng, shape, specials=0.0):
    """Floats over 16 decades, so that a changed summation order changes bits;
    a ``specials`` share of entries is a signed zero, a NaN or an infinity."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    hit = rng.random(shape) < specials
    a[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return a


@pytest.mark.parametrize("ufunc", FOLDS, ids=lambda u: u.__name__)
@pytest.mark.parametrize("width", range(1, 13))
def test_rowwise_is_the_reduction_bitwise(ufunc, width):
    rng = np.random.default_rng(width)
    plain = spread_floats(rng, (200, width))
    special = spread_floats(rng, (200, width), specials=0.3)
    cases = [plain, special, np.asfortranarray(special), np.empty((0, width)),
             np.full((3, width), -0.0), special[0], special.reshape(4, 50, width)]
    with np.errstate(invalid="ignore"):       # inf - inf
        for a in cases:
            assert same_bits(rowwise(ufunc, a), ufunc.reduce(a, axis=-1))
        assert np.isnan(rowwise(ufunc, special)).any()


@pytest.mark.parametrize("width", range(1, 13))
def test_rowwise_logical_and_is_the_reduction(width):
    rng = np.random.default_rng(width)
    a = rng.random((200, width)) < 0.9
    for case in (a, np.asfortranarray(a), a[:0], a[0]):
        assert same_bits(rowwise(np.logical_and, case), np.logical_and.reduce(case, axis=-1))


def test_numpy_sums_short_rows_left_to_right_from_zero():
    """The order ``rowwise`` copies below 8 columns, and the one it leaves to numpy."""
    rng = np.random.default_rng(0)
    for width in range(1, 13):
        a = spread_floats(rng, (200, width))
        fold = np.zeros(len(a))
        for j in range(width):
            fold = fold + a[:, j]
        assert same_bits(np.add.reduce(a, axis=-1), fold) == (width < 8)
    assert same_bits(np.add.reduce(np.full((1, 3), -0.0), axis=-1), np.array([0.0]))


def replaced_pnorm(a, p, weights):
    """Reference: the p-norm kernel before the column fold, reducing whole rows."""
    if p == math.inf:
        return (a if weights is None else weights * a).max(axis=-1)
    if p == 1.0:
        return (a if weights is None else weights * a).sum(axis=-1)
    return (a**p if weights is None else weights * a**p).sum(axis=-1) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
@pytest.mark.parametrize("dim", range(1, 13))
def test_weighted_pnorm_is_the_replaced_formula_bitwise(p, dim):
    rng = np.random.default_rng(dim)
    a = np.abs(spread_floats(rng, (300, dim)))
    a[rng.random(a.shape) < 0.1] = 0.0
    for weights in (None, rng.uniform(0.1, 5.0, dim)):
        assert same_bits(weighted_pnorm(a, p, weights), replaced_pnorm(a, p, weights))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
@pytest.mark.parametrize("dim", range(1, 13))
def test_weighted_pnorm_of_signed_zero_rows_is_the_replaced_formula(p, dim):
    """A row of -0.0 sums to +0.0 in numpy; the column fold starts from its first term + 0.0."""
    a = np.full((3, dim), -0.0)
    for weights in (None, np.linspace(0.5, 2.0, dim)):
        assert same_bits(weighted_pnorm(a, p, weights), replaced_pnorm(a, p, weights))


# -- the ladder's evaluation plan ------------------------------------------------

CFG = SampleConfig(count=400, seed=3)
GLUINGS = [GluingFunction.lp(2, 1.5), GluingFunction.lp(3, 3.0, (1.0, 2.0, 0.5)),
           GluingFunction.max(4), GluingFunction.sum(9), GluingFunction.lp(9, 1.5),
           GluingFunction.two_valued(3), GluingFunction.coordinate_power(2, 2.0)]


def replaced_kernel(phi):
    """The same gluing evaluated by the row reductions the column fold replaced."""
    if phi.weights is not None:
        return GluingFunction.custom(
            phi.dim, lambda q: replaced_pnorm(q, phi.p, phi._norm_weights))
    if phi.kind == "two-valued":
        def two_valued(q):
            m = q.max(axis=-1)
            return np.where(m <= 0.0, 0.0, np.where(m <= 1.0, 1.0, 2.0))
        return GluingFunction.custom(phi.dim, two_valued)
    return phi


def record(rep):
    return json.dumps(rep.to_record(), sort_keys=True)


def stacked_triangle(phi, cfg):
    """Reference: the triangle rung evaluating all three members of every shape."""
    dim = phi.dim
    p = quadrant_samples(dim, cfg, stream=2)
    q = quadrant_samples(dim, cfg, stream=3)
    n = min(len(p), len(q))
    p, q = p[:n], q[:n]
    u = rng_stream(cfg.seed, 303).uniform(0.0, 1.0, (n, dim))
    v = rng_stream(cfg.seed, 304).uniform(0.0, 1.0, (n, dim))
    shapes = [("interior", u * (p + q), p, q), ("sum", p + q, p, q),
              ("doubling", 2.0 * v * q, q, q)]
    blocks, margins, checked, scale = [], [], 0, 1.0
    for tag, *triple in shapes:
        vals = [phi(t) for t in triple]
        scale = max(scale, *(float(v.max(initial=0.0)) for v in vals))
        for j, k, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            hyp = (triple[j] <= triple[k] + triple[l]).all(axis=1)
            if hyp.any():
                checked += int(hyp.sum())
                blocks.append((tag, triple, vals, (j, k, l)))
                margins.append(np.where(hyp, vals[j] - vals[k] - vals[l], -math.inf))
    margins = np.vstack(margins)
    at, verdict = worst(margins, cfg.tol.scaled(scale))
    block, i = divmod(at, margins.shape[1])
    tag, triple, vals, (j, k, l) = blocks[block]
    witness = {"shape": tag, "target": triple[j][i], "left": triple[k][i],
               "right": triple[l][i], "values": [float(vals[m][i]) for m in (j, k, l)]}
    return ValidationReport("quadrant-triangle", verdict, checked, float(margins.flat[at]),
                            witness, {"reading": "all permutations with valid hypothesis"})


def stacked_monotonicity(phi, cfg):
    """Reference: the monotonicity rung evaluating the stacked lo and hi whole."""
    p = quadrant_samples(phi.dim, cfg, stream=4)
    u = rng_stream(cfg.seed, 404).uniform(0.0, 1.0, p.shape)
    lower = [u * p, p, np.zeros_like(p)]
    for j in range(phi.dim):
        reduced = p.copy()
        reduced[:, j] = 0.0
        lower.append(reduced)
    lo, hi = np.vstack(lower), np.vstack([p] * len(lower))
    vlo, vhi = phi(lo), phi(hi)
    margins = vlo - vhi
    i, verdict = worst(margins, cfg.tol.scaled(vhi.max(initial=0.0)))
    return ValidationReport("monotonicity", verdict, len(lo), float(margins[i]),
                            {"q": lo[i], "p": hi[i], "values": [float(vlo[i]), float(vhi[i])]},
                            {})


@pytest.fixture
def eval_rows(monkeypatch):
    """Rows of every ``GluingFunction._eval`` call, a single vector counting as one."""
    rows = []
    original = GluingFunction._eval
    monkeypatch.setattr(GluingFunction, "_eval",
                        lambda self, arr: rows.append(len(arr) if arr.ndim == 2 else 1)
                        or original(self, arr))
    return rows


@pytest.mark.parametrize("phi", GLUINGS, ids=repr)
def test_triangle_rung_evaluates_five_blocks(phi, eval_rows):
    rep = check_quadrant_triangle(phi, CFG)
    n = min(len(quadrant_samples(phi.dim, CFG, stream=s)) for s in (2, 3))
    assert eval_rows == [n] * 5
    assert record(rep) == record(stacked_triangle(replaced_kernel(phi), CFG))


@pytest.mark.parametrize("phi", GLUINGS, ids=repr)
def test_monotonicity_evaluates_p_once(phi, eval_rows):
    reports = check_norm_conditions(phi, CFG)
    dim = phi.dim
    n = len(quadrant_samples(dim, CFG, stream=4))
    definite = len(quadrant_samples(dim, CFG, stream=1))
    sub = dim * dim + min(len(quadrant_samples(dim, CFG, stream=s)) for s in (5, 6))
    homogeneity = len(quadrant_samples(dim, CFG, stream=7))
    homogeneity += 7 * min(homogeneity, 16)
    # definiteness, monotonicity (phi(p), then the other q blocks), subadditivity, homogeneity
    assert eval_rows == [definite, 1, n, (dim + 2) * n, sub, sub, sub, homogeneity, homogeneity]
    monotonicity = next(r for r in reports if r.condition == "monotonicity")
    assert record(monotonicity) == record(stacked_monotonicity(replaced_kernel(phi), CFG))
