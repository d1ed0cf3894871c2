"""The four-point check and the uniqueness probe evaluate in batches.

Each record must equal, field by field and bit for bit, the record of a scalar
reference written here: one triangle or one direction at a time, through scalar
distances, per-direction offsets and geodesic points written by hand, each factor
on its segment ``x + u*(y - x)``.  The references call no geodesic constructor
except to raise its refusals.  The number of scalar product distances must not grow
with the sample size, nor that of batched ones with the perturbations.
"""

import json
import math

import numpy as np
import pytest

from metricprod import (
    DiscreteSpace,
    FiniteMetricSpace,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
    cat0_four_point_check,
    geodesic_between,
    midpoint,
    product_geodesic,
    uniqueness_probe,
)
from metricprod.geodesics import _coordinate_directions
from metricprod.reports import PASS, UNDETERMINED, ValidationReport, worst
from metricprod.sampling import DEFAULT_SAMPLES, rng_stream

EU = GluingFunction.euclidean((1.0, 1.0))
TAXI = GluingFunction.sum(2)
LP15 = GluingFunction.lp(2, 1.5)
FACTOR_PAIRS = [(RealLine(), HalfLine()), (LpSpace(2, 1.0), LpSpace(2, 1.5)),
                (HalfLine(), LpSpace(2, math.inf))]
PRODUCTS = [ProductSpace(pair, phi) for phi in (EU, TAXI, LP15) for pair in FACTOR_PAIRS]
NESTED = ProductSpace((ProductSpace((RealLine(), LpSpace(2, 1.5)), LP15), HalfLine()), EU)


def space_id(space):
    """A parameter id: a space's name, or a product's gluing label over its factors' ids."""
    if isinstance(space, ProductSpace):
        return f"{space.phi.label}({','.join(map(space_id, space.factors))})"
    return space.name


def record(rep):
    return json.dumps(rep.to_record(), sort_keys=True)


def as_json(space, point):
    return json.dumps(space.point_to_json(point))


def scalar_at(space, x, y, t):
    """Reference: the default geodesic from x to y at parameter t.  A factor runs its
    segment ``x + u*(y - x)`` at u = t / d; a product runs each factor on its own
    route at its sync share ``t * (l_i / d)``; a route of length 0 stays at its start."""
    d = space.distance(x, y)
    if not isinstance(space, ProductSpace):
        x, y = space.check(x), space.check(y)
        u, y = (t / d, y) if d else (t, x)
        return x + u * (y - x)
    if d == 0:
        return tuple(scalar_at(f, xi, xi, t) for f, xi in zip(space.factors, x))
    return tuple(scalar_at(f, xi, yi, t * (f.distance(xi, yi) / d))
                 for f, xi, yi in zip(space.factors, x, y))


def scalar_midpoint(space, x, y):
    geodesic_between(space, x, y)       # raises the refusals of construction
    return scalar_at(space, x, y, space.distance(x, y) / 2.0)


def scalar_cat0(space, count=1000, seed=0, radius=5.0, triangles=None):
    """Reference: the four-point check one triangle at a time."""
    cfg = DEFAULT_SAMPLES
    if triangles is None:
        ps = space.sample_points(count, [seed, 7], radius)
        qs = space.sample_points(count, [seed, 8], radius)
        rs = space.sample_points(count, [seed, 9], radius)
        triangles = list(zip(ps, qs, rs))
    checked, margins, scale = [], [], 1.0
    for p, q, r in triangles:
        a, b, c = space.distance(p, q), space.distance(p, r), space.distance(q, r)
        scale = max(scale, a, b, c)
        slack = cfg.tol.scaled(a, b, c)
        if c > a + b + slack or a > b + c + slack or b > a + c + slack:
            continue
        m = scalar_midpoint(space, q, r)
        comparison = math.sqrt(max(0.0, (2 * a * a + 2 * b * b - c * c) / 4.0))
        margins.append(space.distance(p, m) - comparison)
        checked.append((p, q, r, m, [a, b, c], comparison))
    tol = cfg.tol.scaled(scale)
    details = {"skipped_degenerate": len(triangles) - len(checked), "tolerance": tol}
    if not margins:
        details["reason"] = "every triangle degenerate" if triangles else "no triangles"
        return ValidationReport("cat0-four-point", UNDETERMINED, 0, 0.0, None, details)
    k, verdict = worst(margins, tol)
    p, q, r, m, sides, comparison = checked[k]
    witness = {"p": space.point_to_json(p), "q": space.point_to_json(q),
               "r": space.point_to_json(r), "midpoint": space.point_to_json(m),
               "sides": sides, "comparison": comparison}
    return ValidationReport("cat0-four-point", verdict, len(checked), float(margins[k]),
                            witness, details)


def scalar_offset(space, point, vec, scale):
    """Reference: ``point`` moved by ``scale`` times one direction."""
    if isinstance(space, ProductSpace):
        parts, start = [], 0
        for f, p in zip(space.factors, point):
            parts.append(scalar_offset(f, p, vec[start:start + f.coord_dim], scale))
            start += f.coord_dim
        return tuple(parts)
    if isinstance(space, HalfLine):
        return max(float(point) + scale * float(vec[0]), 0.0)
    if isinstance(space, RealLine):
        return float(point) + scale * float(vec[0])
    return np.asarray(point, float) + scale * np.asarray(vec, float)


def scalar_descriptor(space, x, y):
    """Reference: the name of the default geodesic from x to y."""
    if space.distance(x, y) == 0:
        return "constant"
    if not isinstance(space, ProductSpace):
        return "affine"
    return f"sync[{','.join(map(scalar_descriptor, space.factors, x, y))}]"


def scalar_via_at(prod, x, via, y, t):
    """Reference: the two-segment route from x through via to y at parameter t."""
    d1, d2 = prod.distance(x, via), prod.distance(via, y)
    return scalar_at(prod, x, via, t) if t <= d1 else scalar_at(prod, via, y, min(t - d1, d2))


def scalar_uniqueness(prod, x, y, grid=64, perturbations=64, seed=0):
    """Reference: the uniqueness probe one via point and one direction at a time."""
    cfg = DEFAULT_SAMPLES
    d = prod.distance(x, y)
    tol = cfg.tol.scaled(d)
    threshold = 1e-6 * max(1.0, d)
    if d <= tol:
        return ValidationReport("unique-geodesic", PASS, 1, 0.0, None,
                                {"reason": "degenerate endpoints"})
    vias = []
    n = len(prod.factors)
    for mask in range(1, 2**n - 1):
        via = tuple(y[i] if mask >> i & 1 else x[i] for i in range(n))
        d1, d2 = prod.distance(x, via), prod.distance(via, y)
        if tol < d1 and tol < d2 and abs(d1 + d2 - d) <= tol:
            vias.append(via)
    mid = scalar_at(prod, x, y, d / 2.0)
    rng = rng_stream(seed, 41)
    accepted = 0
    directions = _coordinate_directions(prod.coord_dim)
    while len(directions) < perturbations:
        directions.append(rng.normal(size=prod.coord_dim))
    for vec in directions[:perturbations]:
        width = prod.distance(mid, scalar_offset(prod, mid, vec, 1.0))
        if width <= tol:
            continue
        for delta in (d / 4.0, d / 32.0):
            cand = scalar_offset(prod, mid, vec, delta / width)
            if prod.distance(mid, cand) <= tol:
                continue
            if abs(prod.distance(x, cand) - d / 2.0) <= 0.5 * tol and \
               abs(prod.distance(cand, y) - d / 2.0) <= 0.5 * tol:
                vias.append(cand)
                accepted += 1
                break
    ts = np.linspace(0.0, d, grid)
    base_pts = prod.stack([scalar_at(prod, x, y, t) for t in ts])
    sups = [0.0] + [float(prod.distance_batch(
        base_pts, prod.stack([scalar_via_at(prod, x, via, y, t) for t in ts])).max())
        for via in vias]
    k, verdict = worst(sups, threshold)
    witness = {"geodesics": [scalar_descriptor(prod, x, y),
                             f"via({prod.point_to_json(vias[k - 1])})"],
               "sup_distance": sups[k]} if k else None
    return ValidationReport("unique-geodesic", verdict, len(sups), sups[k], witness,
                            {"distinct_threshold": threshold, "candidates": len(sups),
                             "perturbation_hits": accepted, "length": d})


@pytest.mark.parametrize("space", PRODUCTS + [NESTED, LpSpace(2, 1.5), RealLine()],
                         ids=space_id)
def test_cat0_sampled_matches_scalar(space):
    for seed in (0, 3):
        rep = cat0_four_point_check(space, count=60, seed=seed, radius=2.0)
        assert record(rep) == record(scalar_cat0(space, count=60, seed=seed, radius=2.0))
        assert rep.samples > 0


def test_cat0_equal_and_flat_pairs_match_scalar():
    # q == r (midpoint at a zero-length route) and q_i == r_i in one factor only
    for space in PRODUCTS + [NESTED]:
        p, q, r = space.sample_points(3, seed=11, radius=2.0)
        flat_one = tuple(qi if i == 0 else ri for i, (qi, ri) in enumerate(zip(q, r)))
        triangles = [(p, q, q), (p, q, flat_one), (p, q, r), (q, p, p)]
        rep = cat0_four_point_check(space, triangles=triangles)
        assert record(rep) == record(scalar_cat0(space, triangles=triangles))
        assert rep.samples == 4
        for end in (q, flat_one, r):
            assert as_json(space, midpoint(space, q, end)) == \
                as_json(space, scalar_midpoint(space, q, end))


def test_cat0_taxicab_witness_matches_scalar():
    # the flat failure of the sum gluing: the worst row and its witness, bit for bit
    for space in PRODUCTS[3:6] + [ProductSpace((RealLine(), RealLine()), TAXI)]:
        rep = cat0_four_point_check(space, count=80, seed=2, radius=3.0)
        assert rep.failed
        assert record(rep) == record(scalar_cat0(space, count=80, seed=2, radius=3.0))


def test_cat0_no_and_only_degenerate_triangles_match_scalar():
    rep = cat0_four_point_check(LpSpace(2, 2.0), triangles=[])
    assert record(rep) == record(scalar_cat0(LpSpace(2, 2.0), triangles=[]))
    assert rep.details == {"skipped_degenerate": 0, "tolerance": 1e-9, "reason": "no triangles"}
    broken = ProductSpace((RealLine(),), GluingFunction.coordinate_power(1, 2.0))
    triangles = [((0.0,), (1.0,), (2.0,)), ((0.0,), (2.0,), (4.0,))]
    rep = cat0_four_point_check(broken, triangles=triangles)
    assert record(rep) == record(scalar_cat0(broken, triangles=triangles))
    assert rep.verdict == "undetermined" and rep.details["skipped_degenerate"] == 2


def test_cat0_plain_lp_matches_scalar():
    space = LpSpace(2, 1.0)
    tri = [((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))]
    rep = cat0_four_point_check(space, triangles=tri)
    assert record(rep) == record(scalar_cat0(space, triangles=tri))
    assert rep.failed and rep.margin == 2.0


def test_cat0_overflow_fails_like_scalar():
    # at p = 1000 the sides of a triangle 10 across overflow: NaN margins still fail
    space = LpSpace(2, 1000.0)
    tri = [((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))]
    with np.errstate(all="ignore"):
        rep = cat0_four_point_check(space, triangles=tri)
        ref = scalar_cat0(space, triangles=tri)
    assert record(rep) == record(ref)
    assert rep.failed and math.isnan(rep.margin)


@pytest.mark.parametrize("space", [
    ProductSpace((RealLine(), FiniteMetricSpace([[0, 1], [1, 0]])), EU),
    ProductSpace((RealLine(), RealLine()), GluingFunction.two_valued(2)),
    ProductSpace((ProductSpace((RealLine(), RealLine()), GluingFunction.two_valued(2)),
                  RealLine()), EU),
    DiscreteSpace(3),
], ids=["finite-factor", "two-valued", "nested-two-valued", "discrete"])
def test_cat0_refusals_keep_their_messages(space):
    p, q, r = space.sample_points(3, seed=1, radius=2.0)
    with pytest.raises(ValueError) as scalar:
        scalar_cat0(space, triangles=[(p, q, r)])
    with pytest.raises(ValueError, match=f"^{scalar.value}$"):
        cat0_four_point_check(space, triangles=[(p, q, r)])
    with pytest.raises(ValueError, match=f"^{scalar.value}$"):
        midpoint(space, q, r)


def test_given_points_are_checked():
    # batches are not checked, so points given to the API are, before they are stacked
    half = ProductSpace((HalfLine(), RealLine()), EU)
    with pytest.raises(ValueError, match=r"^half-line point must be >= 0, got -1.0$"):
        cat0_four_point_check(half, triangles=[((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0))])
    with pytest.raises(ValueError, match=r"^half-line point must be >= 0, got -1.0$"):
        midpoint(HalfLine(), -1.0, 2.0)
    with pytest.raises(ValueError, match=r"^half-line point must be >= 0, got -0.5$"):
        midpoint(NESTED, ((0.0, np.zeros(2)), 1.0), ((1.0, np.ones(2)), -0.5))
    arity = r"^product points are 2-tuples of factor points$"
    with pytest.raises(ValueError, match=arity):
        cat0_four_point_check(half, triangles=[((0.0, 0.0, 9.0), (1.0, 0.0), (0.0, 1.0))])
    with pytest.raises(ValueError, match=arity):
        midpoint(half, (0.0, 0.0), (1.0, 0.0, 9.0))
    with pytest.raises(ValueError, match=r"does not match lp space of dimension 2"):
        midpoint(LpSpace(2, 1.5), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    # the scalar distance stacks its two points as one-row batches, so it checks them
    with pytest.raises(ValueError, match=r"^half-line point must be >= 0, got -1.0$"):
        HalfLine().distance(2.0, -1.0)
    with pytest.raises(ValueError, match=r"^half-line point must be >= 0, got -0.5$"):
        NESTED.distance(((0.0, np.zeros(2)), 1.0), ((1.0, np.ones(2)), -0.5))
    with pytest.raises(ValueError, match=arity):
        half.distance((0.0, 0.0), (1.0, 0.0, 9.0))
    with pytest.raises(ValueError, match=r"^point of dimension \(3,\) does not match lp space "
                                         r"of dimension 2$"):
        LpSpace(2, 1.5).distance((0.0, 0.0, 1.0), (1.0, 0.0))


@pytest.mark.parametrize("space", PRODUCTS + [NESTED], ids=space_id)
def test_product_geodesic_matches_scalar(space):
    # the default route evaluates through the batched sync arithmetic; the reference
    # composes the factor routes, and explicit selectors keep the route objects
    ts_frac = np.linspace(0.0, 1.0, 17)
    for seed in (4, 9):
        x, y = space.sample_points(2, seed=seed, radius=3.0)
        flat_one = tuple(yi if i == 0 else xi for i, (xi, yi) in enumerate(zip(x, y)))
        for end in (x, y, flat_one):
            geo = product_geodesic(space, x, end)
            explicit = product_geodesic(space, x, end, selectors=["affine"] * len(space.factors))
            ts = ts_frac * geo.length
            pts = [as_json(space, p) for p in space.unstack(geo.at_many(ts))]
            assert pts == [as_json(space, scalar_at(space, x, end, t)) for t in ts]
            assert pts == [as_json(space, p) for p in space.unstack(explicit.at_many(ts))]
            assert geo.descriptor == explicit.descriptor


def test_default_geodesic_measures_its_factors_when_built(monkeypatch):
    # the factor lengths are constants of the route, so evaluating it measures nothing
    x, y = NESTED.sample_points(2, seed=4, radius=3.0)
    geo = product_geodesic(NESTED, x, y)
    calls = []
    for cls in (ProductSpace, RealLine, LpSpace, HalfLine):
        original = cls.distance_batch
        monkeypatch.setattr(cls, "distance_batch",
                            lambda self, *args, f=original: calls.append(1) or f(self, *args))
    pts = geo.at_many(np.linspace(0.0, geo.length, 64))
    monkeypatch.undo()
    assert calls == [] and len(NESTED.unstack(pts)) == 64


@pytest.mark.parametrize("prod", PRODUCTS + [NESTED], ids=space_id)
def test_uniqueness_matches_scalar(prod):
    pairs = [prod.sample_points(2, seed=s, radius=3.0) for s in (5, 6)]
    for x, y in pairs:
        rep = uniqueness_probe(prod, x, y, perturbations=24, seed=2)
        assert record(rep) == record(scalar_uniqueness(prod, x, y, perturbations=24, seed=2))


def test_uniqueness_hits_and_half_line_clamp_match_scalar():
    # taxicab planes accept perturbed midpoints; near 0 a half-line offset clamps
    cases = [(ProductSpace((RealLine(), RealLine()), TAXI), (0.0, 0.0), (1.0, 1.0)),
             (ProductSpace((HalfLine(), HalfLine()), TAXI), (0.0, 0.02), (0.02, 0.0)),
             (ProductSpace((HalfLine(), RealLine()), EU), (0.01, -1.0), (0.03, 1.0)),
             (ProductSpace((ProductSpace((RealLine(), RealLine()), TAXI), RealLine()), TAXI),
              ((0.0, 0.0), 0.0), ((1.0, 1.0), 1.0))]
    for prod, x, y in cases:
        for perturbations in (0, 5, 64):
            rep = uniqueness_probe(prod, x, y, perturbations=perturbations)
            ref = scalar_uniqueness(prod, x, y, perturbations=perturbations)
            assert record(rep) == record(ref)
    assert rep.details["perturbation_hits"] > 0
    half = HalfLine()
    clamped = half.offset(0.01, np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
    assert clamped.tolist() == [scalar_offset(half, 0.01, [-1.0], 1.0), 1.01] == [0.0, 1.01]


def counted(monkeypatch, method):
    calls = []
    original = getattr(ProductSpace, method)
    monkeypatch.setattr(ProductSpace, method,
                        lambda self, *args: calls.append(1) or original(self, *args))
    return calls


def test_cat0_calls_do_not_grow_with_count(monkeypatch):
    plane = ProductSpace((RealLine(), HalfLine()), EU)
    counts = []
    for count in (100, 250):
        scalar, batch = counted(monkeypatch, "distance"), counted(monkeypatch, "distance_batch")
        rep = cat0_four_point_check(plane, count=count, seed=1)
        monkeypatch.undo()
        assert rep.passed and rep.samples == count
        counts.append((len(scalar), len(batch)))
    assert counts[0] == counts[1]


def test_uniqueness_calls_do_not_grow_with_perturbations(monkeypatch):
    prod = ProductSpace((RealLine(), LpSpace(2, 1.5)), LP15)
    x, y = (0.0, np.array([0.0, 1.0])), (2.0, np.array([1.0, -1.0]))
    counts = []
    for perturbations in (16, 64):
        scalar, batch = counted(monkeypatch, "distance"), counted(monkeypatch, "distance_batch")
        rep = uniqueness_probe(prod, x, y, perturbations=perturbations)
        monkeypatch.undo()
        assert rep.passed and rep.details["perturbation_hits"] == 0
        counts.append((len(scalar), len(batch)))
    assert counts[0] == counts[1]


def test_uniqueness_builds_one_geodesic_and_one_batch_per_stage(monkeypatch):
    # at 64 perturbations this taxicab product passes more of its 20 structured directions
    # than at 16; their via routes are evaluated together, so neither count grows with them
    from metricprod import geodesics

    prod = ProductSpace((LpSpace(2, 1.0), LpSpace(2, 1.0)), TAXI)
    x, y = (np.zeros(2), np.zeros(2)), (np.ones(2), np.ones(2))
    counts, hits = [], []
    for perturbations in (16, 64):
        built, original = [], geodesics.product_geodesic
        monkeypatch.setattr(geodesics, "product_geodesic",
                            lambda *args, **kw: built.append(1) or original(*args, **kw))
        batch = counted(monkeypatch, "distance_batch")
        rep = uniqueness_probe(prod, x, y, perturbations=perturbations)
        monkeypatch.undo()
        assert rep.failed
        counts.append((len(built), len(batch)))
        hits.append(rep.details["perturbation_hits"])
    assert counts[0] == counts[1] and counts[0][0] == 1
    assert 0 < hits[0] < hits[1]
