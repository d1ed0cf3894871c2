import itertools
import math

import numpy as np
import pytest

from metricprod import (
    BudgetExceededError,
    DiscreteSpace,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
    SampleConfig,
    alpha_decompose,
    counterexample_sum_halflines,
    declared_rank,
    finite_embedding_oracle,
    line_pattern,
    product_rank,
)

CFG = SampleConfig(count=3000, seed=0)


def test_declared_ranks():
    assert declared_rank(HalfLine()).rank == 0
    assert declared_rank(LpSpace(3, 2.0)).rank == 3
    assert declared_rank(DiscreteSpace(7)).rank == 0
    assert declared_rank(RealLine()).rank == 1


def test_product_rank_additive_for_weighted_euclidean():
    prod = ProductSpace((RealLine(), HalfLine()), GluingFunction.euclidean((1.0, 1.0)))
    rec = product_rank(prod, cfg=CFG)
    assert rec.rank == 1
    assert rec.provenance == "strict-norm-additivity"
    assert rec.additivity_guaranteed


def test_product_rank_lp_factors():
    prod = ProductSpace((LpSpace(2, 2.0), LpSpace(3, 2.0)),
                        GluingFunction.euclidean((1.0, 1.0)))
    assert product_rank(prod, cfg=CFG).rank == 5


def test_product_rank_sum_refuses_additivity():
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))
    rec = product_rank(prod, cfg=CFG)
    assert rec.rank == 0
    assert rec.provenance == "superadditive-lower-bound"
    assert not rec.additivity_guaranteed
    assert any("not guaranteed" in n for n in rec.notes)


def test_product_rank_nested():
    inner = ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0)))
    outer = ProductSpace((inner, HalfLine()), GluingFunction.euclidean((1.0, 1.0)))
    assert product_rank(outer, cfg=CFG).rank == 2


@pytest.mark.parametrize("record", [
    lambda: declared_rank(LpSpace(3, 2.0)),
    lambda: declared_rank(HalfLine()),
    lambda: product_rank(ProductSpace((RealLine(), RealLine()), GluingFunction.lp(2, 3.0)), CFG),
    lambda: product_rank(ProductSpace((RealLine(), RealLine()), GluingFunction.sum(2)), CFG),
], ids=["declared-lp2", "declared-half-line", "additive", "lower-bound"])
def test_rank_records_carry_only_the_rank_and_its_provenance(record):
    """A rank record states the rank and what licensed it; it echoes no declaration."""
    assert list(record().to_record()) == ["check", "space", "rank", "provenance",
                                          "additivity_guaranteed", "notes"]


@pytest.mark.parametrize("phi, cls", [
    (GluingFunction.two_valued(2), "metric-compatible"),
    (GluingFunction.coordinate_power(1, 0.5), "metric-compatible"),
    (GluingFunction.coordinate_power(1, 2.0), "not-a-metric-product"),
    (GluingFunction.coordinate_power(2, 0.5), "not-a-metric-product"),
    (GluingFunction.coordinate_power(2, 2.0), "not-a-metric-product"),
], ids=repr)
def test_a_class_below_norm_induced_licenses_no_rank(phi, cls):
    """Below norm-induced no normed flat of the factors survives the gluing, so the sum
    of the factor ranks bounds nothing: no rank, and the provenance names the class.
    Two-valued distances lie in {0, 1, 2}, so its product has Minkowski rank 0, not 2."""
    rec = product_rank(ProductSpace([RealLine()] * phi.dim, phi), CFG)
    assert (rec.rank, rec.provenance, rec.additivity_guaranteed) == (None, cls, False)
    metric = cls == "metric-compatible"
    assert (rec.reason is None) == metric
    assert ("reason" in rec.to_record()) == (not metric)


def test_a_factor_that_is_not_a_metric_space_fails_the_outer_record():
    inner = ProductSpace((RealLine(), RealLine()), GluingFunction.coordinate_power(2, 2.0))
    for outer in (ProductSpace((inner, RealLine()), GluingFunction.sum(2)),
                  ProductSpace((RealLine(), inner), GluingFunction.euclidean((1.0, 1.0)))):
        rec = product_rank(outer, CFG)
        assert rec.rank is None
        assert rec.reason.startswith("factor product(real-line, real-line): ")


# -- the counterexample ---------------------------------------------------------


def test_counterexample_exact():
    rep = counterexample_sum_halflines(10.0, 101)
    assert rep.passed
    assert rep.margin == 0.0
    assert rep.details["exact"]


def test_counterexample_spot_values():
    prod = ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2))

    def c(t):
        return (max(-t, 0.0), max(t, 0.0))

    assert prod.distance(c(-1.0), c(1.0)) == 2.0
    assert prod.distance(c(-3.0), c(-1.0)) == 2.0
    assert prod.distance(c(0.5), c(0.5)) == 0.0


def test_counterexample_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_sum_halflines(-1.0)


# -- embedding oracle ------------------------------------------------------------


def test_oracle_finds_line_pattern_in_half_line_grid():
    grid = [0.5 * i for i in range(13)]
    probe = finite_embedding_oracle(line_pattern([0.0, 1.0, 2.0]), grid, HalfLine())
    assert probe.found
    placed = [grid[j] for j in probe.assignment]
    assert abs(placed[0] - placed[1]) == 1.0
    assert abs(placed[0] - placed[2]) == 2.0


def test_oracle_rejects_equilateral_on_line():
    # exhaustive: three collinear points cannot be pairwise equidistant
    pattern = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    points = RealLine().sample_points(64, seed=3, radius=5.0)
    probe = finite_embedding_oracle(pattern, points, RealLine())
    assert not probe.found


def test_oracle_finds_cross_in_euclidean_plane_grid():
    prod = ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0)))
    coords = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    # oracle for the pattern matrix: plain euclidean distances of the cross
    pattern = np.array([[np.hypot(a[0] - b[0], a[1] - b[1]) for b in coords]
                        for a in coords])
    extras = [(2.0, 2.0), (-1.5, 0.5), (0.25, -0.75)]
    points = [tuple(map(float, p)) for p in coords + extras]
    probe = finite_embedding_oracle(pattern, points, prod)
    assert probe.found
    assert probe.assignment == (0, 1, 2, 3, 4)


def test_oracle_budget_errors():
    with pytest.raises(BudgetExceededError):
        finite_embedding_oracle(np.zeros((9, 9)), [0.0], HalfLine())
    with pytest.raises(BudgetExceededError):
        finite_embedding_oracle(line_pattern([0.0, 1.0]), [0.0] * 65, HalfLine())


def test_oracle_verdict_invariant_under_pattern_relabeling():
    grid = [0.5 * i for i in range(13)]
    base = line_pattern([0.0, 1.0, 2.0]).matrix
    for perm in itertools.permutations(range(3)):
        mat = base[np.ix_(perm, perm)]
        probe = finite_embedding_oracle(mat, grid, HalfLine())
        assert probe.found


def test_oracle_lexicographically_first():
    grid = [float(i) for i in range(6)]
    probe = finite_embedding_oracle(line_pattern([0.0, 1.0]), grid, RealLine())
    assert probe.assignment == (0, 1)


# -- alpha decomposition -----------------------------------------------------------


def euclid_plane():
    return ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0)))


VECTORS = np.linspace(-3.0, 3.0, 25)


def test_alpha_axis_embedding_passes_all_checks():
    dec, reports = alpha_decompose(lambda v: (float(v[0]), 0.0), euclid_plane(),
                                   [0.0], [2.0], VECTORS, cfg=CFG)
    assert [r.condition for r in reports] == [
        "alpha-isometry", "alpha-base-independence", "alpha-homogeneity",
        "alpha-triangle"]
    assert all(r.passed for r in reports)
    assert dec.gauge(1) == pytest.approx(np.zeros(len(VECTORS)))


def test_alpha_rescaled_diagonal_passes():
    s = 1.0 / math.sqrt(2.0)
    dec, reports = alpha_decompose(lambda v: (float(v[0]) * s, float(v[0]) * s),
                                   euclid_plane(), [0.0], [2.0], VECTORS, cfg=CFG)
    assert all(r.passed for r in reports)


def test_alpha_unrescaled_diagonal_rejected_with_sqrt2_margin():
    # direct evaluation: gauges are (|v|, |v|), glued value sqrt(2)|v|
    dec, reports = alpha_decompose(lambda v: (float(v[0]), float(v[0])),
                                   euclid_plane(), [0.0], [2.0], VECTORS, cfg=CFG)
    iso = reports[0]
    assert iso.failed
    assert iso.margin == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    assert iso.details["reason"] == "not an isometric embedding"
    # the other pseudonorm checks still run on the returned decomposition
    assert all(r.passed for r in reports[1:])


def test_alpha_identity_product_embedding_with_glued_source_norm():
    # superadditivity: gluing the factor-identity embeddings is isometric
    # for the combined source norm, for every strictly convex catalog gluing
    grid = np.array(np.meshgrid(np.linspace(-2, 2, 7),
                                np.linspace(-2, 2, 7))).reshape(2, -1).T
    for phi in (GluingFunction.euclidean((1.0, 1.0)),
                GluingFunction.euclidean((1.0, 4.0)),
                GluingFunction.lp(2, 1.5), GluingFunction.lp(2, 3.0)):
        prod = ProductSpace((RealLine(), RealLine()), phi)
        psi = phi.symmetrized()
        dec, reports = alpha_decompose(
            lambda v: (float(v[0]), float(v[1])), prod,
            [0.0, 0.0], [1.0, -2.0], grid, source_norm=psi, cfg=CFG)
        assert all(r.passed for r in reports), phi.label


def test_alpha_axis_rescaled_embeddings_per_axis():
    # per-axis rescaling by the axis value makes each axis embedding isometric
    for phi in (GluingFunction.euclidean((1.0, 4.0)), GluingFunction.lp(2, 3.0)):
        prod = ProductSpace((RealLine(), RealLine()), phi)
        for axis in range(2):
            scale = 1.0 / phi.axis_value(axis)

            def embed(v, axis=axis, scale=scale):
                pt = [0.0, 0.0]
                pt[axis] = float(v[0]) * scale
                return tuple(pt)

            dec, reports = alpha_decompose(embed, prod, [0.0], [1.5], VECTORS, cfg=CFG)
            assert reports[0].passed, (phi.label, axis)


def test_alpha_refuses_non_strictly_convex_gluing():
    prod = ProductSpace((RealLine(), RealLine()), GluingFunction.sum(2))
    with pytest.raises(ValueError):
        alpha_decompose(lambda v: (float(v[0]), 0.0), prod, [0.0], [1.0],
                        VECTORS, cfg=CFG)


@pytest.mark.parametrize("p", [8.0, 20.0])
def test_large_p_products_read_the_proven_class(p):
    """The sampled strict rung cannot resolve lp at p = 8 or 20 (their midpoints lie within
    ``strict`` of 1); construction reads the class the paper proves instead."""
    prod = ProductSpace((LpSpace(2, 2.0), RealLine()), GluingFunction.lp(2, p))
    rec = product_rank(prod, cfg=CFG)
    assert rec.rank == 3
    assert rec.provenance == "strict-norm-additivity"
    _, reports = alpha_decompose(lambda v: (np.array([v[0], 0.0]), 0.0), prod,
                                 [0.0], [1.0], VECTORS, cfg=CFG)
    assert reports[0].passed


def test_oracle_prunes_a_nan_placement():
    probe = finite_embedding_oracle(line_pattern([0.0, 1.0]), [math.nan, 1.0, 2.0], RealLine())
    assert probe.assignment == (1, 2)
