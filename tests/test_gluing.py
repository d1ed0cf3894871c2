import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricprod import (
    GluingClass,
    GluingFunction,
    ProductSpace,
    RealLine,
    SampleConfig,
    ValidationReport,
    check_axis_pythagoras,
    check_definiteness,
    check_norm_conditions,
    check_quadrant_triangle,
    check_strict_convexity,
    check_symmetrized_norm_axioms,
    classify,
    scalar_product_weights,
    verify_metric_axioms,
)

CFG = SampleConfig(count=3000, seed=0)

EUCLID = GluingFunction.euclidean((1.0, 1.0))
EUCLID_W = GluingFunction.euclidean((1.0, 4.0))
SUM2 = GluingFunction.sum(2)
MAX2 = GluingFunction.max(2)
LP15 = GluingFunction.lp(2, 1.5)
LP3 = GluingFunction.lp(2, 3.0)
TWOVAL = GluingFunction.two_valued(2)

NORM_CATALOG = [EUCLID, EUCLID_W, SUM2, MAX2, LP15, LP3]


def test_eval_examples():
    assert EUCLID((3.0, 4.0)) == 5.0
    assert SUM2((1.0, 1.0)) == 2.0
    assert TWOVAL((0.0, 0.0)) == 0.0
    assert TWOVAL((0.5, 0.2)) == 1.0
    assert TWOVAL((3.0, 0.0)) == 2.0


def test_eval_validates_input():
    with pytest.raises(ValueError):
        EUCLID((1.0, -1.0))
    with pytest.raises(ValueError):
        EUCLID((1.0, 1.0, 1.0))


@pytest.mark.parametrize("p, weights", [
    (math.nan, None), (0.5, None), (2.0, (1.0, math.nan)), (2.0, (1.0, math.inf)),
    (3.0, (1.0, 0.0))], ids=["nan-p", "p-below-1", "nan-weight", "inf-weight", "zero-weight"])
def test_weighted_p_norm_refuses_what_the_theorem_excludes(p, weights):
    """``known_class`` holds only for p >= 1 and finite positive weights."""
    with pytest.raises(ValueError):
        GluingFunction.lp(2, p, weights)


def test_axis_values_match_weight_roots():
    phi = GluingFunction.lp(3, 3.0, weights=(1.0, 8.0, 27.0))
    assert phi.axis_values() == pytest.approx([1.0, 2.0, 3.0])
    assert EUCLID_W.axis_values() == pytest.approx([1.0, 2.0])


def test_batch_eval_matches_scalar():
    # a single vector is evaluated as a one-row batch: its value is the row's, bit for bit
    q = np.random.default_rng(0).uniform(0, 5, (40, 2))
    custom = GluingFunction.custom(2, lambda a: np.linalg.norm(a, axis=-1), label="norm")
    for phi in NORM_CATALOG + [TWOVAL, GluingFunction.coordinate_power(2, 1.5), custom]:
        batch = phi(q)
        for i in range(len(q)):
            assert batch[i] == phi(q[i])


# -- definiteness (condition A) -------------------------------------------------


def test_definiteness_passes_for_weighted_lp():
    assert check_definiteness(LP3, CFG).passed


def test_definiteness_fails_for_first_coordinate():
    # the projection vanishes on the second axis: direct evaluation gives 0
    phi = GluingFunction.coordinate_power(2, 1.0)
    assert phi((0.0, 1.0)) == 0.0
    rep = check_definiteness(phi, CFG)
    assert rep.failed
    w = np.asarray(rep.witness["q"], float)
    assert phi(w) <= 1e-9 and w.max() > 0


def test_definiteness_passes_for_two_valued():
    assert check_definiteness(TWOVAL, CFG).passed


# -- quadrant triangle (condition B) --------------------------------------------


def test_quadrant_triangle_passes_for_norms():
    for phi in NORM_CATALOG:
        assert check_quadrant_triangle(phi, CFG).passed


def test_quadrant_triangle_fails_for_square():
    # direct evaluation: value(2) = 4 > value(1) + value(1) = 2
    phi = GluingFunction.coordinate_power(1, 2.0)
    assert phi((2.0,)) == 4.0 and phi((1.0,)) == 1.0
    rep = check_quadrant_triangle(phi, CFG)
    assert rep.failed
    vals = rep.witness["values"]
    assert vals[0] > vals[1] + vals[2]


def test_quadrant_triangle_passes_for_two_valued():
    assert check_quadrant_triangle(TWOVAL, CFG).passed


# -- norm conditions (1)-(4) ----------------------------------------------------


def test_norm_conditions_pass_for_sum_and_lp():
    for phi in (SUM2, LP3):
        reports = check_norm_conditions(phi, CFG)
        assert [r.condition for r in reports] == [
            "positivity", "monotonicity", "subadditivity", "homogeneity"]
        assert all(r.passed for r in reports)


def test_two_valued_fails_homogeneity_with_witness():
    reports = {r.condition: r for r in check_norm_conditions(TWOVAL, CFG)}
    assert reports["positivity"].passed
    assert reports["monotonicity"].passed
    assert reports["subadditivity"].passed
    hom = reports["homogeneity"]
    assert hom.failed
    lam = hom.witness["lambda"]
    q = np.asarray(hom.witness["q"], float)
    # replay the two-valued rule on the witness
    assert TWOVAL(lam * q) != pytest.approx(lam * TWOVAL(q))


def test_norm_conditions_imply_a_and_b_on_catalog():
    for phi in NORM_CATALOG + [TWOVAL, GluingFunction.coordinate_power(2, 1.0)]:
        reports = check_norm_conditions(phi, CFG)
        if all(r.passed for r in reports):
            assert check_definiteness(phi, CFG).passed
            assert check_quadrant_triangle(phi, CFG).passed


# -- axis Pythagoras (condition 5) ----------------------------------------------


def test_axis_pythagoras_passes_for_weighted_euclidean():
    assert check_axis_pythagoras(EUCLID_W, CFG).passed


def test_axis_pythagoras_passes_only_for_weighted_euclidean_in_catalog():
    for phi in NORM_CATALOG + [TWOVAL]:
        rep = check_axis_pythagoras(phi, CFG)
        assert rep.passed == (phi.kind == "weighted-euclidean"), phi.label


@pytest.mark.parametrize("p,margin", [
    (1.0, 2.0),                      # 4 vs 2, direct evaluation at (1, 1)
    (1.5, 2.0 ** (4.0 / 3.0) - 2.0),
    (3.0, 2.0 - 2.0 ** (2.0 / 3.0)),
    (4.0, 2.0 - math.sqrt(2.0)),
])
def test_axis_pythagoras_separates_exponents(p, margin):
    phi = GluingFunction.lp(2, p)
    rep = check_axis_pythagoras(phi, CFG)
    assert rep.failed
    assert rep.details["margin_at_ones"] == pytest.approx(margin, abs=1e-12)
    assert rep.details["margin_at_ones"] > 1e-3


# -- strict convexity -------------------------------------------------------------


def test_strict_convexity_passes_for_euclidean_and_lp():
    for phi in (EUCLID, EUCLID_W, LP15, LP3):
        assert check_strict_convexity(phi, CFG).passed


def test_strict_convexity_fails_for_sum_with_axis_witness():
    rep = check_strict_convexity(SUM2, CFG)
    assert rep.failed
    # the axis midpoint has norm exactly one
    assert rep.witness["midpoint_norm"] == 1.0
    psi = SUM2.symmetrized()
    x, y = np.asarray(rep.witness["x"]), np.asarray(rep.witness["y"])
    assert psi((x + y) / 2.0) == 1.0


def test_strict_convexity_fails_for_max():
    rep = check_strict_convexity(MAX2, CFG)
    assert rep.failed
    assert rep.witness["midpoint_norm"] == 1.0


def test_strict_convexity_undetermined_without_norm():
    rep = check_strict_convexity(TWOVAL, CFG)
    assert rep.verdict == "undetermined"


# -- classification ladder ---------------------------------------------------------


@pytest.mark.parametrize("phi,expected", [
    (EUCLID, GluingClass.SCALAR_PRODUCT_INDUCED),
    (EUCLID_W, GluingClass.SCALAR_PRODUCT_INDUCED),
    (SUM2, GluingClass.NORM_INDUCED),
    (MAX2, GluingClass.NORM_INDUCED),
    (LP15, GluingClass.STRICTLY_CONVEX_NORM),
    (LP3, GluingClass.STRICTLY_CONVEX_NORM),
    (TWOVAL, GluingClass.METRIC_COMPATIBLE),
    (GluingFunction.coordinate_power(1, 2.0), GluingClass.NOT_A_METRIC_PRODUCT),
    (GluingFunction.coordinate_power(2, 1.0), GluingClass.NOT_A_METRIC_PRODUCT),
])
def test_classification_ladder(phi, expected):
    result = classify(phi, CFG)
    assert result.gluing_class is expected
    assert set(result.reports) == {
        "definiteness", "quadrant-triangle", "positivity", "monotonicity",
        "subadditivity", "homogeneity", "strict-convexity", "axis-pythagoras"}


def test_classification_is_cached():
    phi = GluingFunction.sum(2)
    first = phi.classification(CFG)
    assert phi.classification(CFG) is first


LADDER = ["not-a-metric-product", "metric-compatible", "norm-induced",
          "strictly-convex-norm", "scalar-product-induced"]


def test_class_ordering():
    """Declaration order is the ladder, weakest first, and ``at_least`` reads it."""
    assert GluingClass.SCALAR_PRODUCT_INDUCED.at_least(GluingClass.NORM_INDUCED)
    assert not GluingClass.METRIC_COMPATIBLE.at_least(GluingClass.NORM_INDUCED)
    assert [c.value for c in GluingClass] == LADDER
    for i, high in enumerate(LADDER):
        for j, low in enumerate(LADDER):
            assert GluingClass(high).at_least(GluingClass(low)) is (i >= j), (high, low)


def test_custom_gluing_goes_through_ladder():
    phi = GluingFunction.custom(2, lambda q: q.sum(axis=-1), label="custom-sum")
    assert classify(phi, CFG).gluing_class is GluingClass.NORM_INDUCED


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_gluing_values_raise(value):
    """A NaN fails every comparison and would pass every check; it is refused instead."""
    phi = GluingFunction.custom(2, lambda q: np.full(q.shape[:-1], value))
    with pytest.raises(ValueError, match="non-finite"):
        classify(phi, SampleConfig(count=200, seed=0))
    prod = ProductSpace((RealLine(), RealLine()), phi)
    with pytest.raises(ValueError, match="non-finite"):
        verify_metric_axioms(prod, SampleConfig(count=200, seed=0))


@pytest.mark.parametrize("phi", [GluingFunction.sum(1), GluingFunction.max(1),
                                 GluingFunction.lp(1, 3.0)], ids=["sum", "max", "lp3"])
def test_dim_one_norms_pass_the_strict_rung(phi):
    """Every norm on R is a multiple of |x|: strictly convex and Euclidean."""
    result = classify(phi, SampleConfig(count=500, seed=0))
    strict = result.reports["strict-convexity"]
    assert (strict.verdict, strict.details["reason"]) == ("pass", "dim 1")
    assert result.gluing_class is GluingClass.SCALAR_PRODUCT_INDUCED


def test_dim_one_strict_rung_checks_the_norm_conditions_first():
    rep = check_strict_convexity(GluingFunction.coordinate_power(1, 2.0), CFG)
    assert (rep.verdict, rep.details["reason"]) == ("undetermined", "norm conditions failed")


def test_undetermined_strict_rung_stops_the_class_at_norm_induced(monkeypatch):
    import metricprod.gluing as gluing

    def undetermined(phi, cfg=None, *, norm_reports=None):
        return ValidationReport("strict-convexity", "undetermined", 0, 0.0, None,
                                {"reason": "no admissible pairs sampled"})

    monkeypatch.setattr(gluing, "check_strict_convexity", undetermined)
    assert classify(EUCLID, SampleConfig(count=300, seed=0)).gluing_class \
        is GluingClass.NORM_INDUCED


# -- induced scalar product ---------------------------------------------------------


@pytest.mark.parametrize("weights", [(1.0, 4.0), (1.0, 1.0, 1.0), (2.0, 3.0)])
def test_scalar_product_weights(weights):
    phi = GluingFunction.euclidean(weights)
    assert scalar_product_weights(phi, CFG) == pytest.approx(np.asarray(weights))


def test_scalar_product_weights_refuses_non_scalar():
    with pytest.raises(ValueError):
        scalar_product_weights(SUM2, CFG)


def counted(monkeypatch, name):
    """The labels of the gluings that ``gluing.<name>`` is called on from now on."""
    from metricprod import gluing

    calls, original = [], getattr(gluing, name)

    def counting(phi, *args, **kwargs):
        calls.append(phi.label)
        return original(phi, *args, **kwargs)

    monkeypatch.setattr(gluing, name, counting)
    return calls


@pytest.mark.parametrize("make, weights", [
    (lambda: GluingFunction.lp(3, 1.5, (1.0, 2.0, 0.5)), None),
    (lambda: GluingFunction.lp(2, 3.0), None),
    (lambda: GluingFunction.lp(2, math.inf, (2.0, 1.0)), None),
    (lambda: GluingFunction.euclidean((1.0, 4.0)), [1.0, 4.0]),
    (lambda: GluingFunction.lp(1, 3.0, (2.0,)), [2.0 ** (2 / 3)]),   # phi(t) = 2^(1/3) t
    (lambda: GluingFunction.sum(2), None),
    (lambda: GluingFunction.max(3), None),
], ids=["lp1.5", "lp3", "lp-inf", "weighted-euclidean", "lp3-dim1", "sum", "max"])
def test_scalar_product_weights_read_the_proven_class(monkeypatch, make, weights):
    """A weighted p-norm's class is proven, so the gate samples no ladder."""
    phi, calls = make(), counted(monkeypatch, "classify")
    if weights is None:
        with pytest.raises(ValueError, match="not scalar-product-induced"):
            scalar_product_weights(phi, CFG)
    else:
        assert scalar_product_weights(phi, CFG) == pytest.approx(weights)
    assert calls == []


@pytest.mark.parametrize("make", [lambda: GluingFunction.two_valued(2),
                                  lambda: GluingFunction.coordinate_power(1, 0.5),
                                  lambda: GluingFunction.coordinate_power(2, 1.0)],
                         ids=["two-valued", "coordinate-power-dim1", "coordinate-power-dim2"])
def test_scalar_product_weights_sample_a_gluing_without_a_proven_class(monkeypatch, make):
    phi, calls = make(), counted(monkeypatch, "classify")
    with pytest.raises(ValueError, match="not scalar-product-induced"):
        scalar_product_weights(phi, SampleConfig(count=500, seed=0))
    assert calls == [phi.label]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_standalone_strict_convexity_on_a_proven_norm_samples_no_norm_conditions(
        monkeypatch, p, dim, seed):
    """The proven class makes a weighted p-norm a norm, so the standalone rung skips its
    norm precondition, and its record is the one made after sampling that precondition."""
    cfg = SampleConfig(count=400, seed=seed)
    phi = GluingFunction.lp(dim, p, np.random.default_rng(seed).uniform(0.5, 2.0, dim))
    sampled = check_strict_convexity(phi, cfg, norm_reports=check_norm_conditions(phi, cfg))
    calls = counted(monkeypatch, "check_norm_conditions")
    assert check_strict_convexity(phi, cfg).to_record() == sampled.to_record()
    assert calls == []


def test_standalone_strict_convexity_without_a_proven_class_samples_the_norm_conditions(
        monkeypatch):
    calls = counted(monkeypatch, "check_norm_conditions")
    rep = check_strict_convexity(TWOVAL, SampleConfig(count=400, seed=0))
    assert calls == [TWOVAL.label]
    assert rep.verdict == "undetermined"
    assert rep.details["failed_conditions"] == ["homogeneity"]


# -- symmetrization -----------------------------------------------------------------


def test_symmetrized_norm_axioms_for_norm_catalog():
    for phi in NORM_CATALOG:
        assert all(r.passed for r in check_symmetrized_norm_axioms(phi, CFG))


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("exponent", [0.5, 3.0])
def test_psi_positivity_fails_off_axis_zero(exponent, seed):
    # psi(x) = |x_0|^e vanishes on the axis x_0 = 0
    phi = GluingFunction.coordinate_power(2, exponent)
    reports = {r.condition: r for r in
               check_symmetrized_norm_axioms(phi, SampleConfig(count=400, seed=seed))}
    assert reports["psi-positivity"].failed
    assert reports["psi-positivity"].witness["value"] == 0.0


def test_classify_draws_definiteness_once(monkeypatch):
    import metricprod.gluing as gluing

    calls = []
    original = gluing.check_definiteness

    def counting(phi, cfg=None):
        calls.append(phi)
        return original(phi, cfg)

    monkeypatch.setattr(gluing, "check_definiteness", counting)
    result = classify(LP15, SampleConfig(count=400, seed=5))
    assert len(calls) == 1
    assert result.reports["positivity"].margin == result.reports["definiteness"].margin


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
def test_symmetrization_is_even(x):
    psi = LP3.symmetrized()
    arr = np.asarray(x)
    assert psi(arr) == psi(-arr)
    assert psi(arr) == psi(np.abs(arr))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0, 40), min_size=2, max_size=2),
       st.lists(st.floats(0, 40), min_size=2, max_size=2))
def test_subadditivity_property_on_quadrant(p, q):
    p, q = np.asarray(p), np.asarray(q)
    for phi in (EUCLID, SUM2, MAX2, LP3):
        assert phi(p + q) <= phi(p) + phi(q) + 1e-9 * max(1.0, phi(p) + phi(q))


def test_two_valued_rule_is_the_documented_one():
    rng = np.random.default_rng(1)
    q = rng.uniform(0, 3, (100, 2))
    vals = TWOVAL(q)
    expected = np.where(q.max(axis=1) <= 1.0, 1.0, 2.0)
    assert (vals == expected).all()


# -- the proven class of weighted p-norms ------------------------------------------

GUARD = SampleConfig(count=2000, seed=0)


def _proven_class_cases():
    """lp at p in {1, 1.5, 2, 3, 4, oo} with unit and random weights, then sum and max,
    over dims 1-6; above p = 4 the sampled strict rung cannot resolve the class."""
    for dim in range(1, 7):
        rng = np.random.default_rng(dim)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, math.inf):
            yield GluingFunction.lp(dim, p)
            yield GluingFunction.lp(dim, p, rng.uniform(0.5, 2.0, dim))
        yield GluingFunction.sum(dim)
        yield GluingFunction.max(dim)


@pytest.mark.parametrize("phi", list(_proven_class_cases()), ids=repr)
def test_sampled_ladder_agrees_with_the_proven_class(phi):
    assert classify(phi, GUARD).gluing_class is phi.known_class


@pytest.mark.parametrize("phi", [TWOVAL, GluingFunction.coordinate_power(2, 1.0),
                                 GluingFunction.custom(2, lambda q: q.sum(axis=-1))], ids=repr)
def test_only_weighted_p_norms_have_a_proven_class(phi):
    assert phi.known_class is None


@pytest.mark.parametrize("exponent", [-1.0, -1e-300, math.nan])
def test_coordinate_power_refuses_a_negative_or_nan_exponent(exponent):
    with pytest.raises(ValueError, match="exponent >= 0"):
        GluingFunction.coordinate_power(2, exponent)


def test_coordinate_power_reads_no_coordinate_as_coordinate_zero():
    phi = GluingFunction(2, "coordinate-power", exponent=2.0)
    assert (phi.coordinate, phi((3.0, 1.0)), phi.label) == (0, 9.0, "coordinate-power(q[0]^2)")


def test_coordinate_power_takes_exponent_zero():
    assert GluingFunction.coordinate_power(2, 0.0)(np.array([0.0, 3.0])) == 1.0


@pytest.mark.parametrize("make, message", [
    (lambda: GluingFunction(2, "sum", weights=[1, 5]), "sum takes no 'weights'"),
    (lambda: GluingFunction(2, "max", weights=[1, 5]), "max takes no 'weights'"),
    (lambda: GluingFunction(2, "max", p=3), "max takes no 'p'"),
    (lambda: GluingFunction(2, "weighted-euclidean", p=3), "weighted-euclidean takes no 'p'"),
    (lambda: GluingFunction(2, "two-valued", p=3), "two-valued takes no 'p'"),
    (lambda: GluingFunction(2, "coordinate-power", exponent=1.0, weights=[1, 5]),
     "coordinate-power takes no 'weights'"),
    (lambda: GluingFunction(2, "custom", func=np.sum, p=1), "custom takes no 'p'"),
    (lambda: GluingFunction(2, "sum", exponent=3, coordinate=1), "sum takes no 'exponent'"),
    (lambda: GluingFunction(2, "sum", coordinate=0), "sum takes no 'coordinate'"),
    (lambda: GluingFunction(2, "max", func=np.max), "max takes no 'func'"),
    (lambda: GluingFunction(2, "weighted-lp", p=3, exponent=2), "weighted-lp takes no 'exponent'"),
    (lambda: GluingFunction(2, "custom", func=np.sum, coordinate=1),
     "custom takes no 'coordinate'"),
    (lambda: GluingFunction(2, "coordinate-power", exponent=1.0, func=np.sum),
     "coordinate-power takes no 'func'"),
], ids=["sum-weights", "max-weights", "max-p", "euclidean-p", "two-valued-p",
        "coordinate-power-weights", "custom-p", "sum-exponent", "sum-coordinate", "max-func",
        "lp-exponent", "custom-coordinate", "coordinate-power-func"])
def test_a_key_its_kind_does_not_read_is_refused(make, message):
    """Were it dropped, ``sum`` with weights [1, 5] would read 2 at (1, 1), not 6, ``max``
    with p = 3 would stay the max, and ``sum`` with exponent 3 on coordinate 1 would read 2
    at (1, 1), not 1."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_a_euclidean_lp_is_the_weighted_euclidean_kind():
    phi = GluingFunction.lp(2, 2.0, [1, 2])
    assert (phi.kind, phi.p, phi.label) == ("weighted-euclidean", 2.0,
                                            "weighted-euclidean(p=2, w=[1,2])")
    assert phi((1.0, 1.0)) == math.sqrt(3.0)


def noisy_max(q):
    """The max gluing scaled by 1 + 5e-12 sin(...): many midpoint norms lie within a few
    1e-12 of each other, so the strict rung's tie band decides its witness."""
    return np.maximum(q[:, 0], q[:, 1]) * (1 + 5e-12 * np.sin(1e3 * q[:, 0] + 2e3 * q[:, 1]))


def whole_strict_convexity(phi, cfg):
    """Reference: the strict rung's midpoint norms over all pairs at once, and the first
    admissible pair within 1e-12 of the largest."""
    from metricprod.gluing import SEPARATION
    from metricprod.sampling import signed_samples

    psi = phi.symmetrized()
    x = np.concatenate([[[1.0, 0.0], [1.0, 1.0]], signed_samples(2, cfg, 8)])
    y = np.concatenate([[[0.0, 1.0], [1.0, -1.0]], signed_samples(2, cfg, 9)])
    nx, ny = psi(x), psi(y)
    keep = (nx > 1e-12) & (ny > 1e-12)
    xu, yu = x[keep] / nx[keep, None], y[keep] / ny[keep, None]
    sep = (psi(xu - yu) >= SEPARATION) & (psi(xu + yu) >= SEPARATION)
    rows = np.flatnonzero(keep)[sep]
    mids = psi((xu[sep] + yu[sep]) / 2.0)
    i = int(np.argmax(mids >= mids.max() - 1e-12))
    g = rows[i]
    return float(mids[i]), x[g] / nx[g], y[g] / ny[g], len(rows)


@pytest.mark.parametrize("block_rows", [16, 1000, 10**9])
@pytest.mark.parametrize("seed", [0, 5, 9])
def test_strict_tie_band_is_the_whole_array_rule(monkeypatch, block_rows, seed):
    import metricprod.gluing as gluing

    phi, cfg = GluingFunction.custom(2, noisy_max), SampleConfig(count=3000, seed=seed)
    mid, x, y, admitted = whole_strict_convexity(phi, cfg)
    monkeypatch.setattr(gluing, "BLOCK_ROWS", block_rows)
    rep = check_strict_convexity(phi, cfg, norm_reports=[])
    assert rep.witness["midpoint_norm"] == mid and rep.margin == mid - 1.0
    assert rep.witness["x"].tobytes() == x.tobytes() and rep.witness["y"].tobytes() == y.tobytes()
    assert rep.samples == admitted
