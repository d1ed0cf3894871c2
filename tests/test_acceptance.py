"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import io
import math
import time

import numpy as np

from metricprod import (
    DiscreteSpace,
    GluingClass,
    GluingFunction,
    HalfLine,
    LpSpace,
    ProductSpace,
    RealLine,
    SampleConfig,
    Tolerances,
    alpha_decompose,
    busemann_convexity_check,
    cat0_four_point_check,
    check_axis_pythagoras,
    classify,
    component_progress_check,
    counterexample_sum_halflines,
    curve_length,
    finite_embedding_oracle,
    geodesy_test,
    line_pattern,
    non_length_space_demo,
    polyline,
    product_curve_length_check,
    product_geodesic,
    product_rank,
    segment,
    uniqueness_probe,
    verify_metric_axioms,
)
from metricprod.cli import RunContext, run_checks, emit

CFG = SampleConfig(count=10_000, seed=0)


def announce(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {text}")
    assert ok, f"criterion {num}: {text}"


def catalog_gluings():
    return {
        "weighted-euclidean": GluingFunction.euclidean((1.0, 1.0)),
        "sum": GluingFunction.sum(2),
        "max": GluingFunction.max(2),
        "lp3": GluingFunction.lp(2, 3.0),
        "lp15": GluingFunction.lp(2, 1.5),
        "two-valued": GluingFunction.two_valued(2),
    }


def factor_combinations():
    return {
        "line x line": (RealLine(), RealLine()),
        "line x half-line": (RealLine(), HalfLine()),
        "half-line x half-line": (HalfLine(), HalfLine()),
        "line x discrete(4)": (RealLine(), DiscreteSpace(4)),
    }


def test_criterion_1_metric_axiom_suite():
    started = time.perf_counter()
    for phi_name, phi in catalog_gluings().items():
        for combo_name, factors in factor_combinations().items():
            prod = ProductSpace(factors, phi)
            reports = verify_metric_axioms(
                prod, SampleConfig(count=10_000, seed=0, tol=Tolerances(metric=1e-9)))
            assert all(r.passed for r in reports), (phi_name, combo_name)
    broken = ProductSpace((RealLine(),), GluingFunction.coordinate_power(1, 2.0))
    reports = verify_metric_axioms(
        broken, SampleConfig(count=10_000, seed=0, tol=Tolerances(metric=1e-9)))
    triangle = reports[2]
    assert triangle.failed and triangle.witness is not None
    d = triangle.witness["distances"]
    assert d[0] > d[1] + d[2]
    elapsed = time.perf_counter() - started
    announce(1, elapsed < 10.0,
             f"metric axioms: 6 gluings x 4 factor combos x 10^4 triples + "
             f"broken-gluing witness in {elapsed:.2f}s")


def test_criterion_2_characterization_ladder():
    results = {name: classify(phi, CFG) for name, phi in catalog_gluings().items()}
    assert results["weighted-euclidean"].gluing_class is GluingClass.SCALAR_PRODUCT_INDUCED
    for name in ("sum", "max"):
        res = results[name]
        assert res.gluing_class is GluingClass.NORM_INDUCED
        strict = res.reports["strict-convexity"]
        assert strict.failed
        assert strict.witness["midpoint_norm"] == 1.0
        psi = catalog_gluings()[name].symmetrized()
        x = np.asarray(strict.witness["x"], float)
        y = np.asarray(strict.witness["y"], float)
        assert psi((x + y) / 2.0) == 1.0
    assert results["lp15"].gluing_class is GluingClass.STRICTLY_CONVEX_NORM
    assert results["lp3"].gluing_class is GluingClass.STRICTLY_CONVEX_NORM
    twoval = results["two-valued"]
    assert twoval.gluing_class is GluingClass.METRIC_COMPATIBLE
    hom = twoval.reports["homogeneity"]
    assert hom.failed and hom.witness["lambda"] > 0

    sep_ok = check_axis_pythagoras(GluingFunction.euclidean((1.0, 1.0)), CFG).passed
    margins = {}
    for p in (1.0, 1.5, 3.0, 4.0):
        rep = check_axis_pythagoras(GluingFunction.lp(2, p), CFG)
        margins[p] = rep.details["margin_at_ones"]
        sep_ok = sep_ok and rep.failed and margins[p] > 1e-3
    rounded = {p: round(m, 4) for p, m in margins.items()}
    announce(2, sep_ok,
             f"classification ladder with exact witnesses; axis-Pythagoras "
             f"margins at (1,1): {rounded}")


def _dyadic_polyline(rng):
    k = int(rng.choice([2, 4, 8]))
    steps = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0)
    pts = np.concatenate([[0.0], np.cumsum(steps)])
    return polyline(RealLine(), list(pts))


def test_criterion_3_product_length_identity():
    rng = np.random.default_rng(0)
    norm_gluings = [GluingFunction.euclidean((1.0, 1.0)), GluingFunction.sum(2),
                    GluingFunction.max(2), GluingFunction.lp(2, 3.0),
                    GluingFunction.lp(2, 1.5)]
    pairs = [( _dyadic_polyline(rng), _dyadic_polyline(rng)) for _ in range(100)]
    for phi in norm_gluings:
        prod = ProductSpace((RealLine(), RealLine()), phi)
        for i, comps in enumerate(pairs):
            rep = product_curve_length_check(prod, list(comps), depth=12)
            assert rep.passed, (phi.label, i, rep.margin)
    rep = product_curve_length_check(
        ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0))),
        [segment(0.0, 3.0), segment(0.0, 4.0)], depth=12)
    assert rep.passed
    assert abs(rep.witness["measured"] - 5.0) <= 1e-6
    announce(3, True, "product-length check over 100 polyline pairs x 5 gluings "
                      "at depth 12; 3-4-5 instance within 1e-6")


def test_criterion_4_non_length_space_demo():
    prod = ProductSpace((RealLine(), RealLine()), GluingFunction.two_valued(2))
    res = curve_length(prod, segment((0.0, 0.0), (1.0, 0.0)), depth=10)
    for d in range(1, 11):
        assert res.trace[d] >= 2**d  # exact integer bound
    rep = non_length_space_demo(depth=10, paths=5, seed=0)
    assert rep.passed and rep.margin <= 0.0
    announce(4, True, "two-valued product: subdivision sums >= 2^depth for "
                      "depths 1..10, exact")


def test_criterion_5_geodesics():
    strict_gluings = [GluingFunction.euclidean((1.0, 1.0)),
                      GluingFunction.euclidean((1.0, 4.0)),
                      GluingFunction.lp(2, 1.5), GluingFunction.lp(2, 3.0)]
    geodesic_pairs = [(RealLine(), RealLine()), (RealLine(), HalfLine()),
                      (HalfLine(), HalfLine()), (LpSpace(2, 2.0), RealLine())]
    rng = np.random.default_rng(0)
    for phi in strict_gluings:
        for factors in geodesic_pairs:
            prod = ProductSpace(factors, phi)
            for _ in range(3):
                x, y = prod.sample_points(2, seed=int(rng.integers(1 << 30)),
                                          radius=5.0)
                geo = product_geodesic(prod, x, y)
                d = geo.length
                if d == 0.0:
                    continue
                rep = geodesy_test(prod, geo, grid=64, cfg=SampleConfig(
                    tol=Tolerances(metric=1e-9 * min(d, 1.0))))
                assert rep.passed, (phi.label, factors, rep.margin)
                rep = component_progress_check(prod, geo, grid=64)
                assert rep.passed, (phi.label, factors, rep.margin)

    taxi = ProductSpace((RealLine(), RealLine()), GluingFunction.sum(2))
    rep = uniqueness_probe(taxi, (0.0, 0.0), (1.0, 1.0), seed=0)
    assert rep.failed
    assert rep.witness["sup_distance"] > 0.1
    assert len(rep.witness["geodesics"]) == 2

    euclid = ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0)))
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = tuple(rng.uniform(-5, 5, 2))
        y = tuple(rng.uniform(-5, 5, 2))
        rep = uniqueness_probe(euclid, x, y, seed=0)
        assert rep.passed, (x, y, rep.margin)
    announce(5, True, "geodesy at 1e-9*D on 64^2 grids, component-progress "
                      "identity, L1 non-uniqueness witness, Euclidean "
                      "uniqueness over 50 endpoint pairs")


def test_criterion_6_comparison_and_convexity():
    euclid = ProductSpace((RealLine(), RealLine()), GluingFunction.euclidean((1.0, 1.0)))
    rep = cat0_four_point_check(euclid, count=1000, seed=0)
    assert rep.passed

    taxi = ProductSpace((RealLine(), RealLine()), GluingFunction.sum(2))
    rep = cat0_four_point_check(taxi, triangles=[((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))])
    assert rep.failed
    assert rep.margin == 2.0

    strict_gluings = [GluingFunction.euclidean((1.0, 1.0)),
                      GluingFunction.euclidean((1.0, 4.0)),
                      GluingFunction.lp(2, 1.5), GluingFunction.lp(2, 3.0)]
    rng = np.random.default_rng(2)
    pairs_checked = 0
    for phi in strict_gluings:
        prod = ProductSpace((RealLine(), RealLine()), phi)
        for _ in range(25):
            a, b, c, d = (tuple(rng.uniform(-5, 5, 2)) for _ in range(4))
            g1 = product_geodesic(prod, a, b)
            g2 = product_geodesic(prod, c, d)
            rep = busemann_convexity_check(prod, g1, g2, grid=32)
            assert rep.passed, (phi.label, rep.margin)
            pairs_checked += 1
    announce(6, pairs_checked == 100,
             "flat four-point comparison: 10^3 triangles pass, sum-gluing "
             "triangle fails with exact margin 2; joint convexity over "
             "100 geodesic pairs at grid 32")


def test_criterion_7_rank():
    euclid = GluingFunction.euclidean((1.0, 1.0))
    rec = product_rank(ProductSpace((RealLine(), HalfLine()), euclid), cfg=CFG)
    assert rec.rank == 1 and rec.provenance == "strict-norm-additivity"
    rec = product_rank(ProductSpace((LpSpace(2, 2.0), LpSpace(3, 2.0)), euclid), cfg=CFG)
    assert rec.rank == 5

    rep = counterexample_sum_halflines(10.0, 101)
    assert rep.passed and rep.margin == 0.0

    rec = product_rank(ProductSpace((HalfLine(), HalfLine()), GluingFunction.sum(2)),
                       cfg=CFG)
    assert not rec.additivity_guaranteed
    assert rec.provenance == "superadditive-lower-bound"

    plane = ProductSpace((RealLine(), RealLine()), euclid)
    vectors = np.linspace(-3.0, 3.0, 25)
    s = 1.0 / math.sqrt(2.0)
    for embed in (lambda v: (float(v[0]), 0.0),
                  lambda v: (float(v[0]) * s, float(v[0]) * s)):
        _, reports = alpha_decompose(embed, plane, [0.0], [2.0], vectors, cfg=CFG)
        assert all(r.passed for r in reports)
    _, reports = alpha_decompose(lambda v: (float(v[0]), float(v[0])), plane,
                                 [0.0], [2.0], vectors, cfg=CFG)
    assert reports[0].failed
    assert abs(reports[0].margin - (math.sqrt(2.0) - 1.0)) <= 1e-9
    announce(7, True, "rank additivity (1 and 5), exact counterexample at "
                      "T=10 with 101-point grid, refused additivity flag, "
                      "gauge decomposition with sqrt(2)-1 rejection margin")


def test_criterion_8_embedding_oracle():
    started = time.perf_counter()
    grid = [0.5 * i for i in range(13)]
    probe = finite_embedding_oracle(line_pattern([0.0, 1.0, 2.0]), grid, HalfLine())
    assert probe.found
    pattern = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    points = RealLine().sample_points(64, seed=3, radius=5.0)
    probe = finite_embedding_oracle(pattern, points, RealLine())
    assert not probe.found
    elapsed = time.perf_counter() - started
    announce(8, elapsed < 1.0,
             f"oracle finds the 3-point line pattern and rejects the "
             f"equilateral triple in {elapsed * 1000:.0f} ms")


def full_suite_config():
    return {
        "version": 1,
        "phis": {
            "eu": {"type": "weighted-euclidean", "weights": [1, 1]},
            "euw": {"type": "weighted-euclidean", "weights": [1, 4]},
            "taxi": {"type": "sum", "dim": 2},
            "sup": {"type": "max", "dim": 2},
            "lp3": {"type": "weighted-lp", "p": 3, "dim": 2},
            "two": {"type": "two-valued", "dim": 2},
            "broken": {"type": "coordinate-power", "dim": 1, "exponent": 2},
        },
        "spaces": {
            "plane": {"type": "product",
                      "factors": [{"type": "real-line"}, {"type": "real-line"}],
                      "phi": "eu"},
            "taxiplane": {"type": "product",
                          "factors": [{"type": "real-line"}, {"type": "real-line"}],
                          "phi": "taxi"},
            "wedge": {"type": "product",
                      "factors": [{"type": "real-line"}, {"type": "half-line"}],
                      "phi": "euw"},
            "bad": {"type": "product", "factors": [{"type": "real-line"}],
                    "phi": "broken"},
        },
        "curves": {
            "diag": {"kind": "segment", "space": "plane",
                     "start": [0, 0], "end": [3, 4]},
            "bend": {"kind": "polyline", "space": "taxiplane",
                     "points": [[0, 0], [1, 0], [1, 1]]},
        },
        "checks": [
            {"check": "classify", "phi": "eu", "samples": 2000,
             "expect": "scalar-product-induced"},
            {"check": "classify", "phi": "taxi", "samples": 2000,
             "expect": "norm-induced"},
            {"check": "classify", "phi": "sup", "samples": 2000,
             "expect": "norm-induced"},
            {"check": "classify", "phi": "lp3", "samples": 2000,
             "expect": "strictly-convex-norm"},
            {"check": "classify", "phi": "two", "samples": 2000,
             "expect": "metric-compatible"},
            {"check": "axis-pythagoras", "phi": "euw", "samples": 2000},
            {"check": "scalar-product-weights", "phi": "euw", "samples": 2000},
            {"check": "metric-axioms", "product": "plane", "samples": 2000},
            {"check": "metric-axioms", "product": "bad", "samples": 2000,
             "expect": "fail", "name": "broken-gluing-triangle",
             "informational": True},
            {"check": "curve-length", "space": "plane", "curve": "diag",
             "expect_length": 5.0},
            {"check": "product-curve-length", "product": "plane",
             "components": [
                 {"kind": "segment", "space": {"type": "real-line"},
                  "start": 0, "end": 3},
                 {"kind": "segment", "space": {"type": "real-line"},
                  "start": 0, "end": 4}]},
            {"check": "arclength", "space": "taxiplane", "curve": "bend"},
            {"check": "non-length-space", "depth": 8},
            {"check": "geodesy", "space": "plane", "start": [0, 0], "end": [3, 4]},
            {"check": "component-progress", "space": "plane",
             "start": [0, 0], "end": [3, 4]},
            {"check": "unique-geodesic", "product": "taxiplane",
             "start": [0, 0], "end": [1, 1], "expect": "non-unique"},
            {"check": "unique-geodesic", "product": "plane",
             "start": [0, 0], "end": [1, 1], "expect": "unique"},
            {"check": "busemann-convexity", "space": "plane",
             "g1": {"start": [0, 0], "end": [3, 0]},
             "g2": {"start": [0, 1], "end": [1, 4]}, "grid": 16},
            {"check": "cat0-four-point", "space": "plane", "count": 300},
            {"check": "cat0-four-point", "space": "taxiplane",
             "triangles": [[[0, 0], [2, 0], [0, 2]]], "expect": "fail",
             "informational": True},
            {"check": "product-rank", "space": "wedge", "expect_rank": 1},
            {"check": "product-rank", "space": "taxiplane", "expect_rank": 2},
            {"check": "rank-counterexample", "T": 10.0, "grid": 101},
            {"check": "embedding-oracle", "space": {"type": "half-line"},
             "pattern": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
             "points": [0, 0.5, 1, 1.5, 2, 2.5, 3], "expect": "found"},
            {"check": "alpha-decomposition", "product": "plane",
             "embedding": "diagonal-rescaled", "expect": "isometric"},
            {"check": "alpha-decomposition", "product": "plane",
             "embedding": "diagonal", "expect": "non-isometric",
             "informational": True},
        ],
    }


def render_suite() -> tuple[str, int]:
    ctx = RunContext(full_suite_config(), seed=0)
    records, code = run_checks(ctx)
    buf = io.StringIO()
    emit(records, "json", buf)
    return buf.getvalue(), code


def test_criterion_9_determinism():
    out1, code1 = render_suite()
    out2, code2 = render_suite()
    assert code1 == 0, "full suite must pass"
    assert code2 == 0
    assert out1.encode() == out2.encode()
    announce(9, True, f"two seed-0 runs of the {len(out1.splitlines())}-record "
                      "structured suite are byte-identical")
