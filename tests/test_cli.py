import argparse
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from metricprod import GluingClass, GluingFunction, SampleConfig, Tolerances, __version__
from metricprod.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PIPE_CLOSED,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


BASE = {
    "version": 1,
    "phis": {
        "eu": {"type": "weighted-euclidean", "weights": [1, 1]},
        "taxi": {"type": "sum", "dim": 2},
        "broken": {"type": "coordinate-power", "dim": 1, "exponent": 2},
    },
    "spaces": {
        "plane": {"type": "product",
                  "factors": [{"type": "real-line"}, {"type": "real-line"}],
                  "phi": "eu"},
        "taxiplane": {"type": "product",
                      "factors": [{"type": "real-line"}, {"type": "real-line"}],
                      "phi": "taxi"},
        "bad": {"type": "product", "factors": [{"type": "real-line"}],
                "phi": "broken"},
    },
    "curves": {
        "diag": {"kind": "segment", "space": "plane", "start": [0, 0], "end": [3, 4]},
    },
}


def config_with_checks(checks):
    cfg = json.loads(json.dumps(BASE))
    cfg["checks"] = checks
    return cfg


def test_classify_check_passes(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "classify", "phi": "eu", "samples": 2000,
         "expect": "scalar-product-induced"}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip())
    assert rec["class"] == "scalar-product-induced"
    assert rec["conditions"]["axis-pythagoras"] == "pass"


def test_classify_check_on_a_proven_norm_still_samples(tmp_path, capsys, monkeypatch):
    """Construction reads the proven class of a weighted p-norm; the check still verifies it."""
    from metricprod import gluing

    calls, sampled = [], gluing.classify

    def counting(phi, cfg):
        calls.append(phi.label)
        return sampled(phi, cfg)

    monkeypatch.setattr(gluing, "classify", counting)
    cfg = config_with_checks([{"check": "classify", "phi": "taxi", "samples": 500}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["class"] == "norm-induced"
    assert calls == ["sum(n=2)"]


def test_metric_axiom_failure_sets_exit_code(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "metric-axioms", "product": "bad", "samples": 2000}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    records = [json.loads(line) for line in out.strip().splitlines()]
    triangle = [r for r in records if r["check"] == "triangle-inequality"][0]
    assert triangle["verdict"] == "fail"
    d = triangle["witness"]["distances"]
    assert d[0] > d[1] + d[2]


def test_informational_checks_do_not_fail_run(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "metric-axioms", "product": "bad", "samples": 1000,
         "informational": True}])
    code, _ = run_cli(capsys, "run", write_config(tmp_path, cfg))
    assert code == EXIT_OK


def test_unknown_reference_is_config_error(tmp_path, capsys):
    cfg = config_with_checks([{"check": "metric-axioms", "product": "missing"}])
    code, _ = run_cli(capsys, "run", write_config(tmp_path, cfg))
    assert code == EXIT_CONFIG


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(capsys, "run", str(path))
    assert code == EXIT_CONFIG


def test_missing_version_is_config_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "run", write_config(tmp_path, {"checks": []}))
    assert code == EXIT_CONFIG


def test_budget_exceeded_exit_code(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "embedding-oracle", "space": {"type": "real-line"},
         "pattern": [[0, 1], [1, 0]], "sample": {"count": 100}}])
    code, _ = run_cli(capsys, "run", write_config(tmp_path, cfg))
    assert code == EXIT_BUDGET


def test_structured_output_deterministic(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "classify", "phi": "taxi", "samples": 2000},
        {"check": "metric-axioms", "product": "taxiplane", "samples": 2000},
        {"check": "unique-geodesic", "product": "taxiplane",
         "start": [0, 0], "end": [1, 1], "expect": "non-unique"},
        {"check": "curve-length", "space": "plane", "curve": "diag",
         "expect_length": 5.0},
    ])
    path = write_config(tmp_path, cfg)
    code1, out1 = run_cli(capsys, "run", path, "--format", "json", "--seed", "0")
    code2, out2 = run_cli(capsys, "run", path, "--format", "json", "--seed", "0")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_list_demos_flag(capsys):
    code, out = run_cli(capsys, "--list-demos")
    assert code == EXIT_OK
    assert out.split() == ["counterexample", "non-length-space",
                           "L1-non-uniqueness", "CAT0-failure"]


@pytest.mark.parametrize("name", ["counterexample", "non-length-space",
                                  "L1-non-uniqueness", "CAT0-failure"])
def test_demos_run_as_expected(capsys, name):
    code, out = run_cli(capsys, "demo", name, "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["verdict"] == "pass"


def test_validate_phi_builtin(capsys):
    code, out = run_cli(capsys, "validate-phi", "--kind", "sum", "--dim", "2",
                        "--samples", "2000", "--format", "json")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    classify = [r for r in records if r["check"] == "classify"][0]
    assert classify["class"] == "norm-induced"
    strict = [r for r in records if r["check"] == "strict-convexity"][0]
    assert strict["verdict"] == "fail" and strict["informational"]


def test_check_product_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code, out = run_cli(capsys, "check-product", path, "--product", "plane",
                        "--samples", "2000", "--format", "json")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


def test_length_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code, out = run_cli(capsys, "length", path, "--curve", "diag",
                        "--space", "plane", "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip())
    assert rec["length"] == pytest.approx(5.0)


def test_geodesic_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code, out = run_cli(capsys, "geodesic", path, "--space", "plane",
                        "--start", "[0, 0]", "--end", "[3, 4]", "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip())
    assert rec["check"] == "geodesy" and rec["verdict"] == "pass"
    assert rec["midpoint"] == pytest.approx([1.5, 2.0])


def test_rank_subcommand(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE))
    cfg["spaces"]["lh"] = {"type": "product",
                           "factors": [{"type": "real-line"}, {"type": "half-line"}],
                           "phi": "eu"}
    path = write_config(tmp_path, cfg)
    code, out = run_cli(capsys, "rank", path, "--space", "lh", "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip())
    assert rec["rank"] == 1 and rec["provenance"] == "strict-norm-additivity"


def test_product_rank_records_follow_the_class(tmp_path, capsys):
    """Below norm-induced a product-rank record gives no rank and names the class; a product
    that is not a metric space fails the run with a reason."""
    plane = {"type": "product", "factors": [{"type": "real-line"}, {"type": "real-line"}]}
    cfg = config_with_checks([
        {"check": "product-rank", "space": dict(plane, phi={"type": "two-valued", "dim": 2})},
        {"check": "product-rank", "space": dict(plane, phi={
            "type": "coordinate-power", "dim": 2, "exponent": 0.5})},
        {"check": "product-rank", "space": "taxiplane"}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg), "--format", "json")
    two_valued, power, taxi = map(json.loads, out.splitlines())
    assert code == EXIT_CHECK_FAILED
    assert (two_valued["rank"], two_valued["provenance"], two_valued["verdict"]) == \
        (None, "metric-compatible", "pass")
    assert (power["rank"], power["provenance"], power["verdict"]) == \
        (None, "not-a-metric-product", "fail")
    assert "not make the product a metric space" in power["reason"]
    assert (taxi["rank"], taxi["provenance"], taxi["verdict"]) == \
        (2, "superadditive-lower-bound", "pass")
    assert "reason" not in two_valued and "reason" not in taxi


@pytest.mark.parametrize("phi", [
    {"type": "weighted-lp", "dim": 2, "p": "nan"},
    {"type": "weighted-euclidean", "weights": [1, "nan"]}], ids=["nan-p", "nan-weight"])
def test_product_rank_on_a_nan_gluing_is_a_config_error(tmp_path, capsys, phi):
    """A NaN exponent or weight has no proven class, so the gluing is refused."""
    cfg = config_with_checks([{"check": "product-rank", "space": {
        "type": "product", "factors": [{"type": "real-line"}, {"type": "real-line"}],
        "phi": phi}}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg))
    assert code == EXIT_CONFIG
    assert out == ""


def test_tolerance_override_validation(tmp_path, capsys):
    cfg = config_with_checks([{"check": "classify", "phi": "eu", "samples": 500}])
    path = write_config(tmp_path, cfg)
    code, _ = run_cli(capsys, "run", path, "--tolerance", "metric=0")
    assert code == EXIT_CONFIG
    code, _ = run_cli(capsys, "run", path, "--tolerance", "metric=inf")
    assert code == EXIT_CONFIG
    code, _ = run_cli(capsys, "run", path, "--tolerance", "bogus=1e-9")
    assert code == EXIT_CONFIG
    code, _ = run_cli(capsys, "run", path, "--tolerance", "metric=1e-8")
    assert code == EXIT_OK


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "metricprod.cli", "--list-demos"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "counterexample" in proc.stdout


def test_condition_ids_map_to_operations(tmp_path, capsys):
    cfg = config_with_checks([
        {"check": "definiteness", "phi": "eu", "samples": 500},
        {"check": "quadrant-triangle", "phi": "eu", "samples": 500},
        {"check": "norm-conditions", "phi": "eu", "samples": 500},
        {"check": "strict-convexity", "phi": "eu", "samples": 500},
        {"check": "axis-pythagoras", "phi": "eu", "samples": 500},
        {"check": "scalar-product-weights", "phi": "eu", "samples": 500},
        {"check": "non-length-space", "depth": 4},
        {"check": "rank-counterexample", "T": 2.0, "grid": 21},
    ])
    code, out = run_cli(capsys, "run", write_config(tmp_path, cfg), "--format", "json")
    assert code == EXIT_OK
    checks = [json.loads(line)["check"] for line in out.strip().splitlines()]
    assert checks == ["definiteness", "quadrant-triangle", "positivity",
                      "monotonicity", "subadditivity", "homogeneity",
                      "strict-convexity", "axis-pythagoras",
                      "scalar-product-weights", "non-length-space-demo",
                      "rank-counterexample"]


def busemann_config(tau):
    return config_with_checks([
        {"check": "busemann-convexity", "space": "plane", "grid": 8, "tau": tau,
         "g1": {"start": [0, 0], "end": [1, 0]}, "g2": {"start": [0, 1], "end": [1, 2]}}])


def test_busemann_tolerance_string_is_parsed(tmp_path, capsys):
    path = write_config(tmp_path, busemann_config("1e-6"))
    code, out = run_cli(capsys, "run", path, "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out.strip())
    assert rec["details"]["tolerance"] == 1e-6 and rec["verdict"] == "pass"


@pytest.mark.parametrize("grid", [0, 1])
def test_busemann_grid_below_two_is_refused(tmp_path, capsys, grid):
    """At grid 1 the one margin is a start against itself, and grid 0 has no grid point."""
    config = busemann_config(1e-6)
    config["checks"][0]["grid"] = grid
    code, out = run_cli(capsys, "run", write_config(tmp_path, config), "--format", "json")
    rec = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert rec["verdict"] == "fail" and rec["error"] == "grid must be at least 2"


GRID_CHECKS = {
    "geodesy": {"space": "plane", "start": [0, 0], "end": [3, 4]},
    "component-progress": {"space": "plane", "start": [0, 0], "end": [3, 4]},
    "unique-geodesic": {"product": "taxiplane", "start": [0, 0], "end": [1, 1]},
    "arclength": {"space": "plane", "curve": "diag"},
}


@pytest.mark.parametrize("check, least, grid", [
    *((check, 3, grid) for check in ("geodesy", "component-progress", "unique-geodesic")
      for grid in (2, 1, 0, -3)),
    *(("arclength", 2, grid) for grid in (1, 0, -3))])
def test_grid_with_no_interior_point_is_refused(tmp_path, capsys, check, least, grid):
    """Below 3 grid points a geodesic is compared at no interior point: every taxicab
    candidate shares the endpoints, so the taxicab plane would read unique.  One arclength piece
    compares the whole curve with itself.  The smallest grid allowed runs."""
    config = config_with_checks([{"check": check, **GRID_CHECKS[check], "grid": grid}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, config), "--format", "json")
    rec = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert rec["verdict"] == "fail" and rec["error"] == f"grid must be at least {least}"
    config["checks"][0]["grid"] = least
    code, out = run_cli(capsys, "run", write_config(tmp_path, config), "--format", "json")
    assert "error" not in json.loads(out)
    assert json.loads(out)["verdict"] == ("fail" if check == "unique-geodesic" else "pass")


@pytest.mark.parametrize("tau", ["loose", "nan", [1]])
def test_bad_busemann_tolerance_is_config_error(tmp_path, capsys, tau):
    path = write_config(tmp_path, busemann_config(tau))
    code = main(["run", path, "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err


@pytest.mark.parametrize("argv", [
    ["run", "{list}"],
    ["check-product", "{list}", "--product", "plane"],
    ["length", "{list}", "--curve", "diag", "--space", "plane"],
    ["geodesic", "{list}", "--space", "plane", "--start", "[0, 0]", "--end", "[1, 2]"],
    ["rank", "{list}", "--space", "plane"],
    ["validate-phi", "--config", "{list}", "--phi", "eu"],
    ["geodesic", "{base}", "--space", "plane", "--start", "x", "--end", "[1, 2]"],
    ["geodesic", "{base}", "--space", "plane", "--start", "[0, 0]", "--end", "[1,"],
], ids=["run", "check-product", "length", "geodesic", "rank", "validate-phi",
        "bad-start", "bad-end"])
def test_bad_outside_input_is_config_error(tmp_path, capsys, argv):
    paths = {"{list}": write_config(tmp_path, [BASE], "list.json"),
             "{base}": write_config(tmp_path, BASE)}
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err


def test_validate_phi_reads_the_dimension_from_the_weights(capsys):
    code, out = run_cli(capsys, "validate-phi", "--kind", "weighted-lp", "--p", "3",
                        "--weights", "1,2,3", "--samples", "200", "--format", "json")
    classify = json.loads(out.splitlines()[0])
    assert code == EXIT_OK
    assert (classify["gluing"], classify["class"]) == \
        ("weighted-lp(p=3, w=[1,2,3])", "strictly-convex-norm")


def test_validate_phi_dimension_that_disagrees_with_the_weights_is_config_error(capsys):
    code = main(["validate-phi", "--kind", "weighted-lp", "--p", "3", "--dim", "2",
                 "--weights", "1,2,3"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "one per axis" in captured.err


def test_bad_weights_flag_is_config_error(capsys):
    code = main(["validate-phi", "--kind", "sum", "--weights", "1,x"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err and "--weights" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--kind", "sum", "--weights", "1,2,3"], "sum takes no 'weights'"),
    (["--kind", "max", "--p", "3"], "max takes no 'p'"),
], ids=["sum-weights", "max-p"])
def test_validate_phi_refuses_a_flag_its_kind_does_not_read(capsys, flags, message):
    code = main(["validate-phi", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err and message in captured.err


@pytest.mark.parametrize("phi, key", [
    ({"type": "max", "dim": 2, "weights": [1, 2]}, "weights"),
    ({"type": "sum", "weights": [1, 2, 3]}, "weights"),
    ({"type": "two-valued", "dim": 2, "weights": [1, 2]}, "weights"),
    ({"type": "coordinate-power", "dim": 1, "exponent": 2, "weights": [1]}, "weights"),
    ({"type": "sum", "dim": 2, "p": 1}, "p"),
    ({"type": "max", "dim": 2, "p": "inf"}, "p"),
    ({"type": "weighted-euclidean", "weights": [1, 2], "p": 2}, "p"),
    ({"type": "coordinate-power", "dim": 1, "exponent": 2, "p": 2}, "p"),
    ({"type": "sum", "p": 1}, "p"),
    ({"type": "sum", "dim": 2, "exponent": 3, "coordinate": 1}, "exponent"),
    ({"type": "sum", "dim": 2, "func": "x"}, "func"),
    ({"type": "max", "coordinate": 0}, "coordinate"),
    ({"type": "weighted-lp", "p": 3, "weights": [1, 2], "exponent": 2}, "exponent"),
], ids=["max-weights", "sum-weights", "two-valued-weights", "coordinate-power-weights",
        "sum-p", "max-p", "weighted-euclidean-p", "coordinate-power-p", "sum-p-before-dim",
        "sum-exponent", "sum-func", "max-coordinate-before-dim", "weighted-lp-exponent"])
def test_gluing_key_its_type_does_not_read_is_config_error(tmp_path, capsys, phi, key):
    space = {"type": "product", "factors": [{"type": "real-line"}] * 2, "phi": phi}
    code = main(["run", write_config(tmp_path, {"version": 1, "spaces": {"s": space}})])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert f"config error: bad gluing definition: {phi['type']} takes no {key!r}" in captured.err


@pytest.mark.parametrize("kind", ["custom", "cubic"])
def test_a_gluing_type_a_config_cannot_build_is_config_error(tmp_path, capsys, kind):
    """A custom gluing's evaluator is a callable, which JSON cannot hold."""
    code = main(["run", write_config(tmp_path, {"version": 1,
                                                "phis": {"g": {"type": kind, "dim": 2}}})])
    assert (code, capsys.readouterr().err) == (
        EXIT_CONFIG, f"config error: unknown gluing type {kind!r}\n")


def test_weighted_kinds_read_their_weights_and_p(capsys):
    labels = []
    for flags in (["--kind", "weighted-lp", "--dim", "3", "--p", "3", "--weights", "1,2,3"],
                  ["--kind", "weighted-euclidean", "--weights", "1,2"],
                  ["--kind", "weighted-lp", "--p", "1.5"]):
        code, out = run_cli(capsys, "validate-phi", *flags, "--samples", "200", "--format", "json")
        assert code == EXIT_OK
        labels.append(json.loads(out.splitlines()[0])["gluing"])
    assert labels == ["weighted-lp(p=3, w=[1,2,3])", "weighted-euclidean(p=2, w=[1,2])",
                      "weighted-lp(p=1.5, w=[1,1])"]


@pytest.mark.parametrize("section, argv", [
    ("phis", ["run", "{cfg}"]),
    ("spaces", ["run", "{cfg}"]),
    ("curves", ["run", "{cfg}"]),
    ("spaces", ["rank", "{cfg}", "--space", "a"]),
    ("phis", ["validate-phi", "--config", "{cfg}", "--phi", "eu"]),
], ids=["run-phis", "run-spaces", "run-curves", "rank-spaces", "validate-phi-phis"])
def test_wrong_typed_section_is_config_error(tmp_path, capsys, section, argv):
    path = write_config(tmp_path, {"version": 1, section: [1], "checks": []})
    code = main([path if arg == "{cfg}" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert f"'{section}' must be an object" in captured.err


def run_records(tmp_path, capsys, config, *flags):
    path = write_config(tmp_path, config)
    main(["run", path, "--format", "json", *flags])
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_metric_override_reaches_every_tolerance_detail(tmp_path, capsys):
    segment = {"start": [0, 0], "end": [3, 4], "grid": 8}
    config = config_with_checks([
        {"check": "geodesy", "space": "plane", **segment},
        {"check": "component-progress", "space": "plane", **segment},
        {"check": "busemann-convexity", "space": "plane", "grid": 8,
         "g1": {"start": [0, 0], "end": [1, 0]}, "g2": {"start": [0, 1], "end": [1, 2]}},
        {"check": "cat0-four-point", "space": "plane", "count": 5, "seed": 1, "radius": 2.0},
        {"check": "metric-axioms", "product": "plane", "samples": 200},
        {"check": "alpha-decomposition", "product": "plane"},
    ])
    checks = ["geodesy", "component-progress", "busemann-convexity", "cat0-four-point",
              "triangle-inequality", "alpha-base-independence"]

    def tolerances(*flags):
        records = {r["check"]: r for r in run_records(tmp_path, capsys, config, *flags)}
        return [records[name]["details"]["tolerance"] for name in checks]

    default = tolerances()
    override = tolerances("--tolerance", "metric=1e-6")
    assert override == pytest.approx([1000.0 * t for t in default], rel=1e-12)


def test_classify_agrees_with_strict_convexity_under_strict_override(capsys):
    main(["validate-phi", "--kind", "weighted-lp", "--dim", "3", "--p", "3",
          "--weights", "1,2,3", "--samples", "400", "--seed", "1",
          "--tolerance", "strict=1e-3", "--format", "json"])
    records = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert records["classify"]["conditions"]["strict-convexity"] == \
        records["strict-convexity"]["verdict"]


def test_classification_cache_keys_on_tolerances():
    phi = GluingFunction.lp(3, 3.0, [1.0, 2.0, 3.0])
    default = phi.classification(SampleConfig(count=400, seed=1))
    strict = phi.classification(SampleConfig(count=400, seed=1, tol=Tolerances(strict=1e-3)))
    assert strict is not default
    assert phi.classification(SampleConfig(count=400, seed=1)) is default
    assert default.gluing_class is GluingClass.STRICTLY_CONVEX_NORM
    assert strict.gluing_class is GluingClass.NORM_INDUCED


def test_metric_override_keeps_every_catalog_class(tmp_path, capsys):
    phis = {"sum": {"type": "sum", "dim": 2}, "max": {"type": "max", "dim": 2},
            "eu": {"type": "weighted-euclidean", "weights": [1, 2]},
            "lp15": {"type": "weighted-lp", "p": 1.5, "dim": 2},
            "lp3": {"type": "weighted-lp", "p": 3, "dim": 2},
            "two": {"type": "two-valued", "dim": 2},
            "power": {"type": "coordinate-power", "dim": 2, "exponent": 0.5}}
    config = {"version": 1, "phis": phis,
              "checks": [{"check": "classify", "phi": name, "samples": 2000} for name in phis]}
    default = [r["class"] for r in run_records(tmp_path, capsys, config)]
    override = [r["class"] for r in run_records(tmp_path, capsys, config,
                                                "--tolerance", "metric=1e-6")]
    assert default == ["norm-induced", "norm-induced", "scalar-product-induced",
                       "strictly-convex-norm", "strictly-convex-norm", "metric-compatible",
                       "not-a-metric-product"]
    assert override == default


def test_expect_marks_every_record_of_a_multi_record_check(tmp_path, capsys):
    config = config_with_checks([
        {"check": "norm-conditions", "phi": "taxi", "samples": 300, "expect": "fail"}])
    records = run_records(tmp_path, capsys, config)
    assert [r["check"] for r in records] == ["positivity", "monotonicity", "subadditivity",
                                             "homogeneity"]
    assert all(r["expected"] == "fail" and r["observed"] == "pass" and r["verdict"] == "fail"
               for r in records)


@pytest.mark.parametrize("check", [
    {"check": "unique-geodesic", "product": "plane", "start": [0, 0], "end": [1, 1],
     "expect": "pass"},
    {"check": "geodesy", "space": "plane", "start": [0, 0], "end": [1, 1], "expect": "unique"},
    {"check": "classify", "phi": "eu", "expect": "pass"},
    {"check": "embedding-oracle", "space": {"type": "real-line"}, "points": [0, 1],
     "pattern": [[0, 1], [1, 0]], "expect": "pass"},
    {"check": "alpha-decomposition", "product": "plane", "expect": "pass"},
    {"check": "declared-rank", "space": {"type": "real-line"}, "expect": "pass",
     "expect_rank": 1},
    {"check": "curve-length", "space": "plane", "curve": "diag", "expect": "pass",
     "expect_length": 5.0},
    {"check": "classify", "phi": "eu", "expect_rank": 2},
    {"check": "geodesy", "space": "plane", "start": [0, 0], "end": [3, 4], "expect_length": 5},
], ids=["unique-geodesic-pass", "geodesy-unique", "classify-pass", "embedding-pass",
        "alpha-pass", "with-expect-rank", "with-expect-length", "classify-rank",
        "geodesy-length"])
def test_expect_word_the_check_cannot_observe_is_config_error(tmp_path, capsys, check):
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err and check["check"] in captured.err


def test_product_selector_must_be_a_list(tmp_path, capsys):
    code, out = run_cli(capsys, "geodesic", write_config(tmp_path, BASE), "--space", "taxiplane",
                        "--start", "[0, 0]", "--end", "[3, 4]", "--selector", "bogus",
                        "--format", "json")
    assert code == EXIT_CHECK_FAILED
    rec = json.loads(out)
    assert rec["verdict"] == "fail" and "'bogus'" in rec["error"]
    assert "list of factor selectors" in rec["error"]


L1 = {"type": "lp", "dim": 2, "p": 1}


@pytest.mark.parametrize("space, selector, error", [
    ("taxiplane", ["affine"],
     "a product geodesic takes a list of factor selectors, one per factor (2), got ['affine']"),
    ("taxiplane", ["affine", "affine", "corner(0)"],
     "a product geodesic takes a list of factor selectors, one per factor (2), "
     "got ['affine', 'affine', 'corner(0)']"),
    (L1, ["corner", 1.7], "unknown geodesic selector ['corner', 1.7]"),
    (L1, ["corner", True], "unknown geodesic selector ['corner', True]"),
    (L1, "corner", "unknown geodesic selector 'corner'"),
    (L1, "corner(5)", "corner coordinate out of range"),
], ids=["short-list", "long-list", "float-index", "bool-index", "no-index", "out-of-range"])
def test_malformed_selector_is_an_error_record(tmp_path, capsys, space, selector, error):
    config = config_with_checks([{"check": "geodesy", "space": space, "start": [0, 0],
                                  "end": [1, 1], "selector": selector}])
    code, out = run_cli(capsys, "run", write_config(tmp_path, config), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["error"] == error


def test_alpha_refusal_comes_before_the_embedding_scale(tmp_path, capsys):
    # axis 1 of this gluing has value 0: the class refusal must come before 1 / 0
    config = config_with_checks([{"check": "alpha-decomposition", "product": "power",
                                  "embedding": "axis:1"}])
    config["phis"]["power"] = {"type": "coordinate-power", "dim": 2, "exponent": 2}
    config["spaces"]["power"] = {"type": "product", "phi": "power",
                                 "factors": [{"type": "real-line"}, {"type": "real-line"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "run", write_config(tmp_path, config), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["error"] == ("gluing classifies as not-a-metric-product; "
                                        "decomposition needs a strictly convex norm")


@pytest.mark.parametrize("check, key", [
    ({"check": "declared-rank"}, "'space'"),
    ({"check": "metric-axioms"}, "'product'"),
    ({"check": "unique-geodesic", "product": "plane", "start": [0, 0]}, "'end'"),
    ({"check": "busemann-convexity", "space": "plane", "g1": {"start": [0, 0]},
      "g2": {"start": [0, 0], "end": [1, 0]}}, "'end'"),
    ({"check": "declared-rank", "space": [1]}, "space [1]"),
    ({"check": "metric-axioms", "product": 3}, "space 3"),
    ({"check": "classify", "phi": ["t"]}, "phi ['t']"),
    ({"check": "curve-length", "space": "plane", "curve": [1]}, "curve [1]"),
], ids=["missing-space", "missing-product", "missing-end", "missing-g1-end", "space-list",
        "product-number", "phi-list", "curve-list"])
def test_malformed_check_entry_is_config_error(tmp_path, capsys, check, key):
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err
    assert f"({check['check']})" in captured.err and key in captured.err


def test_overflowing_norm_fails_instead_of_passing(tmp_path, capsys):
    """At p = 1000 the p-norm of points 10 apart overflows, so the margins are NaN (the
    four-point check skipped its NaN margin and read -inf); a length of 1e200 in the
    Euclidean plane overflows to inf.  None of these is evidence."""
    big = {"type": "lp", "dim": 2, "p": 1000}
    config = {"version": 1, "checks": [
        {"check": "geodesy", "space": big, "start": [0, 0], "end": [10, 0]},
        {"check": "busemann-convexity", "space": big, "grid": 8,
         "g1": {"start": [0, 0], "end": [10, 0]}, "g2": {"start": [0, 10], "end": [10, 10]}},
        {"check": "cat0-four-point", "space": big, "triangles": [[[0, 0], [10, 0], [0, 10]]]},
        {"check": "curve-length", "space": {"type": "lp", "dim": 2},
         "curve": {"kind": "segment", "space": {"type": "lp", "dim": 2},
                   "start": [0, 0], "end": [1e200, 0]}},
    ]}
    with np.errstate(all="ignore"):
        code = main(["run", write_config(tmp_path, config), "--format", "json"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_CHECK_FAILED
    assert [(r["check"], r["verdict"]) for r in records] == [
        ("geodesy", "fail"), ("busemann-convexity", "fail"), ("cat0-four-point", "fail"),
        ("curve-length", "fail")]


def test_curve_length_fails_on_a_decreasing_trace(tmp_path, capsys):
    """Refinement cannot shorten a dyadic trace; at p = 1000 the p-norm kernel under- and
    overflows, and the trace falls from inf through 10 to a length of 0."""
    big = {"type": "lp", "dim": 2, "p": 1000}
    config = {"version": 1, "checks": [
        {"check": "curve-length", "space": big,
         "curve": {"kind": "segment", "space": big, "start": [0, 0], "end": [10, 0]}}]}
    with np.errstate(all="ignore"):
        code = main(["run", write_config(tmp_path, config), "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert rec["length"] == 0.0 and not rec["diverged"]
    assert rec["verdict"] == "fail"


def test_arclength_fails_on_a_decreasing_trace(tmp_path, capsys):
    """The same segment: every piece length is 0, as is the expected share of the total
    length, so only the trace of the whole curve shows the kernel error."""
    big = {"type": "lp", "dim": 2, "p": 1000}
    config = {"version": 1, "checks": [
        {"check": "arclength", "space": big,
         "curve": {"kind": "segment", "space": big, "start": [0, 0], "end": [10, 0]}}]}
    with np.errstate(all="ignore"):
        code = main(["run", write_config(tmp_path, config), "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert rec["verdict"] == "fail"
    assert rec["details"]["reason"] == "dyadic trace decreases under refinement"


def test_two_valued_segment_reads_as_not_converged(tmp_path, capsys):
    """Under the two-valued gluing every dyadic chord of the segment (0, 0) -> (1, 0) costs
    1, so its trace doubles at each level: a trace still growing is no length, and no
    arclength verdict either, but not evidence of non-rectifiability on its own."""
    two = {"type": "product", "factors": [{"type": "real-line"}, {"type": "real-line"}],
           "phi": {"type": "two-valued", "dim": 2}}
    seg = {"kind": "segment", "space": two, "start": [0, 0], "end": [1, 0]}
    config = {"version": 1, "checks": [{"check": "curve-length", "space": two, "curve": seg},
                                       {"check": "arclength", "space": two, "curve": seg}]}
    code = main(["run", write_config(tmp_path, config), "--format", "json"])
    length, arc = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_CHECK_FAILED
    assert length["verdict"] == "undetermined" and not length["diverged"]
    assert length["reason"] == "trace not converged"
    assert arc["verdict"] == "undetermined"
    assert arc["details"]["reason"] == "trace not converged"


def test_unresolved_polyline_reads_as_not_converged(tmp_path, capsys):
    """200 corners in a Euclidean plane: rectifiable, but at depth 8 the trace is still
    growing, so curve-length is undetermined; at depth 12 it passes."""
    rng = np.random.default_rng(0)
    plane = {"type": "product", "factors": [{"type": "real-line"}, {"type": "real-line"}],
             "phi": {"type": "weighted-euclidean", "dim": 2, "weights": [1.0, 1.0]}}
    poly = {"kind": "polyline", "space": plane,
            "points": rng.uniform(-5, 5, (200, 2)).tolist()}
    config = {"version": 1, "checks": [
        {"check": "curve-length", "space": plane, "curve": poly, "depth": depth}
        for depth in (8, 12)]}
    code = main(["run", write_config(tmp_path, config), "--format", "json"])
    coarse, fine = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_CHECK_FAILED
    assert coarse["verdict"] == "undetermined" and coarse["reason"] == "trace not converged"
    assert fine["verdict"] == "pass" and "reason" not in fine


@pytest.mark.parametrize("check", [
    {"check": "geodesy", "space": "plane", "start": [math.nan, 0], "end": [1, 1]},
    {"check": "geodesy", "space": {"type": "half-line"}, "start": -1, "end": 2},
    {"check": "geodesy", "space": {"type": "lp", "dim": 2}, "start": [0, 0, 1], "end": [1, 1]},
    {"check": "component-progress", "space": "plane", "start": [0, 0], "end": [1, 1],
     "via": [math.inf, 0]},
    {"check": "unique-geodesic", "product": "taxiplane", "start": [0, 0],
     "end": [1, math.inf]},
    {"check": "busemann-convexity", "space": "plane", "g1": {"start": [0, 0], "end": [1, 0]},
     "g2": {"start": [0, -math.inf], "end": [1, 2]}},
    {"check": "cat0-four-point", "space": "plane", "triangles": [[[0, 0], [2, 0], [math.nan, 2]]]},
    {"check": "embedding-oracle", "space": {"type": "real-line"}, "points": [math.nan, 1, 2],
     "pattern": [[0, 1], [1, 0]]},
    {"check": "embedding-oracle", "space": {"type": "discrete", "points": 3},
     "points": [0, math.inf], "pattern": [[0, 1], [1, 0]]},
    {"check": "curve-length", "space": "plane",
     "curve": {"kind": "segment", "space": "plane", "start": [0, 0], "end": [1, math.nan]}},
    {"check": "curve-length", "space": {"type": "lp", "dim": 2},
     "curve": {"kind": "circle-arc", "center": [math.nan, 0], "radius": 1}},
    {"check": "curve-length", "space": {"type": "lp", "dim": 2},
     "curve": {"kind": "circle-arc", "center": [0, 0], "radius": math.inf}},
    {"check": "classify", "phi": "eu", "samples": "many"},
    {"check": "classify", "phi": "eu", "radius": math.nan},
    {"check": "metric-axioms", "product": "plane", "seed": [1]},
    {"check": "geodesy", "space": "plane", "start": [0, 0], "end": [1, 1], "grid": "fine"},
    {"check": "unique-geodesic", "product": "taxiplane", "start": [0, 0], "end": [1, 1],
     "perturbations": math.inf},
    {"check": "cat0-four-point", "space": "plane", "count": "all"},
    {"check": "curve-length", "space": "plane", "curve": "diag", "expect_length": math.nan},
    {"check": "curve-length", "space": "plane", "curve": "diag", "expect_length": 5,
     "tolerance": "loose"},
    {"check": "arclength", "space": "plane", "curve": "diag", "depth": None},
    {"check": "non-length-space", "paths": "some"},
    {"check": "non-length-space", "paths": 0},
    {"check": "non-length-space", "paths": -2},
    {"check": "non-length-space", "endpoints": [[0, 0], [math.inf, 0]]},
    {"check": "non-length-space", "endpoints": [[0, math.nan], [1, 0]]},
    {"check": "non-length-space", "endpoints": "ab"},
    {"check": "non-length-space", "endpoints": [[0, 0]]},
    {"check": "rank-counterexample", "T": math.inf},
    {"check": "embedding-oracle", "space": {"type": "real-line"}, "pattern": [[0, 1], [1, 0]],
     "sample": {"radius": math.nan}},
    {"check": "alpha-decomposition", "product": "plane", "base_a": math.nan},
    {"check": "alpha-decomposition", "product": "plane", "vectors": [0.0, math.nan]},
    {"check": "alpha-decomposition", "product": "plane", "vectors": {"linspace": [math.nan, 1, 5]}},
    {"check": "alpha-decomposition", "product": "plane", "vectors": {"linspace": [0, 1]}},
    {"check": "alpha-decomposition", "product": "plane", "vectors": {"linspace": [0, 1, -1]}},
    {"check": "alpha-decomposition", "product": "plane", "vectors": {"linspace": [0, 1, 0]}},
    {"check": "alpha-decomposition", "product": "plane", "vectors": []},
    {"check": "classify", "phi": "eu", "samples": -5},
    {"check": "classify", "phi": {"type": "coordinate-power", "dim": 1, "exponent": -1}},
    {"check": "classify", "phi": {"type": "coordinate-power", "dim": 1, "exponent": math.nan}},
    {"check": "alpha-decomposition", "product": "plane", "embedding": "axis:-1"},
    {"check": "alpha-decomposition", "product": "plane", "embedding": "axis:x"},
    {"check": "alpha-decomposition", "product": "plane", "embedding": "axis:5"},
    {"check": "alpha-decomposition", "product": "plane", "embedding": 5},
], ids=["nan-start", "half-line-negative", "lp-3-vector", "inf-via", "inf-end",
        "busemann-inf-start", "cat0-nan", "oracle-nan", "oracle-inf-index", "segment-nan",
        "arc-nan-center", "arc-inf-radius", "samples-many", "radius-nan", "seed-list",
        "grid-word", "perturbations-inf", "count-word", "expect-length-nan",
        "tolerance-word", "depth-null", "paths-word", "paths-zero", "paths-negative",
        "endpoints-inf", "endpoints-nan", "endpoints-word", "endpoints-one", "T-inf", "sample-radius-nan", "alpha-base-nan",
        "alpha-vector-nan", "alpha-linspace-nan", "alpha-linspace-short",
        "alpha-linspace-negative", "alpha-linspace-zero", "alpha-vectors-empty",
        "samples-negative", "exponent-negative", "exponent-nan", "embedding-axis-negative",
        "embedding-axis-word", "embedding-axis-past-factors", "embedding-number"])
def test_refused_point_or_number_is_config_error(tmp_path, capsys, check):
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err and f"({check['check']})" in captured.err


HALF_PLANE = {"type": "product", "factors": [{"type": "half-line"}, {"type": "real-line"}],
              "phi": "eu"}
PAIR = [[0, 1], [1, 0]]


@pytest.mark.parametrize("check, field, value", [
    ({"check": "metric-axioms", "product": "plane", "radius": 0}, "radius", "0.0"),
    ({"check": "metric-axioms", "product": HALF_PLANE, "radius": -2}, "radius", "-2.0"),
    ({"check": "psi-norm-axioms", "phi": "eu", "radius": 0}, "radius", "0.0"),
    ({"check": "quadrant-triangle", "phi": "eu", "radius": -1}, "radius", "-1.0"),
    ({"check": "cat0-four-point", "space": "plane", "radius": 0}, "radius", "0.0"),
    ({"check": "embedding-oracle", "space": "plane", "pattern": PAIR, "sample": {"radius": 0}},
     "radius", "0.0"),
    ({"check": "embedding-oracle", "space": "plane", "pattern": PAIR, "sample": {"count": 0}},
     "count", "0"),
], ids=["axioms-radius-zero", "axioms-radius-negative", "psi-radius-zero",
        "triangle-radius-negative", "cat0-radius-zero", "oracle-radius-zero", "oracle-count-zero"])
def test_a_sample_radius_or_count_not_above_zero_is_config_error(tmp_path, capsys, check, field,
                                                                 value):
    """At radius 0 every sample is the origin, and at a negative radius a half-line factor
    draws points below 0: the checks passed on them, or failed on a refused sample."""
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_CONFIG, "")
    assert captured.err == (f"config error: check #0 ({check['check']}): "
                            f"field {field!r} must be > 0, got {value}\n")


def test_a_negative_four_point_count_is_config_error(tmp_path, capsys):
    """Count 0 draws no triangle and gives the "no triangles" record; a negative count gave
    a fail record, exit 1."""
    check = {"check": "cat0-four-point", "space": "plane", "count": -1}
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_CONFIG, "")
    assert captured.err == ("config error: check #0 (cat0-four-point): "
                            "field 'count' must be >= 0, got -1\n")


ARC = {"kind": "circle-arc", "center": [0, 0], "radius": 1, "angle_end": math.pi}


@pytest.mark.parametrize("check", [
    {"check": "curve-length", "space": {"type": "real-line"}, "curve": ARC},
    {"check": "curve-length", "space": {"type": "lp", "dim": 3}, "curve": ARC},
    {"check": "curve-length", "space": "plane", "curve": ARC},
    {"check": "curve-length", "space": {"type": "lp", "dim": 3},
     "curve": dict(ARC, center=[0, 0, 5])},
    {"check": "arclength", "space": {"type": "real-line"}, "curve": ARC},
    {"check": "product-curve-length", "product": "plane", "components": [ARC, "diag"]},
    {"check": "curve-length", "space": {"type": "lp", "dim": 2}, "curve": "diag"},
], ids=["arc-in-line", "arc-in-lp3", "arc-in-product", "arc-3d-center", "arclength-arc-in-line",
        "component-not-in-factor", "product-segment-in-lp"])
def test_curve_outside_its_space_is_config_error(tmp_path, capsys, check):
    """A curve is measured only in a space that takes its start as a point: the arc's
    points are planar vectors, which a line, lp dim 3 and a product of lines refuse.  The
    segment in a product of lines starts at a pair that lp dim 2 reads as a vector, but its
    batches are pairs of columns, not rows of vectors."""
    code = main(["run", write_config(tmp_path, config_with_checks([check]))])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "config error" in captured.err and f"({check['check']})" in captured.err


@pytest.mark.parametrize("refs", [["c3"], ["c3", "c3", "c3"]], ids=["fewer", "more"])
def test_component_count_other_than_factor_count_fails(tmp_path, capsys, refs):
    config = config_with_checks([{"check": "product-curve-length", "product": "plane",
                                  "components": refs}])
    config["curves"]["c3"] = {"kind": "segment", "space": {"type": "real-line"},
                              "start": 0, "end": 3}
    code = main(["run", write_config(tmp_path, config), "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert record["verdict"] == "fail" and "error" in record


def test_curve_in_its_space_is_measured(tmp_path, capsys):
    checks = [{"check": "curve-length", "space": {"type": "lp", "dim": 2}, "curve": ARC},
              {"check": "product-curve-length", "product": "plane",
               "components": [{"kind": "segment", "space": {"type": "real-line"},
                               "start": 0, "end": 3}, "c4"]}]
    config = config_with_checks(checks)
    config["curves"]["c4"] = {"kind": "segment", "space": {"type": "real-line"},
                              "start": 0, "end": 4}
    code = main(["run", write_config(tmp_path, config), "--format", "json"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_OK
    assert records[0]["length"] == pytest.approx(math.pi, abs=1e-6)
    assert records[1]["witness"]["measured"] == pytest.approx(5.0)


def test_metric_override_reaches_the_product_length_precondition(tmp_path, capsys, monkeypatch):
    import metricprod.curves as curves

    seen = []
    original = curves._arclength
    monkeypatch.setattr(curves, "_arclength",
                        lambda *args: seen.append(args[-1]) or original(*args))
    config = config_with_checks([{"check": "product-curve-length", "product": "plane",
                                  "components": ["c3", "c3"]}])
    config["curves"]["c3"] = {"kind": "segment", "space": {"type": "real-line"},
                              "start": 0, "end": 3}
    run_records(tmp_path, capsys, config, "--tolerance", "metric=1e-6")
    assert seen == [Tolerances(metric=1e-6)] * 2


def test_a_closed_stdout_exits_quietly(tmp_path):
    """A reader that stops after one line closes the pipe while records are still being
    written; the run ends with its own exit code and writes nothing to stderr."""
    cfg = {"version": 1, "checks": [{"check": "declared-rank", "space": {"type": "real-line"}}]
           * 2000}                             # far more than a pipe buffer holds
    proc = subprocess.Popen([sys.executable, "-m", "metricprod", "run",
                             write_config(tmp_path, cfg), "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert json.loads(proc.stdout.readline())["check"] == "rank"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED
    assert err == ""


def test_module_runs_as_the_command():
    proc = subprocess.run([sys.executable, "-m", "metricprod", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_later_calls_build_no_parser(capsys, monkeypatch):
    main(["--list-demos"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    codes = [main(argv) for argv in (["--list-demos"], ["demo", "--list"],
                                     ["demo", "CAT0-failure", "--format", "json"])]
    capsys.readouterr()
    assert codes == [EXIT_OK] * 3
    assert built == []


def test_no_state_carries_between_calls(tmp_path, capsys):
    path = write_config(tmp_path, config_with_checks([
        {"check": "metric-axioms", "product": "taxiplane", "samples": 500},
        {"check": "geodesy", "space": "plane", "start": [0, 0], "end": [3, 4], "grid": 8}]))
    plain = ["run", path, "--format", "json"]
    before = run_cli(capsys, *plain)
    tolerant = run_cli(capsys, *plain, "--tolerance", "metric=1e-3")
    seeded = run_cli(capsys, *plain, "--seed", "5")
    assert before[1] not in (tolerant[1], seeded[1])
    assert run_cli(capsys, *plain) == before


def test_usage_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG
    assert captured.out == "" and captured.err.startswith("usage: metricprod run")
    code, out = run_cli(capsys, "demo", "CAT0-failure", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"


def test_help_after_a_run_lists_every_subcommand(capsys):
    assert run_cli(capsys, "demo", "CAT0-failure")[0] == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == EXIT_OK
    for command in ("run", "validate-phi", "check-product", "length", "geodesic", "rank",
                    "demo"):
        assert re.search(rf"^ +{command} +\S", out, re.MULTILINE), command
