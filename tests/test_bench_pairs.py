"""The pairs harness's summary, on made-up runs (no benchmark is started)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pairs_of(base, change):
    return [{"base": {"job_ms_p50": b, "jobs_per_s": 1000.0 / b},
             "change": {"job_ms_p50": c, "jobs_per_s": 1000.0 / c}}
            for b, c in zip(base, change)]


def test_summary_counts_wins_in_the_better_direction_and_ties_for_neither():
    pairs = pairs_of([60.0, 61.0, 59.0, 62.0, 58.0], [21.0, 61.0, 70.0, 22.0, 20.0])
    out = bench_pairs.summarize(pairs, {"job_ms_p50": "lower", "jobs_per_s": "higher"})
    assert out["job_ms_p50"]["change_wins"] == 3
    assert out["jobs_per_s"]["change_wins"] == 3
    assert out["job_ms_p50"]["pairs"] == 5
    assert out["job_ms_p50"]["better"] == "lower"


def test_summary_gives_each_side_its_runs_median_and_quartiles():
    pairs = pairs_of([50.0, 10.0, 40.0, 20.0, 30.0], [5.0, 5.0, 5.0, 5.0, 5.0])
    base = bench_pairs.summarize(pairs, {"job_ms_p50": "lower"})["job_ms_p50"]["base"]
    assert base["runs"] == [50.0, 10.0, 40.0, 20.0, 30.0]
    assert (base["q1"], base["median"], base["q3"]) == (20.0, 30.0, 40.0)
    assert base["iqr_over_median"] == pytest.approx(20.0 / 30.0)


def test_one_run_is_its_own_median_and_quartiles():
    side = bench_pairs.spread([7.0])
    assert (side["q1"], side["median"], side["q3"], side["iqr_over_median"]) == (7.0, 7.0, 7.0, 0.0)


def test_environment_names_the_interpreter_numpy_bytecode_and_cores(monkeypatch):
    import importlib.metadata
    import os
    import platform

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_pairs.environment()
    assert env == {"python": platform.python_version(),
                   "numpy": importlib.metadata.version("numpy"),
                   "PYTHONDONTWRITEBYTECODE": "1", "cpu_count": os.cpu_count()}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.environment()["PYTHONDONTWRITEBYTECODE"] is None
