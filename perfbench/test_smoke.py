"""Small-size test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs twice at the smoke size recorded in ``baseline.json``
(a fixed seed and job count): the stdout digest must repeat and
``failed_frac`` must equal the recorded value.  One traced run per
workload must report every per-layer metric of ``BENCHMARK.json`` with
identical stdout traced and untraced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace):
    smoke = BASELINE["workloads"][workload]["smoke"]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(smoke["seed"]), "--trace", str(trace), "--jobs", str(smoke["jobs"])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info: "))[6:])
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_and_failed_frac_is_recorded(workload):
    first, result = run(workload, 0)
    second, _ = run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == BASELINE["workloads"][workload]["smoke"]["jobs"]
    assert first["digest"] == second["digest"]
    assert first["failed_frac"] == BASELINE["workloads"][workload]["smoke"]["failed_frac"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    info, result = run(workload, 1)
    assert info["digest_match"] and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_every_check_is_covered():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from metricprod.cli import CHECK_RUNNERS

    import workloads

    covered = {check for workload in WORKLOADS
               for i in range(workloads.CYCLE[workload])
               for check in workloads.job(workload, 1, i).checks}
    assert covered == set(CHECK_RUNNERS)
