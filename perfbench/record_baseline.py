"""Record the benchmark baseline of the current checkout.

    python3 perfbench/record_baseline.py

For each workload: ten end-to-end runs with seeds 1..10 (median,
quartiles and spread = IQR / median of every metric), one traced run for
the per-layer numbers and layer shares, and the smoke-size run whose
``failed_frac`` the smoke test compares against.  Runs go one at a time;
the result is written to ``baseline.json`` next to this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
SMOKE = {"seed": 7, "jobs": 40}  # one bulk cycle, which holds the known miss


def run(workload, seed, trace, *budget) -> tuple[dict, dict]:
    """(info line, result line) of one run.py invocation; ``budget`` is
    ``--seconds S`` or ``--jobs N``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *budget]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info: "))[len("info: "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    return info, result


def spread_stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    seconds = ["--seconds", str(BENCHMARK["run_seconds"])]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    out = {"run_seconds": BENCHMARK["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        values, infos = {}, []
        for seed in range(1, RUNS + 1):
            info, result = run(workload, seed, 0, *seconds)
            infos.append(info)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        e2e = {name: spread_stats(v) for name, v in values.items()}
        for name, stats in e2e.items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:16s} median {stats['median']:.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        tinfo, traced = run(workload, 1, 1, *seconds)
        sinfo, _ = run(workload, SMOKE["seed"], 0, "--jobs", str(SMOKE["jobs"]))
        last = infos[-1]
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "jobs_per_run": [i["jobs"] for i in infos],
            "failed_frac": {"values": [i["failed_frac"] for i in infos],
                            "bases": [i["failed_frac_base"] for i in infos]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_ratio_bases": tinfo["ratio_bases"],
            "traced_jobs": tinfo["jobs"],
            "shares": tinfo["shares"],
            "smoke": dict(SMOKE, failed_frac=sinfo["failed_frac"]),
            "checks_per_run": last["checks"],
        }
        out.update(commit=last["commit"], python=last["python"], numpy=last["numpy"],
                   nproc=last["nproc"])
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
