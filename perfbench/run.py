"""End-to-end and per-layer benchmark of ``metricprod run``.

    python3 perfbench/run.py --workload {paths,bulk} --seed N \\
        (--seconds S | --jobs N) --trace {0,1}

Run from the root of a checkout; ``metricprod`` is imported from its
``src``.  A closed loop with one client sends seeded configs (see
``workloads.py``) through ``metricprod.cli.main(["run", cfg, "--format",
"json"])`` in a fresh single-threaded interpreter (``worker.py``), one job
at a time, for whole cycles of job shapes adding up to about ``S`` seconds
of job time, or for exactly ``N`` jobs.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over seven fresh interpreters: three that only set up before the timed one,
the timed one, and three more after it, so slow drift of the machine's
speed during the run weighs on both sides.
``--trace 1`` runs the workload with every layer wrapped in spans for half
the time, then the same jobs untraced, checks that both printed the same
bytes, and reports per-job layer totals and the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted`` (jobs), ``failed`` (jobs that raised,
exited with a config or budget error, or broke a prediction that is not a
known miss) and ``metrics``.  Exit code 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_ONLY_RUNS = 3  # on each side of the timed interpreter
TIMEOUT_S = 150

# name -> unit, as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verdict_ok_frac": "ratio",
}

# span name -> per-job totals reported for it
LAYERS = {
    "spaces.distance": ("calls", "self_s"),
    "spaces.distance_batch": ("calls", "rows", "self_s"),
    "spaces.finite_init": ("self_s",),
    "sampling.draw": ("calls", "rows", "self_s"),
    "gluing.eval": ("calls", "rows", "self_s"),
    "gluing.checks": ("self_s",),
    "gluing.classify": ("calls", "self_s", "total_s"),
    "product.distance": ("calls", "self_s"),
    "product.distance_batch": ("calls", "rows", "self_s"),
    "product.metric_axioms": ("self_s",),
    "curves.curve_length": ("calls", "self_s"),
    "curves.product_length": ("self_s",),
    "curves.arclength": ("self_s",),
    "geodesics.product_geodesic": ("calls", "self_s"),
    "geodesics.geodesy": ("self_s",),
    "geodesics.uniqueness": ("self_s",),
    "geodesics.cat0": ("self_s",),
    "geodesics.busemann": ("self_s",),
    "rank.embedding": ("self_s", "nodes"),
    "rank.alpha": ("self_s",),
    "cli.context": ("self_s",),
    "cli.dispatch": ("self_s",),
    "cli.emit": ("self_s",),
    "reports.to_jsonable": ("self_s",),
}
PER_JOB_UNITS = {"calls": "calls/job", "rows": "rows/job", "self_s": "s/job",
                 "total_s": "s/job", "nodes": "nodes/job"}
# ratio metric -> (span name, numerator, denominator)
RATIOS = {
    "gluing.eval.rows_per_call": ("gluing.eval", "rows", "calls"),
    "gluing.classification.hit_ratio": ("gluing.classification", "hits", "calls"),
    "geodesics.uniqueness.hit_ratio": ("geodesics.uniqueness", "hits", "attempts"),
    "geodesics.cat0.checked_ratio": ("geodesics.cat0", "checked", "sampled"),
}


def layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{span}.{key}": PER_JOB_UNITS[key]
             for span, keys in LAYERS.items() for key in keys}
    units.update({name: "rows/call" if name.endswith("rows_per_call") else "ratio"
                  for name in RATIOS})
    units["trace.overhead_frac"] = "ratio"
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float, help="run jobs for this much job time")
    budget.add_argument("--jobs", type=int, help="run exactly this many timed jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit}


def _worker(args, workdir, *extra) -> dict:
    """Run one fresh worker interpreter and return its result object."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _budget(args, share=1.0) -> list:
    """Worker arguments for ``share`` of a ``--seconds`` budget, or all ``--jobs``."""
    return ["--jobs", str(args.jobs)] if args.jobs else ["--seconds", str(args.seconds * share)]


def _p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def _tallies(res) -> tuple:
    """(failed_frac, base) over records that carry an expectation."""
    base = res["expected_records"]
    return (res["failed_records"] / base if base else 0.0), base


def end_to_end(args, workdir):
    def setup_only():
        return [_worker(args, workdir, "--setup-only")["setup_s"]
                for _ in range(SETUP_ONLY_RUNS)]

    setups = setup_only()
    res = _worker(args, workdir, *_budget(args))
    setups += [res["setup_s"], *setup_only()]
    ms = [1000.0 * d for d in res["durations"]]
    failed_frac, base = _tallies(res)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": _p90(ms),
        "jobs_per_s": 1000.0 * len(ms) / sum(ms),
        "peak_rss_mb": res["peak_rss_mb"],
        "verdict_ok_frac": 1.0 - failed_frac,
    }
    n = len(ms)
    print(f"timed {n} jobs, {n / workloads.CYCLE[args.workload]:g} cycles of "
          f"{workloads.CYCLE[args.workload]} job shapes")
    print(f"setup_s        {metrics['setup_s']:.4f} s   (median of {len(setups)} interpreters)")
    print(f"job_ms_p50     {metrics['job_ms_p50']:.3f} ms  (n={n} jobs)")
    print(f"job_ms_p90     {metrics['job_ms_p90']:.3f} ms  (n={n} jobs, "
          f"{sum(v > metrics['job_ms_p90'] for v in ms)} beyond)")
    print(f"jobs_per_s     {metrics['jobs_per_s']:.3f} 1/s (over {sum(ms) / 1000:.2f} s of jobs)")
    print(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_frac    {failed_frac:.6f} ({res['failed_records']}/{base} records "
          f"with an expectation); verdict_ok_frac {metrics['verdict_ok_frac']:.6f}")
    info = {"failed_frac": failed_frac, "failed_frac_base": base, "jobs": n}
    return res, metrics, info


def per_layer(args, workdir):
    trace_path = workdir / "trace.jsonl"
    traced = _worker(args, workdir, *_budget(args, 0.5),
                     "--trace", str(trace_path))
    plain = _worker(args, workdir, "--jobs", str(len(traced["durations"])))
    jobs = len(traced["durations"])
    with open(trace_path, encoding="utf-8") as fh:
        summary = tracer.summarize(fh)
    STATE.mkdir(exist_ok=True)
    shutil.copyfile(trace_path, STATE / f"trace-{args.workload}.jsonl")

    metrics = {}
    for span, keys in LAYERS.items():
        for key in keys:
            metrics[f"{span}.{key}"] = summary.get(span, {}).get(key, 0.0) / jobs
    cls = summary.get("gluing.classification", {})
    if cls:
        cls["hits"] = cls["calls"] - cls.get("misses", 0)
    bases = {}
    for name, (span, num, den) in RATIOS.items():
        agg = summary.get(span, {})
        bases[name] = agg.get(den, 0)
        metrics[name] = agg.get(num, 0) / bases[name] if bases[name] else 0.0
    p50_traced = statistics.median(traced["durations"])
    p50_plain = statistics.median(plain["durations"])
    metrics["trace.overhead_frac"] = p50_traced / p50_plain - 1.0

    total = summary.get("job", {}).get("total_s", 0.0)
    shares = {span: agg["self_s"] / total for span, agg in summary.items() if total}
    if total and "gluing.classify" in summary:
        shares["gluing.classify (with its checks)"] = summary["gluing.classify"]["total_s"] / total
    same = traced["digest"] == plain["digest"]
    print(f"traced {jobs} jobs, then the same jobs untraced; per-layer totals "
          f"over all of them; stdout digest "
          f"{'identical' if same else 'DIFFERS'} ({traced['digest'][:16]})")
    for name, base in bases.items():
        print(f"{name:34s} {metrics[name]:.6g} (base {base:g})")
    print(f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f} "
          f"(p50 {1000 * p50_traced:.3f} ms traced vs {1000 * p50_plain:.3f} ms)")
    print("self-time share of traced job time:")
    for span, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {span:34s} {share:7.2%}")
    info = {"digest_match": same, "shares": shares, "ratio_bases": bases, "jobs": jobs}
    return traced, metrics, info, same


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res, metrics, info, digests_ok = per_layer(args, workdir)
            units = layer_units()
        else:
            res, metrics, info = end_to_end(args, workdir)
            digests_ok = True
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in res["problems"]:
        print(f"problem: {problem}")
    env = dict(_environment(), python=res["python"], numpy=res["numpy"])
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                digest=res["digest"], checks=res["checks"], **env)
    print(f"checks run: {json.dumps(res['checks'], sort_keys=True)}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['commit']}")
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": res["failed_jobs"] == 0 and digests_ok,
        "attempted": len(res["durations"]),
        "failed": res["failed_jobs"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
