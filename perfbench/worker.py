"""One fresh, single-threaded interpreter running one workload.

Started by ``run.py``; not meant to be run by hand.  It imports
``metricprod`` from the checkout's ``src``, runs the untimed warm-up jobs,
then sends the workload's jobs through ``metricprod.cli.main`` one at a
time (a closed loop with one client) until ``--jobs`` jobs have run, or
with ``--seconds`` until the whole-cycle boundary (see ``workloads.CYCLE``)
nearest to that much summed job wall time.  Every record is checked
against the verdicts the generator predicts.  The last stdout line is a
JSON object with the samples and tallies.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--trace", help="write the span JSONL here")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    from metricprod import cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"metricprod was imported from {cli.__file__}, not from {src}")
    return cli, numpy.__version__


def _heap_trimmer():
    """glibc's ``malloc_trim``, or a no-op where the C library has none.

    A user runs each config in a ``metricprod`` process of its own, whose
    heap starts empty; here all jobs share one interpreter.  Handing free
    heap pages back to the kernel between jobs (untimed) keeps the pages
    earlier jobs left behind out of the peak RSS: without it, bulk's peak
    RSS read 227 or 257 MB for the same seed, depending on where earlier
    allocations happened to fall.
    """
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda _pad: 0


def _check(job, out: str):
    """(records checked, records failed, unexplained failures) for one job."""
    records = [json.loads(line) for line in out.splitlines()]
    failed, unexplained = 0, []
    for name, check, field, value, known in job.expect:
        match = [r for r in records if r.get("name") == name and r.get("check") == check]
        got = match[0].get(field) if len(match) == 1 else f"{len(match)} records"
        if got != value:
            failed += 1
            if not known:
                unexplained.append(f"{name}/{check}: expected {field}={value}, got {got}")
    return len(job.expect), failed, unexplained


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    cli, numpy_version = _import_program()
    workdir = Path(args.workdir)
    config_path = workdir / f"job-{os.getpid()}.json"

    recorder = None
    run = cli.main
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)

        def run(argv):
            return recorder.call("job", cli.main, (argv,), {})

    def execute(job):
        config_path.write_text(json.dumps(job.config), encoding="utf-8")
        buf = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = run(["run", str(config_path), "--format", "json"])
            error = None if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) else f"exit code {code}"
        except Exception:
            error = traceback.format_exc(limit=3)
        return time.perf_counter() - started, buf.getvalue(), error

    for warm in workloads.warmup(args.workload):
        _, _, error = execute(warm)
        if error:
            raise SystemExit(f"warm-up job failed: {error}")
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    trim_heap = _heap_trimmer()
    trim_heap(0)
    if recorder:
        recorder.reset()

    durations, problems, checks = [], [], Counter()
    busy = mark = 0.0             # job time in all, and when the cycle began
    cycle = workloads.CYCLE[args.workload]
    digest = hashlib.sha256()
    expected = failed_records = failed_jobs = 0
    i = 0
    while True:
        if args.jobs is not None:
            if i == args.jobs:
                break
        elif i and i % cycle == 0:
            # end at the whole-cycle boundary nearest to ``seconds`` of job time
            last_cycle, mark = busy - mark, busy
            if busy + last_cycle / 2 >= args.seconds:
                break
        job = workloads.job(args.workload, args.seed, i)
        if recorder:
            recorder.job = i
        dt, out, error = execute(job)
        trim_heap(0)
        durations.append(dt)
        busy += dt
        digest.update(out.encode("utf-8"))
        checks.update(job.checks)
        if error:
            failed_jobs += 1
            problems.append(f"job {i}: {error}")
            expected += len(job.expect)
            failed_records += len(job.expect)
        else:
            n, bad, unexplained = _check(job, out)
            expected += n
            failed_records += bad
            if unexplained:
                failed_jobs += 1
                problems += [f"job {i}: {msg}" for msg in unexplained]
        i += 1
    config_path.unlink(missing_ok=True)
    if recorder:
        recorder.write_jsonl(args.trace)

    print(json.dumps({
        "setup_s": setup_s,
        "durations": durations,
        "digest": digest.hexdigest(),
        "checks": dict(checks),
        "expected_records": expected,
        "failed_records": failed_records,
        "failed_jobs": failed_jobs,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
