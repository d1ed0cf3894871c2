"""Alternating parent/change pairs of the benchmark, summarised into a JSON file.

    python3 tools/bench_pairs.py --base REV [--change REV] --workload paths \\
        --pairs 10 --first-seed 11 --out BENCH_7.json

Both revisions are extracted with ``git archive REV | tar -x`` into a
temporary directory, so the working tree is never measured.  Pair ``i`` runs
``perfbench/run.py --workload W --seed first_seed+i --trace 0 --seconds S``
once from each tree, one after the other; the base goes first in even pairs
and the change in odd pairs, so slow drift of the machine weighs on both.

For each end-to-end metric in ``BENCHMARK.json`` the output records every
run, the median and quartiles of each side, the IQR over the median, and how
many pairs the change won (ties count for neither side).  An existing
``--out`` file keeps its other workloads, so one file can hold several.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR over the median of one side's runs."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else [values[0]] * 3)
    return {"runs": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of ``pairs``, each ``{"base": {metric: value}, "change": {...}}``.

    ``better`` maps each metric to ``"lower"`` or ``"higher"``; a pair is a
    win when the change's value is strictly better than the base's.
    """
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {"better": direction, "base": spread(base), "change": spread(change),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def extract(rev: str, dest: Path) -> str:
    """Unpack ``rev`` into ``dest``; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; its metric values plus whether it checked out correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="parent revision")
    p.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        shas = {side: extract(getattr(args, side), trees[side]) for side in trees}
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {side: run_once(trees[side], args.workload, seed, seconds) for side in order}
            pairs.append({"seed": seed, "first": order[0],
                          **{side: runs[side]["metrics"] for side in order},
                          "correct": {side: runs[side]["correct"] for side in order},
                          "attempted": {side: runs[side]["attempted"] for side in order},
                          "failed": {side: runs[side]["failed"] for side in order}})
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): job_ms_p50 "
                  f"{runs['base']['metrics']['job_ms_p50']:.1f} -> "
                  f"{runs['change']['metrics']['job_ms_p50']:.1f} ms", flush=True)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "base": shas["base"], "change": shas["change"], "run_seconds": seconds,
        "seeds": [pair["seed"] for pair in pairs], "metrics": summarize(pairs, better),
        "pairs": pairs}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
