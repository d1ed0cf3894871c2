"""Whether two revisions print the same benchmark stdout, job for job.

    python3 tools/same_output.py --base REV [--change REV] [--seeds 1 2 3]

Both revisions are extracted with ``bench_pairs.extract`` into a temporary
directory.  For each workload and seed, ``perfbench/worker.py --jobs N`` runs
two whole cycles of jobs (``workloads.CYCLE``) in each tree, and the sha256
digests of the stdout the jobs printed are compared.  Prints one line per
workload and seed; exits 1 when any pair of digests differs.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paths", "bulk")
CYCLES = 2

_SPEC = importlib.util.spec_from_file_location("bench_pairs", HERE / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def cycle(tree: Path, workload: str) -> int:
    """Jobs in one cycle of ``workload``, read from the tree's ``perfbench/workloads.py``."""
    code = f"import sys; sys.path.insert(0, 'perfbench'); import workloads; " \
           f"print(workloads.CYCLE[{workload!r}])"
    return int(subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                              capture_output=True, text=True).stdout)


def digest(tree: Path, workload: str, seed: int, jobs: int, workdir: Path) -> str:
    """The stdout digest of ``jobs`` jobs of ``workload`` at ``seed``, run from ``tree``."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--jobs", str(jobs)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def compare(digests: dict) -> list[str]:
    """One line per ``(workload, seed)`` of ``{(workload, seed): (base, change)}``,
    marked ``same`` or ``DIFFERENT``."""
    return [f"{workload} seed {seed}: {'same' if base == change else 'DIFFERENT'} "
            f"{base[:16]} {change[:16]}"
            for (workload, seed), (base, change) in sorted(digests.items())]


def differs(digests: dict) -> bool:
    return any(base != change for base, change in digests.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="parent revision")
    p.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = p.parse_args(argv)

    digests = {}
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        for side, tree in trees.items():
            bench_pairs.extract(getattr(args, side), tree)
        for workload in args.workloads:
            jobs = CYCLES * cycle(trees["base"], workload)
            for seed in args.seeds:
                digests[workload, seed] = tuple(
                    digest(trees[side], workload, seed, jobs, Path(tmp) / f"work-{side}")
                    for side in ("base", "change"))
                print(compare({(workload, seed): digests[workload, seed]})[0], flush=True)
    return 1 if differs(digests) else 0


if __name__ == "__main__":
    sys.exit(main())
