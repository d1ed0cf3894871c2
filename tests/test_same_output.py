"""The output comparison of ``tools/same_output.py``, on made-up digests (no worker is started)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
_SPEC = importlib.util.spec_from_file_location("same_output", _PATH)
same_output = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_output)

A, B = "a" * 64, "b" * 64


def test_compare_marks_each_workload_and_seed():
    lines = same_output.compare({("paths", 2): (A, A), ("bulk", 1): (A, B)})
    assert lines == [f"bulk seed 1: DIFFERENT {A[:16]} {B[:16]}",
                     f"paths seed 2: same {A[:16]} {A[:16]}"]


def test_one_differing_pair_is_a_difference():
    assert not same_output.differs({("paths", 1): (A, A), ("bulk", 1): (B, B)})
    assert same_output.differs({("paths", 1): (A, A), ("bulk", 1): (A, B)})


def fake_run(monkeypatch, digests):
    """``main`` with extraction, cycle lengths and workers replaced by ``digests``,
    ``{(tree name, workload, seed): digest}``; returns the jobs each worker was given."""
    jobs = []
    monkeypatch.setattr(same_output.bench_pairs, "extract", lambda rev, dest: rev)
    monkeypatch.setattr(same_output, "cycle", lambda tree, workload: 5)

    def digest(tree, workload, seed, n, workdir):
        jobs.append(n)
        return digests[tree.name, workload, seed]
    monkeypatch.setattr(same_output, "digest", digest)
    return jobs


def test_main_exits_1_on_any_difference(monkeypatch, capsys):
    digests = {(side, w, s): A for side in ("base", "change") for w in ("paths", "bulk")
               for s in (1, 2)}
    jobs = fake_run(monkeypatch, digests)
    assert same_output.main(["--base", "x", "--seeds", "1", "2"]) == 0
    assert jobs == [2 * 5] * 8
    digests["change", "bulk", 2] = B
    assert same_output.main(["--base", "x", "--seeds", "1", "2"]) == 1
    assert "bulk seed 2: DIFFERENT" in capsys.readouterr().out
