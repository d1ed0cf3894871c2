"""Byte-for-byte comparison of command-line output with the golden corpus.

``golden/cases.json`` lists ``metricprod`` argument lists (``{golden}``
stands for the corpus directory).  Each case's stdout must equal
``golden/<name>.out`` byte for byte, its stderr ``golden/<name>.err`` (empty
when that file is absent), and its exit code the recorded one.  The
outputs were written once and are not regenerated by the suite.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from metricprod.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _expected(name: str, suffix: str) -> bytes:
    path = GOLDEN / f"{name}{suffix}"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case):
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert out.getvalue().encode("utf-8") == _expected(case["name"], ".out")
    assert err.getvalue().encode("utf-8") == _expected(case["name"], ".err")
    assert code == case["exit"]
