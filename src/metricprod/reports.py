"""Shared verdict records and the tolerance record.

Every validator in this package returns a :class:`ValidationReport`.  The
``margin`` field is the worst signed violation observed over the sample
set: positive means the checked condition was broken by that amount,
negative (or zero) means it held with that much room.  ``witness`` records
the inputs that achieved the worst margin so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Tolerances:
    """The tolerances every check of a run compares against.

    ``metric``: relative, for distance-level comparisons of closed forms.
    ``strict``: absolute, on the midpoint norm in strict-convexity probes.
    ``embed``: absolute, on pairwise distances in embedding search.
    """

    metric: float = 1e-9
    strict: float = 1e-6
    embed: float = 1e-9

    def scaled(self, *values: float) -> float:
        """``metric`` relative to the largest magnitude among ``values``,
        absolute below magnitude 1."""
        return self.metric * max(1.0, *(abs(float(v)) for v in values))


def worst(margins, tol: float = 0.0) -> tuple[int, str]:
    """The verdict rule every margin check shares.

    Returns the flat index of the first largest margin in C order and the
    verdict: pass exactly when ``tol`` is finite and that margin is ``<= tol``.
    A NaN counts as the largest margin, so it is picked and fails; an
    overflowed distance makes ``tol`` infinite, which passes nothing.
    """
    m = np.asarray(margins, float)
    if m.size == 0:
        raise ValueError("no margins were sampled")
    i = int(np.argmax(m))
    return i, PASS if math.isfinite(tol) and m.flat[i] <= tol else FAIL


def to_jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays and tuples into JSON-friendly values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return repr(obj)


@dataclass
class ValidationReport:
    """Outcome of one sampled or exact check."""

    condition: str
    verdict: str
    samples: int = 0
    margin: float = 0.0
    witness: Any = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_record(self) -> dict:
        return {
            "check": self.condition,
            "verdict": self.verdict,
            "samples": int(self.samples),
            "margin": to_jsonable(float(self.margin)),
            "witness": to_jsonable(self.witness),
            "details": to_jsonable(self.details),
        }
