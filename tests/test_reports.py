import math

import numpy as np
import pytest

from metricprod.gluing import judge
from metricprod.reports import FAIL, PASS, worst


def judged(margins, tol=0.0):
    """The flat index ``gluing.judge`` witnesses on one whole margin row, read raveled,
    and its verdict; its margin is the one at that index."""
    m = np.asarray(margins, float)
    rep = judge("row", [(m, {"at": np.arange(m.size)})], m.size, tol)
    at = int(rep.witness["at"])
    assert np.array_equal(rep.margin, m.flat[at], equal_nan=True)
    return at, rep.verdict


def test_ties_give_the_first_index():
    assert worst([0.5, 2.0, -1.0, 2.0]) == (1, FAIL)
    assert worst([-3.0, -1.0, -1.0]) == (1, PASS)
    assert judged([0.5, 2.0, -1.0, 2.0]) == (1, FAIL)
    assert judged([-3.0, -1.0, -1.0]) == (1, PASS)


def test_index_is_flat_in_c_order():
    margins = np.array([[0.0, 1.0], [3.0, 3.0]])
    assert worst(margins, tol=5.0) == (2, PASS)
    assert judged(margins, tol=5.0) == (2, PASS)


def test_nan_is_picked_and_fails():
    assert worst([1.0, math.nan, 5.0, math.nan], tol=10.0) == (1, FAIL)
    assert worst([-math.inf, math.nan], tol=math.inf) == (1, FAIL)
    assert judged([1.0, math.nan, 5.0, math.nan], tol=10.0) == (1, FAIL)
    assert judged([[1.0, 5.0], [math.nan, math.nan]], tol=10.0) == (2, FAIL)


def test_a_non_finite_tolerance_passes_nothing():
    """An overflowed distance scales the tolerance to inf; comparing against it is no evidence."""
    assert worst([0.0], math.inf) == (0, FAIL)
    assert worst([-math.inf], math.inf) == (0, FAIL)
    assert worst([-1.0], math.nan) == (0, FAIL)


def test_equality_with_tol_passes():
    assert worst([0.25, 0.5], tol=0.5) == (1, PASS)
    assert worst([0.0]) == (0, PASS)
    assert worst([0.5, 0.5000001], tol=0.5) == (1, FAIL)


def test_a_scalar_margin_is_index_zero():
    assert worst(1e-3, tol=1e-6) == (0, FAIL)


def test_no_margins_is_an_error():
    with pytest.raises(ValueError, match="no margins"):
        worst([])
    for empty in (np.empty(0), np.empty((2, 0))):
        with pytest.raises(ValueError, match="no margins"):
            judge("row", [(empty, {})], 0)
