"""Peak traced memory of the biggest batch checks.

Gluing evaluations and lp distances run in row blocks, and the checks draw
and evaluate their samples one row block at a time, keeping only per-row
values and margins whole.  Before blocking, the classify call below peaked at
92 MB and the metric-axiom call at 88 MB under ``tracemalloc`` (numpy 2.4);
with blocked kernels, 60 MB and 64 MB; with streamed samples, 13.2 MB and
15.8 MB, and the norm conditions and strict convexity at 11.1 MB.  The bound
is the largest of these plus about 30%.
"""

import tracemalloc

import pytest

from metricprod import (DiscreteSpace, GluingFunction, LpSpace, ProductSpace, RealLine,
                        SampleConfig, check_norm_conditions, check_strict_convexity, classify)
from metricprod.product import verify_metric_axioms

PEAK_BYTES = 20e6


def traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PHI = GluingFunction.lp(6, 1.5, [1, 2, 3, 1, 2, 3])


def test_classify_peak_at_50k_samples():
    assert traced_peak(lambda: classify(PHI, SampleConfig(count=50_000, seed=0))) < PEAK_BYTES


@pytest.mark.parametrize("check", [check_norm_conditions, check_strict_convexity],
                         ids=lambda check: check.__name__)
def test_rung_peak_at_50k_samples(check):
    assert traced_peak(lambda: check(PHI, SampleConfig(count=50_000, seed=0))) < PEAK_BYTES


def test_metric_axioms_peak_at_200k_triples():
    inner = ProductSpace((LpSpace(3, 1.5), RealLine()), GluingFunction.sum(2))
    prod = ProductSpace((inner, LpSpace(5, 3.0), DiscreteSpace(7)),
                        GluingFunction.lp(3, 3.0, [1, 2, 0.5]))
    cfg = SampleConfig(count=200_000, seed=0)
    assert traced_peak(lambda: verify_metric_axioms(prod, cfg)) < PEAK_BYTES
