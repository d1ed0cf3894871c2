"""Peak traced memory of the two biggest batch checks.

Gluing evaluations and lp distances run in row blocks, and the quadrant
samples are drawn into their final array, so the full-size temporaries of
those kernels are gone.  Before blocking, the classify call below peaked at
92 MB and the metric-axiom call at 88 MB under ``tracemalloc`` (numpy 2.4);
blocked, 60 MB and 64 MB.  The bound sits between the two.
"""

import tracemalloc

from metricprod import (DiscreteSpace, GluingFunction, LpSpace, ProductSpace, RealLine,
                        SampleConfig, classify)
from metricprod.product import verify_metric_axioms

PEAK_BYTES = 70e6


def traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classify_peak_at_50k_samples():
    phi = GluingFunction.lp(6, 1.5, [1, 2, 3, 1, 2, 3])
    assert traced_peak(lambda: classify(phi, SampleConfig(count=50_000, seed=0))) < PEAK_BYTES


def test_metric_axioms_peak_at_200k_triples():
    inner = ProductSpace((LpSpace(3, 1.5), RealLine()), GluingFunction.sum(2))
    prod = ProductSpace((inner, LpSpace(5, 3.0), DiscreteSpace(7)),
                        GluingFunction.lp(3, 3.0, [1, 2, 0.5]))
    cfg = SampleConfig(count=200_000, seed=0)
    assert traced_peak(lambda: verify_metric_axioms(prod, cfg)) < PEAK_BYTES
