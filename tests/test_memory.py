"""Peak traced memory of the biggest batch checks.

Gluing evaluations and lp distances run in row blocks, and the checks draw,
evaluate and reduce their samples one row block at a time, keeping only each
margin row's first largest with its witness.  Before blocking, the classify
call below peaked at 92 MB and the metric-axiom call at 88 MB under
``tracemalloc`` (numpy 2.4); with blocked kernels, 60 MB and 64 MB; with
streamed samples, 13.2 MB and 15.8 MB, and the norm conditions and strict
convexity at 11.1 MB.  With streamed reductions they peak at 4.7 MB, 3.3 MB
and 4.7 MB (5.4 MB for a first call in a fresh process, which warms numpy's
caches); with witness fields kept by ``scan``, at 5.2 MB, 3.3 MB and 5.2 MB
(5.9 MB first call), as the monotonicity rung's lower blocks now stay alive
while its margins are taken.  With 4096-row blocks and one zeroed-column
lower block held at a time (its witness rebuilt from the kept row), at
2.1 MB, 1.8 MB and 1.6 MB (2.8 MB first call; 3.3 MB with the smaller
blocks alone, 4.8 MB with the one lower block alone).  The bound is the
2.8 MB plus about 30%, and
each check's peak must not grow with the sample count past one block.  That
includes the strict-convexity rung alone on the max gluing in dim 2, where
about a quarter of the midpoint norms tie at exactly 1: the rung keeps only
strict records, and the symmetrized norm axioms, whose two rows share one
block of draws.
"""

import tracemalloc

import pytest

from metricprod import (DiscreteSpace, GluingFunction, LpSpace, ProductSpace, RealLine,
                        SampleConfig, check_norm_conditions, check_strict_convexity,
                        check_symmetrized_norm_axioms, classify)
from metricprod.gluing import BLOCK_ROWS
from metricprod.product import verify_metric_axioms

PEAK_BYTES = 3.6e6


def traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PHI = GluingFunction.lp(6, 1.5, [1, 2, 3, 1, 2, 3])


def nested_product():
    inner = ProductSpace((LpSpace(3, 1.5), RealLine()), GluingFunction.sum(2))
    return ProductSpace((inner, LpSpace(5, 3.0), DiscreteSpace(7)),
                        GluingFunction.lp(3, 3.0, [1, 2, 0.5]))


def test_classify_peak_at_50k_samples():
    assert traced_peak(lambda: classify(PHI, SampleConfig(count=50_000, seed=0))) < PEAK_BYTES


@pytest.mark.parametrize("check", [check_norm_conditions, check_strict_convexity],
                         ids=lambda check: check.__name__)
def test_rung_peak_at_50k_samples(check):
    assert traced_peak(lambda: check(PHI, SampleConfig(count=50_000, seed=0))) < PEAK_BYTES


def test_metric_axioms_peak_at_200k_triples():
    prod, cfg = nested_product(), SampleConfig(count=200_000, seed=0)
    assert traced_peak(lambda: verify_metric_axioms(prod, cfg)) < PEAK_BYTES


#: A sample count whose every stream (corner rows and axis pairs included, at dim 6)
#: fits in one block.
ONE_BLOCK = BLOCK_ROWS - 64


@pytest.mark.parametrize("check, count", [
    (lambda cfg: classify(PHI, cfg), 50_000),
    (lambda cfg: check_norm_conditions(PHI, cfg), 50_000),
    (lambda cfg: check_strict_convexity(PHI, cfg), 50_000),
    (lambda cfg: check_strict_convexity(GluingFunction.max(2), cfg, norm_reports=[]), 50_000),
    (lambda cfg: check_symmetrized_norm_axioms(PHI, cfg), 50_000),
    (lambda cfg: verify_metric_axioms(nested_product(), cfg), 200_000),
], ids=["classify", "check_norm_conditions", "check_strict_convexity",
        "check_strict_convexity-max-ties", "check_symmetrized_norm_axioms",
        "verify_metric_axioms"])
def test_peak_does_not_grow_with_the_sample_count(check, count):
    check(SampleConfig(count=100, seed=1))        # first calls warm numpy's caches
    one_block = traced_peak(lambda: check(SampleConfig(count=ONE_BLOCK, seed=0)))
    assert traced_peak(lambda: check(SampleConfig(count=count, seed=0))) <= 1.2 * one_block
