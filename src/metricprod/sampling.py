"""Seed-deterministic samplers shared by the validators.

All checks draw quasi-uniform points from a bounded box plus a fixed block
of deliberate corner cases (axis vectors, equal vectors, zero, tiny
components).  The corner block comes first so that deterministic witnesses
win argmax ties.  Each sampler is a stream, ``draw(k)`` returning its next ``k``
rows, so a check can hold one block of rows at a time; the whole-array samplers
are one draw of their stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import FAIL, PASS, Tolerances, worst


@dataclass(frozen=True)
class SampleConfig:
    """Sampling budget and tolerances for one check."""

    count: int = 10_000
    seed: int = 0
    radius: float = 10.0
    tol: Tolerances = Tolerances()

    def __post_init__(self):
        # a stream takes any row count, so a negative one must not reach it
        if self.count < 0:
            raise ValueError(f"sample count must be >= 0, got {self.count}")


DEFAULT_SAMPLES = SampleConfig()

_MOD = 2**63


def rng_stream(seed, *stream: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, *stream)."""
    if isinstance(seed, (list, tuple)):
        entropy = [int(s) % _MOD for s in seed]
    else:
        entropy = [int(seed) % _MOD]
    entropy += [int(s) % _MOD for s in stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


#: Value at or below which a gluing value or a distance counts as zero.  It is
#: fixed, not a run tolerance: the corner probes below sit at 1e-6, and a floor
#: that followed a ``metric`` override there would read them as zero.
ZERO_FLOOR = 1e-9


def zero_floor_verdict(at_zero: float, least: float) -> tuple[float, str, bool]:
    """"Zero at zero, positive elsewhere" read against :data:`ZERO_FLOOR`, from the value
    at zero and the least value elsewhere: the margin, the verdict (a NaN fails) and
    whether ``least`` reads as zero."""
    near_zero = not least > ZERO_FLOOR
    margins = [at_zero, ZERO_FLOOR - least]
    verdict = PASS if at_zero <= ZERO_FLOOR and not near_zero else FAIL
    return margins[worst(margins)[0]], verdict, near_zero


def quadrant_corners(dim: int, radius: float) -> np.ndarray:
    """Deterministic corner cases in the closed positive quadrant."""
    eye = np.eye(dim)
    rows = [np.zeros(dim)]
    for i in range(dim):
        rows += [eye[i], 1e-6 * eye[i], radius * eye[i]]
    ones = np.ones(dim)
    rows += [ones, 0.4 * ones, 1e-6 * ones, radius * ones]
    if dim >= 2:
        mixed = np.full(dim, 1e-6)
        mixed[0] = 1.0
        rows.append(mixed)
    return np.array(rows)


def uniform_stream(rng: np.random.Generator, lo: float, hi: float, dim: int | None = None):
    """A stream: ``draw(k)`` returns the generator's next ``k`` uniforms in [lo, hi), as
    ``k`` rows of ``dim`` when ``dim`` is given.  A generator fills a C-order array one
    double at a time, and ``uniform(lo, hi)`` is ``lo + (hi - lo) * u`` for its next double
    ``u``, so drawing in chunks, scaled in place, gives the floats of one ``uniform`` call."""
    if not np.isfinite(hi - lo):                    # as ``uniform`` refuses it
        raise OverflowError(f"uniform range [{lo}, {hi}) exceeds valid bounds")

    def draw(k: int) -> np.ndarray:
        out = rng.random(k if dim is None else (k, dim))
        out *= hi - lo
        out += lo
        return out
    return draw


def chain(head: np.ndarray, draw):
    """A stream: the rows of ``head`` first, then those of the stream ``draw``."""
    taken = 0

    def next_rows(k: int) -> np.ndarray:
        nonlocal taken
        first = head[taken:taken + k]
        taken += k
        return draw(k) if not len(first) else np.concatenate([first, draw(k - len(first))])
    return next_rows


def quadrant_stream(dim: int, cfg: SampleConfig, stream: int = 0):
    """The corner block, then uniform draws in [0, radius]^dim: the stream of
    :func:`quadrant_samples`."""
    rng = rng_stream(cfg.seed, 101, stream)
    return chain(quadrant_corners(dim, cfg.radius), uniform_stream(rng, 0.0, cfg.radius, dim))


def quadrant_rows(dim: int, cfg: SampleConfig) -> int:
    """Rows of :func:`quadrant_samples`: the corner block and ``cfg.count`` draws."""
    return len(quadrant_corners(dim, cfg.radius)) + cfg.count


def quadrant_samples(dim: int, cfg: SampleConfig, stream: int = 0) -> np.ndarray:
    """Corner block followed by ``cfg.count`` uniform draws in [0, radius]^dim."""
    return quadrant_stream(dim, cfg, stream)(quadrant_rows(dim, cfg))


def signed_stream(dim: int, cfg: SampleConfig, stream: int = 0):
    """Uniform draws in [-radius, radius]^dim (no corner block)."""
    return uniform_stream(rng_stream(cfg.seed, 202, stream), -cfg.radius, cfg.radius, dim)


def signed_samples(dim: int, cfg: SampleConfig, stream: int = 0) -> np.ndarray:
    """The first ``cfg.count`` rows of :func:`signed_stream`."""
    return signed_stream(dim, cfg, stream)(cfg.count)
