"""Seed-deterministic samplers shared by the validators.

All checks draw quasi-uniform points from a bounded box plus a fixed block
of deliberate corner cases (axis vectors, equal vectors, zero, tiny
components).  The corner block comes first so that deterministic witnesses
win argmax ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import Tolerances


@dataclass(frozen=True)
class SampleConfig:
    """Sampling budget and tolerances for one check."""

    count: int = 10_000
    seed: int = 0
    radius: float = 10.0
    tol: Tolerances = Tolerances()


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


def quadrant_samples(dim: int, cfg: SampleConfig, stream: int = 0) -> np.ndarray:
    """Corner block followed by ``cfg.count`` uniform draws in [0, radius]^dim.

    The draws are written in place: ``uniform(0, radius)`` is ``0 + radius * u``
    for the stream's next double ``u``, the same floats and the same stream.
    """
    corners = quadrant_corners(dim, cfg.radius)
    out = np.empty((len(corners) + cfg.count, dim))
    out[:len(corners)] = corners
    draws = out[len(corners):]
    rng_stream(cfg.seed, 101, stream).random(out=draws)
    draws *= cfg.radius
    return out


def signed_samples(dim: int, cfg: SampleConfig, stream: int = 0) -> np.ndarray:
    """Uniform draws in [-radius, radius]^dim (no corner block)."""
    rng = rng_stream(cfg.seed, 202, stream)
    return rng.uniform(-cfg.radius, cfg.radius, size=(cfg.count, dim))
