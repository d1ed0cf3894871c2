"""Catalog of factor metric spaces, and the point/batch format they share.

Points are plain floats for the one-dimensional spaces, numpy vectors for
coordinate spaces, integer indices for discrete/finite spaces, and tuples
of factor points for products (see :mod:`metricprod.product`).  A batch of
points is a 1-D array (floats or indices), a 2-D array with one vector per
row, or a tuple of factor batches.  The batch functions of this module
(``stack``, ``take``, ``size``, ``unstack``, ``point_at``, ``lerp``, ``where``) and
``gluing.by_blocks``, which slices row blocks, are the only code that reads that
structure.  Every space carries the batch functions as methods;
callers without a space at hand (``curves.segment``, ``Curve.at``) use the
functions directly.

Each space also owns the geometry the catalog knows in closed form: its
coordinate count (``coord_dim``), moves along coordinate directions
(``offset``), its default geodesic routes (``route``, a batch) and the corner
routes of its non-unique geodesics (``corner_route``).

Spaces are immutable after construction and every operation is a pure
function of its arguments, so instances are safe to share between threads.

The catalog is deliberately restricted to spaces whose geodesics and ranks
are known in closed form; reports that depend on that restriction carry
``CATALOG_NOTE`` in their details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gluing import by_blocks, pnorm_weights, weighted_pnorm
from .reports import Tolerances
from .sampling import ZERO_FLOOR, rng_stream, uniform_stream

INFINITY = math.inf

CATALOG_NOTE = (
    "catalog restricted to spaces with closed-form geodesics and known rank"
)


# -- the point/batch format ------------------------------------------------------


def stack(points: list):
    """Batch holding the given points, in order."""
    if points and isinstance(points[0], tuple):
        return tuple(stack([p[i] for p in points]) for i in range(len(points[0])))
    return np.asarray(points)


def take(batch, idx):
    """The rows ``idx`` of a batch."""
    if isinstance(batch, tuple):
        return tuple(take(b, idx) for b in batch)
    return np.asarray(batch)[idx]


def size(batch) -> int:
    """Number of points in a batch."""
    return size(batch[0]) if isinstance(batch, tuple) else len(batch)


def batch_form(batch):
    """Nesting, types and shapes of a batch; the batches of one space share them."""
    return tuple(map(batch_form, batch)) if isinstance(batch, tuple) else (type(batch), np.shape(batch))


def unstack(batch) -> list:
    """The points of a batch, in order."""
    if isinstance(batch, tuple):
        return list(zip(*map(unstack, batch)))
    arr = np.asarray(batch)
    return arr.tolist() if arr.ndim == 1 else [np.array(row) for row in arr]


def point_at(batch, i: int):
    """Point ``i`` of a batch."""
    if isinstance(batch, tuple):
        return tuple(point_at(b, i) for b in batch)
    arr = np.asarray(batch)
    return arr[i].item() if arr.ndim == 1 else np.array(arr[i])


def lerp(a, b, u: np.ndarray):
    """Row-wise ``a + u*(b - a)`` between two batches; one-row batches
    broadcast against the parameters ``u``."""
    if isinstance(a, tuple):
        return tuple(lerp(ai, bi, u) for ai, bi in zip(a, b))
    return a + (u if np.ndim(a) == 1 else u[:, None]) * (b - a)


def where(mask: np.ndarray, a, b):
    """Row-wise choice: the rows of ``a`` where ``mask`` holds, of ``b`` elsewhere."""
    if isinstance(a, tuple):
        return tuple(where(mask, ai, bi) for ai, bi in zip(a, b))
    return np.where(mask if np.ndim(a) == 1 else mask[:, None], a, b)


def _finite(point):
    """``point`` (a float or an array of coordinates) if every coordinate is finite."""
    if not np.isfinite(point).all():
        raise ValueError(f"point coordinates must be finite, got {np.asarray(point).tolist()}")
    return point


@dataclass(frozen=True)
class DeclaredProperties:
    """Structural flags attached to a space; ``None`` means unknown.

    Consistency is enforced at construction: uniquely geodesic implies
    geodesic implies length space.
    """

    is_length_space: bool | None = None
    is_geodesic: bool | None = None
    is_uniquely_geodesic: bool | None = None
    is_convex: bool | None = None
    known_minkowski_rank: int | None = None

    def __post_init__(self):
        if self.is_uniquely_geodesic and not self.is_geodesic:
            raise ValueError("uniquely geodesic requires geodesic")
        if self.is_geodesic and not self.is_length_space:
            raise ValueError("geodesic requires length space")
        rank = self.known_minkowski_rank
        if rank is not None and rank < 0:
            raise ValueError("rank must be nonnegative")


class MetricSpace:
    """Abstract carrier plus distance; subclasses implement the catalog."""

    name: str = "abstract"
    #: True when points are coordinate vectors that can be interpolated.
    supports_interpolation: bool = False

    @property
    def properties(self) -> DeclaredProperties:
        return self._properties

    # -- core interface ----------------------------------------------------

    def distance(self, x, y) -> float:
        """Distance between two points: the one-row batch of the checked points, so it
        is bit for bit the matching row of :meth:`distance_batch`."""
        return float(self.distance_batch(self.stack([self.check(x)]),
                                         self.stack([self.check(y)]))[0])

    def distance_batch(self, xs, ys) -> np.ndarray:
        """Distances between two batches of points, row by row."""
        raise NotImplementedError

    def sample_stream(self, seed=0, radius: float = 1.0):
        """The deterministic sample stream of ``seed``: ``draw(k)`` returns its next ``k``
        points as a batch, so drawing in chunks gives the rows of one whole draw."""
        raise NotImplementedError

    def sample_batch(self, count: int, seed=0, radius: float = 1.0):
        """The first ``count`` points of the sample stream, in one draw."""
        return self.sample_stream(seed, radius)(count)

    def check(self, point):
        """``point`` as its space stacks it; a ValueError if it is not a point of
        this space.  Batches are not checked, so :meth:`distance` checks both of its
        points, and any other caller that stacks points it was given checks each first."""
        return self._check(point)

    def sample_points(self, count: int, seed=0, radius: float = 1.0) -> list:
        """Deterministic pseudo-random points within the given radius."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be > 0")
        return self.unstack(self.sample_batch(count, seed, radius))

    # -- batch plumbing: the format functions above ----------------------------

    stack = staticmethod(stack)
    take = staticmethod(take)
    size = staticmethod(size)
    unstack = staticmethod(unstack)
    point_at = staticmethod(point_at)
    lerp = staticmethod(lerp)
    where = staticmethod(where)

    # -- closed-form geometry ----------------------------------------------------

    #: Number of coordinates of a point; None unless points are coordinate vectors.
    coord_dim: int | None = None

    def offset(self, point, directions: np.ndarray, scales: np.ndarray):
        """The batch of ``point`` moved by ``scales[k]`` times the coordinate
        direction ``directions[k]``, one row per direction."""
        raise NotImplementedError

    def route(self, xs, ys, ds: np.ndarray):
        """Evaluator of the default geodesics from ``xs[k]`` to ``ys[k]``, of lengths
        ``ds[k]``: at parameters ``ts`` it returns row k at ``ts[k]``, and one-row batches
        broadcast against the parameters.  A segment runs ``ts / ds`` of the way, and a
        row of length 0 stays at its start.  The refusals of construction are the callers'.
        """
        flat = ds == 0
        end, scale = where(flat, xs, ys), np.where(flat, 1.0, ds)
        return lambda ts: lerp(xs, end, np.where(flat, ts, ts / scale))

    def corner_route(self, x, y, idx: int):
        """``(evaluator, descriptor)`` of a unit-speed geodesic from ``x`` to ``y`` other
        than the default route, chosen by coordinate ``idx``; None where the default
        route is the only geodesic."""
        raise ValueError(f"{self.name} is not a geodesic space in the catalog")

    # -- (de)serialization ---------------------------------------------------

    def descriptor(self) -> dict:
        raise NotImplementedError

    def point_from_json(self, obj):
        raise NotImplementedError

    def point_to_json(self, point):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()})"


class _Line1D(MetricSpace):
    """Shared plumbing for the one-dimensional coordinate spaces."""

    supports_interpolation = True
    coord_dim = 1

    def distance_batch(self, xs, ys) -> np.ndarray:
        return np.abs(np.asarray(xs, float) - np.asarray(ys, float))

    def offset(self, point, directions, scales):
        return float(point) + scales * directions[:, 0]

    def corner_route(self, x, y, idx):
        raise ValueError("one-dimensional factors have only the affine geodesic")

    def point_from_json(self, obj):
        return self._check(_finite(float(obj)))

    def point_to_json(self, point):
        return float(point)

    def _check(self, x) -> float:
        return float(x)


class RealLine(_Line1D):
    """The real line with its standard metric."""

    name = "real-line"

    def __init__(self):
        self._properties = DeclaredProperties(
            is_length_space=True,
            is_geodesic=True,
            is_uniquely_geodesic=True,
            is_convex=True,
            known_minkowski_rank=1,
        )

    def sample_stream(self, seed=0, radius=1.0):
        return uniform_stream(rng_stream(seed, 11), -radius, radius)

    def descriptor(self):
        return {"type": "real-line"}


class HalfLine(_Line1D):
    """The nonnegative half-line [0, oo) with the induced metric.

    Modeled as a first-class space rather than a constrained line: it is a
    rank-0 factor in its own right.
    """

    name = "half-line"

    def __init__(self):
        self._properties = DeclaredProperties(
            is_length_space=True,
            is_geodesic=True,
            is_uniquely_geodesic=True,
            is_convex=True,
            known_minkowski_rank=0,
        )

    def sample_stream(self, seed=0, radius=1.0):
        return uniform_stream(rng_stream(seed, 12), 0.0, radius)

    def descriptor(self):
        return {"type": "half-line"}

    def offset(self, point, directions, scales):
        return np.maximum(super().offset(point, directions, scales), 0.0)

    def _check(self, x) -> float:
        x = float(x)
        if x < 0:
            raise ValueError(f"half-line point must be >= 0, got {x}")
        return x


class LpSpace(MetricSpace):
    """R^m with a weighted p-norm metric, 1 <= p <= oo.

    Distance is (sum_i w_i |x_i - y_i|^p)^(1/p); for p = oo (use
    ``math.inf``) it is max_i w_i |x_i - y_i|.  Weights must be positive.
    The space is m real lines glued by the weighted-lp gluing with the same
    p and weights, and shares its kernel, :func:`gluing.weighted_pnorm`.
    """

    name = "lp-space"
    supports_interpolation = True

    def __init__(self, dim: int, p: float = 2.0, weights=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = self.coord_dim = int(dim)
        self.p = float(p)
        self.weights, self._norm_weights = pnorm_weights(self.dim, self.p, weights)
        strictly = 1.0 < self.p < INFINITY
        self._properties = DeclaredProperties(
            is_length_space=True,
            is_geodesic=True,
            is_uniquely_geodesic=strictly,
            is_convex=strictly,
            known_minkowski_rank=dim,
        )

    def _check(self, x) -> np.ndarray:
        arr = np.asarray(x, float)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"point of dimension {arr.shape} does not match lp space of dimension {self.dim}"
            )
        return arr

    def stack(self, points):
        # a point may be any sequence of coordinates, a tuple too
        return np.asarray(points, float).reshape(len(points), self.dim)

    def distance_batch(self, xs, ys) -> np.ndarray:
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        return by_blocks(lambda x, y: weighted_pnorm(np.abs(x - y), self.p, self._norm_weights),
                         max(len(xs), len(ys)), xs, ys)

    def sample_stream(self, seed=0, radius=1.0):
        return uniform_stream(rng_stream(seed, 13), -radius, radius, self.dim)

    def offset(self, point, directions, scales):
        return np.asarray(point, float) + scales[:, None] * directions

    def corner_route(self, x, y, idx):
        """An axis-first route for p=1 and a bounded wander of one coordinate for p=oo."""
        a, b = self.stack([x]), self.stack([y])
        d = float(self.distance_batch(a, b)[0])
        if d == 0:
            return None
        if not 0 <= idx < self.dim:
            raise ValueError("corner coordinate out of range")
        x, y = a[0], b[0]
        if self.p == 1.0:
            c = a.copy()
            c[0, idx] = y[idx]
            s1 = float(self.weights[idx] * abs(y[idx] - x[idx]))
            if s1 <= 0 or s1 >= d:
                return None

            def corner_eval(ts):
                first = lerp(a, c, np.clip(ts / s1, 0.0, 1.0))
                second = lerp(c, b, np.clip((ts - s1) / (d - s1), 0.0, 1.0))
                return where(ts <= s1, first, second)

            return corner_eval, f"corner({idx})"
        if self.p == INFINITY:
            # wander the chosen coordinate within its unused speed budget
            budget = 1.0 / self.weights[idx] - abs(y[idx] - x[idx]) / d
            if budget <= ZERO_FLOOR:
                return None
            beta = 0.5 * budget

            def wander_eval(ts):
                pts = lerp(a, b, ts / d)
                pts[:, idx] += beta * np.minimum(ts, d - ts)
                return pts

            return wander_eval, f"wander({idx})"
        raise ValueError(f"p={self.p:g} factors are uniquely geodesic; corner selector invalid")

    def descriptor(self):
        return {
            "type": "lp",
            "dim": self.dim,
            "p": "inf" if self.p == INFINITY else self.p,
            "weights": [float(w) for w in self.weights],
        }

    def point_from_json(self, obj):
        return _finite(self._check(np.asarray(obj, float)))

    def point_to_json(self, point):
        return [float(v) for v in np.asarray(point, float)]


class _IndexSpace(MetricSpace):
    """Shared plumbing and declared properties for spaces whose points are integer indices."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("need at least one point")
        self.size = int(size)
        self._properties = DeclaredProperties(
            is_length_space=False,
            is_geodesic=False,
            is_uniquely_geodesic=False,
            is_convex=False,
            known_minkowski_rank=0,
        )

    def _check(self, i) -> int:
        idx = int(i)
        if idx != i or not 0 <= idx < self.size:
            raise ValueError(f"index {i} out of range for {self.size}-point space")
        return idx

    def sample_stream(self, seed=0, radius=1.0):
        rng = rng_stream(seed, 14)
        return lambda k: rng.integers(0, self.size, k)

    def point_from_json(self, obj):
        return self._check(_finite(float(obj)))

    def point_to_json(self, point):
        return int(point)


class DiscreteSpace(_IndexSpace):
    """n points with the 0/1 discrete metric."""

    name = "discrete"

    def distance_batch(self, xs, ys) -> np.ndarray:
        return (np.asarray(xs) != np.asarray(ys)).astype(float)

    def descriptor(self):
        return {"type": "discrete", "points": self.size}


class FiniteMetricSpace(_IndexSpace):
    """Finite metric space given by an explicit distance matrix.

    The matrix is validated exhaustively at construction: finite entries,
    symmetry, zero diagonal, positive off-diagonal entries, and the full
    triangle inequality over all index triples, in O(n^2) memory.
    """

    name = "finite"

    def __init__(self, matrix):
        m = np.asarray(matrix, float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("distance matrix must be square")
        super().__init__(m.shape[0])
        if not np.isfinite(m).all():
            raise ValueError("distance matrix entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("distance matrix must be symmetric")
        if np.abs(np.diag(m)).max(initial=0.0) > 0:
            raise ValueError("distance matrix must have a zero diagonal")
        # the n diagonal zeros are the only entries <= 0 a metric allows
        if np.count_nonzero(m <= 0) > self.size:
            raise ValueError("off-diagonal distances must be positive")
        # triangle check over every (i, j, k): d_ij <= d_ik + d_kj, one k at a time into
        # one buffer (a fresh n x n temporary per k costs more than the arithmetic)
        viol, worst = np.empty_like(m), -math.inf
        for k in range(self.size):
            np.subtract(np.subtract(m, m[:, k, None], out=viol), m[k], out=viol)
            worst = max(worst, float(viol.max()))
        if worst > Tolerances().scaled(float(m.max()) if m.size else 1.0):
            raise ValueError(f"triangle inequality fails by {worst}")
        self.matrix = m

    def distance_batch(self, xs, ys) -> np.ndarray:
        return self.matrix[np.asarray(xs), np.asarray(ys)]

    def descriptor(self):
        return {"type": "finite", "matrix": [[float(v) for v in row] for row in self.matrix]}


def line_pattern(values) -> FiniteMetricSpace:
    """Finite pattern whose points sit at the given positions on a line."""
    v = np.asarray(values, float)
    return FiniteMetricSpace(np.abs(v[:, None] - v[None, :]))
