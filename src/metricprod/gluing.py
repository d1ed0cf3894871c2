"""Gluing functions and their sampled classification ladder.

A gluing function maps the vector of factor distances, a point of the
closed quadrant Q^n = [0, oo)^n, to a single nonnegative number.  Which
structural conditions it satisfies decides what the glued product preserves:

* definiteness + the quadrant triangle condition  ->  a metric product,
* positivity, monotonicity, subadditivity, homogeneity  ->  induced by a
  norm (the absolute-value symmetrization is a norm on R^n),
* strict convexity of that norm ball  ->  unique geodesics survive,
* the axis Pythagoras identity  ->  induced by a scalar product.

The conditions are universally quantified, so the checks here sample: they
can falsify with an explicit witness, and for the closed-form catalog
variants the invariant tests give the matching positive evidence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .reports import FAIL, PASS, UNDETERMINED, ValidationReport, worst
from .sampling import (DEFAULT_SAMPLES, SampleConfig, chain, quadrant_rows, quadrant_stream,
                       rng_stream, signed_stream, uniform_stream, zero_floor_verdict)

#: p of the norm-type kinds: ``sum``, ``max`` and ``weighted-euclidean`` are weighted-lp
#: gluings at p = 1, oo and 2 with their own label (``sum`` and ``max`` at unit weights).
_LP_KINDS = {"weighted-lp": None, "weighted-euclidean": 2.0, "sum": 1.0, "max": math.inf}
#: Gluing kinds and the optional keys each reads, ``weights`` and ``p``.  A key that its
#: kind does not read is refused, not ignored.
GLUING_KEYS = {"weighted-lp": ("weights", "p"), "weighted-euclidean": ("weights",), "sum": (),
               "max": (), "two-valued": (), "coordinate-power": (), "custom": ()}
#: Smallest symmetrized-norm distance between the unit vectors of a strict-convexity pair.
SEPARATION = 0.1


def rowwise(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, bit for bit, as a fold over the columns of ``a``.

    numpy reduces a short last axis one row at a time, which costs far more
    than a few whole-column operations.  Below 8 columns numpy sums a row left
    to right from 0.0, so the add fold starts from ``a[..., 0] + 0.0`` (a row of
    -0.0 sums to +0.0); from 8 columns on it sums in an unrolled pairwise order,
    so ``np.add`` keeps the reduction there.  A 1-D input reduces to a scalar,
    which an ``out=`` fold cannot hold.
    """
    width = a.shape[-1]
    if a.ndim < 2 or (ufunc is np.add and width >= 8):
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0] + 0.0 if ufunc is np.add else a[..., 0].copy()
    for j in range(1, width):
        ufunc(out, a[..., j], out=out)
    return out


#: Rows per block of :func:`by_blocks`: a block's temporaries stay in cache.
BLOCK_ROWS = 4096


def by_blocks(kernel, n: int, *batches) -> np.ndarray:
    """``kernel(*batches)`` for a row-wise ``kernel`` (row i of its output reads row i
    of its inputs alone) and batches of ``n`` rows, run ``BLOCK_ROWS`` rows at a time
    into one array: the same floats as one call.  A tuple batch (a product's) is sliced
    leaf by leaf; a leaf of other than ``n`` rows (a one-row batch) broadcasts whole.
    """
    if n <= BLOCK_ROWS:
        return kernel(*batches)
    out = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        out[rows] = kernel(*(_block(b, rows, n) for b in batches))
    return out


def _block(batch, rows: slice, n: int):
    if isinstance(batch, tuple):
        return tuple(_block(b, rows, n) for b in batch)
    return batch[rows] if np.shape(batch)[:1] == (n,) else batch


def weighted_pnorm(a: np.ndarray, p: float, weights: np.ndarray | None) -> np.ndarray:
    """(sum_i w_i a_i^p)^(1/p) along the last axis of ``a >= 0``, max_i w_i a_i at p = oo.

    ``weights=None`` means unit weights.  The p = 1, p = oo and unit-weight
    branches return the same floats as the general formula, with less arithmetic.
    ``a^p`` is taken in one pass over the contiguous block (a strided power per
    column costs about 1.6 times as much, for the same floats).  Below 8 columns
    the terms ``w_j a_j^p`` are folded in column by column, as :func:`rowwise`
    folds, so no weighted copy of ``a`` is built.
    """
    power = p not in (1.0, math.inf)
    powers = a**p if power else a
    if p != math.inf and a.shape[-1] >= 8:
        total = rowwise(np.add, powers if weights is None else weights * powers)
        return total ** (1.0 / p) if power else total

    def term(j):
        return powers[..., j] if weights is None else weights[j] * powers[..., j]

    fold = np.maximum if p == math.inf else np.add
    out = term(0) + 0.0 if fold is np.add else np.array(term(0))   # as rowwise starts
    for j in range(1, a.shape[-1]):
        fold(out, term(j), out=out)
    return out ** (1.0 / p) if power else out


def pnorm_weights(dim: int, p, weights) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked weights of a weighted p-norm on R^dim (unit when ``None``),
    and the weights :func:`weighted_pnorm` takes: ``None`` when all are 1."""
    if p is None or not p >= 1:
        raise ValueError("exponent must satisfy p >= 1")
    w = np.ones(dim) if weights is None else np.asarray(weights, float)
    if w.shape != (dim,) or not ((w > 0) & (w < np.inf)).all():
        raise ValueError("weights must be positive and finite, one per axis")
    return w, (None if (w == 1.0).all() else w)


def refuse_unread(kind: str, weights, p) -> None:
    """Refuse a ``weights`` or ``p`` that is given and that ``kind`` does not read."""
    for key, value in (("weights", weights), ("p", p)):
        if value is not None and key not in GLUING_KEYS[kind]:
            raise ValueError(f"{kind} takes no {key!r}")


class GluingFunction:
    """Evaluator for a distance-combining function on the quadrant.

    Instances are immutable; classification results are memoized per
    sampling configuration (tolerances included).
    """

    def __init__(self, dim, kind, p=None, weights=None, func=None,
                 exponent=None, coordinate=0, label=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if kind not in GLUING_KEYS:
            raise ValueError(f"unknown gluing kind {kind!r}")
        refuse_unread(kind, weights, p)
        self.dim = int(dim)
        self.kind = kind
        self.p = None if p is None else float(p)
        self.weights = None
        self.func = func
        self.exponent = None if exponent is None else float(exponent)
        self.coordinate = int(coordinate)
        self._class_cache: dict = {}

        if kind in _LP_KINDS:
            self.p = _LP_KINDS[kind] or self.p
            self.weights, self._norm_weights = pnorm_weights(self.dim, self.p, weights)
        elif kind == "coordinate-power":
            if not (self.exponent is not None and self.exponent >= 0):   # NaN included
                raise ValueError("coordinate-power needs an exponent >= 0")
            if not 0 <= self.coordinate < self.dim:
                raise ValueError("coordinate out of range")
        elif kind == "custom":
            if not callable(func):
                raise ValueError("custom gluing needs a callable evaluator")
        self.label = label or self._default_label()

    # -- constructors --------------------------------------------------------

    @classmethod
    def lp(cls, dim, p, weights=None):
        if p == 2:
            return cls(dim, "weighted-euclidean", weights=weights)
        return cls(dim, "weighted-lp", p=p, weights=weights)

    @classmethod
    def euclidean(cls, weights):
        return cls(len(weights), "weighted-euclidean", weights=weights)

    @classmethod
    def sum(cls, dim):
        return cls(dim, "sum")

    @classmethod
    def max(cls, dim):
        return cls(dim, "max")

    @classmethod
    def two_valued(cls, dim):
        """Value 0 at the origin, 1 where max(q) <= 1, else 2.

        One fixed representative of the two-valued family, chosen for
        reproducibility.
        """
        return cls(dim, "two-valued")

    @classmethod
    def coordinate_power(cls, dim, exponent, coordinate=0):
        return cls(dim, "coordinate-power", exponent=exponent, coordinate=coordinate)

    @classmethod
    def custom(cls, dim, func, label=None):
        """``func`` maps an array of quadrant vectors (last axis) to their values."""
        return cls(dim, "custom", func=func, label=label)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, q) -> float | np.ndarray:
        """Values at the rows of ``q``; a single vector is a one-row batch, so its
        float is bit for bit the matching row of a batch."""
        arr = np.asarray(q, float)
        if arr.shape[-1] != self.dim:
            raise ValueError(f"expected vectors of length {self.dim}, got shape {arr.shape}")
        if (arr < 0).any():
            raise ValueError("quadrant vectors must be componentwise nonnegative")
        rows = arr[None] if arr.ndim == 1 else arr
        out = np.asarray(by_blocks(self._eval, len(rows), rows), float)
        if not np.isfinite(out).all():
            raise ValueError(f"gluing {self.label} has a non-finite value")
        return float(out[0]) if arr.ndim == 1 else out

    def _eval(self, arr: np.ndarray):
        if self.weights is not None:
            return weighted_pnorm(arr, self.p, self._norm_weights)
        if self.kind == "two-valued":
            m = rowwise(np.maximum, arr)
            return np.where(m <= 0.0, 0.0, np.where(m <= 1.0, 1.0, 2.0))
        if self.kind == "coordinate-power":
            return arr[..., self.coordinate] ** self.exponent
        return self.func(arr)

    def axis_values(self) -> np.ndarray:
        """Values on the axis unit vectors."""
        return np.asarray(self(np.eye(self.dim)), float).reshape(self.dim)

    def axis_value(self, i: int) -> float:
        return float(self.axis_values()[i])

    def symmetrized(self):
        """Extension to all of R^n via absolute values, x -> phi(|x|): symmetric under
        sign flips, and a norm exactly when this gluing passes the four norm conditions."""
        return lambda x: self(np.abs(np.asarray(x, float)))

    @property
    def known_class(self) -> "GluingClass | None":
        """The class the paper proves for a weighted p-norm (p >= 1, positive
        weights, both enforced by :func:`pnorm_weights`); ``None`` for other kinds."""
        if self.weights is None:
            return None
        if self.p == 2.0 or self.dim == 1:
            return GluingClass.SCALAR_PRODUCT_INDUCED
        if self.p in (1.0, math.inf):
            return GluingClass.NORM_INDUCED
        return GluingClass.STRICTLY_CONVEX_NORM

    def classification(self, cfg: SampleConfig = DEFAULT_SAMPLES) -> "Classification":
        """Memoized :func:`classify` for this instance."""
        if cfg not in self._class_cache:
            self._class_cache[cfg] = classify(self, cfg)
        return self._class_cache[cfg]

    def gluing_class(self, cfg: SampleConfig = DEFAULT_SAMPLES) -> "GluingClass":
        """The class every gate reads: :attr:`known_class` where the paper proves one,
        else the memoized sampled ladder (:meth:`classification`)."""
        return self.known_class or self.classification(cfg).gluing_class

    # -- misc ----------------------------------------------------------------

    def _default_label(self):
        if "weights" in GLUING_KEYS[self.kind]:
            w = ",".join(f"{v:g}" for v in self.weights)
            return f"{self.kind}(p={self.p:g}, w=[{w}])"
        if self.kind == "coordinate-power":
            return f"coordinate-power(q[{self.coordinate}]^{self.exponent:g})"
        return f"{self.kind}(n={self.dim})"

    def __repr__(self):
        return f"GluingFunction({self.label})"


class GluingClass(enum.Enum):
    NOT_A_METRIC_PRODUCT = "not-a-metric-product"
    METRIC_COMPATIBLE = "metric-compatible"
    NORM_INDUCED = "norm-induced"
    STRICTLY_CONVEX_NORM = "strictly-convex-norm"
    SCALAR_PRODUCT_INDUCED = "scalar-product-induced"

    def at_least(self, other: "GluingClass") -> bool:
        """Declaration order is the ladder, weakest first."""
        ladder = list(GluingClass)
        return ladder.index(self) >= ladder.index(other)


@dataclass
class Classification:
    """Highest supported class plus every report that backed the decision."""

    gluing_class: GluingClass
    reports: dict

    @property
    def value(self) -> str:
        return self.gluing_class.value


def _report(condition, verdict, samples, margin, witness, **details):
    return ValidationReport(condition, verdict, int(samples), float(margin), witness, dict(details))


def scan(n: int, draws, kernel, tail=None):
    """Reduce ``kernel`` over the first ``n`` rows of the streams ``draws``, drawn ``BLOCK_ROWS``
    rows at a time, and then over ``tail`` (one batch per stream) when one is given.

    ``kernel(*blocks)`` returns ``(rows, scales)``: ``rows`` a list of ``(margins, fields)``, one
    condition's margins over the block's rows with its witness fields (batches over those rows,
    or constants), and ``scales`` a list of arrays over the rows.  Returns ``(best, peaks)``: for
    each margin row its first largest (a NaN first) with each field's one-row batch there, and
    the largest of each scale (a NaN first, at least 0).  The first largest of a row lies in the
    first block that holds it and is that block's own first largest, so ``best`` holds what
    :func:`worst` would pick over whole rows, bit for bit.  Each block and its outputs but its
    last margin row are dropped before the next draw, so memory holds one block whatever ``n``.
    """
    if not n and tail is None:
        raise ValueError("no margins were sampled")

    def blocks():
        for at in range(0, n, BLOCK_ROWS):
            k = min(BLOCK_ROWS, n - at)
            yield k, [draw(k) for draw in draws]
        if tail is not None:
            yield len(tail[0]), tail

    best, peaks = [], 0.0
    for k, block in blocks():
        rows, scales = kernel(*block)
        peaks = np.maximum(peaks, [v.max(initial=0.0) for v in scales])
        # a comprehension's names die with it, so no field outlives its block
        best[:] = [_kept(best[r] if r < len(best) else None, m, fields, k)
                   for r, (m, fields) in enumerate(rows)]
        # the block's last margin row, allocated last, lives on into the next block: a live array
        # at the top of the heap keeps the allocator from trimming and refaulting the freed rest
        _pinned = rows[-1][0] if rows else None
        del block, rows, scales
    return best, peaks


def _kept(kept, margins, fields, k):
    """A row of :func:`scan` after a block of ``k`` rows (``kept`` is ``None`` before the first)."""
    if not k:
        raise ValueError("no margins were sampled")
    i = int(np.argmax(margins))
    # a later block wins a row only with a larger margin, or the row's first NaN
    if kept is not None and (np.isnan(kept[0]) or kept[0] >= margins[i]):
        return kept
    return margins[i], {name: _block(f, [i], k) for name, f in fields.items()}


def judge(condition, rows, samples, tol=0.0, **details) -> ValidationReport:
    """The report of ``condition`` on margin rows ``(margins, fields)``: :func:`worst` of their
    first largest margins (a NaN first) against ``tol``, witnessed by the winning row's fields.

    A row :func:`scan` kept (a scalar margin and one-row fields) passes unchanged; a whole row,
    its margins of any shape read raveled and its fields batches over them or constants, is
    reduced by the rule :func:`scan` keeps rows by.  A row whose margin has its own tolerance
    subtracted carries its raw difference as the field ``margin``, which is shown."""
    best = [(m, fields) if np.ndim(m) == 0 else _kept(None, np.ravel(m), fields, np.size(m))
            for m, fields in rows]
    r, verdict = worst([m for m, _ in best], tol)
    margin, fields = best[r]
    witness = {name: _block(f, 0, 1) for name, f in fields.items()}    # row 0 of each
    return _report(condition, verdict, samples, witness.pop("margin", margin), witness, **details)


def _uniform(cfg: SampleConfig, stream: int, lo: float, hi: float, dim: int | None = None):
    return uniform_stream(rng_stream(cfg.seed, stream), lo, hi, dim)


def check_definiteness(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Zero exactly at the origin, positive elsewhere (sampled)."""

    def block(q):       # minus the values off the origin; rows at the origin read -oo
        return [(np.where(rowwise(np.maximum, q) > 0, -phi(q), -math.inf), {"q": q})], []

    n = quadrant_rows(phi.dim, cfg)
    [(least, kept)], _ = scan(n, [quadrant_stream(phi.dim, cfg, 1)], block)
    at_zero = float(phi(np.zeros(phi.dim)))
    min_nz = -float(least)
    margin, verdict, near_zero = zero_floor_verdict(at_zero, min_nz)
    if verdict == FAIL and not near_zero:
        witness = {"q": np.zeros(phi.dim), "value": at_zero}
    else:
        witness = {"q": kept["q"][0], "value": min_nz}
    return _report("definiteness", verdict, n, margin, witness,
                   value_at_zero=at_zero, min_nonzero_value=min_nz)


#: (j, k, l) of the quadrant triangle rung: value(j) <= value(k) + value(l) when
#: the hypothesis j <= k + l holds componentwise.
_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def check_quadrant_triangle(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Generalized triangle condition over sampled quadrant triples, every permutation
    whose componentwise hypothesis holds (the strongest reading of the condition).

    Margin row ``3 s + m`` is permutation m of shape s, -oo where its hypothesis fails, so
    a row whose hypothesis never holds cannot decide: the ``sum`` shape's identity
    permutation always holds.  The shared blocks p and q are evaluated once each.
    """
    dim = phi.dim
    checked = np.zeros(3 * len(_PERMUTATIONS), int)      # rows whose hypothesis holds

    def block(p, q, u, v):
        vp, vq = phi(p), phi(q)
        # doubling shape: a <= 2b forces value(a) <= 2 value(b)
        shapes = (("interior", u * (p + q), p, q), ("sum", p + q, p, q),
                  ("doubling", 2.0 * v * q, q, q))
        rows, scales = [], [vp, vq]
        for tag, *triple in shapes:
            vals = (phi(triple[0]), vp if triple[1] is p else vq, vq)
            scales.append(vals[0])
            for j, k, l in _PERMUTATIONS:
                hyp = rowwise(np.logical_and, triple[j] <= triple[k] + triple[l])
                checked[len(rows)] += np.count_nonzero(hyp)
                rows.append((np.where(hyp, vals[j] - vals[k] - vals[l], -math.inf),
                             {"shape": tag, "target": triple[j], "left": triple[k],
                              "right": triple[l], "values": (vals[j], vals[k], vals[l])}))
        return rows, scales

    draws = [quadrant_stream(dim, cfg, 2), quadrant_stream(dim, cfg, 3),
             _uniform(cfg, 303, 0.0, 1.0, dim), _uniform(cfg, 304, 0.0, 1.0, dim)]
    best, peaks = scan(quadrant_rows(dim, cfg), draws, block)
    return judge("quadrant-triangle", best, checked.sum(), cfg.tol.scaled(np.max(peaks)),
                 reading="all permutations with valid hypothesis")


def check_norm_conditions(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> list[ValidationReport]:
    """Positivity, monotonicity, subadditivity, positive homogeneity."""
    return _norm_conditions(phi, cfg, check_definiteness(phi, cfg))


def _norm_conditions(phi: GluingFunction, cfg: SampleConfig,
                     definite: ValidationReport) -> list[ValidationReport]:
    """:func:`check_norm_conditions`; positivity on the quadrant is ``definite``."""
    dim = phi.dim
    n = quadrant_rows(dim, cfg)

    # monotonicity: componentwise q <= p must not raise the value; margin row b pairs lower
    # block b (u p, p, a broadcast zero row, then p with column j zeroed) with p; phi(p) is
    # evaluated once, and one zeroed-column block is held at a time: its row keeps the column
    # index, and the witness q is rebuilt from the kept p row
    zero = np.zeros((1, dim))

    def monotone(p, u):
        vp = phi(p)
        rows = []
        for q in (u * p, p, zero):
            vq = vp if q is p else phi(q)
            rows.append((vq - vp, {"q": q, "p": p, "values": (vq, vp)}))
        for j in range(dim):
            q = p.copy()
            q[:, j] = 0.0
            vq = phi(q)
            rows.append((vq - vp, {"column": j, "p": p, "values": (vq, vp)}))
        return rows, [vp]

    def lowered(fields):
        if "column" not in fields:
            return fields
        q = fields["p"].copy()
        q[:, fields["column"]] = 0.0
        return {"q": q, "p": fields["p"], "values": fields["values"]}

    draws = [quadrant_stream(dim, cfg, 4), _uniform(cfg, 404, 0.0, 1.0, dim)]
    best, (vp_peak,) = scan(n, draws, monotone)
    monotonicity = judge("monotonicity", [(m, lowered(f)) for m, f in best], len(best) * n,
                         cfg.tol.scaled(vp_peak))

    # subadditivity: the axis pairs (e_i, e_j) first, then the sampled pairs
    def subadditive(a, b):
        va, vb, vsum = phi(a), phi(b), phi(a + b)
        return [(vsum - va - vb, {"p": a, "q": b, "values": (vsum, va, vb)})], [va, vb]

    eye, axes = np.eye(dim), np.arange(dim * dim)
    draws = [chain(eye[axes // dim], quadrant_stream(dim, cfg, 5)),
             chain(eye[axes % dim], quadrant_stream(dim, cfg, 6))]
    best, peaks = scan(dim * dim + n, draws, subadditive)
    subadditivity = judge("subadditivity", best, dim * dim + n, cfg.tol.scaled(*peaks))

    # positive homogeneity: sampled scales, then fixed scales on the first rows
    def homogeneous(q, lam):
        scaled, expected = phi(lam[:, None] * q), lam * phi(q)
        diffs = np.abs(scaled - expected)
        tols = cfg.tol.metric * np.maximum(1.0, np.maximum(np.abs(scaled), np.abs(expected)))
        return [(diffs - tols, {"margin": diffs, "lambda": lam, "q": q,
                                "values": (scaled, expected)})], []

    head = quadrant_stream(dim, cfg, 7)(min(n, 16))
    fixed = (0.0, 1e-6, 0.5, 1.0, 2.0, 3.0, 10.0)
    tail = [np.resize(head, (len(fixed) * len(head), dim)), np.repeat(fixed, len(head))]
    draws = [quadrant_stream(dim, cfg, 7), _uniform(cfg, 505, 0.0, 4.0)]
    best, _ = scan(n, draws, homogeneous, tail)
    return [replace(definite, condition="positivity"), monotonicity, subadditivity,
            judge("homogeneity", best, n + len(tail[0]))]


def check_axis_pythagoras(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> ValidationReport:
    """Squared value must split as the sum of squared axis contributions."""
    dim = phi.dim
    ones = np.ones(dim)
    corners = np.array([ones, 0.5 * ones, cfg.radius * ones, np.linspace(1.0, 2.0, dim)])
    draw = _uniform(cfg, 606, 0.0, cfg.radius, dim)

    def positive(k):
        lam = draw(k)
        lam[lam <= 0] = 1e-6
        return lam

    def pythagorean(lam):
        lhs = phi(lam) ** 2
        rhs = np.zeros(len(lam))
        for i in range(dim):
            axis = np.zeros_like(lam)
            axis[:, i] = lam[:, i]
            rhs += phi(axis) ** 2
        diffs = np.abs(lhs - rhs)
        at_ones.append(diffs[0])            # row 0 of the first block is the ones corner
        return [(diffs - cfg.tol.metric * np.maximum(1.0, np.maximum(lhs, rhs)),
                 {"margin": diffs, "lambda": lam, "lhs": lhs, "rhs": rhs})], []

    at_ones = []
    n = len(corners) + cfg.count
    best, _ = scan(n, [chain(corners, positive)], pythagorean)
    return judge("axis-pythagoras", best, n, margin_at_ones=float(at_ones[0]))


def check_strict_convexity(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES, *,
                           norm_reports: list[ValidationReport] | None = None) -> ValidationReport:
    """Midpoints of distinct unit vectors must drop strictly below norm 1.

    Near-parallel pairs are excluded (``SEPARATION`` in the symmetrized
    norm): their midpoints approach norm 1 for every norm, so they carry no
    signal at the fixed absolute threshold.  At dim 1 the rung passes unsampled:
    every norm on R is a multiple of ``|x|``, so strictly convex (and Euclidean).
    Without ``norm_reports`` the norm conditions are sampled first, unless the
    proven class (:attr:`GluingFunction.known_class`) already makes ``phi`` a norm.
    """
    proven = phi.known_class
    if norm_reports is None and not (proven and proven.at_least(GluingClass.NORM_INDUCED)):
        norm_reports = check_norm_conditions(phi, cfg)
    failed = [r.condition for r in norm_reports or () if r.failed]
    if failed:
        return _report("strict-convexity", UNDETERMINED, 0, 0.0, None,
                       reason="norm conditions failed", failed_conditions=failed)

    dim = phi.dim
    if dim == 1:
        return _report("strict-convexity", PASS, 0, 0.0, None, reason="dim 1")
    psi = phi.symmetrized()
    eye = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    corner_x = np.array([r for i, j in pairs for r in (eye[i], eye[i] + eye[j])])
    corner_y = np.array([r for i, j in pairs for r in (eye[j], eye[i] - eye[j])])

    # ties within float noise resolve to the earliest (corner) pair, so that exact
    # witnesses beat sampled ones: the winner is the first midpoint >= max - 1e-12, a
    # prefix-maximum record, so only the records within 1e-12 of the running maximum are
    # kept.  phi refuses a non-finite value, so every midpoint is finite.
    band, admitted = [], 0

    def admissible(x, y):
        nonlocal admitted
        nx, ny = psi(x), psi(y)
        keep = (nx > 1e-12) & (ny > 1e-12)
        xu = x[keep] / nx[keep, None]
        yu = y[keep] / ny[keep, None]
        sep = (psi(xu - yu) >= SEPARATION) & (psi(xu + yu) >= SEPARATION)
        rows = np.flatnonzero(keep)[sep]
        mids = psi((xu[sep] + yu[sep]) / 2.0)
        admitted += len(rows)
        top = np.maximum.accumulate(np.concatenate([[band[-1][0] if band else -math.inf], mids]))
        cut = top[-1] - 1e-12
        records = np.flatnonzero((mids > top[:-1]) & (mids >= cut))
        band[:] = [b for b in band if b[0] >= cut] + [
            (mids[i], x[r] / nx[r], y[r] / ny[r]) for i, r in zip(records, rows[records])]
        return [], []

    draws = [chain(corner_x, signed_stream(dim, cfg, 8)),
             chain(corner_y, signed_stream(dim, cfg, 9))]
    scan(len(corner_x) + cfg.count, draws, admissible)
    if not band:
        return _report("strict-convexity", UNDETERMINED, 0, 0.0, None,
                       reason="no admissible pairs sampled")
    mid, x, y = band[0]
    verdict = PASS if mid < 1.0 - cfg.tol.strict else FAIL
    return _report("strict-convexity", verdict, admitted, float(mid) - 1.0,
                   {"x": x, "y": y, "midpoint_norm": float(mid)},
                   separation=SEPARATION, tau_strict=cfg.tol.strict)


def classify(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> Classification:
    """Run the full ladder and return the highest supported class."""
    definite = check_definiteness(phi, cfg)
    triangle = check_quadrant_triangle(phi, cfg)
    norm = _norm_conditions(phi, cfg, definite)
    strict = check_strict_convexity(phi, cfg, norm_reports=norm)
    pythagoras = check_axis_pythagoras(phi, cfg)
    reports = {r.condition: r for r in [definite, triangle, *norm, strict, pythagoras]}
    # rung k of GluingClass holds on the reports of rungs[:k]: the class is the rung below
    # the first whose reports do not all pass
    rungs = ([definite, triangle], norm, [strict], [pythagoras])
    held = [all(r.passed for r in rung) for rung in rungs] + [False]
    return Classification(list(GluingClass)[held.index(False)], reports)


def scalar_product_weights(phi: GluingFunction, cfg: SampleConfig = DEFAULT_SAMPLES) -> np.ndarray:
    """Axis weights of the induced scalar product.

    Only meaningful for scalar-product class gluings, as the gate
    :meth:`GluingFunction.gluing_class` reads them; the product inner product
    is the weighted sum of the factor inner products with these weights.
    """
    cls = phi.gluing_class(cfg)
    if cls is not GluingClass.SCALAR_PRODUCT_INDUCED:
        raise ValueError(f"gluing classifies as {cls.value}, not scalar-product-induced")
    return phi.axis_values() ** 2


def check_symmetrized_norm_axioms(phi: GluingFunction,
                                  cfg: SampleConfig = DEFAULT_SAMPLES) -> list[ValidationReport]:
    """Norm axioms of the symmetrization on all of R^n (sampled)."""
    psi = phi.symmetrized()

    def axioms(x, y, lam):
        vx, vy = psi(x), psi(y)
        expected = np.abs(lam) * vx
        diffs = np.abs(psi(lam[:, None] * x) - expected)
        return [(diffs, {"lambda": lam, "x": x}),
                (psi(x + y) - vx - vy, {"x": x, "y": y})], [expected, vx, vy]

    draws = [signed_stream(phi.dim, cfg, 21), signed_stream(phi.dim, cfg, 22),
             _uniform(cfg, 707, -3.0, 3.0)]
    (homogeneity, subadditivity), peaks = scan(cfg.count, draws, axioms)
    # psi(x) = phi(|x|), so psi is positive off the origin exactly when phi is definite
    return [replace(check_definiteness(phi, cfg), condition="psi-positivity"),
            judge("psi-homogeneity", [homogeneity], cfg.count, cfg.tol.scaled(peaks[0])),
            judge("psi-subadditivity", [subadditivity], cfg.count, cfg.tol.scaled(*peaks[1:]))]
