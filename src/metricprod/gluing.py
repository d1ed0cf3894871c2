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
from dataclasses import dataclass

import numpy as np

from .reports import FAIL, PASS, UNDETERMINED, ValidationReport, worst
from .sampling import (DEFAULT_SAMPLES, ZERO_FLOOR, SampleConfig, quadrant_samples, rng_stream,
                       signed_samples)

#: p of the norm-type kinds: ``sum``, ``max`` and ``weighted-euclidean`` are weighted-lp
#: gluings at p = 1, oo and 2 with their own label and descriptor (and unit weights).
_LP_KINDS = {"weighted-lp": None, "weighted-euclidean": 2.0, "sum": 1.0, "max": math.inf}
_UNWEIGHTED = ("sum", "max")
_KINDS = (*_LP_KINDS, "two-valued", "coordinate-power", "custom")
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
BLOCK_ROWS = 8192


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
    Below 8 columns the terms ``w_j a_j^p`` are folded in column by column, as
    :func:`rowwise` folds, so no weighted copy of ``a`` is built.
    """
    power = p not in (1.0, math.inf)
    if p != math.inf and a.shape[-1] >= 8:
        terms = a**p if power else a
        total = rowwise(np.add, terms if weights is None else weights * terms)
        return total ** (1.0 / p) if power else total

    def term(j):
        t = a[..., j] ** p if power else a[..., j]
        return t if weights is None else weights[j] * t

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


class GluingFunction:
    """Evaluator for a distance-combining function on the quadrant.

    Instances are immutable; classification results are memoized per
    sampling configuration (tolerances included).
    """

    def __init__(self, dim, kind, p=None, weights=None, func=None,
                 exponent=None, coordinate=0, label=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if kind not in _KINDS:
            raise ValueError(f"unknown gluing kind {kind!r}")
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
            self.weights, self._norm_weights = pnorm_weights(
                self.dim, self.p, None if kind in _UNWEIGHTED else weights)
        elif kind == "coordinate-power":
            if self.exponent is None:
                raise ValueError("coordinate-power needs an exponent")
            if not 0 <= self.coordinate < self.dim:
                raise ValueError("coordinate out of range")
        elif kind == "custom":
            if not callable(func):
                raise ValueError("custom gluing needs a callable evaluator")
        self.label = label or self._default_label()

    # -- constructors --------------------------------------------------------

    @classmethod
    def lp(cls, dim, p, weights=None):
        return cls(dim, "weighted-euclidean" if p == 2 else "weighted-lp", p=p, weights=weights)

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

    def classification(self, cfg: SampleConfig | None = None) -> "Classification":
        """Memoized :func:`classify` for this instance."""
        cfg = cfg or DEFAULT_SAMPLES
        if cfg not in self._class_cache:
            self._class_cache[cfg] = classify(self, cfg)
        return self._class_cache[cfg]

    # -- misc ----------------------------------------------------------------

    def _default_label(self):
        if self.weights is not None and self.kind not in _UNWEIGHTED:
            w = ",".join(f"{v:g}" for v in self.weights)
            return f"{self.kind}(p={self.p:g}, w=[{w}])"
        if self.kind == "coordinate-power":
            return f"coordinate-power(q[{self.coordinate}]^{self.exponent:g})"
        return f"{self.kind}(n={self.dim})"

    def descriptor(self) -> dict:
        d = {"type": self.kind, "dim": self.dim}
        if self.weights is not None and self.kind not in _UNWEIGHTED:
            d["weights"] = [float(w) for w in self.weights]
        if self.kind == "weighted-lp":
            d["p"] = "inf" if self.p == math.inf else self.p
        if self.kind == "coordinate-power":
            d["exponent"] = self.exponent
            d["coordinate"] = self.coordinate
        if self.kind == "custom":
            d["label"] = self.label
        return d

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


def check_definiteness(phi: GluingFunction, cfg: SampleConfig | None = None) -> ValidationReport:
    """Zero exactly at the origin, positive elsewhere (sampled)."""
    cfg = cfg or DEFAULT_SAMPLES
    q = quadrant_samples(phi.dim, cfg, stream=1)
    vals = np.asarray(phi(q), float)
    at_zero = float(phi(np.zeros(phi.dim)))
    nonzero = rowwise(np.maximum, q) > 0
    min_nz = float(vals[nonzero].min()) if nonzero.any() else math.inf
    bad_zero = at_zero > ZERO_FLOOR
    bad_nz = min_nz <= ZERO_FLOOR
    if bad_zero and not bad_nz:
        witness = {"q": np.zeros(phi.dim), "value": at_zero}
    else:
        witness = {"q": q[nonzero][np.argmin(vals[nonzero])], "value": min_nz}
    margin = max(at_zero, ZERO_FLOOR - min_nz)
    verdict = FAIL if (bad_zero or bad_nz) else PASS
    return _report("definiteness", verdict, len(q), margin, witness,
                   value_at_zero=at_zero, min_nonzero_value=min_nz)


def _triangle_shapes(phi: GluingFunction, cfg: SampleConfig):
    """Sample triples for the quadrant triangle condition, with their values.

    Yields (tag, (a, b, c), (phi(a), phi(b), phi(c))) where the
    hypothesis-bearing triple is (a, b, c); every permutation whose
    componentwise hypothesis holds is checked (the strongest reading of the
    condition).  The shared blocks p and q are evaluated once each.
    """
    dim = phi.dim
    p = quadrant_samples(dim, cfg, stream=2)
    q = quadrant_samples(dim, cfg, stream=3)
    n = min(len(p), len(q))
    p, q = p[:n], q[:n]
    vp, vq = np.asarray(phi(p), float), np.asarray(phi(q), float)
    u = rng_stream(cfg.seed, 303).uniform(0.0, 1.0, (n, dim))
    v = rng_stream(cfg.seed, 304).uniform(0.0, 1.0, (n, dim))
    # doubling shape: a <= 2b forces value(a) <= 2 value(b)
    for tag, a, b, c, vb, vc in (("interior", u * (p + q), p, q, vp, vq),
                                 ("sum", p + q, p, q, vp, vq),
                                 ("doubling", 2.0 * v * q, q, q, vq, vq)):
        yield tag, (a, b, c), (np.asarray(phi(a), float), vb, vc)


def check_quadrant_triangle(phi: GluingFunction, cfg: SampleConfig | None = None) -> ValidationReport:
    """Generalized triangle condition over sampled quadrant triples."""
    cfg = cfg or DEFAULT_SAMPLES
    blocks = []       # (shape, triple, values, (j, k, l)), one per margin block
    margins = []
    checked = 0
    scale = 1.0
    for tag, triple, vals in _triangle_shapes(phi, cfg):
        scale = max(scale, *(float(v.max(initial=0.0)) for v in vals))
        for j, k, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            hyp = rowwise(np.logical_and, triple[j] <= triple[k] + triple[l])
            if not hyp.any():
                continue
            checked += int(hyp.sum())
            blocks.append((tag, triple, vals, (j, k, l)))
            margins.append(np.where(hyp, vals[j] - vals[k] - vals[l], -math.inf))
    margins = np.vstack(margins)
    worst_at, verdict = worst(margins, cfg.tol.scaled(scale))
    block, i = divmod(worst_at, margins.shape[1])
    tag, triple, vals, (j, k, l) = blocks[block]
    witness = {"shape": tag, "target": triple[j][i], "left": triple[k][i],
               "right": triple[l][i], "values": [float(vals[n][i]) for n in (j, k, l)]}
    return _report("quadrant-triangle", verdict, checked, margins.flat[worst_at], witness,
                   reading="all permutations with valid hypothesis")


def _relabel(report: ValidationReport, condition: str) -> ValidationReport:
    return _report(condition, report.verdict, report.samples, report.margin,
                   report.witness, **report.details)


def check_norm_conditions(phi: GluingFunction, cfg: SampleConfig | None = None) -> list[ValidationReport]:
    """Positivity, monotonicity, subadditivity, positive homogeneity."""
    cfg = cfg or DEFAULT_SAMPLES
    return _norm_conditions(phi, cfg, check_definiteness(phi, cfg))


def _norm_conditions(phi: GluingFunction, cfg: SampleConfig,
                     definite: ValidationReport) -> list[ValidationReport]:
    """:func:`check_norm_conditions`; positivity on the quadrant is ``definite``."""
    dim = phi.dim
    reports = [_relabel(definite, "positivity")]

    # monotonicity: componentwise q <= p must not raise the value; row i pairs
    # block i // n of the q blocks with p[i % n], and phi(p) is evaluated once
    p = quadrant_samples(dim, cfg, stream=4)
    n = len(p)
    u = rng_stream(cfg.seed, 404).uniform(0.0, 1.0, p.shape)
    lower_blocks = [u * p, p, np.zeros_like(p)]
    for j in range(dim):
        reduced = p.copy()
        reduced[:, j] = 0.0
        lower_blocks.append(reduced)
    vp = np.asarray(phi(p), float)
    vrest = np.asarray(phi(np.vstack([lower_blocks[0], *lower_blocks[2:]])), float)
    vlo = np.concatenate([vrest[:n], vp, vrest[n:]])
    vhi = np.tile(vp, len(lower_blocks))
    margins = vlo - vhi
    i, verdict = worst(margins, cfg.tol.scaled(vhi.max(initial=0.0)))
    reports.append(_report("monotonicity", verdict, len(vlo), float(margins[i]),
                           {"q": lower_blocks[i // n][i % n], "p": p[i % n],
                            "values": [float(vlo[i]), float(vhi[i])]}))

    # subadditivity
    a = quadrant_samples(dim, cfg, stream=5)
    b = quadrant_samples(dim, cfg, stream=6)
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    eye = np.eye(dim)
    extra_a = np.repeat(eye, dim, axis=0)
    extra_b = np.tile(eye, (dim, 1))
    a = np.vstack([extra_a, a])
    b = np.vstack([extra_b, b])
    va, vb = np.asarray(phi(a), float), np.asarray(phi(b), float)
    vsum = np.asarray(phi(a + b), float)
    margins = vsum - va - vb
    i, verdict = worst(margins, cfg.tol.scaled(va.max(initial=0.0), vb.max(initial=0.0)))
    reports.append(_report("subadditivity", verdict, len(a), float(margins[i]),
                           {"p": a[i], "q": b[i], "values": [float(vsum[i]), float(va[i]), float(vb[i])]}))

    # positive homogeneity
    q = quadrant_samples(dim, cfg, stream=7)
    corner_rows = min(len(q), 16)
    lam_rand = rng_stream(cfg.seed, 505).uniform(0.0, 4.0, len(q))
    lam_blocks = [lam_rand]
    q_blocks = [q]
    for lam0 in (0.0, 1e-6, 0.5, 1.0, 2.0, 3.0, 10.0):
        lam_blocks.append(np.full(corner_rows, lam0))
        q_blocks.append(q[:corner_rows])
    lam = np.concatenate(lam_blocks)
    qq = np.vstack(q_blocks)
    scaled = np.asarray(phi(lam[:, None] * qq), float)
    expected = lam * np.asarray(phi(qq), float)
    diffs = np.abs(scaled - expected)
    tols = cfg.tol.metric * np.maximum(1.0, np.maximum(np.abs(scaled), np.abs(expected)))
    i, verdict = worst(diffs - tols)
    reports.append(_report("homogeneity", verdict, len(qq), float(diffs[i]),
                           {"lambda": float(lam[i]), "q": qq[i],
                            "values": [float(scaled[i]), float(expected[i])]}))
    return reports


def check_axis_pythagoras(phi: GluingFunction, cfg: SampleConfig | None = None) -> ValidationReport:
    """Squared value must split as the sum of squared axis contributions."""
    cfg = cfg or DEFAULT_SAMPLES
    dim = phi.dim
    rng = rng_stream(cfg.seed, 606)
    lam = rng.uniform(0.0, cfg.radius, (cfg.count, dim))
    lam[lam <= 0] = 1e-6
    ones = np.ones(dim)
    corners = np.vstack([ones, 0.5 * ones, cfg.radius * ones,
                         np.linspace(1.0, 2.0, dim)[None, :]])
    lam = np.vstack([corners, lam])
    lhs = np.asarray(phi(lam), float) ** 2
    rhs = np.zeros(len(lam))
    for i in range(dim):
        axis = np.zeros_like(lam)
        axis[:, i] = lam[:, i]
        rhs += np.asarray(phi(axis), float) ** 2
    diffs = np.abs(lhs - rhs)
    tols = cfg.tol.metric * np.maximum(1.0, np.maximum(lhs, rhs))
    i, verdict = worst(diffs - tols)
    margin_at_ones = float(abs(lhs[0] - rhs[0]))
    return _report("axis-pythagoras", verdict, len(lam), float(diffs[i]),
                   {"lambda": lam[i], "lhs": float(lhs[i]), "rhs": float(rhs[i])},
                   margin_at_ones=margin_at_ones)


def check_strict_convexity(phi: GluingFunction, cfg: SampleConfig | None = None, *,
                           norm_reports: list[ValidationReport] | None = None) -> ValidationReport:
    """Midpoints of distinct unit vectors must drop strictly below norm 1.

    Near-parallel pairs are excluded (``SEPARATION`` in the symmetrized
    norm): their midpoints approach norm 1 for every norm, so they carry no
    signal at the fixed absolute threshold.  At dim 1 the rung passes unsampled:
    every norm on R is a multiple of ``|x|``, so strictly convex (and Euclidean).
    """
    cfg = cfg or DEFAULT_SAMPLES
    if norm_reports is None:
        norm_reports = check_norm_conditions(phi, cfg)
    failed = [r.condition for r in norm_reports if r.failed]
    if failed:
        return _report("strict-convexity", UNDETERMINED, 0, 0.0, None,
                       reason="norm conditions failed", failed_conditions=failed)

    dim = phi.dim
    if dim == 1:
        return _report("strict-convexity", PASS, 0, 0.0, None, reason="dim 1")
    psi = phi.symmetrized()
    eye = np.eye(dim)
    corner_x, corner_y = [], []
    for i in range(dim):
        for j in range(i + 1, dim):
            corner_x += [eye[i], eye[i] + eye[j]]
            corner_y += [eye[j], eye[i] - eye[j]]
    x = signed_samples(dim, cfg, stream=8)
    y = signed_samples(dim, cfg, stream=9)
    if corner_x:
        x = np.vstack([np.array(corner_x), x])
        y = np.vstack([np.array(corner_y), y])
    nx = np.asarray(psi(x), float)
    ny = np.asarray(psi(y), float)
    keep = (nx > 1e-12) & (ny > 1e-12)
    xu = x[keep] / nx[keep, None]
    yu = y[keep] / ny[keep, None]
    sep = (np.asarray(psi(xu - yu), float) >= SEPARATION) & \
          (np.asarray(psi(xu + yu), float) >= SEPARATION)
    xu, yu = xu[sep], yu[sep]
    if len(xu) == 0:
        return _report("strict-convexity", UNDETERMINED, 0, 0.0, None,
                       reason="no admissible pairs sampled")
    mids = np.asarray(psi((xu + yu) / 2.0), float)
    # ties within float noise resolve to the earliest (corner) pair so that
    # exact witnesses beat sampled ones; a NaN midpoint is picked first
    i = int(np.argmax((mids >= mids.max() - 1e-12) | np.isnan(mids)))
    margin = float(mids[i]) - 1.0
    verdict = PASS if mids[i] < 1.0 - cfg.tol.strict else FAIL
    witness = {"x": xu[i], "y": yu[i], "midpoint_norm": float(mids[i])}
    return _report("strict-convexity", verdict, len(xu), margin, witness,
                   separation=SEPARATION, tau_strict=cfg.tol.strict)


def classify(phi: GluingFunction, cfg: SampleConfig | None = None) -> Classification:
    """Run the full ladder and return the highest supported class."""
    cfg = cfg or DEFAULT_SAMPLES
    definite = check_definiteness(phi, cfg)
    triangle = check_quadrant_triangle(phi, cfg)
    norm = _norm_conditions(phi, cfg, definite)
    strict = check_strict_convexity(phi, cfg, norm_reports=norm)
    pythagoras = check_axis_pythagoras(phi, cfg)
    reports = {r.condition: r for r in [definite, triangle, *norm, strict, pythagoras]}
    if definite.failed or triangle.failed:
        cls = GluingClass.NOT_A_METRIC_PRODUCT
    elif any(r.failed for r in norm):
        cls = GluingClass.METRIC_COMPATIBLE
    elif not strict.passed:
        cls = GluingClass.NORM_INDUCED
    elif pythagoras.failed:
        cls = GluingClass.STRICTLY_CONVEX_NORM
    else:
        cls = GluingClass.SCALAR_PRODUCT_INDUCED
    return Classification(cls, reports)


def scalar_product_weights(phi: GluingFunction, cfg: SampleConfig | None = None) -> np.ndarray:
    """Axis weights of the induced scalar product.

    Only meaningful for scalar-product class gluings; the product inner
    product is the weighted sum of the factor inner products with these
    weights.
    """
    cls = phi.classification(cfg).gluing_class
    if cls is not GluingClass.SCALAR_PRODUCT_INDUCED:
        raise ValueError(f"gluing classifies as {cls.value}, not scalar-product-induced")
    return phi.axis_values() ** 2


def check_symmetrized_norm_axioms(phi: GluingFunction, cfg: SampleConfig | None = None) -> list[ValidationReport]:
    """Norm axioms of the symmetrization on all of R^n (sampled)."""
    cfg = cfg or DEFAULT_SAMPLES
    psi = phi.symmetrized()
    x = signed_samples(phi.dim, cfg, stream=21)
    y = signed_samples(phi.dim, cfg, stream=22)
    vx = np.asarray(psi(x), float)
    vy = np.asarray(psi(y), float)
    # psi(x) = phi(|x|), so psi is positive off the origin exactly when phi
    # is definite
    reports = [_relabel(check_definiteness(phi, cfg), "psi-positivity")]

    lam = rng_stream(cfg.seed, 707).uniform(-3.0, 3.0, len(x))
    scaled = np.asarray(psi(lam[:, None] * x), float)
    expected = np.abs(lam) * vx
    diffs = np.abs(scaled - expected)
    i, verdict = worst(diffs, cfg.tol.scaled(float(expected.max(initial=0.0))))
    reports.append(_report("psi-homogeneity", verdict,
                           len(x), float(diffs[i]),
                           {"lambda": float(lam[i]), "x": x[i]}))

    vsum = np.asarray(psi(x + y), float)
    margins = vsum - vx - vy
    i, verdict = worst(margins, cfg.tol.scaled(float(vx.max(initial=0.0)),
                                               float(vy.max(initial=0.0))))
    reports.append(_report("psi-subadditivity", verdict,
                           len(x), float(margins[i]), {"x": x[i], "y": y[i]}))
    return reports
