"""Model compact sets, their extremal functions, and convergence-rate tools.

Supported compacts are the interval [-1, 1] in the plane, the closed unit
disk, and finite products of these.  For each the (Green) extremal function
V_K has a closed form: log|z + sqrt(z^2 - 1)| on the interval model,
max(0, log|z|) on the disk, and the pointwise maximum over factors on
products.  The level region K_R is {V_K < ln R}; its boundary parametrizes
where geometric convergence rates are read off.
"""
from __future__ import annotations

import math

import numpy as np

from .config import read_spec
from .points import as_rows, cartesian
from .polynomials import Polynomial, _grid_sup_errors
from .zoo import orthogonal_projector

# errors at most this fraction of the largest are taken as converged to roundoff
_ROUNDOFF_FLOOR = 1e-13
# points bws_check samples on the compact and on the level-set boundary
_BWS_SAMPLES = 1024


class CompactModel:
    """One of: interval [-1,1], closed unit disk, or a product of models."""

    def __init__(self, kind: str, factors=None):
        if kind in ("interval", "disk"):
            self.kind = kind
            self.factors = None
        elif kind == "product":
            if not factors or len(factors) < 2:
                raise ValueError("product model needs at least two factors")
            self.kind = "product"
            self.factors = [CompactModel(f) if isinstance(f, str) else f
                            for f in factors]
        else:
            raise ValueError(f"unsupported compact model {kind!r}")

    @property
    def nvars(self) -> int:
        if self.kind == "product":
            return sum(f.nvars for f in self.factors)
        return 1

    # -- extremal function ----------------------------------------------------

    def extremal_value(self, z) -> np.ndarray:
        """V_K at each point (rows of z); nonnegative, zero on K.

        A scalar, or one point of ``nvars`` coordinates for a model in
        several variables, gives a float.
        """
        pts = np.asarray(z, dtype=np.complex128)
        squeeze = pts.ndim == 0 or (pts.ndim == 1 and self.nvars > 1)
        out = self._extremal(as_rows(pts.reshape(1, -1) if squeeze else pts, self.nvars))
        return float(out[0]) if squeeze else out

    def _extremal(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "disk":
            return np.maximum(0.0, np.log(np.maximum(np.abs(pts[:, 0]), 1e-300)))
        if self.kind == "interval":
            u = pts[:, 0]
            s = np.sqrt(u * u - 1.0)
            mod = np.maximum(np.abs(u + s), np.abs(u - s))
            return np.maximum(0.0, np.log(mod))
        vals = np.zeros(pts.shape[0])
        col = 0
        for f in self.factors:
            vals = np.maximum(vals, f._extremal(pts[:, col:col + f.nvars]))
            col += f.nvars
        return vals

    # -- sampling -------------------------------------------------------------

    def sample_blocks(self, count: int) -> list:
        """Deterministic points of K as one block per leaf, in variable order.

        A leaf model is one block of ``count`` points.  In a product (nested
        products included) every leaf takes the same number r, the least
        with ``r ** nvars >= count`` (at least 2), so the Cartesian product
        of the blocks is never cut and every leaf's samples keep their
        endpoints.
        """
        if self.kind != "product":
            return [self._leaf_samples(count)]
        r = _resolution(count, self.nvars)
        return [leaf._leaf_samples(r) for leaf in self._leaves()]

    def sample_points(self, count: int) -> np.ndarray:
        """Deterministic points of K dense enough for polynomial sup norms.

        Interval: Chebyshev-distributed abscissas (endpoints included).
        Disk: the boundary circle, where the maximum principle puts the sup.
        Products: the Cartesian product of ``sample_blocks``.
        """
        return cartesian(*self.sample_blocks(count))

    def _leaf_samples(self, count: int) -> np.ndarray:
        if self.kind == "interval":
            theta = np.linspace(0.0, np.pi, count)
            return np.cos(theta).astype(np.complex128).reshape(-1, 1)
        theta = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.exp(1j * theta).reshape(-1, 1)

    def _leaves(self) -> list:
        if self.kind != "product":
            return [self]
        return [leaf for f in self.factors for leaf in f._leaves()]

    def level_set_boundary(self, R: float, count: int) -> np.ndarray:
        """Points with V_K = ln R exactly (up to roundoff); requires R > 1.

        Interval: the Joukowski image (w + 1/w)/2 of the circle |w| = R, an
        ellipse with semi-axes (R + 1/R)/2 and (R - 1/R)/2.  Disk: the circle
        of radius R.  Products: the Cartesian product of every leaf's level
        points, r per leaf as in ``sample_blocks``, whose maximum is ln R by
        construction.
        """
        if R <= 1:
            raise ValueError("level sets are defined for R > 1")
        if self.kind == "product":
            r = _resolution(count, self.nvars)
            return cartesian(*(leaf.level_set_boundary(R, r) for leaf in self._leaves()))
        if self.kind == "interval":
            w = R * np.exp(1j * np.linspace(0.0, 2 * np.pi, count, endpoint=False))
            return (0.5 * (w + 1.0 / w)).reshape(-1, 1)
        theta = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return (R * np.exp(1j * theta)).reshape(-1, 1)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "product":
            return {"kind": "product", "factors": [f.to_json() for f in self.factors]}
        return {"kind": self.kind}

    def __repr__(self):
        if self.kind == "product":
            return "CompactModel(product: " + ", ".join(f.kind for f in self.factors) + ")"
        return f"CompactModel({self.kind})"


def _resolution(count: int, nvars: int) -> int:
    """The least r >= 2 with ``r ** nvars >= count``, in integers."""
    r = max(2, round(count ** (1.0 / nvars)))
    while r > 2 and (r - 1) ** nvars >= count:
        r -= 1
    while r ** nvars < count:
        r += 1
    return r


def parse_compact(obj) -> CompactModel:
    if isinstance(obj, str):
        return CompactModel(obj)
    cfg = read_spec("compact", obj)
    if cfg["kind"] == "product":
        return CompactModel("product", [parse_compact(f) for f in cfg["factors"]])
    return CompactModel(cfg["kind"])


def bws_check(p: Polynomial, model: CompactModel, R: float) -> float:
    """Sampled sup of p on the level set over R^deg times its sup on K.

    The underlying inequality bounds |p| on {V_K <= ln R} by R^(deg p) times
    the sup on K, so the returned ratio is at most 1 up to sampling slack.
    The degree used is the effective degree (trailing zero coefficient
    blocks do not count), which keeps the equality case z^d exact.
    """
    deg = p.effective_degree()
    if deg < 0:
        return 0.0
    on_k = float(np.max(np.abs(p.eval_many(model.sample_points(_BWS_SAMPLES)))))
    on_level = float(np.max(np.abs(p.eval_many(model.level_set_boundary(R, _BWS_SAMPLES)))))
    return on_level / (R**deg * on_k)


def above_floor(errors) -> np.ndarray:
    """Indices of the finite errors above ``_ROUNDOFF_FLOOR`` times max(1, largest error)."""
    errors = np.asarray(errors, dtype=float)
    cut = _ROUNDOFF_FLOOR * max(1.0, float(np.max(errors, initial=0.0)))
    return np.flatnonzero((errors > cut) & np.isfinite(errors))


def fit_decay_rate(degrees, errors):
    """Geometric decay rate of errors over degrees, floor-aware.

    Values at or below ``_ROUNDOFF_FLOOR`` (relative to the largest error) are
    treated as converged-to-roundoff and excluded; the fit uses the tail
    half of what remains, where asymptotic behavior lives.  Returns
    (rate, slope_stderr, used_indices); rate is per unit degree, so
    errors ~ C * rate^degree.  With fewer than three usable points the
    rate is 0.0 and the caller should treat the decay as off-scale.
    """
    degrees = np.asarray(degrees, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = above_floor(errors)
    if keep.size < 3:
        return 0.0, 0.0, keep
    tail = keep[keep.size // 2:]
    if tail.size < 3:
        tail = keep[-3:]
    x, y = degrees[tail], np.log(errors[tail])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = float(np.sum((x - x.mean()) ** 2))
    dof = max(1, x.size - 2)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / denom)) if denom > 0 else 0.0
    return float(np.exp(slope)), stderr, tail


class RhoEstimate:
    """Result of fitting the geometric convergence rate of projections."""

    def __init__(self, degrees, errors, rho, slope_stderr, floor_hit):
        self.degrees = list(degrees)
        self.errors = list(errors)
        self.rho = rho
        self.slope_stderr = slope_stderr
        self.floor_hit = floor_hit

    def __repr__(self):
        return f"RhoEstimate(rho={self.rho}, degrees=0..{self.degrees[-1]})"


def rho_estimate(f, model: CompactModel, dmax: int, measure, grid: int = 256) -> RhoEstimate:
    """Convergence radius parameter from orthogonal-projection errors.

    The degree-d orthogonal projections of f are the truncations of one
    degree-dmax orthogonal projector (one Gram-Schmidt pass, one right-hand
    side).  Their sup errors on the sampled compact are taken on its blocks,
    f by ``TestFunction.grid_values`` and the projections by
    ``polynomials._grid_sup_errors`` (float64 rows where both are real, as
    in a sweep's report), and fit as log error against degree over the tail
    half.  Errors at or below the roundoff floor (``above_floor``) are
    excluded; with fewer than five degrees above it (f is a polynomial, say)
    the estimate is infinity.
    """
    blocks = model.sample_blocks(grid)
    target = f.grid_values(blocks)
    truncations = orthogonal_projector(measure, dmax).truncations(f)
    errors = _grid_sup_errors(truncations, blocks, target)
    degrees = list(range(dmax + 1))

    clean = above_floor(errors).size
    floor_hit = clean < len(errors)  # some degrees converged to roundoff
    if clean >= 5:
        rate, stderr, _ = fit_decay_rate(degrees, errors)
        if rate > 0.0:
            return RhoEstimate(degrees, errors, 1.0 / rate, stderr, floor_hit)
    # too few degrees above the floor to fit: a polynomial or entire input
    # when some degree reached it, otherwise too short a sweep
    return RhoEstimate(degrees, errors, math.inf, 0.0, floor_hit)
