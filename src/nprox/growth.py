"""Growth scales of entire functions: norms, monomial extrema, densities.

The quantities here feed the entire-function convergence bounds: delta(alpha)
is the maximum modulus of z^alpha on a norm's unit ball, growth_norm_monomial
weights it by the extremal radius factor for order-omega growth, and the
coefficient bound turns a sampled maximum modulus into a per-coefficient
inequality.  Supported norms are the usual l1/l2/linf plus the two ways of
combining a norm on each variable group: a weighted sum, and a weighted sum
of omega-th powers re-rooted (the natural norm when measuring order-omega
growth on a product space).  All are poly-circular: membership of the unit
ball depends only on coordinate moduli, which is what makes the closed forms
below exact.
"""
from __future__ import annotations

import math

import numpy as np

from .config import read_spec
from .points import as_rows
from .polynomials import Polynomial

# log-spaced radii at which omega_density counts the sequence
_DENSITY_GRID = 128


def _xlogx(k: float) -> float:
    return 0.0 if k == 0 else k * math.log(k)


class Norm:
    """Base interface: value on points, delta on multi-indices."""

    nvars: int

    def value(self, z) -> np.ndarray:
        raise NotImplementedError

    def delta(self, alpha) -> float:
        """max |z^alpha| over the unit ball of this norm."""
        raise NotImplementedError

    def delta_point(self, alpha) -> np.ndarray:
        """A point of the unit sphere where |z^alpha| attains delta(alpha)."""
        raise NotImplementedError

    def sphere_points(self, count: int, rng) -> np.ndarray:
        """Random points with norm exactly 1 (normalized gaussian directions)."""
        u = rng.standard_normal((count, self.nvars)) + 1j * rng.standard_normal(
            (count, self.nvars)
        )
        return u / self.value(u)[:, None]

    def to_json(self) -> dict:
        raise NotImplementedError


class LpNorm(Norm):
    def __init__(self, p, nvars: int):
        if p not in (1, 2, math.inf, "inf"):
            raise ValueError("supported exponents: 1, 2, inf")
        self.p = math.inf if p == "inf" else p
        self.nvars = int(nvars)

    def value(self, z):
        pts = as_rows(z, self.nvars)
        if self.p == math.inf:
            return np.max(np.abs(pts), axis=1)
        if self.p == 1:
            return np.sum(np.abs(pts), axis=1)
        return np.sqrt(np.sum(np.abs(pts) ** 2, axis=1))

    def delta(self, alpha) -> float:
        alpha = [int(a) for a in alpha]
        total = sum(alpha)
        if self.p == math.inf or total == 0:
            return 1.0
        # maximize prod r_i^(a_i) with sum r_i^p = 1: log-concave, the
        # stationary point r_i^p = a_i/|a| is the maximum
        logval = sum(_xlogx(a) for a in alpha) - _xlogx(total)
        return math.exp(logval / self.p)

    def delta_point(self, alpha) -> np.ndarray:
        alpha = np.asarray([int(a) for a in alpha], dtype=float)
        total = alpha.sum()
        if self.p == math.inf:
            return np.ones(self.nvars)
        if total == 0:
            x = np.ones(self.nvars)
            return x / self.value(x)[0]
        return (alpha / total) ** (1.0 / self.p)

    def to_json(self):
        tag = {1: "l1", 2: "l2", math.inf: "linf"}[self.p]
        return {"kind": tag, "nvars": self.nvars}


class CombinedNorm(Norm):
    """Two variable groups combined by weighted sum, plain or power-rooted.

    Plain (omega absent): N(z1, z2) = a1 N1(z1) + a2 N2(z2).
    Powered: N = (a1 N1^omega + a2 N2^omega)^(1/omega) with omega >= 1.
    The delta closed form splits alpha across the groups, with the mass
    ratio factor k1^k1 k2^k2 / k^k entering at power 1 (plain) or 1/omega.
    """

    def __init__(self, left: Norm, right: Norm, weights=(1.0, 1.0),
                 omega: float | None = None):
        if omega is not None and omega < 1:
            raise ValueError("power combination needs omega >= 1 to be a norm")
        if min(weights) <= 0:
            raise ValueError("combination weights must be positive")
        self.left = left
        self.right = right
        self.weights = (float(weights[0]), float(weights[1]))
        self.omega = None if omega is None else float(omega)
        self.nvars = left.nvars + right.nvars

    def value(self, z):
        pts = as_rows(z, self.nvars)
        v1 = self.left.value(pts[:, : self.left.nvars])
        v2 = self.right.value(pts[:, self.left.nvars:])
        a1, a2 = self.weights
        if self.omega is None:
            return a1 * v1 + a2 * v2
        w = self.omega
        return (a1 * v1**w + a2 * v2**w) ** (1.0 / w)

    def delta(self, alpha) -> float:
        alpha = [int(a) for a in alpha]
        a1, a2 = self.weights
        al1, al2 = alpha[: self.left.nvars], alpha[self.left.nvars:]
        k1, k2 = sum(al1), sum(al2)
        k = k1 + k2
        logsplit = (
            _xlogx(k1) + _xlogx(k2) - _xlogx(k)
            - k1 * math.log(a1) - k2 * math.log(a2)
        )
        if self.omega is not None:
            logsplit /= self.omega
        return math.exp(logsplit) * self.left.delta(al1) * self.right.delta(al2)

    def delta_point(self, alpha) -> np.ndarray:
        alpha = [int(a) for a in alpha]
        a1, a2 = self.weights
        al1, al2 = alpha[: self.left.nvars], alpha[self.left.nvars:]
        k1, k2 = sum(al1), sum(al2)
        k = k1 + k2
        w = 1.0 if self.omega is None else self.omega
        if k == 0:
            t1 = t2 = (a1 + a2) ** (-1.0 / w)
        else:
            t1 = (k1 / (k * a1)) ** (1.0 / w)
            t2 = (k2 / (k * a2)) ** (1.0 / w)
        return np.concatenate([t1 * self.left.delta_point(al1),
                               t2 * self.right.delta_point(al2)])

    def to_json(self):
        out = {
            "kind": "combined",
            "weights": list(self.weights),
            "factors": [self.left.to_json(), self.right.to_json()],
        }
        if self.omega is not None:
            out["omega"] = self.omega
        return out


def parse_norm(obj: dict) -> Norm:
    cfg = read_spec("norm", obj)
    if cfg["kind"] == "combined":
        if len(cfg["factors"]) != 2:
            raise ValueError("a combined norm takes exactly two factors")
        left, right = (parse_norm(f) for f in cfg["factors"])
        return CombinedNorm(left, right, cfg["weights"], omega=cfg["omega"])
    return LpNorm({"l1": 1, "l2": 2, "linf": math.inf}[cfg["kind"]], cfg["nvars"])


class GrowthParams:
    """Order omega, scale A, and the norm the growth is measured in."""

    def __init__(self, omega: float, A: float, norm: Norm):
        if omega <= 0 or A <= 0:
            raise ValueError("omega and A must be positive")
        self.omega = float(omega)
        self.A = float(A)
        self.norm = norm


def growth_norm_monomial(alpha, params: GrowthParams) -> float:
    """Extremal weighted sup of z^alpha against exp(-A r^omega) growth.

    This is sup over r of delta(alpha) r^|alpha| exp(-A r^omega), attained
    at r = (|alpha| / (omega A))^(1/omega); for alpha = 0 the sup is 1.
    """
    k = int(sum(alpha))
    if k == 0:
        return 1.0
    w, A = params.omega, params.A
    return params.norm.delta(alpha) * (k / (math.e * w * A)) ** (k / w)


def mn_radius_max(f, norm: Norm, t: float, directions: int | None = None,
                  seed: int = 0) -> float:
    """Sampled maximum modulus of f on the norm-t sphere."""
    if directions is None:
        directions = 512 * norm.nvars
    rng = np.random.default_rng(seed)
    pts = t * norm.sphere_points(directions, rng)
    if isinstance(f, Polynomial):
        vals = f.eval_many(pts)
    else:
        vals = f.values(pts)
    return float(np.max(np.abs(vals)))


def power_series_coeff_bound(f: Polynomial, alpha, norm: Norm, t: float,
                             directions: int | None = None, seed: int = 0):
    """Coefficient bound t^-|alpha| M_N(f, t) / delta(alpha), and its check.

    Returns (bound, holds) where holds reports whether the actual
    coefficient of f at alpha respects the bound.  The maximum modulus is
    sampled on the norm sphere, so the bound carries sampling slack; the
    inequality itself is never tight except for monomials at the extremal
    radius.
    """
    k = int(sum(alpha))
    M = mn_radius_max(f, norm, t, directions=directions, seed=seed)
    # the sphere point maximizing |z^alpha| joins the sample, so the bound
    # stays valid even in the tight monomial case where random directions
    # undershoot the true maximum modulus
    at_extremal = np.abs(f.eval_many((t * norm.delta_point(alpha)).reshape(1, -1)))
    M = max(M, float(at_extremal[0]))
    bound = t ** (-k) * M / norm.delta(alpha)
    actual = abs(f.coeff(alpha))
    return bound, bool(actual <= bound * (1 + 1e-9))


def gelfond_constant(omega: float) -> float:
    """The threshold constant: integral of t^(omega-1)/(1-t) over [0, 1/2].

    Expanding 1/(1-t) and integrating termwise gives the series
    sum_{n>=0} 2^-(omega+n) / (omega+n).  Each term is less than half the
    last, so 60 terms, summed smallest first, leave a tail below 2^-59 of
    the first term.  At omega = 1 the value is log 2.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return sum(0.5 ** (omega + n) / (omega + n) for n in reversed(range(60)))


def omega_density(points, norm: Norm, omega: float, rmax: float) -> float:
    """Empirical liminf of the counting function against r^omega.

    Counts points of the sequence with norm at most r on a log-spaced grid
    of ``_DENSITY_GRID`` radii and returns the smallest ratio count /
    r^omega over the tail half of the grid, which is where the liminf shows.
    The points must be supplied out to radius rmax or beyond; the count
    saturates otherwise and the estimate is an overcount of nothing, i.e.
    too small.
    """
    if not rmax > 0:
        raise ValueError(f"rmax must be positive, got {rmax!r}")
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    pts = as_rows(points)
    norms = np.sort(norm.value(pts))
    if norms.size and norms[-1] < rmax:
        raise ValueError("point sequence too short for rmax: counting saturates")
    r0 = max(float(norms[0]), 1e-6, rmax * 1e-3)
    grid = np.geomspace(max(r0, 1e-6), rmax, _DENSITY_GRID)
    counts = np.searchsorted(norms, grid, side="right")
    ratios = counts / grid**omega
    tail = ratios[_DENSITY_GRID // 2:]
    return float(np.min(tail))
