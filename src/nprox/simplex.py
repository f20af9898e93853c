"""Monomial moments and cubature on the unit simplex.

The unit simplex in R^k is ``T_k = {t : t_i >= 0, sum t_i <= 1}`` and all
integrals here are plain Lebesgue integrals over it (no volume
normalization).  Moments have the closed form

    int_{T_k} t^beta dt = (prod_i beta_i!) / (|beta| + k)!

taken as a ratio of exact integers, which Python's true division rounds
once, correctly: large degrees neither overflow nor lose digits.  Cubature
uses the Grundmann-Moller combinatorial construction, which is exact for
polynomials of degree 2s+1.  Its point blocks are prefixes of one table,
``exponents(ndim, s)``; its weights are ratios of factorials too, rounded
once in the same way.

An integrand that depends on ``t`` through one real affine form integrates
along a line instead (``bspline_rule``).  By Curry-Schoenberg,

    int_{T_j} h(x_0 + sum_i t_i (x_i - x_0)) dt = (1/j!) int h(x) M(x) dx

for real knots ``x_0 .. x_j``, where M is the B-spline of degree j - 1 on
those knots with unit integral.  Gauss-Legendre on each knot interval then
takes j * ceil((E + j) / 2) points with positive weights, where the
Grundmann-Moller rule of exactness E takes C(j + 1 + E // 2, j + 1).
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

import numpy as np

from .indexing import DESK_LIMIT, exponents, monomial_count


def simplex_monomial_moment(beta) -> float:
    beta = np.asarray(beta, dtype=np.int64).reshape(-1).tolist()
    if any(b < 0 for b in beta):
        raise ValueError("moment exponents must be nonnegative")
    # an empty beta is the zero-dimensional simplex, a point: the value is 1
    return prod(map(factorial, beta)) / factorial(sum(beta) + len(beta))


def simplex_moment_vector(ndim: int, degree: int) -> np.ndarray:
    """Moments of every graded-lex monomial of degree <= ``degree`` on T_ndim."""
    return np.array([simplex_monomial_moment(row) for row in exponents(ndim, degree)])


@lru_cache(maxsize=None)
def grundmann_moller_rule(ndim: int, s: int):
    """Nodes and weights exact to degree ``2s + 1`` on the unit simplex.

    Returns ``(nodes, weights)`` with nodes of shape ``(Q, ndim)``.  Weights
    alternate in sign; they sum to the simplex volume ``1 / ndim!``.
    """
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    monomial_count(ndim + 1, s)  # desk-scale guard on the node count
    d = 2 * s + 1
    # beta runs over the barycentric multi-indices with |beta| = s - i; the
    # block without beta_0 is a prefix of the graded-lex table over ndim slots
    table = exponents(ndim, s)
    node_blocks = []
    weight_blocks = []
    for i in range(s + 1):
        block = table[:monomial_count(ndim, s - i)]
        denom = d + ndim - 2 * i
        w = (-1) ** i * denom**d / (4**s * factorial(i) * factorial(d + ndim - i))
        node_blocks.append((2 * block + 1) / denom)
        weight_blocks.append(np.full(block.shape[0], w))
    nodes = np.vstack(node_blocks)
    weights = np.concatenate(weight_blocks)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _legendre(n: int, x):
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence."""
    before, p = np.ones_like(x), x
    for k in range(2, n + 1):
        before, p = p, ((2 * k - 1) * x * p - (k - 1) * before) / k
    return p, n * (x * p - before) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the guesses cos(pi (k - 1/4) / (n + 1/2))
    finds the nodes to a unit in the last place, and the weights
    2 / ((1 - x^2) P_n'(x)^2) follow; it needs no eigensolver, so no LAPACK
    workspace.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# knots closer than this, relative to the largest, merge into a repeated knot
_MERGE = 16 * np.finfo(float).eps


def bspline_rule(knots, exactness: int):
    """Points and weights for the simplex integral along real ``knots``.

    Returns ``(points, weights)`` with ``sum(weights * h(points))`` equal to
    ``int_{T_j} h(x_0 + sum_i t_i (x_i - x_0)) dt`` for every polynomial h
    of degree at most ``exactness``, with j + 1 knots.  The B-spline M comes
    from the Cox-de Boor recurrence at Gauss-Legendre points of each nonempty
    knot interval, where M is a polynomial of degree j - 1, so
    ``ceil((exactness + j) / 2)`` points per interval are exact.  Repeated
    knots, and knots within rounding of each other, are ordinary repeated
    knots; when all coincide the measure is a point mass of weight 1/j!.
    The weights are positive and sum to 1/j!.
    """
    t = sorted(np.asarray(knots, dtype=np.float64).reshape(-1).tolist())
    if not t:
        raise ValueError("a simplex rule needs at least one knot")
    # knots that differ by rounding (projections of nodes along a direction
    # perpendicular to their difference) are one repeated knot
    close = _MERGE * max(abs(t[0]), abs(t[-1]))
    for i in range(1, len(t)):
        if t[i] - t[i - 1] <= close:
            t[i] = t[i - 1]
    # each Newton step of the n-point rule runs the n-term Legendre
    # recurrence at its n points, and the Cox-de Boor recurrence holds j
    # splines at each of up to j * n points
    j, n = len(t) - 1, (int(exactness) + len(t)) // 2
    if max(n, j * j) * n > DESK_LIMIT:
        raise ValueError(
            f"a B-spline rule on {j + 1} knots at exactness {exactness} needs "
            f"{n} Gauss-Legendre points per interval, past the desk scale of "
            f"{DESK_LIMIT}; pass a lower exactness"
        )
    return _bspline_rule(tuple(t), int(exactness))


# a projector's levels meet the same knots along one direction on every call
@lru_cache(maxsize=1024)
def _bspline_rule(t: tuple, exactness: int):
    """``bspline_rule`` at knots already sorted and merged."""
    j = len(t) - 1
    span = t[-1] - t[0]
    if span == 0:
        points, weights = np.array(t[:1]), np.array([1.0 / factorial(j)])
    else:
        t = np.array(t)
        x, w = _gauss_legendre((exactness + j + 1) // 2)
        cells = np.flatnonzero(np.diff(t) > 0)
        width = t[cells + 1] - t[cells]
        points = t[cells, None] + 0.5 * width[:, None] * (x + 1.0)
        # order-1 splines: the indicator of each point's own interval
        basis = np.zeros(points.shape + (j,))
        basis[np.arange(cells.size), :, cells] = 1.0
        for k in range(2, j + 1):
            i = np.arange(j - k + 1)
            rise, fall = t[i + k - 1] - t[i], t[i + k] - t[i + 1]
            # a zero-width support carries a zero spline: 0/0 reads as 0
            rise = np.divide(1.0, rise, out=np.zeros_like(rise), where=rise > 0)
            fall = np.divide(1.0, fall, out=np.zeros_like(fall), where=fall > 0)
            p = points[..., None]
            basis = ((p - t[i]) * rise * basis[..., :-1]
                     + (t[i + k] - p) * fall * basis[..., 1:])
        # M = j N / span has unit integral; the simplex carries 1/j! of it
        weights = (0.5 * width[:, None] * w) * basis[..., 0] * (j / span / factorial(j))
        points, weights = points.reshape(-1), weights.reshape(-1)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def rule_order_for_exactness(exactness: int) -> int:
    """Smallest Grundmann-Moller ``s`` whose rule reaches ``exactness``."""
    return max(0, int(exactness) // 2)
