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
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

import numpy as np

from .indexing import exponents, monomial_count


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


def rule_order_for_exactness(exactness: int) -> int:
    """Smallest Grundmann-Moller ``s`` whose rule reaches ``exactness``."""
    return max(0, int(exactness) // 2)
