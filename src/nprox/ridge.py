"""Functionals on ridge functions, integrated along one dimension.

A ridge function is f(z) = g(a . z) for a one-variable g
(``TestFunction.ridge``).  On it ``D^alpha f = a^alpha g^(|alpha|)(a . z)``,
so a functional of order j is a^alpha times a functional of g^(j) on the
line.  A ``LineRule`` holds such a rule (``Functional._line_rule``).  A
point, derivative or inner-product condition projects its discretization
onto a: a point mass at a . z, or weights on the projected measure nodes.
By Hermite-Genocchi a Kergin condition is the simplex integral of g^(j)
over its projected nodes, a B-spline integral (``simplex.bspline_rule``).
A tensor pair acts on a sum of its blocks' projections, so its rule sums
every pair of its factors' points.  ``functionals.rhs`` decides which
conditions take a rule and reads g for all rules of one order at once.  A
rule reads g at its points only, so it would miss a pole of g between
them: ``functionals.rhs`` refuses every condition whose support meets a
pole before it routes any, for the line rules and the cubature rules alike.
"""
from __future__ import annotations

import numpy as np

from .testfunctions import Sum, TestFunction


class LineRule:
    """A functional on ridge functions f(z) = g(a . z), as a rule for g.

    On f, a functional of order j takes ``a^alpha * weights @ g^(j)(points)``.
    """

    def __init__(self, weights, points):
        self.weights = weights
        self.points = points

    def convolve(self, other):
        """The rule of a tensor pair: every sum of a point of each factor."""
        return LineRule(np.multiply.outer(self.weights, other.weights).reshape(-1),
                        np.add.outer(self.points, other.points).reshape(-1))


def line_rule(mu, direction, exactness: int, memo: dict):
    """``mu._line_rule``, built once per rule key and direction of ``memo``."""
    key = (mu._rule_key(), direction.tobytes())
    if key not in memo:
        memo[key] = mu._line_rule(direction, exactness, memo)
    return memo[key]


def sum_terms(f: TestFunction) -> list:
    """The terms of a (nested) sum, or f alone."""
    if isinstance(f, Sum):
        return [t for term in f.terms for t in sum_terms(term)]
    return [f]
