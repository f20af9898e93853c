"""Functionals on ridge functions, integrated along one dimension.

A ridge function is f(z) = g(a . z) for a one-variable g
(``TestFunction.ridge``).  On it ``D^alpha f = a^alpha g^(|alpha|)(a . z)``,
so a functional of order j is a^alpha times a functional of g^(j) on the
line: a point or derivative value is a point mass at a . z, an inner
product weights the projected measure nodes, and by Hermite-Genocchi a
Kergin condition is the simplex integral of g^(j) over its projected nodes,
a B-spline integral (``simplex.bspline_rule``).  A tensor pair acts on a
sum of its blocks' projections, so its rule sums every pair of its
factors' points.  A ``LineRule`` holds such a rule; each functional kind
builds its own (``Functional._line_rule``), and ``functionals.rhs`` decides
which conditions take one.  A rule reads g at its points only, so it would
miss a pole of g between them: ``functionals.rhs`` refuses every condition
whose support meets a pole before it routes any, for the line rules and the
cubature rules alike.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .testfunctions import Sum, TestFunction


class LineRule:
    """A functional on ridge functions f(z) = g(a . z), as a rule for g.

    On f, a functional of order j takes ``a^alpha * weights @ g^(j)(points)``.
    """

    def __init__(self, weights, points):
        self.weights = weights
        self.points = points

    @classmethod
    def point(cls, point, direction):
        """The point mass at ``point``: a point or derivative value."""
        return cls(np.ones(1), np.array([point @ direction]))

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


def apply_line_rules(users, ridge, out: np.ndarray, chunk: int):
    """Add each ``(index, alpha, rule)`` value on g(a . z) into ``out[index]``.

    ``ridge`` is ``(a, g)``.  Conditions of one rule and order share its
    weighted sum, and the rules of one order go to ``g.deriv_table``
    together, about ``chunk`` points per call.
    """
    direction, g = ridge
    sums: dict = {}  # (rule, order) -> (rule, [(condition index, a^alpha)])
    a = direction.tolist()
    for i, alpha, rule in users:
        scale = prod(a[v] ** k for v, k in enumerate(alpha) if k)
        sums.setdefault((id(rule), sum(alpha)), (rule, []))[1].append((i, scale))

    def flush(order, batch):
        points = np.concatenate([rule.points for rule, _ in batch])
        values = g.deriv_table([(order,)], points[:, None])[0]
        row = 0
        for rule, targets in batch:
            total = rule.weights @ values[row:row + rule.points.size]
            row += rule.points.size
            for i, scale in targets:
                out[i] += scale * total

    by_order: dict = {}
    for (_, order), entry in sums.items():
        by_order.setdefault(order, []).append(entry)
    for order, entries in by_order.items():
        batch, size = [], 0
        for entry in entries:
            batch.append(entry)
            size += entry[0].points.size
            if size >= chunk:
                flush(order, batch)
                batch, size = [], 0
        if batch:
            flush(order, batch)
