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
which conditions take one.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .testfunctions import PoleOnSupportError, Sum, TestFunction


class LineRule:
    """A functional on ridge functions f(z) = g(a . z), as a rule for g.

    On f, a functional of order j takes ``a^alpha * weights @ g^(j)(points)``.
    Its support along the line is the union of the segments from
    ``starts[i]`` to ``stops[i]`` (``stops - starts`` is real and
    nonnegative; a point has length 0), the images of the points
    ``zstarts[i]`` and ``zstops[i]`` in the functional's variables, so a pole
    of g on a segment is named by a point between those two.
    """

    def __init__(self, weights, points, starts, stops, zstarts, zstops):
        self.weights = weights
        self.points = points
        self.starts = starts
        self.stops = stops
        self.zstarts = zstarts
        self.zstops = zstops

    @classmethod
    def point(cls, point, direction):
        """The point mass at ``point``: a point or derivative value."""
        along = np.array([point @ direction])
        return cls(np.ones(1), along, along, along, point[None, :], point[None, :])

    def convolve(self, other):
        """The rule of a tensor pair: every sum of a point of each factor."""
        m, n = self.starts.size, other.starts.size
        return LineRule(np.multiply.outer(self.weights, other.weights).reshape(-1),
                        np.add.outer(self.points, other.points).reshape(-1),
                        np.add.outer(self.starts, other.starts).reshape(-1),
                        np.add.outer(self.stops, other.stops).reshape(-1),
                        np.hstack([np.repeat(self.zstarts, n, axis=0),
                                   np.tile(other.zstarts, (m, 1))]),
                        np.hstack([np.repeat(self.zstops, n, axis=0),
                                   np.tile(other.zstops, (m, 1))]))

    def check_poles(self, g: TestFunction, direction):
        """Raise ``PoleOnSupportError`` if a pole of g meets the support.

        The quadrature points miss a pole inside a segment, where the
        integral does not exist, so each segment is tested at its point
        nearest the pole, to the tolerance of ``Recip``'s own test.  The
        error names the locus and a point on it in the original variables.
        """
        for coeffs, const in g.poles():
            length = (self.stops - self.starts).real
            gamma = complex(coeffs[0])
            if gamma == 0:
                continue
            ahead = (-const / gamma - self.starts).real
            lam = np.clip(np.divide(ahead, length, out=np.zeros_like(length),
                                    where=length > 0), 0.0, 1.0)
            u = gamma * (self.starts + lam * length) + const
            bad = np.abs(u) < 1e-12 * (1.0 + abs(gamma) + abs(const))
            if np.any(bad):
                i = int(np.argmax(bad))
                point = self.zstarts[i] + lam[i] * (self.zstops[i] - self.zstarts[i])
                raise PoleOnSupportError(gamma * direction, const, point)


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
    for rule in {id(rule): rule for rule, _ in sums.values()}.values():
        rule.check_poles(g, direction)

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
