"""Linear functionals acting on polynomials and smooth test functions.

Five kinds are supported: point evaluation, derivative evaluation, simplex
mean-value conditions on derivative data (the Kergin conditions), weighted
inner products against a basis polynomial, and tensor pairs acting on a
joined variable block.

A functional is weights and points for one derivative order, its
``alpha``: ``discretize`` builds them, the simplex conditions through
Grundmann-Moller cubature of a requested exactness and a tensor pair as
the products of its factors' weights and points at the sum of their
orders.

On the graded-lex monomial basis, ``rows`` assembles a whole list of
functionals at once and ``on_monomials`` is its one-functional case, as
``apply_to_function`` is for ``rhs``.  Conditions that share a table are
built together: every point and derivative condition of the list from one
``monomial_vandermonde`` call with one derivative order per point (bit for
bit the rows each would get alone), the inner products on one measure from
one product with the measure's cached Vandermonde, and the Kergin
conditions on one node set from one rule and one table.  ``D^alpha`` of a
monomial of degree at most ``degree`` has degree at most
``degree - |alpha|``, so ``apply_to_polynomial`` is exact up to rounding
with the rule of that exactness, and an order-j row of a degree-d Kergin
projector takes the rule of exactness d - j (one point at j = d) instead
of the degree-d rule.  All order-j conditions on the same nodes then share
the rule's moments of the monomials of degree at most d - j, and each row
is a falling-factorial multiple of those moments
(``indexing.derivative_gather``).  The Grundmann-Moller weights alternate
in sign, so that rounding grows with the exactness: against the exact
moment expansion the planar Kergin values agree to 8.9e-16 (row-relative)
at degree 4, 6.7e-14 at degree 8 and 1.6e-12 at degree 10.  Nothing is
cached per functional, so the values do not depend on what was asked
before.  A tensor pair's values come from its discretization; a product
projector gathers its rows from its factors' rows instead
(``NewtonProduct``).

On a test function, ``rhs`` applies a whole list of functionals at once and
``apply_to_function`` is its one-functional case.  Conditions that share
an evaluation are applied together, as in ``rows``
(``Functional._rhs_group``): every point and derivative condition of the
list through one ``deriv_table`` call per ``_RHS_CHUNK`` distinct points,
each reading its own entry, and the inner products on one measure from
one evaluation of f at its nodes, each taking its own dot product.  A
product projector hands it tensor pairs only for a test function that
does not separate (``TestFunction.split``): on f = f1 (x) f2 a pair's value
is mu(f1) * nu(f2), so the product applies each factor's conditions to its
part and gathers the products of the values (``NewtonProduct``).

``rhs`` takes a sum term by term.  On a ridge term f(z) = g(a . z)
(constants, affine forms, and exponentials and reciprocals of affine
forms), a Kergin condition of order 1 or more, alone or as a factor of a
tensor pair, integrates along one dimension (``ridge``): j * ceil((E + j)
/ 2) points with positive weights at exactness E, where Grundmann-Moller
takes C(j + 1 + E // 2, j + 1).  That needs real nodes and a real
direction in every such Kergin factor.  Kergin conditions on complex nodes
or along a complex direction, on products and polynomial leaves, and every
collocation row (``rows``) keep Grundmann-Moller; point, derivative and
inner-product conditions are evaluated as they stand.  Neither rule sees
a pole of f between its points, so before it routes any condition ``rhs``
tests each one with a Kergin factor of order 1 or more against every pole
of f, once for both paths: an affine pole form maps a simplex onto the
convex hull of its values at the nodes (a tensor pair's product of
simplices onto the hull of the sums of both factors' values, which along a
ridge direction is a line rule's span), and ``PoleOnSupportError`` names a
point of the support on the pole locus when 0 lies in that hull.

Kergin conditions off the line rules and tensor pairs take the cubature
path (``_discretized_rhs``).  There ``rhs`` discretizes each factor of a
tensor pair once, derivative factors at the same point share it, and
Kergin conditions on the same nodes share one mapped rule, dropped once
the conditions that use it are done and its last pending piece is
evaluated.  A tensor batch is cut into row pieces of about ``_RHS_CHUNK``
points instead of being built whole; pieces are merged up to that many
distinct points, and the derivative orders that meet the same pieces share
one ``deriv_table`` call, so a piece that several conditions share is
passed to the test function once for all the orders they ask of it.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .config import check_exactness
from .indexing import DESK_LIMIT, derivative_gather, monomial_count, monomial_vandermonde
from .measures import QuadratureMeasure
from .points import as_rows, cartesian
from .polynomials import Polynomial
from .ridge import LineRule, apply_line_rules, line_rule, sum_terms
from .simplex import bspline_rule, grundmann_moller_rule, rule_order_for_exactness
from .testfunctions import PoleOnSupportError, Sum, TestFunction

# Grundmann-Moller sets this cap: past 21 its rules of order-11 and order-12
# conditions outgrow the desk scale (projectors cap min(2 * degree + 5, ...)
# here too).  They now serve only Kergin conditions that have no line rule,
# and their alternating weights cost digits: on the planar d=10 Kergin
# conditions exp(x + y) is off its Hermite-Genocchi values by 3.4e-12 at 21
# (row-relative).  The line rules have positive weights: 6.7e-13 at 11,
# 9e-16 at 15, 1.0e-15 at 21.  Test functions take this exactness at every
# order, unlike the collocation rows (``on_monomials``).
DEFAULT_EXACTNESS = 21


# Distinct points per deriv_table call of ``rhs``: small batches merge up to
# it and larger tensor batches are cut into row pieces of about this size.
# A pending piece counts as at least _PIECE_POINTS points, about what its
# Python objects weigh, so one-point pieces do not pile up by the thousand.
_RHS_CHUNK = 4096
_PIECE_POINTS = 64


def _point_array(point):
    return np.asarray(point, dtype=np.complex128).reshape(-1)


class Functional:
    """Base class; concrete kinds implement ``discretize`` and friends.

    ``alpha`` is the derivative order every batch of ``discretize`` carries.
    """

    nvars: int
    alpha: tuple

    # -- exact action on polynomials ------------------------------------

    def on_monomials(self, degree: int) -> np.ndarray:
        """Values on every graded-lex monomial of degree <= ``degree``.

        The one-condition case of ``rows``.
        """
        return rows([self], degree)[0]

    def _row_group(self):
        """``(build, key)``: conditions with equal pairs share one ``build`` call.

        ``build(conditions, degree)`` returns their rows on the monomials
        (``rows``).  By default a condition is its own group and sums its
        discretization against the monomial table (``_discretized_rows``).
        """
        return _discretized_rows, id(self)

    def apply_to_polynomial(self, poly: Polynomial) -> complex:
        if poly.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return complex(np.dot(poly.coeffs, self.on_monomials(poly.degree)))

    # -- action on smooth functions --------------------------------------

    def discretize(self, exactness: int):
        """Weighted point-derivative batches ``(weights, points, alpha)``."""
        raise NotImplementedError

    def _rule_key(self):
        """Functionals with equal keys discretize alike up to ``alpha``.

        They also have the same ``_support``, so a pole test serves them all.
        """
        return id(self)

    def _support(self):
        """Point sets whose convex hulls hold every point the functional reads.

        An array of shape ``(pieces, points, nvars)``: a Kergin condition's
        nodes, a single point, or one piece per measure node.
        """
        raise NotImplementedError

    def _line_rule(self, direction, exactness: int, memo: dict):
        """This functional on f(z) = g(a . z), as a ``ridge.LineRule`` for g.

        ``direction`` is a; the value on f is ``a^alpha`` times the rule
        applied to ``g^(|alpha|)``.  None means the functional has no such
        rule there, and the caller takes ``discretize`` instead.
        """
        return None

    def _rhs_group(self):
        """``(apply, key)``: conditions with equal pairs share one ``apply`` call.

        ``apply(pairs, f, exactness, out)`` adds the values of its
        ``(index, condition)`` pairs on f into ``out`` (``rhs``).  By default
        every such condition goes to ``_discretized_rhs``, which shares the
        rules and pieces of the whole group.
        """
        return _discretized_rhs, None

    def _batches(self, exactness: int, memo: dict):
        """``discretize(exactness)``, computed once per key of ``memo``."""
        key = self._rule_key()
        if key not in memo:
            memo[key] = self.discretize(exactness)
        return [(weights, points, self.alpha) for weights, points, _ in memo[key]]

    def apply_to_function(self, f: TestFunction, exactness: int | None = None) -> complex:
        return complex(rhs([self], f, exactness)[0])

    def __call__(self, obj, exactness: int | None = None) -> complex:
        if isinstance(obj, Polynomial):
            return self.apply_to_polynomial(obj)
        if isinstance(obj, TestFunction):
            return self.apply_to_function(obj, exactness)
        raise TypeError(f"cannot apply a functional to {type(obj).__name__}")


class DerivativeEval(Functional):
    def __init__(self, alpha, point):
        self.point = _point_array(point)
        self.nvars = self.point.shape[0]
        self.alpha = tuple(int(a) for a in alpha)
        if len(self.alpha) != self.nvars or any(a < 0 for a in self.alpha):
            raise ValueError(f"bad derivative order {alpha}")

    def discretize(self, exactness):
        return [(np.array([1.0 + 0j]), self.point[None, :], self.alpha)]

    def _rule_key(self):
        # every order at one point (a Taylor level) shares that point
        return ("point", self.point.tobytes())

    def _row_group(self):
        return _point_rows, None

    def _rhs_group(self):
        return _point_rhs, None

    def _support(self):
        return self.point[None, None, :]

    def _line_rule(self, direction, exactness, memo):
        return LineRule.point(self.point, direction)

    def __repr__(self):
        return f"DerivativeEval(alpha={self.alpha}, point={self.point})"


class PointEval(DerivativeEval):
    """The value at a point: the derivative value of order 0."""

    def __init__(self, point):
        self.point = _point_array(point)
        self.nvars = self.point.shape[0]
        self.alpha = (0,) * self.nvars

    def __repr__(self):
        return f"PointEval({self.point})"


class KerginCondition(Functional):
    """Unnormalized simplex mean of ``D^alpha f`` along interpolation nodes.

    With ``j = |alpha|`` and nodes ``z_0 .. z_j`` the functional is

        f -> int_{T_j} (D^alpha f)(z_0 + sum_i t_i (z_i - z_0)) dt,

    the plain Lebesgue integral over the unit simplex (so level-j conditions
    carry a natural 1/j! volume factor).  On a test function with a ridge
    term g(a . z), real nodes and a real a, the integral runs along the
    line, over the B-spline of the projected nodes a . z_i
    (``simplex.bspline_rule``); on anything else, and on the monomials, it
    takes the Grundmann-Moller rule of the requested exactness.  Neither
    rule sees a pole inside the simplex, so ``rhs`` refuses a test function
    with one there before it picks a rule (``_check_hull_poles``).
    """

    def __init__(self, alpha, nodes):
        self.alpha = tuple(int(a) for a in alpha)
        self.nodes = nodes = as_rows(nodes)
        self.nvars = nodes.shape[1]
        if len(self.alpha) != self.nvars or any(a < 0 for a in self.alpha):
            raise ValueError(f"bad derivative order {alpha}")
        if nodes.shape[0] != sum(self.alpha) + 1:
            raise ValueError(
                f"order {sum(self.alpha)} condition needs {sum(self.alpha) + 1} "
                f"nodes, got {nodes.shape[0]}"
            )

    @property
    def order(self) -> int:
        return sum(self.alpha)

    def discretize(self, exactness):
        j = self.order
        if j == 0:
            return [(np.array([1.0 + 0j]), self.nodes[:1], self.alpha)]
        tnodes, weights = grundmann_moller_rule(j, rule_order_for_exactness(exactness))
        # a real product on the (re, im) pairs: no complex copy of the rule
        edges = np.ascontiguousarray(self.nodes[1:] - self.nodes[0])
        mapped = (tnodes @ edges.view(np.float64)).view(np.complex128)
        mapped += self.nodes[0]
        return [(weights.astype(np.complex128), mapped, self.alpha)]

    def _rule_key(self):
        # the mapped rule depends on the nodes alone, and so does the order
        return ("kergin", self.nodes.shape, self.nodes.tobytes())

    def _row_group(self):
        return _kergin_rows, self._rule_key()

    def _support(self):
        # the simplex is the hull of the nodes
        return self.nodes[None]

    def _line_rule(self, direction, exactness, memo):
        if self.order == 0:
            return LineRule.point(self.nodes[0], direction)
        if direction.imag.any() or self.nodes.imag.any():
            return None  # complex knots: no B-spline, Grundmann-Moller instead
        knots = self.nodes.real @ direction.real
        points, weights = bspline_rule(knots, exactness)
        return LineRule(weights, points)

    def __repr__(self):
        return f"KerginCondition(alpha={self.alpha}, nodes={len(self.nodes)})"


class InnerProduct(Functional):
    """``f -> int f conj(b) dmu`` for a basis polynomial b and measure mu.

    Optional precomputed basis values at the measure nodes avoid re-evaluating
    high-degree coefficient forms (Gram-Schmidt carries exact node values).
    """

    def __init__(self, basis: Polynomial, measure: QuadratureMeasure, basis_values=None):
        if basis.nvars != measure.nvars:
            raise ValueError("basis and measure variable counts disagree")
        self.basis = basis
        self.measure = measure
        self.nvars = basis.nvars
        self.alpha = (0,) * self.nvars
        if basis_values is None:
            basis_values = measure.poly_values(basis)
        self._bvals = np.asarray(basis_values, dtype=np.complex128)

    def _weighted_conj(self):
        return self.measure.weights * np.conj(self._bvals)

    def _row_group(self):
        return _inner_product_rows, id(self.measure)

    def _rhs_group(self):
        return _inner_product_rhs, id(self.measure)

    def _support(self):
        return self.measure.nodes[:, None, :]

    def discretize(self, exactness):
        return [(self._weighted_conj(), self.measure.nodes, self.alpha)]

    def _line_rule(self, direction, exactness, memo):
        return LineRule(self._weighted_conj(), self.measure.nodes @ direction)

    def __repr__(self):
        return f"InnerProduct(basis_degree={self.basis.degree}, domain={self.measure.domain})"


class Tensor(Functional):
    """``(mu (x) nu)(f)``: mu in the left variable block, nu in the right.

    Both on polynomials and on test functions it multiplies out the factor
    discretizations (iterated quadrature/evaluation).  A product projector
    does not ask its tensor conditions for their rows: it gathers them from
    its factors' collocation rows.
    """

    def __init__(self, left: Functional, right: Functional):
        self.left = left
        self.right = right
        self.nvars = left.nvars + right.nvars
        self.alpha = left.alpha + right.alpha

    def discretize(self, exactness):
        return [((w1[:, None] * w2[None, :]).reshape(-1), cartesian(p1, p2), a1 + a2)
                for w1, p1, a1 in self.left.discretize(exactness)
                for w2, p2, a2 in self.right.discretize(exactness)]

    def _rule_key(self):
        # every factor key ignores alpha, so the pair's does too
        return self.left._rule_key(), self.right._rule_key()

    def _support(self):
        # each pair of factor pieces spans the product of their hulls
        a, b = self.left._support(), self.right._support()
        (p1, k1, n1), (p2, k2, n2) = a.shape, b.shape
        joined = np.empty((p1, p2, k1, k2, n1 + n2), dtype=np.complex128)
        joined[..., :n1] = a[:, None, :, None, :]
        joined[..., n1:] = b[None, :, None, :, :]
        return joined.reshape(p1 * p2, k1 * k2, n1 + n2)

    def _line_rule(self, direction, exactness, memo):
        # along a the pair integrates g over the sum of its factors' measures
        k = self.left.nvars
        left = line_rule(self.left, direction[:k], exactness, memo)
        right = line_rule(self.right, direction[k:], exactness, memo)
        if left is None or right is None:
            return None
        return left.convolve(right)

    def __repr__(self):
        return f"Tensor({self.left!r}, {self.right!r})"


def rows(conditions, degree: int) -> np.ndarray:
    """Values of every functional in ``conditions`` on the monomials.

    Returns the ``(len(conditions), monomial_count(nvars, degree))`` matrix
    of each condition on every graded-lex monomial of degree <= ``degree``,
    in condition order.  Conditions that share a table are built together
    (``Functional._row_group``): every point and derivative condition in one
    ``monomial_vandermonde`` call with one order per point, the Kergin
    conditions on one node set from one rule (``_kergin_rows``), and the
    inner products on one measure in one product with its cached
    Vandermonde.  Groups are kept in the order of their first condition, so
    nothing depends on hash order.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("need at least one condition")
    nvars = conditions[0].nvars
    if any(mu.nvars != nvars for mu in conditions):
        raise ValueError("conditions mix variable counts")
    groups: dict = {}
    for i, mu in enumerate(conditions):
        groups.setdefault(mu._row_group(), []).append(i)
    out = np.empty((len(conditions), monomial_count(nvars, degree)), dtype=np.complex128)
    for (build, _), indices in groups.items():
        out[indices] = build([conditions[i] for i in indices], degree)
    return out


def _point_rows(conditions, degree: int) -> np.ndarray:
    """Point and derivative values: one Vandermonde, one order per point."""
    points = np.array([mu.point for mu in conditions])
    # + 0 turns the -0 entries of derivative columns into +0, as summing each
    # condition's one-point batch did, so the rows keep their bytes
    return monomial_vandermonde(points, degree, [mu.alpha for mu in conditions]) + 0.0


def _kergin_rows(conditions, degree: int) -> np.ndarray:
    """Kergin conditions on one node set, from one rule and one table.

    They share their order j, so one rule of exactness ``degree - j``
    integrates every monomial of degree <= ``degree - j`` at once (its
    moments), and ``D^alpha z^gamma`` is a falling-factorial multiple of
    ``z^(gamma - alpha)``, one of those (``indexing.derivative_gather``).
    """
    mu = conditions[0]
    exactness = max(degree - mu.order, 0)
    (weights, points, _), = mu.discretize(exactness)
    moments = weights @ monomial_vandermonde(points, exactness)
    index, coeff = derivative_gather(mu.nvars, degree, tuple(c.alpha for c in conditions))
    return coeff * np.append(moments, 0.0)[index]


def _inner_product_rows(conditions, degree: int) -> np.ndarray:
    """Inner products on one measure: one product with its cached Vandermonde."""
    measure = conditions[0].measure
    basis = np.array([mu._bvals for mu in conditions])
    return (measure.monomial_values(degree) @ (measure.weights * np.conj(basis)).T).T


def _discretized_rows(conditions, degree: int) -> np.ndarray:
    """Each condition's discretization summed against the monomial table.

    ``D^alpha`` of a monomial of degree <= ``degree`` has degree at most
    ``degree - |alpha|``, so the discretization asks for that exactness.  A
    tensor pair has ``alpha = a1 + a2``, and a term is nonzero only where
    each factor's block survives its own derivative, so each factor's rule
    at that exactness is still exact.
    """
    return np.array([
        sum(weights @ monomial_vandermonde(pts, degree, alpha)
            for weights, pts, alpha in mu.discretize(max(degree - sum(mu.alpha), 0)))
        for mu in conditions
    ])


# the right factor of a condition that is not a tensor pair
_UNIT_POINTS = np.zeros((1, 0), dtype=np.complex128)
_UNIT = [(np.ones(1, dtype=np.complex128), _UNIT_POINTS, ())]


def rhs(conditions, f: TestFunction, exactness: int | None = None) -> np.ndarray:
    """Values of every functional in ``conditions`` on the test function f.

    A sum is taken term by term.  On a ridge term g(a . z) (``f.ridge()``)
    a condition with a Kergin factor of order 1 or more takes its line rule
    (``ridge.LineRule``) when it has one: the B-spline rule of real nodes
    along a real direction, convolved with the other factors' rules in a
    tensor pair.  The other conditions go in groups
    (``Functional._rhs_group``): the point and derivative conditions
    together, one ``deriv_table`` call per ``_RHS_CHUNK`` distinct points
    (``_point_rhs``); the inner products on one measure from one evaluation
    of f at its nodes (``_inner_product_rhs``); and the Kergin conditions
    and tensor pairs through ``discretize`` (``_discretized_rhs``).
    ``exactness`` defaults to
    ``DEFAULT_EXACTNESS``; one that is not a nonnegative integer, or a
    Kergin condition whose Grundmann-Moller rule at it would pass the desk
    scale, raises ``ValueError`` before any rule is built.  So does a pole
    of f on the support of a condition with a Kergin factor of order 1 or
    more, as ``PoleOnSupportError`` (``_check_hull_poles``).
    """
    conditions = list(conditions)
    if any(mu.nvars != f.nvars for mu in conditions):
        raise ValueError("variable count mismatch")
    exactness = DEFAULT_EXACTNESS if exactness is None else check_exactness(exactness)
    orders = [_kergin_order(mu) for mu in conditions]
    _check_hull_poles([mu for mu, order in zip(conditions, orders) if order], f)
    terms = sum_terms(f)
    ridges = [term.ridge() for term in terms] if any(orders) else [None] * len(terms)
    whole = tuple(range(len(terms)))
    if all(ridge is None for ridge in ridges):
        along, rest = {}, {whole: range(len(conditions))}
    else:
        along, rest = _route(conditions, orders, ridges, exactness)
    _check_rule_size(max((orders[i] for indices in rest.values() for i in indices),
                         default=0), exactness)
    out = np.zeros(len(conditions), dtype=np.complex128)
    for k, users in along.items():
        apply_line_rules(users, ridges[k], out, _RHS_CHUNK)
    for left, indices in rest.items():
        part = f if left == whole else (
            terms[left[0]] if len(left) == 1 else Sum([terms[k] for k in left]))
        groups: dict = {}
        for i in indices:
            groups.setdefault(conditions[i]._rhs_group(), []).append((i, conditions[i]))
        for (apply, _), pairs in groups.items():
            apply(pairs, part, exactness, out)
    return out


def _point_rhs(conditions, f: TestFunction, exactness: int, out: np.ndarray):
    """Point and derivative values, one ``deriv_table`` call per ``_RHS_CHUNK`` points.

    The distinct points are taken in the order of their first condition.
    A call asks for the distinct orders of its points' conditions, and each
    condition reads its own entry of the table, bit for bit its value
    alone wherever the test function computes each point on its own.
    Affine forms of several variables and polynomial leaves are BLAS
    products over the points, which can round a row apart with the row
    count; at one point, as in a Taylor level, that cannot happen.
    """
    columns: dict = {}  # point bytes -> column
    points, index, alphas, cols = [], [], [], []
    for i, mu in conditions:
        column = columns.setdefault(mu.point.tobytes(), len(points))
        if column == len(points):
            points.append(mu.point)
        index.append(i)
        alphas.append(mu.alpha)
        cols.append(column)
    points, index, cols = np.array(points), np.array(index), np.array(cols)
    for lo in range(0, len(points), _RHS_CHUNK):
        take = np.flatnonzero((cols >= lo) & (cols < lo + _RHS_CHUNK)).tolist()
        orders: dict = {}  # alpha -> table row
        rows = [orders.setdefault(alphas[t], len(orders)) for t in take]
        table = f.deriv_table(list(orders), points[lo:lo + _RHS_CHUNK])
        out[index[take]] += table[rows, cols[take] - lo]


def _inner_product_rhs(conditions, f: TestFunction, exactness: int, out: np.ndarray):
    """Inner products on one measure, from one evaluation of f at its nodes.

    f is evaluated in pieces of at most ``_RHS_CHUNK`` nodes, and each
    condition takes its own dot product with those values, so its value
    does not depend on which others share the call.
    """
    nodes = conditions[0][1].measure.nodes
    zero = (0,) * f.nvars
    pieces = [f.deriv_table([zero], nodes[lo:lo + _RHS_CHUNK])[0]
              for lo in range(0, nodes.shape[0], _RHS_CHUNK)]
    values = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    for i, mu in conditions:
        out[i] += np.dot(mu._weighted_conj(), values)


def _check_hull_poles(conditions, f: TestFunction):
    """Raise ``PoleOnSupportError`` if a pole of f meets a condition's simplex.

    A rule's points, on a line or in the simplex, miss a pole inside the
    simplex, where the integral does not exist, and it would return a
    finite value.  An affine form maps a simplex onto the convex hull of its
    values at the nodes, and a tensor pair's product of simplices onto the
    hull of the sums of its factors' values, so the pole meets the support
    exactly when 0 lies in that hull (to the tolerance of ``Recip``'s own
    test).  A tensor pair's values are the broadcast sums of its factors'
    (``_pole_values``); only an error builds the support, to name a point
    of it on the pole locus.  Conditions with equal rule keys share their
    support and are tested once.
    """
    poles = f.poles()
    if not poles:
        return
    forms = [(coeffs, const, 1e-12 * (1.0 + float(np.sum(np.abs(coeffs))) + abs(const)), {})
             for coeffs, const in poles]
    seen = set()
    for mu in conditions:
        key = mu._rule_key()
        if key in seen:
            continue
        seen.add(key)
        for coeffs, const, tol, memo in forms:
            for p, values in enumerate(_pole_values(mu, coeffs, const, memo)):
                weights = _hull_weights(values, tol)
                if weights is not None:
                    raise PoleOnSupportError(coeffs, const, weights @ mu._support()[p])


def _pole_values(mu: Functional, coeffs: np.ndarray, const, memo: dict,
                 start: int = 0) -> np.ndarray:
    """The affine form ``coeffs . z + const`` on ``mu._support()``, ``(pieces, points)``.

    ``mu`` reads variables ``start`` on of the form's, and ``const`` is 0
    unless ``start`` is.  A tensor pair's values are the broadcast sums of
    its factors', in the order of ``Tensor._support``, with no joined point
    built; ``memo`` keeps each factor's values by its first variable and
    rule key, so pairs that share a factor compute its values once.
    """
    if not isinstance(mu, Tensor):
        return mu._support() @ coeffs[start:start + mu.nvars] + const
    parts = []
    for factor, lo in ((mu.left, start), (mu.right, start + mu.left.nvars)):
        key = (lo, factor._rule_key())
        if key not in memo:
            memo[key] = _pole_values(factor, coeffs, const if lo == 0 else 0.0, memo, lo)
        parts.append(memo[key])
    a, b = parts
    return (a[:, None, :, None] + b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _hull_weights(u: np.ndarray, tol: float):
    """Convex weights w with ``|w @ u| <= tol``, or None if 0 is farther from hull(u).

    ``u`` holds complex values, points of the plane.  0 is within ``tol``
    of the hull if it is that close to a value or to a segment between two;
    otherwise it is inside exactly when the values leave no angular gap of
    pi or more around it, and then the triangle of ``u[0]`` and the two
    values on either side of the direction ``-u[0]`` holds it.  A hull
    point within ``tol`` of 0 has real and imaginary parts within ``tol``
    of 0, so values whose real or imaginary parts all pass ``tol`` on one
    side leave 0 farther, and the pairwise search is skipped.
    """
    if max(u.real.min(), u.imag.min(), -u.real.max(), -u.imag.max()) > tol:
        return None
    k = u.shape[0]
    weights = np.zeros(k)
    i = int(np.argmin(np.abs(u)))
    if abs(u[i]) <= tol:
        weights[i] = 1.0
        return weights
    a, b = np.triu_indices(k, 1)
    d = u[b] - u[a]
    length = np.abs(d) ** 2
    t = np.clip(-(np.conj(d) * u[a]).real / np.where(length > 0, length, 1.0), 0.0, 1.0)
    dist = np.abs(u[a] + t * d)
    p = int(np.argmin(dist)) if dist.size else 0
    if dist.size and dist[p] <= tol:
        weights[a[p]], weights[b[p]] = 1.0 - t[p], t[p]
        return weights
    angles = np.sort(np.angle(u))
    if np.max(np.diff(np.append(angles, angles[0] + 2 * np.pi))) >= np.pi:
        return None
    turn = np.mod(np.angle(u) - np.angle(-u[0]), 2 * np.pi)
    q, r = int(np.argmax(turn)), int(np.argmin(turn))
    cross = [(np.conj(x) * y).imag for x, y in ((u[q], u[r]), (u[r], u[0]), (u[0], u[q]))]
    weights[[0, q, r]] = np.abs(cross) / np.sum(np.abs(cross))
    return weights


def _route(conditions, orders, ridges, exactness):
    """Which conditions take line rules on which ridge terms.

    Returns ``along``, term -> [(condition index, alpha, line rule)], and
    ``rest``, the tuple of terms a condition takes by ``discretize`` ->
    condition indices.
    """
    whole = tuple(range(len(ridges)))
    memo: dict = {}
    along: dict = {}
    rest: dict = {}
    for i, (mu, order) in enumerate(zip(conditions, orders)):
        left = whole
        if order:
            left = []
            for k, ridge in enumerate(ridges):
                rule = None if ridge is None else line_rule(mu, ridge[0], exactness, memo)
                if rule is None:
                    left.append(k)
                else:
                    along.setdefault(k, []).append((i, mu.alpha, rule))
            left = tuple(left)
        if left:
            rest.setdefault(left, []).append(i)
    return along, rest


def _discretized_rhs(conditions, f: TestFunction, exactness: int, out: np.ndarray):
    """Add the values of ``(index, condition)`` pairs on f into ``out[index]``.

    Conditions are grouped by the rule of their left factor (a condition
    that is not a tensor pair is its own left factor).  A group
    discretizes its left factors once and drops them when it is done; right
    factors are discretized once per call.  Each pair of factor batches is
    handed on whole, with the conditions that use it, so its row pieces are
    built once for all of them.
    """
    groups: dict = {}
    for i, mu in conditions:
        left, right = (mu.left, mu.right) if isinstance(mu, Tensor) else (mu, None)
        groups.setdefault(left._rule_key(), []).append((i, left, right))
    pending = _PendingPieces(f, out)
    right_memo: dict = {}
    for group in groups.values():
        left_memo: dict = {}
        pairs: dict = {}  # (id(p1), id(p2)) -> (p1, p2, users)
        for i, left, right in group:
            rights = _UNIT if right is None else right._batches(exactness, right_memo)
            for w1, p1, a1 in left._batches(exactness, left_memo):
                for w2, p2, a2 in rights:
                    users = pairs.setdefault((id(p1), id(p2)), (p1, p2, []))[2]
                    users.append((i, w1, w2, a1 + a2))
        for p1, p2, users in pairs.values():
            pending.add(p1, p2, users)
    pending.flush()


def _kergin_order(mu: Functional) -> int:
    """Largest order of a Kergin factor of mu, 0 if it has none."""
    if isinstance(mu, Tensor):
        return max(_kergin_order(mu.left), _kergin_order(mu.right))
    return mu.order if isinstance(mu, KerginCondition) else 0


def _check_rule_size(order: int, exactness: int):
    """Refuse an order-``order`` rule past the desk scale, naming a way out.

    The Grundmann-Moller rule of an order-j condition has
    ``monomial_count(j + 1, s)`` points; its size grows with the order, so
    checking the largest order of the conditions that take one checks them
    all.
    """
    if order == 0:
        return  # an order-0 condition is a point value, no rule
    s = rule_order_for_exactness(exactness)
    size = comb(order + 1 + s, order + 1)
    if size <= DESK_LIMIT:
        return
    while comb(order + 1 + s, order + 1) > DESK_LIMIT:
        s -= 1
    raise ValueError(
        f"the order-{order} Kergin condition at exactness {exactness} needs a "
        f"Grundmann-Moller rule of {size} points, past the desk scale of "
        f"{DESK_LIMIT}; pass a lower exactness (at most {2 * s + 1})"
    )


class _PendingPieces:
    """Row pieces of tensor batches waiting for their ``deriv_table`` calls.

    A batch ``(w1, p1) x (w2, p2)`` is cut into pieces of whole left rows,
    each ``cartesian(p1[lo:hi], p2)``.  A piece is keyed by its factor arrays
    and first row, so every condition and derivative order that meets it
    again uses the same points.  Once the distinct points (each piece
    counting at least ``_PIECE_POINTS``) would pass ``_RHS_CHUNK``, the
    pending orders are grouped by the set of pieces they meet (the orders
    of one Kergin level meet the same mapped rule), each group's pieces go
    to one ``deriv_table`` call, and each condition adds
    ``w1 @ values @ w2`` over its pieces.
    """

    def __init__(self, f: TestFunction, out: np.ndarray):
        self.f = f
        self.out = out
        self.pieces: dict = {}  # key -> (p1, p2, points); p1, p2 keep the ids unique
        self.orders: dict = {}  # alpha -> key -> [(index, w1, w2)]
        self.size = 0

    def add(self, p1, p2, users):
        step = max(1, _RHS_CHUNK // p2.shape[0])
        for lo in range(0, p1.shape[0], step):
            key = (id(p1), id(p2), lo)
            if key not in self.pieces:
                # with no right factor the left rows are the points
                points = (p1[lo:lo + step] if p2 is _UNIT_POINTS
                          else cartesian(p1[lo:lo + step], p2))
                cost = max(points.shape[0], _PIECE_POINTS)
                if self.size + cost > _RHS_CHUNK:
                    self.flush()
                self.pieces[key] = (p1, p2, points)
                self.size += cost
            for index, w1, w2, alpha in users:
                self.orders.setdefault(alpha, {}).setdefault(key, []).append((index, w1, w2))

    def flush(self):
        # orders that meet the same pieces share one deriv_table call; add()
        # files each order's pieces in the same order, so keys compare whole
        groups: dict = {}  # piece keys -> alphas
        for alpha, by_piece in self.orders.items():
            groups.setdefault(tuple(by_piece), []).append(alpha)
        for keys, alphas in groups.items():
            points = [self.pieces[key][2] for key in keys]
            table = self.f.deriv_table(
                alphas, points[0] if len(points) == 1 else np.concatenate(points))
            for alpha, values in zip(alphas, table):
                row = 0
                for key, users in self.orders[alpha].items():
                    _, p2, pts = self.pieces[key]
                    block = values[row:row + pts.shape[0]].reshape(-1, p2.shape[0])
                    row += pts.shape[0]
                    rows = slice(key[2], key[2] + block.shape[0])
                    for index, w1, w2 in users:
                        self.out[index] += w1[rows] @ block @ w2
        self.pieces.clear()
        self.orders.clear()
        self.size = 0

