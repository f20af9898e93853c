"""Linear functionals acting on polynomials and smooth test functions.

Five kinds are supported: point evaluation, derivative evaluation, simplex
mean-value conditions on derivative data (the Kergin conditions), weighted
inner products against a basis polynomial, and tensor pairs acting on a
joined variable block.

Every functional discretizes itself into weighted point derivatives -- the
simplex conditions through Grundmann-Moller cubature of a requested
exactness.  Its values on the graded-lex monomial basis come from the same
discretization at exactness ``degree``, paired with the derivative
Vandermonde of the monomials; the cubature integrates polynomials of that
degree exactly, so ``apply_to_polynomial`` is exact up to rounding.  The
Grundmann-Moller weights alternate in sign, so that rounding grows with the
degree: against the exact moment expansion the Kergin values agree to 1e-11
(row-relative) through degree 10.  Inner products and tensor pairs reuse
shared tables instead (the measure's cached Vandermonde, the factor-rank
split).

On a test function, ``rhs`` applies a whole list of functionals at once and
``apply_to_function`` is its one-functional case.  It discretizes each
factor of a tensor pair once, and Kergin conditions on the same nodes share
one mapped rule, dropped once the conditions that use it are done and its
last pending piece is evaluated.  A tensor batch is cut into row pieces of
about ``_RHS_CHUNK`` points instead of being built whole; pieces of one
derivative order are merged into one ``deriv_values`` call up to that many
distinct points, and a piece that several conditions share is evaluated
once for each derivative order they ask of it.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .indexing import DESK_LIMIT, factor_ranks, monomial_count, monomial_vandermonde
from .measures import QuadratureMeasure
from .points import cartesian
from .polynomials import Polynomial
from .simplex import grundmann_moller_rule, rule_order_for_exactness
from .testfunctions import TestFunction

# Past 21 the Grundmann-Moller rules of order-11 and order-12 conditions
# outgrow the desk scale and the alternating weights add noise; projectors
# cap their own min(2 * degree + 5, ...) default here too.
DEFAULT_EXACTNESS = 21

# Distinct points per deriv_values call of ``rhs``: small batches merge up to
# it and larger tensor batches are cut into row pieces of about this size.
# A pending piece counts as at least _PIECE_POINTS points, about what its
# Python objects weigh, so one-point pieces do not pile up by the thousand.
_RHS_CHUNK = 4096
_PIECE_POINTS = 64


def _point_array(point):
    return np.asarray(point, dtype=np.complex128).reshape(-1)


class Functional:
    """Base class; concrete kinds implement ``discretize`` and friends."""

    nvars: int

    def __init__(self):
        self._mono_cache: tuple[int, np.ndarray] | None = None

    # -- exact action on polynomials ------------------------------------

    def on_monomials(self, degree: int) -> np.ndarray:
        """Values on every graded-lex monomial of degree <= ``degree``."""
        cached = self._mono_cache
        if cached is None or cached[0] < degree:
            self._mono_cache = (degree, self._monomial_values(degree))
        return self._mono_cache[1][: monomial_count(self.nvars, degree)]

    def _monomial_values(self, degree: int) -> np.ndarray:
        return sum(
            weights @ monomial_vandermonde(pts, degree, alpha)
            for weights, pts, alpha in self.discretize(degree)
        )

    def apply_to_polynomial(self, poly: Polynomial) -> complex:
        if poly.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return complex(np.dot(poly.coeffs, self.on_monomials(poly.degree)))

    # -- action on smooth functions --------------------------------------

    def discretize(self, exactness: int):
        """Weighted point-derivative batches ``(weights, points, alpha)``."""
        raise NotImplementedError

    def _rule_key(self):
        """Functionals with equal keys discretize alike up to ``alpha``."""
        return id(self)

    def _batches(self, exactness: int, memo: dict):
        """``discretize(exactness)``, computed once per key of ``memo``."""
        key = self._rule_key()
        if key not in memo:
            memo[key] = self.discretize(exactness)
        return memo[key]

    def apply_to_function(self, f: TestFunction, exactness: int | None = None) -> complex:
        return complex(rhs([self], f, exactness)[0])

    def __call__(self, obj, exactness: int | None = None) -> complex:
        if isinstance(obj, Polynomial):
            return self.apply_to_polynomial(obj)
        if isinstance(obj, TestFunction):
            return self.apply_to_function(obj, exactness)
        raise TypeError(f"cannot apply a functional to {type(obj).__name__}")


class PointEval(Functional):
    def __init__(self, point):
        super().__init__()
        self.point = _point_array(point)
        self.nvars = self.point.shape[0]

    def discretize(self, exactness):
        return [(np.array([1.0 + 0j]), self.point[None, :], (0,) * self.nvars)]

    def __repr__(self):
        return f"PointEval({self.point})"


class DerivativeEval(Functional):
    def __init__(self, alpha, point):
        super().__init__()
        self.point = _point_array(point)
        self.nvars = self.point.shape[0]
        self.alpha = tuple(int(a) for a in alpha)
        if len(self.alpha) != self.nvars or any(a < 0 for a in self.alpha):
            raise ValueError(f"bad derivative order {alpha}")

    def discretize(self, exactness):
        return [(np.array([1.0 + 0j]), self.point[None, :], self.alpha)]

    def __repr__(self):
        return f"DerivativeEval(alpha={self.alpha}, point={self.point})"


class KerginCondition(Functional):
    """Unnormalized simplex mean of ``D^alpha f`` along interpolation nodes.

    With ``j = |alpha|`` and nodes ``z_0 .. z_j`` the functional is

        f -> int_{T_j} (D^alpha f)(z_0 + sum_i t_i (z_i - z_0)) dt,

    the plain Lebesgue integral over the unit simplex (so level-j conditions
    carry a natural 1/j! volume factor).
    """

    def __init__(self, alpha, nodes):
        super().__init__()
        self.alpha = tuple(int(a) for a in alpha)
        nodes = np.asarray(nodes, dtype=np.complex128)
        if nodes.ndim == 1:
            nodes = nodes.reshape(-1, 1)
        self.nodes = nodes
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
        # the mapped rule depends on the nodes alone
        return ("kergin", self.nodes.shape, self.nodes.tobytes())

    def _batches(self, exactness, memo):
        (weights, mapped, _), = super()._batches(exactness, memo)
        return [(weights, mapped, self.alpha)]

    def __repr__(self):
        return f"KerginCondition(alpha={self.alpha}, nodes={len(self.nodes)})"


class InnerProduct(Functional):
    """``f -> int f conj(b) dmu`` for a basis polynomial b and measure mu.

    Optional precomputed basis values at the measure nodes avoid re-evaluating
    high-degree coefficient forms (Gram-Schmidt carries exact node values).
    """

    def __init__(self, basis: Polynomial, measure: QuadratureMeasure, basis_values=None):
        super().__init__()
        if basis.nvars != measure.nvars:
            raise ValueError("basis and measure variable counts disagree")
        self.basis = basis
        self.measure = measure
        self.nvars = basis.nvars
        if basis_values is None:
            basis_values = measure.poly_values(basis)
        self._bvals = np.asarray(basis_values, dtype=np.complex128)

    def _weighted_conj(self):
        return self.measure.weights * np.conj(self._bvals)

    def _monomial_values(self, degree):
        V = self.measure.monomial_values(degree)
        return V @ self._weighted_conj()

    def discretize(self, exactness):
        return [(self._weighted_conj(), self.measure.nodes, (0,) * self.nvars)]

    def __repr__(self):
        return f"InnerProduct(basis_degree={self.basis.degree}, domain={self.measure.domain})"


class Tensor(Functional):
    """``(mu (x) nu)(f)``: mu in the left variable block, nu in the right.

    On polynomials the action splits exactly along the graded-lex coefficient
    decomposition; on test functions it multiplies out the factor
    discretizations (iterated quadrature/evaluation).
    """

    def __init__(self, left: Functional, right: Functional):
        super().__init__()
        self.left = left
        self.right = right
        self.nvars = left.nvars + right.nvars

    def _monomial_values(self, degree):
        r1, r2 = factor_ranks(self.left.nvars, self.right.nvars, degree)
        return self.left.on_monomials(degree)[r1] * self.right.on_monomials(degree)[r2]

    def discretize(self, exactness):
        return self._batches(exactness, {})

    def _batches(self, exactness, memo):
        key = self._rule_key()
        if key not in memo:
            memo[key] = [
                ((w1[:, None] * w2[None, :]).reshape(-1), cartesian(p1, p2),
                 tuple(a1) + tuple(a2))
                for w1, p1, a1 in self.left._batches(exactness, memo)
                for w2, p2, a2 in self.right._batches(exactness, memo)
            ]
        return memo[key]

    def __repr__(self):
        return f"Tensor({self.left!r}, {self.right!r})"


# the right factor of a condition that is not a tensor pair
_UNIT = [(np.ones(1, dtype=np.complex128), np.zeros((1, 0), dtype=np.complex128), ())]


def rhs(conditions, f: TestFunction, exactness: int | None = None) -> np.ndarray:
    """Values of every functional in ``conditions`` on the test function f.

    Conditions are grouped by the rule of their left factor (a condition
    that is not a tensor pair is its own left factor).  A group
    discretizes its left factors once and drops them when it is done; right
    factors are discretized once per call.  Each pair of factor batches is
    handed on whole, with the conditions that use it, so its row pieces are
    built once for all of them.  ``exactness`` defaults to
    ``DEFAULT_EXACTNESS``; a Kergin condition whose rule at that exactness
    would pass the desk scale raises ``ValueError`` before any rule is built.
    """
    conditions = list(conditions)
    if any(mu.nvars != f.nvars for mu in conditions):
        raise ValueError("variable count mismatch")
    if exactness is None:
        exactness = DEFAULT_EXACTNESS
    groups: dict = {}
    top_order = 0
    for i, mu in enumerate(conditions):
        left, right = (mu.left, mu.right) if isinstance(mu, Tensor) else (mu, None)
        groups.setdefault(left._rule_key(), []).append((i, left, right))
        top_order = max(top_order, _kergin_order(mu))
    _check_rule_size(top_order, exactness)
    out = np.zeros(len(conditions), dtype=np.complex128)
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
                    users.append((i, w1, w2, tuple(a1) + tuple(a2)))
        for p1, p2, users in pairs.values():
            pending.add(p1, p2, users)
    pending.flush()
    return out


def _kergin_order(mu: Functional) -> int:
    """Largest order of a Kergin factor of mu, 0 if it has none."""
    if isinstance(mu, Tensor):
        return max(_kergin_order(mu.left), _kergin_order(mu.right))
    return mu.order if isinstance(mu, KerginCondition) else 0


def _check_rule_size(order: int, exactness: int):
    """Refuse an order-``order`` rule past the desk scale, naming a way out.

    The Grundmann-Moller rule of an order-j condition has
    ``monomial_count(j + 1, s)`` points; its size grows with the order, so
    checking the largest order checks them all.
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
    """Row pieces of tensor batches waiting for their ``deriv_values`` calls.

    A batch ``(w1, p1) x (w2, p2)`` is cut into pieces of whole left rows,
    each ``cartesian(p1[lo:hi], p2)``.  A piece is keyed by its factor arrays
    and first row, so every condition and derivative order that meets it
    again uses the same points.  Once the distinct points (each piece
    counting at least ``_PIECE_POINTS``) would pass ``_RHS_CHUNK``, every
    order's pieces go to one ``deriv_values`` call and each condition adds
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
                points = cartesian(p1[lo:lo + step], p2)
                cost = max(points.shape[0], _PIECE_POINTS)
                if self.size + cost > _RHS_CHUNK:
                    self.flush()
                self.pieces[key] = (p1, p2, points)
                self.size += cost
            for index, w1, w2, alpha in users:
                self.orders.setdefault(alpha, {}).setdefault(key, []).append((index, w1, w2))

    def flush(self):
        for alpha, by_piece in self.orders.items():
            points = [self.pieces[key][2] for key in by_piece]
            values = self.f.deriv_values(
                alpha, points[0] if len(points) == 1 else np.concatenate(points))
            row = 0
            for key, users in by_piece.items():
                _, p2, pts = self.pieces[key]
                block = values[row:row + pts.shape[0]].reshape(-1, p2.shape[0])
                row += pts.shape[0]
                rows = slice(key[2], key[2] + block.shape[0])
                for index, w1, w2 in users:
                    self.out[index] += w1[rows] @ block @ w2
        self.pieces.clear()
        self.orders.clear()
        self.size = 0

