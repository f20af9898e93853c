"""Linear functionals acting on polynomials and smooth test functions.

Five kinds are supported: point evaluation, derivative evaluation, simplex
mean-value conditions on derivative data (the Kergin conditions), weighted
inner products against a basis polynomial, and tensor pairs acting on a
joined variable block.

Every functional discretizes itself into weighted point derivatives -- the
simplex conditions through Grundmann-Moller cubature of a requested
exactness.  Applied to a test function, it drives the function's exact
derivative evaluator at those points.  Its values on the graded-lex monomial
basis come from the same discretization at exactness ``degree``, paired with
the derivative Vandermonde of the monomials; the cubature integrates
polynomials of that degree exactly, so ``apply_to_polynomial`` is exact up to
rounding.  The Grundmann-Moller weights alternate in sign, so that rounding
grows with the degree: against the exact moment expansion the Kergin values
agree to 1e-11 (row-relative) through degree 10.  Inner products and tensor pairs reuse shared tables instead
(the measure's cached Vandermonde, the factor-rank split).
"""
from __future__ import annotations

import numpy as np

from .indexing import factor_ranks, monomial_count, monomial_vandermonde
from .measures import QuadratureMeasure, parse_measure
from .points import cartesian
from .polynomials import Polynomial
from .simplex import grundmann_moller_rule, rule_order_for_exactness
from .testfunctions import TestFunction

# Past 21 the Grundmann-Moller rules of order-11 and order-12 conditions
# outgrow the desk scale and the alternating weights add noise; projectors
# cap their own min(2 * degree + 5, ...) default here too.
DEFAULT_EXACTNESS = 21


def _point_array(point):
    return np.asarray(point, dtype=np.complex128).reshape(-1)


def _point_json(point):
    return [[float(z.real), float(z.imag)] for z in _point_array(point)]


def _point_from_json(obj):
    return np.array([complex(re, im) for re, im in obj], dtype=np.complex128)


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

    def apply_to_function(self, f: TestFunction, exactness: int | None = None) -> complex:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        if exactness is None:
            exactness = DEFAULT_EXACTNESS
        total = 0j
        for weights, pts, alpha in self.discretize(exactness):
            total += np.dot(weights, f.deriv_values(alpha, pts))
        return complex(total)

    def __call__(self, obj, exactness: int | None = None) -> complex:
        if isinstance(obj, Polynomial):
            return self.apply_to_polynomial(obj)
        if isinstance(obj, TestFunction):
            return self.apply_to_function(obj, exactness)
        raise TypeError(f"cannot apply a functional to {type(obj).__name__}")

    def to_json(self) -> dict:
        raise NotImplementedError


class PointEval(Functional):
    def __init__(self, point):
        super().__init__()
        self.point = _point_array(point)
        self.nvars = self.point.shape[0]

    def discretize(self, exactness):
        return [(np.array([1.0 + 0j]), self.point[None, :], (0,) * self.nvars)]

    def to_json(self):
        return {"type": "point_eval", "point": _point_json(self.point)}

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

    def to_json(self):
        return {
            "type": "derivative_eval",
            "alpha": list(self.alpha),
            "point": _point_json(self.point),
        }

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
        mapped = self.nodes[0][None, :] + tnodes @ (self.nodes[1:] - self.nodes[0])
        return [(weights.astype(np.complex128), mapped, self.alpha)]

    def to_json(self):
        return {
            "type": "kergin",
            "alpha": list(self.alpha),
            "nodes": [_point_json(row) for row in self.nodes],
        }

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

    def to_json(self):
        return {
            "type": "inner_product",
            "basis": self.basis.to_json(),
            "measure": self.measure.to_json(),
        }

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
        batches = []
        for w1, p1, a1 in self.left.discretize(exactness):
            for w2, p2, a2 in self.right.discretize(exactness):
                weights = (w1[:, None] * w2[None, :]).reshape(-1)
                batches.append((weights, cartesian(p1, p2), tuple(a1) + tuple(a2)))
        return batches

    def to_json(self):
        return {"type": "tensor", "left": self.left.to_json(), "right": self.right.to_json()}

    def __repr__(self):
        return f"Tensor({self.left!r}, {self.right!r})"


def parse_functional(obj: dict) -> Functional:
    kind = obj.get("type")
    if kind == "point_eval":
        return PointEval(_point_from_json(obj["point"]))
    if kind == "derivative_eval":
        return DerivativeEval(obj["alpha"], _point_from_json(obj["point"]))
    if kind == "kergin":
        nodes = np.array([_point_from_json(row) for row in obj["nodes"]])
        return KerginCondition(obj["alpha"], nodes)
    if kind == "inner_product":
        return InnerProduct(Polynomial.from_json(obj["basis"]), parse_measure(obj["measure"]))
    if kind == "tensor":
        return Tensor(parse_functional(obj["left"]), parse_functional(obj["right"]))
    raise ValueError(f"unknown functional type {kind!r}")
