"""Discrete quadrature measures and orthonormal polynomial bases.

A measure here is a finite positive quadrature rule: nodes, weights summing
to one, and a stated polynomial exactness degree, meaning every inner product
``<p, q> = int p conj(q) dmu`` with ``deg p + deg q`` at most that degree is
integrated exactly.  Orthonormal bases are produced by Gram-Schmidt in
graded-lex order with a second orthogonalization pass; basis values at the
quadrature nodes are carried through the recurrence so they stay accurate
even when the monomial coefficients of the basis grow large.  A measure
keeps the bases built on it, one per degree, with read-only arrays.
"""
from __future__ import annotations

import numpy as np

from .config import read_points, read_spec
from .indexing import degree_starts, monomial_count, monomial_vandermonde
from .points import as_rows, cartesian, chebyshev_nodes, equiangular_nodes
from .polynomials import Polynomial


class InsufficientExactness(ValueError):
    """The measure cannot resolve inner products at the requested degree."""


class DegenerateMeasure(ValueError):
    """Gram-Schmidt hit a numerically zero residual: too few usable nodes."""


class QuadratureMeasure:
    __slots__ = ("nodes", "weights", "exactness", "domain", "_spec", "_cache")

    def __init__(self, nodes, weights, exactness: int, domain: str = "custom", spec=None):
        nodes = as_rows(nodes)
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts disagree")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("quadrature weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self.exactness = int(exactness)
        self.domain = domain
        self._spec = spec
        self._cache: dict = {}

    @property
    def nvars(self) -> int:
        return self.nodes.shape[1]

    def monomial_values(self, degree: int) -> np.ndarray:
        """Values of every graded-lex monomial at the nodes, shape (N, M)."""
        have = self._cache.get("deg", -1)
        if degree > have:
            self._cache["deg"] = degree
            self._cache["vals"] = monomial_vandermonde(self.nodes, degree).T
        count = monomial_count(self.nvars, degree)
        return self._cache["vals"][:count]

    def integrate_values(self, fvals, gvals=None) -> complex:
        """``sum w * f * conj(g)`` over the nodes (g defaults to 1)."""
        fvals = np.asarray(fvals)
        if gvals is None:
            return complex(np.sum(self.weights * fvals))
        return complex(np.sum(self.weights * fvals * np.conj(gvals)))

    def poly_values(self, poly: Polynomial) -> np.ndarray:
        return poly.eval_many(self.nodes)

    def to_json(self) -> dict:
        if self._spec is not None:
            return dict(self._spec)
        return {
            "kind": "custom",
            "nodes": [[[z.real, z.imag] for z in row] for row in self.nodes],
            "weights": [float(w) for w in self.weights],
            "exactness": self.exactness,
            "domain": self.domain,
        }


def circle_measure(mnodes: int) -> QuadratureMeasure:
    """Normalized arclength on the unit circle, discretized equiangularly."""
    if mnodes < 1:
        raise ValueError("mnodes must be >= 1")
    nodes = equiangular_nodes(mnodes - 1)
    weights = np.full(mnodes, 1.0 / mnodes)
    return QuadratureMeasure(
        nodes, weights, exactness=mnodes - 1, domain="circle",
        spec={"kind": "circle", "mnodes": mnodes},
    )


def chebyshev_measure(mnodes: int) -> QuadratureMeasure:
    """The arcsine (Chebyshev) measure on [-1, 1] via Chebyshev-Gauss nodes."""
    if mnodes < 1:
        raise ValueError("mnodes must be >= 1")
    nodes = chebyshev_nodes(mnodes - 1)
    weights = np.full(mnodes, 1.0 / mnodes)
    return QuadratureMeasure(
        nodes, weights, exactness=2 * mnodes - 1, domain="interval",
        spec={"kind": "chebyshev", "mnodes": mnodes},
    )


def product_measure(m1: QuadratureMeasure, m2: QuadratureMeasure) -> QuadratureMeasure:
    """Tensor product measure; exactness is the minimum of the factors'."""
    nodes = cartesian(m1.nodes, m2.nodes)
    weights = (m1.weights[:, None] * m2.weights[None, :]).reshape(-1)
    spec = {"kind": "product", "factors": [m1.to_json(), m2.to_json()]}
    return QuadratureMeasure(
        nodes, weights, exactness=min(m1.exactness, m2.exactness),
        domain=f"product({m1.domain},{m2.domain})", spec=spec,
    )


def parse_measure(obj: dict) -> QuadratureMeasure:
    cfg = read_spec("measure", obj)
    kind = cfg["kind"]
    if kind in ("circle", "chebyshev"):
        build = circle_measure if kind == "circle" else chebyshev_measure
        return build(cfg["mnodes"])
    if kind == "product":
        factors = [parse_measure(f) for f in cfg["factors"]]
        measure = factors[0]
        for extra in factors[1:]:
            measure = product_measure(measure, extra)
        return measure
    # custom
    return QuadratureMeasure(read_points("nodes", cfg["nodes"]), cfg["weights"],
                             cfg["exactness"], cfg["domain"])


class OrthonormalBasis:
    """Graded-lex orthonormal polynomials for a quadrature measure.

    ``polys[i]`` is the basis element whose leading monomial has rank ``i``;
    ``node_values[i]`` holds its values at the measure nodes.
    """

    def __init__(self, measure, degree, coeff_matrix, node_values):
        self.measure = measure
        self.degree = int(degree)
        self.coeff_matrix = coeff_matrix
        self.node_values = node_values
        self.polys = [
            Polynomial(measure.nvars, degree, coeff_matrix[i])
            for i in range(coeff_matrix.shape[0])
        ]

    def __len__(self):
        return len(self.polys)

    def gram_residual(self) -> float:
        """Max deviation of the discrete Gram matrix from the identity."""
        w = self.measure.weights
        G = (self.node_values * w[None, :]) @ self.node_values.conj().T
        return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def gram_schmidt_basis(measure: QuadratureMeasure, degree: int) -> OrthonormalBasis:
    """The orthonormal basis of degree ``degree``, built once per measure.

    It is kept in the measure's cache under its exact degree, with read-only
    coefficients and node values.  A lower degree's basis is not sliced
    from it: the products ``h @ coeffs[:i]`` of the recurrence take the
    width of the whole table, so the slice would round apart from a fresh
    build.
    """
    if measure.exactness < 2 * degree:
        raise InsufficientExactness(
            f"measure exactness {measure.exactness} cannot support an "
            f"orthonormal basis of degree {degree} (need >= {2 * degree})"
        )
    key = ("gram_schmidt", degree)
    if key not in measure._cache:
        measure._cache[key] = _gram_schmidt(measure, degree)
    return measure._cache[key]


def _gram_schmidt(measure: QuadratureMeasure, degree: int) -> OrthonormalBasis:
    V = measure.monomial_values(degree)
    N = V.shape[0]
    w = measure.weights
    values = np.zeros_like(V)
    coeffs = np.zeros((N, N), dtype=np.complex128)
    for i in range(N):
        vec = V[i].copy()
        coef = np.zeros(N, dtype=np.complex128)
        coef[i] = 1.0
        for _ in range(2):  # re-orthogonalize: twice is enough
            if i:
                h = values[:i].conj() @ (w * vec)
                vec -= h @ values[:i]
                coef -= h @ coeffs[:i]
        norm = np.sqrt(float(np.sum(w * np.abs(vec) ** 2)))
        if norm < 1e-13:
            raise DegenerateMeasure(
                f"monomial of rank {i} is numerically dependent on its "
                f"predecessors under this measure"
            )
        values[i] = vec / norm
        coeffs[i] = coef / norm
    coeffs.setflags(write=False)
    values.setflags(write=False)
    return OrthonormalBasis(measure, degree, coeffs, values)


class BMDiagnostic:
    """Per-degree sup norms of an orthonormal basis and their growth rate."""

    def __init__(self, degrees, max_norms, rate):
        self.degrees = degrees
        self.max_norms = max_norms
        self.rate = rate

    def __repr__(self):
        return f"BMDiagnostic(rate={self.rate:.4f}, degrees=0..{self.degrees[-1]})"


def bm_diagnostic(basis: OrthonormalBasis, sample_points) -> BMDiagnostic:
    """Growth of sup norms of the basis over a compact sample set.

    A growth rate near 1 is the Bernstein-Markov signature; rates clearly
    above 1 mean the measure is too thin for the sampled compact.
    """
    pts = as_rows(sample_points)
    starts = degree_starts(basis.measure.nvars, basis.degree)
    degrees = list(range(basis.degree + 1))
    max_norms = []
    for j in degrees:
        block_max = 0.0
        for i in range(starts[j], starts[j + 1]):
            block_max = max(block_max, float(np.max(np.abs(basis.polys[i].eval_many(pts)))))
        max_norms.append(block_max)
    logs = np.log(np.maximum(max_norms, 1e-300))
    slope = np.polyfit(degrees, logs, 1)[0] if len(degrees) > 1 else 0.0
    return BMDiagnostic(degrees, max_norms, float(np.exp(slope)))
