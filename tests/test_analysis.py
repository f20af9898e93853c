"""Compact models, decay-rate fits, norm geometry, growth bounds."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from nprox.extremal import (
    CompactModel,
    above_floor,
    bws_check,
    fit_decay_rate,
    parse_compact,
    rho_estimate,
)
from nprox.growth import (
    CombinedNorm,
    GrowthParams,
    LpNorm,
    gelfond_constant,
    growth_norm_monomial,
    mn_radius_max,
    omega_density,
    parse_norm,
    power_series_coeff_bound,
)
from nprox.measures import chebyshev_measure, circle_measure, product_measure
from nprox.polynomials import Polynomial
from nprox.indexing import exponents, monomial_count
from nprox.testfunctions import Affine, Exp, PolynomialFunction, Recip


def random_poly(rng, nvars, degree, cplx=True):
    n = monomial_count(nvars, degree)
    c = rng.standard_normal(n)
    if cplx:
        c = c + 1j * rng.standard_normal(n)
    return Polynomial(nvars, degree, c)


# -- compact models ------------------------------------------------------------


def test_extremal_function_vanishes_on_the_set():
    for model in (CompactModel("interval"), CompactModel("disk"),
                  CompactModel("product", ["interval", "disk"])):
        pts = model.sample_points(200)
        vals = model.extremal_value(pts)
        assert np.all(vals >= -1e-12)
        assert np.max(np.abs(vals)) < 1e-10


def test_interval_extremal_closed_form():
    model = CompactModel("interval")
    # real points beyond the segment: log(x + sqrt(x^2-1))
    for x in (1.5, 2.0, 3.0, 10.0):
        want = math.log(x + math.sqrt(x * x - 1.0))
        got = model.extremal_value(np.array([x + 0j]))[0]
        assert abs(got - want) < 1e-12
    # purely imaginary: log(y + sqrt(y^2+1))
    for y in (0.5, 1.0, 2.0):
        want = math.log(y + math.sqrt(y * y + 1.0))
        got = model.extremal_value(np.array([1j * y]))[0]
        assert abs(got - want) < 1e-12


def test_disk_extremal_closed_form():
    model = CompactModel("disk")
    z = np.array([0.3 + 0.1j, 1.0j, 2.0 + 0j, -3.0j, 5.0 + 5.0j])
    want = np.maximum(0.0, np.log(np.abs(z)))
    got = model.extremal_value(z)
    assert np.max(np.abs(got - want)) < 1e-12


def test_product_extremal_is_pointwise_max(rng=np.random.default_rng(7)):
    a = CompactModel("interval")
    b = CompactModel("disk")
    prod = CompactModel("product", ["interval", "disk"])
    z = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    za, zb = z[:, :1], z[:, 1:]
    want = np.maximum(a.extremal_value(za), b.extremal_value(zb))
    assert np.max(np.abs(prod.extremal_value(z) - want)) < 1e-12


def test_extremal_value_checks_the_point_width():
    model = CompactModel("product", ["interval", "disk"])
    with pytest.raises(ValueError, match="coordinates"):
        model.extremal_value(np.ones((4, 3)))
    with pytest.raises(ValueError, match="coordinates"):
        model.extremal_value(np.ones(4))
    # one point of nvars coordinates, or a scalar in one variable, is a float
    assert model.extremal_value(np.array([2.0, 0.5])) == pytest.approx(math.log(2 + math.sqrt(3)))
    assert CompactModel("disk").extremal_value(3.0) == pytest.approx(math.log(3.0))


@pytest.mark.parametrize("kind", ["interval", "disk"])
@pytest.mark.parametrize("R", [1.5, 2.0, 4.0])
def test_level_set_boundary_sits_at_log_R(kind, R):
    model = CompactModel(kind)
    pts = model.level_set_boundary(R, 128)
    vals = model.extremal_value(pts)
    assert np.max(np.abs(vals - math.log(R))) < 1e-10


def test_product_level_set_boundary():
    model = CompactModel("product", ["interval", "disk"])
    pts = model.level_set_boundary(2.0, 100)
    vals = model.extremal_value(pts)
    # the combined sublevel set is the product, so its distinguished
    # boundary keeps the max of the factor functions at log R
    assert np.max(vals) < math.log(2.0) + 1e-10
    assert np.max(vals) > math.log(2.0) - 1e-10


@pytest.mark.parametrize("count", [200, 64 ** 3])
def test_product_samples_keep_both_interval_endpoints(count):
    flat = CompactModel("product", ["interval", "interval"])
    nested = CompactModel("product", ["interval", CompactModel("product", ["interval", "interval"])])
    for model in (flat, nested):
        pts = model.sample_points(count)
        # one resolution r for every leaf, r ** nvars >= count, never cut
        r = min(len(b) for b in model.sample_blocks(count))
        assert all(len(b) == r for b in model.sample_blocks(count))
        assert r ** model.nvars >= count > (r - 1) ** model.nvars
        assert pts.shape == (r ** model.nvars, model.nvars)
        for v in range(model.nvars):
            assert np.unique(pts[:, v]).size == r
            assert pts[:, v].real.min() == -1.0 and pts[:, v].real.max() == 1.0


def test_product_level_set_takes_the_sample_resolution():
    model = CompactModel("product", ["interval", CompactModel("product", ["disk", "interval"])])
    pts = model.level_set_boundary(1.5, 1000)
    assert pts.shape == (1000, 3)
    assert np.max(np.abs(model.extremal_value(pts) - math.log(1.5))) < 1e-10


def test_parse_compact_round_trip():
    for model in (CompactModel("interval"),
                  CompactModel("product", ["disk", "interval"])):
        again = parse_compact(model.to_json())
        assert again.kind == model.kind
        assert again.nvars == model.nvars


def test_level_set_requires_R_above_one():
    with pytest.raises(ValueError):
        CompactModel("disk").level_set_boundary(0.9, 16)


# -- polynomial growth across level sets ---------------------------------------


def test_bws_monomial_on_disk_is_exactly_one():
    model = CompactModel("disk")
    for d in (1, 3, 7):
        c = np.zeros(d + 1)
        c[-1] = 1.0
        p = Polynomial(1, d, c)
        assert abs(bws_check(p, model, 2.0) - 1.0) < 1e-12


def test_bws_chebyshev_polynomial_closed_form():
    # T_7 maximizes growth off the segment among monic-normalized degree 7;
    # on the R-ellipse its modulus peaks at (R^7 + R^-7)/2
    c = np.array([0.0, -7.0, 0.0, 56.0, 0.0, -112.0, 0.0, 64.0])
    p = Polynomial(1, 7, c)
    model = CompactModel("interval")
    for R in (1.5, 2.0):
        want = 0.5 * (R**7 + R**-7) / R**7
        assert abs(bws_check(p, model, R) - want) < 1e-9


def test_bws_random_sweep_never_exceeds_one():
    rng = np.random.default_rng(11)
    models = [CompactModel("interval"), CompactModel("disk"),
              CompactModel("product", ["interval", "interval"])]
    for model in models:
        for _ in range(12):
            d = int(rng.integers(1, 8))
            p = random_poly(rng, model.nvars, d)
            for R in (1.5, 2.0):
                assert bws_check(p, model, R) <= 1.0 + 1e-9


# -- decay-rate fitting ---------------------------------------------------------


def test_fit_decay_rate_exact_geometric():
    degrees = np.arange(2, 30)
    errors = 3.0 * 0.25**degrees
    rate, stderr, used = fit_decay_rate(degrees, errors)
    assert abs(rate - 0.25) < 1e-12
    assert stderr < 1e-12


def test_fit_decay_rate_ignores_roundoff_floor():
    degrees = np.arange(40)
    errors = np.maximum(0.5**degrees, 1e-14)
    rate, _, used = fit_decay_rate(degrees, errors)
    assert abs(rate - 0.5) < 1e-6
    # the flat tail must not be part of the fit
    assert degrees[used].max() <= 46


def test_above_floor_cuts_relative_to_the_largest_error():
    # the floor is 1e-13 of the largest error, or of 1 below it
    assert list(above_floor([1e3, 2e-10, 1e-10, 0.0])) == [0, 1]
    assert list(above_floor([1e-12, 1e-13, 1e-14])) == [0]
    assert list(above_floor([1e-15, 1.8e-15])) == []


def test_fit_decay_rate_too_few_points():
    rate, stderr, used = fit_decay_rate([1, 2, 3], [1e-15, 1e-15, 1e-16])
    assert rate == 0.0


def test_rho_estimate_interval_poles():
    model = CompactModel("interval")
    measure = chebyshev_measure(256)
    for c in (1.5, 2.0, 3.0):
        f = Recip(Affine(np.array([1.0]), -c))
        est = rho_estimate(f, model, 24, measure)
        want = c + math.sqrt(c * c - 1.0)
        assert abs(est.rho - want) < 0.10 * want


def test_rho_estimate_polynomial_is_off_scale():
    model = CompactModel("interval")
    f = PolynomialFunction(Polynomial(1, 3, np.array([0.0, 1.0, 0.0, 2.0])))
    est = rho_estimate(f, model, 20, chebyshev_measure(128))
    assert math.isinf(est.rho)
    assert est.floor_hit


def test_rho_estimate_disk_pole():
    model = CompactModel("disk")
    f = Recip(Affine(np.array([1.0]), -2.0))
    est = rho_estimate(f, model, 24, circle_measure(256))
    assert abs(est.rho - 2.0) < 0.05


def test_rho_estimate_product_takes_the_nearest_factor():
    model = CompactModel("product", ["interval", "interval"])
    measure = product_measure(chebyshev_measure(64), chebyshev_measure(64))
    # poles at 2 (rho 3.73) and 5 (rho 9.90); the slower factor wins
    f = Recip(Affine(np.array([1.0, 0.0]), -2.0))
    est = rho_estimate(f, model, 16, measure, grid=1024)
    want = 2.0 + math.sqrt(3.0)
    assert abs(est.rho - want) < 0.10 * want


# -- norms and their monomial maxima ---------------------------------------------


def _delta_oracle(norm, alpha, rng, samples=20000):
    """Dense feasible sampling plus a derivative-free polish.

    The constrained problem is rewritten scale-free: maximizing
    sum(a log x) - |a| log N(x) over positive x needs no constraint, and
    its optimum equals log of the monomial max on the unit ball.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    sup = alpha > 0
    if not sup.any():
        return 1.0
    total = float(alpha.sum())
    x0 = np.abs(rng.standard_normal((samples, n)))
    x0[:, ~sup] = 0.0
    x0 /= norm.value(x0)[:, None]
    logs = np.full(samples, -np.inf)
    pos = np.all(x0[:, sup] > 0, axis=1)
    logs[pos] = np.log(x0[np.ix_(pos, sup)]) @ alpha[sup]
    best = float(np.max(logs))

    def embed(u):
        x = np.zeros(n)
        x[sup] = np.exp(u)
        return x

    def negobj(u):
        x = embed(u)
        return -(float(alpha[sup] @ u) - total * math.log(float(norm.value(x)[0])))

    res = minimize(negobj, np.log(x0[int(np.argmax(logs))][sup]),
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    best = max(best, -float(res.fun))
    return math.exp(best)


def _norm_menu():
    return [
        LpNorm(1, 2),
        LpNorm(2, 2),
        LpNorm(math.inf, 3),
        LpNorm(1, 3),
        CombinedNorm(LpNorm(math.inf, 1), LpNorm(1, 2), weights=(2.0, 0.5)),
        CombinedNorm(LpNorm(2, 2), LpNorm(math.inf, 1), weights=(1.0, 3.0),
                     omega=2.0),
        CombinedNorm(LpNorm(1, 1), LpNorm(1, 1), weights=(0.7, 1.3),
                     omega=3.0),
    ]


def test_monomial_max_closed_forms_against_optimizer():
    rng = np.random.default_rng(23)
    for norm in _norm_menu():
        for _ in range(4):
            alpha = rng.integers(0, 4, size=norm.nvars)
            want = _delta_oracle(norm, alpha, rng)
            got = norm.delta(alpha)
            assert got >= want * (1.0 - 1e-9)
            assert abs(got - want) < 1e-6 * max(want, 1e-6)


def test_monomial_max_simple_values():
    assert LpNorm(math.inf, 4).delta([3, 0, 2, 5]) == 1.0
    assert abs(LpNorm(1, 2).delta([1, 1]) - 0.25) < 1e-15
    assert abs(LpNorm(2, 2).delta([1, 1]) - 0.5) < 1e-15
    assert LpNorm(1, 2).delta([0, 0]) == 1.0


def test_combined_norm_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CombinedNorm(LpNorm(1, 1), LpNorm(1, 1), omega=0.5)
    with pytest.raises(ValueError):
        CombinedNorm(LpNorm(1, 1), LpNorm(1, 1), weights=(1.0, 0.0))
    with pytest.raises(ValueError):
        LpNorm(3, 2)


def test_lp_norm_checks_the_point_width():
    with pytest.raises(ValueError, match="coordinates"):
        LpNorm(2, 2).value(np.ones((4, 3)))


def test_combined_norm_checks_the_point_width():
    with pytest.raises(ValueError, match="coordinates"):
        CombinedNorm(LpNorm(2, 1), LpNorm(1, 1)).value(np.ones((4, 3)))


def test_norm_json_round_trips():
    rng = np.random.default_rng(5)
    for norm in _norm_menu():
        again = parse_norm(norm.to_json())
        z = rng.standard_normal((32, norm.nvars)) * (1 +
            0j) + 1j * rng.standard_normal((32, norm.nvars))
        assert np.max(np.abs(again.value(z) - norm.value(z))) < 1e-14
    with pytest.raises(ValueError):
        parse_norm({"kind": "l7"})


def test_growth_normalized_monomial_matches_1d_maximization():
    rng = np.random.default_rng(31)
    for norm in (LpNorm(1, 2), LpNorm(math.inf, 2),
                 CombinedNorm(LpNorm(1, 1), LpNorm(math.inf, 1),
                              weights=(1.0, 2.0), omega=2.0)):
        for omega, A in ((1.0, 1.0), (2.0, 0.5), (1.5, 2.0)):
            params = GrowthParams(omega, A, norm)
            for _ in range(4):
                alpha = rng.integers(0, 5, size=norm.nvars)
                total = int(np.sum(alpha))
                d = norm.delta(alpha)

                def neg_log(s):
                    return -(math.log(d) + total * s
                             - A * math.exp(omega * s))

                got = growth_norm_monomial(alpha, params)
                if total == 0:
                    assert got == d
                    continue
                res = minimize_scalar(neg_log, bounds=(-30.0, 30.0),
                                      method="bounded",
                                      options={"xatol": 1e-13})
                want = math.exp(-res.fun)
                assert abs(got - want) < 1e-8 * want


def test_growth_params_validation():
    with pytest.raises(ValueError):
        GrowthParams(0.0, 1.0, LpNorm(1, 1))
    with pytest.raises(ValueError):
        GrowthParams(1.0, -1.0, LpNorm(1, 1))


def test_radius_max_scales_with_homogeneous_degree():
    # for a homogeneous polynomial the sampled max over N <= t scales as t^k
    norm = LpNorm(2, 2)
    c = np.zeros(monomial_count(2, 2))
    c[-1] = 1.0  # a pure degree-2 monomial
    p = Polynomial(2, 2, c)
    m1 = mn_radius_max(p, norm, 1.0, seed=3)
    m2 = mn_radius_max(p, norm, 2.0, seed=3)
    assert abs(m2 - 4.0 * m1) < 1e-12 * max(1.0, m2)


def test_coefficient_bound_holds_on_random_sweeps():
    rng = np.random.default_rng(17)
    for norm in (LpNorm(1, 2), LpNorm(math.inf, 2)):
        for _ in range(6):
            p = random_poly(rng, 2, int(rng.integers(1, 5)))
            t = float(rng.uniform(0.5, 2.0))
            exps = exponents(p.nvars, p.degree)
            k = int(rng.integers(0, exps.shape[0]))
            bound, holds = power_series_coeff_bound(p, exps[k], norm, t,
                                                    seed=int(rng.integers(1e6)))
            assert holds
            assert abs(p.coeff(exps[k])) <= bound * (1.0 + 1e-9)


def test_coefficient_bound_tight_for_monomials():
    norm = LpNorm(1, 2)
    c = np.zeros(monomial_count(2, 3))
    c[-1] = 1.0
    p = Polynomial(2, 3, c)
    exps = exponents(2, 3)
    bound, holds = power_series_coeff_bound(p, exps[-1], norm, 1.3, seed=2)
    assert holds
    # for a pure monomial the bound is attained, not just valid
    assert abs(bound - 1.0) < 1e-9


# -- the threshold constant and sequence densities ------------------------------


def _gelfond_series(omega, terms=260):
    # expand 1/(1-t) and integrate termwise on [0, 1/2]
    return sum(0.5 ** (omega + k) / (omega + k) for k in range(terms))


def test_gelfond_constant_against_series():
    for omega in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        want = _gelfond_series(omega)
        assert abs(gelfond_constant(omega) - want) < 1e-10


def test_gelfond_constant_at_one_is_log_two():
    # c(1) = ln 2, c(2) = ln 2 - 1/2 and, with t = u^2, c(1/2) = 2 artanh(1/sqrt 2)
    for omega, want in ((1.0, math.log(2.0)), (2.0, math.log(2.0) - 0.5),
                        (0.5, 2.0 * math.log(1.0 + math.sqrt(2.0)))):
        assert abs(gelfond_constant(omega) - want) <= 4e-16 * want


def test_gelfond_constant_decreasing_in_omega():
    vals = [gelfond_constant(w) for w in (0.3, 0.7, 1.0, 1.8, 3.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_omega_density_of_integer_sequences():
    norm = LpNorm(math.inf, 1)
    pts = np.arange(1, 5000, dtype=float).reshape(-1, 1)
    assert abs(omega_density(pts, norm, 1.0, 2048.0) - 1.0) < 0.05
    assert abs(omega_density(2.0 * pts, norm, 1.0, 2048.0) - 0.5) < 0.05
    assert omega_density(pts, norm, 2.0, 2048.0) < 0.05


def test_omega_density_needs_enough_points():
    norm = LpNorm(math.inf, 1)
    pts = np.arange(1, 10, dtype=float).reshape(-1, 1)
    with pytest.raises(ValueError):
        omega_density(pts, norm, 1.0, 100.0)


@pytest.mark.parametrize("rmax", [-5.0, 0.0])
def test_omega_density_needs_a_positive_rmax(rmax):
    # -5 used to give a NaN density and a RuntimeWarning from np.geomspace
    pts = np.arange(1, 200, dtype=float).reshape(-1, 1)
    with pytest.raises(ValueError, match="rmax must be positive"):
        omega_density(pts, LpNorm(math.inf, 1), 1.0, rmax)


@pytest.mark.parametrize("omega", [-1.0, 0.0])
def test_omega_density_needs_a_positive_omega(omega):
    # -1 used to give a density of 50.27
    pts = np.arange(1, 200, dtype=float).reshape(-1, 1)
    with pytest.raises(ValueError, match="omega must be positive"):
        omega_density(pts, LpNorm(math.inf, 1), omega, 100.0)
