"""Hamiltonians, residues and the closed-form tau function."""

import cmath
import math

import numpy as np
import pytest

from elliptau.checks import ring_moments
from elliptau.errors import DegenerateParameterError
from elliptau.isomono import make_params
from elliptau.scenario import SplitMix64
from elliptau.tau import (
    H_nu,
    H_t,
    _c1,
    sigma_shift_dlog_tau_dt,
    sigma_shift_tau,
    sigma_shift_trace_residual,
    sigma_shift_y1,
    df_de,
    f_func,
    log_tau,
    omega_a_de_component,
    residue_formula,
)
from elliptau.elliptic import sigma, sigma_jet, wp, zeta, zeta_jet


def test_f_golden_value():
    # -2 + 0 + 3 (1 + 1/4 + 1/9) = 25/12 by exact arithmetic
    assert abs(f_func(1.0, 0.0, -1.0, 2.0) - 25.0 / 12.0) < 1e-14


def test_f_translation_covariance():
    rng = SplitMix64(51)
    for _ in range(10):
        es = [rng.complex_box(-1, 1) for _ in range(3)]
        a = 2.1 + rng.complex_box(-0.2, 0.2)
        c = rng.complex_box(-1, 1)
        lhs = f_func(*(e + c for e in es), a + c)
        assert abs(lhs - f_func(*es, a)) < 1e-12


def test_f_finite_at_branch_limit():
    # a -> e1: the product kills the squared pole; compare against the
    # series value of the surviving terms
    vals = [f_func(1.0, 0.0, -1.0, 1.0 + eps) for eps in (1e-4, 1e-5)]
    # f(a -> e1) = -e1 + sum(e)/3 + (e1-e2)(e1-e3) * 0.5/(a-e1) ... diverges?
    # no: prod/(a-e1)^2 = (a-e2)(a-e3)/(a-e1) does diverge; the operand is
    # out of the admissible domain, but the formula itself must still
    # evaluate to finite numbers for a != e1
    assert all(np.isfinite([v.real for v in vals]))
    with pytest.raises(DegenerateParameterError):
        f_func(1.0, 0.0, -1.0, 1.0)


def test_df_de_matches_fd():
    h = 1e-7
    for nu in (1, 2, 3):
        es_p = [1.0, 0.0, -1.0]
        es_m = list(es_p)
        es_p[nu - 1] += h
        es_m[nu - 1] -= h
        fd = (f_func(*es_p, 2.0) - f_func(*es_m, 2.0)) / (2 * h)
        assert abs(df_de(1.0, 0.0, -1.0, 2.0, nu) - fd) < 1e-6


def test_H_t_is_t_derivative_of_log_tau(golden_ctx):
    p = golden_ctx.params
    h = 1e-6
    fd = (log_tau(p.moved(0, h))
          - log_tau(p.moved(0, -h))) / (2 * h)
    assert abs(H_t(p) - fd) < 1e-7


def test_H_t_at_zero_time(golden_branch):
    p = make_params(golden_branch, 2.0, 0.0, 0.3, 0.2)
    # the f-term vanishes; H_t reduces to the sigma[p,q] log-derivative
    s, ds = sigma_jet(p.lat, p.char, 0.0)
    assert abs(H_t(p) - ds / s) < 1e-14


def test_H_nu_is_e_derivative_of_log_tau(golden_ctx):
    p = golden_ctx.params
    h = 5e-7
    for nu in (1, 2, 3):
        fd = (log_tau(p.moved(nu, h))
              - log_tau(p.moved(nu, -h))) / (2 * h)
        assert abs(H_nu(p, nu) - fd) < 1e-6


def test_tau_at_zero_time_is_prefactor_product(golden_branch):
    p = make_params(golden_branch, 2.0, 0.0, 0.3, 0.2)
    from elliptau.elliptic import theta
    expected = theta(p.char, 0.0, p.lat.Omega)
    expected *= p.lat.omega1 ** -0.5
    es = golden_branch.es
    for i in range(3):
        for j in range(i + 1, 3):
            expected *= (es[i] - es[j]) ** -0.125
    assert abs(cmath.exp(log_tau(p)) - expected) < 1e-12 * abs(expected)


def test_residue_formula_vs_contour(golden_ctx):
    p = golden_ctx.params
    co = golden_ctx.coeffs
    for nu, e in zip((1, 2, 3), golden_ctx.branch.es):
        num = ring_moments(co.trace_A2_half, e, 0.05, 64, (-1,))[-1]
        assert abs(residue_formula(p, nu) - num) < 1e-6 * max(1.0, abs(num))


def test_residue_t_zero_reduction(golden_branch):
    # only the three t-independent terms survive at t = 0
    p0 = make_params(golden_branch, 2.0, 0.0, 0.3, 0.2)
    from elliptau.curve import dlog_omega1_de
    from elliptau.tau import dlog_theta_de
    for nu in (1, 2, 3):
        e = golden_branch.es[nu - 1]
        others = [x for x in golden_branch.es if x != e]
        expected = (-0.125 * sum(1.0 / (e - o) for o in others)
                    - 0.5 * dlog_omega1_de(golden_branch, p0.lat, nu)
                    + dlog_theta_de(p0, nu))
        assert abs(residue_formula(p0, nu) - expected) < 1e-13


def test_global_residue_sum_rule(golden_ctx):
    p = golden_ctx.params
    co = golden_ctx.coeffs
    total = 0j
    for e in list(golden_ctx.branch.es) + [p.a]:
        total += ring_moments(co.trace_A2_half, e, 0.05, 64, (-1,))[-1]
    big = ring_moments(co.trace_A2_half, golden_ctx.branch.centroid, 25.0, 256, (-1,))[-1]
    assert abs(total - big) < 1e-7


def test_hamiltonian_residue_cross(golden_ctx):
    p = golden_ctx.params
    for nu in (1, 2, 3):
        lhs = H_nu(p, nu)
        rhs = residue_formula(p, nu) + omega_a_de_component(p, nu)
        assert abs(lhs - rhs) < 1e-7


def test_one_form_closedness(golden_ctx):
    p = golden_ctx.params
    h = 1e-5
    for nu in (1, 2, 3):
        lhs = (H_t(p.moved(nu, h))
               - H_t(p.moved(nu, -h))) / (2 * h)
        rhs = (H_nu(p.moved(0, h), nu)
               - H_nu(p.moved(0, -h), nu)) / (2 * h)
        assert abs(lhs - rhs) < 1e-5


# -- zero-sum special case ---------------------------------------------------


@pytest.fixture(scope="module")
def zs_point(golden_branch, golden_lattice):
    # golden is a zero-sum configuration, so wp(u) is the point x = a of u
    return make_params(golden_branch, wp(golden_lattice, 0.4 + 0.15j), 0.12 + 0.05j,
                       0.3, 0.2)


def test_shifted_tau_at_zero(zs_point):
    p = zs_point._replace(t=0.0)
    for l in (-1, 1, 2):
        assert abs(sigma_shift_tau(p, l) - sigma(p.lat, 2 * l * p.alpha)) < 1e-13


def test_sigma_shift_c1_at_zero_time(zs_point):
    p = zs_point._replace(t=0.0)
    lat, alpha = p.lat, p.alpha
    for l in (-1, 1, 2):
        c1 = _c1(p, p.t, l)
        expect_c1 = (zeta(lat, 2 * l * alpha)
                     - l * zeta(lat, 2 * alpha))
        assert abs(c1 - expect_c1) < 1e-12 * max(1.0, abs(expect_c1))


def test_shifted_tau_dlog_closed_vs_fd(zs_point):
    p, h = zs_point, 1e-6
    for l in (-1, 0, 1, 2):
        fd = (cmath.log(sigma_shift_tau(p._replace(t=p.t + h), l))
              - cmath.log(sigma_shift_tau(p._replace(t=p.t - h), l))
              ) / (2 * h)
        assert abs(sigma_shift_dlog_tau_dt(p, l) - fd) < 1e-7


def test_shifted_tau_dlog_at_zero_time(zs_point):
    p = zs_point._replace(t=0.0)
    lat, alpha = p.lat, p.alpha
    for l in (-1, 1, 2):
        _, _, minus_wp1, minus_wpp = zeta_jet(lat, alpha, 3)
        wpp, wp1 = -minus_wpp, -minus_wp1
        expect = (zeta(lat, 2 * l * alpha)
                  - l * (zeta(lat, 2 * alpha) + wpp / (2 * wp1)))
        assert abs(sigma_shift_dlog_tau_dt(p, l) - expect) < 1e-12


def test_shifted_tau_trace_identity(zs_point):
    for l in (-1, 0, 1, 2):
        assert sigma_shift_trace_residual(zs_point, l) < 1e-12


@pytest.mark.parametrize("t", [None, 0.1])
def test_sigma_shift_y1_on_an_array_of_shifts(zs_point, t):
    # l = -1 .. 2 in one call: each diagonal (Y11, Y22) of Y_1 and trace
    # residual equals its per-shift call's
    p = zs_point if t is None else zs_point._replace(t=t)
    ls = np.arange(-1, 3)
    Y1s, residuals = sigma_shift_y1(p, ls), sigma_shift_trace_residual(p, ls)
    assert Y1s.shape == (2, 4) and residuals.shape == (4,)
    for l, Y1, residual in zip(ls.tolist(), Y1s.T, residuals):
        one = sigma_shift_y1(p, l)
        assert one.shape == (2,)
        assert np.max(np.abs(Y1 - one)) <= 1e-14 * np.max(np.abs(one))
        assert abs(residual - sigma_shift_trace_residual(p, l)) <= 1e-14


def test_families_agree_at_second_t_derivative(golden_branch, zs_point):
    p, l = zs_point, 1
    lat, alpha = p.lat, p.alpha
    pchar = 0.5 + lat.eta1 * l * alpha / (1j * math.pi)
    qchar = 0.5 - lat.eta2 * l * alpha / (1j * math.pi)
    t, h = p.t, 1e-5

    def ht(tt):
        return H_t(make_params(golden_branch, p.a, tt, pchar, qchar))

    def dl(tt):
        return sigma_shift_dlog_tau_dt(p._replace(t=tt), l)

    d2_main = (ht(t + h) - ht(t - h)) / (2 * h)
    d2_app = (dl(t + h) - dl(t - h)) / (2 * h)
    assert abs(d2_main - d2_app) < 1e-6
