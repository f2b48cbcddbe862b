"""Explicit solution: transformation laws, normalization, coefficients."""

import cmath
import math

import numpy as np
import pytest

from elliptau.curve import abel_with_y
from elliptau.elliptic import sigma, sigma_char
from elliptau.errors import DegenerateParameterError
import elliptau.isomono
from elliptau.checks import check_deformation_equation
from elliptau.isomono import (
    PhiMatrix,
    build_phi,
    coefficients,
    deformation_residual,
    make_params,
    normalize_Y,
    theoretical_monodromy,
)
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario


@pytest.fixture(scope="module")
def golden(golden_ctx):
    return golden_ctx


def test_params_validation(golden_branch):
    with pytest.raises(DegenerateParameterError):
        make_params(golden_branch, 1.0 + 1e-9j, 0.1, 0.3, 0.2)
    # theta[1/2,1/2](t/omega1) vanishes at t ~ 0, so p=q=1/2 with t=0 is out
    with pytest.raises(DegenerateParameterError):
        make_params(golden_branch, 2.0, 0.0, 0.5, 0.5)


def test_phi_cycle_transformations(golden):
    phi, lat = golden.phi, golden.params.lat
    rng = SplitMix64(41)
    for _ in range(20):
        u = (rng.uniform(0.05, 0.45) * lat.omega1
             + rng.uniform(0.05, 0.45) * lat.omega2)
        m0 = phi.matrix(u)
        lhs = phi.matrix(u + lat.omega1)
        rhs = m0 @ phi.gamma_multiplier(u)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))
        lhs = phi.matrix(u + lat.omega2)
        rhs = m0 @ phi.delta_multiplier(u)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_det_phi_vanishes_only_at_branch_places(golden):
    phi = golden.phi
    p = golden.params
    for h in list(p.half_periods.omega_tilde) + [0j]:
        assert abs(phi.det(h)) < 1e-8 * abs(phi.det_du(h)) * p.lat.unit()
    # generic points are far from the zero set
    assert abs(phi.det(0.31 * p.lat.omega1 + 0.22 * p.lat.omega2)) > 1e-3


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_det_phi_closed_form(seed):
    # det Phi(u) = sigma[p,q](t)^2 sigma(2 alpha) sigma(2u), rows at +-alpha
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    phi = build_phi(p)
    c = sigma_char(p.lat, p.char, p.t) ** 2 * sigma(p.lat, 2.0 * p.alpha)
    rng = SplitMix64(43)
    for _ in range(8):
        u = (rng.uniform(-0.5, 0.5) * p.lat.omega1
             + rng.uniform(-0.5, 0.5) * p.lat.omega2)
        closed = c * sigma(p.lat, 2.0 * u)
        assert abs(phi.det(u) - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_y_at_and_hatted_share_sqrt_det_phi(seed):
    # one root of det Phi: y_at and hatted exp(T^(a)) agree, sign included,
    # wherever the Abel path and the local inverse give the same u (the Abel
    # cut can cross the ring, e.g. for seed 5)
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    sol = normalize_Y(p)
    radius = 0.05 * min(abs(p.a - e) for e in p.branch.es)
    compared = 0
    for k in range(8):
        x = p.a + radius * cmath.exp(2j * math.pi * k / 8)
        u = sol.u_near_a(x)
        if abs(abel_with_y(p.branch, x)[0] - u) > 1e-9 * max(1.0, abs(u)):
            continue
        ref = sol.hatted(x, u) @ sol.exp_T_a(x)
        assert np.max(np.abs(sol.y_at(x) - ref)) <= 1e-11 * np.max(np.abs(ref))
        compared += 1
    assert compared >= 4


def test_det_phi_du_matches_difference_quotient(golden):
    phi = golden.phi
    u, h = 0.21 + 0.13j, 1e-6
    fd = (phi.det(u + h) - phi.det(u - h)) / (2 * h)
    assert abs(phi.det_du(u) - fd) < 1e-7


def test_pi_hat_is_regular_part(golden):
    phi = golden.phi
    p = golden.params
    # Pi_hat stays bounded while Pi blows up toward u = alpha
    sol = golden.sol
    for r in (1e-2, 1e-3, 1e-4):
        x = p.a + r
        u = sol.u_near_a(x)
        assert abs(phi.Pi_hat(u, x)) < 10.0
        assert abs(phi.Pi(u)) > 0.1 / r * abs(p.wp_a.wp_prime * p.t) / 4


def test_normalization_limit(golden):
    sol = golden.sol
    a = golden.params.a
    res = []
    for r in (1e-3, 1e-4):
        worst = 0.0
        for k in range(8):
            x = a + r * cmath.exp(2j * math.pi * (k + 0.3) / 8)
            worst = max(worst, float(np.max(np.abs(
                sol.hatted(x) - np.eye(2)))))
        res.append(worst)
    assert res[0] < 5e-3
    # first-order vanishing: shrinks linearly with the radius
    assert res[1] < 0.2 * res[0]
    mom = sol.y_ring_moments(0.02, npoints=32, orders=(0,))
    assert np.max(np.abs(mom[0] - np.eye(2))) < 1e-8


def test_det_Y_is_unimodular(golden):
    # det of the closed-form normalizer is exactly 1, so det Y == 1
    sol = golden.sol
    assert abs(np.linalg.det(sol.N) - 1.0) < 1e-14
    x = 0.5 + 1.5j
    assert abs(np.linalg.det(sol.y_at(x)) - 1.0) < 1e-9


def test_y1_cauchy_vs_closed_form(golden):
    sol = golden.sol
    mom = sol.y_ring_moments(0.05, npoints=48, orders=(1,))
    Y1 = sol.y1_closed_form()
    assert np.max(np.abs(mom[1] - Y1)) < 1e-7
    # trace structure: diagonal entries are opposite
    assert abs(Y1[0, 0] + Y1[1, 1]) < 1e-14


def test_theoretical_monodromy_values(golden_branch):
    # direct substitution at p = q = 0
    p = make_params(golden_branch, 2.0, 0.1, 0.0, 0.0)
    md = theoretical_monodromy(p)
    assert abs(md.m[1] - 1j) < 1e-14
    assert abs(md.m[2] + 1j) < 1e-14
    assert abs(md.m[3] - 1j) < 1e-14
    assert abs(md.m["inf"] + 1j) < 1e-14


def test_theoretical_monodromy_structure(golden):
    md = theoretical_monodromy(golden.params)
    for k in (1, 2, 3, "inf"):
        M = md.M[k]
        assert abs(M[0, 0]) == 0 and abs(M[1, 1]) == 0
        assert abs(np.linalg.det(M) - 1.0) < 1e-14
        C = md.C[k]
        # the connection matrix diagonalizes M with exponents -1/4, 1/4
        D = C @ M @ np.linalg.inv(C)
        expect = np.diag([cmath.exp(-1j * math.pi / 2), cmath.exp(1j * math.pi / 2)])
        assert np.max(np.abs(D - expect)) < 1e-12
    assert md.cyclic_residual() < 1e-12
    lhs = md.M[3] @ md.M[2]
    rhs = np.diag([cmath.exp(2j * math.pi * 0.3), cmath.exp(-2j * math.pi * 0.3)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(md.S1 - np.eye(2))) == 0
    assert np.max(np.abs(md.S2 - np.eye(2))) == 0


def test_m_inf_flag_flips_consistently(golden):
    md = theoretical_monodromy(golden.params, m_inf=1j)
    assert abs(md.m["inf"] - 1j) < 1e-15
    assert md.cyclic_residual() < 1e-12


def test_coefficient_invariants(golden):
    p = golden.params
    co = golden.coeffs
    wp1t = p.wp_a.wp_prime * p.t / 2.0
    assert abs(co.B_minus1[0, 0] - wp1t) < 1e-12
    assert abs(co.B_minus1[1, 1] + wp1t) < 1e-12
    assert abs(co.B_minus1[0, 1]) == 0
    for nu in (1, 2, 3):
        A = co.A[nu]
        assert abs(np.trace(A)) < 1e-12
        assert abs(np.linalg.det(A) + 1.0 / 16.0) < 1e-12
        ev = sorted(np.linalg.eigvals(A), key=lambda z: z.real)
        assert abs(ev[0] + 0.25) < 1e-9
        assert abs(ev[1] - 0.25) < 1e-9


def test_simple_pole_coefficient_is_commutator(golden):
    p = golden.params
    co = golden.coeffs
    Y1 = golden.sol.y1_closed_form()
    B0 = Y1 @ co.B_minus1 - co.B_minus1 @ Y1
    assert np.max(np.abs(co.B0 - B0)) < 1e-13
    # it vanishes with t
    p0 = make_params(p.branch, p.a, 1e-12, p.char.p, p.char.q)
    co0 = coefficients(p0)
    assert np.max(np.abs(co0.B0)) < 1e-10


def test_residue_bookkeeping_at_infinity(golden):
    co = golden.coeffs
    S = co.A[1] + co.A[2] + co.A[3] + co.B0
    ev = sorted(np.linalg.eigvals(-S), key=lambda z: z.real)
    assert abs(ev[0] + 0.25) < 1e-8
    assert abs(ev[1] - 0.25) < 1e-8
    # the frame at infinity diagonalizes it with exponents (1/4, -1/4)
    G = co.G["inf"]
    D = np.linalg.inv(G) @ S @ G
    assert np.max(np.abs(D - np.diag([0.25, -0.25]))) < 1e-9


def test_b0_matches_numerical_residue(golden):
    co = golden.coeffs
    sol = golden.sol
    a = golden.params.a

    def Ahat(x, h=1e-6):
        Yp, Ym, Y0 = sol.y_at(x + h), sol.y_at(x - h), sol.y_at(x)
        return (Yp - Ym) / (2 * h) @ np.linalg.inv(Y0)

    n, r = 24, 0.3
    acc = np.zeros((2, 2), dtype=complex)
    for j in range(n):
        w = r * cmath.exp(2j * math.pi * j / n)
        acc += Ahat(a + w) * w
    acc /= n
    assert np.max(np.abs(acc - co.B0)) < 1e-6


def test_ode_residual_on_circle(golden):
    sol, co = golden.sol, golden.coeffs
    center, radius, h = 0.5 + 1.5j, 0.1, 1e-6
    for j in range(6):
        x = center + radius * cmath.exp(2j * math.pi * j / 6)
        Yp, Ym, Y0 = sol.y_at(x + h), sol.y_at(x - h), sol.y_at(x)
        lhs = (Yp - Ym) / (2 * h) @ np.linalg.inv(Y0)
        assert np.max(np.abs(lhs - co.A_of(x))) < 1e-7


def test_deformation_equation_paired_reading(golden):
    for direction in ("t", "e1", "e3"):
        r = deformation_residual(golden.params, direction, 1e-4)
        assert max(r["paired"].values()) < 1e-5
    # finite-difference truth rejects the single-differential reading, where
    # the commutator sum multiplies de_nu alone and B_0 does not enter
    r = deformation_residual(golden.params, "e2", 1e-4)
    assert max(r["paired"].values()) < 1e-5
    p, co = golden.params, golden.coeffs
    es, A = p.branch.es, co.A

    def comm(X, Y):
        return X @ Y - Y @ X

    unpaired = {}
    for nu in (1, 2, 3):
        if nu == 2:
            rhs = r["rhs"][nu] - comm(A[2], co.B0) / (p.a - es[1])
        else:
            rhs = r["rhs"][nu] + comm(A[2], A[nu]) / (es[nu - 1] - es[1])
        unpaired[nu] = float(np.max(np.abs(r["fd"][nu] - rhs)))
    assert max(unpaired.values()) > 1e-3


def test_deformation_residual_shrinks_quadratically(golden):
    r1 = deformation_residual(golden.params, "e1", 1e-4)
    r2 = deformation_residual(golden.params, "e1", 5e-5)
    assert max(r2["paired"].values()) < 0.5 * max(r1["paired"].values())



def test_hatted_evaluates_each_row_once(golden, monkeypatch):
    sol, ph, p = golden.sol, golden.phi, golden.params
    al = p.alpha
    xs = [p.a + 0.01 * cmath.exp(2j * math.pi * (k + 0.3) / 5) for k in range(5)]
    # the formula with det Phi(u) taken from PhiMatrix.det, which evaluates
    # the four row values a second time
    refs = []
    for x in xs:
        u = sol.u_near_a(x)
        pih = ph.Pi_hat(u, x)
        col1, col2 = cmath.exp(pih), cmath.exp(-pih)
        mat = np.array([
            [ph.row_hat(u, al) * col1, ph.row_hat(-u, al) * col2],
            [ph.row_hat(u, -al) * col1, ph.row_hat(-u, -al) * col2],
        ], dtype=complex)
        ratio = 1.0 / (sol.sqrt_det_a * cmath.sqrt(ph.det(u) / sol.det_a))
        refs.append(ratio * (sol.N @ mat))
    calls = []
    row_hat = PhiMatrix.row_hat

    def counted(self, u, s):
        calls.append(s)
        return row_hat(self, u, s)

    monkeypatch.setattr(PhiMatrix, "row_hat", counted)
    for x, ref in zip(xs, refs):
        calls.clear()
        assert np.array_equal(sol.hatted(x), ref)
        assert len(calls) == 4


def test_deformation_check_reuses_base_stage(golden, monkeypatch):
    p = golden.params
    for direction in ("t", "e1", "e3"):
        fresh = deformation_residual(p, direction, 1e-4)
        shared = deformation_residual(p, direction, 1e-4,
                                      sol=golden.sol, coeffs=golden.coeffs)
        assert fresh["paired"] == shared["paired"]
        assert (fresh["scale"], fresh["h"]) == (shared["scale"], shared["h"])
        for nu in (1, 2, 3):
            assert np.array_equal(fresh["fd"][nu], shared["fd"][nu])
            assert np.array_equal(fresh["rhs"][nu], shared["rhs"][nu])
    golden.coeffs  # the base stages exist before counting
    calls = []
    real = elliptau.isomono.coefficients

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptau.isomono, "coefficients", counted)
    check_deformation_equation(golden, None, 1e-5)
    # six residuals (three directions, two steps), each at its +-h neighbours only
    assert len(calls) == 12
    assert all(q is not p for q in calls)
