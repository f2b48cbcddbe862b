"""Explicit solution: transformation laws, normalization, coefficients."""

import cmath
import json
import math

import numpy as np
import pytest

import elliptau.curve
import elliptau.elliptic
from elliptau.curve import BranchConfig, abel_with_y
from elliptau.elliptic import sigma, sigma_char
from elliptau.errors import DegenerateParameterError
import elliptau.isomono
import elliptau.checks
import elliptau.monodromy
from elliptau.checks import (
    check_deformation_equation,
    deformation_ring,
    ring_moments,
    run_checks,
)
from elliptau.cli import main
from elliptau.isomono import (
    PhiMatrix,
    _columns,
    _m_slot_values,
    _mat,
    _theta_checked,
    deformation_rhs,
    make_params,
    theoretical_monodromy,
)
from elliptau.scenario import GOLDEN, SplitMix64, golden_dict, random_admissible_scenario
from elliptau.tau import H_nu, H_t, log_tau


@pytest.fixture(scope="module")
def golden(golden_ctx):
    return golden_ctx


def test_params_validation(golden_branch):
    with pytest.raises(DegenerateParameterError):
        make_params(golden_branch, 1.0 + 1e-9j, 0.1, 0.3, 0.2)
    # theta[1/2,1/2](t/omega1) vanishes at t ~ 0, so p=q=1/2 with t=0 is out
    with pytest.raises(DegenerateParameterError):
        make_params(golden_branch, 2.0, 0.0, 0.5, 0.5)


def test_half_period_table_is_built_once_per_point(monkeypatch):
    # the table is the point's, derived at first read; a batch point keeps
    # its root's slots and matches no half period again
    branch = BranchConfig(1.0, 0.05j, -1.0)  # a branch no other test builds
    p = make_params(branch, 2.0, 0.1, 0.3, 0.2)
    batch = p.moved(np.arange(1, 4), 1e-3)
    at_half_periods = []
    real = elliptau.curve.wp

    def spy(lat, u):
        at_half_periods.append(u)
        return real(lat, u)

    monkeypatch.setattr(elliptau.curve, "wp", spy)
    table = p.half_periods
    assert len(at_half_periods) == 3
    assert p.half_periods is table and batch.half_periods.perm == table.perm
    assert len(at_half_periods) == 3


def test_tau_and_hamiltonians_read_no_abel_map_or_half_periods(monkeypatch):
    # log tau, H_t and H_nu read the branch, its lattice, a, t and (p, q) only:
    # on a point and on its moved copies they build neither alpha nor the
    # half-period table, which come at first read
    branch = BranchConfig(1.0, 0.07j, -1.0)  # a branch no other test builds
    abel_misses = abel_with_y.cache_info().misses
    tables = []
    real = elliptau.curve.half_period_table
    monkeypatch.setattr(elliptau.curve, "half_period_table",
                        lambda *args: tables.append(args) or real(*args))
    p = make_params(branch, 2.0, 0.1, 0.3, 0.2)
    for q in [p] + [p.moved(nu, 1e-3 * 1j ** nu) for nu in (1, 2, 3)]:
        log_tau(q), H_t(q), [H_nu(q, nu) for nu in (1, 2, 3)]
    assert abel_with_y.cache_info().misses == abel_misses
    assert tables == []
    assert p.alpha is p.alpha
    assert p.wp_a is p.wp_a and p.half_periods is p.half_periods
    assert abel_with_y.cache_info().misses == abel_misses + 1


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


def test_multipliers_and_exp_T_a_on_arrays(golden):
    # on an array of points each equals its per-point call and the diagonal
    # it stands for, to 1e-14
    p, phi, sol = golden.params, golden.phi, golden.sol
    lat, rng = p.lat, SplitMix64(53)
    us = np.array([[rng.uniform(0.05, 0.45) * lat.omega1 + rng.uniform(0.05, 0.45) * lat.omega2
                    for _ in range(3)] for _ in range(2)])
    xs = p.a + 0.2 * np.exp(2j * math.pi * np.arange(6).reshape(2, 3) / 6)
    c = p.wp_a.wp_prime * p.t / 2.0
    lam_gamma = cmath.exp(1j * math.pi * (2 * p.char.p + 1))
    lam_delta = cmath.exp(-1j * math.pi * (2 * p.char.q + 1))
    cases = (
        (phi.gamma_multiplier, us, lambda u: np.diag([lam_gamma, 1.0 / lam_gamma])
         * cmath.exp(lat.eta1 * (2 * u + lat.omega1))),
        (phi.delta_multiplier, us, lambda u: np.diag([lam_delta, 1.0 / lam_delta])
         * cmath.exp(lat.eta2 * (2 * u + lat.omega2))),
        (sol.exp_T_a, xs, lambda x: np.diag([cmath.exp(-c / (x - p.a)),
                                             cmath.exp(c / (x - p.a))])),
    )
    for f, pts, diagonal in cases:
        arr = f(pts)
        assert arr.shape == pts.shape + (2, 2)
        for idx in np.ndindex(pts.shape):
            pt = complex(pts[idx])
            for one in (f(pt), diagonal(pt)):
                assert np.max(np.abs(arr[idx] - one)) <= 1e-14 * np.max(np.abs(one))


def _slope(r):
    """d det Phi/du from PhiRows with their u-derivatives (rows at u and -u)."""
    (r11, r12), (r21, r22) = r.hat
    (d11, d12), (d21, d22) = r.hat_du
    return d11 * r22 - r11 * d22 + d12 * r21 - r12 * d21


def test_det_phi_vanishes_only_at_branch_places(golden):
    phi = golden.phi
    p = golden.params
    for h in list(p.half_periods.omega_tilde) + [0j]:
        r = phi.rows(h, du=True)
        assert abs(r.det) < 1e-8 * abs(_slope(r)) * p.lat.unit()
    # generic points are far from the zero set
    assert abs(phi.rows(0.31 * p.lat.omega1 + 0.22 * p.lat.omega2).det) > 1e-3


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_det_phi_closed_form(seed):
    # det Phi(u) = sigma[p,q](t)^2 sigma(2 alpha) sigma(2u), rows at +-alpha
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    phi = p.phi
    c = sigma_char(p.lat, p.char, p.t) ** 2 * sigma(p.lat, 2.0 * p.alpha)
    rng = SplitMix64(43)
    for _ in range(8):
        u = (rng.uniform(-0.5, 0.5) * p.lat.omega1
             + rng.uniform(-0.5, 0.5) * p.lat.omega2)
        closed = c * sigma(p.lat, 2.0 * u)
        assert abs(phi.rows(u).det - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_y_at_and_hatted_share_sqrt_det_phi(seed):
    # one root of det Phi: y_at and hatted exp(T^(a)) agree, sign included,
    # wherever the Abel path and the local inverse give the same u (the Abel
    # cut can cross the ring, e.g. for seed 5)
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    sol = p.sol
    radius = 0.05 * min(abs(p.a - e) for e in p.branch.es)
    compared = 0
    for k in range(8):
        x = p.a + radius * cmath.exp(2j * math.pi * k / 8)
        u = sol.u_near_a(x)
        if abs(abel_with_y(p.branch, x)[0] - u) > 1e-9 * max(1.0, abs(u)):
            continue
        ref = sol.hatted(x) @ sol.exp_T_a(x)
        assert np.max(np.abs(sol.y_at(x) - ref)) <= 1e-11 * np.max(np.abs(ref))
        compared += 1
    assert compared >= 4


def test_det_phi_du_matches_difference_quotient(golden):
    phi = golden.phi
    u, h = 0.21 + 0.13j, 1e-6
    fd = (phi.rows(u + h).det - phi.rows(u - h).det) / (2 * h)
    assert abs(_slope(phi.rows(u, du=True)) - fd) < 1e-7


def test_pi_hat_is_regular_part(golden):
    phi = golden.phi
    p = golden.params
    # the regular part hatted takes, Pi + wp'(alpha) t / (2 (x - a)), stays
    # bounded while Pi blows up toward u = alpha
    sol = golden.sol
    for r in (1e-2, 1e-3, 1e-4):
        x = p.a + r
        u = sol.u_near_a(x)
        assert abs(phi.Pi(u) + p.wp_a.wp_prime * p.t / (2.0 * (x - p.a))) < 10.0
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
    mom = ring_moments(sol.hatted, a, 0.02, 32, (0,))
    assert np.max(np.abs(mom[0] - np.eye(2))) < 1e-8


def test_det_Y_is_unimodular(golden):
    # det of the closed-form normalizer is exactly 1, so det Y == 1
    sol = golden.sol
    assert abs(np.linalg.det(sol.N) - 1.0) < 1e-14
    x = 0.5 + 1.5j
    assert abs(np.linalg.det(sol.y_at(x)) - 1.0) < 1e-9


def test_y1_cauchy_vs_closed_form(golden):
    sol = golden.sol
    mom = ring_moments(sol.hatted, golden.params.a, 0.05, 48, (1,))
    Y1 = sol.y1_closed_form()
    assert np.max(np.abs(mom[1] - Y1)) < 1e-7
    # trace structure: diagonal entries are opposite
    assert abs(Y1[0, 0] + Y1[1, 1]) < 1e-14


def test_theoretical_monodromy_values(golden_branch):
    # direct substitution at p = q = 0
    p = make_params(golden_branch, 2.0, 0.1, 0.0, 0.0)
    m = {k: M[0, 1] for k, M in theoretical_monodromy(p).M.items()}  # M = [[0, m], [-1/m, 0]]
    assert abs(m[1] - 1j) < 1e-14
    assert abs(m[2] + 1j) < 1e-14
    assert abs(m[3] - 1j) < 1e-14
    assert abs(m["inf"] + 1j) < 1e-14


def test_theoretical_monodromy_structure(golden):
    md = theoretical_monodromy(golden.params)
    for k in (1, 2, 3, "inf"):
        M = md.M[k]
        assert abs(M[0, 0]) == 0 and abs(M[1, 1]) == 0
        assert abs(np.linalg.det(M) - 1.0) < 1e-14
    prod = md.M[3] @ md.M[2] @ md.M[1] @ md.M["inf"]
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12
    lhs = md.M[3] @ md.M[2]
    rhs = np.diag([cmath.exp(2j * math.pi * 0.3), cmath.exp(-2j * math.pi * 0.3)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


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
    co0 = p0.coeffs
    assert np.max(np.abs(co0.B0)) < 1e-10


def test_residue_bookkeeping_at_infinity(golden):
    co = golden.coeffs
    S = co.A[1] + co.A[2] + co.A[3] + co.B0
    ev = sorted(np.linalg.eigvals(-S), key=lambda z: z.real)
    assert abs(ev[0] + 0.25) < 1e-8
    assert abs(ev[1] - 0.25) < 1e-8
    # the frame at infinity diagonalizes it with exponents (1/4, -1/4): its
    # columns are the value and u-derivative of the rows phi, psi at u = 0
    r, ex = golden.phi.rows(0j, du=True), np.exp(golden.phi.Pi(0j))
    rows = r.hat[:, 0] * ex
    drows = (r.hat_du[:, 0] + r.hat[:, 0] * r.Pi_du) * ex
    q = drows[0] / rows[0] - drows[1] / rows[1]
    G = golden.sol.N @ np.column_stack([-1j * rows, 1j * drows]) / cmath.sqrt(q)
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
    p = golden.params
    for rho in (0, 1, 3):
        (dA,), _ = deformation_ring(p, [rho])
        assert np.max(np.abs(dA - deformation_rhs(p, rho))) < 1e-5
    # the ring derivative rejects the single-differential reading, where the
    # commutator sum multiplies de_nu alone and B_0 does not enter
    (dA,), _ = deformation_ring(p, [2])
    paired = deformation_rhs(p, 2)
    assert np.max(np.abs(dA - paired)) < 1e-5
    co = golden.coeffs
    es, A = p.branch.es, co.A

    def comm(X, Y):
        return X @ Y - Y @ X

    unpaired = {}
    for nu in (1, 2, 3):
        if nu == 2:
            rhs = paired[nu - 1] - comm(A[2], co.B0) / (p.a - es[1])
        else:
            rhs = paired[nu - 1] + comm(A[2], A[nu]) / (es[nu - 1] - es[1])
        unpaired[nu] = float(np.max(np.abs(dA[nu - 1] - rhs)))
    assert max(unpaired.values()) > 1e-3


def test_deformation_residual_shrinks_quadratically(golden):
    # the 2-point sub-ring errs by (r/R)^2, the 4-point ring by its square
    (dA,), (dA_sub,) = deformation_ring(golden.params, [1])
    rhs = deformation_rhs(golden.params, 1)
    assert np.max(np.abs(dA - rhs)) < 1e-3 * np.max(np.abs(dA_sub - rhs))



def test_hatted_evaluates_each_row_once(golden, monkeypatch):
    sol, ph, p = golden.sol, golden.phi, golden.params
    xs = [p.a + 0.01 * cmath.exp(2j * math.pi * (k + 0.3) / 5) for k in range(5)]
    # the formula with det Phi(u) from the same evaluation of the four rows
    refs = []
    for x in xs:
        u = sol.u_near_a(x)
        r = ph.rows(u)
        mat = r.entries(r.Pi + p.wp_a.wp_prime * p.t / (2.0 * (x - p.a)))
        ratio = 1.0 / (sol.sqrt_det_a * cmath.sqrt(r.det / sol.det_a))
        refs.append(ratio * (sol.N @ mat))
    calls = []
    rows = PhiMatrix.rows

    def counted(self, u, du=False):
        calls.append(np.shape(u))
        return rows(self, u, du)

    monkeypatch.setattr(PhiMatrix, "rows", counted)
    for x, ref in zip(xs, refs):
        calls.clear()
        assert np.array_equal(sol.hatted(x), ref)
        assert calls == [()]
    calls.clear()
    sol.hatted(np.array(xs))
    assert calls == [(5,)]


def test_the_point_reads_its_wp_data_instead_of_rebuilding_it(monkeypatch):
    # u_near_a seeds Newton from the point's wp data at a, so the relations at
    # a run once per point, however many hatted and u_near_a calls follow
    calls = []
    real = elliptau.curve.wp_alpha_relations
    monkeypatch.setattr(elliptau.curve, "wp_alpha_relations",
                        lambda branch, a: calls.append(a) or real(branch, a))
    p = make_params(GOLDEN.branch, GOLDEN.a, GOLDEN.t, GOLDEN.p, GOLDEN.q)
    xs = p.a + 0.02 * np.exp(2j * math.pi * (np.arange(6) + 0.3) / 6)
    for x in xs:
        p.sol.hatted(x)
        p.sol.u_near_a(x)
    p.sol.hatted(xs)
    moved = p.moved(0, 1e-3)
    moved.sol.hatted(xs)
    moved.sol.hatted(xs[0])
    assert calls == [p.a, p.a]


def test_deformation_check_reuses_base_stage(golden, monkeypatch):
    # the check reads the base point's chain, the context's stages
    p = golden.params
    assert golden.phi is p.phi and golden.sol is p.sol and golden.coeffs is p.coeffs
    calls = []
    real = elliptau.isomono.coefficients

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptau.isomono, "coefficients", counted)
    check_deformation_equation(golden, None)
    # three rings (t, e1, e2), one coefficient build on the batch point of
    # all their nodes
    assert len(calls) == 1
    assert all(q is not p for q in calls)


def test_point_builds_its_chain_once(golden_branch, monkeypatch):
    calls = {name: [] for name in ("build_phi", "normalize_Y", "coefficients")}

    def counting(name, real):
        def counted(*args):
            calls[name].append(args)
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(elliptau.isomono, name,
                            counting(name, getattr(elliptau.isomono, name)))
    p = make_params(golden_branch, 2.0, 0.1, 0.3, 0.2)
    assert p.sol is p.sol and p.sol.phi is p.phi
    assert p.coeffs is p.coeffs
    assert calls["coefficients"] == [(p, p.phi, p.sol)]
    # a copy carries none of its parent's chain, so it never returns stale Y or A
    for q in (p._replace(t=0.2), p.moved(1, 1e-3)):
        assert not {"phi", "sol", "coeffs"} & set(vars(q))
        assert q.sol is not p.sol and q.sol.params is q
        assert not np.array_equal(q.coeffs.A[1], p.coeffs.A[1])
    # a verify builds each chain once: the base point, the batch point of the
    # deformation rings and the batch point of the monodromy-invariance
    # family (6 when the family's four moved points were scalar points)
    for name in calls:
        calls[name].clear()
    assert run_checks(GOLDEN).overall == "pass"
    assert [len(c) for c in calls.values()] == [3, 3, 3]


def test_cold_golden_verify_calibrates_loops_once(monkeypatch):
    # the base point owns its calibrated loops: its own monodromy and the
    # family of the invariance check, which continues along them, read them
    # (2 when each monodromy_matrices call calibrated its root, 5 when each
    # moved point calibrated its own)
    for module in (elliptau.elliptic, elliptau.curve, elliptau.isomono):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []
    real = elliptau.monodromy.calibrate_loops
    monkeypatch.setattr(elliptau.monodromy, "calibrate_loops",
                        lambda params: calls.append(params) or real(params))
    assert run_checks(GOLDEN).overall == "pass"
    assert len(calls) == 1
    assert calls[0].root is None


def _scalar_y_ring_moments(sol, radius, npoints, orders):
    """Reference: the per-point trapezoidal loop that ring_moments replaced."""
    a = sol.params.a
    out = {k: np.zeros((2, 2), dtype=complex) for k in orders}
    for j in range(npoints):
        th = 2.0 * math.pi * j / npoints
        R = sol.hatted(a + radius * cmath.exp(1j * th))
        for k in orders:
            out[k] += R * cmath.exp(-1j * k * th)
    return {k: out[k] / (npoints * radius**k) for k in orders}


def _scalar_residue(coeffs, center, radius, n):
    """Reference: the per-point circle mean that ring_moments replaced."""
    acc = 0j
    for j in range(n):
        w = radius * cmath.exp(2j * math.pi * j / n)
        A = coeffs.A_of(center + w)
        acc += 0.5 * np.trace(A @ A) * w
    return acc / n


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_ring_moments_match_the_scalar_loops(seed):
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    sol, co = p.sol, p.coeffs
    r = 0.05 * min(abs(p.a - e) for e in p.branch.es)
    got = ring_moments(sol.hatted, p.a, r, 32, (0, 1))
    ref = _scalar_y_ring_moments(sol, r, 32, (0, 1))
    # the order-1 moment is the ring values' sum over r: both loops compare on
    # the scale of those values, which each carry ~1e-13 of rounding near a
    # (see test_hatted_on_an_array_equals_pointwise)
    for k in (0, 1):
        assert (np.max(np.abs(got[k] - ref[k])) * r**k
                <= 1e-13 * np.max(np.abs(ref[0])))
    for e in p.branch.es:
        r = 0.05 * min(abs(e - x) for x in list(p.branch.es) + [p.a] if x != e)
        got = ring_moments(co.trace_A2_half, e, r, 64, (-1,))[-1]
        ref = _scalar_residue(co, e, r, 64)
        assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_hatted_on_an_array_equals_pointwise(seed):
    # Pi_hat cancels the pole c/(x-a) of Pi, so a rounding of u costs
    # ~1e-16 (dist/r)^2 relative at radius r from a in either path: 2e-13 at
    # the 48-point ring of the checks (r = 0.05 dist), 1e-14 at r = 0.2 dist
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    sol = p.sol
    dist = min(abs(p.a - e) for e in p.branch.es)
    ring = np.exp(2j * math.pi * (np.arange(8) + 0.3) / 8)
    xs = p.a + dist * np.array([0.05 * ring, 0.2 * ring])
    arr = sol.hatted(xs)
    assert arr.shape == (2, 8, 2, 2)
    for idx in np.ndindex(xs.shape):
        one = sol.hatted(complex(xs[idx]))
        assert np.max(np.abs(arr[idx] - one)) <= 1e-12 * np.max(np.abs(one))


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
@pytest.mark.parametrize("name", ["matrix", "det", "det_du", "y_at"])
def test_phi_and_y_on_an_array_equal_pointwise(name, seed):
    # one evaluation of the rows on all points gives the per-point values
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    if name == "y_at":
        f, b = p.sol.y_at, p.branch
        ring = np.exp(2j * math.pi * (np.arange(4) + 0.5) / 4)
        pts = b.centroid + b.scale * np.array([1.3 * ring, 1.6 * ring])
    else:
        f = {"matrix": p.phi.matrix, "det": lambda u: p.phi.rows(u).det,
             "det_du": lambda u: _slope(p.phi.rows(u, du=True))}[name]
        lat, rng = p.lat, SplitMix64(47)
        pts = np.array([[rng.uniform(-0.5, 0.5) * lat.omega1 + rng.uniform(-0.5, 0.5) * lat.omega2
                         for _ in range(4)] for _ in range(2)])
    arr = f(pts)
    assert arr.shape == pts.shape + (() if name.startswith("det") else (2, 2))
    for idx in np.ndindex(pts.shape):
        one = f(complex(pts[idx]))
        assert np.max(np.abs(arr[idx] - one)) <= 1e-14 * np.max(np.abs(one))


def test_golden_verify_stays_array_first(monkeypatch):
    # from cold caches, one golden verify makes at most 142 theta-kernel
    # calls (3,896 when Phi, Y and the coefficient frames were built one
    # scalar call at a time, 1,602 when the elliptic checks built one lattice
    # per draw, 233 with one entry point per derivative of sigma, zeta and
    # wp, 184 before the point held sigma(2 alpha), sigma[p,q](t +- 2 alpha)
    # and d/dOmega theta, 181 before the Stokes ends, the ODE rings with
    # their centres, the sigma-shift trace and the branch closed forms each
    # took one array call), at most 33 _theta_jet hits (82 before), at most
    # 7 Taylor passes (23 with one per loop), at most 146
    # path_integrals node passes (366 with one per path) and, continuing each
    # distinct loop piece once, at most 140 chords for the base system's
    # monodromy, the first pass (277 when every loop piece was summed)
    for module in (elliptau.elliptic, elliptau.curve, elliptau.isomono):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls, passes, node_passes = [], [], []
    block = elliptau.elliptic._theta_block
    taylor = elliptau.monodromy._taylor_sums
    integrals = elliptau.curve.path_integrals

    def counted(char, z, *args):
        calls.append(z.size)
        return block(char, z, *args)

    def counted_taylor(coeffs, x0, x1):
        passes.append(len(x0))
        return taylor(coeffs, x0, x1)

    def counted_integrals(*args):
        node_passes.append(len(args[0]))
        return integrals(*args)

    monkeypatch.setattr(elliptau.elliptic, "_theta_block", counted)
    monkeypatch.setattr(elliptau.monodromy, "_taylor_sums", counted_taylor)
    for module in (elliptau.curve, elliptau.monodromy, elliptau.checks):
        monkeypatch.setattr(module, "path_integrals", counted_integrals)
    assert run_checks(GOLDEN).overall == "pass"
    assert len(calls) <= 142
    assert elliptau.elliptic._theta_jet.cache_info().hits <= 33
    assert len(passes) <= 7
    assert len(node_passes) <= 146
    assert passes[0] <= 140


def test_golden_verify_reads_the_period_cache_once():
    # every configuration owns its lattice, set by the periods_of call that
    # computed it or built at its first read: from cold caches, one golden
    # verify makes at most one period_data miss (the scenario's own branch)
    # and no hit (190 misses and 71 hits when periods_of left each result a
    # cache entry and moved configurations copied their root's periods)
    for module in (elliptau.elliptic, elliptau.curve, elliptau.isomono):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    assert run_checks(GOLDEN).overall == "pass"
    info = elliptau.curve.period_data.cache_info()
    assert info.misses <= 1 and info.hits == 0


def test_golden_verify_draws_each_sample_and_ring_once(monkeypatch):
    # from cold caches, the branch checks share one set of sampled branches
    # and one ring of them, the two dlogtau checks one set of neighbours, and
    # each t or e_nu ring of a point is one batch point: at most 54 cycle
    # integrals (116 when each check drew and ringed its own), at most 20
    # theta-kernel calls in dlogtau_de (114 size-1 ones, one per node), 40
    # in deformation_equation (148) and 35 in monodromy_invariance (73 with a
    # scalar point per move), and the Abel values of abel_roundtrip in one
    # path_integrals pass (50, one per point)
    for module in (elliptau.elliptic, elliptau.curve, elliptau.isomono):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    current, cycles, kernel, node_passes = [None], [], [], []
    block = elliptau.elliptic._theta_block
    cycle_integrals = elliptau.curve._cycle_integrals
    integrals = elliptau.curve.path_integrals

    def counted_block(*args):
        kernel.append(current[0])
        return block(*args)

    def counted_cycles(branches, *args, **kwargs):
        cycles.extend(current * len(branches))
        return cycle_integrals(branches, *args, **kwargs)

    def counted_integrals(*args, **kwargs):
        node_passes.append(current[0])
        return integrals(*args, **kwargs)

    def named(name, check):
        def run(ctx, rng):
            current[0] = name
            try:
                return check(ctx, rng)
            finally:
                current[0] = None
        return run

    monkeypatch.setattr(elliptau.elliptic, "_theta_block", counted_block)
    monkeypatch.setattr(elliptau.curve, "_cycle_integrals", counted_cycles)
    for module in (elliptau.curve, elliptau.monodromy, elliptau.checks):
        monkeypatch.setattr(module, "path_integrals", counted_integrals)
    for name, (check, suite, tol) in elliptau.checks.CHECKS.items():
        monkeypatch.setitem(elliptau.checks.CHECKS, name, (named(name, check), suite, tol))
    assert run_checks(GOLDEN).overall == "pass"
    assert len(cycles) <= 54
    assert kernel.count("dlogtau_de") <= 20
    assert kernel.count("deformation_equation") <= 40
    assert kernel.count("monodromy_invariance") <= 35
    assert node_passes.count("abel_roundtrip") == 1


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_a_batch_point_equals_its_nodes_one_by_one(seed):
    # a t ring, each e_nu ring and all four rings as one batch point: log tau,
    # the Hamiltonians, A_nu and B_0 of each entry are those of its node as a
    # point of its own, to 1e-14 relative (alpha by Newton from the root on
    # the batch, by the Abel map on the node)
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    w = 1e-3 * np.exp(2j * math.pi * (np.arange(4) + 0.25) / 4)

    def node(nu, d):
        return p._replace(t=p.t + d) if nu == 0 else p.moved(nu, d)

    def values(q):
        co = q.coeffs
        return ([log_tau(q), H_t(q)] + [H_nu(q, nu) for nu in (1, 2, 3)]
                + [co.A[nu] for nu in (1, 2, 3)] + [co.B0])

    nus = np.arange(4)[:, None]
    batches = [(p._replace(t=p.t + w), np.zeros((1, 4), int))]
    batches += [(p.moved(nu, w), np.full((1, 4), nu)) for nu in (1, 2, 3)]
    batches += [(p.moved(nus, np.broadcast_to(w, (4, 4))), np.broadcast_to(nus, (4, 4)))]
    for batch, which in batches:
        got = values(batch)
        for idx in np.ndindex(which.shape):
            ref = values(node(which[idx], w[idx[-1]]))
            at = idx[-np.ndim(got[0]):]
            for g, r in zip(got, ref):
                assert np.max(np.abs(g[at] - r)) <= 1e-14 * np.max(np.abs(r)), (idx, seed)


def test_verify_evaluates_each_shared_ring_once(monkeypatch):
    # hatted on the normalization ring (32), on the Y_1 moment ring (48),
    # shared by two checks, and at the four ends of the Stokes half turns
    # in one array call; the residue rings of tr A^2/2 each once
    hatted = elliptau.isomono.YSolution.hatted
    trace = elliptau.isomono.SystemCoefficients.trace_A2_half
    array_x, rings = [], []

    def count_hatted(self, x):
        if np.ndim(x):
            array_x.append(len(x))
        return hatted(self, x)

    def count_trace(self, x):
        rings.append((np.round(np.mean(x), 12), np.round(abs(x[0] - np.mean(x)), 12)))
        return trace(self, x)

    monkeypatch.setattr(elliptau.isomono.YSolution, "hatted", count_hatted)
    monkeypatch.setattr(elliptau.isomono.SystemCoefficients, "trace_A2_half", count_trace)
    report = run_checks(GOLDEN)
    assert report.overall == "pass"
    assert array_x == [32, 48, 4]
    assert len(rings) == len(set(rings)) <= 5


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_d_is_the_product_formula(seed):
    # D^(nu) = det Phi'(h) equals (2m/m_inf) phi psi (dlog phi - dlog psi) at
    # the half period h over e_nu wherever phi and psi do not vanish there
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    slots = _m_slot_values(p.char)
    for nu in (1, 2, 3):
        k = p.half_periods.slot_of_branch(nu)
        h = p.half_periods.omega_tilde[k]
        r = p.phi.rows(h, du=True)
        ph, ps = r.hat[:, 0] * np.exp(p.phi.Pi(h))  # the rows at u = h, s = +-alpha
        dlog = r.hat_du[:, 0] / r.hat[:, 0]  # Pi' cancels in their difference
        product = (2.0 * slots[k] / -1j) * ph * ps * (dlog[0] - dlog[1])
        assert abs(_slope(r) - product) <= 1e-13 * abs(product)


def _normalized_frame_A(p):
    """A_nu through the normalized frames G = N (sqrt(2m)/sqrt(i D^(nu))) F
    diag(q, 1/q): F with its exp Pi, D^(nu) the slope of det Phi and q the
    quarter power of wp''/2 at the half period over e_nu, m its slot value."""
    slots, hpt, es = _m_slot_values(p.char), p.half_periods, p.branch.es
    ks = [hpt.slot_of_branch(nu) for nu in (1, 2, 3)]
    shape = np.broadcast_shapes(np.shape(p.t), np.shape(p.lat.omega1))
    us = np.array([np.broadcast_to(hpt.omega_tilde[k], shape) for k in ks])
    r = p.phi.rows(us, du=True)
    ex, slope = np.exp(p.phi.Pi(us)), _slope(r)
    rows, drows = r.hat[:, 0] * ex, (r.hat_du[:, 0] + r.hat[:, 0] * r.Pi_du) * ex
    A = {}
    for i, (nu, k) in enumerate(zip((1, 2, 3), ks)):
        e, (f, g) = es[nu - 1], [x for j, x in enumerate(es, 1) if j != nu]
        quarter = np.asarray((e - f) * (e - g), dtype=complex) ** 0.25
        F = _columns(rows[:, i], drows[:, i] - hpt.eta_tilde[k] * rows[:, i])
        pref = np.sqrt(2.0 * slots[k]) / np.sqrt(1j * slope[i])
        G = p.sol.N @ (np.asarray(pref)[..., None, None] * F) @ _mat(quarter, 0, 0, 1 / quarter)
        A[nu] = G @ np.diag([-0.25, 0.25]) @ np.linalg.inv(G)
    return A


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_a_nu_does_not_see_the_frame_normalization(seed):
    # the frames carry no normalization: A_nu equals the one the normalized
    # frames give, on the point and on a batch point of all four directions
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    for q in (p, p.moved(np.arange(4), 1e-3)):
        ref = _normalized_frame_A(q)
        for nu in (1, 2, 3):
            err = np.max(np.abs(q.coeffs.A[nu] - ref[nu]))
            assert err <= 1e-14 * np.max(np.abs(ref[nu])), (seed, nu, err)


def test_a_singular_frame_raises_at_the_half_period(monkeypatch, tmp_path, capsys):
    # the u column of the rows and their slopes zero at every half period:
    # the frame over e_1 is the zero matrix, and the point, the checks that
    # read the coefficients and the monodromy command all reject it
    real = PhiMatrix.rows

    def zero_u_column(self, u, du=False):
        r = real(self, u, du)
        if not du:
            return r
        hat, hat_du = r.hat.copy(), r.hat_du.copy()
        hat[:, 0] = hat_du[:, 0] = 0
        return r._replace(hat=hat, hat_du=hat_du)

    monkeypatch.setattr(PhiMatrix, "rows", zero_u_column)
    s = GOLDEN
    with pytest.raises(DegenerateParameterError, match="half period over e_1"):
        make_params(s.branch, s.a, s.t, s.p, s.q).coeffs
    (result,) = run_checks(GOLDEN, checks=["ode_residual"]).results
    assert result.status == "fail"
    assert result.notes.startswith("error: DegenerateParameterError in stage 'coeffs'")
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert main(["monodromy", "--scenario", str(scenario), "--loop", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_frame_singular_up_to_rounding_raises(monkeypatch):
    # psi's u entries equal to phi's at every half period: the rows of each
    # frame are equal, but its determinant is rounding, not an exact zero,
    # and inverting it would give A_nu of about 1e16
    real = PhiMatrix.rows

    def psi_is_phi(self, u, du=False):
        r = real(self, u, du)
        if not du:
            return r
        hat, hat_du = r.hat.copy(), r.hat_du.copy()
        hat[1, 0], hat_du[1, 0] = hat[0, 0], hat_du[0, 0]
        return r._replace(hat=hat, hat_du=hat_du)

    monkeypatch.setattr(PhiMatrix, "rows", psi_is_phi)
    s = GOLDEN
    with pytest.raises(DegenerateParameterError, match="half period over e_1"):
        make_params(s.branch, s.a, s.t, s.p, s.q).coeffs


def test_every_move_carries_the_root_configuration_as_chart(golden):
    # a scalar move, a batch move and a batch move of a moved point all
    # continue the point's root configuration itself, not a copy of it
    p = golden.params
    nus, deltas = np.array([1, 2, 3]), np.array([1e-3, 1e-3j, -1e-3])
    once = p.moved(1, 1e-3)
    assert p.branch.chart is None
    for moved in (once, p.moved(nus, deltas), once.moved(nus, deltas)):
        assert moved.branch.chart is p.branch


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_moved_configurations_continue_the_period_convention(seed):
    # each e_nu moved by 1e-8 of the gap in 64 complex directions: the
    # periods, alpha and the Hamiltonians move by O(1e-8).  Golden sits on a
    # tie of two anchor rays, so a moved copy that chose its own anchor would
    # flip omega1 in about half of these directions
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    base = make_params(s.branch, s.a, s.t, s.p, s.q)

    def values(p):
        return [p.lat.omega1, p.lat.omega2, p.alpha, H_t(p)] + [H_nu(p, nu) for nu in (1, 2, 3)]

    ref = values(base)
    h = 1e-8 * s.branch.min_gap
    for nu in (1, 2, 3):
        for k in range(64):
            moved = base.moved(nu, h * cmath.exp(2j * math.pi * k / 64))
            for v, r in zip(values(moved), ref):
                assert abs(v - r) <= 1e-6 * abs(r), (nu, k)


def test_translating_the_curve_changes_nothing():
    # sheet 1 is fixed relative to the centroid, so moving the whole scenario
    # (e_nu + c, a + c) leaves the periods, alpha, the Hamiltonians and
    # log tau as they were, to rounding; 40 interior draws, 5 translations
    # each with |c| <= 2.1
    def values(e, a, s):
        p = make_params(BranchConfig(*e), a, s.t, s.p, s.q)
        return [p.lat.omega1, p.lat.omega2, p.alpha, H_t(p), log_tau(p),
                *(H_nu(p, nu) for nu in (1, 2, 3))]

    for k in range(40):
        s = random_admissible_scenario(SplitMix64(0xBEEF + k))
        ref = values(s.e, s.a, s)
        rng = SplitMix64(0x7A5 + k)
        for j in range(5):
            c = rng.complex_box(-1.5, 1.5)
            got = values([e + c for e in s.e], s.a + c, s)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-12 * abs(r), (k, j, c)


def test_theta_zero_in_a_batch_raises_the_failing_entry_error(golden):
    # entry 1 sits on the zero of theta[p,q](t/omega1) at
    # t0 = (1/2 - q) omega1 + (1/2 - p) omega2, entry 0 does not: the batch
    # raises entry 1's error (a KeyError when it raised entry 0's)
    p = golden.params
    t0 = (0.5 - p.char.q) * p.lat.omega1 + (0.5 - p.char.p) * p.lat.omega2
    with pytest.raises(DegenerateParameterError, match="too close to its zero"):
        _theta_checked(p.moved(0, np.array([0, t0 - p.t])))


def test_moving_t_by_a_number_moves_t_and_no_branch_point():
    # nu = 0 moves t, for a number as for an array of moves
    p = make_params(GOLDEN.branch, GOLDEN.a, GOLDEN.t, GOLDEN.p, GOLDEN.q)
    moved = p.moved(0, 1e-3)
    assert moved.t == p.t + 1e-3
    assert moved.branch.es == p.branch.es and moved.lat == p.lat
    # a move of t alone, by an array, is the point at those times on its own
    # branch, lattice and alpha: no batch branch and no root
    ds = np.array([1e-3, -2e-3j])
    for nu in (0, np.zeros(2, dtype=int)):
        ts = p.moved(nu, ds)
        assert ts.branch is p.branch and ts.lat is p.lat and ts.root is None
        assert np.array_equal(ts.t, p.t + ds)


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_wp_series_agrees_with_the_algebraic_wp_data(seed):
    # the theta-series values of wp and its derivatives at alpha against the
    # closed forms in a and the branch points
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    rel = p.wp_a
    for got, ref in zip(p.wp_series, (rel.wp, rel.wp_prime, rel.wp_pp, rel.wp_ppp)):
        assert abs(got - ref) <= 1e-13 * abs(ref)
