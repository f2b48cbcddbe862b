"""Curve geometry: periods, Abel map, branch-point derivative identities."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from elliptau.curve import (
    CONTINUE_SAMPLES,
    Arc,
    BranchConfig,
    CurvePoint,
    Line,
    _continue,
    _cycle_integral,
    _cycle_pieces,
    _sheet_frame,
    _u_anchor,
    abel,
    abel_with_y,
    continue_y,
    dOmega_de,
    dlog_omega1_de,
    half_period_table,
    local_inverse_coeffs,
    path_integral,
    period_data,
    periods,
    quasiperiod_ratio_derivative_residual,
    second_kind_period,
    theta_constant_residuals,
    wp_alpha_relations,
    x_from_u,
)
from elliptau.elliptic import wp
from elliptau.errors import ContourGeometryError, QuadratureError
from elliptau.scenario import SplitMix64

# sqrt(2) * K(m = 1/2); mpmath, 40 digits.  The self-dual modulus makes the
# period ratio exactly i.
OMEGA1_GOLDEN = 2.62205755429211981046484


def random_branch(rng):
    while True:
        es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
        gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) >= 0.3 * max(gaps) and max(gaps) >= 0.5:
            return BranchConfig(*es)


def test_branch_config_rejects_collisions():
    with pytest.raises(ContourGeometryError):
        BranchConfig(1.0, 1.0 + 1e-12j, -1.0)


def test_golden_periods_against_elliptic_integral():
    pd = period_data(BranchConfig(1.0, 0.0, -1.0))
    assert abs(pd.lattice.Omega - 1j) < 1e-10
    assert abs(pd.omega1 - OMEGA1_GOLDEN) < 1e-10
    assert abs(abs(pd.omega2) - OMEGA1_GOLDEN) < 1e-10


def _quadrature_period_data(branch):
    """The cycle-quadrature route: both stadium cycles at full accuracy on
    the sheet-1 frame, then the same orientation flip as period_data."""
    e1, e2, e3 = branch.es
    frame = _sheet_frame(branch)
    om1 = _cycle_integral(branch, frame, _cycle_pieces(branch, (e2, e3), e1))
    om2 = _cycle_integral(branch, frame, _cycle_pieces(branch, (e1, e2), e3))
    flipped = (om2 / om1).imag <= 0
    return om1, -om2 if flipped else om2, flipped


# Stadium cycles keep Im(Omega) above about 0.3 for every branch shape with
# a relative gap >= 1e-3; "small Im" is e1 just outside e2 (Im Omega ~ 0.39).
@pytest.mark.parametrize("es", [
    (1.0, 0.0, -1.0),
    (1.0, 0.9, -1.0 + 0.01j),
    (0.3 + 0.2j, -0.8 + 0.5j, 0.1 - 0.9j),
    (1.01, 1.0, -1.0),
], ids=["golden", "skewed-near-real", "generic-complex", "small-im-omega"])
def test_agm_periods_match_cycle_quadrature(es):
    branch = BranchConfig(*es)
    pd = period_data(branch)
    om1, om2, flipped = _quadrature_period_data(branch)
    assert abs(pd.omega1 - om1) <= 1e-12 * abs(om1)
    assert abs(pd.omega2 - om2) <= 1e-12 * abs(om2)
    assert pd.delta_flipped == flipped


@pytest.mark.parametrize("es", [
    (1.0, 0.0, -1.0),
    (1.0, 0.9, -1.0 + 0.01j),
    (0.3 + 0.7j, -0.9 + 0.1j, 0.5 - 0.8j),
    (1.01, 1.0, -1.0),
    (-0.444 - 0.178j, -0.522 + 0.710j, -0.355 - 1.170j),
], ids=["golden", "skewed-near-real", "generic-complex", "small-im-omega",
        "near-collinear"])
def test_anchor_tail_integral_matches_mpmath(es):
    # u(anchor) = -integral of dx/y along the ray from the anchor to
    # infinity, with y = 2 x^{3/2} prod sqrt(1 - e/x) and the phase of
    # x^{3/2} taken from arg(anchor); mpmath at 30 digits
    branch = BranchConfig(*es)
    anchor = _sheet_frame(branch).anchor
    with mpmath.workdps(30):
        d = mpmath.mpc(anchor) / abs(anchor)
        x32_phase = mpmath.exp(1.5j * mpmath.mpf(cmath.phase(anchor)))

        def integrand(r):
            g = 1
            for e in branch.es:
                g *= mpmath.sqrt(1 - mpmath.mpc(e) / (r * d))
            return d / (2 * r**1.5 * x32_phase * g)

        ref = complex(-mpmath.quad(integrand, [abs(anchor), mpmath.inf]))
    assert abs(_u_anchor(branch) - ref) <= 1e-14 * abs(ref)


def test_path_integral_nonconvergence_reports_last_delta(golden_branch):
    # passes 0.02 above e1 = 1, where 1/y is nearly singular
    line = Line(0.5 + 0.02j, 1.5 + 0.02j)
    y0 = cmath.sqrt(golden_branch.y_squared(line.a))
    with pytest.raises(QuadratureError) as info:
        path_integral([line], golden_branch.y_squared, y0,
                      tol=1e-30, max_doublings=1)
    found = re.search(r"last delta (\S+) at (\d+) panels", str(info.value))
    assert float(found.group(1)) > 0.0
    assert int(found.group(2)) == 16  # min_panels 8, doubled once


def _scalar_continue(fsq, piece, s0, s1, y0, halvings, depth=0):
    """Reference: the scalar stepper, one recursive step from s0 to s1."""
    x1 = piece.x(s1)
    w = cmath.sqrt(fsq(x1))
    pick = w if abs(w - y0) <= abs(w + y0) else -w
    if abs(pick - y0) > 0.7 * max(abs(pick), abs(y0)):
        if depth >= 40:
            raise QuadratureError(f"branch continuation failed near x={x1}")
        halvings.append(s1)
        sm = 0.5 * (s0 + s1)
        ym = _scalar_continue(fsq, piece, s0, sm, y0, halvings, depth + 1)
        return _scalar_continue(fsq, piece, sm, s1, ym, halvings, depth + 1)
    return pick


@pytest.mark.parametrize("piece, samples", [
    (Line(0.5 - 1e-3j, 1.5 - 1e-3j), CONTINUE_SAMPLES),  # 1e-3 below e1 = 1
    (Arc(1.0, 0.3, 0.2, 0.2 + 2 * math.pi), 4),  # once around e1
    (Arc(1.0, 0.3, 0.2, 0.2 + 1.5 * math.pi), 1),  # y turns 135 degrees
], ids=["line-near-e1", "arc-around-e1", "arc-one-step"])
def test_continue_matches_scalar_stepping(golden_branch, piece, samples):
    fsq = golden_branch.y_squared
    s = np.arange(1, samples + 1) / samples
    y_in = -cmath.sqrt(fsq(piece.x(0.0)))
    got = _continue(piece, fsq, s, y_in)
    ref, halvings, y = [], [], y_in
    for s0, s1 in zip([0.0, *s[:-1]], s):
        y = _scalar_continue(fsq, piece, s0, s1, y, halvings)
        ref.append(y)
    assert halvings  # some steps were ambiguous and got halved
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert abs(a - b) <= 1e-14 * abs(b)


def test_continue_once_around_a_branch_point_flips_y(golden_branch):
    arc = Arc(1.0, 0.3, 0.2, 0.2 + 2 * math.pi)
    y_in = cmath.sqrt(golden_branch.y_squared(arc.x(0.0)))
    y_out = continue_y([arc], golden_branch.y_squared, y_in)
    assert abs(y_out + y_in) <= 1e-14 * abs(y_in)


def test_continue_through_branch_point_names_x(golden_branch):
    line = Line(0.5 + 0j, 1.5 + 0j)  # s = 0.5 lands on e1 = 1
    with pytest.raises(QuadratureError) as info:
        _continue(line, golden_branch.y_squared, np.linspace(0.1, 1.0, 10),
                  cmath.sqrt(golden_branch.y_squared(0.5)))
    found = re.search(r"branch continuation failed near x=(\S+)", str(info.value))
    assert abs(complex(found.group(1)) - 1.0) < 1e-3


def test_periods_scaling_and_translation():
    b = BranchConfig(1.0, 0.0, -1.0)
    lat = periods(b)
    lam = 1.3 - 0.4j
    lat_s = periods(BranchConfig(*(lam * e for e in b.es)))
    # dx/y has homogeneity degree -1/2; squares kill the root-branch sign
    assert abs((lat_s.omega1 / lat.omega1) ** 2 * lam - 1.0) < 1e-10
    c = 0.37 + 0.21j
    lat_t = periods(BranchConfig(*(e + c for e in b.es)))
    assert abs(lat_t.omega1 - lat.omega1) < 1e-10 * abs(lat.omega1)
    assert abs(lat_t.omega2 - lat.omega2) < 1e-10 * abs(lat.omega2)


def test_half_periods_hit_branch_values(golden_branch, golden_lattice):
    ht = half_period_table(golden_branch, golden_lattice)
    assert sorted(ht.perm) == [1, 2, 3]
    te = golden_branch.tilde_es
    for k in range(3):
        v = wp(golden_lattice, ht.omega_tilde[k])
        assert abs(v - te[ht.perm[k] - 1]) < 1e-9


def test_abel_base_point_is_infinity(golden_branch, golden_lattice):
    # x -> infinity along the anchor ray drives u -> 0
    u_far, _ = abel_with_y(golden_branch, 80.0 + 120.0j)
    assert abs(u_far) < 0.15
    u_farther, _ = abel_with_y(golden_branch, 800.0 + 1200.0j)
    assert abs(u_farther) < abs(u_far) / 2


def test_abel_roundtrip_random_points(golden_branch, golden_lattice):
    rng = SplitMix64(31)
    count = 0
    while count < 50:
        x = rng.complex_box(-2.5, 2.5)
        if min(abs(x - e) for e in golden_branch.es) < 0.1:
            continue
        if golden_branch.distance_to_cuts(x) < 1e-3:
            continue
        u = abel(golden_branch, CurvePoint(x, 1))
        assert abs(x_from_u(golden_branch, golden_lattice, u) - x) < 1e-9
        count += 1


def test_involution_negates_abel(golden_branch, golden_lattice):
    rng = SplitMix64(32)
    for _ in range(20):
        x = rng.complex_box(-2.0, 2.0)
        if (min(abs(x - e) for e in golden_branch.es) < 0.15
                or golden_branch.distance_to_cuts(x) < 1e-2):
            continue
        pt = CurvePoint(x, 1)
        u1 = abel(golden_branch, pt)
        u2 = abel(golden_branch, pt.involution())
        r, _, _ = golden_lattice.reduce(u1 + u2)
        assert abs(r) < 1e-9


def test_curve_point_on_cut_is_rejected(golden_branch):
    # the segment cut between the second and third branch points
    with pytest.raises(ContourGeometryError):
        abel(golden_branch, CurvePoint(-0.5 + 0j, 1))


def test_wp_alpha_relations_golden(golden_branch, golden_lattice):
    rel = wp_alpha_relations(golden_branch, 2.0)
    assert abs(rel.wp - 2.0) < 1e-14
    assert abs(rel.wp_prime_sq - 24.0) < 1e-12
    assert abs(rel.wp_pp - 22.0) < 1e-12
    assert abs(rel.wp_prime**2 - rel.wp_prime_sq) < 1e-12
    # transcendental cross-check through the Abel map
    alpha = abel(golden_branch, 2.0)
    assert abs(wp(golden_lattice, alpha) - rel.wp) < 1e-9
    from elliptau.elliptic import wp_prime
    assert abs(wp_prime(golden_lattice, alpha) - rel.wp_prime) < 1e-9


def test_local_inverse_coeffs_golden(golden_branch):
    c1, c2, c3 = local_inverse_coeffs(golden_branch, 2.0)
    # exact values by series reversion of x(u) at a=2: wp'= sqrt(24),
    # wp''=22, wp'''=4 sqrt(24)
    s24 = math.sqrt(24.0)
    assert abs(c1 - 1.0 / s24) < 1e-14
    assert abs(c2 - (-11.0 / 24.0**1.5)) < 1e-14
    assert abs(c3 - 146.0 / 24.0**2.5) < 1e-14


def test_local_inverse_matches_cauchy_derivatives(golden_branch):
    # Cauchy-integral derivatives of u(x) on a small circle around a = 2
    a = 2.0
    r, n = 0.3, 64
    moments = [0j, 0j, 0j]
    for j in range(n):
        w = r * cmath.exp(2j * math.pi * j / n)
        u, _ = abel_with_y(golden_branch, a + w)
        for k in range(3):
            moments[k] += u * w ** (-(k + 1))
    coeffs = [m / n for m in moments]
    c = local_inverse_coeffs(golden_branch, a)
    for k in range(3):
        assert abs(coeffs[k] - c[k]) < 1e-8


def test_series_inversion_composes_to_identity(golden_branch):
    rel = wp_alpha_relations(golden_branch, 0.7 + 1.1j)
    b1, b2, b3 = rel.wp_prime, rel.wp_pp / 2.0, rel.wp_ppp / 6.0
    c1, c2, c3 = local_inverse_coeffs(golden_branch, 0.7 + 1.1j)
    assert abs(b1 * c1 - 1.0) < 1e-10
    assert abs(b1 * c2 + b2 * c1**2) < 1e-10
    assert abs(b1 * c3 + 2 * b2 * c1 * c2 + b3 * c1**3) < 1e-10


def test_alternative_inversion_coefficient_is_dimensionally_off(golden_branch,
                                                                golden_lattice):
    # the second-order coefficient must carry wp'^3 in the denominator; the
    # variant with wp''' there fails the composition identity at a generic
    # point (the two coincide exactly when wp'^2 = 12 wp, which the golden
    # point a=2 happens to satisfy)
    rel = wp_alpha_relations(golden_branch, 0.7 + 1.1j)
    b1, b2 = rel.wp_prime, rel.wp_pp / 2.0
    c1 = 1.0 / b1
    alt_c2 = -rel.wp_pp / (2.0 * rel.wp_ppp)
    assert abs(b1 * alt_c2 + b2 * c1**2) > 1e-2
    assert abs(rel.wp_prime**2 - 12.0 * rel.wp) > 1.0


def test_second_kind_period_legendre_pair(golden_branch, golden_lattice):
    eta1 = second_kind_period(golden_branch)
    assert abs(eta1 - golden_lattice.eta1) < 1e-10 * max(1.0, abs(eta1))


def test_inverse_map_laurent_behavior(golden_branch, golden_lattice):
    # x(u) = 1/u^2 + O(u^2) near the base point for the zero-sum golden curve
    for u in (0.02, 0.01):
        x = x_from_u(golden_branch, golden_lattice, u)
        assert abs(x * u * u - 1.0) < 2.0 * u**4 / u**2 + 1e-3


def test_local_inverse_alternative_gap(golden_branch, golden_lattice):
    # the variant c2 = -wp''/(2 wp''') is dimensionally inconsistent: it meets
    # the reversion coefficient exactly at the golden point (wp'^2 = 12 wp
    # there) and misses it generically
    def gap(a):
        rel = wp_alpha_relations(golden_branch, a)
        _, c2, _ = local_inverse_coeffs(golden_branch, a)
        return abs(c2 + rel.wp_pp / (2.0 * rel.wp_ppp))

    assert gap(2.0) < 1e-14
    assert gap(0.7 + 1.1j) > 1e-3


def test_theta_constant_residuals_random():
    rng = SplitMix64(33)
    for _ in range(4):
        b = random_branch(rng)
        lat = periods(b)
        r1, r2 = theta_constant_residuals(b, lat)
        assert r1 < 1e-8
        assert r2 < 1e-8


def test_domega_de_closed_vs_fd():
    rng = SplitMix64(34)
    for _ in range(3):
        b = random_branch(rng)
        lat = periods(b)
        h = 1e-5 * b.scale
        for nu in (1, 2, 3):
            es_p = list(b.es); es_p[nu - 1] += h
            es_m = list(b.es); es_m[nu - 1] -= h
            fd = (periods(BranchConfig(*es_p)).Omega
                  - periods(BranchConfig(*es_m)).Omega) / (2 * h)
            cl = dOmega_de(b, lat, nu)
            assert abs(fd - cl) < 1e-6 * abs(cl)


def test_domega_de_golden_value(golden_branch, golden_lattice):
    cl = dOmega_de(golden_branch, golden_lattice, 1)
    expected = 1j * math.pi / (golden_lattice.omega1**2 * (1.0 - 0.0) * (1.0 + 1.0))
    assert abs(cl - expected) < 1e-14


def test_dlog_omega1_de_closed_vs_fd(golden_branch, golden_lattice):
    h = 2e-5
    for nu in (1, 2, 3):
        es_p = list(golden_branch.es); es_p[nu - 1] += h
        es_m = list(golden_branch.es); es_m[nu - 1] -= h
        fd = (cmath.log(periods(BranchConfig(*es_p)).omega1)
              - cmath.log(periods(BranchConfig(*es_m)).omega1)) / (2 * h)
        cl = dlog_omega1_de(golden_branch, golden_lattice, nu)
        assert abs(fd - cl) < 1e-6 * max(1.0, abs(cl))


def test_dlog_omega1_translation_and_scaling_sums(golden_branch, golden_lattice):
    vals = [dlog_omega1_de(golden_branch, golden_lattice, nu) for nu in (1, 2, 3)]
    assert abs(sum(vals)) < 1e-8
    euler = sum(e * v for e, v in zip(golden_branch.es, vals))
    assert abs(euler + 0.5) < 1e-7


def test_quasiperiod_ratio_derivative(golden_branch):
    for nu in (1, 2, 3):
        assert quasiperiod_ratio_derivative_residual(golden_branch, nu, 0.1) < 1e-6
    # both sides scale as t^2, so the relative residual is t-invariant
    r1 = quasiperiod_ratio_derivative_residual(golden_branch, 1, 0.1)
    r2 = quasiperiod_ratio_derivative_residual(golden_branch, 1, 0.2)
    assert abs(r1 - r2) < 1e-6
