"""Named oracle checks over a scenario, and the machine-readable report.

Every check compares a closed form against an independent route (series
oracle, finite difference, contour quadrature, or ODE continuation) and
returns a residual to be judged against its tolerance, or a status of its
own when the residual cannot be judged (inconclusive).  Checks are isolated:
one failure or exception never aborts the others.  Random draws come from
per-check SplitMix64 streams derived from the scenario seed, so a report is
reproducible bit-for-bit given the same platform floating point.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .curve import (
    BranchConfig,
    CurvePoint,
    abel,
    dOmega_de,
    dlog_omega1_de,
    periods,
    quasiperiod_ratio_derivative_residual,
    theta_constant_residuals,
    x_from_u,
)
from .elliptic import (
    ThetaChar,
    lattice_from_periods,
    sigma,
    sigma_char,
    theta_dOmega,
    theta_dz,
    wp,
    wp_n,
    wp_prime,
    zeta,
)
from .errors import EllipTauError, ScenarioError
from .isomono import (
    build_phi,
    coefficients,
    deformation_residual,
    make_params,
    normalize_Y,
    shifted_params,
    theoretical_monodromy,
)
from .monodromy import (
    monodromy_matrices,
    sector_connection_residuals,
    trivial_loop_identity,
)
from .scenario import check_stream
from .tau import (
    SigmaShiftParams,
    H_nu,
    H_t,
    sigma_shift_dlog_tau_dt,
    sigma_shift_tau,
    sigma_shift_trace_residual,
    log_tau,
    omega_a_de_component,
    residue_formula,
)

TWO_PI = 2.0 * math.pi


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive
    residual: float
    tolerance: float
    runtime_ms: float
    notes: str = ""


@dataclass
class Report:
    overall: str
    environment: dict
    results: list

    def to_json_dict(self):
        def num(x):
            return f"{x:.17g}"

        return {
            "overall": self.overall,
            "environment": self.environment,
            "checks": [
                {
                    "name": r.name,
                    "status": r.status,
                    "residual": num(r.residual),
                    "tolerance": num(r.tolerance),
                    "runtime_ms": num(r.runtime_ms),
                    "notes": r.notes,
                }
                for r in self.results
            ],
        }


class CheckContext:
    """Lazily built shared state for a scenario's checks."""

    def __init__(self, scenario, draw_scale=1.0):
        self.scenario = scenario
        self.draw_scale = draw_scale
        self._cache = {}
        self._failed = {}

    def draws(self, base, minimum=2):
        return max(minimum, int(round(base * self.draw_scale)))

    def _get(self, key, builder):
        """Build a stage once.  A stage that raised stays failed: later
        requests re-raise the stored exception instead of rebuilding it."""
        if key in self._failed:
            raise self._failed[key]
        if key not in self._cache:
            try:
                self._cache[key] = builder()
            except Exception as exc:
                self._failed[key] = exc
                raise
        return self._cache[key]

    def failed_stage(self, exc):
        """The first stage whose build raised exc, or None."""
        return next((k for k, v in self._failed.items() if v is exc), None)

    @property
    def branch(self):
        return self._get("branch", lambda: self.scenario.branch)

    @property
    def params(self):
        s = self.scenario
        return self._get("params", lambda: make_params(
            self.branch, s.a, s.t, s.p, s.q))

    @property
    def phi(self):
        return self._get("phi", lambda: build_phi(self.params))

    @property
    def sol(self):
        return self._get("sol", lambda: normalize_Y(self.params, self.phi))

    @property
    def coeffs(self):
        return self._get("coeffs", lambda: coefficients(
            self.params, phi=self.phi, sol=self.sol))

    @property
    def theory(self):
        return self._get("theory", lambda: theoretical_monodromy(self.params))

    @property
    def numerical_monodromy(self):
        return self._get("numM", lambda: monodromy_matrices(
            self.params, sol=self.sol, coeffs=self.coeffs))


def _random_lattice(rng):
    w1 = (0.6 + rng.uniform(0.0, 1.2)) * rng.unit_phase()
    Om = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.25, 1.8))
    return lattice_from_periods(w1, w1 * Om)


def _random_char(rng):
    def draw():
        while True:
            v = rng.uniform(0.05, 0.95)
            if abs(v - 0.5) >= 0.05:
                return v
    return ThetaChar(draw(), draw())


def _random_u(rng, lat):
    return (rng.uniform(0.08, 0.42) * lat.omega1
            + rng.uniform(0.08, 0.42) * lat.omega2)


def _random_branch(rng):
    while True:
        es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
        gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) >= 0.3 * max(gaps) and max(gaps) >= 0.5:
            try:
                b = BranchConfig(*es)
                if periods(b).Omega.imag >= 0.05:
                    return b
            except EllipTauError:
                continue


def circle_mean(f, center, radius, n=64):
    """Trapezoidal (1/n) sum of f(x) (x-center) over |x-center|=radius: the
    Cauchy residue of f at the center."""
    acc = 0j
    for j in range(n):
        w = radius * cmath.exp(2j * math.pi * j / n)
        acc += f(center + w) * w
    return acc / n


# ---------------------------------------------------------------------------
# Elliptic identity checks
# ---------------------------------------------------------------------------


def check_legendre(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(20)):
        lat = _random_lattice(rng)
        worst = max(worst, abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1
                               - 2j * math.pi) / TWO_PI)
        u = _random_u(rng, lat)
        worst = max(worst, abs(zeta(lat, u + lat.omega1) - zeta(lat, u) - lat.eta1)
                    / max(1.0, abs(lat.eta1)))
        worst = max(worst, abs(zeta(lat, u + lat.omega2) - zeta(lat, u) - lat.eta2)
                    / max(1.0, abs(lat.eta2)))
    return worst, "normalization plus zeta-increment cross-check"


def check_heat_equation(ctx, rng, tol):
    worst = 0.0
    for i in range(10):
        for j in range(int(max(2, 10 * ctx.draw_scale))):
            Om = complex(-0.4 + 0.08 * i, 0.3 + 0.15 * j)
            z = complex(-0.5 + 0.1 * i, -0.3 + 0.07 * j)
            ch = _random_char(rng)
            lhs = theta_dz(ch, z, Om, 2)
            rhs = 4j * math.pi * theta_dOmega(ch, z, Om)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst, "second z-derivative vs 4 pi i Omega-derivative"


def check_wp_ode(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(20)):
        lat = _random_lattice(rng)
        u = _random_u(rng, lat)
        w, w1 = wp(lat, u), wp_prime(lat, u)
        res = w1 * w1 - (4.0 * w**3 - lat.g2 * w - lat.g3)
        worst = max(worst, abs(res) / max(abs(w1 * w1), abs(4 * w**3), 1e-30))
    return worst, "wp'^2 = 4 wp^3 - g2 wp - g3"


def check_wp_addition(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(20)):
        lat = _random_lattice(rng)
        u = _random_u(rng, lat)
        w, w1 = wp(lat, u), wp_prime(lat, u)
        w2 = wp_n(lat, u, 2)
        lhs = wp(lat, 2 * u)
        rhs = -2.0 * w + 0.25 * (w2 / w1) ** 2
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    return worst, "duplication wp(2u) = -2 wp + (wp''/wp')^2/4"


def check_wp_triple(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(20)):
        lat = _random_lattice(rng)
        u = _random_u(rng, lat)
        lhs = wp_n(lat, u, 3)
        rhs = 12.0 * wp(lat, u) * wp_prime(lat, u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    return worst, "wp''' = 12 wp wp'"


def check_quasi_periodicity(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(100, minimum=10)):
        lat = _random_lattice(rng)
        ch = _random_char(rng)
        u = _random_u(rng, lat)
        s0 = sigma_char(lat, ch, u)
        lhs = sigma_char(lat, ch, u + lat.omega1)
        rhs = (cmath.exp(2j * math.pi * ch.p)
               * cmath.exp(lat.eta1 * (u + lat.omega1 / 2.0)) * s0)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        lhs = sigma_char(lat, ch, u + lat.omega2)
        rhs = (cmath.exp(-2j * math.pi * ch.q)
               * cmath.exp(lat.eta2 * (u + lat.omega2 / 2.0)) * s0)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return worst, "both period shifts of sigma[p,q]"


def check_sigma_homogeneity(ctx, rng, tol):
    worst = 0.0
    for _ in range(ctx.draws(20)):
        lat = _random_lattice(rng)
        lam = (0.5 + rng.uniform(0.0, 1.5)) * rng.unit_phase()
        lat2 = lattice_from_periods(lam * lat.omega1, lam * lat.omega2)
        u = _random_u(rng, lat)
        lhs = sigma(lat2, lam * u)
        rhs = lam * sigma(lat, u)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return worst, "sigma(lu; lw1, lw2) = l sigma(u; w1, w2)"


# ---------------------------------------------------------------------------
# Branch-derivative checks
# ---------------------------------------------------------------------------


def _branch_samples(ctx, rng, base_count):
    out = [ctx.branch]
    for _ in range(ctx.draws(base_count, minimum=1)):
        out.append(_random_branch(rng))
    return out


def check_theta_constants(ctx, rng, tol):
    worst = 0.0
    for b in _branch_samples(ctx, rng, 9):
        lat = periods(b)
        r1, r2 = theta_constant_residuals(b, lat)
        worst = max(worst, r1, r2)
    return worst, "odd theta-constant identities vs geometric quasi-period"


def check_domega_de(ctx, rng, tol):
    worst = 0.0
    for b in _branch_samples(ctx, rng, 9):
        lat = periods(b)
        h = 1e-5 * b.scale
        total = 0j
        biggest = 0.0
        for nu in (1, 2, 3):
            fd = (periods(b.moved(nu, h)).Omega
                  - periods(b.moved(nu, -h)).Omega) / (2 * h)
            cl = dOmega_de(b, lat, nu)
            total += cl
            biggest = max(biggest, abs(cl))
            worst = max(worst, abs(fd - cl) / max(abs(cl), 1e-30))
        # translation direction annihilates the period ratio
        worst = max(worst, abs(total) / biggest)
    return worst, "closed form vs central difference; translation sum"


def check_dlog_omega1_de(ctx, rng, tol):
    worst = 0.0
    for b in _branch_samples(ctx, rng, 9):
        lat = periods(b)
        h = 1e-5 * b.scale
        total = 0j
        euler = 0j
        biggest = 0.0
        for nu in (1, 2, 3):
            fd = (cmath.log(periods(b.moved(nu, h)).omega1)
                  - cmath.log(periods(b.moved(nu, -h)).omega1)) / (2 * h)
            cl = dlog_omega1_de(b, lat, nu)
            total += cl
            euler += b.es[nu - 1] * cl
            biggest = max(biggest, abs(cl))
            worst = max(worst, abs(fd - cl) / max(abs(cl), 1e-30))
        worst = max(worst, abs(total) / biggest)
        # degree -1/2 homogeneity of omega1 in the branch points
        worst = max(worst, abs(euler + 0.5) / 0.5)
    return worst, "closed form vs FD; translation and Euler scaling sums"


def check_quasiperiod_ratio_derivative(ctx, rng, tol):
    worst = 0.0
    t = ctx.scenario.t if abs(ctx.scenario.t) > 1e-3 else 0.1
    for b in _branch_samples(ctx, rng, 9):
        for nu in (1, 2, 3):
            worst = max(worst, quasiperiod_ratio_derivative_residual(b, nu, t))
    return worst, "eta1 t^2/(2 omega1) derivative vs closed form"


def check_abel_roundtrip(ctx, rng, tol):
    b = ctx.branch
    lat = periods(b)
    worst = 0.0
    for _ in range(ctx.draws(50, minimum=8)):
        x = b.centroid + rng.complex_box(-2.0, 2.0) * b.scale
        if min(abs(x - e) for e in b.es) < 0.05 * b.scale:
            continue
        if b.distance_to_cuts(x) < 1e-3 * b.scale:
            continue
        u = abel(b, CurvePoint(x, 1))
        worst = max(worst, abs(x_from_u(b, lat, u) - x) / max(abs(x), 1.0))
        u2 = abel(b, CurvePoint(x, 2))
        r, _, _ = lat.reduce(u + u2)
        worst = max(worst, abs(r) / lat.unit())
    return worst, "inversion and involution mod lattice"


def check_periods_scaling(ctx, rng, tol):
    b = ctx.branch
    lat = periods(b)
    worst = 0.0
    for _ in range(ctx.draws(4, minimum=1)):
        lam = (0.5 + rng.uniform(0.0, 1.0)) * rng.unit_phase()
        lat_s = periods(BranchConfig(*(lam * e for e in b.es)))
        # dx/y scales by lambda^{-1/2}; compare the ratio squared to kill the
        # orientation-dependent square-root sign
        ratio_sq = (lat_s.omega1 / lat.omega1) ** 2 * lam
        worst = max(worst, abs(ratio_sq - 1.0))
        c = rng.complex_box(-1.0, 1.0)
        lat_t = periods(BranchConfig(*(e + c for e in b.es)))
        worst = max(worst, abs(lat_t.omega1 - lat.omega1) / abs(lat.omega1))
        worst = max(worst, abs(lat_t.omega2 - lat.omega2) / abs(lat.omega2))
    return worst, "sqrt-scaling law and translation invariance"


# ---------------------------------------------------------------------------
# Explicit-solution checks
# ---------------------------------------------------------------------------


def check_phi_transformation(ctx, rng, tol):
    p = ctx.params
    phi = ctx.phi
    lat = p.lat
    worst = 0.0
    for _ in range(ctx.draws(20, minimum=5)):
        u = _random_u(rng, lat) + 0.03 * lat.omega1
        m0 = phi.matrix(u)
        lhs = phi.matrix(u + lat.omega1)
        rhs = m0 @ phi.gamma_multiplier(u)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
        lhs = phi.matrix(u + lat.omega2)
        rhs = m0 @ phi.delta_multiplier(u)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    return worst, "both cycle transformations of the row functions"


def check_det_phi_zeros(ctx, rng, tol):
    p = ctx.params
    phi = ctx.phi
    worst = 0.0
    pts = list(p.half_periods.omega_tilde) + [0j]
    for h in pts:
        d0 = abs(phi.det(h))
        d1 = abs(phi.det_du(h)) * p.lat.unit()
        worst = max(worst, d0 / max(d1, 1e-30))
    return worst, "det Phi vanishes at the four branch places (slope-relative)"


def check_y_normalization(ctx, rng, tol):
    mom = ctx.sol.y_ring_moments(0.02 * min(abs(ctx.params.a - e)
                                            for e in ctx.branch.es),
                                 npoints=32, orders=(0,))
    res = float(np.max(np.abs(mom[0] - np.eye(2))))
    return res, "ring average of Y exp(-T) minus identity"


def check_y1_closed_form(ctx, rng, tol):
    r = 0.05 * min(abs(ctx.params.a - e) for e in ctx.branch.es)
    mom = ctx.sol.y_ring_moments(r, npoints=48, orders=(1,))
    Y1 = ctx.sol.y1_closed_form()
    res = float(np.max(np.abs(mom[1] - Y1)) / max(1.0, float(np.max(np.abs(Y1)))))
    return res, "Cauchy-moment extraction vs closed form"


# ---------------------------------------------------------------------------
# ODE and monodromy checks
# ---------------------------------------------------------------------------


def _generic_circle_center(ctx):
    b = ctx.branch
    sing = list(b.es) + [ctx.params.a]
    best = None
    for k in range(8):
        cand = b.centroid + 1.3 * b.scale * cmath.exp(2j * math.pi * (k + 0.5) / 8)
        d = min(abs(cand - s) for s in sing)
        if best is None or d > best[0]:
            best = (d, cand)
    return best[1]


def check_ode_residual(ctx, rng, tol):
    p = ctx.params
    center = _generic_circle_center(ctx)
    radius = 0.1 * ctx.branch.scale
    h = 1e-6 * max(1.0, ctx.branch.scale)
    worst = 0.0
    for j in range(ctx.draws(8, minimum=4)):
        x = center + radius * cmath.exp(2j * math.pi * j / ctx.draws(8, minimum=4))
        Yp = ctx.sol.y_at(x + h)
        Ym = ctx.sol.y_at(x - h)
        Y = ctx.sol.y_at(x)
        lhs = (Yp - Ym) / (2 * h) @ np.linalg.inv(Y)
        rhs = ctx.coeffs.A_of(x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))
                                 / max(1.0, float(np.max(np.abs(rhs))))))
    return worst, "Y'Y^{-1} vs the rational coefficient matrix"


def check_monodromy_match(ctx, rng, tol):
    nums, offsets = ctx.numerical_monodromy
    worst = 0.0
    for which in (1, 2, 3, "inf"):
        worst = max(worst, float(np.max(np.abs(nums[which] - ctx.theory.M[which]))))
    return worst, f"loop frame offsets {offsets}"


def check_cyclic_relation(ctx, rng, tol):
    nums, _ = ctx.numerical_monodromy
    prod = nums[3] @ nums[2] @ nums[1] @ nums["inf"]
    extra = trivial_loop_identity(ctx.params, ctx.coeffs)
    return max(float(np.max(np.abs(prod - np.eye(2)))), extra), \
        "M3 M2 M1 M_inf = 1 and a contractible loop"


def check_stokes_triviality(ctx, rng, tol):
    res = sector_connection_residuals(ctx.params, ctx.sol, ctx.coeffs)
    return max(res), "sectorial connection matrices vs identity"


def check_monodromy_invariance(ctx, rng, tol):
    nums, _ = ctx.numerical_monodromy
    worst = 0.0
    for direction in ("t", "e1", "e2", "e3"):
        moved, _ = monodromy_matrices(shifted_params(ctx.params, direction, 1e-3))
        for which in (1, 2, 3, "inf"):
            worst = max(worst, float(np.max(np.abs(moved[which] - nums[which]))))
    return worst, "drift under 1e-3 moves of t, e1, e2, e3"


def check_deformation_equation(ctx, rng, tol):
    worst = 0.0
    ratios = []
    for direction in ("t", "e1", "e2"):
        r1 = deformation_residual(ctx.params, direction, 1e-4,
                                  sol=ctx.sol, coeffs=ctx.coeffs)
        r2 = deformation_residual(ctx.params, direction, 5e-5,
                                  sol=ctx.sol, coeffs=ctx.coeffs)
        worst = max(worst, max(r1["paired"].values()))
        big, small = max(r1["paired"].values()), max(r2["paired"].values())
        ratios.append(big / max(small, 1e-30))
    if any(r < 1.5 for r in ratios):
        return (worst, f"residual not shrinking with step (ratios {ratios})",
                "inconclusive")
    return worst, f"paired reading; halving ratios {['%.1f' % r for r in ratios]}"


# ---------------------------------------------------------------------------
# Tau-function checks
# ---------------------------------------------------------------------------


def check_residue_identity(ctx, rng, tol):
    p = ctx.params
    worst = 0.0
    for nu in (1, 2, 3):
        e = ctx.branch.es[nu - 1]
        r = 0.05 * min(abs(e - s) for s in
                       [x for x in ctx.branch.es if x != e] + [p.a])
        num = circle_mean(ctx.coeffs.trace_A2_half, e, r, n=64)
        worst = max(worst, abs(num - residue_formula(p, nu))
                    / max(1.0, abs(num)))
    return worst, "analytic seven-term value vs contour residue of tr A^2/2"


def check_residue_sum_rule(ctx, rng, tol):
    p = ctx.params
    total = 0j
    for e in list(ctx.branch.es) + [p.a]:
        r = 0.05 * min(abs(e - s) for s in
                       [x for x in list(ctx.branch.es) + [p.a] if x != e])
        total += circle_mean(ctx.coeffs.trace_A2_half, e, r, n=64)
    c = ctx.branch.centroid
    R = 6.0 * max(max(abs(s - c) for s in list(ctx.branch.es) + [p.a]),
                  ctx.branch.scale)
    big = circle_mean(ctx.coeffs.trace_A2_half, c, R, n=256)
    return abs(total - big), "finite residues vs the enclosing contour"


def _fd(params, f, direction, h):
    """Central difference of f(params) as t or e_nu (direction) moves by +-h."""
    return (f(shifted_params(params, direction, h))
            - f(shifted_params(params, direction, -h))) / (2 * h)


def _admissible_neighbors(ctx, rng, count):
    """The scenario point plus mild admissible moves of (t, e)."""
    s = ctx.scenario
    out = [(ctx.branch, s.t)]
    for _ in range(count):
        es = tuple(e + 0.08 * ctx.branch.scale * rng.complex_box()
                   for e in ctx.branch.es)
        t = s.t + 0.05 * rng.complex_box()
        try:
            b = BranchConfig(*es)
            make_params(b, s.a, t, s.p, s.q)
        except EllipTauError:
            continue
        out.append((b, t))
    return out


def check_dlogtau_dt(ctx, rng, tol):
    worst = 0.0
    gap = 0.0
    s = ctx.scenario
    for b, t in _admissible_neighbors(ctx, rng, ctx.draws(4, minimum=1)):
        h = 1e-6 * (1.0 + abs(t))
        p = make_params(b, s.a, t, s.p, s.q)
        v = H_t(p)
        fd1 = _fd(p, log_tau, "t", h)
        fd2 = _fd(p, log_tau, "t", h / 2)
        worst = max(worst, abs(v - fd2) / max(1.0, abs(v)))
        gap = max(gap, abs(fd1 - fd2))
    return worst, f"richardson gap {gap:.2e}"


def check_dlogtau_de(ctx, rng, tol):
    worst = 0.0
    s = ctx.scenario
    for b, t in _admissible_neighbors(ctx, rng, ctx.draws(4, minimum=1)):
        h = 5e-7 * (1.0 + b.scale)
        p = make_params(b, s.a, t, s.p, s.q)
        for nu in (1, 2, 3):
            v = H_nu(p, nu)
            fd = _fd(p, log_tau, f"e{nu}", h)
            worst = max(worst, abs(v - fd) / max(1.0, abs(v)))
    return worst, "H_nu vs branch-continuous finite differences"


def check_omega_closedness(ctx, rng, tol):
    worst = 0.0
    h = 1e-5 * (1.0 + ctx.branch.scale)
    p = ctx.params
    for nu in (1, 2, 3):
        lhs = _fd(p, H_t, f"e{nu}", h)
        rhs = _fd(p, lambda q, nu=nu: H_nu(q, nu), "t", h)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    for nu in (1, 2):
        for mu in range(nu + 1, 4):
            lhs = _fd(p, lambda q, mu=mu: H_nu(q, mu), f"e{nu}", h)
            rhs = _fd(p, lambda q, nu=nu: H_nu(q, nu), f"e{mu}", h)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst, "all six mixed partials of the 1-form"


def check_hamiltonian_cross(ctx, rng, tol):
    worst = 0.0
    for nu in (1, 2, 3):
        lhs = H_nu(ctx.params, nu)
        rhs = residue_formula(ctx.params, nu) + omega_a_de_component(ctx.params, nu)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst, "five-term closed form vs residue plus irregular-point part"


def check_h_t_residue_oracle(ctx, rng, tol):
    p = ctx.params
    r = 0.05 * min(abs(p.a - e) for e in ctx.branch.es)
    mom = ctx.sol.y_ring_moments(r, npoints=48, orders=(1,))
    wp1 = p.wp_a.wp_prime
    lhs = wp1 * 0.5 * (mom[1][0, 0] - mom[1][1, 1])
    rhs = H_t(p)
    return abs(lhs - rhs) / max(1.0, abs(rhs)), \
        "residue definition via Cauchy moments vs closed form"


# ---------------------------------------------------------------------------
# Zero-sum special-case checks
# ---------------------------------------------------------------------------


def _shift_params(ctx, l):
    p = ctx.params
    return SigmaShiftParams(l, p.t if abs(p.t) > 1e-3 else 0.1, p.alpha, p.lat)


def check_shifted_tau_at_zero(ctx, rng, tol):
    worst = 0.0
    for l in (-1, 1, 2):
        ap = _shift_params(ctx, l)
        ap0 = SigmaShiftParams(l, 0.0, ap.alpha, ap.lat)
        lhs = sigma_shift_tau(ap0)
        rhs = sigma(ap.lat, 2 * l * ap.alpha)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst, "tau_l(0) = sigma(2 l alpha)"


def check_shifted_tau_dlog(ctx, rng, tol):
    worst = 0.0
    for l in (-1, 0, 1, 2):
        ap = _shift_params(ctx, l)
        h = 1e-6 * (1.0 + abs(ap.t))
        fd = (cmath.log(sigma_shift_tau(
                  SigmaShiftParams(l, ap.t + h / 2, ap.alpha, ap.lat)))
              - cmath.log(sigma_shift_tau(
                  SigmaShiftParams(l, ap.t - h / 2, ap.alpha, ap.lat)))) / h
        cl = sigma_shift_dlog_tau_dt(ap)
        worst = max(worst, abs(cl - fd) / max(1.0, abs(cl)))
    return worst, "closed d/dt log tau_l vs finite difference, l in {-1,0,1,2}"


def check_shifted_tau_trace(ctx, rng, tol):
    worst = 0.0
    for l in (-1, 0, 1, 2):
        worst = max(worst, sigma_shift_trace_residual(
            _shift_params(ctx, l)))
    return worst, "wp' tr(Y1 diag(1/2,-1/2)) vs d/dt log tau_l"


def check_shifted_tau_cross_family(ctx, rng, tol):
    # identify sigma[p,q] with the 2 l alpha shift: the multipliers match for
    # p = 1/2 + eta1 l alpha / (pi i), q = 1/2 - eta2 l alpha / (pi i)
    p = ctx.params
    lat = p.lat
    l = 1
    al = p.alpha
    pc = 0.5 + lat.eta1 * l * al / (1j * math.pi)
    qc = 0.5 - lat.eta2 * l * al / (1j * math.pi)
    a_of_alpha = wp(lat, al) + ctx.branch.e_sum / 3.0
    t = p.t if abs(p.t) > 1e-3 else 0.1
    h = 1e-5 * (1.0 + abs(t))

    def main_ht(tt):
        return H_t(make_params(ctx.branch, a_of_alpha, tt, pc, qc))

    def app_dl(tt):
        return sigma_shift_dlog_tau_dt(SigmaShiftParams(l, tt, al, lat))

    d2_main = (main_ht(t + h) - main_ht(t - h)) / (2 * h)
    d2_app = (app_dl(t + h) - app_dl(t - h)) / (2 * h)
    return abs(d2_main - d2_app) / max(1.0, abs(d2_app)), \
        "second t-derivatives of log tau agree across the two constructions"


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

# name -> (check, suite, default tolerance); a suite runs its checks in this order
CHECKS = {
    "legendre": (check_legendre, "elliptic", 1e-10),
    "heat_equation": (check_heat_equation, "elliptic", 1e-9),
    "wp_ode": (check_wp_ode, "elliptic", 1e-9),
    "wp_addition": (check_wp_addition, "elliptic", 1e-9),
    "wp_triple": (check_wp_triple, "elliptic", 1e-9),
    "quasi_periodicity": (check_quasi_periodicity, "elliptic", 1e-10),
    "sigma_homogeneity": (check_sigma_homogeneity, "elliptic", 1e-10),
    "theta_constants": (check_theta_constants, "branch", 1e-6),
    "domega_de": (check_domega_de, "branch", 1e-6),
    "dlog_omega1_de": (check_dlog_omega1_de, "branch", 1e-6),
    "quasiperiod_ratio_derivative": (check_quasiperiod_ratio_derivative, "branch", 1e-6),
    "abel_roundtrip": (check_abel_roundtrip, "branch", 1e-9),
    "periods_scaling": (check_periods_scaling, "branch", 1e-10),
    "phi_transformation": (check_phi_transformation, "solution", 1e-9),
    "det_phi_zeros": (check_det_phi_zeros, "solution", 1e-8),
    "y_normalization": (check_y_normalization, "solution", 1e-8),
    "y1_closed_form": (check_y1_closed_form, "solution", 1e-7),
    "ode_residual": (check_ode_residual, "monodromy", 1e-7),
    "monodromy_match": (check_monodromy_match, "monodromy", 1e-6),
    "cyclic_relation": (check_cyclic_relation, "monodromy", 1e-6),
    "stokes_triviality": (check_stokes_triviality, "monodromy", 1e-6),
    "monodromy_invariance": (check_monodromy_invariance, "monodromy", 1e-6),
    "deformation_equation": (check_deformation_equation, "monodromy", 1e-5),
    "residue_identity": (check_residue_identity, "tau", 1e-6),
    "residue_sum_rule": (check_residue_sum_rule, "tau", 1e-7),
    "dlogtau_dt": (check_dlogtau_dt, "tau", 1e-6),
    "dlogtau_de": (check_dlogtau_de, "tau", 1e-6),
    "omega_closedness": (check_omega_closedness, "tau", 1e-5),
    "hamiltonian_cross": (check_hamiltonian_cross, "tau", 1e-7),
    "h_t_residue_oracle": (check_h_t_residue_oracle, "tau", 1e-6),
    "shifted_tau_at_zero": (check_shifted_tau_at_zero, "shifted", 1e-12),
    "shifted_tau_dlog": (check_shifted_tau_dlog, "shifted", 1e-7),
    "shifted_tau_trace": (check_shifted_tau_trace, "shifted", 1e-7),
    "shifted_tau_cross_family": (check_shifted_tau_cross_family, "shifted", 1e-6),
}

SUITES = {}
for _name, (_, _suite, _) in CHECKS.items():
    SUITES.setdefault(_suite, []).append(_name)


def resolve_check_names(names):
    """Expand suite names, validate, and return the ordered unique list."""
    if not names:
        return list(CHECKS)
    out = []
    for n in names:
        if n in SUITES:
            out.extend(SUITES[n])
        elif n in CHECKS:
            out.append(n)
        else:
            raise ScenarioError(f"unknown check identifier: {n!r}")
    seen = set()
    uniq = []
    for n in out:
        if n not in seen:
            seen.add(n)
            uniq.append(n)
    return uniq


def run_checks(scenario, checks=None, tol_scale=1.0, draw_scale=1.0):
    """Run the selected checks and assemble the report.

    Checks come from `checks` when given, else from the scenario, else all.
    Each runs in isolation with its own seeded stream; tolerances are the
    registry defaults, overridden per-name by the scenario, then scaled.
    """
    names = resolve_check_names(list(checks) if checks is not None
                                else list(scenario.checks))
    ctx = CheckContext(scenario, draw_scale=draw_scale)
    results = []
    for name in names:
        fn, _, default_tol = CHECKS[name]
        tol = tol_scale * float(scenario.tolerances.get(name, default_tol))
        rng = check_stream(scenario.seed, name)
        start = time.perf_counter()
        try:
            residual, notes, *verdict = fn(ctx, rng, tol)
            status = verdict[0] if verdict else ("pass" if residual < tol else "fail")
        except Exception as exc:  # isolation: a crash is a failed check
            stage = ctx.failed_stage(exc)
            where = f" in stage {stage!r}" if stage is not None else ""
            residual, status = math.inf, "fail"
            notes = f"error: {type(exc).__name__}{where}: {exc}"
        ms = 1000.0 * (time.perf_counter() - start)
        results.append(CheckResult(name, status, residual, tol, ms, notes))
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    env = {"precision": "float64/complex128", "version": __version__}
    return Report(overall=overall, environment=env, results=results)
