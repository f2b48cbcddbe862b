"""Explicit 2x2 fundamental solution on the curve and its monodromy data.

The solution is assembled from sigma-quotients on the Abel side, one row
for each frame shift s = +alpha (phi) and s = -alpha (psi):

    row_s(u) = sigma[p,q](u + s + t) sigma(u - s) exp Pi(u),
    Pi(u)    = -(t/2) (zeta(u - alpha) + zeta(u + alpha)),

and Phi(P) is the 2x2 matrix whose columns sit at P and its involution
image (u and -u).  Y is Phi normalized at the double pole x = a; its
monodromy is rigid in the deformation parameters, with off-diagonal
monodromy matrices, trivial Stokes matrices, and formal exponents
diag(-1/4, 1/4) at the four branch points.

Everything here evaluates on one coherent branch: alpha and the sign of
wp'(alpha) come from the curve module's sheet-1 frame.  With the rows at
u = +-alpha, det Phi(u) = sigma[p,q](t)^2 sigma(2 alpha) sigma(2u), so the
square root of det Phi is sigma[p,q](t) sigma(2 alpha) times the principal
root of sigma(2u)/sigma(2 alpha); y_at and hatted both take that root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import curve as _curve
from .curve import BranchConfig, HalfPeriodTable, WpAtA
from .elliptic import (
    Lattice,
    ThetaChar,
    sigma,
    sigma_char,
    sigma_char_dlog,
    sigma_char_du,
    sigma_du,
    theta,
    wp,
    wp_prime,
    zeta,
)
from .errors import DegenerateParameterError

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class DeformationParams:
    """One point of the deformation space, with its derived data."""

    branch: BranchConfig
    lat: Lattice
    a: complex
    alpha: complex
    t: complex
    char: ThetaChar
    wp_a: WpAtA
    half_periods: HalfPeriodTable

    @property
    def kappa(self):
        """wp''(alpha)/(2 wp'(alpha)) + zeta(2 alpha); the local exponent shift."""
        return (self.wp_a.wp_pp / (2.0 * self.wp_a.wp_prime)
                + zeta(self.lat, 2.0 * self.alpha))


@lru_cache(maxsize=1024)
def make_params(branch, a, t, p, q):
    """Validate and assemble a DeformationParams.

    Checks: a is a regular point (BranchConfig.check_regular_point),
    theta[p,q](t/omega1) is not at a zero (the normalization divides by it),
    and alpha is not a half period (wp'(alpha) != 0 follows from the first
    check).
    """
    a, t = complex(a), complex(t)
    branch.check_regular_point(a)
    lat = _curve.periods(branch)
    char = ThetaChar(p, q)
    th = theta(char, t / lat.omega1, lat.Omega)
    if abs(th) < 1e-8:
        raise DegenerateParameterError(
            f"theta[p,q](t/omega1) = {th} is too close to its zero"
        )
    alpha, _ = _curve.abel_with_y(branch, a)
    wp_a = _curve.wp_alpha_relations(branch, a)
    hpt = _curve.half_period_table(branch, lat)
    return DeformationParams(
        branch=branch, lat=lat, a=a, alpha=alpha, t=t, char=char,
        wp_a=wp_a, half_periods=hpt,
    )


def shifted_params(params, direction, delta):
    """The same point with t ('t') or one branch point ('e1'/'e2'/'e3') moved by delta."""
    p = params
    if direction == "t":
        return make_params(p.branch, p.a, p.t + delta, p.char.p, p.char.q)
    return make_params(p.branch.moved(int(direction[1]), delta), p.a, p.t,
                       p.char.p, p.char.q)


class PhiMatrix:
    """Entry evaluators for Phi(P) as functions of the Abel coordinate u."""

    def __init__(self, params):
        self.params = params

    def Pi(self, u):
        p = self.params
        return -(p.t / 2.0) * (zeta(p.lat, u - p.alpha) + zeta(p.lat, u + p.alpha))

    def Pi_prime(self, u):
        p = self.params
        return (p.t / 2.0) * (wp(p.lat, u - p.alpha) + wp(p.lat, u + p.alpha))

    def Pi_hat(self, u, x=None):
        """Regular part of Pi near x = a: Pi + wp'(alpha) t / (2 (x-a))."""
        p = self.params
        if x is None:
            x = wp(p.lat, u) + p.branch.e_sum / 3.0
        return self.Pi(u) + p.wp_a.wp_prime * p.t / (2.0 * (x - p.a))

    # Each row is keyed by its frame shift s: s = alpha is phi, s = -alpha psi.

    def row_hat(self, u, s):
        p = self.params
        return sigma_char(p.lat, p.char, u + s + p.t) * sigma(p.lat, u - s)

    def row_hat_du(self, u, s):
        p = self.params
        return (sigma_char_du(p.lat, p.char, u + s + p.t) * sigma(p.lat, u - s)
                + sigma_char(p.lat, p.char, u + s + p.t) * sigma_du(p.lat, u - s))

    def row(self, u, s):
        return self.row_hat(u, s) * cmath.exp(self.Pi(u))

    def dlog_row(self, u, s):
        p = self.params
        return (sigma_char_dlog(p.lat, p.char, u + s + p.t)
                + zeta(p.lat, u - s) + self.Pi_prime(u))

    def matrix(self, u):
        al = self.params.alpha
        return np.array([[self.row(u, al), self.row(-u, al)],
                         [self.row(u, -al), self.row(-u, -al)]], dtype=complex)

    def det(self, u):
        """det Phi as a function of u; the Pi exponentials cancel."""
        al = self.params.alpha
        return (self.row_hat(u, al) * self.row_hat(-u, -al)
                - self.row_hat(-u, al) * self.row_hat(u, -al))

    def det_du(self, u):
        al = self.params.alpha
        return (self.row_hat_du(u, al) * self.row_hat(-u, -al)
                - self.row_hat(u, al) * self.row_hat_du(-u, -al)
                + self.row_hat_du(-u, al) * self.row_hat(u, -al)
                - self.row_hat(-u, al) * self.row_hat_du(u, -al))

    def gamma_multiplier(self, u):
        """Diagonal-and-scalar transformation picked up by Phi under u -> u + omega1."""
        p = self.params
        lam = cmath.exp(1j * math.pi * (2 * p.char.p + 1))
        scal = cmath.exp(p.lat.eta1 * (2 * u + p.lat.omega1))
        return np.diag([lam, 1.0 / lam]) * scal

    def delta_multiplier(self, u):
        p = self.params
        lam = cmath.exp(-1j * math.pi * (2 * p.char.q + 1))
        scal = cmath.exp(p.lat.eta2 * (2 * u + p.lat.omega2))
        return np.diag([lam, 1.0 / lam]) * scal


def build_phi(params):
    return PhiMatrix(params)


def _m_slot_values(char, m_inf):
    """Anti-diagonal monodromy entries keyed by half-period slot.

    Slot 0 is omega1/2, slot 1 is (omega1+omega2)/2, slot 2 is omega2/2; the
    attached scalars follow from the quasi-periodicity of phi across the two
    cycles (the slot-1 value uses both cycles and the Legendre relation).
    """
    p, q = char.p, char.q
    return (
        -m_inf * cmath.exp(-TWO_PI_I * p),
        m_inf * cmath.exp(TWO_PI_I * (q - p)),
        -m_inf * cmath.exp(TWO_PI_I * q),
    )


@dataclass(frozen=True)
class MonodromyData:
    """Monodromy matrices, scalars, Stokes and connection data of Y."""

    m: dict
    M: dict
    C: dict
    S1: np.ndarray
    S2: np.ndarray
    T0: dict
    T_minus1_a: np.ndarray

    def cyclic_residual(self):
        """Max entry of M3 M2 M1 M_inf - 1."""
        prod = self.M[3] @ self.M[2] @ self.M[1] @ self.M["inf"]
        return float(np.max(np.abs(prod - np.eye(2))))


def _off_diag(m):
    return np.array([[0.0, m], [-1.0 / m, 0.0]], dtype=complex)


def _connection(m):
    return (1.0 / cmath.sqrt(2j * m)) * np.array([[1j, -m], [1j, m]], dtype=complex)


def theoretical_monodromy(params, m_inf=-1j):
    """Monodromy data determined by the characteristics alone.

    The scalar attached to each finite branch point follows the half period
    lying over it (the curve's matching permutation), so the table is correct
    for branch configurations where that matching is not the identity.
    """
    slots = _m_slot_values(params.char, m_inf)
    hpt = params.half_periods
    m = {"inf": m_inf}
    for nu in (1, 2, 3):
        m[nu] = slots[hpt.slot_of_branch(nu)]
    M = {k: _off_diag(v) for k, v in m.items()}
    C = {k: _connection(v) for k, v in m.items()}
    wp1 = params.wp_a.wp_prime
    return MonodromyData(
        m=m, M=M, C=C,
        S1=np.eye(2, dtype=complex), S2=np.eye(2, dtype=complex),
        T0={k: np.diag([-0.25, 0.25]) for k in (1, 2, 3, "inf")},
        T_minus1_a=np.diag([wp1 * params.t / 2.0, -wp1 * params.t / 2.0]),
    )


class YSolution:
    """The normalized fundamental solution Y and its local data at x = a."""

    def __init__(self, params, phi):
        self.params = params
        self.phi = phi
        p = params
        # sqrt(det Phi(a)) (G^(a))^{-1} in closed form; the branch of the
        # square root is fixed with it and everything downstream keeps it.
        ek = cmath.exp(p.t * p.kappa / 2.0)
        self.N = np.array([[0.0, ek], [-1.0 / ek, 0.0]], dtype=complex)
        self.sqrt_det_a = sigma_char(p.lat, p.char, p.t) * sigma(p.lat, 2.0 * p.alpha)
        self.det_a = self.sqrt_det_a**2

    # -- local evaluation near x = a (single-valued, overflow-free) ---------

    def u_near_a(self, x):
        """Abel coordinate near alpha by series seed plus Newton refinement."""
        p = self.params
        c1, c2, c3 = _curve.local_inverse_coeffs(p.branch, p.a)
        w = x - p.a
        u = p.alpha + c1 * w + c2 * w * w + c3 * w**3
        shift = p.branch.e_sum / 3.0
        for _ in range(8):
            f = wp(p.lat, u) + shift - x
            du = f / wp_prime(p.lat, u)
            u -= du
            if abs(du) <= 1e-14 * max(1.0, abs(u)):
                break
        return u

    def hatted(self, x, u=None):
        """Y(x) exp(-T^(a)(x)): analytic at a, equal to 1 + Y1 (x-a) + ...

        Evaluated through the hatted entries and the regular part of Pi, so
        the irregular exponentials never appear; usable arbitrarily close to
        x = a.
        """
        p = self.params
        if u is None:
            u = self.u_near_a(x)
        ph = self.phi
        al = p.alpha
        pih = ph.Pi_hat(u, x)
        col1 = cmath.exp(pih)
        col2 = cmath.exp(-pih)
        r11, r12 = ph.row_hat(u, al), ph.row_hat(-u, al)
        r21, r22 = ph.row_hat(u, -al), ph.row_hat(-u, -al)
        mat = np.array([[r11 * col1, r12 * col2],
                        [r21 * col1, r22 * col2]], dtype=complex)
        # Y = N Phi / sqrt(det Phi(u)); N carries the sqrt(det Phi(a)) factor,
        # and det Phi(u) is PhiMatrix.det from the same four row values
        det = r11 * r22 - r12 * r21
        ratio = 1.0 / (self.sqrt_det_a * cmath.sqrt(det / self.det_a))
        return ratio * (self.N @ mat)

    def exp_T_a(self, x):
        """exp T^(a)(x) = diag(exp(-c/(x-a)), exp(c/(x-a))), c = wp'(alpha) t/2."""
        p = self.params
        c = p.wp_a.wp_prime * p.t / 2.0
        return np.diag([cmath.exp(-c / (x - p.a)), cmath.exp(c / (x - p.a))])

    def y_ring_moments(self, radius, npoints=32, orders=(0, 1)):
        """Trapezoidal Cauchy moments of the hatted solution on |x-a| = radius.

        moment k estimates the coefficient of (x-a)^k; spectrally accurate
        for radius well inside the nearest singularity.
        """
        p = self.params
        out = {k: np.zeros((2, 2), dtype=complex) for k in orders}
        for j in range(npoints):
            th = 2.0 * math.pi * j / npoints
            x = p.a + radius * cmath.exp(1j * th)
            R = self.hatted(x)
            for k in orders:
                out[k] += R * cmath.exp(-1j * k * th)
        for k in orders:
            out[k] /= npoints * radius**k
        return out

    def y1_closed_form(self):
        """The (x-a)-linear coefficient of the hatted solution, in closed form.

        The off-diagonal entries carry the plain sigma(2 alpha) in the
        denominator and a common minus sign; both follow from reading the
        first-order term of N Phi / sqrt(det Phi) directly, and are pinned
        by the Cauchy-moment oracle.
        """
        p = self.params
        wp1, wpp = p.wp_a.wp_prime, p.wp_a.wp_pp
        wpa = p.wp_a.wp
        L = sigma_char_dlog(p.lat, p.char, p.t)
        d11 = (L - (p.t / 2.0) * (4.0 * wpa - 0.5 * (wpp / wp1) ** 2)) / wp1
        st = sigma_char(p.lat, p.char, p.t)
        s2a = sigma(p.lat, 2.0 * p.alpha)
        tk = p.t * p.kappa
        y21 = (-sigma_char(p.lat, p.char, 2.0 * p.alpha + p.t)
               / (st * s2a * wp1)) * cmath.exp(-tk)
        y12 = (-sigma_char(p.lat, p.char, -2.0 * p.alpha + p.t)
               / (st * s2a * wp1)) * cmath.exp(tk)
        return np.array([[d11, y12], [y21, -d11]], dtype=complex)

    # -- global evaluation ---------------------------------------------------

    def y_at(self, x):
        """Y at an arbitrary regular point.

        u(x) follows the curve module's canonical sheet-1 path, and
        sqrt(det Phi(u)) is sqrt_det_a times the principal root of
        sigma(2u)/sigma(2 alpha), the same root hatted takes.
        """
        p = self.params
        u, _ = _curve.abel_with_y(p.branch, x)
        ratio = sigma(p.lat, 2.0 * u) / sigma(p.lat, 2.0 * p.alpha)
        return (self.N @ self.phi.matrix(u)) / (self.sqrt_det_a * cmath.sqrt(ratio))


def normalize_Y(params, phi=None):
    """Normalized fundamental solution with Y exp(-T^(a)) -> 1 at x = a."""
    if phi is None:
        phi = build_phi(params)
    sol = YSolution(params, phi)
    if abs(sol.det_a) == 0:
        raise DegenerateParameterError("det Phi(a) vanished; parameters degenerate")
    return sol


# ---------------------------------------------------------------------------
# System coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemCoefficients:
    """Rational connection A(x) = B_{-1}/(x-a)^2 + B_0/(x-a) + sum A_nu/(x-e_nu)."""

    a: complex
    es: tuple
    B_minus1: np.ndarray
    B0: np.ndarray
    A: dict
    G: dict
    D: dict

    def A_of(self, x):
        out = self.B_minus1 / (x - self.a) ** 2 + self.B0 / (x - self.a)
        for nu in (1, 2, 3):
            out = out + self.A[nu] / (x - self.es[nu - 1])
        return out

    def trace_A2_half(self, x):
        A = self.A_of(x)
        return 0.5 * np.trace(A @ A)


def coefficients(params, m_inf=-1j, phi=None, sol=None):
    """Assemble B_{-1}, B_0, A_nu, the frames G^(nu), G^(inf), and D^(nu).

    Each finite branch point uses the half period lying over it.  D^(nu) is
    the product formula by default, replaced by the slope of det Phi at the
    half period when phi or psi nearly vanishes there (removes a 0*inf
    cancellation).  The quarter powers use principal branches; conjugation
    cancels any global quarter-power ambiguity in A_nu.
    """
    p = params
    if phi is None:
        phi = build_phi(p)
    if sol is None:
        sol = normalize_Y(p, phi)
    wp1 = p.wp_a.wp_prime
    B_minus1 = np.diag([wp1 * p.t / 2.0, -wp1 * p.t / 2.0]).astype(complex)
    # Expanding Y = (1 + Y1 w + ...) exp(-T_{-1}/w) gives the simple-pole
    # coefficient [Y1, T_{-1}]; it vanishes only at t = 0.  The numerical
    # residue of Y'Y^{-1} at a pins this down.
    Y1 = sol.y1_closed_form()
    B0 = Y1 @ B_minus1 - B_minus1 @ Y1
    slots = _m_slot_values(p.char, m_inf)
    hpt = p.half_periods
    es = p.branch.es
    A, G, D = {}, {}, {}
    scale_hint = abs(sigma_char(p.lat, p.char, p.t))
    al = p.alpha
    for nu in (1, 2, 3):
        k = hpt.slot_of_branch(nu)
        h = hpt.omega_tilde[k]
        eta_t = hpt.eta_tilde[k]
        m = slots[k]
        ph_h, ps_h = phi.row(h, al), phi.row(h, -al)
        dl_ph, dl_ps = phi.dlog_row(h, al), phi.dlog_row(h, -al)
        dekont = phi.det_du(h)
        if min(abs(ph_h), abs(ps_h)) < 1e-10 * max(1.0, scale_hint):
            Dv = dekont
        else:
            Dv = (2.0 * m / m_inf) * ph_h * ps_h * (dl_ph - dl_ps)
        if abs(Dv) == 0:
            raise DegenerateParameterError(f"D at half period over e_{nu} vanished")
        e_t = [x for j, x in enumerate(es, start=1) if j != nu]
        wpp_half = 2.0 * (es[nu - 1] - e_t[0]) * (es[nu - 1] - e_t[1])
        quarter = (wpp_half / 2.0) ** 0.25
        F = np.array([
            [ph_h, ph_h * (dl_ph - eta_t)],
            [ps_h, ps_h * (dl_ps - eta_t)],
        ], dtype=complex)
        pref = cmath.sqrt(2.0 * m) / cmath.sqrt(Dv * 1j)
        Gn = sol.N @ (pref * F) @ np.diag([quarter, 1.0 / quarter])
        G[nu] = Gn
        D[nu] = Dv
        A[nu] = Gn @ np.diag([-0.25, 0.25]) @ np.linalg.inv(Gn)
    # frame at infinity: columns from the value and u-derivative of the row
    # functions at u = 0
    dphi0, dpsi0 = phi.dlog_row(0j, al), phi.dlog_row(0j, -al)
    ph0, ps0 = phi.row(0j, al), phi.row(0j, -al)
    root = cmath.sqrt(dphi0 - dpsi0)
    Ginf = sol.N @ np.array([
        [-1j * ph0, 1j * ph0 * dphi0],
        [-1j * ps0, 1j * ps0 * dpsi0],
    ], dtype=complex) / root
    G["inf"] = Ginf
    return SystemCoefficients(a=p.a, es=es, B_minus1=B_minus1, B0=B0,
                              A=A, G=G, D=D)


# ---------------------------------------------------------------------------
# Deformation equation residual
# ---------------------------------------------------------------------------


def _commutator(X, Y):
    return X @ Y - Y @ X


def deformation_residual(params, direction, h, m_inf=-1j, sol=None, coeffs=None):
    """Central-difference dA_nu against the closed deformation equation.

    direction is 't' or 'e1'/'e2'/'e3'.  The Fuchsian commutator sum enters
    through d log(e_nu - e_mu), which carries both differentials, and the
    simple-pole coefficient at a contributes to the regular part at e_nu;
    finite differences single out this paired reading.  Returns per-nu
    max-entry residuals ('paired'), the difference quotients ('fd') and the
    right-hand sides ('rhs') as matrices, the FD scale, and the step used.
    sol and coeffs are the base point's, built from params unless given.
    """
    p = params
    c_plus = coefficients(shifted_params(p, direction, h), m_inf)
    c_minus = coefficients(shifted_params(p, direction, -h), m_inf)
    if sol is None:
        sol = normalize_Y(p)
    base = coeffs if coeffs is not None else coefficients(p, m_inf, sol.phi, sol)
    Y1 = sol.y1_closed_form()
    wp1, t = p.wp_a.wp_prime, p.t
    es = p.branch.es
    a = p.a
    sig3 = np.diag([1.0, -1.0]).astype(complex)

    if direction == "t":
        dT = (wp1 / 2.0) * sig3
        rho = None
    else:
        rho = int(direction[1])
        dT = -(t * wp1 / (4.0 * (a - es[rho - 1]))) * sig3

    out = {"paired": {}, "fd": {}, "rhs": {}, "scale": 0.0, "h": h}
    for nu in (1, 2, 3):
        fd = (c_plus.A[nu] - c_minus.A[nu]) / (2.0 * h)
        out["scale"] = max(out["scale"], float(np.max(np.abs(fd))))
        A = base.A
        rhs = np.zeros((2, 2), dtype=complex)
        if rho is not None:
            if rho == nu:
                for mu in (1, 2, 3):
                    if mu != nu:
                        rhs += _commutator(A[mu], A[nu]) / (es[nu - 1] - es[mu - 1])
                rhs -= _commutator(A[nu], base.B_minus1) / (a - es[nu - 1]) ** 2
            rhs += _commutator(A[rho], A[nu]) / (a - es[rho - 1])
        rhs += _commutator(dT, A[nu]) / (a - es[nu - 1])
        rhs += _commutator(_commutator(dT, Y1), A[nu])
        if rho is not None and rho != nu:
            # d log(e_nu - e_mu) carries both differentials
            rhs = rhs - _commutator(A[rho], A[nu]) / (es[nu - 1] - es[rho - 1])
        if rho is not None and rho == nu:
            # simple-pole coefficient at a enters the regular part at e_nu
            rhs = rhs + _commutator(A[nu], base.B0) / (a - es[nu - 1])
        out["paired"][nu] = float(np.max(np.abs(fd - rhs)))
        out["fd"][nu] = fd
        out["rhs"][nu] = rhs
    return out
