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
root of sigma(2u)/sigma(2 alpha); y_at and hatted both take that root (the
point holds sigma(2 alpha)).  The frames G^(nu) at the branch points carry
no normalization, because A_nu = G diag(-1/4, 1/4) G^{-1} does not see one.
Every evaluator of Phi and Y takes a number or an array of points:
PhiMatrix.rows evaluates the four rows and Pi on all of them with one sigma
jet of each characteristic, or the rows and their u-derivatives and Pi'
from a zeta jet, and matrix, hatted, y_at and coefficients read it.
"""

import cmath
import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import curve as _curve
from . import monodromy as _monodromy
from .curve import BranchConfig
from .elliptic import (
    HALF_HALF,
    ThetaChar,
    _Value,
    _any,
    _char_dlog,
    _math,
    _theta_rows,
    lattice_from_periods,
    sigma,
    sigma_char,
    sigma_jet,
    zeta,
    zeta_jet,
)
from .errors import DegenerateParameterError

TWO_PI_I = 2j * math.pi
M_INF = -1j  # m at infinity; the monodromy data read it, the coefficients do not


class DeformationParams(_Value, namedtuple("DeformationParams", "branch lat a t char root",
                                            defaults=(None,))):
    """One point of the deformation space: the branch with its lattice, a, t
    and the characteristic.  Derived at first read: theta_jet and
    theta_dOmega (read by the theta-zero test, log tau and the Hamiltonians),
    what Y, its coefficients and its monodromy read: alpha = u(a), the wp
    data, sigma, zeta and wp at 2 alpha, sigma[p,q](t +- 2 alpha), the half
    periods, the calibrated loops and the chain phi -> sol -> coeffs; and
    wp_series (the sigma-shift family).  A copy (_replace, moved) has none.

    A batch point holds one point per entry: t an array of times (then
    theta_jet, log_tau, H_t and the chain evaluate elementwise), or what
    moved gives for an array of moves, a batch branch on one batch lattice
    whose alpha, wp data, half periods and loops come from its root, the
    point it moved from.  Its Phi, Y and coefficient arrays carry the batch axes
    after the axes of the points u or x, before a matrix's (2, 2).  Its root
    (None unless it is a batch) takes no part in equality, hash or repr."""

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:5] == other[:5]

    def __hash__(self):
        return hash(self[:5])

    def __repr__(self):
        return "DeformationParams(branch=%r, lat=%r, a=%r, t=%r, char=%r)" % self[:5]

    @cached_property
    def theta_jet(self):
        """(theta[p,q], theta[p,q]') at t/omega1, from one kernel call."""
        return _theta_rows(self.char, self.t / self.lat.omega1, self.lat.Omega, 1)[0]

    @cached_property
    def alpha(self):
        """u(a); on a batch, Newton's method on wp(u) = a - e_sum/3 from the root's."""
        r = self.root
        if r is None:
            return _curve.abel_with_y(self.branch, self.a)[0]
        return _wp_inverse(self.lat, r.alpha, self.branch.e_sum / 3.0, self.a)

    @cached_property
    def wp_a(self):
        r = self.root
        if r is None:
            return _curve.wp_alpha_relations(self.branch, self.a)
        return _curve.wp_alpha_relations(self.branch, self.a, r.wp_a.wp_prime)

    @cached_property
    def wp_series(self):
        """(wp, wp', wp'', wp''') at alpha from one zeta jet on the point's
        lattice: the sigma-shift family of tau tests sigma and zeta against them."""
        return tuple(-w for w in zeta_jet(self.lat, self.alpha, 4)[1:])

    @cached_property
    def theta_dOmega(self):
        """d/dOmega theta[p,q] at t/omega1 from one kernel call; H_nu reads it."""
        return _theta_rows(self.char, self.t / self.lat.omega1, self.lat.Omega, 0,
                           with_dOmega=True)[1]

    @cached_property
    def zeta_wp_2alpha(self):
        """(zeta, wp) at 2 alpha from one zeta jet: kappa and the sigma-shift
        family of tau read them."""
        z, dz = zeta_jet(self.lat, 2.0 * self.alpha, 1)
        return z, -dz

    @cached_property
    def sigma_2alpha(self):
        """sigma(2 alpha): sqrt(det Phi(a)), y_at and tau's sigma-shift family read it."""
        return sigma(self.lat, 2.0 * self.alpha)

    @cached_property
    def sigma_char_t_2alpha(self):
        """sigma[p,q](t + 2 alpha) and sigma[p,q](t - 2 alpha), which Y_1 reads."""
        return (sigma_char(self.lat, self.char, 2.0 * self.alpha + self.t),
                sigma_char(self.lat, self.char, -2.0 * self.alpha + self.t))

    @cached_property
    def half_periods(self):
        """The half-period table; a batch keeps the root's slots."""
        r = self.root
        if r is None:
            return _curve.half_period_table(self.branch, self.lat)
        return _curve.HalfPeriodTable(*_curve.half_period_values(self.lat), r.half_periods.perm)

    @cached_property
    def calibrated_loops(self):
        """calibrate_loops of the point: its calibrated loops and their frame
        offsets; a batch point reads its root's."""
        r = self.root
        return _monodromy.calibrate_loops(self) if r is None else r.calibrated_loops

    @cached_property
    def phi(self):
        return build_phi(self)

    @cached_property
    def sol(self):
        return normalize_Y(self, self.phi)

    @cached_property
    def coeffs(self):
        return coefficients(self, self.phi, self.sol)

    @cached_property
    def kappa(self):
        """wp''(alpha)/(2 wp'(alpha)) + zeta(2 alpha); the local exponent shift."""
        return self.wp_a.wp_pp / (2.0 * self.wp_a.wp_prime) + self.zeta_wp_2alpha[0]

    def moved(self, nu, delta):
        """The one way to move a point: the branch point e_nu moved by delta,
        on its lattice, or t for nu = 0.  A move of t alone (every nu 0, delta
        a number or an array) is _replace(t=...).  Otherwise an array of nu or
        delta gives one batch point of their broadcast shape: its branch
        points and t are arrays on this point's chart, with one batch lattice
        from one periods_of call, and this point is its root."""
        if not np.any(nu):
            return self._replace(t=self.t + delta)
        if np.ndim(nu) + np.ndim(delta) == 0:
            b = self.branch.moved(nu, delta)
            return self._replace(branch=b, lat=b.lattice)
        nu, delta = np.broadcast_arrays(nu, delta)
        lats = iter(_curve.periods_of([self.branch.moved(k, d)
                                       for k, d in zip(nu.flat, delta.flat) if k]))
        lats = [next(lats) if k else self.lat for k in nu.flat]
        lat = lattice_from_periods(*(np.reshape([getattr(l, w) for l in lats], delta.shape)
                                     for w in ("omega1", "omega2")))
        es = [e + np.where(nu == k, delta, 0) for k, e in enumerate(self.branch.es, 1)]
        chart = self.branch.chart or self.branch
        return self._replace(branch=BranchConfig(*es, chart=chart), lat=lat,
                             t=self.t + np.where(nu == 0, delta, 0), root=self)


def theta_zero_errors(params):
    """By index of the times of params.t (a number or an array), only where
    theta[p,q](t/omega1), which the normalization divides by, is too close to
    its zero: the DegenerateParameterError."""
    th = np.atleast_1d(params.theta_jet[0])
    message = "theta[p,q](t/omega1) = {} is too close to its zero"
    return {k: DegenerateParameterError(message.format(complex(th[k])))
            for k in np.flatnonzero(np.abs(th) < 1e-8).tolist()}


def _theta_checked(params):
    """params, unless theta[p,q](t/omega1) is at a zero: the first such entry raises."""
    for error in theta_zero_errors(params).values():
        raise error
    return params


def make_params(branch, a, t, p, q):
    """Validate and assemble a DeformationParams.  a must be a regular point
    (so alpha is no half period and wp'(alpha) != 0), and theta[p,q](t/omega1)
    must not vanish."""
    a = complex(a)
    branch.check_regular_point(a)
    return _theta_checked(DeformationParams(branch, branch.lattice, a,
                                            complex(t), ThetaChar(p, q)))


class PhiRows(_Value, namedtuple("PhiRows", "hat Pi hat_du Pi_du", defaults=(None, None))):
    """The hatted rows of Phi at points u, and Pi(u) or, when asked for, the
    u-derivatives of the rows and of Pi (Pi then None).  hat[i, j] =
    sigma[p,q](u_j + s_i + t) sigma(u_j - s_i) for u_j = u, -u and s_i =
    alpha, -alpha (phi, psi): the entry layout of Phi, followed by u's
    shape.  hat_du[i, j] is its derivative in u_j."""

    @property
    def det(self):
        """det Phi; the Pi exponentials cancel."""
        (r11, r12), (r21, r22) = self.hat
        return r11 * r22 - r12 * r21

    def entries(self, pi):
        """hat times exp(pi) in the u column and exp(-pi) in the -u column,
        entry axes last: Phi(u) for pi = Pi(u)."""
        cols = np.stack([np.exp(pi), np.exp(-pi)])
        return np.moveaxis(self.hat * cols, (0, 1), (-2, -1))


class PhiMatrix:
    """Entry evaluators for Phi(P) as functions of the Abel coordinate u, on
    a number or an array of points (then u.shape + (2, 2) for a matrix)."""

    def __init__(self, params):
        self.params = params

    def Pi(self, u):
        p = self.params
        z = zeta(p.lat, np.stack([u - p.alpha, u + p.alpha]))
        return -(p.t / 2.0) * (z[0] + z[1])

    def rows(self, u, du=False):
        """PhiRows at u, from one sigma jet of each characteristic on all
        points and Pi; with du the derivatives in place of Pi, from one zeta
        jet for Pi' = (t/2) (wp(u - alpha) + wp(u + alpha)).  On a batch
        point u's last axes are the batch's."""
        p = self.params
        u = np.asarray(u, dtype=complex)
        s = np.reshape([p.alpha, -p.alpha],
                       (2, 1) + (1,) * (u.ndim - np.ndim(p.alpha)) + np.shape(p.alpha))
        uj = np.stack([u, -u])
        a, da = sigma_jet(p.lat, p.char, uj + s + p.t)
        b, db = sigma_jet(p.lat, HALF_HALF, uj - s)
        if not du:
            return PhiRows(a * b, self.Pi(u))
        _, dz = zeta_jet(p.lat, np.stack([u - p.alpha, u + p.alpha]), 1)
        return PhiRows(a * b, None, da * b + a * db, -(p.t / 2.0) * (dz[0] + dz[1]))

    def matrix(self, u):
        r = self.rows(u)
        return r.entries(r.Pi)

    def gamma_multiplier(self, u):
        """Diagonal-and-scalar transformation picked up by Phi under u -> u + omega1;
        u a number or an array (u.shape + (2, 2))."""
        p = self.params
        lam = cmath.exp(1j * math.pi * (2 * p.char.p + 1))
        scal = np.exp(p.lat.eta1 * (2 * u + p.lat.omega1))
        return _mat(lam * scal, 0.0, 0.0, (1.0 / lam) * scal)

    def delta_multiplier(self, u):
        p = self.params
        lam = cmath.exp(-1j * math.pi * (2 * p.char.q + 1))
        scal = np.exp(p.lat.eta2 * (2 * u + p.lat.omega2))
        return _mat(lam * scal, 0.0, 0.0, (1.0 / lam) * scal)


def build_phi(params):
    return PhiMatrix(params)


def _m_slot_values(char):
    """Anti-diagonal monodromy entries keyed by half-period slot.

    Slot 0 is omega1/2, slot 1 is (omega1+omega2)/2, slot 2 is omega2/2; the
    attached scalars follow from the quasi-periodicity of phi across the two
    cycles (the slot-1 value uses both cycles and the Legendre relation).
    """
    p, q = char.p, char.q
    return (
        -M_INF * cmath.exp(-TWO_PI_I * p),
        M_INF * cmath.exp(TWO_PI_I * (q - p)),
        -M_INF * cmath.exp(TWO_PI_I * q),
    )


class MonodromyData(_Value, namedtuple("MonodromyData", "M")):
    """The monodromy matrices M of Y by loop, each anti-diagonal
    [[0, m], [-1/m, 0]] with its scalar m."""


def _mat(a, b, c, d):
    """[[a, b], [c, d]]; entries that are arrays give one matrix per entry
    (their shape + (2, 2))."""
    m = np.array(np.broadcast_arrays(a, b, c, d), dtype=complex)
    return np.moveaxis(m, 0, -1).reshape(m.shape[1:] + (2, 2))


def _columns(c0, c1):
    """The matrix of columns c0, c1 (each of shape (2,) + batch shape)."""
    return np.moveaxis(np.stack([c0, c1], axis=1), (0, 1), (-2, -1))


def _off_diag(m):
    return _mat(0.0, m, -1.0 / m, 0.0)


def theoretical_monodromy(params):
    """Monodromy data determined by the characteristics alone.

    The scalar attached to each finite branch point follows the half period
    lying over it (the curve's matching permutation), so the table is correct
    for branch configurations where that matching is not the identity.
    """
    slots = _m_slot_values(params.char)
    hpt = params.half_periods
    m = {"inf": M_INF}
    for nu in (1, 2, 3):
        m[nu] = slots[hpt.slot_of_branch(nu)]
    return MonodromyData({k: _off_diag(v) for k, v in m.items()})


class YSolution:
    """The normalized fundamental solution Y and its local data at x = a."""

    def __init__(self, params, phi):
        self.params = params
        self.phi = phi
        p = params
        # sqrt(det Phi(a)) (G^(a))^{-1} in closed form; the branch of the
        # square root is fixed with it and everything downstream keeps it.
        tk = p.t * p.kappa / 2.0
        self.N = _off_diag(_math(tk).exp(tk))
        self.sqrt_det_a = sigma_char(p.lat, p.char, p.t) * p.sigma_2alpha
        self.det_a = self.sqrt_det_a**2

    # -- local evaluation near x = a (single-valued, overflow-free) ---------

    def u_near_a(self, x):
        """Abel coordinate near alpha by series seed plus Newton refinement;
        x a number or an array (Newton runs until every point converged)."""
        p = self.params
        c1, c2, c3 = _curve.local_inverse_coeffs(p.wp_a)
        w = x - p.a
        return _wp_inverse(p.lat, p.alpha + c1 * w + c2 * w * w + c3 * w**3,
                           p.branch.e_sum / 3.0, x)

    def hatted(self, x):
        """Y(x) exp(-T^(a)(x)): analytic at a, equal to 1 + Y1 (x-a) + ...

        Evaluated through the hatted entries and the regular part of Pi, so
        the irregular exponentials never appear.  The regular part cancels
        the pole c/(x-a) against the one Pi carries through zeta(u - alpha), so
        at distance r from a the relative accuracy is about
        1e-16 (d/r)^2, d the distance from a to the nearest branch point:
        on golden 1.2e-12 at r = 0.02 d and 4.7e-6 at r = 1e-5 d.  The
        checks evaluate it on rings of r = 0.05 d (the Y_1 moment) and
        0.02 d (the normalization), and on half turns at r = 0.2 d (the
        Stokes check).  x a number (a 2x2 result) or an array
        (x.shape + (2, 2)).
        """
        p = self.params
        r = self.phi.rows(self.u_near_a(x))
        # the regular part of Pi at a: Pi + wp'(alpha) t / (2 (x - a))
        mat = r.entries(r.Pi + p.wp_a.wp_prime * p.t / (2.0 * (x - p.a)))
        # Y = N Phi / sqrt(det Phi(u)); N carries the sqrt(det Phi(a)) factor,
        # and det Phi(u) comes from the same four row values
        det = r.det
        ratio = 1.0 / (self.sqrt_det_a * _math(det).sqrt(det / self.det_a))
        return np.asarray(ratio)[..., None, None] * (self.N @ mat)

    def exp_T_a(self, x):
        """exp T^(a)(x) = diag(exp(-c/(x-a)), exp(c/(x-a))), c = wp'(alpha) t/2;
        x a number (a 2x2 result) or an array (x.shape + (2, 2))."""
        p = self.params
        c = p.wp_a.wp_prime * p.t / 2.0
        return _mat(np.exp(-c / (x - p.a)), 0.0, 0.0, np.exp(c / (x - p.a)))

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
        L = _char_dlog(p.lat, p.t, p.theta_jet)
        d11 = (L - (p.t / 2.0) * (4.0 * wpa - 0.5 * (wpp / wp1) ** 2)) / wp1
        tk = p.t * p.kappa
        plus, minus = p.sigma_char_t_2alpha
        y21 = (-plus / (self.sqrt_det_a * wp1)) * _math(tk).exp(-tk)
        y12 = (-minus / (self.sqrt_det_a * wp1)) * _math(tk).exp(tk)
        return _mat(d11, y12, y21, -d11)

    # -- global evaluation ---------------------------------------------------

    def y_at(self, x, u=None):
        """Y at a regular point x, a number (a 2x2 result) or an array
        (x.shape + (2, 2)).

        u(x) follows the curve module's canonical sheet-1 path unless given;
        on a batch point, Newton's method takes it from the root's, as alpha,
        the batch axes after x's.  sqrt(det Phi(u)) is sqrt_det_a times the
        principal root of sigma(2u)/sigma(2 alpha), the same root hatted takes.
        """
        p = self.params
        if u is None:
            u = np.reshape([_curve.abel_with_y((p.root or p).branch, z)[0] for z in np.ravel(x)],
                           np.shape(x) + (1,) * np.ndim(p.alpha))
            if p.root is not None:
                u = _wp_inverse(p.lat, u, p.branch.e_sum / 3.0, np.reshape(x, u.shape))
        ratio = sigma(p.lat, 2.0 * u) / p.sigma_2alpha
        root = self.sqrt_det_a * _math(ratio).sqrt(ratio)
        return (self.N @ self.phi.matrix(u)) / np.asarray(root)[..., None, None]


def normalize_Y(params, phi):
    """Normalized fundamental solution with Y exp(-T^(a)) -> 1 at x = a, on
    the point's Phi."""
    sol = YSolution(params, phi)
    if _any(sol.det_a == 0):
        raise DegenerateParameterError("det Phi(a) vanished; parameters degenerate")
    return sol


def _wp_inverse(lat, u, shift, x):
    """u refined by Newton's method on wp(u) + shift = x, until every point
    converged (at most 8 steps)."""
    for _ in range(8):
        _, zeta1, zeta2 = zeta_jet(lat, u, 2)  # -wp and -wp' at u
        du = (x - (shift - zeta1)) / zeta2
        u = u - du
        if np.all(np.abs(du) <= 1e-14 * np.maximum(1.0, np.abs(u))):
            break
    return u


# ---------------------------------------------------------------------------
# System coefficients
# ---------------------------------------------------------------------------


class SystemCoefficients(_Value, namedtuple("SystemCoefficients", "a es B_minus1 B0 A")):
    """Rational connection A(x) = B_{-1}/(x-a)^2 + B_0/(x-a) + sum A_nu/(x-e_nu)."""

    def A_of(self, x):
        out = self.B_minus1 / (x - self.a) ** 2 + self.B0 / (x - self.a)
        for nu in (1, 2, 3):
            out = out + self.A[nu] / (x - self.es[nu - 1])
        return out

    def trace_A2_half(self, x):
        """(1/2) tr A(x)^2; x a number or an array, in one A_of call."""
        A = self.A_of(np.asarray(x)[..., None, None])
        return 0.5 * np.trace(A @ A, axis1=-2, axis2=-1)


def coefficients(params, phi, sol):
    """Assemble B_{-1}, B_0 and A_nu, the last through the frames G^(nu).

    Each finite branch point uses the half period h lying over it: G^(nu) =
    N F, F = [row, row' - eta~ row] from the hatted rows phi, psi (column u
    of Phi) at h and their u-derivatives.  A_nu = G diag(-1/4, 1/4) G^{-1}
    does not see a scalar factor of G or a diagonal one on its right, so F
    carries no normalization; an F singular up to rounding (|det F| <= 1e-12
    max|F|^2) raises.  On a batch point every matrix is a stack, one per
    entry (batch shape + (2, 2)).
    """
    p = params
    wp1 = p.wp_a.wp_prime
    B_minus1 = _mat(wp1 * p.t / 2.0, 0.0, 0.0, -wp1 * p.t / 2.0)
    # Expanding Y = (1 + Y1 w + ...) exp(-T_{-1}/w) gives the simple-pole
    # coefficient [Y1, T_{-1}]; it vanishes only at t = 0.  The numerical
    # residue of Y'Y^{-1} at a pins this down.
    Y1 = sol.y1_closed_form()
    B0 = Y1 @ B_minus1 - B_minus1 @ Y1
    hpt = p.half_periods
    A = {}
    ks = [hpt.slot_of_branch(nu) for nu in (1, 2, 3)]
    # the half periods over e1, e2, e3 in one evaluation, with the batch axes
    # last: the rows phi, psi (column u of Phi) and their u-derivatives
    shape = np.broadcast_shapes(np.shape(p.t), np.shape(p.lat.omega1))
    r = phi.rows([np.broadcast_to(hpt.omega_tilde[k], shape) for k in ks], du=True)
    rows, drows = r.hat[:, 0], r.hat_du[:, 0] + r.hat[:, 0] * r.Pi_du
    for i, (nu, k) in enumerate(zip((1, 2, 3), ks)):
        F = _columns(rows[:, i], drows[:, i] - hpt.eta_tilde[k] * rows[:, i])
        if _any(abs(np.linalg.det(F)) <= 1e-12 * np.abs(F).max(axis=(-2, -1)) ** 2):
            raise DegenerateParameterError(f"the frame at the half period over e_{nu} is singular")
        G = sol.N @ F
        A[nu] = G @ np.diag([-0.25, 0.25]) @ np.linalg.inv(G)
    return SystemCoefficients(a=p.a, es=p.branch.es, B_minus1=B_minus1, B0=B0, A=A)


# ---------------------------------------------------------------------------
# Deformation equation residual
# ---------------------------------------------------------------------------


def _commutator(X, Y):
    return X @ Y - Y @ X


def deformation_rhs(params, rho):
    """The closed deformation equation in its paired reading: dA_nu/dt
    (rho = 0) or dA_nu/de_rho for nu = 1, 2, 3, as one (3, 2, 2) array, from
    the point's Y and coefficients.  The Fuchsian sum enters through
    d log(e_nu - e_mu), which carries both differentials; the simple-pole
    coefficient at a enters the regular part at e_nu."""
    p = params
    base = p.coeffs
    Y1 = p.sol.y1_closed_form()
    wp1, es, a = p.wp_a.wp_prime, p.branch.es, p.a
    # the derivative of the exponent T_{-1} = diag(1, -1) wp'(alpha) t / 2
    dT = np.diag([1.0, -1.0]) * (wp1 / 2.0 if rho == 0
                                 else -p.t * wp1 / (4.0 * (a - es[rho - 1])))
    out = []
    A = base.A
    for nu in (1, 2, 3):
        d = a - es[nu - 1]
        rhs = _commutator(dT, A[nu]) / d + _commutator(_commutator(dT, Y1), A[nu])
        if rho == nu:
            for mu in (1, 2, 3):
                if mu != nu:
                    rhs += _commutator(A[mu], A[nu]) / (es[nu - 1] - es[mu - 1])
            # the simple-pole coefficient at a enters the regular part at e_nu
            rhs += (_commutator(A[nu], base.B0) - _commutator(A[nu], base.B_minus1) / d) / d
        elif rho:
            # d log(e_nu - e_rho) carries both differentials
            rhs += _commutator(A[rho], A[nu]) * (1.0 / (a - es[rho - 1])
                                                  - 1.0 / (es[nu - 1] - es[rho - 1]))
        out.append(rhs)
    return np.array(out)
