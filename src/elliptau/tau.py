"""Hamiltonians of the deformation, residue identities, and the tau function.

The closed 1-form omega = H_t dt + sum_nu H_nu de_nu is integrated in closed
form:

    tau = theta[p,q](t/omega1; Omega) * omega1^{-1/2}
          * prod_{nu<mu} (e_nu - e_mu)^{-1/8}
          * exp(eta1 t^2 / (2 omega1)) * exp(t^2 f / 4),

with f the rational function of (e1, e2, e3, a) below.  tau is defined up to
a multiplicative constant, so every comparison here is a logarithmic
derivative.  The module also carries the zero-sum-lattice family
tau_l = sigma(t + 2 l alpha) exp h_l(t) built from shifted sigma quotients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .curve import dOmega_de, dlog_omega1_de
from .elliptic import (
    Lattice,
    sigma,
    sigma_char_dlog,
    theta,
    theta_dOmega,
    theta_dz,
    wp,
    wp_n,
    wp_prime,
    zeta,
)
from .errors import DegenerateParameterError


def f_func(e1, e2, e3, a):
    """f = -a + (e1+e2+e3)/3 + (1/2) prod(a-e) sum 1/(a-e)^2."""
    es = (complex(e1), complex(e2), complex(e3))
    a = complex(a)
    if any(a == e for e in es):
        raise DegenerateParameterError("a collides with a branch point")
    prod = (a - es[0]) * (a - es[1]) * (a - es[2])
    s = sum(1.0 / (a - e) ** 2 for e in es)
    return -a + sum(es) / 3.0 + 0.5 * prod * s


def df_de(e1, e2, e3, a, nu):
    """Closed-form derivative of f in the branch point e_nu."""
    es = (complex(e1), complex(e2), complex(e3))
    a = complex(a)
    prod = (a - es[0]) * (a - es[1]) * (a - es[2])
    s = sum(1.0 / (a - e) ** 2 for e in es)
    d = a - es[nu - 1]
    return 1.0 / 3.0 - 0.5 * prod * s / d + prod / d**3


def H_t(params):
    """dt-component of the 1-form: sigma[p,q]'(t)/sigma[p,q](t) + (t/2) f."""
    p = params
    L = sigma_char_dlog(p.lat, p.char, p.t)
    es = p.branch.es
    return L + (p.t / 2.0) * f_func(*es, p.a)


def omega_a_de_component(params, nu):
    """de_nu-component contributed by the expansion at the irregular point."""
    p = params
    L = sigma_char_dlog(p.lat, p.char, p.t)
    d = p.a - p.branch.es[nu - 1]
    f = f_func(*p.branch.es, p.a)
    return -p.t * L / (2.0 * d) - p.t**2 * f / (4.0 * d)


def dlog_theta_de(params, nu):
    """Full branch-point derivative of log theta[p,q](t/omega1; Omega)."""
    p = params
    z = p.t / p.lat.omega1
    th = theta(p.char, z, p.lat.Omega)
    thz = theta_dz(p.char, z, p.lat.Omega, 1)
    tho = theta_dOmega(p.char, z, p.lat.Omega)
    dl_w1 = dlog_omega1_de(p.branch, p.lat, nu)
    d_om = dOmega_de(p.branch, p.lat, nu)
    return -(p.t / p.lat.omega1) * dl_w1 * (thz / th) + d_om * (tho / th)


def residue_formula(params, nu):
    """Analytic value of Res_{x=e_nu} (1/2) tr (Y' Y^{-1})^2.

    Seven terms: the Fuchsian pair in the branch differences and
    d log omega1, the squared-derivative quasi-period term, the full
    theta log-derivative, and three terms tied to the irregular point.
    """
    p = params
    es = p.branch.es
    e = es[nu - 1]
    others = [x for j, x in enumerate(es, start=1) if j != nu]
    sum_inv = sum(1.0 / (e - o) for o in others)
    prod = (e - others[0]) * (e - others[1])
    dl_w1 = dlog_omega1_de(p.branch, p.lat, nu)
    L = sigma_char_dlog(p.lat, p.char, p.t)
    d = p.a - e
    t = p.t
    return (-0.125 * sum_inv
            - 0.5 * dl_w1
            + t * t * dl_w1**2 * prod
            + dlog_theta_de(params, nu)
            + t * L / (2.0 * d)
            + t * t * prod / (4.0 * d * d)
            + t * t * (sum(e - o for o in others)) / (6.0 * d))


def H_nu(params, nu):
    """de_nu-component of the 1-form, in the five-term closed form."""
    p = params
    es = p.branch.es
    e = es[nu - 1]
    others = [x for j, x in enumerate(es, start=1) if j != nu]
    sum_inv = sum(1.0 / (e - o) for o in others)
    prod = (e - others[0]) * (e - others[1])
    dl_w1 = dlog_omega1_de(p.branch, p.lat, nu)
    t = p.t
    quasi = t * t * dl_w1**2 * prod - t * t / 12.0
    return (dlog_theta_de(params, nu)
            - 0.5 * dl_w1
            - 0.125 * sum_inv
            + quasi
            + (t * t / 4.0) * df_de(*es, p.a, nu))


def log_tau(params):
    """log tau with principal-branch constants; only its derivatives are
    comparison-grade (tau itself is defined up to a constant factor)."""
    p = params
    es = p.branch.es
    z = p.t / p.lat.omega1
    th = theta(p.char, z, p.lat.Omega)
    val = cmath.log(th)
    val -= 0.5 * cmath.log(p.lat.omega1)
    for i in range(3):
        for j in range(i + 1, 3):
            val -= 0.125 * cmath.log(es[i] - es[j])
    val += p.lat.eta1 * p.t**2 / (2.0 * p.lat.omega1)
    val += (p.t**2 / 4.0) * f_func(*es, p.a)
    return val


def tau_closed_form(params):
    """The tau value itself, with the same principal branches as log_tau."""
    return cmath.exp(log_tau(params))


# ---------------------------------------------------------------------------
# Zero-sum-lattice family built from shifted sigma functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaShiftParams:
    """Shift index l, time t, base point alpha on a zero-sum lattice."""

    l: int
    t: complex
    alpha: complex
    lat: Lattice

    def wp_data(self):
        lat, al = self.lat, self.alpha
        return wp(lat, al), wp_prime(lat, al), wp_n(lat, al, 2), wp_n(lat, al, 3)


def sigma_shift_row(ap, z, l=None):
    """sigma(z-a)^{l-1} sigma(z+a)^{-l} sigma(z+t+(2l-1)a) exp(-t/2 (zeta(z-a)+zeta(z+a)))."""
    l = ap.l if l is None else l
    lat, al, t = ap.lat, ap.alpha, ap.t
    return (sigma(lat, z - al) ** (l - 1)
            * sigma(lat, z + al) ** (-l)
            * sigma(lat, z + t + (2 * l - 1) * al)
            * cmath.exp(-(t / 2.0) * (zeta(lat, z - al) + zeta(lat, z + al))))


def _c0(ap, t, l):
    lat, al = ap.lat, ap.alpha
    _, wp1, wpp, _ = ap.wp_data()
    return (sigma(lat, 2 * al) ** (-l)
            * sigma(lat, t + 2 * l * al)
            * cmath.exp(-(t / 2.0) * zeta(lat, 2 * al)
                        - (t / 4.0) * wpp / wp1))


def _c1(ap, t, l):
    lat, al = ap.lat, ap.alpha
    return (zeta(lat, t + 2 * l * al)
            - l * zeta(lat, 2 * al)
            + (t / 2.0) * wp(lat, 2 * al))


def sigma_shift_c0_c1(ap):
    """Leading constant and first coefficient of y_l near z = alpha."""
    return _c0(ap, ap.t, ap.l), _c1(ap, ap.t, ap.l)


def _growth_coefficient(ap):
    """wp(2a) + wp''(a)^2/(4 wp'(a)^2) - wp'''(a)/(6 wp'(a)); equals f on a
    zero-sum configuration."""
    lat, al = ap.lat, ap.alpha
    _, wp1, wpp, wppp = ap.wp_data()
    return wp(lat, 2 * al) + wpp**2 / (4.0 * wp1**2) - wppp / (6.0 * wp1)


def sigma_shift_h(ap):
    _, wp1, wpp, _ = ap.wp_data()
    lat, al, t, l = ap.lat, ap.alpha, ap.t, ap.l
    return ((t * t / 4.0) * _growth_coefficient(ap)
            - t * l * (zeta(lat, 2 * al) + wpp / (2.0 * wp1)))


def sigma_shift_tau(ap):
    """tau_l(t) = sigma(t + 2 l alpha) exp h_l(t)."""
    if abs(sigma(ap.lat, ap.t + 2 * ap.l * ap.alpha)) == 0:
        raise DegenerateParameterError("sigma(t + 2 l alpha) vanishes")
    return sigma(ap.lat, ap.t + 2 * ap.l * ap.alpha) * cmath.exp(sigma_shift_h(ap))


def sigma_shift_dlog_tau_dt(ap):
    """d/dt log tau_l in closed form."""
    lat, al, t, l = ap.lat, ap.alpha, ap.t, ap.l
    _, wp1, wpp, _ = ap.wp_data()
    return (zeta(lat, t + 2 * l * al)
            + (t / 2.0) * _growth_coefficient(ap)
            - l * (zeta(lat, 2 * al) + wpp / (2.0 * wp1)))


def sigma_shift_y1(ap):
    """First expansion matrix of the normalized solution at x = wp(alpha).

    The diagonal shift carries wp''/(2 wp'^2) (half the raw quotient): the
    half factor is what makes the trace identity with d/dt log tau_l close.
    """
    _, wp1, wpp, wppp = ap.wp_data()
    t, l = ap.t, ap.l
    core = np.array([
        [_c1(ap, t, l), _c0(ap, -t, 1 - l) / _c0(ap, t, l)],
        [_c0(ap, t, l + 1) / _c0(ap, -t, -l), _c1(ap, -t, -l)],
    ], dtype=complex) / wp1
    pole_shift = (t / 2.0) * (wpp**2 / (4.0 * wp1**3) - wppp / (6.0 * wp1**2))
    core += pole_shift * np.diag([1.0, -1.0])
    core -= (wpp / (2.0 * wp1**2)) * np.diag([l - 1.0, -l - 1.0])
    return core


def sigma_shift_trace_residual(ap):
    """|wp'(alpha) tr(Y1 diag(1/2,-1/2)) - d/dt log tau_l|, relative."""
    _, wp1, _, _ = ap.wp_data()
    Y1 = sigma_shift_y1(ap)
    lhs = wp1 * 0.5 * (Y1[0, 0] - Y1[1, 1])
    rhs = sigma_shift_dlog_tau_dt(ap)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
