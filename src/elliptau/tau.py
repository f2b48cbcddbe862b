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
Each function of it reads a deformation point and a shift index l: the
point's lattice, alpha = u(a), t (elementwise when t is an array),
wp_series, the series values of wp and its first three derivatives at alpha,
and zeta_wp_2alpha, zeta and wp at 2 alpha.  H_nu and residue_formula read
d/dOmega theta[p,q] at t/omega1 from the point.
"""

import numpy as np

from .curve import dOmega_de, dlog_omega1_de, quasiperiod_ratio_derivative
from .elliptic import _any, _char_dlog, _math, sigma, zeta
from .errors import DegenerateParameterError


def f_func(e1, e2, e3, a):
    """f = -a + (e1+e2+e3)/3 + (1/2) prod(a-e) sum 1/(a-e)^2; elementwise
    in branch points that are arrays."""
    es = (e1, e2, e3)
    if any(_any(a == e) for e in es):
        raise DegenerateParameterError("a collides with a branch point")
    prod = (a - es[0]) * (a - es[1]) * (a - es[2])
    s = sum(1.0 / (a - e) ** 2 for e in es)
    return -a + sum(es) / 3.0 + 0.5 * prod * s


def df_de(e1, e2, e3, a, nu):
    """Closed-form derivative of f in the branch point e_nu."""
    es = (e1, e2, e3)
    prod = (a - es[0]) * (a - es[1]) * (a - es[2])
    s = sum(1.0 / (a - e) ** 2 for e in es)
    d = a - es[nu - 1]
    return 1.0 / 3.0 - 0.5 * prod * s / d + prod / d**3


def H_t(params):
    """dt-component of the 1-form: sigma[p,q]'(t)/sigma[p,q](t) + (t/2) f,
    from the point's theta jet.  Elementwise on a batch point."""
    p = params
    L = _char_dlog(p.lat, p.t, p.theta_jet)
    es = p.branch.es
    return L + (p.t / 2.0) * f_func(*es, p.a)


def omega_a_de_component(params, nu):
    """de_nu-component contributed by the expansion at the irregular point."""
    p = params
    L = _char_dlog(p.lat, p.t, p.theta_jet)
    d = p.a - p.branch.es[nu - 1]
    f = f_func(*p.branch.es, p.a)
    return -p.t * L / (2.0 * d) - p.t**2 * f / (4.0 * d)


def dlog_theta_de(params, nu):
    """Full branch-point derivative of log theta[p,q](t/omega1; Omega)."""
    p = params
    th, thz = p.theta_jet
    dl_w1 = dlog_omega1_de(p.branch, p.lat, nu)
    d_om = dOmega_de(p.branch, p.lat, nu)
    return -(p.t / p.lat.omega1) * dl_w1 * (thz / th) + d_om * (p.theta_dOmega / th)


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
    L = _char_dlog(p.lat, p.t, p.theta_jet)
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
    """de_nu-component of the 1-form, in the five-term closed form;
    elementwise on a batch point."""
    p = params
    es = p.branch.es
    e = es[nu - 1]
    sum_inv = sum(1.0 / (e - o) for j, o in enumerate(es, start=1) if j != nu)
    return (dlog_theta_de(params, nu)
            - 0.5 * dlog_omega1_de(p.branch, p.lat, nu)
            - 0.125 * sum_inv
            + quasiperiod_ratio_derivative(p.branch, p.lat, nu, p.t)
            + (p.t * p.t / 4.0) * df_de(*es, p.a, nu))


def log_tau(params):
    """log tau with principal-branch constants; only its derivatives are
    comparison-grade (tau itself is defined up to a constant factor).
    Elementwise on a batch point."""
    p = params
    es = p.branch.es
    val = np.log(p.theta_jet[0])
    val -= 0.5 * _math(p.lat.omega1).log(p.lat.omega1)
    for i in range(3):
        for j in range(i + 1, 3):
            val -= 0.125 * _math(es[i] - es[j]).log(es[i] - es[j])
    val += p.lat.eta1 * p.t**2 / (2.0 * p.lat.omega1)
    val += (p.t**2 / 4.0) * f_func(*es, p.a)
    return val


# ---------------------------------------------------------------------------
# Zero-sum-lattice family built from shifted sigma functions
# ---------------------------------------------------------------------------


def _c1(p, t, l):
    """zeta(t + 2 l alpha) - l zeta(2 alpha) + (t/2) wp(2 alpha); elementwise in t and l."""
    z2, w2 = p.zeta_wp_2alpha
    return zeta(p.lat, t + 2 * l * p.alpha) - l * z2 + (t / 2.0) * w2


def _growth_coefficient(p):
    """wp(2a) + wp''(a)^2/(4 wp'(a)^2) - wp'''(a)/(6 wp'(a)); equals f on a
    zero-sum configuration."""
    _, wp1, wpp, wppp = p.wp_series
    return p.zeta_wp_2alpha[1] + wpp**2 / (4.0 * wp1**2) - wppp / (6.0 * wp1)


def sigma_shift_h(p, l):
    _, wp1, wpp, _ = p.wp_series
    t = p.t
    return ((t * t / 4.0) * _growth_coefficient(p)
            - t * l * (p.zeta_wp_2alpha[0] + wpp / (2.0 * wp1)))


def sigma_shift_tau(p, l):
    """tau_l(t) = sigma(t + 2 l alpha) exp h_l(t); elementwise when p.t is an array."""
    s = sigma(p.lat, p.t + 2 * l * p.alpha)
    if _any(s == 0):
        raise DegenerateParameterError("sigma(t + 2 l alpha) vanishes")
    return s * _math(s).exp(sigma_shift_h(p, l))


def sigma_shift_dlog_tau_dt(p, l):
    """d/dt log tau_l in closed form; elementwise in t."""
    t = p.t
    _, wp1, wpp, _ = p.wp_series
    return (zeta(p.lat, t + 2 * l * p.alpha)
            + (t / 2.0) * _growth_coefficient(p)
            - l * (p.zeta_wp_2alpha[0] + wpp / (2.0 * wp1)))


def sigma_shift_y1(p, l):
    """Diagonal (Y11, Y22) of the first expansion matrix of the normalized
    solution at x = wp(alpha), the entries the trace identity reads; l a
    number or an array, the result of shape (2,) + l.shape.

    The diagonal shift carries wp''/(2 wp'^2) (half the raw quotient): the
    half factor is what makes the trace identity with d/dt log tau_l close.
    """
    _, wp1, wpp, wppp = p.wp_series
    l = np.asarray(l)
    # _c1 at (t, l), (-t, -l) in one call
    lift = (2,) + (1,) * l.ndim
    c1 = _c1(p, np.reshape([p.t, -p.t], lift), np.stack([l, -l]))
    pole_shift = (p.t / 2.0) * (wpp**2 / (4.0 * wp1**3) - wppp / (6.0 * wp1**2))
    return (c1 / wp1 + pole_shift * np.reshape([1.0, -1.0], lift)
            - (wpp / (2.0 * wp1**2)) * np.stack([l - 1.0, -l - 1.0]))


def sigma_shift_trace_residual(p, l):
    """|wp'(alpha) tr(Y1 diag(1/2,-1/2)) - d/dt log tau_l|, relative;
    elementwise in l."""
    _, wp1, _, _ = p.wp_series
    Y11, Y22 = sigma_shift_y1(p, l)
    lhs = wp1 * 0.5 * (Y11 - Y22)
    rhs = sigma_shift_dlog_tau_dt(p, l)
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
