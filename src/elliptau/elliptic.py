"""Theta functions with characteristics and the Weierstrass function family.

Conventions, fixed once for the whole package:

* theta[p,q](z; Omega) = sum_n exp(pi*i*Omega*(n+p)^2 + 2*pi*i*(n+p)*(z+q)),
  with Im(Omega) > 0.  theta11 := theta[1/2,1/2] is odd in z.
* A lattice is spanned by its two full periods omega1, omega2; the
  quasi-period constants eta1, eta2 are the increments of zeta over a full
  period and satisfy eta1*omega2 - eta2*omega1 = 2*pi*i.
* sigma(u) = exp(eta1*u^2/(2*omega1)) * (omega1/theta11') * theta11(u/omega1)
  is the odd Weierstrass sigma: sigma'(0) = 1, simple zeros exactly on the
  lattice.  sigma[p,q] replaces theta11 by theta[p,q] (same prefactors).
* zeta = sigma'/sigma, wp = -zeta'; derivatives of wp are taken analytically
  through the theta representation, never by finite differences.

Every theta value is summed to one fixed precision: the series stops when
its edge terms fall below SERIES_TOL = 1e-16 of the running scale and
raises ThetaConvergenceError after MAX_TERMS = 200 rings.  No caller sets
these; they are module constants, not options.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import LatticeOrientationError, LatticePoleError, ThetaConvergenceError

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ThetaChar:
    """Characteristic (p, q) of a theta function; generically non-half-integer."""

    p: complex
    q: complex


HALF_HALF = ThetaChar(0.5, 0.5)

SERIES_TOL = 1e-16
MAX_TERMS = 200


@lru_cache(maxsize=16384)
def _theta_jet(char, z, Omega, dz_orders, with_dOmega=False):
    """Evaluate theta[p,q] and z-derivatives (termwise) in a single pass.

    Returns (jet, dOmega) where jet[k] = d^k/dz^k theta for k in
    0..max(dz_orders), and dOmega = d/dOmega theta (or None).  The sum runs
    over symmetric index rings n = 0, +-1, +-2, ... and stops once the edge
    terms of every requested order drop below SERIES_TOL relative to that
    order's scale.  The scale is max(|partial sum|, largest |term| seen):
    the bare partial sum would deadlock at symmetric zeros such as
    theta11(0).  Results are cached; evaluation is pure.
    """
    if Omega.imag <= 0:
        raise LatticeOrientationError(f"Im(Omega) must be positive, got {Omega}")
    p, q = complex(char.p), complex(char.q)
    kmax = max(dz_orders) if dz_orders else 0
    norders = kmax + 1
    sums = [0j] * norders
    peaks = [0.0] * norders
    s_om = 0j
    peak_om = 0.0

    def add(n):
        """Accumulate ring member n; returns this term's magnitudes per quantity."""
        nonlocal s_om, peak_om
        m = n + p
        term0 = cmath.exp(1j * math.pi * Omega * m * m + TWO_PI_I * m * (z + q))
        mags = []
        fac = 1.0 + 0j
        for k in range(norders):
            t = fac * term0
            sums[k] += t
            a = abs(t)
            mags.append(a)
            if a > peaks[k]:
                peaks[k] = a
            fac *= TWO_PI_I * m
        if with_dOmega:
            t = 1j * math.pi * m * m * term0
            s_om += t
            a = abs(t)
            mags.append(a)
            if a > peak_om:
                peak_om = a
        return mags

    add(0)
    n = 0
    while True:
        n += 1
        if n > MAX_TERMS:
            raise ThetaConvergenceError(z, Omega, MAX_TERMS)
        mpos, mneg = add(n), add(-n)
        if n < 8:
            continue
        edges = [max(a, b) for a, b in zip(mpos, mneg)]
        done = all(
            edges[k] <= SERIES_TOL * max(abs(sums[k]), peaks[k])
            for k in range(norders)
        )
        if with_dOmega:
            done = done and edges[-1] <= SERIES_TOL * max(abs(s_om), peak_om)
        if done:
            break
    return tuple(sums), (s_om if with_dOmega else None)


def theta(char, z, Omega):
    """theta[p,q](z; Omega) by direct summation."""
    jet, _ = _theta_jet(char, complex(z), complex(Omega), (0,))
    return jet[0]


def theta_dz(char, z, Omega, order=1):
    """Termwise z-derivative of theta[p,q], order in 1..5."""
    if order not in (1, 2, 3, 4, 5):
        raise ValueError(f"derivative order must be in 1..5, got {order}")
    jet, _ = _theta_jet(char, complex(z), complex(Omega), (order,))
    return jet[order]


def theta_dOmega(char, z, Omega):
    """Termwise Omega-derivative of theta[p,q]; satisfies the heat equation
    theta_zz = 4*pi*i * theta_dOmega."""
    _, dom = _theta_jet(char, complex(z), complex(Omega), (0,), with_dOmega=True)
    return dom


@lru_cache(maxsize=256)
def theta11_constants(Omega):
    """Odd theta-constant derivatives (theta11', theta11''', theta11^(5)) at 0."""
    jet, _ = _theta_jet(HALF_HALF, 0j, complex(Omega), (5,))
    return jet[1], jet[3], jet[5]


@dataclass(frozen=True)
class Lattice:
    """Full periods, period ratio, quasi-period constants, cubic invariants."""

    omega1: complex
    omega2: complex
    Omega: complex
    eta1: complex
    eta2: complex
    g2: complex
    g3: complex

    def reduce(self, u):
        """Nearest lattice point subtracted: returns (residual, m, n) with
        u = m*omega1 + n*omega2 + residual."""
        u = complex(u)
        det = (self.omega1.real * self.omega2.imag
               - self.omega1.imag * self.omega2.real)
        s = (u.real * self.omega2.imag - u.imag * self.omega2.real) / det
        t = (self.omega1.real * u.imag - self.omega1.imag * u.real) / det
        m, n = round(s), round(t)
        return u - m * self.omega1 - n * self.omega2, m, n

    def unit(self):
        """Length scale of the fundamental cell."""
        return max(abs(self.omega1), abs(self.omega2))


def lattice_from_periods(omega1, omega2, e_values=None):
    """Build a Lattice from its full periods.

    eta1 comes from the odd theta-constant relation
    omega1*eta1 = -theta11'''/(3*theta11'), eta2 from the normalization
    eta1*omega2 - eta2*omega1 = 2*pi*i.  The invariants g2, g3 are taken
    from `e_values` (the zero-sum branch values of wp) when given, otherwise
    recovered from wp at the half periods.
    """
    omega1, omega2 = complex(omega1), complex(omega2)
    Omega = omega2 / omega1
    if Omega.imag <= 0:
        raise LatticeOrientationError(f"Im(omega2/omega1) must be positive, got {Omega}")
    d1, d3, _ = theta11_constants(Omega)
    eta1 = -d3 / (3.0 * d1 * omega1)
    eta2 = (eta1 * omega2 - TWO_PI_I) / omega1
    lat = Lattice(omega1, omega2, Omega, eta1, eta2, 0j, 0j)
    if e_values is None:
        e_values = [wp(lat, h) for h in
                    (omega1 / 2, (omega1 + omega2) / 2, omega2 / 2)]
    e1, e2, e3 = (complex(e) for e in e_values)
    return replace(lat, g2=-4.0 * (e1 * e2 + e2 * e3 + e3 * e1),
                   g3=4.0 * e1 * e2 * e3)


def _logdiv_coeffs(cs):
    """Taylor coefficients of f'/f from Taylor coefficients cs of f (cs[0] != 0)."""
    K = len(cs) - 1
    g = [0j] * K
    for k in range(K):
        s = (k + 1) * cs[k + 1]
        for j in range(1, k + 1):
            s -= cs[j] * g[k - j]
        g[k] = s / cs[0]
    return g


_FACT = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0]


def _check_pole(lat, u):
    r, _, _ = lat.reduce(u)
    if abs(r) <= 1e-12 * lat.unit():
        raise LatticePoleError(f"u={u} is within 1e-12 of a lattice point")


def _theta11_logdiv(lat, u, depth):
    """Derivatives d^m/dz^m [theta11'/theta11](u/omega1) for m = 0..depth-1."""
    jet, _ = _theta_jet(HALF_HALF, u / lat.omega1, lat.Omega, (depth,))
    cs = [jet[k] / _FACT[k] for k in range(depth + 1)]
    g = _logdiv_coeffs(cs)
    return [g[m] * _FACT[m] for m in range(depth)]


def sigma_char(lat, char, u):
    """sigma[p,q](u) = exp(eta1 u^2/(2 omega1)) (omega1/theta11') theta[p,q](u/omega1)."""
    u = complex(u)
    d1, _, _ = theta11_constants(lat.Omega)
    gauss = cmath.exp(lat.eta1 * u * u / (2 * lat.omega1))
    return gauss * (lat.omega1 / d1) * theta(char, u / lat.omega1, lat.Omega)


def sigma(lat, u):
    """Weierstrass sigma: odd, sigma'(0) = 1, simple zeros exactly on the lattice."""
    return sigma_char(lat, HALF_HALF, u)


def sigma_char_dlog(lat, char, u):
    """Logarithmic derivative sigma[p,q]'(u)/sigma[p,q](u)."""
    u = complex(u)
    z = u / lat.omega1
    jet, _ = _theta_jet(char, z, lat.Omega, (1,))
    return lat.eta1 * u / lat.omega1 + jet[1] / (jet[0] * lat.omega1)


def sigma_char_du(lat, char, u):
    """Plain derivative sigma[p,q]'(u); regular at the zeros of sigma[p,q]."""
    u = complex(u)
    d1, _, _ = theta11_constants(lat.Omega)
    z = u / lat.omega1
    jet, _ = _theta_jet(char, z, lat.Omega, (1,))
    gauss = cmath.exp(lat.eta1 * u * u / (2 * lat.omega1))
    return gauss * (lat.omega1 / d1) * (
        (lat.eta1 * u / lat.omega1) * jet[0] + jet[1] / lat.omega1
    )


def sigma_du(lat, u):
    """Plain derivative sigma'(u); sigma_du(0) = 1."""
    return sigma_char_du(lat, HALF_HALF, u)


def zeta(lat, u):
    """Weierstrass zeta = sigma'/sigma."""
    u = complex(u)
    _check_pole(lat, u)
    (g0,) = _theta11_logdiv(lat, u, 1)
    return lat.eta1 * u / lat.omega1 + g0 / lat.omega1


def wp(lat, u):
    """Weierstrass wp = -zeta'."""
    u = complex(u)
    _check_pole(lat, u)
    g = _theta11_logdiv(lat, u, 2)
    return -lat.eta1 / lat.omega1 - g[1] / lat.omega1**2


def wp_prime(lat, u):
    """First derivative of wp, via the analytic theta chain (no differencing)."""
    u = complex(u)
    _check_pole(lat, u)
    g = _theta11_logdiv(lat, u, 3)
    return -g[2] / lat.omega1**3


def wp_n(lat, u, order):
    """Second or third derivative of wp (order in {2, 3}), analytic."""
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    u = complex(u)
    _check_pole(lat, u)
    g = _theta11_logdiv(lat, u, order + 2)
    return -g[order + 1] / lat.omega1 ** (order + 2)
