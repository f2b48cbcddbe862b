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

Every public function of z or u takes a number (the cached size-1 call of
one kernel) or an array (one call of it, result in the array's shape).  The
kernel sums a block of rings |n| <= K at every point; K grows 8, 16, 32, ...
up to MAX_TERMS = 200 until the edge terms fall below SERIES_TOL = 1e-16 of
the running scale at every z, else it raises ThetaConvergenceError.  These
are module constants, not options.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
# Largest exponent of a series term: with it every row of 200 rings, up to
# the fifth z-derivative and the Omega-derivative, stays finite.
_EXP_MAX = 650.0


@lru_cache(maxsize=256)
def _rings(p, done, K, kmax, with_dOmega):
    """The rings done < |n| <= K (-K first, K last) as columns of m = n + p:
    m^2, 2 pi i m, and the row weights (2 pi i m)^k for k = 0..kmax, then
    i pi m^2 with with_dOmega."""
    n = np.arange(-K, K + 1)
    m = (n[np.abs(n) > done] + p)[:, None]
    weights = [np.ones_like(m)]
    for _ in range(kmax):
        weights.append(weights[-1] * (TWO_PI_I * m))
    if with_dOmega:
        weights.append((1j * math.pi) * m * m)
    return m * m, TWO_PI_I * m, np.stack(weights)


def _theta_block(char, z, Omega, kmax, with_dOmega):
    """Rows d^k/dz^k theta[p,q], k = 0..kmax, then d/dOmega theta with
    with_dOmega, at every point of the 1-D array z: shape (rows, len(z)).

    K doubles from 8 (capped at MAX_TERMS) until at every point the edge
    terms (rings +-K) of every row are at most SERIES_TOL of that row's
    scale max(|partial sum|, largest |term|); the bare partial sum would
    deadlock at symmetric zeros such as theta11(0).  A term beyond
    exp(_EXP_MAX) raises ThetaConvergenceError before it overflows.
    """
    if Omega.imag <= 0:
        raise LatticeOrientationError(f"Im(Omega) must be positive, got {Omega}")
    if not z.size:
        return np.zeros((kmax + 1 + with_dOmega, 0), dtype=complex)
    p, zq = complex(char.p), z + complex(char.q)
    sums = peaks = 0.0
    done, K = -1, 8
    while True:
        msq, lin, weights = _rings(p, done, K, kmax, with_dOmega)
        expo = (1j * math.pi * Omega) * msq + lin * zq
        if expo.real.max() > _EXP_MAX:
            bad = np.unravel_index(np.argmax(expo.real), expo.shape)[1]
            raise ThetaConvergenceError(complex(z[bad]), Omega, MAX_TERMS)
        terms = weights * np.exp(expo)
        mags = np.abs(terms)
        sums = sums + terms.sum(axis=1)
        peaks = np.maximum(peaks, mags.max(axis=1))
        edge = np.maximum(mags[:, 0], mags[:, -1])
        ok = edge <= SERIES_TOL * np.maximum(np.abs(sums), peaks)
        if ok.all():
            return sums
        if K == MAX_TERMS:
            bad = np.flatnonzero(~ok.all(axis=0))[0]
            raise ThetaConvergenceError(complex(z[bad]), Omega, MAX_TERMS)
        done, K = K, min(2 * K, MAX_TERMS)


@lru_cache(maxsize=16384)
def _theta_jet(char, z, Omega, kmax, with_dOmega=False):
    """The size-1 call of _theta_block, cached: (jet, dOmega) with
    jet[k] = d^k/dz^k theta for k = 0..kmax and dOmega = d/dOmega theta
    (or None).  Evaluation is pure."""
    rows = _theta_block(char, np.array([z]), Omega, kmax, with_dOmega)[:, 0].tolist()
    return tuple(rows[:kmax + 1]), (rows[-1] if with_dOmega else None)


def _arg(z):
    """A number as a Python complex (the cached path), an array as a complex array."""
    if isinstance(z, np.ndarray) and z.ndim:
        return z.astype(complex, copy=False)
    return complex(z)


def _math(w):
    """cmath for a number, numpy for an array: exp and sqrt of either."""
    return np if isinstance(w, np.ndarray) else cmath


def _theta_rows(char, z, Omega, kmax, with_dOmega=False):
    """(jet, dOmega) as _theta_jet returns them; an array of z goes to one
    uncached _theta_block call and gives rows of z's shape."""
    z = _arg(z)
    if not isinstance(z, np.ndarray):
        return _theta_jet(char, z, complex(Omega), kmax, with_dOmega)
    rows = _theta_block(char, z.ravel(), complex(Omega), kmax, with_dOmega)
    rows = rows.reshape((len(rows),) + z.shape)
    return rows[:kmax + 1], (rows[-1] if with_dOmega else None)


def theta(char, z, Omega):
    """theta[p,q](z; Omega) by direct summation."""
    jet, _ = _theta_rows(char, z, Omega, 0)
    return jet[0]


def theta_dz(char, z, Omega, order=1):
    """Termwise z-derivative of theta[p,q], order in 1..5."""
    if order not in (1, 2, 3, 4, 5):
        raise ValueError(f"derivative order must be in 1..5, got {order}")
    jet, _ = _theta_rows(char, z, Omega, order)
    return jet[order]


def theta_dOmega(char, z, Omega):
    """Termwise Omega-derivative of theta[p,q]; satisfies the heat equation
    theta_zz = 4*pi*i * theta_dOmega."""
    _, dom = _theta_rows(char, z, Omega, 0, with_dOmega=True)
    return dom


@lru_cache(maxsize=256)
def theta11_constants(Omega):
    """Odd theta-constant derivatives (theta11', theta11''', theta11^(5)) at 0."""
    jet, _ = _theta_jet(HALF_HALF, 0j, complex(Omega), 5)
    return jet[1], jet[3], jet[5]


@dataclass(frozen=True)
class Lattice:
    """Full periods and, when known, the zero-sum values of wp at the half
    periods.  The period ratio, quasi-period constants and cubic invariants
    follow, each at first read: the periods alone need no theta constants."""

    omega1: complex
    omega2: complex
    e_values: tuple | None = None

    @cached_property
    def Omega(self):
        return self.omega2 / self.omega1

    @cached_property
    def eta1(self):
        """From the odd theta-constant relation omega1 eta1 = -theta11'''/(3 theta11')."""
        d1, d3, _ = theta11_constants(self.Omega)
        return -d3 / (3.0 * d1 * self.omega1)

    @cached_property
    def eta2(self):
        """From the normalization eta1 omega2 - eta2 omega1 = 2 pi i."""
        return (self.eta1 * self.omega2 - TWO_PI_I) / self.omega1

    @cached_property
    def _invariants(self):
        """(g2, g3) from e_values, else from wp at the half periods."""
        w1, w2 = self.omega1, self.omega2
        e1, e2, e3 = self.e_values or [complex(wp(self, h))
                                       for h in (w1 / 2, (w1 + w2) / 2, w2 / 2)]
        return -4.0 * (e1 * e2 + e2 * e3 + e3 * e1), 4.0 * e1 * e2 * e3

    g2 = property(lambda self: self._invariants[0])
    g3 = property(lambda self: self._invariants[1])

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
    """The Lattice of full periods omega1, omega2, Im(omega2/omega1) > 0, with
    e_values, when given, the zero-sum branch values of wp."""
    lat = Lattice(complex(omega1), complex(omega2), e_values and tuple(e_values))
    if lat.Omega.imag <= 0:
        raise LatticeOrientationError(f"Im(omega2/omega1) must be positive, got {lat.Omega}")
    return lat


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


def _theta11_logdiv(lat, u, depth):
    """Derivatives d^m/dz^m [theta11'/theta11](u/omega1) for m = 0..depth-1;
    raises LatticePoleError naming the first u within 1e-12 of the lattice."""
    u = _arg(u)
    for v in (u.ravel() if isinstance(u, np.ndarray) else (u,)):
        if abs(lat.reduce(v)[0]) <= 1e-12 * lat.unit():
            raise LatticePoleError(f"u={complex(v)} is within 1e-12 of a lattice point")
    jet, _ = _theta_rows(HALF_HALF, u / lat.omega1, lat.Omega, depth)
    g = _logdiv_coeffs([jet[k] / _FACT[k] for k in range(depth + 1)])
    return [g[m] * _FACT[m] for m in range(depth)]


def _gauss(lat, u):
    """exp(eta1 u^2/(2 omega1)) omega1/theta11', the prefactor of every sigma."""
    d1, _, _ = theta11_constants(lat.Omega)
    return _math(u).exp(lat.eta1 * u * u / (2 * lat.omega1)) * (lat.omega1 / d1)


def sigma_char(lat, char, u):
    """sigma[p,q](u) = exp(eta1 u^2/(2 omega1)) (omega1/theta11') theta[p,q](u/omega1)."""
    u = _arg(u)
    return _gauss(lat, u) * theta(char, u / lat.omega1, lat.Omega)


def sigma(lat, u):
    """Weierstrass sigma: odd, sigma'(0) = 1, simple zeros exactly on the lattice."""
    return sigma_char(lat, HALF_HALF, u)


def sigma_char_dlog(lat, char, u):
    """Logarithmic derivative sigma[p,q]'(u)/sigma[p,q](u)."""
    u = _arg(u)
    jet, _ = _theta_rows(char, u / lat.omega1, lat.Omega, 1)
    return lat.eta1 * u / lat.omega1 + jet[1] / (jet[0] * lat.omega1)


def sigma_char_du(lat, char, u):
    """Plain derivative sigma[p,q]'(u); regular at the zeros of sigma[p,q]."""
    u = _arg(u)
    jet, _ = _theta_rows(char, u / lat.omega1, lat.Omega, 1)
    return _gauss(lat, u) * ((lat.eta1 * u / lat.omega1) * jet[0] + jet[1] / lat.omega1)


def sigma_du(lat, u):
    """Plain derivative sigma'(u); sigma_du(0) = 1."""
    return sigma_char_du(lat, HALF_HALF, u)


def zeta(lat, u):
    """Weierstrass zeta = sigma'/sigma."""
    u = _arg(u)
    (g0,) = _theta11_logdiv(lat, u, 1)
    return lat.eta1 * u / lat.omega1 + g0 / lat.omega1


def wp(lat, u):
    """Weierstrass wp = -zeta'."""
    g = _theta11_logdiv(lat, u, 2)
    return -lat.eta1 / lat.omega1 - g[1] / lat.omega1**2


def wp_prime(lat, u):
    """First derivative of wp, via the analytic theta chain (no differencing)."""
    g = _theta11_logdiv(lat, u, 3)
    return -g[2] / lat.omega1**3


def wp_n(lat, u, order):
    """Second or third derivative of wp (order in {2, 3}), analytic."""
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    g = _theta11_logdiv(lat, u, order + 2)
    return -g[order + 1] / lat.omega1 ** (order + 2)
