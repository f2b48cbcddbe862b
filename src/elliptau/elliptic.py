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
* zeta = sigma'/sigma, wp = -zeta'.  Derivatives come in jets, never by
  finite differences: zeta_jet(lat, u, order) gives zeta and its first order
  u-derivatives (wp = -zeta', wp' = -zeta'', ...) from one theta11 jet, and
  sigma_jet(lat, char, u) gives sigma[p,q] and sigma[p,q]' from one order-1
  theta jet.  zeta and wp read the zeta jet; sigma and sigma_char need no
  derivative and read theta alone.

Every public function of z or u takes a number (the size-1 call of one
kernel, cached in _theta_jet, its ring tables in _rings) or an array (one
call of it, result in the array's shape); a jet is a tuple of such results,
one per derivative.  The lattice may be a batch: a Lattice whose periods are
arrays of one shape holds one lattice per point, and u broadcasts against
it; likewise Omega and the characteristic (p, q) of the theta functions may
be arrays.  The kernel sums a block of rings |n| <= K at every point; K
starts where the Gaussian bound on the terms says (at most 8) and doubles
up to MAX_TERMS = 200 until the edge terms fall below SERIES_TOL = 1e-16
of the running scale at every point, else it raises ThetaConvergenceError.
These are module constants, not options.  A point adds each block's rings
in order, -K first, in a call of any size, so its value is that of its
size-1 call up to the rings past its own K that other points need, which
lie below SERIES_TOL of its scale.
"""

import cmath
import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .errors import LatticeOrientationError, LatticePoleError, ThetaConvergenceError

TWO_PI_I = 2j * math.pi


class _Value:
    """Base of the package's value types, each a namedtuple subclass (so no
    methods are generated at import): equal only to its own type, hashed as
    its tuple, and copied with fields changed by _replace, through the
    constructor, so that a copy passes the constructor's checks."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def _replace(self, **changes):
        return self.__class__(**{**self._asdict(), **changes})


class ThetaChar(_Value, namedtuple("ThetaChar", "p q")):
    """Characteristic (p, q) of a theta function; generically non-half-integer."""


HALF_HALF = ThetaChar(0.5, 0.5)

SERIES_TOL = 1e-16
MAX_TERMS = 200
# Largest exponent of a series term: with it every row of 200 rings, up to
# the fifth z-derivative and the Omega-derivative, stays finite.
_EXP_MAX = 650.0


def _ring_tables(m, kmax, with_dOmega):
    """For a block m = n + p of rings by points: m^2, 2 pi i m, and the row
    weights (2 pi i m)^k for k = 0..kmax, then i pi m^2 with with_dOmega,
    stacked as (rings, rows, points)."""
    weights = [np.ones_like(m)]
    for _ in range(kmax):
        weights.append(weights[-1] * (TWO_PI_I * m))
    if with_dOmega:
        weights.append((1j * math.pi) * m * m)
    return m * m, TWO_PI_I * m, np.stack(weights, axis=1)


def _ring_indices(done, K):
    """The rings done < |n| <= K, -K first and K last, as a column."""
    n = np.arange(-K, K + 1)
    return n[np.abs(n) > done][:, None]


@lru_cache(maxsize=256)
def _rings(p, done, K, kmax, with_dOmega):
    """_ring_tables of the rings done < |n| <= K for one characteristic p,
    as (rings, 1) columns shared by every point."""
    return _ring_tables(_ring_indices(done, K) + p, kmax, with_dOmega)


def _theta_block(char, z, Omega, kmax, with_dOmega):
    """Rows d^k/dz^k theta[p,q], k = 0..kmax, then d/dOmega theta with
    with_dOmega, at every point of the 1-D array z: shape (rows, len(z)).
    Omega, p and q are numbers or arrays of z's length (one per point);
    a number p reads the cached _rings columns, an array p builds the
    (rings, points) block m = n + p.

    The first block |n| <= K, K = ceil(max|m*| + max|p| + sqrt((ln(1/SERIES_TOL)
    + 3 kmax)/(pi min Im Omega))) but at most 8, reaches SERIES_TOL (and e^3
    per power of m in the weights) below the top of the terms, |term| =
    exp(-pi Im Omega (m - m*)^2 + c) in m = n + p, m* = -Im(z + q)/Im Omega.
    Then K doubles (capped at MAX_TERMS) until at every point the edge terms
    (rings +-K) of every row, which bound the log-concave terms past them,
    are at most SERIES_TOL of that row's scale max(|partial sum|, largest
    |term|); the bare partial sum would deadlock at symmetric zeros such as
    theta11(0).  A term beyond exp(_EXP_MAX) raises ThetaConvergenceError.
    """
    def at(bad):  # the error's z and Omega at point bad
        return complex(z[bad]), complex(np.broadcast_to(Omega, z.shape)[bad])

    im = Omega.imag
    wrong = im <= 0
    if _any(wrong):
        worst = np.ravel(Omega)[np.argmax(np.ravel(wrong))]
        raise LatticeOrientationError(f"Im(Omega) must be positive, got {worst}")
    if not z.size:
        return np.zeros((kmax + 1 + with_dOmega, 0), dtype=complex)
    p, zq = char.p, z + char.q
    lo = im.min() if isinstance(im, np.ndarray) else im
    head = _top(p) + _top(zq.imag) / lo + math.sqrt(
        (math.log(1 / SERIES_TOL) + 3.0 * kmax) / (math.pi * lo))
    sums = peaks = 0.0
    done, K = -1, math.ceil(head) if 0 < head < 8 else 8  # K = 0 would not double
    while True:
        if isinstance(p, np.ndarray):
            msq, lin, weights = _ring_tables(_ring_indices(done, K) + p, kmax, with_dOmega)
        else:
            msq, lin, weights = _rings(p, done, K, kmax, with_dOmega)
        expo = (1j * math.pi * Omega) * msq + lin * zq
        if expo.real.max() > _EXP_MAX:
            bad = np.unravel_index(np.argmax(expo.real), expo.shape)[1]
            raise ThetaConvergenceError(*at(bad), MAX_TERMS)
        # rings first, added in order in a call of any size: numpy adds the
        # rings of several columns in order but those of a lone column
        # pairwise, so a cumulative sum keeps the order there
        terms = weights * np.exp(expo)[:, None]
        mags = np.abs(terms)
        sums = sums + (terms.sum(axis=0) if terms[0].size > 1 else terms.cumsum(axis=0)[-1])
        peaks = np.maximum(peaks, mags.max(axis=0))
        edge = np.maximum(mags[0], mags[-1])
        ok = edge <= SERIES_TOL * np.maximum(np.abs(sums), peaks)
        if ok.all():
            return sums
        if K == MAX_TERMS:
            raise ThetaConvergenceError(*at(np.flatnonzero(~ok.all(axis=0))[0]), MAX_TERMS)
        done, K = K, min(2 * K, MAX_TERMS)


@lru_cache(maxsize=16384)
def _theta_jet(char, z, Omega, kmax, with_dOmega=False):
    """The size-1 call of _theta_block, cached: (jet, dOmega) with
    jet[k] = d^k/dz^k theta for k = 0..kmax and dOmega = d/dOmega theta
    (or None).  Evaluation is pure."""
    char = ThetaChar(complex(char.p), complex(char.q))
    rows = _theta_block(char, np.array([z]), Omega, kmax, with_dOmega)[:, 0].tolist()
    return tuple(rows[:kmax + 1]), (rows[-1] if with_dOmega else None)


def _any(mask):
    """Whether a mask, a bool or a bool array, holds a true entry (numpy's
    own any costs microseconds on a bool)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _top(v):
    """max |v| of a number or an array, of size 1 by its item (numpy's max costs 1 us)."""
    if isinstance(v, np.ndarray):
        return abs(v.item()) if v.size == 1 else np.abs(v).max()
    return abs(v)


def _arg(z):
    """A number as a Python complex (the cached path), an array as a complex array."""
    if isinstance(z, np.ndarray) and z.ndim:
        return z.astype(complex, copy=False)
    return complex(z)


def _math(w):
    """cmath for a number, numpy for an array: exp and sqrt of either."""
    return np if isinstance(w, np.ndarray) else cmath


def _theta_rows(char, z, Omega, kmax, with_dOmega=False):
    """(jet, dOmega) as _theta_jet returns them.  Where z, Omega, p or q is
    an array, they broadcast and go to one uncached _theta_block call, which
    gives rows of the broadcast shape; the numbers among them stay numbers."""
    z = _arg(z)
    per_point = [v for v in (z, Omega, char.p, char.q) if isinstance(v, np.ndarray)]
    if not per_point:
        return _theta_jet(char, z, complex(Omega), kmax, with_dOmega)
    shape = per_point[0].shape
    if any(v.shape != shape for v in per_point):
        shape = np.broadcast_shapes(*(v.shape for v in per_point))

    def flat(v):
        if not isinstance(v, np.ndarray):
            return complex(v)
        return (v if v.shape == shape else np.broadcast_to(v, shape)).astype(
            complex, copy=False).ravel()

    zs = flat(z) if isinstance(z, np.ndarray) else np.full(shape, z).ravel()
    rows = _theta_block(ThetaChar(flat(char.p), flat(char.q)), zs, flat(Omega),
                        kmax, with_dOmega)
    rows = rows.reshape((len(rows),) + shape)
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


def theta11_constants(Omega):
    """Odd theta-constant derivatives (theta11', theta11''', theta11^(5)) at 0;
    an array of Omega gives arrays of its shape from one uncached kernel call."""
    jet, _ = _theta_rows(HALF_HALF, 0j, Omega, 5)
    return jet[1], jet[3], jet[5]


class Lattice(_Value, namedtuple("Lattice", "omega1 omega2")):
    """Full periods.  The period ratio, quasi-period constants and cubic
    invariants follow, each at first read: the periods alone need no theta
    constants.

    Periods that are arrays of one shape make a batch, one lattice per
    point: every derived value is then an array of that shape, and every
    function of u broadcasts u against it."""

    @cached_property
    def Omega(self):
        return self.omega2 / self.omega1

    @cached_property
    def odd_theta_constants(self):
        """theta11_constants of the period ratio, evaluated once per lattice."""
        return theta11_constants(self.Omega)

    @cached_property
    def eta1(self):
        """From the odd theta-constant relation omega1 eta1 = -theta11'''/(3 theta11')."""
        d1, d3, _ = self.odd_theta_constants
        return -d3 / (3.0 * d1 * self.omega1)

    @cached_property
    def eta2(self):
        """From the normalization eta1 omega2 - eta2 omega1 = 2 pi i."""
        return (self.eta1 * self.omega2 - TWO_PI_I) / self.omega1

    @cached_property
    def _invariants(self):
        """(g2, g3) from wp at the half periods."""
        w1, w2 = self.omega1, self.omega2
        e1, e2, e3 = wp(self, np.stack([w1 / 2, (w1 + w2) / 2, w2 / 2]))
        return -4.0 * (e1 * e2 + e2 * e3 + e3 * e1), 4.0 * e1 * e2 * e3

    g2 = property(lambda self: self._invariants[0])
    g3 = property(lambda self: self._invariants[1])

    def reduce(self, u):
        """Nearest lattice point subtracted: returns (residual, m, n) with
        u = m*omega1 + n*omega2 + residual; m and n are ints for a number,
        float arrays for an array or a batch."""
        u, w1, w2 = _arg(u), self.omega1, self.omega2
        det = w1.real * w2.imag - w1.imag * w2.real
        s = (u.real * w2.imag - u.imag * w2.real) / det
        t = (w1.real * u.imag - w1.imag * u.real) / det
        m, n = (np.rint(s), np.rint(t)) if isinstance(s, np.ndarray) else (round(s), round(t))
        return u - m * w1 - n * w2, m, n

    def unit(self):
        """Length scale of the fundamental cell."""
        a, b = abs(self.omega1), abs(self.omega2)
        return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def lattice_from_periods(omega1, omega2):
    """The Lattice of full periods omega1, omega2, Im(omega2/omega1) > 0.
    Arrays of periods make a batch."""
    lat = Lattice(_arg(omega1), _arg(omega2))
    if _any(lat.Omega.imag <= 0):
        raise LatticeOrientationError(f"Im(omega2/omega1) must be positive, got {lat.Omega}")
    return lat


def zeta_jet(lat, u, order):
    """zeta and its first order u-derivatives at u (order 0..4), from one
    theta11 jet of order + 1: wp = -zeta', wp' = -zeta'', and so on.
    Raises LatticePoleError naming the first u within 1e-12 of the lattice."""
    if order not in range(5):
        raise ValueError(f"order must be in 0..4, got {order}")
    u = _arg(u)
    near = abs(lat.reduce(u)[0]) <= 1e-12 * lat.unit()
    if _any(near):
        v = np.broadcast_to(u, np.shape(near))[near][0]
        raise LatticePoleError(f"u={complex(v)} is within 1e-12 of a lattice point")
    w1 = lat.omega1
    f, *df = _theta_rows(HALF_HALF, u / w1, lat.Omega, order + 1)[0]
    # g = f'/f at z = u/omega1 and its derivatives, by Leibniz on f' = g f:
    # f^(k+1) = sum_j C(k, j) g^(j) f^(k-j), the j = k term being g^(k) f
    g = []
    for k in range(order + 1):
        s = df[k]
        for j in range(k):
            s = s - math.comb(k, j) * g[j] * df[k - j - 1]
        g.append(s / f)
    jet = [g[m] / w1 ** (m + 1) for m in range(order + 1)]
    jet[0] += lat.eta1 * u / w1
    if order:
        jet[1] += lat.eta1 / w1
    return tuple(jet)


def _gauss(lat, u):
    """exp(eta1 u^2/(2 omega1)) omega1/theta11', the prefactor of every sigma."""
    d1, _, _ = lat.odd_theta_constants
    x = lat.eta1 * u * u / (2 * lat.omega1)
    return _math(x).exp(x) * (lat.omega1 / d1)


def sigma_jet(lat, char, u):
    """(sigma[p,q](u), sigma[p,q]'(u)) from one order-1 theta jet at
    u/omega1; the derivative is regular at the zeros of sigma[p,q]."""
    u = _arg(u)
    (th, dth), _ = _theta_rows(char, u / lat.omega1, lat.Omega, 1)
    gauss = _gauss(lat, u)
    return gauss * th, gauss * ((lat.eta1 * u / lat.omega1) * th + dth / lat.omega1)


def sigma_char(lat, char, u):
    """sigma[p,q](u) = exp(eta1 u^2/(2 omega1)) (omega1/theta11') theta[p,q](u/omega1),
    from the order-0 theta alone."""
    u = _arg(u)
    return _gauss(lat, u) * theta(char, u / lat.omega1, lat.Omega)


def sigma(lat, u):
    """Weierstrass sigma: odd, sigma'(0) = 1, simple zeros exactly on the lattice."""
    return sigma_char(lat, HALF_HALF, u)


def _char_dlog(lat, u, jet):
    """sigma[p,q]'(u)/sigma[p,q](u) from the jet (theta[p,q], theta[p,q]') at u/omega1."""
    return lat.eta1 * u / lat.omega1 + jet[1] / (jet[0] * lat.omega1)


def zeta(lat, u):
    """Weierstrass zeta = sigma'/sigma."""
    return zeta_jet(lat, u, 0)[0]


def wp(lat, u):
    """Weierstrass wp = -zeta'."""
    return -zeta_jet(lat, u, 1)[1]
