"""Lattice construction and the sigma/zeta/wp family."""

import cmath
import math

import numpy as np
import pytest

from elliptau.elliptic import (
    HALF_HALF,
    ThetaChar,
    _char_dlog,
    _theta_rows,
    lattice_from_periods,
    sigma,
    sigma_char,
    sigma_jet,
    theta,
    theta11_constants,
    wp,
    zeta,
    zeta_jet,
)
from elliptau.errors import LatticeOrientationError, LatticePoleError
from elliptau.scenario import SplitMix64

# independent jtheta-route oracles on the square lattice (1, i); mpmath, 40 digits
ZETA_SQ = complex(3.526727899802456133575575, -1.74312861348848311247352)
WP_SQ = complex(10.03518820042540541470372, -11.49435774572733536579038)
WP_PRIME_SQ = complex(-23.57577436865108114222563, 119.6705601052089168926016)
SIGMA_SQ = complex(0.2305207565279158794982994, 0.1093302490909568013588629)
U_SQ = 0.23 + 0.11j


def wp_derivative(lat, u, order):
    """The order-th u-derivative of wp, from the zeta jet of order + 1."""
    return -zeta_jet(lat, u, order + 1)[order + 1]


def random_lattice(rng):
    w1 = (0.6 + rng.uniform(0.0, 1.2)) * rng.unit_phase()
    Om = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.25, 1.8))
    return lattice_from_periods(w1, w1 * Om)


def test_square_lattice_quasi_period_is_pi():
    lat = lattice_from_periods(1.0, 1j)
    assert abs(lat.eta1 - math.pi) < 1e-12
    assert abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 2j * math.pi) < 1e-12


def test_quasi_period_homogeneity_degree_minus_one():
    lat1 = lattice_from_periods(1.0, 1j)
    lat2 = lattice_from_periods(2.0, 2j)
    assert abs(lat2.eta1 - lat1.eta1 / 2.0) < 1e-12


def test_orientation_rejected():
    with pytest.raises(LatticeOrientationError):
        lattice_from_periods(1.0, -1j)


def test_zeta_increment_is_quasi_period():
    rng = SplitMix64(21)
    for _ in range(10):
        lat = random_lattice(rng)
        u = 0.31 * lat.omega1 + 0.17 * lat.omega2
        assert abs(zeta(lat, u + lat.omega1) - zeta(lat, u) - lat.eta1) < 1e-10
        assert abs(zeta(lat, u + lat.omega2) - zeta(lat, u) - lat.eta2) < 1e-10


def test_square_lattice_values_against_jtheta_route():
    lat = lattice_from_periods(1.0, 1j)
    assert abs(zeta(lat, U_SQ) - ZETA_SQ) < 1e-12 * abs(ZETA_SQ)
    assert abs(wp(lat, U_SQ) - WP_SQ) < 1e-12 * abs(WP_SQ)
    assert abs(wp_derivative(lat, U_SQ, 1) - WP_PRIME_SQ) < 1e-12 * abs(WP_PRIME_SQ)
    assert abs(sigma(lat, U_SQ) - SIGMA_SQ) < 1e-12 * abs(SIGMA_SQ)


def test_sigma_normalization_and_oddness():
    lat = lattice_from_periods(1.0, 1j)
    assert abs(sigma(lat, 0.0)) < 1e-15
    assert abs(sigma(lat, 1e-3) / 1e-3 - 1.0) < 1e-12
    assert abs(sigma_jet(lat, HALF_HALF, 0.0)[1] - 1.0) < 1e-14
    u = 0.3 + 0.2j
    assert abs(sigma(lat, -u) + sigma(lat, u)) < 1e-14


def test_sigma_vanishes_exactly_on_lattice():
    lat = lattice_from_periods(1.1 + 0.2j, 0.3 + 0.9j)
    for m, n in [(1, 0), (0, 1), (2, -1), (-1, -1)]:
        v = m * lat.omega1 + n * lat.omega2
        # relative to the quasi-period growth factor at the zero
        growth = abs(cmath.exp(lat.eta1 * v * v / (2 * lat.omega1)))
        assert abs(sigma(lat, v)) < 1e-12 * max(1.0, growth)


def test_half_argument_variant_is_not_normalized():
    # the alternative theta-argument convention, theta11 at u/(2 omega1):
    # slope 1/2 at the origin and no zero at omega1, which the default
    # convention's tests exclude
    lat = lattice_from_periods(1.0, 1j)
    d1, _, _ = theta11_constants(lat.Omega)

    def sigma_half(u):
        gauss = cmath.exp(lat.eta1 * u * u / (2 * lat.omega1))
        return (gauss * (lat.omega1 / d1)
                * theta(HALF_HALF, u / (2 * lat.omega1), lat.Omega))

    assert abs(sigma_half(1e-3) / 1e-3 - 0.5) < 1e-5
    assert abs(sigma_half(lat.omega1)) > 0.1
    assert abs(sigma(lat, 1e-3) / 1e-3 - 1.0) < 1e-5
    assert abs(sigma(lat, lat.omega1)) < 1e-12


def test_sigma_char_quasi_periodicity():
    rng = SplitMix64(22)
    for _ in range(20):
        lat = random_lattice(rng)
        ch = ThetaChar(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        u = rng.uniform(0.05, 0.4) * lat.omega1 + rng.uniform(0.05, 0.4) * lat.omega2
        s0 = sigma_char(lat, ch, u)
        lhs = sigma_char(lat, ch, u + lat.omega1)
        rhs = (cmath.exp(2j * math.pi * ch.p)
               * cmath.exp(lat.eta1 * (u + lat.omega1 / 2)) * s0)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)
        lhs = sigma_char(lat, ch, u + lat.omega2)
        rhs = (cmath.exp(-2j * math.pi * ch.q)
               * cmath.exp(lat.eta2 * (u + lat.omega2 / 2)) * s0)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_sigma_char_derivatives_consistent():
    lat = lattice_from_periods(1.0 + 0.1j, 0.2 + 1.1j)
    ch = ThetaChar(0.3, 0.2)
    u, h = 0.27 + 0.09j, 1e-6
    fd = (sigma_char(lat, ch, u + h) - sigma_char(lat, ch, u - h)) / (2 * h)
    s, ds = sigma_jet(lat, ch, u)
    assert abs(ds - fd) < 1e-8
    # the log-derivative that H_t reads from a theta jet
    jet, _ = _theta_rows(ch, u / lat.omega1, lat.Omega, 1)
    assert abs(_char_dlog(lat, u, jet) - ds / s) < 1e-13


def test_wp_differential_equation():
    rng = SplitMix64(23)
    for _ in range(20):
        lat = random_lattice(rng)
        u = rng.uniform(0.1, 0.4) * lat.omega1 + rng.uniform(0.1, 0.4) * lat.omega2
        w, w1 = wp(lat, u), wp_derivative(lat, u, 1)
        res = w1 * w1 - (4 * w**3 - lat.g2 * w - lat.g3)
        assert abs(res) < 1e-9 * max(abs(w1 * w1), abs(4 * w**3))


def test_wp_parity_and_triple_derivative():
    lat = lattice_from_periods(0.9, 0.2 + 1.3j)
    u = 0.21 * lat.omega1 + 0.13 * lat.omega2
    assert abs(zeta(lat, -u) + zeta(lat, u)) < 1e-12
    assert abs(wp(lat, -u) - wp(lat, u)) < 1e-12
    lhs = wp_derivative(lat, u, 3)
    assert abs(lhs - 12 * wp(lat, u) * wp_derivative(lat, u, 1)) < 1e-9 * abs(lhs)


def test_wp_duplication():
    lat = lattice_from_periods(1.0, 0.4 + 1.2j)
    u = 0.19 * lat.omega1 + 0.23 * lat.omega2
    lhs = wp(lat, 2 * u)
    rhs = -2 * wp(lat, u) + 0.25 * (wp_derivative(lat, u, 2) / wp_derivative(lat, u, 1)) ** 2
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_pole_guard():
    lat = lattice_from_periods(1.0, 1j)
    for bad in (0.0, 1.0, 1j, 1.0 + 1j):
        with pytest.raises(LatticePoleError):
            zeta(lat, bad)
        with pytest.raises(LatticePoleError):
            wp(lat, bad)
    with pytest.raises(ValueError):
        zeta_jet(lat, 0.3, 5)


# every Weierstrass-layer value of u, as a function of (lattice, u): the
# derivatives are rows of the sigma and zeta jets
CH = ThetaChar(0.3, 0.2)
ARRAY_FUNCTIONS = {
    "sigma_char": lambda lat, u: sigma_char(lat, CH, u),
    "sigma": sigma,
    "sigma_char_dlog": lambda lat, u: (lambda s, ds: ds / s)(*sigma_jet(lat, CH, u)),
    "sigma_char_du": lambda lat, u: sigma_jet(lat, CH, u)[1],
    "sigma_du": lambda lat, u: sigma_jet(lat, HALF_HALF, u)[1],
    "zeta": zeta,
    "wp": wp,
    "wp_prime": lambda lat, u: wp_derivative(lat, u, 1),
    "wp_n2": lambda lat, u: wp_derivative(lat, u, 2),
    "wp_n3": lambda lat, u: wp_derivative(lat, u, 3),
}


def batch_of(lats):
    """The lattices, a list or a list of rows, as one batch lattice of that shape."""
    def periods(x, name):
        return [periods(v, name) for v in x] if isinstance(x, list) else getattr(x, name)
    return lattice_from_periods(np.array(periods(lats, "omega1")),
                                np.array(periods(lats, "omega2")))


def mixed_lattices(rng):
    """2 x 4 lattices whose Im(Omega) alternates between 0.25 and 1.8."""
    return [[lattice_from_periods(w1, w1 * complex(rng.uniform(-0.45, 0.45), im))
             for w1, im in zip(((0.6 + rng.uniform(0.0, 1.2)) * rng.unit_phase()
                                for _ in range(4)), (0.25, 1.8, 1.8, 0.25))]
            for _ in range(2)]


@pytest.mark.parametrize("name", list(ARRAY_FUNCTIONS))
def test_array_call_equals_scalar_calls(name):
    f = ARRAY_FUNCTIONS[name]
    rng = SplitMix64(24)
    for _ in range(4):
        lat = random_lattice(rng)
        us = np.array([[rng.uniform(-0.45, 0.45) * lat.omega1
                        + rng.uniform(-0.45, 0.45) * lat.omega2
                        for _ in range(4)] for _ in range(2)])
        arr = f(lat, us)
        assert arr.shape == us.shape
        one = np.array([[f(lat, u) for u in row] for row in us.tolist()])
        assert np.all(np.abs(arr - one) <= 1e-14 * np.abs(one))
    # a batch lattice, one lattice per point: the points at Im(Omega) = 0.25
    # make the kernel sum more rings for all of them than 1.8 needs
    lats = mixed_lattices(rng)
    us = np.array([[rng.uniform(-0.45, 0.45) * lat.omega1
                    + rng.uniform(-0.45, 0.45) * lat.omega2 for lat in row] for row in lats])
    arr = f(batch_of(lats), us)
    assert arr.shape == us.shape
    one = np.array([[f(lat, u) for lat, u in zip(*rows)] for rows in zip(lats, us.tolist())])
    assert np.all(np.abs(arr - one) <= 1e-14 * np.abs(one))


def test_array_with_a_lattice_point_names_it():
    lat = lattice_from_periods(1.0, 0.3 + 1j)
    us = np.array([0.2 + 0.1j, lat.omega1 + lat.omega2, 0.3j, -lat.omega2])
    for name in ("zeta", "wp", "wp_prime", "wp_n2", "wp_n3"):
        with pytest.raises(LatticePoleError, match=r"u=\(1\.3\+1j\)"):
            ARRAY_FUNCTIONS[name](lat, us)
    # in a batch, u is a pole only on its own lattice: 1.3+1j sits on the
    # second lattice, and on the third, where it is no lattice point, it passes
    lats = [lattice_from_periods(1.0, 1j), lat, lattice_from_periods(1.0, 0.2 + 1.5j)]
    batch = batch_of(lats)
    fine = np.array([0.2 + 0.1j, 0.3j, 1.3 + 1j])
    for name in ("zeta", "wp", "wp_prime", "wp_n2", "wp_n3"):
        ARRAY_FUNCTIONS[name](batch, fine)
        with pytest.raises(LatticePoleError, match=r"u=\(1\.3\+1j\)"):
            ARRAY_FUNCTIONS[name](batch, np.array([0.2 + 0.1j, 1.3 + 1j, 0.3j]))
