"""Theta series against independent high-precision oracles."""

import cmath
import math

import numpy as np
import pytest

import elliptau.elliptic
from elliptau.curve import BranchConfig
from elliptau.elliptic import (
    HALF_HALF,
    MAX_TERMS,
    ThetaChar,
    theta,
    theta_dOmega,
    theta_dz,
)
from elliptau.errors import LatticeOrientationError, ThetaConvergenceError

# sum_n exp(-pi n^2) = pi^(1/4)/Gamma(3/4); mpmath, 40 digits
THETA00_AT_0_I = 1.086434811213308014575316
# -pi * jtheta(1, 0, exp(-pi), 1); mpmath, 40 digits
THETA11P_AT_0_I = -2.848694603987787316079985
# direct 50-digit summation, char (0.3, 0.2), z = 0.17-0.4j, Omega = 0.3+0.8j
THETA_03_02 = complex(1.18542291962337535038525, 0.774817347368691802577044)


def test_odd_char_vanishes_at_origin():
    assert abs(theta(HALF_HALF, 0.0, 1j)) < 1e-15


def test_even_series_symmetry():
    ch = ThetaChar(0.0, 0.0)
    for z in (0.3, 0.1 + 0.4j, -0.7 + 0.2j):
        assert abs(theta(ch, -z, 1j) - theta(ch, z, 1j)) < 1e-14


def test_null_value_square_lattice():
    v = theta(ThetaChar(0.0, 0.0), 0.0, 1j)
    assert abs(v - THETA00_AT_0_I) < 1e-14


def test_first_derivative_odd_char():
    v = theta_dz(HALF_HALF, 0.0, 1j, 1)
    assert abs(v - THETA11P_AT_0_I) < 1e-12 * abs(THETA11P_AT_0_I)


def test_second_derivative_odd_char_vanishes():
    assert abs(theta_dz(HALF_HALF, 0.0, 1j, 2)) < 1e-13


def test_general_char_value():
    v = theta(ThetaChar(0.3, 0.2), 0.17 - 0.4j, 0.3 + 0.8j)
    assert abs(v - THETA_03_02) < 1e-13 * abs(THETA_03_02)


def test_against_mpmath_jtheta():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for z, Om in [(0.3 + 0.1j, 1j), (0.17 - 0.4j, 0.3 + 0.8j), (-0.6, 0.1 + 0.6j)]:
        q = cmath.exp(1j * math.pi * Om)
        ours = theta(HALF_HALF, z, Om)
        ref = -complex(mp.jtheta(1, mp.pi * complex(z), complex(q)))
        assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))
        ours = theta_dz(HALF_HALF, z, Om, 1)
        ref = -math.pi * complex(mp.jtheta(1, mp.pi * complex(z), complex(q), 1))
        assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))


def test_heat_equation():
    ch = ThetaChar(0.3, 0.2)
    for z, Om in [(0.2 + 0.3j, 0.5 + 1.2j), (0.1, 1j), (-0.4 + 0.1j, -0.2 + 0.4j)]:
        lhs = theta_dz(ch, z, Om, 2)
        rhs = 4j * math.pi * theta_dOmega(ch, z, Om)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_dOmega_matches_finite_difference():
    ch = ThetaChar(0.0, 0.0)
    z, Om = 0.21 + 0.05j, 0.2 + 0.9j
    h = 1e-6
    fd = (theta(ch, z, Om + h) - theta(ch, z, Om - h)) / (2 * h)
    assert abs(theta_dOmega(ch, z, Om) - fd) < 1e-6 * abs(fd)


def test_odd_char_null_dOmega_vanishes():
    assert abs(theta_dOmega(HALF_HALF, 0.0, 1j)) < 1e-14


def test_lower_half_plane_rejected():
    with pytest.raises(LatticeOrientationError):
        theta(ThetaChar(0.0, 0.0), 0.0, -1j)


def test_term_budget_exhaustion_carries_arguments():
    # at Omega = 0.0035i the terms exp(pi i Omega n^2 + 2 pi i n z) of
    # theta00(0.8i) peak near n = -229, beyond the fixed budget of 200 rings
    with pytest.raises(ThetaConvergenceError) as err:
        theta(ThetaChar(0, 0), 0.8j, 0.0035j)
    assert str(err.value) == ("theta series did not converge within 200 terms "
                              "at z=0.8j, Omega=0.0035j")
    assert MAX_TERMS == 200


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        theta_dz(HALF_HALF, 0.0, 1j, 6)


def _direct_sum(char, z, Omega, order, rings=80):
    """Reference: the series term by term over |n| <= rings, order-th z-derivative."""
    terms = []
    for n in range(-rings, rings + 1):
        m = n + char.p
        terms.append((2j * math.pi * m) ** order * cmath.exp(
            1j * math.pi * Omega * m * m + 2j * math.pi * m * (z + char.q)))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


@pytest.mark.parametrize("Omega, zs", [
    # |Im z| up to 7 at Omega = i: the terms peak near ring 7
    (1j, np.linspace(-0.5, 0.5, 9) + 1j * np.linspace(-7.0, 7.0, 9)),
    # Im Omega at the admissible floor 0.05: slow Gaussian decay
    (0.3 + 0.05j, np.linspace(-0.5, 0.5, 7) + 0.3j * np.linspace(-1.0, 1.0, 7)),
    # the lattice of the nearly degenerate branch (1.01, 1, -1)
    (None, np.linspace(-0.5, 0.5, 7) + 1j * np.linspace(-1.5, 1.5, 7)),
])
def test_array_kernel_matches_size_one(monkeypatch, Omega, zs):
    if Omega is None:
        Omega = BranchConfig(1.01, 1.0, -1.0).lattice.Omega
    ring_bounds = []
    real = elliptau.elliptic._rings

    def spy(p, done, K, *rest):
        ring_bounds.append(K)
        return real(p, done, K, *rest)

    ch = ThetaChar(0.3, 0.2)
    monkeypatch.setattr(elliptau.elliptic, "_rings", spy)
    arrays = [theta(ch, zs, Omega), theta_dz(ch, zs, Omega, 1),
              theta_dz(ch, zs, Omega, 5), theta_dOmega(ch, zs, Omega)]
    monkeypatch.undo()
    assert max(ring_bounds) > 8
    singles = [[theta(ch, z, Omega) for z in zs.tolist()],
               [theta_dz(ch, z, Omega, 1) for z in zs.tolist()],
               [theta_dz(ch, z, Omega, 5) for z in zs.tolist()],
               [theta_dOmega(ch, z, Omega) for z in zs.tolist()]]
    for arr, one in zip(arrays, singles):
        assert arr.shape == zs.shape
        one = np.array(one)
        assert np.all(np.abs(arr - one) <= 1e-14 * np.abs(one))
    # exponents reach ~150 at |Im z| = 7, and exp turns their rounding into
    # ~150 ulp of relative error in either summation
    for arr, order in zip(arrays[:3], (0, 1, 5)):
        ref = np.array([_direct_sum(ch, z, Omega, order) for z in zs.tolist()])
        assert np.all(np.abs(arr - ref) <= 2e-13 * np.abs(ref))


def test_a_first_block_too_short_is_doubled(monkeypatch):
    # the first block is sized for the powers m^k of the z-rows, not for the
    # m^2 weight of the Omega-row: at Omega = i and small Im z it holds 4
    # rings a side, the Omega-row's edge fails the test, and the guard sums
    # the rings to 8; the heat equation theta_Omega = theta_zz/(4 pi i)
    # gives the reference
    reads = []
    real = elliptau.elliptic._rings

    def spy(p, done, K, *rest):
        reads.append((done, K))
        return real(p, done, K, *rest)

    ch, Omega = ThetaChar(0.3, 0.2), 1j
    zs = np.array([0.1 + 0.1j, -0.2 + 0.2j])
    monkeypatch.setattr(elliptau.elliptic, "_rings", spy)
    values = theta_dOmega(ch, zs, Omega)
    monkeypatch.undo()
    assert reads == [(-1, 4), (4, 8)]
    ref = np.array([_direct_sum(ch, z, Omega, 2) / (4j * math.pi) for z in zs.tolist()])
    assert np.all(np.abs(values - ref) <= 2e-13 * np.abs(ref))


def test_the_edge_test_is_relative_to_the_scale(monkeypatch):
    # at Omega = i and Im z = 7 the terms peak near ring -7 at about e^154;
    # the edge rings +-16 are e^-238 of that peak, so the second block ends
    # the sum (an edge test against SERIES_TOL / scale would need a third)
    reads = []
    real = elliptau.elliptic._rings

    def spy(p, done, K, *rest):
        reads.append((done, K))
        return real(p, done, K, *rest)

    monkeypatch.setattr(elliptau.elliptic, "_rings", spy)
    theta(ThetaChar(0.3, 0.2), np.array([0.1 + 7j]), 1j)
    assert reads == [(-1, 8), (8, 16)]


def test_a_point_is_bit_for_bit_its_size_one_call(monkeypatch):
    # every point adds its rings in one order in a call of any size, so its
    # value is that of its size-1 call: the first point settles at K = 8,
    # and the rings to 16 that the last (|Im z| = 2) needs lie far below
    # the last bit of its sum
    real = elliptau.elliptic._rings

    def max_ring(f):
        bounds = []

        def spy(p, done, K, *rest):
            bounds.append(K)
            return real(p, done, K, *rest)

        monkeypatch.setattr(elliptau.elliptic, "_rings", spy)
        value = f()
        monkeypatch.undo()
        return value, max(bounds)

    ch = ThetaChar(0.3, 0.2)
    zs = np.array([0.1 + 0.05j, -0.3 + 0.1j, 0.2 - 2.0j])
    for Omega in (0.2 + 0.25j, np.array([0.2 + 0.9j, 0.1 + 1.8j, 0.2 + 0.25j])):
        Oms = np.broadcast_to(Omega, zs.shape).tolist()
        elliptau.elliptic._theta_jet.cache_clear()
        _, K_first = max_ring(lambda: theta(ch, complex(zs[0]), Oms[0]))
        _, K_call = max_ring(lambda: theta(ch, zs, Omega))
        assert K_first < K_call
        for f in (lambda z, Om: theta(ch, z, Om), lambda z, Om: theta_dz(ch, z, Om, 3),
                  lambda z, Om: theta_dOmega(ch, z, Om)):
            assert f(zs, Omega).tolist() == [f(z, Om) for z, Om in zip(zs.tolist(), Oms)]


def test_array_kernel_keeps_the_shape_of_z():
    zs = np.array([[0.1, 0.2 + 0.1j], [-0.3j, 0.4]])
    assert theta(HALF_HALF, zs, 1j).shape == (2, 2)
    assert theta(HALF_HALF, np.zeros(0), 1j).shape == (0,)
    assert isinstance(theta(HALF_HALF, 0.1, 1j), complex)
