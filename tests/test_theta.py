"""Theta series against independent high-precision oracles."""

import cmath
import math

import pytest

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
    assert err.value.z == 0.8j
    assert err.value.Omega == 0.0035j
    assert err.value.max_terms == MAX_TERMS == 200


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        theta_dz(HALF_HALF, 0.0, 1j, 6)
