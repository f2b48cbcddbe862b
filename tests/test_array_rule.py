"""Every public function of z or u in the elliptic module takes arrays.

The rule of the module docstring: a number takes the cached scalar path and
an array goes to one kernel call, with a result of the array's shape.  The
walk below finds the functions by their parameters, so a function added
later that handles only numbers fails here.
"""

import inspect

import numpy as np

from elliptau import elliptic

LATTICE = elliptic.lattice_from_periods(1.0 + 0.1j, 0.2 + 1.1j)
POINTS = np.array([0.21 + 0.13j, -0.3 + 0.4j, 0.37 - 0.05j])
# the value of every other parameter such a function may have
ARGUMENTS = {"lat": LATTICE, "char": elliptic.ThetaChar(0.3, 0.2),
             "Omega": LATTICE.Omega, "order": 2}


def _functions_of_z_or_u():
    for name, fn in vars(elliptic).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != elliptic.__name__):
            continue
        params = list(inspect.signature(fn).parameters)
        if {"z", "u"} & set(params):
            yield name, fn, params


def test_the_walk_finds_the_theta_and_weierstrass_functions():
    names = {name for name, _, _ in _functions_of_z_or_u()}
    assert {"theta", "theta_dz", "theta_dOmega", "sigma_char", "sigma",
            "sigma_char_dlog", "sigma_char_du", "sigma_du", "zeta", "wp",
            "wp_prime", "wp_n"} <= names


def test_a_shape_3_array_gives_a_shape_3_result():
    for name, fn, params in _functions_of_z_or_u():
        args = [POINTS if p in ("z", "u") else ARGUMENTS[p] for p in params]
        out = fn(*args)
        assert isinstance(out, np.ndarray) and out.shape == (3,), name
