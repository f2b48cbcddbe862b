"""Every public function of z or u in the elliptic module takes arrays.

The rule of the module docstring: a number takes the cached scalar path and
an array goes to one kernel call, with a result of the array's shape (a
jet, named *_jet, gives a tuple of such results, one per derivative); a
batch lattice (periods that are arrays), a batch Omega and a characteristic
of arrays give one lattice, Omega or characteristic per point.  The walk
below finds the functions by their parameters, so a function added later
that handles only numbers fails here.
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
            "sigma_jet", "zeta", "wp", "zeta_jet"} <= names


def _rows(name, out):
    """A function's result as a tuple of rows: a jet's derivatives, or the one value."""
    return out if name.endswith("_jet") else (out,)


def test_a_shape_3_array_gives_a_shape_3_result():
    for name, fn, params in _functions_of_z_or_u():
        args = [POINTS if p in ("z", "u") else ARGUMENTS[p] for p in params]
        rows = _rows(name, fn(*args))
        assert rows and all(isinstance(r, np.ndarray) and r.shape == (3,) for r in rows), name


# one lattice per point: Im(Omega) = 0.25 needs more rings than 1.8
BATCH = [elliptic.lattice_from_periods(w1, w1 * Om)
         for w1, Om in ((1.0 + 0.1j, 0.1 + 0.25j), (0.7 - 0.4j, -0.3 + 1.8j),
                        (1.2j, 0.2 + 0.25j))]
BATCH_ARGUMENTS = {
    "lat": elliptic.lattice_from_periods(np.array([lat.omega1 for lat in BATCH]),
                                         np.array([lat.omega2 for lat in BATCH])),
    "char": elliptic.ThetaChar(np.array([0.3, 0.7, 0.15]), np.array([0.2, 0.9, 0.6])),
    "Omega": np.array([lat.Omega for lat in BATCH]), "order": 2}


def _point(k, value):
    """The k-th lattice, characteristic or Omega of a batch argument."""
    if isinstance(value, elliptic.Lattice):
        return BATCH[k]
    if isinstance(value, elliptic.ThetaChar):
        return elliptic.ThetaChar(value.p[k], value.q[k])
    return value[k] if isinstance(value, np.ndarray) else value


def test_a_batch_equals_its_points_one_by_one(monkeypatch):
    ring_bounds = []
    rings = elliptic._rings

    def spy(p, done, K, *rest):
        ring_bounds.append(K)
        return rings(p, done, K, *rest)

    for name, fn, params in _functions_of_z_or_u():
        args = [POINTS if p in ("z", "u") else BATCH_ARGUMENTS[p] for p in params]
        monkeypatch.setattr(elliptic, "_rings", spy)
        out = np.array(_rows(name, fn(*args)))
        monkeypatch.undo()
        one = np.array([_rows(name, fn(*[_point(k, a) for a in args]))
                        for k in range(len(POINTS))]).T
        assert out.shape[1:] == POINTS.shape, name
        assert np.all(np.abs(out - one) <= 1e-14 * np.abs(one)), name
    assert max(ring_bounds) > 8
