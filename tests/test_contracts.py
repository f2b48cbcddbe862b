"""Cross-cutting contracts: determinism, purity, convention coherence."""

import concurrent.futures

import numpy as np

from elliptau.checks import run_checks
from elliptau.elliptic import (
    HALF_HALF,
    lattice_from_periods,
    sigma,
    sigma_char,
    theta,
    wp,
)
from elliptau.scenario import GOLDEN


def test_reports_deterministic_given_seed():
    names = ["legendre", "wp_ode", "quasi_periodicity"]
    r1 = run_checks(GOLDEN, checks=names)
    r2 = run_checks(GOLDEN, checks=names)
    assert [c.residual for c in r1.results] == [c.residual for c in r2.results]
    assert [c.status for c in r1.results] == [c.status for c in r2.results]


def test_seed_changes_draws_not_verdicts():
    from dataclasses import replace
    names = ["wp_ode"]
    r1 = run_checks(GOLDEN, checks=names)
    r2 = run_checks(replace(GOLDEN, seed=GOLDEN.seed + 1), checks=names)
    assert r1.results[0].residual != r2.results[0].residual
    assert r1.results[0].status == r2.results[0].status == "pass"


def test_half_half_characteristic_is_plain_sigma():
    lat = lattice_from_periods(1.1 + 0.1j, 0.2 + 0.9j)
    for u in (0.3, 0.21 - 0.4j, -0.17 + 0.33j):
        assert sigma_char(lat, HALF_HALF, u) == sigma(lat, u)


def test_concurrent_evaluation_is_consistent():
    # pure value-type operations: concurrent calls agree with serial ones
    lat = lattice_from_periods(1.0, 0.3 + 1.1j)
    us = [0.11 + 0.07j * k for k in range(1, 33)]
    serial = [wp(lat, u) for u in us]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda u: wp(lat, u), us))
    assert np.allclose(serial, parallel, rtol=0, atol=0)
    vals = [theta(HALF_HALF, 0.2 + 0.1j, 1j) for _ in range(4)]
    assert len(set(vals)) == 1
