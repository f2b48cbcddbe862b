"""The one derivative rule: Cauchy rings sized by the local geometry."""

import cmath

import numpy as np
import pytest

import elliptau.checks
from elliptau.checks import RING_FRACTION, RING_POINTS, ring_derivative, run_checks
from elliptau.elliptic import theta
from elliptau.errors import DegenerateParameterError
from elliptau.isomono import make_params
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario

DERIVATIVE_CHECKS = [
    "domega_de", "dlog_omega1_de", "quasiperiod_ratio_derivative", "ode_residual",
    "deformation_equation", "dlogtau_dt", "dlogtau_de", "omega_closedness",
    "shifted_tau_dlog", "shifted_tau_cross_family",
]


def _scenario(seed):
    return GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))


def _ring_calls(monkeypatch, scenario, check):
    """(center, distance) of every ring a check takes, in order."""
    calls = []
    real = elliptau.checks.ring_derivative

    def recording(f, centers, distances, log=False):
        calls.extend(zip(np.ravel(centers).tolist(), np.ravel(distances).tolist()))
        return real(f, centers, distances, log)

    monkeypatch.setattr(elliptau.checks, "ring_derivative", recording)
    assert run_checks(scenario, checks=[check]).overall == "pass"
    return calls


def test_ring_derivative_and_its_sub_ring():
    # exp is entire: the 4-point ring is exact to rounding, and the sub-ring
    # is the central difference of step equal to the radius
    c, distance = 0.3 + 0.2j, 1.0
    nodes = []

    def f(z):
        nodes.append(z)
        return np.exp(z)

    d, d_sub = ring_derivative(f, c, distance)
    r = RING_FRACTION * distance
    assert np.abs(nodes[0] - c) == pytest.approx([r] * RING_POINTS, rel=1e-12)
    assert abs(d - cmath.exp(c)) < 1e-12
    central = (cmath.exp(c + r) - cmath.exp(c - r)) / (2 * r)
    assert abs(d_sub - central) < 1e-12
    assert abs(d_sub - cmath.exp(c)) > 1e-8  # errs by r^2/6 relative
    # an array of centres: one call of f on all their nodes, each ring as alone
    cs, ds = np.array([c, c + 0.5, c - 0.2j]), np.array([distance, 0.5, 2.0])
    nodes.clear()
    rings = ring_derivative(f, cs, ds)
    assert len(nodes) == 1 and nodes[0].shape == (3, RING_POINTS)
    for k in range(3):
        alone = ring_derivative(np.exp, cs[k], ds[k])
        assert all(np.array_equal(x[k], y) for x, y in zip(rings, alone))


def test_log_ring_folds_across_the_principal_cut():
    # log z on a ring around -1 crosses the cut, and 3 log z - 2.2i z / r
    # gains 0.55 pi in Im between opposite nodes (more than pi/8 from the
    # centre): with the jumps folded out, both derivatives are exact
    c, r = -1.0 + 0j, RING_FRACTION
    d, _ = ring_derivative(np.log, c, 1.0, log=True)
    assert abs(d - 1.0 / c) < 1e-12
    d, _ = ring_derivative(lambda z: 3 * np.log(z) - 2.2j * z / r, c, 1.0, log=True)
    assert abs(d - (3 / c - 2.2j / r)) < 1e-9 * abs(2.2 / r)


@pytest.mark.parametrize("seed", [None, 3])
def test_t_radius_is_the_distance_to_the_theta_zero(seed, monkeypatch):
    s = _scenario(seed)
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    lat = p.lat
    t0 = (0.5 - s.q) * lat.omega1 + (0.5 - s.p) * lat.omega2
    assert abs(theta(p.char, t0 / lat.omega1, lat.Omega)) < 1e-14
    with pytest.raises(DegenerateParameterError):
        make_params(s.branch, s.a, t0, s.p, s.q)
    nearest = min(abs(s.t - t0 - m * lat.omega1 - n * lat.omega2)
                  for m in range(-3, 4) for n in range(-3, 4))
    center, distance = _ring_calls(monkeypatch, s, "dlogtau_dt")[0]  # the scenario point
    assert center == s.t
    assert distance == pytest.approx(nearest, rel=1e-12)


@pytest.mark.parametrize("seed", [None, 3])
def test_e_radius_is_the_distance_to_the_other_singular_points(seed, monkeypatch):
    s = _scenario(seed)
    es = s.branch.es
    gaps = [min(abs(e - o) for o in es if o != e) for e in es]
    # the period rings of the scenario's branch, then the log tau rings of its point
    assert _ring_calls(monkeypatch, s, "domega_de")[:3] == list(zip(es, gaps))
    expected = [(e, min(g, abs(e - s.a))) for e, g in zip(es, gaps)]
    assert _ring_calls(monkeypatch, s, "dlogtau_de")[:3] == expected


@pytest.mark.parametrize("seed", [None, 3])
def test_x_radius_is_the_distance_to_singular_points_and_cuts(seed, monkeypatch):
    s = _scenario(seed)
    b = s.branch
    # the cuts, sampled: the segment [e2, e3] and the ray out of e1
    e1, e2, e3 = b.es
    w = np.linspace(0.0, 1.0, 200001)
    cut = np.concatenate([e2 + w * (e3 - e2),
                          e1 + 6.0 * b.scale * w * b.infinite_cut_direction()])
    calls = _ring_calls(monkeypatch, s, "ode_residual")
    assert len(calls) == 8
    for x, distance in calls:
        expected = min(min(abs(x - z) for z in b.es + (s.a,)), float(np.min(np.abs(x - cut))))
        assert distance == pytest.approx(expected, rel=1e-6)


def test_log_tau_rings_pass_where_a_branch_difference_sits_on_the_cut():
    # mirrored golden: e1 - e2 = -1 lies on the principal cut of log, so the
    # (e1 - e2)^(-1/8) of log tau jumps on a complex ring around e1 or e2
    s = GOLDEN._replace(e=(-1 + 0j, 0j, 1 + 0j), a=-2 + 0j)
    rep = run_checks(s, checks=["dlogtau_de", "omega_closedness", "dlog_omega1_de"])
    assert [r.status for r in rep.results] == ["pass"] * 3, rep.results


def test_log_tau_t_ring_where_the_hamiltonian_is_steep():
    # a = 1.0001 puts |H_t| near 500, so log tau moves by 0.43 in Im from the
    # centre to a node of the t-ring, beyond the pi/8 that a fold about the
    # centre value can tell from a jump
    rep = run_checks(GOLDEN._replace(a=1.0001 + 0j), checks=["dlogtau_dt", "dlogtau_de"])
    assert [r.status for r in rep.results] == ["pass"] * 2, rep.results


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_derivative_checks_keep_their_headroom(seed):
    # the smallest headroom of these checks was 1.96 with hand-picked steps
    rep = run_checks(_scenario(seed), checks=DERIVATIVE_CHECKS)
    for r in rep.results:
        assert r.status == "pass" and r.headroom >= 4.0, (r.name, r.residual)
