"""Curve geometry: periods, Abel map, branch-point derivative identities."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import elliptau.curve
from elliptau.checks import ring_derivative, run_checks
from elliptau.curve import (
    Arc,
    BranchConfig,
    Line,
    ORDER,
    _agm_basis,
    _cycle_integrals,
    _cycles,
    _period_data_batch,
    _lattice_coords,
    abel_values,
    abel_with_y,
    chords,
    dOmega_de,
    detoured_path,
    dlog_omega1_de,
    half_period_table,
    local_inverse_coeffs,
    path_integral,
    path_integrals,
    period_data,
    periods_of,
    quasiperiod_ratio_derivative,
    second_kind_periods,
    theta_constant_residuals,
    wp_alpha_relations,
    x_from_u,
)
from elliptau.elliptic import lattice_from_periods, wp
from elliptau.errors import ContourGeometryError, EllipTauError, QuadratureError
from elliptau.scenario import GOLDEN, SplitMix64, admissible_branches, random_admissible_scenario

# sqrt(2) * K(m = 1/2); mpmath, 40 digits.  The self-dual modulus makes the
# period ratio exactly i.
OMEGA1_GOLDEN = 2.62205755429211981046484

# e1 lies 8.3e-4 of the spread from the segment [e2, e3]
NEAR_COLLINEAR = (-0.444 - 0.178j, -0.522 + 0.710j, -0.355 - 1.170j)


def random_branch(rng):
    while True:
        es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
        gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) >= 0.3 * max(gaps) and max(gaps) >= 0.5:
            return BranchConfig(*es)


def test_branch_config_rejects_collisions():
    with pytest.raises(ContourGeometryError):
        BranchConfig(1.0, 1.0 + 1e-12j, -1.0)
    with pytest.raises(ContourGeometryError):  # a copy is checked as well
        BranchConfig(1.0, 0.5, -1.0)._replace(e2=1.0 + 1e-12j)


def test_gauss_rule_constants_are_leggauss_bit_for_bit():
    nodes, weights = leggauss(ORDER)
    assert np.array_equal(elliptau.curve.NODES, nodes)
    assert np.array_equal(elliptau.curve.WEIGHTS, weights)


def test_golden_periods_against_elliptic_integral():
    lat = period_data(BranchConfig(1.0, 0.0, -1.0))
    assert abs(lat.Omega - 1j) < 1e-10
    assert abs(lat.omega1 - OMEGA1_GOLDEN) < 1e-10
    assert abs(abs(lat.omega2) - OMEGA1_GOLDEN) < 1e-10


def _quadrature_period_data(branch):
    """The cycle-quadrature route: both stadium cycles at full accuracy on
    the sheet-1 frame, then the same orientation flip as period_data."""
    om1, om2 = _cycle_integrals([branch] * 2, _cycles(branch))
    return om1, -om2 if (om2 / om1).imag <= 0 else om2


# Stadium cycles keep Im(Omega) above about 0.3 for every branch shape with
# a relative gap >= 1e-3; "small Im" is e1 just outside e2 (Im Omega ~ 0.39).
@pytest.mark.parametrize("es", [
    (1.0, 0.0, -1.0),
    (1.0, 0.9, -1.0 + 0.01j),
    (0.3 + 0.2j, -0.8 + 0.5j, 0.1 - 0.9j),
    (1.01, 1.0, -1.0),
], ids=["golden", "skewed-near-real", "generic-complex", "small-im-omega"])
def test_agm_periods_match_cycle_quadrature(es):
    branch = BranchConfig(*es)
    lat = branch.lattice
    om1, om2 = _quadrature_period_data(branch)
    assert abs(lat.omega1 - om1) <= 1e-12 * abs(om1)
    assert abs(lat.omega2 - om2) <= 1e-12 * abs(om2)


def _scenario_branch(seed):
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    return s.branch


def _rounds_within_slack(lat, branch):
    b1, b2 = _agm_basis(branch)
    try:
        _lattice_coords(lat.omega1, b1, b2)
        _lattice_coords(lat.omega2, b1, b2)
    except QuadratureError:
        return False
    return True


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_charted_periods_match_cycle_integrals_on_the_inherited_frame(seed):
    # moves of 0.05 of the gap round the root's periods within the slack,
    # and land on the lattice vectors of the cycles integrated on the
    # frame at the root's anchor
    root = _scenario_branch(seed)
    rng = SplitMix64(47)
    for nu in (1, 2, 3):
        moved = root.moved(nu, 0.05 * root.min_gap * rng.unit_phase())
        assert moved.sheet_frame.anchor == moved.chart.sheet_frame.anchor
        assert _rounds_within_slack(moved.chart.lattice, moved)
        lat = moved.lattice
        om1, om2 = _quadrature_period_data(moved)
        assert abs(lat.omega1 - om1) <= 1e-12 * abs(om1)
        assert abs(lat.omega2 - om2) <= 1e-12 * abs(om2)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_chart_beyond_the_slack_falls_back_to_cycle_integrals(golden_branch, nu):
    moved = golden_branch.moved(nu, 0.3 * golden_branch.min_gap)
    assert not _rounds_within_slack(moved.chart.lattice, moved)
    lat = moved.lattice
    om1, om2 = _quadrature_period_data(moved)
    assert abs(lat.omega1 - om1) <= 1e-12 * abs(om1)
    assert abs(lat.omega2 - om2) <= 1e-12 * abs(om2)


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
@pytest.mark.parametrize("fraction", [0.05, 0.3])
def test_moved_configurations_keep_the_root_half_period_slots(seed, fraction):
    # wp matching on the charted periods, within the slack and beyond it,
    # gives each half period the branch point it had at the root
    root = _scenario_branch(seed)
    slots = half_period_table(root, root.lattice).perm
    for nu in (1, 2, 3):
        moved = root.moved(nu, fraction * root.min_gap * 1j ** nu)
        assert half_period_table(moved, moved.lattice).perm == slots


def test_verify_integrates_the_scenario_cycles_once(monkeypatch):
    # the checks read the scenario lattice from its params and moves carry the
    # root's chart, so however many configurations pass through the period
    # cache, golden's own two cycles are integrated once per verify
    for cached in (period_data, abel_with_y):
        cached.cache_clear()
    calls = []
    real = elliptau.curve._cycle_integrals

    def counted(branches, cycles, numerator=None):
        for branch, pieces in zip(branches, cycles):
            if branch.chart is None and numerator is None and branch.es == GOLDEN.branch.es:
                calls.append(pieces)
        return real(branches, cycles, numerator)

    monkeypatch.setattr(elliptau.curve, "_cycle_integrals", counted)
    assert run_checks(GOLDEN).overall == "pass"
    assert len(calls) == 2


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_many_point_abel_values_equal_one_at_a_time(seed):
    # one path_integrals pass for all points gives each point's u and y bit
    # for bit
    b = _scenario_branch(seed)
    rng = SplitMix64(0xAB + (seed or 0))
    xs = [b.centroid + 1.7 * b.scale * rng.complex_box() for _ in range(12)]
    alone = [abel_with_y.__wrapped__(b, x) for x in xs]
    assert abel_values(b, xs) == alone
    assert [abel_with_y(b, x) for x in xs] == alone


def test_a_failing_point_fails_its_abel_batch_with_its_own_error(golden_branch):
    # a point 1e-14 off e1 runs its path into the pole; the batch cuts the
    # paths in order, so it raises that point's own error
    bad = golden_branch.e1 + 1e-14j
    with pytest.raises(EllipTauError) as alone:
        abel_with_y(golden_branch, bad)
    with pytest.raises(type(alone.value)) as batched:
        abel_values(golden_branch, [0.4 + 0.3j, bad, -1.7 + 0.2j])
    assert str(batched.value) == str(alone.value)


def test_moved_of_moved_carries_the_root_chart(golden_branch):
    once = golden_branch.moved(1, 1e-3)
    twice = once.moved(2, 1e-3j)
    assert golden_branch.chart is None
    assert once.chart is golden_branch
    assert twice.chart is golden_branch
    assert golden_branch.moved(3, -1e-3).chart is golden_branch


def test_charted_and_fresh_configurations_share_no_cache_entry(golden_branch):
    # equal branch points on two charts are two keys of every cache
    calls = [
        (period_data, ()),
        (abel_with_y, (2.0,)),
    ]
    for k, (cached, args) in enumerate(calls, start=1):
        moved = golden_branch.moved(3, 1e-7j * k)
        fresh = BranchConfig(*moved.es)
        assert fresh.es == moved.es and fresh != moved
        misses = cached.cache_info().misses
        cached(moved, *args)
        cached(fresh, *args)
        assert cached.cache_info().misses == misses + 2


@pytest.mark.parametrize("es", [
    (1.0, 0.0, -1.0),
    (1.0, 0.9, -1.0 + 0.01j),
    (0.3 + 0.7j, -0.9 + 0.1j, 0.5 - 0.8j),
    (1.01, 1.0, -1.0),
    NEAR_COLLINEAR,
], ids=["golden", "skewed-near-real", "generic-complex", "small-im-omega",
        "near-collinear"])
def test_anchor_tail_integral_matches_mpmath(es):
    # u(anchor) = -integral of dx/y along the ray from the anchor to
    # infinity, away from the centroid c: with X = x - c,
    # y = 2 X^{3/2} prod sqrt(1 - e~/X) and the phase of X^{3/2} taken from
    # arg(anchor - c); mpmath at 30 digits
    branch = BranchConfig(*es)
    frame = branch.sheet_frame
    X = frame.anchor - branch.centroid
    with mpmath.workdps(30):
        d = mpmath.mpc(X) / abs(X)
        x32_phase = mpmath.exp(1.5j * mpmath.mpf(cmath.phase(X)))

        def integrand(r):
            g = 1
            for e in branch.tilde_es:
                g *= mpmath.sqrt(1 - mpmath.mpc(e) / (r * d))
            return d / (2 * r**1.5 * x32_phase * g)

        ref = complex(-mpmath.quad(integrand, [abs(X), mpmath.inf]))
    assert abs(frame.u_anchor - ref) <= 1e-14 * abs(ref)


def _scalar_continue(fsq, piece, s0, s1, y0, halvings, depth=0):
    """Reference: the scalar stepper, one recursive step from s0 to s1."""
    x1 = piece.x(s1)
    w = cmath.sqrt(fsq(x1))
    pick = w if abs(w - y0) <= abs(w + y0) else -w
    if abs(pick - y0) > 0.7 * max(abs(pick), abs(y0)):
        if depth >= 40:
            raise QuadratureError(f"branch continuation failed near x={x1}")
        halvings.append(s1)
        sm = 0.5 * (s0 + s1)
        ym = _scalar_continue(fsq, piece, s0, sm, y0, halvings, depth + 1)
        return _scalar_continue(fsq, piece, sm, s1, ym, halvings, depth + 1)
    return pick


@pytest.mark.parametrize("piece, samples", [
    (Line(0.5 - 1e-3j, 1.5 - 1e-3j), 64),  # 1e-3 below e1 = 1
    (Arc(1.0, 0.3, 0.2, 0.2 + 2 * math.pi), 4),  # once around e1
    (Arc(1.0, 0.3, 0.2, 0.2 + 1.5 * math.pi), 1),  # y turns 135 degrees
], ids=["line-near-e1", "arc-around-e1", "arc-one-step"])
def test_continue_matches_scalar_stepping(golden_branch, piece, samples):
    # the reference takes `samples` even steps and halves the ambiguous ones
    fsq = golden_branch.y_squared
    s = np.arange(1, samples + 1) / samples
    y_in = -cmath.sqrt(fsq(piece.x(0.0)))
    _, got = path_integral([piece], golden_branch, y_in)
    halvings, ref = [], y_in
    for s0, s1 in zip([0.0, *s[:-1]], s):
        ref = _scalar_continue(fsq, piece, s0, s1, ref, halvings)
    assert halvings  # some steps were ambiguous and got halved
    assert abs(got - ref) <= 1e-14 * abs(ref)


def _one_path_reference(pieces, branch, y_start, numerator=None):
    """The one-path rule on its own: y continued through the nodes of the
    path, then its end, from y_start."""
    x0, x1 = chords(pieces, branch.es)
    if x0.size == 0:
        return 0j, complex(y_start)
    nodes, weights = leggauss(ORDER)
    half = 0.5 * (x1 - x0)[:, None]
    x = x0[:, None] + half * (1.0 + nodes)
    w = np.sqrt(branch.y_squared(np.append(x, x1[-1])))
    prev = np.concatenate(([y_start], w[:-1]))
    y = np.cumprod(np.where(np.abs(w - prev) <= np.abs(w + prev), 1.0, -1.0)) * w
    f = half * weights / y[:-1].reshape(x.shape)
    if numerator is not None:
        f = f * numerator(x)
    return complex(np.sum(f)), complex(y[-1])


def test_path_integrals_equal_one_path_at_a_time(golden_branch):
    # approach paths, cycles, a -y start, a zero-length path and an empty one,
    # on two branches in one call, with and without a numerator per path
    generic = BranchConfig(0.3 + 0.7j, -0.9 + 0.1j, 0.5 - 0.8j)
    paths, branches, starts = [], [], []
    for b in (golden_branch, generic):
        frame = b.sheet_frame
        for x in (0.4 + 0.3j, -1.7 + 0.2j, b.es[0] + 1e-4):
            paths.append(detoured_path(frame.anchor, x, b.es, frame.clearance))
            branches.append(b)
            starts.append(frame.y_anchor)
        cycle = _cycles(b)[1]
        paths += [cycle, [], [Line(2.0 + 1j, 2.0 + 1j)]]
        branches += [b] * 3
        y0 = cmath.sqrt(b.y_squared(cycle[0].x(0.0)))
        starts += [-y0, y0, y0]
    shifts = np.array([b.e_sum / 3.0 + 0.1j * k for k, b in enumerate(branches)])
    for numerator in (None, lambda x, k: x - shifts[k]):
        got = path_integrals(paths, branches, starts, numerator)
        for k, (pieces, b, y0) in enumerate(zip(paths, branches, starts)):
            one = None if numerator is None else (lambda x, k=k: x - shifts[k])
            want = _one_path_reference(pieces, b, y0, one)
            for g, w in zip(got[k], want):
                assert abs(g - w) <= 1e-14 * max(abs(w), 1e-300), (k, g, w)
    assert got[-2] == (0j, starts[-2]) and got[-1] == (0j, starts[-1])


def test_a_failing_configuration_fails_alone():
    # (0, 1, -1): e1 sits on the segment [e2, e3], so no stadium separates it
    good = [BranchConfig(0.31 + 0.7j, -0.9 + 0.1j * k, 0.5 - 0.8j) for k in (1, 2)]
    bad = BranchConfig(0.0, 1.0, -1.0)
    with pytest.raises(EllipTauError) as alone:
        period_data(bad)
    want = [_period_data_batch([b])[0] for b in good]
    with pytest.raises(type(alone.value)) as batched:
        periods_of([good[0], bad, good[1]])
    assert str(batched.value) == str(alone.value)
    assert [period_data(b) for b in good] == want
    # a batch that succeeds: each configuration owns a lattice equal to its
    # own call's, and the batch makes no period_data miss
    others = [BranchConfig(0.32 + 0.7j, -0.9 + 0.1j * k, 0.5 - 0.8j) for k in (1, 2, 3)]
    misses = period_data.cache_info().misses
    lats = periods_of(others)
    assert period_data.cache_info().misses == misses
    assert [b.lattice for b in others] == lats
    assert lats == [_period_data_batch([b])[0] for b in others]


def test_periods_of_sets_each_lattice_and_fills_no_cache_entry(golden_branch):
    # a batch of fresh and moved configurations: each owns the lattice the
    # batch returned for it, no period_data entry is read or filled, and a
    # configuration whose lattice is set keeps it
    root = golden_branch.lattice  # the moves round their root's periods
    bs = [BranchConfig(0.33 + 0.7j, -0.9 + 0.1j * k, 0.5 - 0.8j) for k in (1, 2)]
    bs += [golden_branch.moved(nu, 0.01j * nu) for nu in (1, 2, 3)]
    info = period_data.cache_info()
    lats = periods_of(bs)
    assert period_data.cache_info() == info
    assert all(b.lattice is lat for b, lat in zip(bs, lats))
    assert periods_of([bs[0], golden_branch]) == [lats[0], root]
    assert bs[0].lattice is lats[0] and golden_branch.lattice is root


def test_continue_once_around_a_branch_point_flips_y(golden_branch):
    arc = Arc(1.0, 0.3, 0.2, 0.2 + 2 * math.pi)
    y_in = cmath.sqrt(golden_branch.y_squared(arc.x(0.0)))
    _, y_out = path_integral([arc], golden_branch, y_in)
    assert abs(y_out + y_in) <= 1e-14 * abs(y_in)


def test_continue_through_branch_point_names_x(golden_branch):
    line = Line(0.5 + 0j, 1.5 + 0j)  # s = 0.5 lands on e1 = 1
    with pytest.raises(QuadratureError) as info:
        path_integral([line], golden_branch, cmath.sqrt(golden_branch.y_squared(0.5)))
    found = re.search(r"reached a pole: step \S+ at x=(\S+)", str(info.value))
    assert abs(complex(found.group(1)) - 1.0) < 1e-3


def _edge_points(branch, rel):
    """Points at rel * spread from each branch point, from four directions."""
    return [e + rel * branch.scale * cmath.exp(1j * (0.3 + 0.5 * math.pi * k))
            for e in branch.es for k in range(4)]


@pytest.mark.parametrize("es", [(1.0, 0.0, -1.0), NEAR_COLLINEAR],
                         ids=["golden", "near-collinear"])
def test_abel_map_at_the_domain_edge(es):
    branch = BranchConfig(*es)
    lat = branch.lattice
    for rel in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for x in _edge_points(branch, rel):
            u, y = abel_with_y(branch, x)
            back = x_from_u(branch, lat, u)
            assert abs(back - x) <= 1e-12 * max(abs(x), branch.scale)
            assert abs(y * y - branch.y_squared(x)) <= 1e-12 * abs(branch.y_squared(x))


def test_chord_count_grows_like_log_of_the_distance(golden_branch):
    # a path that ends d from a branch point takes a bounded number of
    # chords per decade of d: the step rule grades geometrically
    frame = golden_branch.sheet_frame

    def most_chords(rel):
        return max(len(chords(detoured_path(frame.anchor, x, golden_branch.es,
                                            frame.clearance), golden_branch.es)[0])
                   for x in _edge_points(golden_branch, rel))

    counts = [most_chords(10.0 ** -k) for k in range(2, 7)]
    assert counts[-1] <= 60
    assert all(0 <= b - a <= 6 for a, b in zip(counts, counts[1:]))


def test_second_kind_period_near_collinear():
    branch = BranchConfig(*NEAR_COLLINEAR)
    eta1 = branch.lattice.eta1
    assert abs(second_kind_periods([branch])[0] - eta1) <= 1e-12 * max(1.0, abs(eta1))


def test_periods_scaling_and_translation():
    b = BranchConfig(1.0, 0.0, -1.0)
    lat = b.lattice
    lam = 1.3 - 0.4j
    lat_s = BranchConfig(*(lam * e for e in b.es)).lattice
    # dx/y has homogeneity degree -1/2; squares kill the root-branch sign
    assert abs((lat_s.omega1 / lat.omega1) ** 2 * lam - 1.0) < 1e-10
    c = 0.37 + 0.21j
    lat_t = BranchConfig(*(e + c for e in b.es)).lattice
    assert abs(lat_t.omega1 - lat.omega1) < 1e-10 * abs(lat.omega1)
    assert abs(lat_t.omega2 - lat.omega2) < 1e-10 * abs(lat.omega2)


def test_half_periods_hit_branch_values(golden_branch, golden_lattice):
    ht = half_period_table(golden_branch, golden_lattice)
    assert sorted(ht.perm) == [1, 2, 3]
    te = golden_branch.tilde_es
    for k in range(3):
        v = wp(golden_lattice, ht.omega_tilde[k])
        assert abs(v - te[ht.perm[k] - 1]) < 1e-9


def test_abel_base_point_is_infinity(golden_branch, golden_lattice):
    # x -> infinity along the anchor ray drives u -> 0
    u_far, _ = abel_with_y(golden_branch, 80.0 + 120.0j)
    assert abs(u_far) < 0.15
    u_farther, _ = abel_with_y(golden_branch, 800.0 + 1200.0j)
    assert abs(u_farther) < abs(u_far) / 2
    # at the anchor the path is empty
    frame = golden_branch.sheet_frame
    assert abel_with_y(golden_branch, frame.anchor) == (frame.u_anchor, frame.y_anchor)


def test_abel_roundtrip_random_points(golden_branch, golden_lattice):
    rng = SplitMix64(31)
    count = 0
    while count < 50:
        x = rng.complex_box(-2.5, 2.5)
        if min(abs(x - e) for e in golden_branch.es) < 0.1:
            continue
        if golden_branch.distance_to_cuts(x) < 1e-3:
            continue
        u, _ = abel_with_y(golden_branch, x)
        assert abs(x_from_u(golden_branch, golden_lattice, u) - x) < 1e-9
        count += 1


def test_wp_alpha_relations_golden(golden_branch, golden_lattice):
    rel = wp_alpha_relations(golden_branch, 2.0)
    assert abs(rel.wp - 2.0) < 1e-14
    assert abs(rel.wp_prime**2 - 24.0) < 1e-12
    assert abs(rel.wp_pp - 22.0) < 1e-12
    # transcendental cross-check through the Abel map
    alpha, _ = abel_with_y(golden_branch, 2.0)
    assert abs(wp(golden_lattice, alpha) - rel.wp) < 1e-9
    from elliptau.elliptic import zeta_jet
    assert abs(-zeta_jet(golden_lattice, alpha, 2)[2] - rel.wp_prime) < 1e-9


def test_local_inverse_coeffs_golden(golden_branch):
    c1, c2, c3 = local_inverse_coeffs(wp_alpha_relations(golden_branch, 2.0))
    # exact values by series reversion of x(u) at a=2: wp'= sqrt(24),
    # wp''=22, wp'''=4 sqrt(24)
    s24 = math.sqrt(24.0)
    assert abs(c1 - 1.0 / s24) < 1e-14
    assert abs(c2 - (-11.0 / 24.0**1.5)) < 1e-14
    assert abs(c3 - 146.0 / 24.0**2.5) < 1e-14


def test_local_inverse_matches_cauchy_derivatives(golden_branch):
    # Cauchy-integral derivatives of u(x) on a small circle around a = 2
    a = 2.0
    r, n = 0.3, 64
    moments = [0j, 0j, 0j]
    for j in range(n):
        w = r * cmath.exp(2j * math.pi * j / n)
        u, _ = abel_with_y(golden_branch, a + w)
        for k in range(3):
            moments[k] += u * w ** (-(k + 1))
    coeffs = [m / n for m in moments]
    c = local_inverse_coeffs(wp_alpha_relations(golden_branch, a))
    for k in range(3):
        assert abs(coeffs[k] - c[k]) < 1e-8


def test_series_inversion_composes_to_identity(golden_branch):
    rel = wp_alpha_relations(golden_branch, 0.7 + 1.1j)
    b1, b2, b3 = rel.wp_prime, rel.wp_pp / 2.0, rel.wp_ppp / 6.0
    c1, c2, c3 = local_inverse_coeffs(rel)
    assert abs(b1 * c1 - 1.0) < 1e-10
    assert abs(b1 * c2 + b2 * c1**2) < 1e-10
    assert abs(b1 * c3 + 2 * b2 * c1 * c2 + b3 * c1**3) < 1e-10


def test_alternative_inversion_coefficient_is_dimensionally_off(golden_branch,
                                                                golden_lattice):
    # the second-order coefficient must carry wp'^3 in the denominator; the
    # variant with wp''' there fails the composition identity at a generic
    # point (the two coincide exactly when wp'^2 = 12 wp, which the golden
    # point a=2 happens to satisfy)
    rel = wp_alpha_relations(golden_branch, 0.7 + 1.1j)
    b1, b2 = rel.wp_prime, rel.wp_pp / 2.0
    c1 = 1.0 / b1
    alt_c2 = -rel.wp_pp / (2.0 * rel.wp_ppp)
    assert abs(b1 * alt_c2 + b2 * c1**2) > 1e-2
    assert abs(rel.wp_prime**2 - 12.0 * rel.wp) > 1.0


def test_second_kind_period_legendre_pair(golden_branch, golden_lattice):
    eta1 = second_kind_periods([golden_branch])[0]
    assert abs(eta1 - golden_lattice.eta1) < 1e-10 * max(1.0, abs(eta1))


def test_inverse_map_laurent_behavior(golden_branch, golden_lattice):
    # x(u) = 1/u^2 + O(u^2) near the base point for the zero-sum golden curve
    for u in (0.02, 0.01):
        x = x_from_u(golden_branch, golden_lattice, u)
        assert abs(x * u * u - 1.0) < 2.0 * u**4 / u**2 + 1e-3


def test_local_inverse_alternative_gap(golden_branch, golden_lattice):
    # the variant c2 = -wp''/(2 wp''') is dimensionally inconsistent: it meets
    # the reversion coefficient exactly at the golden point (wp'^2 = 12 wp
    # there) and misses it generically
    def gap(a):
        rel = wp_alpha_relations(golden_branch, a)
        _, c2, _ = local_inverse_coeffs(rel)
        return abs(c2 + rel.wp_pp / (2.0 * rel.wp_ppp))

    assert gap(2.0) < 1e-14
    assert gap(0.7 + 1.1j) > 1e-3


def test_theta_constant_residuals_random():
    rng = SplitMix64(33)
    for _ in range(4):
        b = random_branch(rng)
        lat = b.lattice
        (r1,), (r2,) = theta_constant_residuals([b], lat)
        assert r1 < 1e-8
        assert r2 < 1e-8


def test_domega_de_closed_vs_fd():
    rng = SplitMix64(34)
    for _ in range(3):
        b = random_branch(rng)
        lat = b.lattice
        h = 1e-5 * b.scale
        for nu in (1, 2, 3):
            es_p = list(b.es); es_p[nu - 1] += h
            es_m = list(b.es); es_m[nu - 1] -= h
            fd = (BranchConfig(*es_p).lattice.Omega
                  - BranchConfig(*es_m).lattice.Omega) / (2 * h)
            cl = dOmega_de(b, lat, nu)
            assert abs(fd - cl) < 1e-6 * abs(cl)


def test_domega_de_golden_value(golden_branch, golden_lattice):
    cl = dOmega_de(golden_branch, golden_lattice, 1)
    expected = 1j * math.pi / (golden_lattice.omega1**2 * (1.0 - 0.0) * (1.0 + 1.0))
    assert abs(cl - expected) < 1e-14


def test_dlog_omega1_de_closed_vs_fd(golden_branch, golden_lattice):
    h = 2e-5
    for nu in (1, 2, 3):
        es_p = list(golden_branch.es); es_p[nu - 1] += h
        es_m = list(golden_branch.es); es_m[nu - 1] -= h
        fd = (cmath.log(BranchConfig(*es_p).lattice.omega1)
              - cmath.log(BranchConfig(*es_m).lattice.omega1)) / (2 * h)
        cl = dlog_omega1_de(golden_branch, golden_lattice, nu)
        assert abs(fd - cl) < 1e-6 * max(1.0, abs(cl))


def test_dlog_omega1_translation_and_scaling_sums(golden_branch, golden_lattice):
    vals = [dlog_omega1_de(golden_branch, golden_lattice, nu) for nu in (1, 2, 3)]
    assert abs(sum(vals)) < 1e-8
    euler = sum(e * v for e, v in zip(golden_branch.es, vals))
    assert abs(euler + 0.5) < 1e-7


def test_quasiperiod_ratio_derivative(golden_branch, golden_lattice):
    def residual(nu, t):
        # the ring derivative of eta1 t^2/(2 omega1) in e_nu vs the closed form
        b = golden_branch
        e = b.es[nu - 1]

        def ratio(zs):
            lats = [b.moved(nu, z - e).lattice for z in zs]
            return np.array([t * t * lat.eta1 / (2 * lat.omega1) for lat in lats])

        d, _ = ring_derivative(ratio, e, min(abs(e - o) for o in b.es if o != e))
        closed = quasiperiod_ratio_derivative(b, golden_lattice, nu, t)
        return abs(d - closed) / max(abs(d), abs(closed), abs(t * t) / 12.0)

    for nu in (1, 2, 3):
        assert residual(nu, 0.1) < 1e-6
    # both sides scale as t^2, so the relative residual is t-invariant
    assert abs(residual(1, 0.1) - residual(1, 0.2)) < 1e-6


def test_closed_forms_on_a_batch_branch(golden_branch):
    # dOmega/de_nu, dlog omega1/de_nu and d/de_nu (eta1 t^2/(2 omega1)) on
    # a configuration of arrays and its batch lattice, one call per nu, equal
    # the calls on each configuration and its own lattice
    branches = [golden_branch, *admissible_branches(SplitMix64(61), 4)]
    lats = periods_of(branches)
    batch = BranchConfig(*np.array([b.es for b in branches]).T)
    lat = lattice_from_periods(np.array([l.omega1 for l in lats]),
                               np.array([l.omega2 for l in lats]))
    forms = (dOmega_de, dlog_omega1_de,
             lambda b, lat, nu: quasiperiod_ratio_derivative(b, lat, nu, 0.1 + 0.05j))
    for nu in (1, 2, 3):
        for form in forms:
            values = form(batch, lat, nu)
            assert values.shape == (len(branches),)
            for value, b, one_lat in zip(values, branches, lats):
                one = form(b, one_lat, nu)
                assert abs(value - one) <= 1e-14 * abs(one), (nu, form)


def test_branch_closed_forms_obey_the_translation_and_euler_sums(golden_branch):
    # each value is translation invariant, so its d/de_nu sum to zero, and
    # homogeneous, so sum e_nu d/de_nu is its degree times the value
    t = 0.1 + 0.05j
    for b in [golden_branch, *admissible_branches(SplitMix64(61), 4)]:
        lat = b.lattice
        for value, form, degree in (
                (lat.Omega, dOmega_de, 0.0),
                (lat.omega1, lambda b, lat, nu: lat.omega1 * dlog_omega1_de(b, lat, nu), -0.5),
                (t * t * lat.eta1 / (2 * lat.omega1),
                 lambda b, lat, nu: quasiperiod_ratio_derivative(b, lat, nu, t), 1.0)):
            ds = [form(b, lat, nu) for nu in (1, 2, 3)]
            terms = [e * d for e, d in zip(b.es, ds)]
            assert abs(sum(ds)) <= 1e-13 * max(map(abs, ds))
            assert abs(sum(terms) - degree * value) <= 1e-13 * max(*map(abs, terms), abs(value))


def test_cold_golden_verify_builds_each_sheet_frame_once(monkeypatch):
    # the drawn branches and neighbours keep the configuration objects whose
    # periods periods_of computed, so each (es, chart) builds its frame once
    # (35 builds for 22 configurations when they were built again)
    for fn in vars(elliptau.curve).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    frame, builds = elliptau.curve.SheetFrame, []

    def counted(branch, *args):
        builds.append((tuple(np.asarray(e).tobytes() for e in branch.es), branch.chart))
        return frame(branch, *args)

    monkeypatch.setattr(elliptau.curve, "SheetFrame", counted)
    assert run_checks(GOLDEN).overall == "pass"
    assert len(builds) == len(set(builds)) >= 22
