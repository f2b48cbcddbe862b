"""Taylor continuation of dY/dx = A(x) Y against the DOP853 oracle.

`monodromy.continue_solution` sums Taylor series chord by chord.  The route
it replaced, scipy's DOP853 at rtol 1e-10 / atol 1e-12 on each piece, stays
here as the independent check.
"""

import cmath
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from elliptau import monodromy
from elliptau.checks import run_checks
from elliptau.curve import RHO, Arc, Line
from elliptau.errors import QuadratureError
from elliptau.isomono import make_params, theoretical_monodromy
from elliptau.monodromy import (
    base_point,
    calibrate_loops,
    continue_solution,
    monodromy_matrices,
    singularities,
)
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario


def dop853(coeffs, pieces, Y0):
    y = np.asarray(Y0, dtype=complex).reshape(4)
    for piece in pieces:
        def rhs(s, v, piece=piece):
            return (piece.dx(s) * (coeffs.A_of(piece.x(s)) @ v.reshape(2, 2))).reshape(4)

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=1e-10, atol=1e-12)
        assert sol.success, sol.message
        y = sol.y[:, -1]
    return y.reshape(2, 2)


def assert_matches_oracle(coeffs, pieces, Y0, tol=1e-9):
    W = continue_solution(coeffs, pieces, Y0)
    ref = dop853(coeffs, pieces, Y0)
    assert np.max(np.abs(W - ref)) <= tol * np.max(np.abs(ref))
    return W


def constructed_Y(sol, x):
    return sol.hatted(x) @ sol.exp_T_a(x)


@pytest.mark.parametrize("which", [1, 2, 3, "inf"])
def test_golden_loops_match_dop853(golden_ctx, which):
    ctx = golden_ctx
    loops, _ = calibrate_loops(ctx.params)
    Y0 = ctx.sol.y_at(base_point(ctx.params.branch))
    assert_matches_oracle(ctx.coeffs, loops[which], Y0)


def test_stokes_half_turns_match_dop853(golden_ctx):
    # the two half turns of sector_connection_residuals
    p, sol = golden_ctx.params, golden_ctx.sol
    radius = 0.2 * min(abs(p.a - e) for e in p.branch.es)
    th0 = cmath.phase(p.wp_a.wp_prime * p.t)
    for j in (0, 1):
        a0 = th0 + j * math.pi
        start = p.a + radius * cmath.exp(1j * a0)
        assert_matches_oracle(golden_ctx.coeffs, [Arc(p.a, radius, a0, a0 + math.pi)],
                              constructed_Y(sol, start))


def test_trivial_loop_matches_dop853(golden_ctx):
    # the contractible loop of trivial_loop_identity
    p = golden_ctx.params
    c = p.branch.centroid
    R = 4.0 * max(max(abs(s - c) for s in singularities(p)), p.branch.scale)
    W = assert_matches_oracle(golden_ctx.coeffs, [Arc(c + R, 0.1 * R, 0.0, 2 * math.pi)],
                              np.eye(2))
    assert np.max(np.abs(W - np.eye(2))) < 1e-13


def test_close_circle_around_a(golden_ctx):
    # At 0.05 of dist(a, e) the KAPPA bound on the step, not RHO, is the
    # binding one.  Y is single valued around a, so a full turn returns the
    # constructed solution.
    p, sol, coeffs = golden_ctx.params, golden_ctx.sol, golden_ctx.coeffs
    r = 0.05 * min(abs(p.a - e) for e in p.branch.es)
    b = np.max(np.abs(coeffs.B_minus1))
    assert monodromy.KAPPA * r * r / b < monodromy.RHO * r
    th = 0.3
    start = p.a + r * cmath.exp(1j * th)
    Y_start = constructed_Y(sol, start)
    W = assert_matches_oracle(coeffs, [Arc(p.a, r, th, th + 2 * math.pi)], Y_start)
    assert np.max(np.abs(np.linalg.solve(Y_start, W) - np.eye(2))) < 1e-12


def test_an_unsettled_chord_raises_naming_x_and_h(golden_ctx, monkeypatch):
    # A chord of 0.9 of the distance to the nearest pole converges too
    # slowly for the term cap.  Cut as one chord, its line raises through
    # continue_solution, naming the chord's start and step.
    coeffs = golden_ctx.coeffs
    x0 = 2.0 + 1.0j
    x1 = x0 - 0.9j * min(abs(x0 - s) for s in singularities(golden_ctx.params))
    _, ok = monodromy._taylor_sums(coeffs, np.array([x0]), np.array([x1]))
    assert not ok[0]
    monkeypatch.setattr(monodromy, "_cut_piece",
                        lambda piece, poles, bound, floor: ([piece.a], [piece.b]))
    with pytest.raises(QuadratureError, match=r"did not converge at x=\(2\+1j\) "
                                              rf"with step h={re.escape(str(x1 - x0))}$"):
        continue_solution(coeffs, [Line(x0, x1)], np.eye(2))


def test_series_that_never_settles_raises(golden_ctx):
    coeffs = golden_ctx.coeffs._replace(B0=np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(QuadratureError, match=r"did not converge at x=.* with step h="):
        continue_solution(coeffs, [Line(3.0 + 1.0j, 3.0 - 1.0j)], np.eye(2))


def test_an_unsettled_chord_raises_at_once(golden_ctx, monkeypatch):
    calls = []

    def never_settles(coeffs, x0, x1):
        calls.append(len(x0))
        return np.zeros((len(x0), 2, 2), dtype=complex), np.zeros(len(x0), dtype=bool)

    monkeypatch.setattr(monodromy, "_taylor_sums", never_settles)
    with pytest.raises(QuadratureError, match=r"did not converge at x=\(3\+1j\)"):
        continue_solution(golden_ctx.coeffs, [Line(3.0 + 1.0j, 3.0 + 1.1j)], np.eye(2))
    assert len(calls) == 1


def test_path_into_a_pole_raises(golden_ctx):
    e1 = golden_ctx.params.branch.es[0]
    with pytest.raises(QuadratureError, match=r"reached a pole: step .* at x="):
        continue_solution(golden_ctx.coeffs, [Line(e1 + 1.0j, e1)], np.eye(2))


def test_draw_10_of_seed_1_matches_theory():
    # DOP853 missed loop 3 of this draw by 2.3e-5: the path passes 0.1 from
    # a, where Y grows so that its condition number reaches 4e9
    rng = SplitMix64(1)
    for _ in range(10):
        s = random_admissible_scenario(rng, seed=1)
    params = make_params(s.branch, s.a, s.t, s.p, s.q)
    mats, _ = monodromy_matrices(params)
    theory = theoretical_monodromy(params)
    for which in (1, 2, 3, "inf"):
        assert np.max(np.abs(mats[which] - theory.M[which])) < 1e-6


def taylor_sums_by_order(coeffs, x0, x1):
    # the recurrence of _taylor_sums with each order's sum taken term by term
    # over the ten (pole, column) products and the settlement tested on every
    # order: the reference for the one-product form
    eps = np.finfo(float).eps
    h = x1 - x0
    d = x0 - np.array([coeffs.a, *coeffs.es])[:, None]
    q = h / d
    C = np.stack([coeffs.B0, coeffs.A[1], coeffs.A[2], coeffs.A[3], coeffs.B_minus1])
    f = np.concatenate([q, (h / d[0] ** 2)[None]])
    M = (C.transpose(1, 0, 2)[..., None] * f[:, None]).reshape(2, 10, 1, len(h))
    W = np.zeros((5, 2, 2, len(h)), dtype=complex)
    Wjk = W.reshape(10, 2, len(h))
    y = np.zeros((2, 2, len(h)), dtype=complex)
    y[0, 0] = y[1, 1] = 1.0
    S = y.copy()
    small = ok = np.zeros(len(h), dtype=bool)
    for order in range(1, int(2 * math.log(eps) / math.log(RHO)) + 1):
        W[:4] = y - q[:, None, None] * W[:4]
        W[4] = W[0] - q[0] * W[4]
        y = (M * Wjk).sum(axis=1) / order
        S += y
        tiny = np.abs(y.reshape(4, -1)).max(axis=0) <= eps * np.abs(S.reshape(4, -1)).max(axis=0)
        ok = ok | (small & tiny)
        small = tiny
        if ok.all():
            break
    return np.moveaxis(S, -1, 0), ok


def test_taylor_sums_match_the_sum_by_order(golden_ctx, monkeypatch):
    # every pass of a cold golden verify (seven) and the near-a circle of
    # test_close_circle_around_a: the same settled chords, and sums within
    # 1e-14 of the reference, chord by chord
    taylor, passes = monodromy._taylor_sums, []

    def recorded(coeffs, x0, x1):
        passes.append((coeffs, x0, x1))
        return taylor(coeffs, x0, x1)

    monkeypatch.setattr(monodromy, "_taylor_sums", recorded)
    assert run_checks(GOLDEN).overall == "pass"
    assert len(passes) == 7
    p, coeffs = golden_ctx.params, golden_ctx.coeffs
    r = 0.05 * min(abs(p.a - e) for e in p.branch.es)
    continue_solution(coeffs, [Arc(p.a, r, 0.3, 0.3 + 2 * math.pi)], np.eye(2))
    assert len(passes) == 8
    for coeffs, x0, x1 in passes:
        T, ok = taylor(coeffs, x0, x1)
        T_ref, ok_ref = taylor_sums_by_order(coeffs, x0, x1)
        assert ok.all() and (ok == ok_ref).all()
        assert (np.max(np.abs(T - T_ref), axis=(1, 2))
                <= 1e-14 * np.max(np.abs(T_ref), axis=(1, 2))).all()
