"""Numerical monodromy continuation against the closed-form data."""

import math
import warnings

import numpy as np
import pytest

from elliptau.checks import CheckContext, run_checks
from elliptau.curve import Line
from elliptau.errors import QuadratureError
from elliptau.isomono import make_params
from elliptau.monodromy import (
    _reverse,
    base_point,
    calibrate_loops,
    continue_solution,
    monodromy_matrices,
    sector_connection_residuals,
    trivial_loop_identity,
)
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario


@pytest.fixture(scope="module")
def mono(golden_ctx):
    nums, offsets = golden_ctx.numerical_monodromy
    return golden_ctx, nums, offsets


def test_monodromy_matches_closed_forms(mono):
    ctx, nums, _ = mono
    md = ctx.theory
    for which in (1, 2, 3, "inf"):
        assert np.max(np.abs(nums[which] - md.M[which])) < 1e-6


def test_cyclic_relation(mono):
    _, nums, _ = mono
    prod = nums[3] @ nums[2] @ nums[1] @ nums["inf"]
    assert np.max(np.abs(prod - np.eye(2))) < 1e-6


def test_loop_frame_offsets_recorded(mono):
    _, _, offsets = mono
    assert set(offsets) == {1, 2, 3, "inf"}
    for v in offsets.values():
        assert isinstance(v, tuple) and len(v) == 2


def test_trivial_loop_gives_identity(mono):
    ctx, _, _ = mono
    assert trivial_loop_identity(ctx.params) < 1e-9


def test_monodromy_eigenvalues_quarter_exponents(mono):
    # each loop matrix is similar to diag(e^{-pi i/2}, e^{pi i/2})
    _, nums, _ = mono
    for which in (1, 2, 3, "inf"):
        ev = sorted(np.linalg.eigvals(nums[which]), key=lambda z: z.imag)
        assert abs(ev[0] + 1j) < 1e-6
        assert abs(ev[1] - 1j) < 1e-6


def test_stokes_rays_and_triviality(mono):
    ctx, _, _ = mono
    res = sector_connection_residuals(ctx.params)
    assert len(res) == 2
    assert max(res) < 1e-6


def test_overflowing_stokes_half_turn_is_a_failure_note():
    # at a = 1+1e-5i the half turns' mismatch at x = a overflows float64, and
    # at a = 1+3e-6i their continuation already does: the check fails with a
    # note, and no numpy warning reaches the caller
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_checks(GOLDEN._replace(a=1 + 1e-5j))
        closer = run_checks(GOLDEN._replace(a=1 + 3e-6j), checks=["stokes_triviality"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    stokes = [r for r in report.results + closer.results if r.name == "stokes_triviality"]
    assert len(stokes) == 2
    for r in stokes:
        assert r.status == "fail" and r.residual == math.inf and "overflowed" in r.notes


def test_monodromy_invariant_under_deformation(golden_ctx):
    # one representative direction here; the full four-direction drift is a
    # scenario check and part of the acceptance gate
    nums, _ = golden_ctx.numerical_monodromy
    moved, _ = monodromy_matrices(golden_ctx.params.moved(0, 1e-3), (1, "inf"))
    for which in (1, "inf"):
        assert np.max(np.abs(moved[which] - nums[which])) < 1e-6


@pytest.mark.parametrize("edge", [{"a": 1 + 1e-5j}, {"a": 1.0001 + 0j}, {"t": 10.0 + 0j}])
def test_every_chord_settles_at_the_domain_edge(edge):
    # the loops and the Stokes half turns where the step rule cuts the most
    # chords (a verify at a = 1+1e-5i cuts 4,868) or Y grows fastest: every
    # chord of RHO and the KAPPA bound settles within the term cap, so
    # neither continuation raises QuadratureError
    s = GOLDEN._replace(**edge)
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    with np.errstate(over="ignore", invalid="ignore"):
        mats, _ = monodromy_matrices(p)
        residuals = sector_connection_residuals(p)
    assert list(mats) == [1, 2, 3, "inf"] and len(residuals) == 2


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_batch_monodromy_equals_each_entry_alone(seed):
    # the invariance family, t, e1, e2 and e3 moved by 1e-3 as one batch
    # point: each entry's matrices are those of its move as a point of its
    # own (alpha from its own Abel map), with Y at the root's base point
    # continued along the root's loops, to 1e-12 relative
    s = GOLDEN if seed is None else random_admissible_scenario(SplitMix64(seed))
    p = make_params(s.branch, s.a, s.t, s.p, s.q)
    family, _ = monodromy_matrices(p.moved(np.arange(4), 1e-3))
    loops, _ = calibrate_loops(p)
    x0 = base_point(p.branch)
    for nu in range(4):
        q = p.moved(nu, 1e-3)
        Y0 = q.sol.y_at(x0)
        for which, M in family.items():
            assert M.shape == (4, 2, 2)
            ref = np.linalg.inv(Y0) @ continue_solution(q.coeffs, loops[which], Y0)
            assert np.max(np.abs(M[nu] - ref)) <= 1e-12 * np.max(np.abs(ref)), (nu, which)


def test_invariance_holds_next_to_a_branch_point():
    # at a = 1.0001, 1e-4 from e1, moves of 1e-3 would carry e1 past a and
    # across the base point's loops (a drift of 2.8e6); the moves are a
    # tenth of the loops' clearance, 2e-6
    r, = run_checks(GOLDEN._replace(a=1.0001), checks=["monodromy_invariance"]).results
    assert r.status == "pass" and "2e-06 moves" in r.notes


def test_overflowing_family_reads_inf_with_a_note():
    # at a = 1e-5i, 1e-5 from e2, Y overflows on the loop around e2, for the
    # base point (its M_2 is nan) as for the family: each check that reads a
    # continued M fails with residual inf and a note, and neither continuation
    # lets a numpy warning out
    s = GOLDEN._replace(a=1e-5j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nums, _ = CheckContext(s).numerical_monodromy
        report = run_checks(s, checks=["monodromy"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.isnan(nums[2]).any()
    results = {r.name: r for r in report.results}
    for name in ("monodromy_match", "cyclic_relation", "monodromy_invariance"):
        r = results[name]
        assert (r.status, r.residual) == ("fail", math.inf), name
        assert r.notes.endswith("; Y overflowed"), name


def test_base_point_above_all_singularities(golden_branch):
    x0 = base_point(golden_branch)
    assert x0.imag >= 2.0 * max(abs(e.imag) for e in golden_branch.es) + 1.0


def test_reverse_piece_continues_by_the_inverse_transfer(golden_ctx):
    # _continue_paths takes a piece met after its reverse by inverse chord
    # transfers; continuing along the reversed piece itself, with its own
    # chords, stays the check
    coeffs, eye = golden_ctx.coeffs, np.eye(2, dtype=complex)
    loops, _ = calibrate_loops(golden_ctx.params)
    pieces = list(dict.fromkeys(piece for loop in loops.values() for piece in loop))
    assert len(pieces) >= 10
    for piece in pieces:
        inverse = np.linalg.inv(continue_solution(coeffs, [piece], eye))
        back = continue_solution(coeffs, _reverse([piece]), eye)
        assert np.max(np.abs(back - inverse)) <= 1e-12 * np.max(np.abs(inverse))


def test_a_piece_cut_once_keeps_the_floor_of_its_path(golden_ctx):
    # a step below 1e-12 of the path length means the path runs into a pole;
    # a piece that many loop pieces repeat is cut once, still under the floor
    # of the whole path: its smallest step, about 4e-11 of its own length,
    # passes alone and raises on a path of 1,001 copies
    b, coeffs, eye = golden_ctx.branch, golden_ctx.coeffs, np.eye(2, dtype=complex)
    e1 = b.es[0]
    out = 0.5 * b.min_gap * (e1 - b.centroid) / abs(e1 - b.centroid)
    piece = Line(e1 + out, e1 + 1e-10 * out)
    assert np.all(np.isfinite(continue_solution(coeffs, [piece], eye)))
    with pytest.raises(QuadratureError, match="reached a pole"):
        continue_solution(coeffs, [piece, *_reverse([piece])] * 500 + [piece], eye)
