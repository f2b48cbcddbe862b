"""Monodromy of dY/dx = A(x) Y by adaptive continuation along loops.

Loops are keyholes from a base point above the singular points: a detoured
descent to a circle of safe clearance, one full counterclockwise turn, and
the same way back.  The loop around infinity is one clockwise turn of a
circle enclosing everything.  Matrices are reported in the basis of the
constructed solution at the base point: M = Y(x0)^{-1} * (Y continued).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from .curve import Arc, Line, _cycle_pieces, abel_with_y, detoured_path, path_integral
from .errors import QuadratureError
from .isomono import coefficients, normalize_Y

# DOP853 tolerances of every continuation of the system
RTOL = 1e-10
ATOL = 1e-12


def base_point(branch):
    """Centroid raised by twice the branch scale."""
    return branch.centroid + 2j * branch.scale


def singularities(params):
    return list(params.branch.es) + [params.a]


def loop_pieces(params, which):
    """Keyhole loop for a finite branch point (1, 2, 3) or 'inf'."""
    sing = singularities(params)
    x0 = base_point(params.branch)
    if which == "inf":
        c = params.branch.centroid
        R = 2.5 * max(max(abs(s - c) for s in sing), params.branch.scale)
        R = max(R, 1.25 * abs(x0 - c))
        ent = c + R * (x0 - c) / abs(x0 - c)
        th = cmath.phase(ent - c)
        out = [*detoured_path(x0, ent, sing, _clearance(params)),
               Arc(c, R, th, th - 2 * math.pi)]
        out += _reverse(detoured_path(x0, ent, sing, _clearance(params)))
        return out
    e = params.branch.es[which - 1]
    others = [s for s in sing if s != e]
    r = 0.2 * min(abs(e - s) for s in others)
    ent = e + r * (x0 - e) / abs(x0 - e)
    th = cmath.phase(ent - e)
    descent = detoured_path(x0, ent, others, _clearance(params))
    return [*descent, Arc(e, r, th, th + 2 * math.pi), *_reverse(descent)]


def _clearance(params):
    sing = singularities(params)
    gap = min(abs(sing[i] - sing[j])
              for i in range(len(sing)) for j in range(i + 1, len(sing)))
    return 0.2 * gap


def _reverse(pieces):
    out = []
    for piece in reversed(pieces):
        if isinstance(piece, Line):
            out.append(Line(piece.b, piece.a))
        else:
            out.append(Arc(piece.center, piece.radius, piece.th1, piece.th0))
    return out


def _connected_cycle(params, pair, excluded):
    """Cycle stadium around a branch-point pair, based at the base point."""
    pieces = _cycle_pieces(params.branch, pair, excluded)
    x0 = base_point(params.branch)
    start = pieces[0].x(0.0)
    connector = detoured_path(x0, start, singularities(params),
                              _clearance(params))
    return [*connector, *pieces, *_reverse(connector)]


def calibrate_loops(params):
    """Pin each loop's homotopy class to the standard half-period frame.

    The Abel-side journey of a loop around one branch point is a reflection
    u -> 2 w_eff - u; w_eff is a lattice translate of the half period over
    that point, and which translate depends on how the descent sits relative
    to the cuts.  Conjugating the loop by a cycle loop shifts w_eff by that
    cycle's period, so each loop is conjugated until w_eff lands exactly on
    the table representative (0 for the loop at infinity).  Returns
    (pieces_by_loop, offsets_by_loop); the offsets record the applied
    correction as lattice coordinates.
    """
    p = params
    lat = p.lat
    x0 = base_point(p.branch)
    u0, y0 = abel_with_y(p.branch, x0)

    def journey(pieces):
        du, _ = path_integral(pieces, p.branch.y_squared, y0)
        return du

    e1, e2, e3 = p.branch.es
    cyc = {
        "gamma": _connected_cycle(p, (e2, e3), e1),
        "delta": _connected_cycle(p, (e1, e2), e3),
    }
    basis = {}
    for name, pieces in cyc.items():
        r, m, n = lat.reduce(journey(pieces))
        if abs(r) > 1e-8 * lat.unit() or (abs(m) + abs(n)) != 1:
            raise QuadratureError(f"cycle loop journey is not a basis period: {(m, n)}")
        if m != 0:
            basis[0] = (name, m)
        else:
            basis[1] = (name, n)
    if sorted(basis) != [0, 1]:
        raise QuadratureError("cycle loops do not span the period lattice")

    loops, offsets = {}, {}
    for which in (1, 2, 3, "inf"):
        naive = loop_pieces(p, which)
        w_eff = u0 + 0.5 * journey(naive)
        if which == "inf":
            target = 0j
        else:
            target = p.half_periods.omega_tilde[p.half_periods.slot_of_branch(which)]
        r, m, n = lat.reduce(w_eff - target)
        if abs(r) > 1e-8 * lat.unit():
            raise QuadratureError(
                f"loop {which}: reflection point {w_eff} is not a lattice "
                f"translate of {target}"
            )
        offsets[which] = (m, n)
        if (m, n) == (0, 0):
            loops[which] = naive
            continue
        if abs(m) > 3 or abs(n) > 3:
            raise QuadratureError(f"loop {which}: offset {(m, n)} too large")
        conj = []
        for idx, count in ((0, m), (1, n)):
            name, sign = basis[idx]
            need = -count * sign  # forward copies so the journey cancels the offset
            path = cyc[name] if need > 0 else _reverse(cyc[name])
            conj.extend(path * abs(need))
        loops[which] = [*conj, *naive, *_reverse(conj)]
    return loops, offsets


def continue_solution(coeffs, pieces, Y0):
    """Integrate the system along the pieces starting from matrix Y0."""
    y = np.asarray(Y0, dtype=complex).reshape(4)

    for piece in pieces:
        def rhs(s, v):
            x = piece.x(s)
            dx = piece.dx(s)
            return (dx * (coeffs.A_of(x) @ v.reshape(2, 2))).reshape(4)

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853",
                        rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise QuadratureError(f"ODE continuation failed: {sol.message}")
        y = sol.y[:, -1]
    return y.reshape(2, 2)


def monodromy_matrices(params, loops=(1, 2, 3, "inf"), sol=None, coeffs=None):
    """Numerical monodromy M = Y(x0)^{-1} W of each loop, W being Y(x0)
    continued around the calibrated loop.  sol and coeffs are built from
    params unless given.  Returns ({loop: M}, offsets of calibrate_loops).
    """
    if sol is None:
        sol = normalize_Y(params)
    if coeffs is None:
        coeffs = coefficients(params, phi=sol.phi, sol=sol)
    Y0 = sol.y_at(base_point(params.branch))
    pieces, offsets = calibrate_loops(params)
    Y0_inv = np.linalg.inv(Y0)
    return ({which: Y0_inv @ continue_solution(coeffs, pieces[which], Y0)
             for which in loops}, offsets)


def trivial_loop_identity(params, coeffs):
    """Continuation along a contractible loop away from all singular points."""
    sing = singularities(params)
    c = params.branch.centroid
    R = 4.0 * max(max(abs(s - c) for s in sing), params.branch.scale)
    center = c + R
    r = 0.1 * R
    pieces = [Arc(center, r, 0.0, 2 * math.pi)]
    W = continue_solution(coeffs, pieces, np.eye(2, dtype=complex))
    return float(np.max(np.abs(W - np.eye(2))))


def stokes_ray_directions(params):
    """Directions where Re(wp'(alpha) t / (x - a)) changes sign on |x-a| = r."""
    c = params.wp_a.wp_prime * params.t
    th = cmath.phase(c)
    return th - math.pi / 2, th + math.pi / 2


def sector_connection_residuals(params, sol, coeffs):
    """Continue Y across both rays bounding the growth sectors at x = a.

    Starting from the constructed Y at one sector center and integrating the
    half turn to the opposite center, the mismatch against the constructed Y
    there is the sectorial connection defect; trivial Stokes data means both
    residuals vanish to integrator accuracy.  The half turns run at a fifth
    of the distance from a to the nearest branch point.
    """
    p = params
    radius = 0.2 * min(abs(p.a - e) for e in p.branch.es)
    th0 = cmath.phase(p.wp_a.wp_prime * p.t)
    out = []
    for j in (0, 1):
        a0 = th0 + j * math.pi
        a1 = a0 + math.pi
        x_start = p.a + radius * cmath.exp(1j * a0)
        x_end = p.a + radius * cmath.exp(1j * a1)
        Y_start = sol.hatted(x_start) @ sol.exp_T_a(x_start)
        W = continue_solution(coeffs, [Arc(p.a, radius, a0, a1)], Y_start)
        Y_end = sol.hatted(x_end) @ sol.exp_T_a(x_end)
        S = np.linalg.inv(Y_end) @ W
        out.append(float(np.max(np.abs(S - np.eye(2)))))
    return out
