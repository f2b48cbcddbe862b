"""Monodromy of dY/dx = A(x) Y by Taylor-series continuation along loops.

A(x) is rational with poles at a and the e_nu only, so Y has a convergent
Taylor series in every disc that avoids them.  continue_solution cuts a path
into chords by curve's step rule |h| <= RHO * dist(x, {a, e_nu}), bounded
also by |h| <= KAPPA * |x - a|^2 / max|B_{-1}| (which keeps the growth of
one step near the irregular point bounded), and sums each chord's series
from a recurrence over the pole terms; a chord whose series has not settled
within a term cap raises.

Loops are keyholes from a base point above the singular points: a detoured
descent to a circle of safe clearance, one full counterclockwise turn, and
the same way back.  The loop around infinity is one clockwise turn of a
circle enclosing everything.  Matrices are reported in the basis of the
constructed solution at the base point: M = Y(x0)^{-1} * (Y continued).
"""

import cmath
import math

import numpy as np

from .curve import (
    RHO,
    Arc,
    Line,
    _cut_piece,
    _cycles,
    _path_floor,
    abel_with_y,
    detoured_path,
    path_integrals,
)
from .errors import QuadratureError

KAPPA = 1.0  # step bound near the irregular point: |h| <= KAPPA |x - a|^2 / max|B_{-1}|


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
        descent = detoured_path(x0, ent, sing, _clearance(params))
        return [*descent, Arc(c, R, th, th - 2 * math.pi), *_reverse(descent)]
    e = params.branch.es[which - 1]
    others = [s for s in sing if s != e]
    r = 0.2 * min(abs(e - s) for s in others)
    ent = e + r * (x0 - e) / abs(x0 - e)
    th = cmath.phase(ent - e)
    descent = detoured_path(x0, ent, others, _clearance(params))
    return [*descent, Arc(e, r, th, th + 2 * math.pi), *_reverse(descent)]


def _clearance(params):
    """0.2 of the smallest gap between the singular points e_nu and a."""
    b = params.branch
    return 0.2 * min(b.min_gap, *(abs(e - params.a) for e in b.es))


def _reverse(pieces):
    return [Line(p.b, p.a) if isinstance(p, Line) else Arc(p.center, p.radius, p.th1, p.th0)
            for p in reversed(pieces)]


def _connected_cycle(params, pieces):
    """A cycle stadium of the curve, based at the base point."""
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
    cyc = dict(zip(("gamma", "delta"), (_connected_cycle(p, c) for c in _cycles(p.branch))))
    naive = {which: loop_pieces(p, which) for which in (1, 2, 3, "inf")}
    # the Abel-side journeys of the six loops, in one pass
    journey = dict(zip([*cyc, *naive], (du for du, _ in path_integrals(
        [*cyc.values(), *naive.values()], [p.branch] * 6, [y0] * 6))))
    basis = {}
    for name in cyc:
        r, m, n = lat.reduce(journey[name])
        if abs(r) > 1e-8 * lat.unit() or (abs(m) + abs(n)) != 1:
            raise QuadratureError(f"cycle loop journey is not a basis period: {(m, n)}")
        basis[0 if m else 1] = (name, m or n)
    if sorted(basis) != [0, 1]:
        raise QuadratureError("cycle loops do not span the period lattice")

    loops, offsets = {}, {}
    for which in (1, 2, 3, "inf"):
        w_eff = u0 + 0.5 * journey[which]
        hpt = p.half_periods
        target = 0j if which == "inf" else hpt.omega_tilde[hpt.slot_of_branch(which)]
        r, m, n = lat.reduce(w_eff - target)
        if abs(r) > 1e-8 * lat.unit():
            raise QuadratureError(
                f"loop {which}: reflection point {w_eff} is not a lattice "
                f"translate of {target}"
            )
        offsets[which] = (m, n)
        if abs(m) > 3 or abs(n) > 3:
            raise QuadratureError(f"loop {which}: offset {(m, n)} too large")
        conj = []
        for idx, count in ((0, m), (1, n)):
            name, sign = basis[idx]
            need = -count * sign  # forward copies so the journey cancels the offset
            path = cyc[name] if need > 0 else _reverse(cyc[name])
            conj.extend(path * abs(need))
        loops[which] = [*conj, *naive[which], *_reverse(conj)]
    return loops, offsets


def continue_solution(coeffs, pieces, Y0):
    """Continue the matrix solution Y0 along the pieces: _continue_paths of one path."""
    return _continue_paths(coeffs, [pieces], [Y0])[0]


def _continue_paths(coeffs, paths, Y0s):
    """Each Y0s[k] continued along paths[k] by Taylor steps.

    Each distinct piece is cut once by the rule of curve.chords, around
    {a, e_nu} under the KAPPA bound and with the floor of the longest path
    through it, and _taylor_sums sums all the chords in one array pass; the
    first chord that has not settled raises.  A piece met after its reverse
    (loops return along their descents, conjugating cycles come back
    reversed) runs back through the reverse's chords by their inverse
    transfers.  The paths take their chords in step, one stacked product per
    step.
    """
    b = float(np.max(np.abs(coeffs.B_minus1)))
    bound = (lambda x: KAPPA * abs(x - coeffs.a) ** 2 / b) if b > 0 else None
    which, distinct, floors = {}, [], []  # which: piece -> (distinct piece's index, backwards?)
    for pieces in paths:
        floor = _path_floor(pieces)
        for piece in pieces:
            if piece not in which:
                back = which.get(_reverse([piece])[0])
                which[piece] = (back[0], not back[1]) if back else (len(distinct), False)
                if not back:
                    distinct.append(piece)
                    floors.append(floor)
            k = which[piece][0]
            floors[k] = max(floors[k], floor)
    if not distinct:
        return [np.array(Y0, dtype=complex) for Y0 in Y0s]
    cuts = [_cut_piece(piece, (coeffs.a, *coeffs.es), bound, floor)
            for piece, floor in zip(distinct, floors)]
    x0, x1 = (np.array([x for xs in ends for x in xs], dtype=complex) for ends in zip(*cuts))
    T, ok = _taylor_sums(coeffs, x0, x1)
    if not ok.all():
        k = ok.argmin()  # the first unsettled chord
        raise QuadratureError(
            f"Taylor series did not converge at x={x0[k]} with step h={x1[k] - x0[k]}")
    n, ends = len(T), np.cumsum([len(x0) for x0, _ in cuts]).tolist()

    def rows(piece):  # its chords as rows of [T, T^-1, 1], backwards by the inverses
        k, backwards = which[piece]
        span = range(ends[k] - len(cuts[k][0]), ends[k])
        return [n + i for i in reversed(span)] if backwards else span
    seqs = [[i for piece in pieces for i in rows(piece)] for pieces in paths]
    steps = np.full((max(map(len, seqs)), len(paths)), 2 * n)  # a path at its end takes 1
    for k, seq in enumerate(seqs):
        steps[:len(seq), k] = seq
    Y = np.array(Y0s, dtype=complex)
    for Tk in np.concatenate([T, np.linalg.inv(T), np.eye(2)[None]])[steps]:
        Y = Tk @ Y  # every path one chord on
    return list(Y)


def _taylor_sums(coeffs, x0, x1):
    """Sum the Taylor series of the identity continued along each chord.

    With x = x0 + h s, d_j = x0 - s_j and q_j = h / d_j for the simple poles
    C_j / (x - s_j) (B_0 at a, A_nu at e_nu), the coefficients y_n of Y(s)
    obey (n+1) y_{n+1} = sum_j q_j C_j W_{j,n} + (h / d_a^2) B_{-1} V_n,
    where W_j = Y / (1 + q_j s) and V = W_a / (1 + q_a s), so that
    W_{j,n} = y_n - q_j W_{j,n-1} and V_n = y_n - q_a (W_{a,n-1} + V_{n-1}).
    Each order is one product of the pole matrices side by side, (2, 10),
    which every chord shares, with the (10, 2n) stack of W_a, W_1, W_2, W_3, V
    scaled by their chords' factors.  A chord has settled once two
    consecutive terms are below machine epsilon times the partial sum,
    tested on the orders 4k - 1 and 4k; the term cap is twice the count at
    which RHO^n reaches epsilon.  Returns the sums at s = 1 and the settled
    mask.
    """
    eps = np.finfo(float).eps
    n, cap = len(x0), int(2 * math.log(eps) / math.log(RHO))
    h = x1 - x0
    d = x0 - np.array([coeffs.a, *coeffs.es])[:, None]
    q = h / d
    # the pole matrices side by side, (2, 10), divided by each order 1 .. cap
    C = np.concatenate([coeffs.B0, coeffs.A[1], coeffs.A[2], coeffs.A[3], coeffs.B_minus1],
                       axis=1) / np.arange(1.0, cap + 1)[:, None, None]
    f = np.concatenate([q, (h / d[0] ** 2)[None]])[:, None, None]
    mq = -np.concatenate([q, q[:1]])[:, None, None]
    W = np.zeros((5, 2, 2, n), dtype=complex)  # W_a, W_1, W_2, W_3, V; chords last
    fW = np.empty_like(W)
    rhs = fW.reshape(10, 2 * n)
    yS = np.zeros((2, 2, 2 * n), dtype=complex)  # the order's term y and the sum S
    y, S = yS[0].reshape(2, 2, n), yS[1].reshape(2, 2, n)
    y[0, 0] = y[1, 1] = S[0, 0] = S[1, 1] = 1.0
    small = ok = np.zeros(n, dtype=bool)
    for order in range(1, cap + 1):
        W[4] += W[0]
        W *= mq
        W += y
        np.multiply(W, f, out=fW)
        np.matmul(C[order - 1], rhs, out=yS[0])
        S += y
        if order % 4 in (0, 3):
            size = np.maximum.reduce(np.abs(yS).reshape(2, 4, n), axis=1)
            tiny = size[0] <= eps * size[1]
            if order % 4:
                small = tiny
            else:
                ok = ok | (small & tiny)
                if np.logical_and.reduce(ok):
                    break
    return np.moveaxis(S, -1, 0), ok


def monodromy_matrices(params, loops=(1, 2, 3, "inf")):
    """Numerical monodromy M = Y(x0)^{-1} W of each loop, W being Y(x0)
    continued around the point's calibrated loop by its Y and coefficients;
    on a batch point each entry along its root's loops from the root's base
    point, with its own chords and Taylor pass (each M a stack, batch shape
    + (2, 2)).  Returns ({loop: M}, offsets of calibrate_loops).
    """
    root, co = params.root or params, params.coeffs
    pieces, offsets = params.calibrated_loops
    paths = [pieces[which] for which in loops]
    Y0 = params.sol.y_at(base_point(root.branch))
    shape, Ms = Y0.shape[:-2], []
    for k, Y in enumerate(Y0.reshape(-1, 2, 2)):
        # entry k's poles, as Python numbers, and their matrices
        mats = [np.reshape(m, (-1, 2, 2))[k] for m in (co.B_minus1, co.B0, *co.A.values())]
        entry = co._replace(es=tuple(complex(np.broadcast_to(e, shape).flat[k]) for e in co.es),
                            B_minus1=mats[0], B0=mats[1], A=dict(zip(co.A, mats[2:])))
        Y_inv = np.linalg.inv(Y)
        Ms.append([Y_inv @ W for W in _continue_paths(entry, paths, [Y] * len(loops))])
    return {which: np.reshape([M[i] for M in Ms], shape + (2, 2))
            for i, which in enumerate(loops)}, offsets


def trivial_loop_identity(params):
    """The point's continuation along a contractible loop away from all singular points."""
    sing = singularities(params)
    c = params.branch.centroid
    R = 4.0 * max(max(abs(s - c) for s in sing), params.branch.scale)
    W = continue_solution(params.coeffs, [Arc(c + R, 0.1 * R, 0.0, 2 * math.pi)],
                          np.eye(2, dtype=complex))
    return float(np.max(np.abs(W - np.eye(2))))


def sector_connection_residuals(params):
    """Continue the point's Y across both rays bounding the growth sectors at a.

    Starting from the constructed Y at one sector center and integrating the
    half turn to the opposite center, the mismatch against the constructed Y
    there is the sectorial connection defect; trivial Stokes data means both
    residuals vanish to integrator accuracy.  The half turns run at a fifth
    of the distance from a to the nearest branch point.  A half turn whose
    mismatch overflows float64 gives the residual inf.
    """
    p = params
    radius = 0.2 * min(abs(p.a - e) for e in p.branch.es)
    th0 = cmath.phase(p.wp_a.wp_prime * p.t)
    a0s = (th0, th0 + math.pi)
    # the constructed Y at both starts, then both ends, from one evaluation
    x = p.a + radius * np.exp(1j * np.array([*a0s, *(a0 + math.pi for a0 in a0s)]))
    Ys = p.sol.hatted(x) @ p.sol.exp_T_a(x)
    with np.errstate(over="ignore", invalid="ignore"):
        Ws = _continue_paths(p.coeffs, [[Arc(p.a, radius, a0, a0 + math.pi)] for a0 in a0s],
                             Ys[:2])
        rs = np.max(np.abs(np.linalg.inv(Ys[2:]) @ Ws - np.eye(2)), axis=(1, 2))
    return [r if math.isfinite(r) else math.inf for r in rs.tolist()]
