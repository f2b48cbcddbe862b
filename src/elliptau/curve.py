"""The genus-one curve y^2 = 4(x-e1)(x-e2)(x-e3): periods, Abel map, identities.

Geometry conventions (the "sheet-1" frame everything downstream relies on):

* Branch cuts: one joins e2 and e3 (straight segment), the other runs from
  e1 to infinity, directed away from the midpoint of the other two points.
* Sheet 1 is anchored far away, relative to the centroid c: at the anchor
  point A (|A - c| large, on the ray from c that keeps clearest), with
  X = A - c, y(A) := 2 X^{3/2} prod_nu sqrt(1 - (e_nu - c)/X) with principal
  roots and the phase of X^{3/2} taken from arg X, so a translated curve
  has the same sheet 1.  Every other y-value is obtained by continuous
  continuation along canonical detoured paths from A, so the Abel map, the
  sign of y(a), and the period cycles all live on one coherent branch.
* The first cycle is a counterclockwise stadium around {e2, e3}, the second
  a stadium around {e1, e2} (it crosses both cuts); the second period's sign
  is flipped if needed so that Im(omega2/omega1) > 0.
* Period values come from the complex AGM; the two cycles, integrated at
  full accuracy, only pick which lattice vectors they are.  The cycle
  integral also serves as the independent oracle (second_kind_periods).
* Fresh configurations choose all this themselves.  A configuration made by
  BranchConfig.moved continues its root configuration instead: the root's
  anchor, and its oriented periods, rounded in the moved configuration's AGM
  basis (the cycles are integrated on the inherited frame only when rounding
  fails).
  So the periods, and with them the half-period slots wp matches, move
  continuously with the e_nu, even where two anchor rays tie, as at golden.

One step rule cuts every path, here and in monodromy: chords() splits the
pieces into straight chords no longer than RHO = 0.4 of the distance from
the chord's start to the nearest singular point, so the steps grade
geometrically toward a nearby branch point.  path_integrals applies one
ORDER = 12-node Gauss-Legendre rule, written as literal constants, to each
chord (the integrand is analytic within 2.5 chord lengths of the chord's
start, so the rule is exact to rounding) and continues y through all nodes
of a path at once, keeping at each node the sign of the principal root
that moves y least.
Paths are detoured by CLEARANCE = 0.1 of the smallest branch gap.

path_integrals and periods_of work on many paths or configurations in one
array pass; path_integral and period_data are their one-item cases and give
the same numbers.  A configuration owns its sheet frame (sheet_frame) and
its lattice (lattice), which periods_of sets on the configurations it
computes; the module caches are period_data and abel_with_y.
"""

import cmath
import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .elliptic import _Value, _any, _arg, lattice_from_periods, wp
from .errors import ContourGeometryError, DegenerateParameterError, EllipTauError, QuadratureError


class BranchConfig(_Value, namedtuple("BranchConfig", "e1 e2 e3 chart")):
    """Branch points of the curve; the geometric ground truth.

    chart is None on a fresh configuration, which chooses its own period
    convention; moved() copies carry their root configuration as chart and
    continue its anchor and periods.  The chart is part of equality and hash,
    so cached data never crosses between charts, but not of the repr.  es,
    scale and min_gap (largest and smallest gap) are set at construction,
    lattice and sheet_frame at first read (periods_of sets lattice).  Branch
    points that are arrays make a batch, one configuration per entry, whose
    es, gaps and algebra broadcast; no cache takes a batch.
    """

    def __new__(cls, e1, e2, e3, chart=None):
        self = tuple.__new__(cls, (e1, e2, e3, chart))
        e1, e2, e3 = self.es = (_arg(e1), _arg(e2), _arg(e3))
        gaps = (abs(e1 - e2), abs(e1 - e3), abs(e2 - e3))
        if any(isinstance(g, np.ndarray) for g in gaps):
            gaps = np.broadcast_arrays(*gaps)
            self.scale, self.min_gap = np.max(gaps, 0), np.min(gaps, 0)
        else:
            self.scale, self.min_gap = max(gaps), min(gaps)
        if _any(self.min_gap <= 1e-8 * self.scale):
            raise ContourGeometryError(
                f"branch points nearly collide: {self.es} (min gap {np.min(self.min_gap):.3e})")
        return self

    def __repr__(self):
        return "BranchConfig(e1=%r, e2=%r, e3=%r)" % self[:3]

    @property
    def e_sum(self):
        return self.e1 + self.e2 + self.e3

    @property
    def tilde_es(self):
        return tuple(e - self.centroid for e in self.es)

    @property
    def centroid(self):
        return self.e_sum / 3.0

    @cached_property
    def lattice(self):
        """The lattice of the oriented periods (see period_data), built once
        per object, unless periods_of set it."""
        return period_data(self)

    @cached_property
    def sheet_frame(self):
        """The SheetFrame at the root's anchor, or at the anchor ray of a fresh
        configuration.  Either lies 8 (1 + spread) from its root's centroid c,
        far outside every e_nu of a move, so the tail g keeps its principal roots
        there: y(anchor) = 2 |X|^{3/2} e^{1.5 i arg X} g(X), X = anchor - c."""
        anchor = self.chart.sheet_frame.anchor if self.chart is not None else _fresh_anchor(self)
        X = anchor - self.centroid
        y_anchor = complex(2.0 * abs(X) ** 1.5 * cmath.exp(1.5j * cmath.phase(X))
                           * _tail_g(self, X))
        return SheetFrame(self, anchor, y_anchor, CLEARANCE * self.min_gap)

    def moved(self, nu, delta):
        """The configuration with e_nu moved by delta, on the chart of this
        configuration's root (this one when it is fresh)."""
        es = list(self.es)
        es[nu - 1] += delta
        return BranchConfig(*es, chart=self.chart or self)

    def check_regular_point(self, a):
        """Raise unless a keeps at least 1e-6 of the spread from every e_nu."""
        if min(abs(a - e) for e in self.es) < 1e-6 * self.scale:
            raise DegenerateParameterError(
                f"a = {a} is closer than 1e-6 of the branch spread to a branch point")

    def y_squared(self, x):
        e1, e2, e3 = self.es
        return 4.0 * (x - e1) * (x - e2) * (x - e3)

    def infinite_cut_direction(self):
        d = self.e1 - (self.e2 + self.e3) / 2.0
        return d / abs(d)

    def distance_to_cuts(self, x):
        """Distance from x to the two branch cuts."""
        d_seg = _dist_to_segment(x, self.e2, self.e3)
        d_ray = _dist_to_ray(x, self.e1, self.infinite_cut_direction())
        return min(d_seg, d_ray)


ORDER = 12  # Gauss-Legendre nodes per chord
RHO = 0.4  # step rule: chord length <= RHO * distance to the nearest singular point
CLEARANCE = 0.1  # detour radius around branch points, in min branch gaps


def _dist_to_segment(x, a, b):
    ab = b - a
    t = ((x - a).real * ab.real + (x - a).imag * ab.imag) / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(x - (a + t * ab))


def _dist_to_ray(x, a, direction):
    t = (x - a).real * direction.real + (x - a).imag * direction.imag
    t = max(0.0, t)
    return abs(x - (a + t * direction))


# ---------------------------------------------------------------------------
# Path pieces and branch-tracked contour integration
# ---------------------------------------------------------------------------


class Line(_Value, namedtuple("Line", "a b")):
    def x(self, s):
        # exact at both ends, so a path ends exactly on its target
        return (1.0 - s) * self.a + s * self.b

    def dx(self, s):
        return self.b - self.a


class Arc(_Value, namedtuple("Arc", "center radius th0 th1")):
    def x(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return self.center + self.radius * cmath.exp(1j * th)

    def dx(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return 1j * (self.th1 - self.th0) * self.radius * cmath.exp(1j * th)


# The ORDER-node Gauss-Legendre rule on [-1, 1], as numpy's leggauss(12) gives
# it bit for bit (a Tier-1 test pins this), from its nonnegative nodes
# (ascending) and their weights.  As constants it loads neither numpy's
# polynomial package nor LAPACK.
_X = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
      0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_W = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
      0.16007832854334642, 0.10693932599531907, 0.04717533638651141)
NODES = np.array([-x for x in _X[::-1]] + list(_X))
WEIGHTS = np.array(_W[::-1] + _W)


def chords(pieces, poles):
    """Cut the pieces into straight chords x0 -> x1 by the step rule
    |h| <= RHO * dist(x0, poles).

    A chord of length h and the stretch of piece it spans both lie in the
    disc of radius h about its start, which holds no pole, so a function
    analytic off the poles has the same integral and continuation along
    either.  A step below the floor, 1e-12 of the path length, means the
    path runs into a pole, and raises.  Returns the arrays x0 and x1.
    """
    floor = _path_floor(pieces)
    ends = [_cut_piece(piece, poles, None, floor) for piece in pieces]
    return (np.array([x for x0, _ in ends for x in x0], dtype=complex),
            np.array([x for _, x1 in ends for x in x1], dtype=complex))


def _path_floor(pieces):
    """The shortest step chords allows on a path: 1e-12 of its length."""
    return 1e-12 * sum(abs(piece.dx(0.0)) for piece in pieces)  # dx is constant on a piece


def _cut_piece(piece, poles, bound, floor):
    """The chords of one piece by chords' rule, also |h| <= bound(x0) unless
    bound is None, and the path's floor: lists x0, x1."""
    speed = abs(piece.dx(0.0))
    at, s = piece.x, 0.0
    x = complex(at(0.0))
    x0, x1 = [], []
    first, rest = poles[0], poles[1:]
    while s < 1.0 and speed > 0:  # the hot loop of every path: one abs per pole, no calls
        d = abs(x - first)
        for p in rest:
            dp = abs(x - p)
            if dp < d:
                d = dp
        h = RHO * d
        if bound is not None:
            h = min(h, bound(x))
        if h < floor:
            raise QuadratureError(f"path reached a pole: step {h:.3g} at x={x}")
        s += h / speed
        if s > 1.0:
            s = 1.0
        x0.append(x)
        x = complex(at(s))
        x1.append(x)
    return x0, x1


def path_integral(pieces, branch, y_start):
    """path_integrals of dx/y for one path: returns (value, y_end)."""
    return path_integrals([pieces], [branch], [y_start])[0]


def path_integrals(paths, branches, y_starts, numerator=None):
    """[(value, y_end)] of numerator/y dx along each path (a list of pieces) on
    its branch from its y_start.  chords() cuts each path, each chord gets one
    ORDER-node Gauss-Legendre rule, and the nodes and ends of all chords are
    evaluated in one pass, y taking at each, in path order, the sign of the
    principal root that moves it least from the one before (y_start first).
    numerator(x, k) takes the nodes and, as a column, their path indices."""
    cuts = [chords(pieces, b.es) for pieces, b in zip(paths, branches)]
    out = [(0j, complex(y)) for y in y_starts]
    sizes = np.array([len(x0) for x0, _ in cuts])
    live = sizes.nonzero()[0]
    if live.size == 0:
        return out
    x0, x1 = (np.concatenate(ends) for ends in zip(*cuts))
    path = np.arange(len(paths)).repeat(sizes)[:, None]
    stop = sizes.cumsum()[live]  # one past each path's last chord
    start = stop - sizes[live]
    e = np.array([b.es for b in branches]).repeat(sizes, axis=0)  # each chord's branch
    half = 0.5 * (x1 - x0)[:, None]
    x = x0[:, None] + half * (1.0 + NODES)
    # the nodes of each chord, then its end: sqrt(y^2) there, in path order
    xe = np.concatenate([x, x1[:, None]], axis=1)
    w = np.sqrt(4.0 * (xe - e[:, :1]) * (xe - e[:, 1:2]) * (xe - e[:, 2:])).ravel()
    prev = np.concatenate(([0j], w[:-1]))
    prev[start * (ORDER + 1)] = np.asarray(y_starts, dtype=complex)[live]
    sign = np.where(np.abs(w - prev) <= np.abs(w + prev), 1.0, -1.0).cumprod()
    # restart at each path: the product before its start is +-1
    sign *= np.where(start > 0, sign[start * (ORDER + 1) - 1], 1.0).repeat(
        sizes[live] * (ORDER + 1))
    y = (sign * w).reshape(xe.shape)
    f = half * WEIGHTS / y[:, :ORDER]
    if numerator is not None:
        f = f * numerator(x, path)
    for k, r0, r1 in zip(live.tolist(), start.tolist(), stop.tolist()):
        out[k] = (complex(f[r0:r1].sum()), complex(y[r1 - 1, ORDER]))
    return out


def detoured_path(start, target, obstacles, clearance):
    """Straight segment with counterclockwise arc detours around obstacles.

    Obstacles closer than `clearance` to the open segment get a circular
    detour whose radius shrinks near the endpoints so the path can reach
    targets that sit close to (but not on) an obstacle.
    """
    seg = target - start
    seglen = abs(seg)
    if seglen == 0:
        return []
    u = seg / seglen
    hits = []
    for e in obstacles:
        t = ((e - start).real * u.real + (e - start).imag * u.imag) / seglen
        if t <= 0.0 or t >= 1.0:
            continue
        perp = abs(e - (start + t * seg))
        r = min(clearance, 0.5 * abs(e - target), 0.5 * abs(e - start))
        if perp >= r or r <= 0:
            continue
        # chord parameters where the segment meets the detour circle
        half = math.sqrt(r * r - perp * perp) / seglen
        hits.append((t, e, r, t - half, t + half))
    hits.sort(key=lambda h: h[0])
    pieces = []
    cursor = start
    for t, e, r, t_in, t_out in hits:
        p_in = start + max(t_in, 0.0) * seg
        p_out = start + min(t_out, 1.0) * seg
        # snap entry/exit onto the circle
        p_in = e + r * (p_in - e) / abs(p_in - e)
        p_out = e + r * (p_out - e) / abs(p_out - e)
        if abs(p_in - cursor) > 0:
            pieces.append(Line(cursor, p_in))
        th0 = cmath.phase(p_in - e)
        th1 = cmath.phase(p_out - e)
        while th1 < th0:
            th1 += 2 * math.pi
        pieces.append(Arc(e, r, th0, th1))
        cursor = p_out
    if abs(target - cursor) > 0:
        pieces.append(Line(cursor, target))
    return pieces


def stadium(p, q, margin):
    """Counterclockwise stadium contour around the segment [p, q]."""
    u = (q - p) / abs(q - p)
    thu = cmath.phase(u)
    n = 1j * u
    return [
        Line(p - margin * n, q - margin * n),
        Arc(q, margin, thu - math.pi / 2, thu + math.pi / 2),
        Line(q + margin * n, p + margin * n),
        Arc(p, margin, thu + math.pi / 2, thu + 3 * math.pi / 2),
    ]


# ---------------------------------------------------------------------------
# Sheet-1 frame: anchor, regularized tail, periods
# ---------------------------------------------------------------------------


def _tail_g(branch, X):
    """prod sqrt(1 - e~_nu/X), X = x - centroid: y = 2 X^{3/2} g far out."""
    out = 1.0 + 0j
    for e in branch.tilde_es:
        out = out * np.sqrt(1.0 - e / X)
    return out


class SheetFrame(_Value, namedtuple("SheetFrame", "branch anchor y_anchor clearance")):
    """Anchor data fixing sheet 1: the anchor, y there and the detour radius;
    the Abel value u there, which only the Abel map reads, at first read."""

    @cached_property
    def u_anchor(self):
        """The tail integral from infinity: x = c + X/s^2 maps s in (0, 1]
        onto the ray from infinity to the anchor, where dx/y =
        -X^{-1/2} ds / g(X/s^2), and g -> 1 at s = 0.  g is analytic for
        |s| < sqrt(8), so one ORDER-node Gauss-Legendre rule on (0, 1] is
        exact to rounding."""
        X = self.anchor - self.branch.centroid
        inv_sqrt_X = abs(X) ** -0.5 * cmath.exp(-0.5j * cmath.phase(X))
        s = 0.5 * (1.0 + NODES)
        total = np.sum(0.5 * WEIGHTS / _tail_g(self.branch, X / (s * s)))
        return complex(-inv_sqrt_X * total)


# half steps, so no ray runs along the cut of the principal phase of X
_RAYS = [cmath.exp(2j * math.pi * (k + 0.5) / 16.0) for k in range(16)]


def _fresh_anchor(branch):
    """The anchor of a fresh configuration: of the ends of 16 rays from the
    centroid at 8 times the spread, the one farthest from the branch points
    (the first of those within 1e-12 R), the clearances in one array pass."""
    c = branch.centroid
    R = 8.0 * (1.0 + max(abs(e - c) for e in branch.es))
    rel = np.array(branch.tilde_es)[:, None] - R * np.array(_RAYS)  # e - ray end
    clear = np.abs(rel).min(axis=0).tolist()
    best = 0
    for k in range(1, 16):
        if clear[k] > clear[best] + 1e-12 * R:
            best = k
    return c + R * _RAYS[best]


def _cycles(branch):
    """The two stadium cycles: around {e2, e3}, then around {e1, e2}."""
    e1, e2, e3 = branch.es
    out = []
    for p, q, excluded in ((e2, e3, e1), (e1, e2, e3)):
        margin = 0.4 * _dist_to_segment(excluded, p, q)
        if margin <= 0:
            raise ContourGeometryError("cycle cannot separate the excluded branch point")
        out.append(stadium(p, q, margin))
    return out


def _cycle_integrals(branches, cycles, numerator=None):
    """Integral of numerator/y dx (numerator as path_integrals takes it)
    around each cycle on its configuration's sheet-1 frame: the approach
    paths in one pass, the cycles in one."""
    frames = [b.sheet_frame for b in branches]
    approach = [detoured_path(f.anchor, c[0].x(0.0), b.es, f.clearance)
                for b, f, c in zip(branches, frames, cycles)]
    y0s = [y for _, y in path_integrals(approach, branches, [f.y_anchor for f in frames])]
    out = path_integrals(cycles, branches, y0s, numerator)
    for (_, y_end), y0 in zip(out, y0s):
        if abs(y_end - y0) > 1e-8 * abs(y0):
            raise QuadratureError("y-branch did not close along the cycle")
    return np.array([val for val, _ in out])


# Slack of the lattice coordinates of a cycle integral around the integers.
_COORD_SLACK = 0.05


def _agm(a, b):
    """Optimal complex AGM: each root is signed so that |a - b| <= |a + b|."""
    for _ in range(64):
        if abs(a - b) > abs(a + b):
            b = -b
        if abs(a - b) <= 1e-15 * abs(a):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
    raise QuadratureError(f"complex AGM did not converge (a={a}, b={b})")


def _agm_basis(branch):
    """The period basis pi/AGM(sqrt(e1-e3), sqrt(e1-e2)),
    pi/AGM(sqrt(e3-e1), sqrt(e3-e2)) of the optimal complex AGM (Cremona &
    Thongjunthug, J. Number Theory 133, 2013)."""
    e1, e2, e3 = branch.es
    return (math.pi / _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2)),
            math.pi / _agm(cmath.sqrt(e3 - e1), cmath.sqrt(e3 - e2)))


def _lattice_coords(w, b1, b2):
    """Integer (m, n) with w = m b1 + n b2, or QuadratureError if w is off the lattice."""
    det = (b1.conjugate() * b2).imag
    if abs(det) <= 1e-12 * abs(b1) * abs(b2):
        raise QuadratureError("AGM periods are collinear")
    m = (w.conjugate() * b2).imag / det
    n = (b1.conjugate() * w).imag / det
    fm, fn = m - round(m), n - round(n)
    if max(abs(fm), abs(fn)) > _COORD_SLACK:
        raise QuadratureError(
            f"cycle is not a lattice vector of the AGM basis "
            f"(fractional parts {fm:+.3f}, {fn:+.3f})"
        )
    return round(m), round(n)


def _period_data_batch(branches):
    """The lattice of each configuration, as period_data defines it, with the
    cycles that need integrating (both on a fresh configuration, a root's
    period beyond the slack on a moved one) in one _cycle_integrals call."""
    bases = [_agm_basis(b) for b in branches]
    coords, todo = {}, []
    for i, (b, basis) in enumerate(zip(branches, bases)):
        root = b.chart.lattice if b.chart is not None else None
        for c in (0, 1):
            try:
                if root is not None:
                    coords[i, c] = _lattice_coords((root.omega1, root.omega2)[c], *basis)
                    continue
            except QuadratureError:
                pass  # moved beyond the slack: integrate on the inherited frame
            todo.append((i, c))
    if todo:
        ws = _cycle_integrals([branches[i] for i, _ in todo],
                              [_cycles(branches[i])[c] for i, c in todo])
        for (i, c), w in zip(todo, ws.tolist()):
            coords[i, c] = _lattice_coords(w, *bases[i])
    out = []
    for i, (b1, b2) in enumerate(bases):
        (m1, n1), (m2, n2) = coords[i, 0], coords[i, 1]
        if abs(m1 * n2 - m2 * n1) != 1:
            raise QuadratureError(
                f"cycles do not span the period lattice: {(m1, n1)}, {(m2, n2)}")
        om1, om2 = m1 * b1 + n1 * b2, m2 * b1 + n2 * b2
        om2 = -om2 if (om2 / om1).imag <= 0 else om2
        out.append(lattice_from_periods(om1, om2))
    return out


@lru_cache(maxsize=256)  # perfbench reads its cache_info(); one miss a cold golden verify
def period_data(branch):
    """Both periods from the complex AGM, oriented so Im(omega2/omega1) > 0,
    as a lattice.

    The AGM basis is carried onto the cycle convention (omega1 around
    {e2, e3}, omega2 around {e1, e2}, both on the sheet-1 frame) by rounding
    lattice coordinates in that basis to integers: of the root's oriented
    periods on a moved configuration, else (and when those are off by more
    than the slack) of the two cycle integrals.  The root's omega2 is
    oriented, so its coordinates may be those of the cycle negated; the
    orientation flip takes either sign, and negation is exact.  The one-item
    case of periods_of; BranchConfig.lattice reads it.
    """
    return _period_data_batch([branch])[0]


def periods_of(branches):
    """The lattice of each configuration, computed together and set as its
    lattice (one already set keeps it).  When one fails they are computed
    one at a time, and the first failing one raises its own error."""
    try:
        for b, lat in zip(branches, _period_data_batch(branches)):
            vars(b).setdefault("lattice", lat)
    except EllipTauError:
        pass  # each configuration below then computes alone and fails alone
    return [b.lattice for b in branches]


def second_kind_periods(branches):
    """Quasi-period of zeta over the first cycle of each configuration, via
    -loop(x - e_sum/3) dx/y, in one _cycle_integrals call.

    Independent of the theta-constant route used by lattice_from_periods;
    serves as the geometric oracle for eta1.
    """
    shifts = np.array([b.e_sum / 3.0 for b in branches])
    return -_cycle_integrals(branches, [_cycles(b)[0] for b in branches],
                             numerator=lambda x, k: x - shifts[k])


# ---------------------------------------------------------------------------
# Abel map and inverse
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def abel_with_y(branch, x):
    """Sheet-1 Abel map value u(x) together with the sheet-1 value y(x)."""
    x = complex(x)
    frame = branch.sheet_frame
    pieces = detoured_path(frame.anchor, x, branch.es, frame.clearance)
    val, y_end = path_integral(pieces, branch, frame.y_anchor)
    return frame.u_anchor + val, y_end


def abel_values(branch, xs):
    """abel_with_y(branch, x) of each point of xs, their paths integrated in
    one path_integrals pass; no abel_with_y cache entry is read or filled.
    The paths are cut in order, so the first failing point raises its own
    error."""
    frame, xs = branch.sheet_frame, [complex(x) for x in xs]
    paths = [detoured_path(frame.anchor, x, branch.es, frame.clearance) for x in xs]
    ends = path_integrals(paths, [branch] * len(xs), [frame.y_anchor] * len(xs))
    return [(frame.u_anchor + val, y) for val, y in ends]


def x_from_u(branch, lat, u):
    """Inverse Abel map: x = wp(u) + (e1+e2+e3)/3."""
    return wp(lat, u) + branch.e_sum / 3.0


# ---------------------------------------------------------------------------
# Half periods and branch-point bookkeeping
# ---------------------------------------------------------------------------


class HalfPeriodTable(_Value, namedtuple("HalfPeriodTable", "omega_tilde eta_tilde perm")):
    """Half periods, their quasi-period constants, and the branch matching.

    perm[k] is the index nu in {1,2,3} with wp(omega_tilde[k]) = e_nu - e_sum/3;
    slot_of_branch inverts it.
    """

    def slot_of_branch(self, nu):
        return self.perm.index(nu)


def half_period_values(lat):
    """The half periods omega1/2, (omega1 + omega2)/2, omega2/2 of lat and
    their quasi-period constants, by slot (a batch lattice: arrays)."""
    return ((lat.omega1 / 2.0, (lat.omega1 + lat.omega2) / 2.0, lat.omega2 / 2.0),
            (lat.eta1, lat.eta1 + lat.eta2, lat.eta2))


def half_period_table(branch, lat):
    """The half periods of lat, the branch's lattice, matched to its branch
    points."""
    tildes, etas = half_period_values(lat)
    te = branch.tilde_es
    perm = []
    for h in tildes:
        w = wp(lat, h)
        vals = [abs(w - t) for t in te]
        k = vals.index(min(vals))
        if min(vals) > 1e-6 * max(1.0, branch.scale):
            raise QuadratureError(
                f"half period {h} does not match any branch value (best {min(vals):.2e})"
            )
        perm.append(k + 1)
    if sorted(perm) != [1, 2, 3]:
        raise QuadratureError(f"half periods do not match branch points bijectively: {perm}")
    return HalfPeriodTable(tildes, etas, tuple(perm))


# ---------------------------------------------------------------------------
# Local data at a regular point a and branch-point derivative identities
# ---------------------------------------------------------------------------


class WpAtA(_Value, namedtuple("WpAtA", "wp wp_prime wp_pp wp_ppp")):
    """Algebraic values of wp and derivatives at alpha = u(a), sheet 1;
    wp_prime is signed, on the sheet-1 branch."""


def wp_alpha_relations(branch, a, near=None):
    """wp(alpha) = a - e_sum/3, wp'(alpha)^2 = 4 prod(a - e_nu),
    wp''(alpha) = 2 sum_{i<j} (a-e_i)(a-e_j); the sign of wp'(alpha) is the
    sheet-1 y(a), or given near (on a batch configuration, the wp'(alpha) of
    the point it moved from) the sign of the root nearest it, by continuity."""
    a = complex(a)
    es = branch.es
    if any(_any(a == e) for e in es):
        raise ContourGeometryError("a collides with a branch point")
    w = a - branch.e_sum / 3.0
    wpp = 2.0 * ((a - es[0]) * (a - es[1]) + (a - es[1]) * (a - es[2])
                 + (a - es[0]) * (a - es[2]))
    if near is None:
        _, y = abel_with_y(branch, a)
    else:
        y = np.sqrt(branch.y_squared(a))
        y = np.where(np.abs(y - near) <= np.abs(y + near), y, -y)
    return WpAtA(w, y, wpp, 12.0 * w * y)


def local_inverse_coeffs(rel):
    """Series u - alpha = c1 (x-a) + c2 (x-a)^2 + c3 (x-a)^3 + ... by formal
    reversion of x(u) = wp(u) + e_sum/3 at alpha, from rel, the WpAtA of a.
    c1 = 1/wp'(alpha)."""
    if rel.wp_prime == 0:
        raise ContourGeometryError("a is a branch point; series inversion degenerates")
    b1, b2, b3 = rel.wp_prime, rel.wp_pp / 2.0, rel.wp_ppp / 6.0
    c1 = 1.0 / b1
    c2 = -b2 / b1**3
    c3 = (2.0 * b2 * b2 - b1 * b3) / b1**5
    return (c1, c2, c3)


def _gap_product(branch, nu):
    """prod_{mu != nu} (e_nu - e_mu)."""
    e = branch.es[nu - 1]
    return math.prod(e - other for m, other in enumerate(branch.es, 1) if m != nu)


def dOmega_de(branch, lat, nu):
    """Closed-form derivative of the period ratio in a branch point,
    dOmega/de_nu = pi i / (omega1^2 prod_{mu != nu} (e_nu - e_mu))."""
    return 1j * math.pi / (lat.omega1**2 * _gap_product(branch, nu))


def dlog_omega1_de(branch, lat, nu):
    """Closed-form d(log omega1)/de_nu, obtained from the discriminant /
    theta-constant relation and the heat equation."""
    d1, d3, _ = lat.odd_theta_constants
    dtheta1p_dOmega = d3 / (4j * math.pi)
    es = branch.es
    e = es[nu - 1]
    s = sum(1.0 / (e - other) for m, other in enumerate(es, start=1) if m != nu)
    return (2.0 * (dtheta1p_dOmega / d1) * dOmega_de(branch, lat, nu) - 0.5 * s) / 3.0


def theta_constant_residuals(branches, lat):
    """Residuals of the two odd theta-constant identities, for configurations
    and their lattice (a batch of theirs for several).

    First: omega1*eta1 = -theta11'''/(3 theta11'), with eta1 taken from the
    geometric second-kind period (independent of the theta route).
    Second: -(sum e)^2/3 + sum_{i<j} e_i e_j equals
    (theta11^(5)/(2 theta11') - 5 (theta11'''/theta11')^2 / 6) / omega1^4.
    Returns the two arrays of relative residuals.
    """
    d1, d3, d5 = lat.odd_theta_constants
    lhs1 = lat.omega1 * second_kind_periods(branches)
    rhs1 = -d3 / (3.0 * d1)
    r1 = np.abs(lhs1 - rhs1) / np.maximum(np.abs(lhs1), np.abs(rhs1))
    e1, e2, e3 = np.array([b.es for b in branches]).T
    lhs2 = -(e1 + e2 + e3) ** 2 / 3.0 + (e1 * e2 + e2 * e3 + e3 * e1)
    rhs2 = (0.5 * (d5 / d1) - (5.0 / 6.0) * (d3 / d1) ** 2) / lat.omega1**4
    r2 = np.abs(lhs2 - rhs2) / np.maximum(np.maximum(np.abs(lhs2), np.abs(rhs2)), 1e-30)
    return r1, r2


def quasiperiod_ratio_derivative(branch, lat, nu, t):
    """Closed form of d/de_nu (eta1 t^2 / (2 omega1)):
    t^2 (dlog omega1/de_nu)^2 prod_{mu != nu}(e_nu - e_mu) - t^2/12."""
    return (t * t * dlog_omega1_de(branch, lat, nu) ** 2 * _gap_product(branch, nu)
            - t * t / 12.0)
