"""The genus-one curve y^2 = 4(x-e1)(x-e2)(x-e3): periods, Abel map, identities.

Geometry conventions (the "sheet-1" frame everything downstream relies on):

* Branch cuts: one joins e2 and e3 (straight segment), the other runs from
  e1 to infinity, directed away from the midpoint of the other two points.
* Sheet 1 is anchored far away: at the anchor point A (|A| large, direction
  chosen for maximal clearance), y(A) := 2 A^{3/2} prod_nu sqrt(1 - e_nu/A)
  with principal roots and the phase of A^{3/2} taken from arg A.  Every
  other y-value is obtained by continuous continuation along canonical
  detoured paths from A, so the Abel map, the sign of y(a), and the period
  cycles all live on one coherent branch.
* The first cycle is a counterclockwise stadium around {e2, e3}, the second
  a stadium around {e1, e2} (it crosses both cuts); the second period's sign
  is flipped if needed so that Im(omega2/omega1) > 0, and the flip is
  recorded.
* Period values come from the complex AGM; the two cycles, integrated at
  full accuracy, only pick which lattice vectors they are.  The cycle
  integral also serves as the independent oracle (second_kind_period).
* Fresh configurations choose all this themselves.  A configuration made by
  BranchConfig.moved continues its root's chart instead: the root's anchor,
  and its periods, rounded in the moved configuration's AGM basis (the
  cycles are integrated on the inherited frame only when rounding fails).
  So the periods, and with them the half-period slots wp matches, move
  continuously with the e_nu, even where two anchor rays tie, as at golden.

One step rule cuts every path, here and in monodromy: chords() splits the
pieces into straight chords no longer than RHO = 0.4 of the distance from
the chord's start to the nearest singular point, so the steps grade
geometrically toward a nearby branch point.  path_integral applies one
ORDER = 12-node Gauss-Legendre rule to each chord (the integrand is
analytic within 2.5 chord lengths of the chord's start, so the rule is
exact to rounding) and continues y through all nodes of a path at once,
keeping at each node the sign of the principal root that moves y least.
Paths are detoured by CLEARANCE = 0.1 of the smallest branch gap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .elliptic import (
    Lattice,
    lattice_from_periods,
    wp,
)
from .errors import ContourGeometryError, DegenerateParameterError, QuadratureError


@dataclass(frozen=True)
class Chart:
    """The period convention a moved configuration continues from its root:
    the root's sheet anchor and its cycle periods before orientation.  Plain
    values, so the root's cache entries may go."""

    anchor: complex
    omega1: complex
    omega2: complex


@dataclass(frozen=True)
class BranchConfig:
    """Branch points of the curve; the geometric ground truth.

    chart is None on a fresh configuration, which chooses its own period
    convention; moved() copies carry their root's chart.  The chart is part
    of equality and hash, so cached data never crosses between charts.
    """

    e1: complex
    e2: complex
    e3: complex
    chart: Chart | None = field(default=None, repr=False)

    def __post_init__(self):
        es = self.es
        gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) <= 1e-8 * max(gaps):
            raise ContourGeometryError(
                f"branch points nearly collide: {es} (min gap {min(gaps):.3e})"
            )

    @property
    def es(self):
        return (complex(self.e1), complex(self.e2), complex(self.e3))

    @property
    def e_sum(self):
        return self.e1 + self.e2 + self.e3

    @property
    def tilde_es(self):
        s = self.e_sum / 3.0
        return tuple(e - s for e in self.es)

    @property
    def centroid(self):
        return self.e_sum / 3.0

    @property
    def scale(self):
        return max(abs(self.es[i] - self.es[j])
                   for i in range(3) for j in range(i + 1, 3))

    @property
    def min_gap(self):
        return min(abs(self.es[i] - self.es[j])
                   for i in range(3) for j in range(i + 1, 3))

    @cached_property
    def root_chart(self):
        """The chart that moved copies carry: this configuration's chart, or
        on a fresh one its own anchor and cycle periods, built once per
        object, so moves never need the fresh one's cache entries again."""
        if self.chart is not None:
            return self.chart
        pd = period_data(self)
        return Chart(_sheet_frame(self).anchor, pd.omega1,
                     -pd.omega2 if pd.delta_flipped else pd.omega2)

    def moved(self, nu, delta):
        """The configuration with e_nu moved by delta, on the chart of this
        configuration's root (this one when it is fresh)."""
        es = list(self.es)
        es[nu - 1] += delta
        return BranchConfig(*es, chart=self.root_chart)

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


@dataclass(frozen=True)
class Line:
    a: complex
    b: complex

    def x(self, s):
        # exact at both ends, so a path ends exactly on its target
        return (1.0 - s) * self.a + s * self.b

    def dx(self, s):
        return self.b - self.a


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    th0: float
    th1: float

    def x(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return self.center + self.radius * np.exp(1j * th)

    def dx(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return 1j * (self.th1 - self.th0) * self.radius * np.exp(1j * th)


@lru_cache(maxsize=1)
def _gauss():
    """The ORDER-node Gauss-Legendre rule on [-1, 1], built at first use:
    built at import, it loads LAPACK there and costs 1 MB of peak RSS."""
    return leggauss(ORDER)


def chords(pieces, poles, bound=None):
    """Cut the pieces into straight chords x0 -> x1 by the step rule
    |h| <= RHO * dist(x0, poles), and |h| <= bound(x0) when bound is given.

    A chord of length h and the stretch of piece it spans both lie in the
    disc of radius h about its start, which holds no pole, so a function
    analytic off the poles has the same integral and continuation along
    either.  A step below 1e-12 of the path length means the path runs into
    a pole, and raises.  Returns the arrays x0 and x1.
    """
    speeds = [abs(piece.dx(0.0)) for piece in pieces]  # constant on a Line or an Arc
    floor = 1e-12 * sum(speeds)
    x0, x1 = [], []
    for piece, speed in zip(pieces, speeds):
        s, x = 0.0, complex(piece.x(0.0))
        while s < 1.0 and speed > 0:
            h = RHO * min(abs(x - p) for p in poles)
            if bound is not None:
                h = min(h, bound(x))
            if h < floor:
                raise QuadratureError(f"path reached a pole: step {h:.3g} at x={x}")
            s = min(1.0, s + h / speed)
            x0.append(x)
            x = complex(piece.x(s))
            x1.append(x)
    return np.array(x0, dtype=complex), np.array(x1, dtype=complex)


def path_integral(pieces, branch, y_start, numerator=None):
    """Integrate numerator(x)/y dx along the pieces, tracking the y-branch.

    y starts at y_start at the start of the first piece.  The pieces are
    cut by chords() around the branch points, each chord gets one
    ORDER-node Gauss-Legendre rule, and y is continued through all nodes in
    order, each node taking the sign of the principal root that moves y
    least from the node before; the step rule keeps every move far from
    ambiguous.  numerator takes arrays of x.  Returns (value, y_end).
    """
    x0, x1 = chords(pieces, branch.es)
    if x0.size == 0:
        return 0j, complex(y_start)
    nodes, weights = _gauss()
    half = 0.5 * (x1 - x0)[:, None]
    x = x0[:, None] + half * (1.0 + nodes)
    w = np.sqrt(branch.y_squared(np.append(x, x1[-1])))
    prev = np.concatenate(([y_start], w[:-1]))
    y = np.cumprod(np.where(np.abs(w - prev) <= np.abs(w + prev), 1.0, -1.0)) * w
    f = half * weights / y[:-1].reshape(x.shape)
    if numerator is not None:
        f = f * numerator(x)
    return complex(np.sum(f)), complex(y[-1])


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


def _tail_g(branch, x):
    out = 1.0 + 0j
    for e in branch.es:
        out = out * np.sqrt(1.0 - e / x)
    return out


@dataclass(frozen=True)
class SheetFrame:
    """Anchor data fixing sheet 1: the anchor, y there, and the detour radius."""

    anchor: complex
    y_anchor: complex
    clearance: float


def _fresh_anchor(branch):
    """The anchor of a fresh configuration: of 16 rays at 8 times the
    spread, the one whose outward ray keeps clearest of the branch points."""
    c = branch.centroid
    spread = max(abs(e - c) for e in branch.es)
    R = 8.0 * (1.0 + spread + abs(c))
    best = None
    for k in range(16):
        d = cmath.exp(2j * math.pi * k / 16.0)
        a = c + R * d
        clear = min(_dist_to_ray(e, a, a / abs(a)) for e in branch.es)
        clear = min(clear, min(abs(a - e) for e in branch.es))
        if best is None or clear > best[0] + 1e-12 * R:
            best = (clear, a)
    return best[1]


@lru_cache(maxsize=64)
def _sheet_frame(branch):
    """The frame at the chart's anchor, or at the anchor ray of a fresh
    configuration.  Either lies 8 (1 + spread + |centroid|) from its root's
    centroid, far outside every e_nu of a move, so the tail g keeps its
    principal roots there."""
    chart = branch.chart
    anchor = chart.anchor if chart is not None else _fresh_anchor(branch)
    phase = cmath.phase(anchor)
    y_anchor = complex(2.0 * abs(anchor) ** 1.5 * cmath.exp(1.5j * phase)
                       * _tail_g(branch, anchor))
    return SheetFrame(anchor, y_anchor, CLEARANCE * branch.min_gap)


@lru_cache(maxsize=64)
def _u_anchor(branch):
    """Abel-map value at the anchor: the tail integral from infinity.

    x = anchor/s^2 maps s in (0, 1] onto the ray from infinity to the anchor,
    where dx/y = -anchor^{-1/2} ds / g(x) with g = prod sqrt(1 - e_nu/x) -> 1
    at s = 0.  The anchor lies at least 8 times as far out as every e_nu, so
    g keeps its principal roots and is analytic for |s| < sqrt(8): one
    ORDER-node Gauss-Legendre rule on (0, 1] is exact to rounding.
    """
    anchor = _sheet_frame(branch).anchor
    inv_sqrt_a = abs(anchor) ** -0.5 * cmath.exp(-0.5j * cmath.phase(anchor))
    nodes, weights = _gauss()
    s = 0.5 * (1.0 + nodes)
    total = np.sum(0.5 * weights / _tail_g(branch, anchor / (s * s)))
    return complex(-inv_sqrt_a * total)


@dataclass(frozen=True)
class PeriodData:
    lattice: Lattice
    omega1: complex
    omega2: complex
    delta_flipped: bool


def _cycle_pieces(branch, pair, excluded):
    p, q = pair
    margin = 0.4 * _dist_to_segment(excluded, p, q)
    if margin <= 0:
        raise ContourGeometryError("cycle cannot separate the excluded branch point")
    return stadium(p, q, margin)


def _cycle_integral(branch, frame, pieces, numerator=None):
    """Integral of numerator(x)/y dx around a cycle on the sheet-1 frame."""
    start = pieces[0].x(0.0)
    approach = detoured_path(frame.anchor, start, branch.es, frame.clearance)
    y0 = path_integral(approach, branch, frame.y_anchor)[1]
    val, y_end = path_integral(pieces, branch, y0, numerator)
    if abs(y_end - y0) > 1e-8 * abs(y0):
        raise QuadratureError("y-branch did not close along the cycle")
    return val


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


@lru_cache(maxsize=256)  # the 120 ring configurations of a branch check fit
def period_data(branch):
    """Both periods from the complex AGM, oriented so Im(omega2/omega1) > 0.

    The AGM basis is carried onto the cycle convention (omega1 around
    {e2, e3}, omega2 around {e1, e2}, both on the sheet-1 frame) by rounding
    lattice coordinates in that basis to integers: of the chart's periods on
    a moved configuration, else (and when those are off by more than the
    slack) of the two cycle integrals.
    """
    e1, e2, e3 = branch.es
    b1, b2 = _agm_basis(branch)
    chart = branch.chart
    inherited = (None, None) if chart is None else (chart.omega1, chart.omega2)

    def coords(pair, excluded, w):
        if w is not None:
            try:
                return _lattice_coords(w, b1, b2)
            except QuadratureError:
                pass  # moved beyond the slack: integrate on the inherited frame
        w = _cycle_integral(branch, _sheet_frame(branch),
                            _cycle_pieces(branch, pair, excluded))
        return _lattice_coords(w, b1, b2)

    m1, n1 = coords((e2, e3), e1, inherited[0])
    m2, n2 = coords((e1, e2), e3, inherited[1])
    if abs(m1 * n2 - m2 * n1) != 1:
        raise QuadratureError(
            f"cycles do not span the period lattice: {(m1, n1)}, {(m2, n2)}")
    om1, om2 = m1 * b1 + n1 * b2, m2 * b1 + n2 * b2
    flipped = False
    if (om2 / om1).imag <= 0:
        om2, flipped = -om2, True
    lat = lattice_from_periods(om1, om2)
    return PeriodData(lat, om1, om2, flipped)


def periods(branch):
    """The lattice of the curve (see period_data for orientation bookkeeping)."""
    return period_data(branch).lattice


def second_kind_period(branch):
    """Quasi-period of zeta over the first cycle, via -loop(x - e_sum/3) dx/y.

    Independent of the theta-constant route used by lattice_from_periods;
    serves as the geometric oracle for eta1.
    """
    e1, e2, e3 = branch.es
    frame = _sheet_frame(branch)
    shift = branch.e_sum / 3.0
    val = _cycle_integral(branch, frame, _cycle_pieces(branch, (e2, e3), e1),
                          numerator=lambda x: x - shift)
    return -val


# ---------------------------------------------------------------------------
# Abel map and inverse
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def abel_with_y(branch, x):
    """Sheet-1 Abel map value u(x) together with the sheet-1 value y(x)."""
    x = complex(x)
    frame = _sheet_frame(branch)
    pieces = detoured_path(frame.anchor, x, branch.es, frame.clearance)
    val, y_end = path_integral(pieces, branch, frame.y_anchor)
    return _u_anchor(branch) + val, y_end


def x_from_u(branch, lat, u):
    """Inverse Abel map: x = wp(u) + (e1+e2+e3)/3."""
    return wp(lat, u) + branch.e_sum / 3.0


# ---------------------------------------------------------------------------
# Half periods and branch-point bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPeriodTable:
    """Half periods, their quasi-period constants, and the branch matching.

    perm[k] is the index nu in {1,2,3} with wp(omega_tilde[k]) = e_nu - e_sum/3;
    slot_of_branch inverts it.
    """

    omega_tilde: tuple
    eta_tilde: tuple
    perm: tuple

    def slot_of_branch(self, nu):
        return self.perm.index(nu)


@lru_cache(maxsize=64)
def half_period_table(branch, lat):
    """The half periods of lat, the branch's lattice, matched to its branch
    points; built once per branch."""
    tildes = (lat.omega1 / 2.0, (lat.omega1 + lat.omega2) / 2.0, lat.omega2 / 2.0)
    etas = (lat.eta1, lat.eta1 + lat.eta2, lat.eta2)
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


@dataclass(frozen=True)
class WpAtA:
    """Algebraic values of wp and derivatives at alpha = u(a), sheet 1."""

    wp: complex
    wp_prime_sq: complex
    wp_prime: complex  # signed, sheet-1 branch
    wp_pp: complex
    wp_ppp: complex


def wp_alpha_relations(branch, a):
    """wp(alpha) = a - e_sum/3, wp'(alpha)^2 = 4 prod(a - e_nu),
    wp''(alpha) = 2 sum_{i<j} (a-e_i)(a-e_j); the sign of wp'(alpha) is the
    sheet-1 y(a)."""
    a = complex(a)
    es = branch.es
    if min(abs(a - e) for e in es) == 0:
        raise ContourGeometryError("a collides with a branch point")
    w = a - branch.e_sum / 3.0
    prod = (a - es[0]) * (a - es[1]) * (a - es[2])
    wpp = 2.0 * ((a - es[0]) * (a - es[1]) + (a - es[1]) * (a - es[2])
                 + (a - es[0]) * (a - es[2]))
    _, y = abel_with_y(branch, a)
    return WpAtA(w, 4.0 * prod, y, wpp, 12.0 * w * y)


def local_inverse_coeffs(branch, a):
    """Series u - alpha = c1 (x-a) + c2 (x-a)^2 + c3 (x-a)^3 + ... by formal
    reversion of x(u) = wp(u) + e_sum/3 at alpha.  c1 = 1/wp'(alpha)."""
    rel = wp_alpha_relations(branch, a)
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


def theta_constant_residuals(branch, lat):
    """Residuals of the two odd theta-constant identities.

    First: omega1*eta1 = -theta11'''/(3 theta11'), with eta1 taken from the
    geometric second-kind period (independent of the theta route).
    Second: -(sum e)^2/3 + sum_{i<j} e_i e_j equals
    (theta11^(5)/(2 theta11') - 5 (theta11'''/theta11')^2 / 6) / omega1^4.
    Returns the two relative residuals.
    """
    d1, d3, d5 = lat.odd_theta_constants
    eta1_geom = second_kind_period(branch)
    lhs1 = lat.omega1 * eta1_geom
    rhs1 = -d3 / (3.0 * d1)
    r1 = abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1))
    e1, e2, e3 = branch.es
    lhs2 = -(e1 + e2 + e3) ** 2 / 3.0 + (e1 * e2 + e2 * e3 + e3 * e1)
    rhs2 = (0.5 * (d5 / d1) - (5.0 / 6.0) * (d3 / d1) ** 2) / lat.omega1**4
    r2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-30)
    return r1, r2


def quasiperiod_ratio_derivative(branch, lat, nu, t):
    """Closed form of d/de_nu (eta1 t^2 / (2 omega1)):
    t^2 (dlog omega1/de_nu)^2 prod_{mu != nu}(e_nu - e_mu) - t^2/12."""
    return (t * t * dlog_omega1_de(branch, lat, nu) ** 2 * _gap_product(branch, nu)
            - t * t / 12.0)
