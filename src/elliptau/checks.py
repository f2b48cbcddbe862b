"""Named oracle checks over a scenario, and the machine-readable report.

Every check compares a closed form against an independent route (series
oracle, Cauchy-ring derivative, contour quadrature, or ODE continuation) and
returns a residual to be judged against its tolerance; within it, a check may
call a residual that cannot be judged inconclusive.  Checks are isolated:
one failure or exception never aborts the others.  Random draws come from
per-check SplitMix64 streams derived from the scenario seed, so a report is
reproducible bit-for-bit given the same platform floating point.
"""

import cmath
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .curve import (
    BranchConfig,
    Line,
    abel_values,
    dOmega_de,
    dlog_omega1_de,
    path_integrals,
    periods_of,
    quasiperiod_ratio_derivative,
    theta_constant_residuals,
    x_from_u,
)
from .elliptic import (
    ThetaChar,
    lattice_from_periods,
    sigma,
    sigma_char,
    theta_dOmega,
    theta_dz,
    zeta,
    zeta_jet,
)
from .errors import EllipTauError, ScenarioError
from .isomono import (
    _theta_checked,
    deformation_rhs,
    make_params,
    theoretical_monodromy,
)
from .monodromy import (
    _clearance as _loop_clearance,
    monodromy_matrices,
    sector_connection_residuals,
    trivial_loop_identity,
)
from .scenario import admissible_branches, check_stream
from .tau import (
    H_nu,
    H_t,
    sigma_shift_dlog_tau_dt,
    sigma_shift_tau,
    sigma_shift_trace_residual,
    log_tau,
    omega_a_de_component,
    residue_formula,
)

TWO_PI = 2.0 * math.pi


class CheckResult:
    """One check's record; status is pass, fail or inconclusive."""

    __slots__ = ("name", "status", "residual", "tolerance", "runtime_ms", "notes")

    def __init__(self, name, status, residual, tolerance, runtime_ms, notes=""):
        self.name, self.status, self.residual = name, status, residual
        self.tolerance, self.runtime_ms, self.notes = tolerance, runtime_ms, notes

    def __repr__(self):
        return f"CheckResult({self.name!r}, {self.status!r}, {self.residual!r})"

    @property
    def headroom(self):
        """log10(tolerance/residual); negative when the check fails."""
        r = self.residual
        if r == 0 or math.isinf(r):
            return math.inf if r == 0 else -math.inf
        return math.log10(self.tolerance / r)


class Report:
    """The verdict, the environment block, the CheckResults, and the self
    seconds of each shared stage."""

    __slots__ = ("overall", "environment", "results", "stage_s")

    def __init__(self, overall, environment, results, stage_s):
        self.overall, self.environment, self.results = overall, environment, results
        self.stage_s = stage_s

    def to_json_dict(self):
        def num(x):
            return f"{x:.17g}"

        return {
            "overall": self.overall,
            "environment": self.environment,
            "checks": [
                {
                    "name": r.name,
                    "status": r.status,
                    "residual": num(r.residual),
                    "tolerance": num(r.tolerance),
                    "headroom": num(r.headroom),
                    "runtime_ms": num(r.runtime_ms),
                    "notes": r.notes,
                }
                for r in self.results
            ],
            "stage_s": {k: num(v) for k, v in self.stage_s.items()},
        }


class CheckContext:
    """Lazily built shared state for a scenario's checks."""

    def __init__(self, scenario, draw_scale=1.0):
        self.scenario = scenario
        self.draw_scale = draw_scale
        self._cache = {}
        self._failed = {}
        self.stage_s = {}  # build seconds of each stage, its sub-stages excluded
        self._sub_s = 0.0

    def draws(self, base, minimum=2):
        return max(minimum, int(round(base * self.draw_scale)))

    def _get(self, key, builder):
        """Build a stage once.  A stage that raised stays failed: later
        requests re-raise the stored exception instead of rebuilding it."""
        if key in self._failed:
            raise self._failed[key]
        if key not in self._cache:
            outer, self._sub_s = self._sub_s, 0.0
            start = time.perf_counter()
            try:
                self._cache[key] = builder()
            except Exception as exc:
                self._failed[key] = exc
                raise
            finally:
                spent = time.perf_counter() - start
                self.stage_s[key] = spent - self._sub_s
                self._sub_s = outer + spent
        return self._cache[key]

    def failed_stage(self, exc):
        """The first stage whose build raised exc, or None."""
        return next((k for k, v in self._failed.items() if v is exc), None)

    @property
    def branch(self):
        return self._get("branch", lambda: self.scenario.branch)

    @property
    def params(self):
        s = self.scenario
        return self._get("params", lambda: make_params(
            self.branch, s.a, s.t, s.p, s.q))

    # phi, sol, coeffs and numM read the point's chain, each once the stage
    # before it exists, so that every link is built, and timed, as its own stage

    @property
    def phi(self):
        return self._get("phi", lambda: self.params.phi)

    @property
    def sol(self):
        self.phi
        return self._get("sol", lambda: self.params.sol)

    @property
    def coeffs(self):
        self.sol
        return self._get("coeffs", lambda: self.params.coeffs)

    @property
    def theory(self):
        return self._get("theory", lambda: theoretical_monodromy(self.params))

    @property
    def numerical_monodromy(self):
        self.coeffs
        with np.errstate(over="ignore", invalid="ignore"):  # Y can overflow at the domain edge
            return self._get("numM", lambda: monodromy_matrices(self.params))

    # the samples and rings that several checks read, each drawn from its own
    # stream: a check's residual does not depend on which other checks run

    @property
    def branch_samples(self):
        """The scenario's branch, then admissible draws, and their lattices as
        one batch lattice."""
        return self._get("branch_samples", lambda: _branch_samples(self))

    @property
    def branch_ring(self):
        """The e_nu rings of the sampled branches (centres, distances) and the
        lattices of all their nodes as one batch of shape (rings, RING_POINTS)."""
        return self._get("branch_ring", lambda: _branch_ring(self.branch_samples[0]))

    @property
    def neighbours(self):
        """Points of the scenario and of its admissible neighbours, and a note."""
        return self._get("neighbours", lambda: _admissible_neighbors(
            self, check_stream(self.scenario.seed, "neighbours")))

    @property
    def y1_moment(self):
        """The order-1 Cauchy moment of the hatted solution on 48 points at a,
        0.05 of the distance to the nearest branch point away."""
        a = self.params.a
        return self._get("y1_moment", lambda: ring_moments(
            self.sol.hatted, a, 0.05 * _clearance(self.branch, a, a), 48, (1,))[1])

    @property
    def residues(self):
        """Contour residues of tr A^2/2 at e1, e2, e3 and a, 64 points each, 0.05
        of the distance to the nearest other singular point away."""
        a = self.params.a
        return self._get("residues", lambda: [
            ring_moments(self.coeffs.trace_A2_half, s, 0.05 * _clearance(self.branch, a, s),
                         64, (-1,))[-1] for s in self.branch.es + (a,)])


def _random_lattice(rng):
    w1 = (0.6 + rng.uniform(0.0, 1.2)) * rng.unit_phase()
    Om = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.25, 1.8))
    return lattice_from_periods(w1, w1 * Om)


def _random_char(rng):
    def draw():
        while True:
            v = rng.uniform(0.05, 0.95)
            if abs(v - 0.5) >= 0.05:
                return v
    return ThetaChar(draw(), draw())


def _random_u(rng, lat):
    return (rng.uniform(0.08, 0.42) * lat.omega1
            + rng.uniform(0.08, 0.42) * lat.omega2)


def _lattice_and_u(rng):
    lat = _random_lattice(rng)
    return lat, _random_u(rng, lat)


def _draws(rng, count, draw):
    """count calls of draw(rng), in order, as columns: one tuple per item drawn."""
    return tuple(zip(*(draw(rng) for _ in range(count))))


def _batch(lats):
    """The lattices as one batch Lattice."""
    return lattice_from_periods(np.array([lat.omega1 for lat in lats]),
                                np.array([lat.omega2 for lat in lats]))


def _batch_char(chars):
    """The characteristics as one characteristic of arrays."""
    return ThetaChar(np.array([c.p for c in chars]), np.array([c.q for c in chars]))


def ring_moments(f, center, radius, n, orders):
    """Trapezoidal Cauchy moments (1/n) sum_j f(x_j) (x_j - center)^(-k), k in
    orders, over n equispaced x_j on |x - center| = radius; f is called once
    on all x_j.  Moment k estimates the Taylor coefficient of (x - center)^k
    (k = -1: the residue), spectrally for a ring well inside the nearest
    other singularity."""
    w = _ring_offsets(radius, n)
    values = f(center + w)
    return {k: np.tensordot(w ** -k, values, axes=(0, 0)) / n for k in orders}


def _ring_offsets(radius, n):
    """The offsets radius e^(2 pi i j/n), j < n, of a ring's nodes from its
    centre; radius a number or an array (then radius.shape + (n,))."""
    return np.asarray(radius)[..., None] * np.exp(2j * math.pi * np.arange(n) / n)


RING_POINTS = 4  # nodes of every derivative ring
RING_FRACTION = 1e-3  # its radius over the distance to the nearest singularity


def _ring_nodes(centers, distances):
    """The RING_POINTS nodes of each ring about centers (a number or an
    array), of radius RING_FRACTION times its distance, and their offsets
    from it: each of shape centers.shape + (RING_POINTS,)."""
    w = _ring_offsets(RING_FRACTION * np.asarray(distances), RING_POINTS)
    return np.asarray(centers)[..., None] + w, w


def ring_derivative(f, centers, distances, log=False):
    """df/dz at centers (a number or an array), and the estimate of each
    one's 2-point sub-ring (a central difference of step equal to the
    radius), from one call of f on the _ring_nodes of every ring, of radius
    RING_FRACTION times its distance, that from its centre to f's nearest
    singularity; all rings summed in one pass.  A log-valued f (log) has the
    jumps of its principal logs, multiples of i pi/4, taken out of the
    opposite-node differences D_0, D_1: D_1 - i D_0 is those jumps plus
    O(RING_FRACTION^3), however steep f is."""
    centers, radii = np.asarray(centers), RING_FRACTION * np.asarray(distances)
    nodes, w = _ring_nodes(centers, distances)
    # the node axis first; the offsets and radii then broadcast over f's values
    v = np.moveaxis(np.asarray(f(nodes)), centers.ndim, 0)
    lift = (1,) * (v.ndim - 1 - centers.ndim)
    w = np.moveaxis(w, -1, 0).reshape((RING_POINTS,) + centers.shape + lift)
    if log:
        k = (v[1] - v[3] - 1j * (v[0] - v[2])) / (0.25 * math.pi)
        v = v.copy()
        v[2] += 0.25j * math.pi * np.round(k.real)
        v[3] += 0.25j * math.pi * np.round(k.imag)
    half = RING_POINTS // 2
    m, m_sub = ((w ** -order * v).sum(axis=0) / RING_POINTS for order in (1, 1 - half))
    return m, m + m_sub / radii.reshape(centers.shape + lift) ** half


def _lattice_distance(lat, u):
    """Distance from u to the nearest lattice point."""
    u, w1, w2 = lat.reduce(u)[0], lat.omega1, lat.omega2
    return min(abs(u - m * w1 - n * w2) for m in (-1, 0, 1) for n in (-1, 0, 1))


def _ring(f, params, nus, log=False):
    """ring_derivative as t or e_nu moves, one ring per direction nu (0 for
    t), from one call of f on the point params.moved gives for all their
    nodes.  A t ring is sized by the zeros of theta[p,q](t/omega1), (1/2 - q)
    omega1 + (1/2 - p) omega2 modulo the lattice; an e_nu ring by the other
    singular points.  Returns (d, d_sub), one row per direction."""
    p, lat, nus = params, params.lat, np.array(nus)
    zero = (0.5 - p.char.q) * lat.omega1 + (0.5 - p.char.p) * lat.omega2
    centers = [p.t if nu == 0 else p.branch.es[nu - 1] for nu in nus]
    distances = [_lattice_distance(lat, c - zero) if nu == 0 else _clearance(p.branch, p.a, c)
                 for nu, c in zip(nus, centers)]
    return ring_derivative(lambda zs: f(p.moved(nus[:, None], zs - np.array(centers)[:, None])),
                           centers, distances, log)


def _clearance(branch, a, x):
    """Distance from x to the nearest other singular point: e_nu, or a unless None."""
    return min(abs(x - s) for s in branch.es + (a,) if s is not None and s != x)


# ---------------------------------------------------------------------------
# Elliptic identity checks
# ---------------------------------------------------------------------------


def check_legendre(ctx, rng):
    lats, us = _draws(rng, ctx.draws(20), _lattice_and_u)
    lat, u = _batch(lats), np.array(us)
    w1, w2, e1, e2 = lat.omega1, lat.omega2, lat.eta1, lat.eta2
    z0, z1, z2 = zeta(lat, np.stack([u, u + w1, u + w2]))
    worst = max(np.max(np.abs(e1 * w2 - e2 * w1 - 2j * math.pi)) / TWO_PI,
                np.max(np.abs(z1 - z0 - e1) / np.maximum(1.0, np.abs(e1))),
                np.max(np.abs(z2 - z0 - e2) / np.maximum(1.0, np.abs(e2))))
    return float(worst), "normalization plus zeta-increment cross-check"


def check_heat_equation(ctx, rng):
    Om, z, chars = [], [], []
    for i in range(10):
        for j in range(ctx.draws(10)):
            Om.append(complex(-0.4 + 0.08 * i, 0.3 + 0.15 * j))
            z.append(complex(-0.5 + 0.1 * i, -0.3 + 0.07 * j))
            chars.append(_random_char(rng))
    ch, z, Om = _batch_char(chars), np.array(z), np.array(Om)
    lhs = theta_dz(ch, z, Om, 2)
    rhs = 4j * math.pi * theta_dOmega(ch, z, Om)
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-30))
    return float(worst), "second z-derivative vs 4 pi i Omega-derivative"


def check_wp_ode(ctx, rng):
    lats, us = _draws(rng, ctx.draws(20), _lattice_and_u)
    lat, u = _batch(lats), np.array(us)
    _, w, w1 = (-z for z in zeta_jet(lat, u, 2))  # wp = -zeta', wp' = -zeta''
    res = w1 * w1 - (4.0 * w**3 - lat.g2 * w - lat.g3)
    scale = np.maximum(np.maximum(np.abs(w1 * w1), np.abs(4 * w**3)), 1e-30)
    return float(np.max(np.abs(res) / scale)), "wp'^2 = 4 wp^3 - g2 wp - g3"


def check_wp_addition(ctx, rng):
    lats, us = _draws(rng, ctx.draws(20), _lattice_and_u)
    lat, u = _batch(lats), np.array(us)
    # wp, wp', wp'' at u and wp at 2u, of one jet at both
    _, (w, lhs), (w1, _), (w2, _) = (-z for z in zeta_jet(lat, np.stack([u, 2 * u]), 3))
    rhs = -2.0 * w + 0.25 * (w2 / w1) ** 2
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0))
    return float(worst), "duplication wp(2u) = -2 wp + (wp''/wp')^2/4"


def check_wp_triple(ctx, rng):
    lats, us = _draws(rng, ctx.draws(20), _lattice_and_u)
    lat, u = _batch(lats), np.array(us)
    _, w, w1, _, lhs = (-z for z in zeta_jet(lat, u, 4))  # wp, wp' and wp'''
    rhs = 12.0 * w * w1
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0))
    return float(worst), "wp''' = 12 wp wp'"


def check_quasi_periodicity(ctx, rng):
    def draw(rng):
        lat = _random_lattice(rng)
        ch = _random_char(rng)
        return lat, ch, _random_u(rng, lat)

    lats, chars, us = _draws(rng, ctx.draws(100, minimum=10), draw)
    lat, ch, u = _batch(lats), _batch_char(chars), np.array(us)
    s0, s1, s2 = sigma_char(lat, ch, np.stack([u, u + lat.omega1, u + lat.omega2]))
    worst = 0.0
    for lhs, w, eta, phase in ((s1, lat.omega1, lat.eta1, 2j * math.pi * ch.p),
                               (s2, lat.omega2, lat.eta2, -2j * math.pi * ch.q)):
        rhs = np.exp(phase) * np.exp(eta * (u + w / 2.0)) * s0
        worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-30)))
    return float(worst), "both period shifts of sigma[p,q]"


def check_sigma_homogeneity(ctx, rng):
    def draw(rng):
        lat = _random_lattice(rng)
        lam = (0.5 + rng.uniform(0.0, 1.5)) * rng.unit_phase()
        lat2 = lattice_from_periods(lam * lat.omega1, lam * lat.omega2)
        return lat, lat2, lam, _random_u(rng, lat)

    lats, lat2s, lams, us = _draws(rng, ctx.draws(20), draw)
    lam, u = np.array(lams), np.array(us)
    # the drawn lattices, then the scaled ones, in one batch
    plain, scaled = np.split(sigma(_batch(lats + lat2s), np.concatenate([u, lam * u])), 2)
    rhs = lam * plain
    worst = np.max(np.abs(scaled - rhs) / np.maximum(np.abs(rhs), 1e-30))
    return float(worst), "sigma(lu; lw1, lw2) = l sigma(u; w1, w2)"


# ---------------------------------------------------------------------------
# Branch-derivative checks
# ---------------------------------------------------------------------------


def _branch_samples(ctx):
    """The scenario's branch, then ctx.draws(9) admissible draws, from the
    stream named branch_samples, and their lattices as one batch lattice."""
    rng = check_stream(ctx.scenario.seed, "branch_samples")
    draws = admissible_branches(rng, ctx.draws(9, minimum=1))
    return [ctx.branch, *draws], _batch([ctx.params.lat, *(b.lattice for b in draws)])


def _branch_ring(branches):
    """(centers, distances, lat): the e1, e2, e3 rings of each branch, sized
    by its other branch points, and the lattices of all their nodes, from
    one periods_of call, as one batch lattice."""
    keys = [(b, nu) for b in branches for nu in (1, 2, 3)]
    centers = np.array([b.es[nu - 1] for b, nu in keys])
    distances = [_clearance(b, None, e) for (b, _), e in zip(keys, centers)]
    nodes, _ = _ring_nodes(centers, distances)
    lats = periods_of([b.moved(nu, z - e)
                       for (b, nu), e, zs in zip(keys, centers, nodes) for z in zs])
    return centers, distances, _batch(lats)


def check_theta_constants(ctx, rng):
    r1, r2 = theta_constant_residuals(*ctx.branch_samples)
    return (float(max(r1.max(), r2.max())),
            "odd theta-constant identities vs geometric quasi-period")


def _branch_derivative_residual(ctx, value, closed):
    """Worst miss of closed(b, lat, nu) = d value(lattice)/de_nu against its
    ring derivative over the sampled branches.  The ring nodes are the
    context's shared branch ring; closed runs on the samples as one batch
    configuration and lattice, one call per nu."""
    branches, lat = ctx.branch_samples
    centers, distances, nodes_lat = ctx.branch_ring
    d = ring_derivative(lambda nodes: value(nodes_lat).reshape(nodes.shape),
                        centers, distances)[0].reshape(-1, 3).T
    batch = BranchConfig(*np.array([b.es for b in branches]).T)
    cls = [closed(batch, lat, nu) for nu in (1, 2, 3)]
    return float(np.max(np.abs(d - cls) / np.maximum(np.abs(cls), 1e-30)))


def check_domega_de(ctx, rng):
    return (_branch_derivative_residual(ctx, lambda lat: lat.Omega, dOmega_de),
            "closed form vs ring derivative")


def check_dlog_omega1_de(ctx, rng):
    # the ring differences omega1, not its log
    return (_branch_derivative_residual(
                ctx, lambda lat: lat.omega1,
                lambda b, lat, nu: lat.omega1 * dlog_omega1_de(b, lat, nu)),
            "closed form vs ring derivative")


def check_quasiperiod_ratio_derivative(ctx, rng):
    t = ctx.scenario.t if abs(ctx.scenario.t) > 1e-3 else 0.1
    return (_branch_derivative_residual(
                ctx, lambda lat: t * t * lat.eta1 / (2.0 * lat.omega1),
                lambda b, lat, nu: quasiperiod_ratio_derivative(b, lat, nu, t)),
            "eta1 t^2/(2 omega1): closed form vs ring derivative")


def check_abel_roundtrip(ctx, rng):
    b, lat = ctx.branch, ctx.params.lat
    xs, draws = [], ctx.draws(50, minimum=8)
    for _ in range(draws):
        x = b.centroid + rng.complex_box(-2.0, 2.0) * b.scale
        if min(abs(x - e) for e in b.es) < 0.05 * b.scale:
            continue
        if b.distance_to_cuts(x) < 1e-3 * b.scale:
            continue
        xs.append(x)
    x = np.array(xs)
    u = np.array([u for u, _ in abel_values(b, xs)])
    worst = np.max(np.abs(x_from_u(b, lat, u) - x) / np.maximum(np.abs(x), 1.0), initial=0.0)
    return float(worst), f"inversion x(u(x)) = x; {len(xs)} of {draws} draws kept"


def check_periods_scaling(ctx, rng):
    b, lat = ctx.branch, ctx.params.lat
    moves = [((0.5 + rng.uniform(0.0, 1.0)) * rng.unit_phase(), rng.complex_box(-1.0, 1.0))
             for _ in range(ctx.draws(4, minimum=1))]  # (lambda, c): a scaling, a translation
    lats = periods_of([BranchConfig(*es) for lam, c in moves
                       for es in ([lam * e for e in b.es], [e + c for e in b.es])])
    worst = 0.0
    for (lam, _), lat_s, lat_t in zip(moves, lats[::2], lats[1::2]):
        # dx/y scales by lambda^{-1/2}; compare the ratio squared to kill the
        # orientation-dependent square-root sign
        ratio_sq = (lat_s.omega1 / lat.omega1) ** 2 * lam
        worst = max(worst, abs(ratio_sq - 1.0))
        worst = max(worst, abs(lat_t.omega1 - lat.omega1) / abs(lat.omega1))
        worst = max(worst, abs(lat_t.omega2 - lat.omega2) / abs(lat.omega2))
    return worst, "sqrt-scaling law and translation invariance"


# ---------------------------------------------------------------------------
# Explicit-solution checks
# ---------------------------------------------------------------------------


def check_phi_transformation(ctx, rng):
    phi, lat = ctx.phi, ctx.params.lat
    us = np.array([_random_u(rng, lat) + 0.03 * lat.omega1
                   for _ in range(ctx.draws(20, minimum=5))])
    ms = phi.matrix(np.stack([us, us + lat.omega1, us + lat.omega2]))
    rhs = ms[0] @ np.stack([phi.gamma_multiplier(us), phi.delta_multiplier(us)])
    worst = np.max(np.max(np.abs(ms[1:] - rhs), axis=(2, 3)) / np.max(np.abs(rhs), axis=(2, 3)))
    return float(worst), "both cycle transformations of the row functions"


def check_det_phi_zeros(ctx, rng):
    r = ctx.phi.rows(list(ctx.params.half_periods.omega_tilde) + [0j])
    (r11, r12), (r21, r22) = r.hat
    worst = np.max(np.abs(r.det) / np.maximum(np.abs(r11 * r22) + np.abs(r12 * r21), 1e-30))
    return float(worst), "det Phi vanishes at the four branch places (relative to its terms)"


def check_y_normalization(ctx, rng):
    a = ctx.params.a
    mom = ring_moments(ctx.sol.hatted, a, 0.02 * _clearance(ctx.branch, a, a), 32, (0,))
    res = float(np.max(np.abs(mom[0] - np.eye(2))))
    return res, "ring average of Y exp(-T) minus identity"


def check_y1_closed_form(ctx, rng):
    Y1 = ctx.sol.y1_closed_form()
    res = float(np.max(np.abs(ctx.y1_moment - Y1)) / max(1.0, float(np.max(np.abs(Y1)))))
    return res, "Cauchy-moment extraction vs closed form"


# ---------------------------------------------------------------------------
# ODE and monodromy checks
# ---------------------------------------------------------------------------


def check_ode_residual(ctx, rng):
    b, a = ctx.branch, ctx.params.a
    # the centre: of 8 points 1.3 spreads out, the clearest of the singular points
    center = max((b.centroid + 1.3 * b.scale * cmath.exp(2j * math.pi * (k + 0.5) / 8)
                  for k in range(8)), key=lambda c: _clearance(b, a, c))
    radius = 0.1 * b.scale
    n = ctx.draws(8, minimum=4)
    xs = [center + radius * cmath.exp(2j * math.pi * j / n) for j in range(n)]
    u0, y0 = np.array(abel_values(b, xs)).T
    distances = [min(_clearance(b, a, x), b.distance_to_cuts(x)) for x in xs]
    # each ring stays within 1e-3 of the distance to the cuts, so u and y
    # continue from its centre to each node along a straight chord; Y at the
    # centres and the nodes comes from one y_at call
    nodes, _ = _ring_nodes(np.array(xs), distances)
    ends = path_integrals([[Line(x, z)] for x, zs in zip(xs, nodes) for z in zs],
                          [b] * nodes.size, np.repeat(y0, RING_POINTS))
    us = u0[:, None] + np.reshape([du for du, _ in ends], nodes.shape)
    Ys = ctx.sol.y_at(np.column_stack([xs, nodes]), np.column_stack([u0, us]))
    dYs, _ = ring_derivative(lambda _: Ys[:, 1:], xs, distances)
    lhs = dYs @ np.linalg.inv(Ys[:, 0])
    rhs = ctx.coeffs.A_of(np.array(xs)[:, None, None])
    worst = np.max(np.max(np.abs(lhs - rhs), axis=(1, 2))
                   / np.maximum(1.0, np.max(np.abs(rhs), axis=(1, 2))))
    return float(worst), "Y'Y^{-1} vs the rational coefficient matrix"


def _overflowed(worst, notes):
    """(worst, notes), or residual inf with a note when a continued Y overflowed."""
    return (worst, notes) if math.isfinite(worst) else (math.inf, notes + "; Y overflowed")


def check_monodromy_match(ctx, rng):
    nums, offsets = ctx.numerical_monodromy
    worst = float(np.max([np.abs(M - ctx.theory.M[which]) for which, M in nums.items()]))
    return _overflowed(worst, f"loop frame offsets {offsets}")


def check_cyclic_relation(ctx, rng):
    nums, _ = ctx.numerical_monodromy
    with np.errstate(over="ignore", invalid="ignore"):
        prod = nums[3] @ nums[2] @ nums[1] @ nums["inf"]
    worst = float(np.max([np.max(np.abs(prod - np.eye(2))), trivial_loop_identity(ctx.params)]))
    return _overflowed(worst, "M3 M2 M1 M_inf = 1 and a contractible loop")


def check_stokes_triviality(ctx, rng):
    ctx.coeffs  # the point's chain, timed as its stages
    res = max(sector_connection_residuals(ctx.params))
    notes = "sectorial connection matrices vs identity"
    return res, notes + ("; the half turn overflowed" if math.isinf(res) else "")


def check_monodromy_invariance(ctx, rng):
    # t, e1, e2 and e3 moved by delta as one batch point on the base point's
    # loops; a tenth of their clearance keeps every moved pole off the loops
    nums, _ = ctx.numerical_monodromy
    delta = min(1e-3, 0.1 * _loop_clearance(ctx.params))
    family = _theta_checked(ctx.params.moved(np.arange(4), delta))
    with np.errstate(over="ignore", invalid="ignore"):  # Y can overflow at the domain edge
        moved, _ = monodromy_matrices(family)
        worst = float(np.max([np.abs(moved[which] - M) for which, M in nums.items()]))
    return _overflowed(worst, f"drift under {delta:.2g} moves of t, e1, e2, e3 "
                              "on the base point's loops")


def deformation_ring(params, nus):
    """Ring derivatives of (A_1, A_2, A_3) as t (nu = 0) or e_nu moves, one
    row per direction nu, and those of the 2-point sub-ring, from one
    coefficient build on the batch point of all their nodes."""
    return _ring(lambda q: np.stack([q.coeffs.A[nu] for nu in (1, 2, 3)], axis=-3),
                 params, nus)


def check_deformation_equation(ctx, rng):
    worst, ratios = 0.0, []
    ctx.coeffs  # the base point's chain, timed as its stages
    for rho, *dAs in zip((0, 1, 2), *deformation_ring(ctx.params, (0, 1, 2))):
        rhs = deformation_rhs(ctx.params, rho)
        r, r_sub = (float(np.max(np.abs(dA - rhs))) for dA in dAs)
        worst = max(worst, r)
        ratios.append(r_sub / max(r, 1e-30))
    if any(r < 1.5 for r in ratios):
        return worst, f"no gain over the 2-point sub-ring (ratios {ratios})", "inconclusive"
    return worst, f"paired reading; sub-ring ratios {['%.1e' % r for r in ratios]}"


# ---------------------------------------------------------------------------
# Tau-function checks
# ---------------------------------------------------------------------------


def check_residue_identity(ctx, rng):
    worst = 0.0
    for nu, num in zip((1, 2, 3), ctx.residues):
        worst = max(worst, abs(num - residue_formula(ctx.params, nu))
                    / max(1.0, abs(num)))
    return worst, "analytic seven-term value vs contour residue of tr A^2/2"


def check_residue_sum_rule(ctx, rng):
    # tr A^2/2 = O(1/x^2) at infinity, so the finite residues sum to zero
    return abs(sum(ctx.residues)), "finite residues sum to zero"


def _admissible_neighbors(ctx, rng):
    """Params of the scenario point and of the admissible ones of 4 mild moves
    of (t, e), whose periods come from one call on their configurations, each
    built once; and a note of their count."""
    s, count = ctx.scenario, ctx.draws(4, minimum=1)
    moves = [(tuple(e + 0.08 * ctx.branch.scale * rng.complex_box() for e in ctx.branch.es),
              s.t + 0.05 * rng.complex_box()) for _ in range(count)]
    points = []
    for es, t in moves:
        try:
            points.append((BranchConfig(*es), t))
        except EllipTauError:
            continue
    try:
        periods_of([b for b, _ in points])
    except EllipTauError:
        pass  # each move below then computes alone and fails alone
    out = [ctx.params]
    for b, t in points:
        try:
            out.append(make_params(b, s.a, t, s.p, s.q))
        except EllipTauError:
            continue
    return out, f"{len(out) - 1} of {count} neighbours"


def check_dlogtau_dt(ctx, rng):
    worst = gap = 0.0
    points, used = ctx.neighbours
    for p in points:
        v = H_t(p)
        (d,), (d_sub,) = _ring(log_tau, p, [0], log=True)
        worst = max(worst, abs(v - d) / max(1.0, abs(v)))
        gap = max(gap, abs(d - d_sub))
    return worst, f"sub-ring gap {gap:.2e}; {used}"


def check_dlogtau_de(ctx, rng):
    worst = 0.0
    points, used = ctx.neighbours
    for p in points:
        ds, _ = _ring(log_tau, p, [1, 2, 3], log=True)
        for nu, d in zip((1, 2, 3), ds):
            v = H_nu(p, nu)
            worst = max(worst, abs(v - d) / max(1.0, abs(v)))
    return worst, f"H_nu vs branch-continuous ring derivatives of log tau; {used}"


def check_omega_closedness(ctx, rng):
    def H(q):  # the 1-form's components (H_t, H_1, H_2, H_3) at q, last
        return np.stack([H_t(q)] + [H_nu(q, nu) for nu in (1, 2, 3)], axis=-1)
    # dH[i][j]: the derivative of component j along t (i = 0) or e_i
    dH, _ = _ring(H, ctx.params, range(4))
    worst = max(abs(dH[j][i] - dH[i][j]) / max(1.0, abs(dH[j][i]))
                for i in range(4) for j in range(i + 1, 4))
    return worst, "all six mixed partials of the 1-form"


def check_hamiltonian_cross(ctx, rng):
    worst = 0.0
    for nu, res in zip((1, 2, 3), ctx.residues):
        lhs = H_nu(ctx.params, nu)
        rhs = res + omega_a_de_component(ctx.params, nu)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return float(worst), ("five-term closed form vs contour residue of tr A^2/2 plus "
                          "irregular-point part")


def check_h_t_residue_oracle(ctx, rng):
    p = ctx.params
    mom = ctx.y1_moment
    wp1 = p.wp_a.wp_prime
    lhs = wp1 * 0.5 * (mom[0, 0] - mom[1, 1])
    rhs = H_t(p)
    return abs(lhs - rhs) / max(1.0, abs(rhs)), \
        "residue definition via Cauchy moments vs closed form"


# ---------------------------------------------------------------------------
# Zero-sum special-case checks
# ---------------------------------------------------------------------------


def _shift_point(ctx):
    """The scenario point, or that point at t = 0.1 when |t| <= 1e-3."""
    p = ctx.params
    return p if abs(p.t) > 1e-3 else p._replace(t=0.1)


def check_shifted_tau_at_zero(ctx, rng):
    worst, q = 0.0, ctx.params._replace(t=0.0)
    for l in (-1, 1, 2):
        lhs = sigma_shift_tau(q, l)
        rhs = sigma(q.lat, 2 * l * q.alpha)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst, "tau_l(0) = sigma(2 l alpha)"


def check_shifted_tau_dlog(ctx, rng):
    worst, q = 0.0, _shift_point(ctx)
    for l in (-1, 0, 1, 2):
        d, _ = ring_derivative(
            lambda ts: np.log(sigma_shift_tau(q._replace(t=ts), l)),
            q.t, _lattice_distance(q.lat, q.t + 2 * l * q.alpha), log=True)  # tau_l zeros
        cl = sigma_shift_dlog_tau_dt(q, l)
        worst = max(worst, abs(cl - d) / max(1.0, abs(cl)))
    return worst, "closed d/dt log tau_l vs ring derivative, l in {-1,0,1,2}"


def check_shifted_tau_trace(ctx, rng):
    worst = np.max(sigma_shift_trace_residual(_shift_point(ctx), np.arange(-1, 3)))
    return float(worst), "wp' tr(Y1 diag(1/2,-1/2)) vs d/dt log tau_l"


def check_shifted_tau_cross_family(ctx, rng):
    # identify sigma[p,q] with the 2 l alpha shift: the multipliers match for
    # p = 1/2 + eta1 l alpha / (pi i), q = 1/2 - eta2 l alpha / (pi i)
    q, l = _shift_point(ctx), 1
    lat, al = q.lat, q.alpha
    pc = 0.5 + lat.eta1 * l * al / (1j * math.pi)
    qc = 0.5 - lat.eta2 * l * al / (1j * math.pi)
    main = q._replace(char=ThetaChar(pc, qc))
    distance = _lattice_distance(lat, q.t + 2 * l * al)  # to a zero of sigma(t + 2 l alpha)
    d2_main, _ = ring_derivative(lambda ts: H_t(main._replace(t=ts)), q.t, distance)
    d2_app, _ = ring_derivative(lambda ts: sigma_shift_dlog_tau_dt(q._replace(t=ts), l),
                                q.t, distance)
    return abs(d2_main - d2_app) / max(1.0, abs(d2_app)), \
        "second t-derivatives of log tau agree across the two constructions"


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

# name -> (check, suite, default tolerance); a suite runs its checks in this order
CHECKS = {
    "legendre": (check_legendre, "elliptic", 1e-10),
    "heat_equation": (check_heat_equation, "elliptic", 1e-9),
    "wp_ode": (check_wp_ode, "elliptic", 1e-9),
    "wp_addition": (check_wp_addition, "elliptic", 1e-9),
    "wp_triple": (check_wp_triple, "elliptic", 1e-9),
    "quasi_periodicity": (check_quasi_periodicity, "elliptic", 1e-10),
    "sigma_homogeneity": (check_sigma_homogeneity, "elliptic", 1e-10),
    "theta_constants": (check_theta_constants, "branch", 1e-6),
    "domega_de": (check_domega_de, "branch", 1e-6),
    "dlog_omega1_de": (check_dlog_omega1_de, "branch", 1e-6),
    "quasiperiod_ratio_derivative": (check_quasiperiod_ratio_derivative, "branch", 1e-6),
    "abel_roundtrip": (check_abel_roundtrip, "branch", 1e-9),
    "periods_scaling": (check_periods_scaling, "branch", 1e-10),
    "phi_transformation": (check_phi_transformation, "solution", 1e-9),
    "det_phi_zeros": (check_det_phi_zeros, "solution", 1e-8),
    "y_normalization": (check_y_normalization, "solution", 1e-8),
    "y1_closed_form": (check_y1_closed_form, "solution", 1e-7),
    "ode_residual": (check_ode_residual, "monodromy", 1e-7),
    "monodromy_match": (check_monodromy_match, "monodromy", 1e-6),
    "cyclic_relation": (check_cyclic_relation, "monodromy", 1e-6),
    "stokes_triviality": (check_stokes_triviality, "monodromy", 1e-6),
    "monodromy_invariance": (check_monodromy_invariance, "monodromy", 1e-6),
    "deformation_equation": (check_deformation_equation, "monodromy", 1e-5),
    "residue_identity": (check_residue_identity, "tau", 1e-6),
    "residue_sum_rule": (check_residue_sum_rule, "tau", 1e-7),
    "dlogtau_dt": (check_dlogtau_dt, "tau", 1e-6),
    "dlogtau_de": (check_dlogtau_de, "tau", 1e-6),
    "omega_closedness": (check_omega_closedness, "tau", 1e-5),
    "hamiltonian_cross": (check_hamiltonian_cross, "tau", 1e-7),
    "h_t_residue_oracle": (check_h_t_residue_oracle, "tau", 1e-6),
    "shifted_tau_at_zero": (check_shifted_tau_at_zero, "shifted", 1e-12),
    "shifted_tau_dlog": (check_shifted_tau_dlog, "shifted", 1e-7),
    "shifted_tau_trace": (check_shifted_tau_trace, "shifted", 1e-7),
    "shifted_tau_cross_family": (check_shifted_tau_cross_family, "shifted", 1e-6),
}

SUITES = {}
for _name, (_, _suite, _) in CHECKS.items():
    SUITES.setdefault(_suite, []).append(_name)


def resolve_check_names(names):
    """Expand suite names, validate, and return the ordered unique list."""
    if not names:
        return list(CHECKS)
    out = []
    for n in names:
        if n in SUITES:
            out.extend(SUITES[n])
        elif n in CHECKS:
            out.append(n)
        else:
            raise ScenarioError(f"unknown check identifier: {n!r}")
    return list(dict.fromkeys(out))


def _installed_version(dist):
    """Version of an installed distribution, or None: the Version line of the
    first dist-info METADATA of dist on sys.path (dist-*.dist-info in name
    order), read without importing the distribution or importlib.metadata
    (whose import costs about 20 ms)."""
    for entry in sys.path:
        try:
            names = sorted(d.name for d in os.scandir(entry or ".")
                           if d.name.startswith(dist + "-") and d.name.endswith(".dist-info"))
        except OSError:  # not a directory
            continue
        for name in names:
            try:
                with open(os.path.join(entry or ".", name, "METADATA"), encoding="utf-8") as meta:
                    return next((line.partition(":")[2].strip() for line in meta
                                 if line.startswith("Version:")), None)
            except FileNotFoundError:
                continue
    return None


def _platform_name():
    """platform.platform(), built on Linux from the system, release, machine
    and libc with its clean-up rules: there it would also read the processor
    through a `uname -p` subprocess (about 6.5 ms), a field it drops when
    blank, unknown or equal to the machine."""
    system = platform.system()
    if system != "Linux":
        return platform.platform()
    libc, version = platform.libc_ver()
    name = "-".join(x.strip() for x in (system, platform.release(), platform.machine(),
                                        "with", libc + version) if x)
    name = name.replace(" ", "_")
    for c in '/\\:;"()':
        name = name.replace(c, "-")
    name = name.replace("unknown", "")
    while "--" in name:
        name = name.replace("--", "-")
    return name.rstrip("-")


def run_checks(scenario, checks=None, tol_scale=1.0, draw_scale=1.0):
    """Run the selected checks and assemble the report.

    Checks come from `checks` when given, else from the scenario, else all.
    Each runs in isolation with its own seeded stream; tolerances are the
    registry defaults, overridden per-name by the scenario, then scaled.  A
    scenario tolerance for a name that is no check raises ScenarioError.
    """
    unknown = sorted(set(scenario.tolerances) - set(CHECKS))
    if unknown:
        raise ScenarioError(f"tolerances name unknown checks: {unknown}")
    names = resolve_check_names(list(checks) if checks is not None
                                else list(scenario.checks))
    ctx = CheckContext(scenario, draw_scale=draw_scale)
    results = []
    for name in names:
        fn, _, default_tol = CHECKS[name]
        tol = tol_scale * float(scenario.tolerances.get(name, default_tol))
        rng = check_stream(scenario.seed, name)
        start = time.perf_counter()
        try:
            residual, notes, *verdict = fn(ctx, rng)
            status = (verdict[0] if verdict else "pass") if residual < tol else "fail"
        except Exception as exc:  # isolation: a crash is a failed check
            stage = ctx.failed_stage(exc)
            where = f" in stage {stage!r}" if stage is not None else ""
            residual, status = math.inf, "fail"
            notes = f"error: {type(exc).__name__}{where}: {exc}"
        ms = 1000.0 * (time.perf_counter() - start)
        results.append(CheckResult(name, status, residual, tol, ms, notes))
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    env = {"precision": "float64/complex128", "version": __version__,
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": _installed_version("scipy"), "platform": _platform_name(),
           "seed": scenario.seed}
    return Report(overall=overall, environment=env, results=results,
                  stage_s=ctx.stage_s)
