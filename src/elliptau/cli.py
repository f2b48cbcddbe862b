"""Command-line entry points: verify, tau, monodromy.

verify runs the selected oracle checks against a scenario and writes one
JSON report (numbers serialized as 17-significant-digit decimal strings),
whose environment block names the scenario by the SHA-256 of the bytes
that were parsed, from CPython's built-in _sha256 (hashlib, which loads
OpenSSL, only where that module is missing).
tau sweeps the deformation time over a grid and emits CSV with the
branch-continuous log tau and the Hamiltonian, evaluated on arrays of
TAU_CHUNK grid points.  monodromy prints one numerically continued 2x2
monodromy matrix.

Exit codes: 0 all selected checks pass (tau: every row finite), 1 at least
one failed (tau: a nan row, summarized on stderr), 2 configuration or
scenario error, an --out that cannot be written among them (checked first).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .checks import run_checks
from .errors import EllipTauError, ScenarioError
from .elliptic import ThetaChar
from .isomono import DeformationParams, make_params, theta_zero_errors
from .monodromy import base_point, monodromy_matrices
from .scenario import load_scenario, read_scenario
from .tau import H_t, log_tau

TAU_CHUNK = 1024  # grid points per array evaluation: memory is O(TAU_CHUNK)
TWO_PI = 2.0 * math.pi


def _parse_grid(spec):
    """(start, step, n) of a t=start:stop:step grid; its k-th point is
    start + k * step, formed only when its chunk is evaluated."""
    try:
        var, rng = spec.split("=", 1)
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError as exc:
        raise ScenarioError(
            f"grid must look like t=start:stop:step, got {spec!r}") from exc
    if var.strip() != "t":
        raise ScenarioError(f"only a t-grid is supported, got {var!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ScenarioError(f"grid start, stop and step must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise ScenarioError("grid step must be positive and stop >= start")
    if not math.isfinite((stop - start) / step):
        raise ScenarioError("grid start, stop and step must be finite, and so must "
                            f"their point count (stop - start) / step, got {spec!r}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start, step, n


def _check_writable(path):
    """Raise a configuration error unless path opens for writing; a file the
    probe makes is removed again."""
    fresh = not os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if fresh:
        os.remove(path)


def _cmd_verify(args):
    for flag, value in (("--tol-scale", args.tol_scale),
                        ("--draw-scale", args.draw_scale)):
        if not (math.isfinite(value) and value > 0):
            raise ScenarioError(f"{flag} must be a positive finite number, got {value}")
    scenario, digest = read_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario._replace(seed=args.seed)
    checks = args.checks.split(",") if args.checks else None
    report = run_checks(scenario, checks=checks, tol_scale=args.tol_scale,
                        draw_scale=args.draw_scale)
    report.environment["scenario_sha256"] = digest
    report.environment["argv"] = args.argv
    payload = report.to_json_dict()
    # written over the old report and cut at its end: truncating on open
    # would wait for the old report's pages to be written back first
    with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
        fh.truncate()
    for r in report.results:
        print(f"{r.status.upper():12s} {r.name:32s} residual "
              f"{r.residual:9.3e}  tol {r.tolerance:8.1e}  {r.runtime_ms:8.1f} ms")
    print(f"overall: {report.overall}  (report written to {args.out})")
    return 0 if report.overall == "pass" else 1


def _tau_rows(point, ts):
    """Re and Im of log tau and of H_t at the times ts, as the four rows of an
    array, from one theta jet at point with those times, and by index the
    errors of the rows that failed: theta[p,q](t/omega1) at a zero, or a value
    that is not finite."""
    params = point._replace(t=ts.astype(complex))
    with np.errstate(divide="ignore", invalid="ignore"):  # a row at a zero fails
        lt, ht = log_tau(params), H_t(params)
    errors = theta_zero_errors(params)
    for k in np.flatnonzero(~(np.isfinite(lt) & np.isfinite(ht))).tolist():
        errors.setdefault(k, EllipTauError("log tau or H_t is not finite"))
    return np.array([lt.real, lt.imag, ht.real, ht.imag]), errors


def _unwrap(im, prev):
    """im with whole turns of 2 pi added so that each value lies within pi of
    the one before, prev before im[0]; a value after a nan keeps its bits."""
    x = np.concatenate(([np.nan, prev], im))
    back = x[:-1] - x[1:]  # the value before minus the value, nan after a nan
    linked = np.isfinite(back)
    turns = np.cumsum(np.where(linked, np.rint(back / TWO_PI), 0.0))
    turns -= turns[np.maximum.accumulate(np.where(linked, 0, np.arange(back.size)))]
    return np.where(linked, x[1:] + TWO_PI * turns, x[1:])[1:]


def _cmd_tau(args):
    s = load_scenario(args.scenario)
    t0, step, n = _parse_grid(args.grid)
    try:  # the lattice is built once; if that fails, every row does
        b = s.branch
        point = DeformationParams(b, b.lattice, s.a, 0j, ThetaChar(s.p, s.q))
    except EllipTauError as exc:
        point, stage_error = None, exc
    out = open(args.out, "w") if args.out else sys.stdout
    write = out.write
    failed, first, im = 0, None, [math.nan]  # im: Im log tau of the chunk before
    try:
        write("t,re_log_tau,im_log_tau,re_H_t,im_H_t\n")
        for lo in range(0, n, TAU_CHUNK):
            ts = t0 + np.arange(lo, min(n, lo + TAU_CHUNK)) * step
            if point is None:  # every row fails, so every value is set to nan below
                cols, errors = np.empty((4, ts.size)), dict.fromkeys(range(ts.size), stage_error)
            else:
                cols, errors = _tau_rows(point, ts)
            if errors:  # a failed row prints nan
                k = min(errors)
                failed, first = failed + len(errors), first or (ts[k], errors[k])
                cols[:, list(errors)] = np.nan
            cols[1] = im = _unwrap(cols[1], im[-1])  # the log branch stays continuous
            for row in zip(ts.tolist(), *cols.tolist()):
                write("%.12g,%.17g,%.17g,%.17g,%.17g\n" % row)
    finally:
        if args.out:
            out.close()
    if failed:
        t, exc = first
        print(f"tau: {failed}/{n} rows failed; first at t={t:.12g}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_monodromy(args):
    s = load_scenario(args.scenario)
    which = int(args.loop) if args.loop != "inf" else "inf"
    mats, offsets = monodromy_matrices(make_params(s.branch, s.a, s.t, s.p, s.q),
                                       (which,))
    print(f"# loop {args.loop} around "
          f"{'infinity' if which == 'inf' else s.branch.es[which - 1]}, "
          f"base point {base_point(s.branch)}, frame offset {offsets[which]}")
    for row in mats[which]:
        print("  ".join(f"{z.real:+.12e}{z.imag:+.12e}j" for z in row))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="elliptau",
        description="Verification harness for the rank-one irregular "
                    "isomonodromic family on a genus-one curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run oracle checks, write a JSON report")
    pv.add_argument("--scenario", required=True)
    pv.add_argument("--checks", default=None,
                    help="comma-separated check or suite names")
    pv.add_argument("--tol-scale", type=float, default=1.0)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--draw-scale", type=float, default=1.0,
                    help="scale factor for randomized draw counts")
    pv.add_argument("--out", required=True)
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("tau", help="CSV sweep of log tau and H_t over a t-grid")
    pt.add_argument("--scenario", required=True)
    pt.add_argument("--grid", required=True, help="t=start:stop:step")
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=_cmd_tau)

    pm = sub.add_parser("monodromy", help="print one monodromy matrix")
    pm.add_argument("--scenario", required=True)
    pm.add_argument("--loop", required=True, choices=["1", "2", "3", "inf"])
    pm.set_defaults(fn=_cmd_monodromy)

    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if getattr(args, "out", None):  # before any check runs or any row is written
            _check_writable(args.out)
        return args.fn(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EllipTauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
