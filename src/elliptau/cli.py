"""Command-line entry points: verify, tau, monodromy.

verify runs the selected oracle checks against a scenario and writes one
JSON report (numbers serialized as 17-significant-digit decimal strings).
tau sweeps the deformation time over a grid and emits CSV with the
branch-continuous log tau and the Hamiltonian.  monodromy prints one
numerically continued 2x2 monodromy matrix.

Exit codes: 0 all selected checks pass (tau: every row finite), 1 at least
one failed (tau: a nan row, summarized on stderr), 2 configuration or
scenario error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import replace

from .checks import run_checks
from .errors import EllipTauError, ScenarioError
from .isomono import make_params
from .monodromy import base_point, monodromy_matrices
from .scenario import load_scenario
from .tau import H_t, log_tau


def _parse_grid(spec):
    try:
        var, rng = spec.split("=", 1)
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError as exc:
        raise ScenarioError(
            f"grid must look like t=start:stop:step, got {spec!r}") from exc
    if var.strip() != "t":
        raise ScenarioError(f"only a t-grid is supported, got {var!r}")
    if step <= 0 or stop < start:
        raise ScenarioError("grid step must be positive and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


def _cmd_verify(args):
    for flag, value in (("--tol-scale", args.tol_scale),
                        ("--draw-scale", args.draw_scale)):
        if not (math.isfinite(value) and value > 0):
            raise ScenarioError(f"{flag} must be a positive finite number, got {value}")
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    checks = args.checks.split(",") if args.checks else None
    report = run_checks(scenario, checks=checks, tol_scale=args.tol_scale,
                        draw_scale=args.draw_scale)
    payload = report.to_json_dict()
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for r in report.results:
        print(f"{r.status.upper():12s} {r.name:32s} residual "
              f"{r.residual:9.3e}  tol {r.tolerance:8.1e}  {r.runtime_ms:8.1f} ms")
    print(f"overall: {report.overall}  (report written to {args.out})")
    return 0 if report.overall == "pass" else 1


def _unwrap(value, previous):
    """Shift by multiples of 2 pi i to keep the log branch continuous."""
    if previous is None:
        return value
    k = round((previous - value).imag / (2.0 * math.pi))
    return value + 2j * math.pi * k


def _cmd_tau(args):
    scenario = load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    out = open(args.out, "w") if args.out else sys.stdout
    failed, first = 0, None
    try:
        out.write("t,re_log_tau,im_log_tau,re_H_t,im_H_t\n")
        prev = None
        for t in grid:
            try:
                params = make_params(scenario.branch, scenario.a, complex(t),
                                     scenario.p, scenario.q)
                lt, ht = log_tau(params), H_t(params)
                if not (cmath.isfinite(lt) and cmath.isfinite(ht)):
                    raise EllipTauError("log tau or H_t is not finite")
                lt = _unwrap(lt, prev)
                prev = lt
                out.write(f"{t:.12g},{lt.real:.17g},{lt.imag:.17g},"
                          f"{ht.real:.17g},{ht.imag:.17g}\n")
            except EllipTauError as exc:
                out.write(f"{t:.12g},nan,nan,nan,nan\n")
                prev = None
                failed += 1
                if first is None:
                    first = (t, exc)
    finally:
        if args.out:
            out.close()
    if failed:
        t, exc = first
        print(f"tau: {failed}/{len(grid)} rows failed; first at t={t:.12g}: "
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
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EllipTauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
