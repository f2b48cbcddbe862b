"""perfbench: end-to-end and per-layer benchmark of elliptau.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

Workloads, with the reason each is in the set:

  verify-golden     `elliptau verify` on scenarios/golden.json, all checks at
                    draw_scale 1, as a user runs it: the checks draw from the
                    scenario's own seed, whatever N is.  With N as --seed,
                    the summed check times of one pass spread by 0.26
                    (interquartile range over median, ten values of N),
                    more than any bound allows.  The headline user task and
                    the only one that runs the `checks` layer; `curve`
                    (finite-difference period re-integration) and
                    `elliptic` dominate it.
  tau-sweep         `elliptau tau` on the golden curve over t = 0:0.5:1e-4
                    (5,001 points), with (p, q) drawn from SplitMix64(N) by the
                    scenario module's rule.  One curve, so `curve` integrates
                    once and then serves from cache; per point it costs
                    make_params, theta series, tau and CSV writing.
  monodromy-random  batches of 4 admissible scenarios drawn in sequence by
                    scenario.random_admissible_scenario(SplitMix64(N)); per
                    scenario params -> phi -> sol -> coeffs -> Y0 -> loops,
                    then continue_solution on loops 1, 2, 3 and inf.  A new
                    curve per scenario, so `curve` caches stay cold, and
                    y_at and the ODE dominate.  Not in BENCHMARK.json: its
                    40 scenarios a run cost 55 s, and the two listed
                    workloads already exercise every layer; run it by hand
                    before and after a change to y_at or the ODE.

A pass is one fresh interpreter (perfbench/worker.py) doing one unit of the
workload: one verify, one sweep, or one batch.  Library caches are cold on
purpose because every CLI call starts cold; the fresh interpreter is what
makes them cold, no cache is cleared by hand.  Passes run one at a time,
single-threaded.  A run repeats each pass input a fixed number of times
(SHAPE_AT_30S) and keeps the fastest repeat: verify and tau have one input,
monodromy-random one batch per input from the seeded stream.

Every output is checked against an oracle and failed items are counted, never
redrawn or dropped:
  verify-golden     a check whose status is not `pass`;
  tau-sweep         a NaN row, or a point where the second-order difference of
                    log tau along the grid misses H_t by 1e-6 or more;
  monodromy-random  a scenario that raised, or max|M_num - M_theory| >= 1e-6.
`correct` is false when an output is incomplete, or when a pass that repeats
the same inputs does not reproduce the first bit for bit.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and traced
passes on the same inputs and prints the per-layer metrics; the tracer
(perfbench/spans.py) wraps the calls into each module from outside, and the
difference of the fastest walls of the two kinds is the tracing overhead.  The last line of stdout
is one JSON object; a full report and the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run must end within 180 s
MIN_SETUP_SAMPLES = 7
# (distinct pass inputs, repeats of each) in a run of 30 seconds; a run of S
# seconds makes S/30 as many repeats.  The counts are fixed, not timed, so one
# seed always gets the same inputs and the same number of samples.  A run of
# each then takes about 50, 22 and 55 s on the shared 2-core Xeon VM of the
# first baseline (perfbench/baseline.json), and up to 1.5 times that when the
# host is busy.  That VM runs at speeds up to 1.9x apart that switch within
# seconds to minutes; a median over passes flips with the speed, so each pass
# input is repeated and its fastest repeat kept (the slow speeds only add
# time).
SHAPE_AT_30S = {"verify-golden": (1, 4), "tau-sweep": (1, 12),
                "monodromy-random": (10, 2)}
TRACE_REPEATS = 2  # traced and untraced passes each, in a --trace 1 run
BATCH = 4  # scenarios per monodromy-random pass
TAU_GRID = "t=0:0.5:0.0001"
TAU_POINTS = 5001

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ("bench.self_s", "s"),
    ("elliptic.self_s", "s"), ("elliptic.calls", "count"),
    ("elliptic.theta_jet.misses", "count"), ("elliptic.theta_jet.hit_ratio", "ratio"),
    ("curve.self_s", "s"), ("curve.calls", "count"),
    ("curve.period_data.misses", "count"), ("curve.period_data.s", "s"),
    ("curve.abel_with_y.misses", "count"), ("curve.abel_with_y.s", "s"),
    ("curve.path_integral.calls", "count"), ("curve.errors", "count"),
    ("isomono.self_s", "s"), ("isomono.calls", "count"),
    ("isomono.y_at.calls", "count"), ("isomono.y_at.p50_ms", "ms"),
    ("isomono.make_params.calls", "count"), ("isomono.make_params.s", "s"),
    ("isomono.coefficients.s", "s"),
    ("tau.self_s", "s"), ("tau.calls", "count"),
    ("monodromy.self_s", "s"), ("monodromy.calls", "count"),
    ("monodromy.calibrate_loops.s", "s"), ("monodromy.continue_solution.s", "s"),
    ("monodromy.continue_solution.calls", "count"), ("monodromy.rhs_evals", "count"),
    ("checks.self_s", "s"), ("scenario.self_s", "s"), ("cli.self_s", "s"),
    ("cli.import_s", "s"), ("scenario.load_s", "s"),
    ("oracle.fail_ratio", "ratio"), ("oracle.min_headroom", "log10"),
)


class BenchError(Exception):
    pass


# -- inputs ------------------------------------------------------------------

def scenario_dict(s):
    pair = lambda z: [z.real, z.imag]  # noqa: E731
    return {"e": [pair(e) for e in s.e], "a": pair(s.a), "t": pair(s.t),
            "p": s.p, "q": s.q, "seed": s.seed}


def draw_pq(rng):
    """p and q uniform on (0.05, 0.95), redrawn within 0.05 of 0.5, as the
    scenario module draws them."""
    out = []
    while len(out) < 2:
        v = rng.uniform(0.05, 0.95)
        if abs(v - 0.5) >= 0.05:
            out.append(v)
    return out


def make_specs(workload, seed, out_dir):
    """A function pass_index -> worker spec; the seed fixes every input that is drawn."""
    from elliptau.checks import CHECKS
    from elliptau.scenario import SplitMix64, golden_dict, random_admissible_scenario

    base = {"workload": workload, "seed": seed, "setup_only": False, "trace": False}
    if workload == "verify-golden":
        spec = dict(base, scenario=str(ROOT / "scenarios" / "golden.json"),
                    report=str(out_dir / f"verify-report-{seed}.json"),
                    check_names=list(CHECKS))
        return lambda k: spec
    if workload == "tau-sweep":
        data = golden_dict()
        data["p"], data["q"] = draw_pq(SplitMix64(seed))
        path = out_dir / f"tau-scenario-{seed}.json"
        path.write_text(json.dumps(data))
        spec = dict(base, scenario=str(path), grid=TAU_GRID, p=data["p"], q=data["q"],
                    grid_values=[k * 1e-4 for k in range(TAU_POINTS)])
        return lambda k: spec
    if workload == "monodromy-random":
        rng = SplitMix64(seed)
        batches = []

        def spec_for(k):
            while len(batches) <= k:
                first = BATCH * len(batches) + 1
                batches.append([dict(scenario_dict(random_admissible_scenario(rng, seed=seed)),
                                     draw=first + i) for i in range(BATCH)])
            return dict(base, scenarios=batches[k])
        return spec_for
    raise BenchError(f"unknown workload {workload!r}")


# -- workers -----------------------------------------------------------------

def run_worker(spec, out_dir, deadline):
    spec_path = out_dir / f"spec-{os.getpid()}.json"
    result_path = out_dir / f"result-{os.getpid()}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    # time.monotonic is CLOCK_MONOTONIC, shared by all processes on Linux, so
    # the worker can measure its set-up from this instant.
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path),
             repr(spawned)], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {spec['workload']} pass did not end in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    spec_path.unlink()
    result_path.unlink()
    return result


def run_passes(specs, units, repeats, out_dir, deadline):
    """Run each of `units` pass inputs `repeats` times, round-robin so that the
    repeats of one input are far apart; returns runs[unit][repeat], setups."""
    runs = [[] for _ in range(units)]
    for _ in range(repeats):
        for u in range(units):
            runs[u].append(run_worker(specs(u), out_dir, deadline))
    setups = [p["setup_s"] for rs in runs for p in rs]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_worker(dict(specs(0), setup_only=True), out_dir,
                                 deadline)["setup_s"])
    return runs, setups


# -- statistics --------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it, by the
    nearest-rank rule, but at most p99: (value, percentile, sample count).
    Above p99 the point latencies of a tau sweep show system hiccups rather
    than the program: their p99.9 spread by a third over five seeds.

    The value is the Harrell-Davis estimate of that percentile, a
    beta-weighted mean of the order statistics around its rank.  A single
    order statistic is one item: on verify-golden's 34 checks it is the
    slowest of three checks of about 130 ms, and a stall in any one of them
    moved it by a third between runs of the same code."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n <= 10:
        return float(xs[-1]), 100.0, n
    rank = min(n - 10, math.ceil(0.99 * n))
    p = rank / n
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs), 100.0 * p, n


def headroom(item):
    r = item["residual"]
    if r == 0:
        return math.inf
    if not math.isfinite(r):
        return -math.inf
    return math.log10(item["tol"] / r)


def clamp(x, limit=99.0):
    """Headroom is infinite for a residual of 0 or an item that raised; JSON
    has no infinity, so it is reported as +-99."""
    return max(-limit, min(limit, x))


def gates(runs):
    """Oracle results per distinct item; the repeats of a pass input must
    reproduce its first run bit for bit."""
    items = [it for rs in runs for it in rs[0]["items"]]
    failed = [it for it in items if not it["ok"]]
    complete = all(p["complete"] for rs in runs for p in rs)
    reproducible = all(p["fingerprint"] == rs[0]["fingerprint"] for rs in runs for p in rs)
    return {"attempted": len(items), "failed": len(failed),
            "fail_ratio": len(failed) / len(items) if items else 1.0,
            "min_headroom": clamp(min((headroom(it) for it in items), default=-math.inf)),
            "failed_items": [it["note"] for it in failed][:20],
            "complete": complete, "reproducible": reproducible}


# -- environment -------------------------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, argv):
    import numpy
    import scipy

    baseline_path = HERE / "baseline.json"
    baseline = None
    if baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text()).get(args.workload)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "platform": platform.platform(),
            "git_commit": git_commit(), "seed": args.seed,
            "argv": ["perfbench/run.py"] + list(argv),
            "cache_policy": "fresh interpreter per pass",
            "baseline": baseline}


# -- main --------------------------------------------------------------------

def end_to_end(runs, setups):
    """wall_s: median over pass inputs of the fastest repeat; item latencies:
    each item's fastest repeat (the repeats of an input hold the same items
    in the same order)."""
    repeats = len(runs[0])
    item_ms = [min(per_repeat) for rs in runs
               for per_repeat in zip(*(p["item_ms"] for p in rs))]
    tail_ms, pct, n = tail(item_ms)
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(min(p["wall_s"] for p in rs) for rs in runs),
              "item_p50_ms": statistics.median(item_ms),
              "item_tail_ms": tail_ms,
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for rs in runs for p in rs)}
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters",
             "wall_s": f"median over {len(runs)} inputs of the fastest of {repeats} passes",
             "item_p50_ms": f"median of {n} items, each its fastest of {repeats}",
             "item_tail_ms": f"p{pct:.1f} of {n} items (>= 10 samples beyond it), "
                             "Harrell-Davis estimate",
             "peak_rss_mb": f"median of {len(runs) * repeats} passes"}
    return values, notes


def per_layer(untraced, traced, g):
    from elliptau.checks import CHECKS

    values = dict(traced["trace"])
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced["wall_s"]
    values["cli.import_s"] = traced["import_s"]
    values["scenario.load_s"] = traced["load_s"]
    values["oracle.fail_ratio"] = g["fail_ratio"]
    values["oracle.min_headroom"] = g["min_headroom"]
    check_ms = traced.get("check_ms", {})
    return ([(n, u, values[n], "") for n, u in PER_LAYER]
            + [(f"checks.{c}.ms", "ms", check_ms.get(c, 0.0), "") for c in CHECKS])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-golden", "tau-sweep", "monodromy-random"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "elliptau" / "__init__.py").is_file():
        print(f"perfbench: no elliptau package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        # Importing the CLI here also writes the bytecode caches, so that no
        # timed set-up pays for compiling the package.
        import elliptau.cli  # noqa: F401

        specs = make_specs(args.workload, args.seed, out_dir)
        env = environment(args, argv)
        if args.trace:
            # Untraced and traced passes alternate on the first pass input; the
            # fastest of each is kept, as in an untraced run.
            untraced, traced = [], []
            for k in range(TRACE_REPEATS):
                untraced.append(run_worker(specs(0), out_dir, deadline))
                spans = str(out_dir / f"spans-{args.workload}-{args.seed}-{k}.npz")
                traced.append(run_worker(dict(specs(0), trace=True, spans=spans),
                                         out_dir, deadline))
            g = gates([untraced + traced])
            metrics = per_layer(min(untraced, key=lambda p: p["wall_s"]),
                                min(traced, key=lambda p: p["wall_s"]), g)
            runs = [untraced + traced]
        else:
            units, repeats = SHAPE_AT_30S[args.workload]
            repeats = max(1, round(repeats * args.seconds / 30))
            runs, setups = run_passes(specs, units, repeats, out_dir, deadline)
            g = gates(runs)
            values, notes = end_to_end(runs, setups)
            metrics = [(n, u, values[n], notes[n]) for n, u in END_TO_END]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = g["complete"] and g["reproducible"]
    print("# environment " + json.dumps(env))
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"passes {sum(len(rs) for rs in runs)}  "
          f"trace {args.trace}")
    for name, unit, value, note in metrics:
        print(f"{name:40s} {value:16.6f} {unit:6s} {note}")
    print(f"{'fail_ratio':40s} {g['fail_ratio']:16.6f} ratio  "
          f"{g['failed']} failed of {g['attempted']} items")
    print(f"{'min_headroom':40s} {g['min_headroom']:16.6f} log10  "
          "min over items of log10(tolerance/residual), within +-99")
    print(f"gate oracle: {'pass' if g['failed'] == 0 else 'FAIL'} "
          f"({g['failed']} of {g['attempted']} items failed)"
          + "".join(f"\n  failed: {note}" for note in g["failed_items"]))
    print(f"gate complete: {'pass' if g['complete'] else 'FAIL'}")
    print(f"gate reproducible: {'pass' if g['reproducible'] else 'FAIL'}")
    report = {"environment": env, "workload": args.workload, "trace": args.trace,
              "metrics": {n: {"value": v, "unit": u, "note": note}
                          for n, u, v, note in metrics},
              "gates": g, "passes": [[{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
                                      for p in rs] for rs in runs]}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": g["attempted"],
                      "failed": g["failed"],
                      "metrics": {n: {"value": v, "unit": u} for n, u, v, _ in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
