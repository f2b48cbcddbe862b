"""One pass of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json SPAWN_MONOTONIC

run.py starts one worker per pass, so every pass begins with cold library
caches, as every `elliptau` CLI call does.  The worker times its own set-up
(interpreter start to `elliptau.cli` imported and the scenario loaded),
runs the pass, optionally under the layer tracer, then checks each output
against its oracle outside the timed region and writes RESULT.json.

Only the standard library is imported at module level: numpy and the
package are imported inside the timed set-up.
"""

import io
import json
import math
import resource
import sys
import time
from contextlib import redirect_stdout

LOOPS = (1, 2, 3, "inf")
MONODROMY_TOL = 1e-6  # default tolerance of the monodromy_match check
DLOGTAU_TOL = 1e-6  # default tolerance of the dlogtau_dt check


class TimedSink:
    """stdout stand-in that stamps every write; the tau CLI writes one row per call."""

    def __init__(self):
        self.times = []
        self.parts = []

    def write(self, text):
        self.times.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


# -- passes: each returns (wall seconds, item latencies in ms, outputs) -------
# Package functions are looked up through their modules at call time, so a
# traced pass goes through the tracer's wrappers.

def pass_verify(spec, _loaded):
    from elliptau import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        code = cli.main(["verify", "--scenario", spec["scenario"], "--out", spec["report"]])
    wall = time.perf_counter() - t0
    with open(spec["report"]) as fh:
        report = json.load(fh)
    return wall, [float(c["runtime_ms"]) for c in report["checks"]], (code, report)


def pass_tau(spec, _loaded):
    from elliptau import cli

    sink = TimedSink()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        code = cli.main(["tau", "--scenario", spec["scenario"], "--grid", spec["grid"]])
    wall = time.perf_counter() - t0
    # times[0] stamps the header; row k's latency runs from the previous write.
    ms = [1000.0 * (b - a) for a, b in zip(sink.times, sink.times[1:])]
    return wall, ms, (code, "".join(sink.parts))


def pass_monodromy(_spec, scenarios):
    import numpy as np

    from elliptau import isomono as iso
    from elliptau import monodromy as mon

    ms, records = [], []
    t0 = time.perf_counter()
    for s in scenarios:
        t_item = time.perf_counter()
        try:
            params = iso.make_params(s.branch, s.a, s.t, s.p, s.q)
            phi = iso.build_phi(params)
            sol = iso.normalize_Y(params, phi)
            coeffs = iso.coefficients(params, phi=phi, sol=sol)
            Y0 = sol.y_at(mon.base_point(s.branch))
            loops, offsets = mon.calibrate_loops(params)
            Y0_inv = np.linalg.inv(Y0)
            mats = {w: Y0_inv @ mon.continue_solution(coeffs, loops[w], Y0)
                    for w in LOOPS}
            records.append((params, mats, offsets, None))
        except Exception as exc:  # a scenario that raises is a failed item
            records.append((None, None, None, f"{type(exc).__name__}: {exc}"))
        ms.append(1000.0 * (time.perf_counter() - t_item))
    wall = time.perf_counter() - t0
    return wall, ms, records


# -- oracle gates: each returns (items, fingerprint, complete) ----------------
# An item is {"ok": bool, "residual": float, "tol": float, "note": str}; the
# fingerprint is compared across passes that repeat the same inputs.

def gate_verify(spec, outputs):
    code, report = outputs
    items = [{"ok": c["status"] == "pass", "residual": float(c["residual"]),
              "tol": float(c["tolerance"]), "note": f'{c["name"]}: {c["status"]}'}
             for c in report["checks"]]
    fingerprint = [[c["name"], c["status"], c["residual"]] for c in report["checks"]]
    complete = [c["name"] for c in report["checks"]] == spec["check_names"]
    consistent = code == (0 if report["overall"] == "pass" else 1)
    return items, fingerprint, complete and consistent


def gate_tau(spec, outputs):
    import numpy as np

    code, text = outputs
    rows = text.splitlines()[1:]
    t = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    lt = vals[:, 0] + 1j * vals[:, 1]
    ht = vals[:, 2] + 1j * vals[:, 3]
    # Second-order differences of log tau along the grid: central inside,
    # one-sided at the two ends.  A NaN row spoils its neighbours' differences.
    fd = np.empty_like(lt)
    fd[1:-1] = (lt[2:] - lt[:-2]) / (t[2:] - t[:-2])
    fd[0] = (-3 * lt[0] + 4 * lt[1] - lt[2]) / (2 * (t[1] - t[0]))
    fd[-1] = (3 * lt[-1] - 4 * lt[-2] + lt[-3]) / (2 * (t[-1] - t[-2]))
    res = np.abs(ht - fd) / np.maximum(1.0, np.abs(ht))
    res = np.where(np.isfinite(res), res, np.inf)
    items = [{"ok": bool(r < DLOGTAU_TOL), "residual": float(r), "tol": DLOGTAU_TOL,
              "note": f"t={tk:.12g}"} for tk, r in zip(t, res)]
    complete = (code == 0 and len(rows) == len(spec["grid_values"])
                and bool(np.all(np.abs(t - np.array(spec["grid_values"])) <= 1e-12)))
    return items, text, complete


def gate_monodromy(spec, records):
    import numpy as np

    from elliptau import isomono

    items, fingerprint = [], []
    for d, (params, mats, offsets, error) in zip(spec["scenarios"], records):
        where = f"draw {d['draw']} of seed {spec['seed']}"
        if error is not None:
            items.append({"ok": False, "residual": math.inf, "tol": MONODROMY_TOL,
                          "note": f"{where}: {error}"})
            fingerprint.append(error)
            continue
        theory = isomono.theoretical_monodromy(params)
        worst = max(float(np.max(np.abs(mats[w] - theory.M[w]))) for w in LOOPS)
        items.append({"ok": worst < MONODROMY_TOL, "residual": worst,
                      "tol": MONODROMY_TOL,
                      "note": f"{where}: max|M - M_theory| {worst:.3g}, "
                              f"frame offsets {offsets}"})
        fingerprint.append([[repr(complex(z)) for z in mats[w].ravel()] for w in LOOPS])
    complete = all(m is None or all(m[w].shape == (2, 2) for w in LOOPS)
                   for _, m, _, _ in records)
    return items, fingerprint, complete


PASSES = {"verify-golden": (pass_verify, gate_verify),
          "tau-sweep": (pass_tau, gate_tau),
          "monodromy-random": (pass_monodromy, gate_monodromy)}


def load(spec):
    """Load the pass's scenarios: the last step of the timed set-up.  The
    verify and tau passes load the file again inside the CLI call, as a
    user's call does."""
    from elliptau import scenario

    if spec["workload"] == "monodromy-random":
        return [scenario.scenario_from_dict(d) for d in spec["scenarios"]]
    return scenario.load_scenario(spec["scenario"])


# -- tracing -----------------------------------------------------------------

def _cache_counts(fn):
    info = fn.cache_info()
    return info.hits, info.misses


def traced_pass(run_pass, spec, loaded):
    """Run one pass under the tracer; returns (pass outputs, per-layer numbers)."""
    import numpy as np

    from elliptau import curve, elliptic
    from spans import Tracer  # perfbench/spans.py, next to this file

    caches = {"theta_jet": elliptic._theta_jet, "period_data": curve.period_data,
              "abel_with_y": curve.abel_with_y}
    before = {k: _cache_counts(fn) for k, fn in caches.items()}
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root() as root:
            _, ms, outputs = run_pass(spec, loaded)
    finally:
        tracer.uninstall()
    tracer.save(spec["spans"])
    delta = {k: [a - b for a, b in zip(_cache_counts(fn), before[k])]
             for k, fn in caches.items()}

    def calls(name):
        return tracer.stats.get(name, [0, 0.0])[0]

    def seconds(name):
        return tracer.stats.get(name, [0, 0.0])[1]

    layers = tracer.layer_times()
    out = {"trace.wall_s": root.seconds,
           "trace.spans": sum(n for _, n in layers.values())}
    for layer, (self_s, n) in layers.items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = n
    hits, misses = delta["theta_jet"]
    out["elliptic.theta_jet.misses"] = misses
    out["elliptic.theta_jet.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("period_data", "abel_with_y"):
        out[f"curve.{key}.misses"] = delta[key][1]
        out[f"curve.{key}.s"] = seconds(f"curve.{key}")
    out["curve.path_integral.calls"] = calls("curve.path_integral")
    out["curve.errors"] = tracer.curve_errors[0]
    y_at = tracer.durations["isomono.YSolution.y_at"]
    out["isomono.y_at.calls"] = len(y_at)
    out["isomono.y_at.p50_ms"] = 1000.0 * float(np.median(y_at)) if y_at else 0.0
    out["isomono.make_params.calls"] = calls("isomono.make_params")
    out["isomono.make_params.s"] = seconds("isomono.make_params")
    out["isomono.coefficients.s"] = seconds("isomono.coefficients")
    out["monodromy.calibrate_loops.s"] = seconds("monodromy.calibrate_loops")
    out["monodromy.continue_solution.s"] = seconds("monodromy.continue_solution")
    out["monodromy.continue_solution.calls"] = calls("monodromy.continue_solution")
    out["monodromy.rhs_evals"] = calls("isomono.SystemCoefficients.A_of")
    return (root.seconds, ms, outputs), out


def main(spec_path, result_path, spawned):
    t0 = time.perf_counter()
    import elliptau.cli  # noqa: F401  (set-up: the import is timed)

    import_s = time.perf_counter() - t0
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    loaded = load(spec)
    load_s = time.perf_counter() - t0
    result = {"setup_s": time.monotonic() - spawned, "import_s": import_s,
              "load_s": load_s}
    if not spec["setup_only"]:
        run_pass, gate = PASSES[spec["workload"]]
        if spec["trace"]:
            (wall, ms, outputs), result["trace"] = traced_pass(run_pass, spec, loaded)
        else:
            wall, ms, outputs = run_pass(spec, loaded)
        items, fingerprint, complete = gate(spec, outputs)
        result.update(
            wall_s=wall, item_ms=ms, items=items, fingerprint=fingerprint,
            complete=complete,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if spec["workload"] == "verify-golden":
            result["check_ms"] = {c["name"]: float(c["runtime_ms"])
                                  for c in outputs[1]["checks"]}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
