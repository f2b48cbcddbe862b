"""A/B timing of cold golden verifies, or of golden tau sweeps, in two checkouts.

    python3 tests/ab_verify.py A B N
    python3 tests/ab_verify.py tau A B N

runs N pairs of `elliptau verify` on scenarios/golden.json, one in each
checkout A and B, each in a fresh interpreter (so every cache is cold) that
imports the package from the checkout's src/ and writes its report to a
fresh --out.  The pairs alternate which side runs first.  For the wall of
the in-process `cli.main` call and for each check's runtime_ms it prints
both sides' medians and quartiles, the change of B's median from A's, and
in how many pairs B read lower.  Then, for every module cache of the
package (each function in `elliptau.*` with a `cache_info()`), it prints
the hits and misses that one cold verify made on each side, flagging a row
whose counts differ between the runs of one side.

The tau mode runs N pairs of `elliptau tau` sweeps on scenarios/golden.json
over the grid of perfbench's tau-sweep, the same way, each into a sink that
stamps every write as perfbench's TimedSink does.  It prints the same
columns for the wall of `cli.main`, the seconds spent inside
`elliptic._theta_block`, and the minor page faults (`resource.getrusage`)
of the whole sweep and of the time inside `_theta_block`; then whether
every sweep wrote the same CSV.  Not a test: pytest collects only
test_*.py.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = """
import contextlib, importlib, io, json, pkgutil, sys, time
sys.path.insert(0, {src!r})
import elliptau.cli
argv = ["verify", "--scenario", {scenario!r}, "--out", {out!r}]
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    elliptau.cli.main(argv)
    wall = time.perf_counter() - start
for info in pkgutil.iter_modules(elliptau.__path__):
    importlib.import_module("elliptau." + info.name)
caches = {{f"{{fn.__module__}}.{{fn.__qualname__}}": fn.cache_info()[:2]
          for name, m in sorted(sys.modules.items())
          if name.startswith("elliptau.") and m is not None
          for fn in vars(m).values() if callable(fn) and hasattr(fn, "cache_info")}}
print(json.dumps([wall, caches]))
"""


RUN_TAU = """
import json, resource, sys, time
from contextlib import redirect_stdout
sys.path.insert(0, {src!r})
import elliptau.cli
import elliptau.elliptic

block, inside = elliptau.elliptic._theta_block, [0.0, 0]


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(*args):
    faults, start = minflt(), time.perf_counter()
    try:
        return block(*args)
    finally:
        inside[0] += time.perf_counter() - start
        inside[1] += minflt() - faults


class Sink:  # stamps every write, as perfbench's TimedSink does
    def __init__(self):
        self.times, self.parts = [], []

    def write(self, text):
        self.times.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


elliptau.elliptic._theta_block = timed
sink = Sink()
argv = ["tau", "--scenario", {scenario!r}, "--grid", {grid!r}]
with redirect_stdout(sink):
    faults, start = minflt(), time.perf_counter()
    code = elliptau.cli.main(argv)
    wall, faults = time.perf_counter() - start, minflt() - faults
import hashlib  # after the sweep, which runs on the heap the CLI's imports leave
csv = hashlib.sha256("".join(sink.parts).encode()).hexdigest()
print(json.dumps([code, wall, inside[0], faults, inside[1], csv]))
"""
TAU_GRID = "t=0:0.5:0.0001"  # perfbench's tau-sweep grid


def cold_verify(checkout, out):
    """(wall ms of cli.main, {check: runtime_ms}, {cache: (hits, misses)}) of
    one fresh-interpreter verify."""
    code = RUN.format(src=str(checkout / "src"), out=str(out),
                      scenario=str(checkout / "scenarios" / "golden.json"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    report = json.loads(out.read_text())
    times = {c["name"]: float(c["runtime_ms"]) for c in report["checks"]}
    wall, caches = json.loads(done.stdout.splitlines()[-1])
    return 1000.0 * wall, times, {name: tuple(hm) for name, hm in caches.items()}


def tau_sweep(checkout, _out):
    """(wall ms of cli.main, {metric: value}, sha256 of the CSV) of one
    fresh-interpreter tau sweep."""
    code = RUN_TAU.format(src=str(checkout / "src"), grid=TAU_GRID,
                          scenario=str(checkout / "scenarios" / "golden.json"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    exit_code, wall, inside, faults, inside_faults, csv = json.loads(done.stdout.splitlines()[-1])
    if exit_code:
        sys.exit(f"tau sweep of {checkout} exited {exit_code}")
    return 1000.0 * wall, {"theta_block_ms": 1000.0 * inside, "minflt": faults,
                           "theta_block_minflt": inside_faults}, csv


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv):
    tau = argv[:1] == ["tau"]
    if tau:
        argv = argv[1:]
    if len(argv) != 3:
        sys.exit(__doc__)
    a, b, n = Path(argv[0]).resolve(), Path(argv[1]).resolve(), int(argv[2])
    run = tau_sweep if tau else cold_verify
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            for side in ("AB" if i % 2 == 0 else "BA"):
                out = Path(tmp) / f"{side}{i}.json"
                runs[side].append(run(a if side == "A" else b, out))
    names = ["wall"] + list(runs["A"][0][1])
    print(f"{n} pairs, A = {a}, B = {b}; times in ms (q1 / median / q3)")
    print(f"{'':32s} {'A':>26s} {'B':>26s} {'B/A-1':>7s} {'B lower':>8s}")
    for name in names:
        cols = {side: [wall if name == "wall" else times[name] for wall, times, _ in runs[side]]
                for side in runs}
        qa, qb = quartiles(cols["A"]), quartiles(cols["B"])
        won = sum(y < x for x, y in zip(cols["A"], cols["B"]))
        print(f"{name:32s} " + " ".join("%8.3f/%8.3f/%8.3f" % q for q in (qa, qb))
              + f" {qb[1] / qa[1] - 1:+7.1%} {won:4d}/{n}")
    if tau:
        csvs = {side: {csv for _, _, csv in runs[side]} for side in runs}
        same = len(csvs["A"] | csvs["B"]) == 1
        print("\nevery sweep wrote the same CSV" if same else
              f"\nthe CSVs differ: {len(csvs['A'])} on A, {len(csvs['B'])} on B, "
              f"{len(csvs['A'] | csvs['B'])} in all")
        return
    print("\nmodule caches after one cold verify, hits/misses ('-': no such cache;"
          " '*': the runs of that side differ)")
    print(f"{'':32s} {'A':>14s} {'B':>14s}")
    caches = sorted({name for side in runs for _, _, c in runs[side] for name in c})
    for name in caches:
        cols = []
        for side in ("A", "B"):
            seen = {c.get(name) for _, _, c in runs[side]}
            first = runs[side][0][2].get(name)
            cell = "-" if first is None else "%d/%d" % first
            cols.append(cell + ("*" if len(seen) > 1 else " "))
        print(f"{name:32s} {cols[0]:>14s} {cols[1]:>14s}")


if __name__ == "__main__":
    main(sys.argv[1:])
