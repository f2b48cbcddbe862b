"""A/B timing of cold golden verifies in two checkouts.

    python3 tests/ab_verify.py A B N

runs N pairs of `elliptau verify` on scenarios/golden.json, one in each
checkout A and B, each in a fresh interpreter (so every cache is cold) that
imports the package from the checkout's src/ and writes its report to a
fresh --out.  The pairs alternate which side runs first.  For the wall of
the in-process `cli.main` call and for each check's runtime_ms it prints
both sides' medians and quartiles, the change of B's median from A's, and
in how many pairs B read lower.  Then, for every module cache of the
package (each function in `elliptau.*` with a `cache_info()`), it prints
the hits and misses that one cold verify made on each side, flagging a row
whose counts differ between the runs of one side.  Not a test: pytest
collects only test_*.py.
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


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    a, b, n = Path(argv[0]).resolve(), Path(argv[1]).resolve(), int(argv[2])
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            for side in ("AB" if i % 2 == 0 else "BA"):
                out = Path(tmp) / f"{side}{i}.json"
                runs[side].append(cold_verify(a if side == "A" else b, out))
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
