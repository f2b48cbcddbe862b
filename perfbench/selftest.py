"""Self-test of the perfbench harness at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
  1. every metric named in BENCHMARK.json is printed, with its unit, by an
     untraced and a traced run;
  2. in the traced run the layers' self times add up to the traced wall
     time and no more;
  3. a known failing item is counted in fail_ratio: draw 10 of seed 1 of
     monodromy-random misses the monodromy tolerance (loop 3 is conjugated
     by frame offset (1, 0)).
Exits 0 when all hold, 1 otherwise.  Takes about 15 s.
"""

import json
import subprocess
import sys
import time

import run
from spans import LAYERS, ROOT as ROOT_LAYER

SELF_TIME_LAYERS = (ROOT_LAYER,) + LAYERS


class SelfTestError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise SelfTestError(message)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_names(declared, result, lines):
    for m in declared:
        got = result["metrics"].get(m["name"])
        check(got is not None, f"metric {m['name']} not printed")
        check(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}")
        check(any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                  for line in lines[:-1]), f"{m['name']} missing from the text lines")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    check(not extra, f"metrics printed but not declared: {sorted(extra)}")


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    lines, result = bench("tau-sweep", 0)
    check_names(declared["end_to_end"], result, lines)
    check(result["correct"] and result["attempted"] >= 1, f"bad result {result}")
    print("ok: every end-to-end metric printed with its unit")

    lines, result = bench("tau-sweep", 1)
    check_names(declared["per_layer"], result, lines)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
    check(m["trace.wall_s"] - 1e-6 <= total <= m["trace.wall_s"] + 1e-9,
          f"self times {total} s against traced wall {m['trace.wall_s']} s")
    print(f"ok: every per-layer metric printed; self times {total:.6f} s "
          f"of traced wall {m['trace.wall_s']:.6f} s "
          f"(tracing overhead {m['trace.overhead_s']:+.6f} s)")

    out_dir = run.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    specs = run.make_specs("monodromy-random", 1, out_dir)
    spec = specs(2)  # draws 9..12
    spec["scenarios"] = [d for d in spec["scenarios"] if d["draw"] == 10]
    passed = run.run_worker(spec, out_dir, deadline=time.monotonic() + 170)
    g = run.gates([[passed]])
    check(g["attempted"] == 1 and g["failed"] == 1 and g["fail_ratio"] == 1.0
          and g["min_headroom"] < 0, f"draw 10 of seed 1 not counted as failed: {g}")
    print(f"ok: the failing draw is counted: {g['failed_items'][0]}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
