"""Source-level mutation sweep of named functions, output by output.

    python3 tests/mutation_sweep.py [module[.function] ...]

names functions of the package by module (`isomono`) or by module and
qualified name (`isomono.coefficients`, `isomono.YSolution.hatted`); a bare
module names each of its functions and methods, a class each of its
methods, and a function itself and the functions nested in it.  With no
target it sweeps every module of src/elliptau.  Every target is resolved
before the first run, and an unknown one exits at once, naming itself.

In every named function it mutates one AST site at a time, in a copy of
src/: a binary + and - swapped, a * and / swapped, a unary minus dropped,
or a nonzero float constant scaled by 1.5.  A site belongs to the innermost
function that holds it, so each is mutated once.  Each mutant runs in a
fresh interpreter, JOBS of them at a time, and gives its outputs: the
status and residual of every check of a verify of the golden scenario and
of the interior draw `random_admissible_scenario(SplitMix64(0xBEEF + 3))`,
the golden `elliptau tau` CSV on GRID and the four
`elliptau monodromy --loop` outputs, each with its exit code.  Against the
same outputs of the unmutated source, which runs first and stops the sweep
if any check fails, a mutant is

  killed  when a status or an exit code changed, or the run crashed or ran
          past TIMEOUT_S;
  blind   when every output is bit-identical: no output reads the site;
  weak    when some output moved and no status did.  The tool prints the
          residual ratio (mutant over baseline) furthest from 1 and the
          check that gave it, or the moved output when no residual moved.

It prints each survivor as it is found, then per function its mutants and
how many were killed, weak and blind.  Not a test: pytest collects only
test_*.py.
"""

import ast
import json
import math
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 60
JOBS = 2  # mutant processes at a time, never more
MEMORY_BYTES = 2 << 30  # address-space cap of each run
GRID = "t=0:0.5:0.0025"
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

RUN = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {src!r})
from elliptau.checks import run_checks
from elliptau.cli import main
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario
outputs = {{}}
for label, s in (("golden", GOLDEN), ("draw 3", random_admissible_scenario(SplitMix64(0xBEEF + 3)))):
    for r in run_checks(s).results:
        outputs[f"{{label}} {{r.name}}"] = [r.status, repr(float(r.residual))]
cli = [("tau", ["tau", "--grid", {grid!r}])] + [
    (f"monodromy --loop {{l}}", ["monodromy", "--loop", l]) for l in ("1", "2", "3", "inf")]
for name, argv in cli:
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--scenario", {golden!r}])
    outputs[name] = [code, text.getvalue()]
print(json.dumps(outputs))
"""


def _functions(tree, qualname):
    """(qualified name, node) of each function under tree, or only of the
    function qualname and the functions nested in it, or of the methods of
    the class qualname."""
    found = []

    def visit(node, prefix, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                named = inside or qualname in (None, name)
                if isinstance(child, ast.FunctionDef) and named:
                    found.append((name, child))
                visit(child, name + ".", named)

    visit(tree, "", False)
    return found


def _own_nodes(fn):
    """The nodes of a function, breadth first as ast.walk, without those of
    the functions and classes nested in it."""
    todo = deque([fn])
    while todo:
        node = todo.popleft()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, SCOPES))


def _sites(fn):
    """(node, kind) of each mutable site of a function, in _own_nodes order."""
    for node in _own_nodes(fn):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            yield node, f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "drop unary -"
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            yield node, f"{node.value!r} * 1.5"


def _place(node):
    """(line, column) of a site: a binary operator's is its right operand's,
    so that the two operators of a * b / c lie apart."""
    at = node.right if isinstance(node, ast.BinOp) else node
    return at.lineno, at.col_offset


def _mutate(tree, node):
    """Mutate the site node of tree in place; a dropped unary minus puts the
    operand in the node's place."""
    if isinstance(node, ast.BinOp):
        node.op = SWAP[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value *= 1.5
    else:
        for parent in ast.walk(tree):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and any(v is node for v in value):
                    value[[v is node for v in value].index(True)] = node.operand


def _resolve(target):
    """(module, source, (qualified name, node) of each of the target's
    functions); exits naming the target when its module or name is unknown."""
    module, _, qualname = target.partition(".")
    path = SRC / "elliptau" / f"{module}.py"
    if not path.is_file():
        sys.exit(f"no module {module!r} for target {target!r}")
    source = path.read_text()
    functions = _functions(ast.parse(source), qualname or None)
    if qualname and not functions:
        sys.exit(f"no function {target!r} in {path}")
    return module, source, functions


def _mutants(module, source, functions):
    """(module, qualified name, line, column, kind, source line, mutated
    module source) of each site of the functions of the module's source."""
    lines = source.splitlines()
    for name, fn in functions:
        for i, (node, kind) in enumerate(_sites(fn)):
            tree = ast.parse(source)
            _mutate(tree, list(_sites(dict(_functions(tree, name))[name]))[i][0])
            line, col = _place(node)
            yield module, name, line, col, kind, lines[line - 1], ast.unparse(tree)


def _outputs(src, module=None, mutated=None):
    """The outputs of one run on the copy src of src/, with the module's
    source replaced by mutated if given (and restored after); None when the
    run crashed or timed out."""
    path = src / "elliptau" / f"{module}.py"
    if mutated is not None:
        original = path.read_text()
        path.write_text(mutated)
    run = RUN.format(limit=MEMORY_BYTES, src=str(src), grid=GRID,
                     golden=str(ROOT / "scenarios" / "golden.json"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        done = subprocess.run([sys.executable, "-B", "-c", run], capture_output=True,
                              text=True, timeout=TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if mutated is not None:
            path.write_text(original)
    if done.returncode != 0:
        return None
    try:
        return {name: tuple(v) for name, v in json.loads(done.stdout.splitlines()[-1]).items()}
    except (IndexError, ValueError):  # a mutant that printed over its outputs
        return None


def classify(base, mutant):
    """(label, ratio, output) of a mutant's outputs against the baseline's:
    ('killed', None, None), ('blind', None, None), ('weak', ratio, check)
    with the residual ratio furthest from 1 and its check, or ('weak', None,
    output) naming the first moved output when no residual moved."""
    if mutant is None or mutant.keys() != base.keys() or any(
            mutant[k][0] != v[0] for k, v in base.items()):
        return "killed", None, None
    moved = [k for k, v in base.items() if mutant[k] != v]
    if not moved:
        return "blind", None, None
    ratios = {}
    for k in moved:
        if isinstance(base[k][0], str):  # a check: (status, residual)
            b, m = float(base[k][1]), float(mutant[k][1])
            ratios[k] = m / b if b else math.inf
    if not ratios:
        return "weak", None, moved[0]
    name = max(ratios, key=lambda k: abs(math.log(ratios[k])) if 0 < ratios[k] < math.inf
               else math.inf)
    return "weak", ratios[name], name


COLUMNS = ("mutants", "killed", "weak", "blind")


def main(argv):
    names = argv or sorted(p.stem for p in (SRC / "elliptau").glob("*.py"))
    targets, tally = [_resolve(target) for target in names], {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"src{j}" for j in range(JOBS)]
        for path in paths:
            shutil.copytree(SRC, path, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        base = _outputs(paths[0])
        if base is None or any(status not in ("pass", 0) for status, _ in base.values()):
            sys.exit("the unmutated source fails a check or a run; no sweep")
        copies = queue.Queue()
        for path in paths:
            copies.put(path)

        def run(mutant):  # on a copy no other run holds
            copy = copies.get()
            try:
                return classify(base, _outputs(copy, mutant[0], mutant[-1]))
            finally:
                copies.put(copy)

        mutants = [m for target in targets for m in _mutants(*target)]
        with ThreadPoolExecutor(JOBS) as pool:
            for (module, name, line, col, kind, text, _), (label, ratio, output) in zip(
                    mutants, pool.map(run, mutants)):
                counts = tally.setdefault(f"{module}.{name}", dict.fromkeys(COLUMNS, 0))
                counts["mutants"] += 1
                counts[label] += 1
                if label == "killed":
                    continue
                how = "blind" if label == "blind" else (
                    f"weak  {output}" + (f" x{ratio:.3g}" if ratio is not None else " moved"))
                print(f"{how}: {module}.{name}:{line}:{col} ({kind}): {text.strip()}", flush=True)
    print(f"\n{'function':52s}" + "".join(f" {c:>7s}" for c in COLUMNS))
    for label, counts in tally.items():
        print(f"{label:52s}" + "".join(f" {n:7d}" for n in counts.values()))
    print(f"{'total':52s}" + "".join(f" {sum(c[k] for c in tally.values()):7d}" for k in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
