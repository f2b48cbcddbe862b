"""Source-level mutation sweep of named functions.

    python3 tests/mutation_sweep.py module[.function] ...

names functions of the package by module (`isomono`) or by module and
qualified name (`isomono.coefficients`, `isomono.YSolution.hatted`); a bare
module names each of its functions and methods, and a class each of its
methods.  Every target is resolved before the first verify runs, and an
unknown one exits at once, naming itself.  In every named function it
mutates one AST site at a time, in a temporary copy of src/: a binary + and
- swapped, a * and / swapped, a unary minus dropped, or a nonzero float
constant scaled by 1.5.  Each mutant runs a verify of the golden scenario
and of the interior draw `random_admissible_scenario(SplitMix64(0xBEEF + 3))`
in a fresh interpreter, and survives if both pass every check; a crash or a
run past TIMEOUT_S kills it.  The tool prints each survivor with its
function, line and source line, then per function its mutants and
survivors.  Not a test: pytest collects only test_*.py.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 120
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}

RUN = """
import sys
sys.path.insert(0, {src!r})
from elliptau.checks import run_checks
from elliptau.scenario import GOLDEN, SplitMix64, random_admissible_scenario
for s in (GOLDEN, random_admissible_scenario(SplitMix64(0xBEEF + 3))):
    results = run_checks(s).results
    print(sum(r.status == "pass" for r in results), len(results))
"""


def _functions(tree, qualname):
    """(qualified name, node) of each function under tree, or only of the
    function qualname or the methods of the class qualname."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                named = in_class or qualname in (None, name)
                if isinstance(child, ast.FunctionDef) and named:
                    found.append((name, child))
                visit(child, name + ".", named and isinstance(child, ast.ClassDef))

    visit(tree, "", False)
    return found


def _sites(fn):
    """(node, kind) of each mutable site of a function, in ast.walk order."""
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            yield node, f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "drop unary -"
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            yield node, f"{node.value!r} * 1.5"


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
    if not functions:
        sys.exit(f"no function {target!r} in {path}")
    return module, source, functions


def _mutants(module, source, functions):
    """(module, qualified name, line, kind, source line, mutated module
    source) of each site of the functions of the module's source."""
    lines = source.splitlines()
    for name, fn in functions:
        for i, (node, kind) in enumerate(_sites(fn)):
            tree = ast.parse(source)
            fresh = dict(_functions(tree, name))[name]
            _mutate(tree, list(_sites(fresh))[i][0])
            yield module, name, node.lineno, kind, lines[node.lineno - 1], ast.unparse(tree)


def _survives(module, mutated, tmp):
    """Whether both verifies pass every check with the module's source mutated."""
    src = Path(tmp) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutated is not None:
        (src / "elliptau" / f"{module}.py").write_text(mutated)
    try:
        done = subprocess.run([sys.executable, "-B", "-c", RUN.format(src=str(src))],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    counts = [line.split() for line in done.stdout.splitlines()]
    return done.returncode == 0 and len(counts) == 2 and all(n == m for n, m in counts)


def main(argv):
    if not argv:
        sys.exit(__doc__)
    targets, tally = [_resolve(target) for target in argv], {}
    with tempfile.TemporaryDirectory() as tmp:
        if not _survives(None, None, tmp):
            sys.exit("the unmutated source fails a verify; no sweep")
        for target in targets:
            for module, name, line, kind, text, mutated in _mutants(*target):
                label = f"{module}.{name}"
                total, survived = tally.get(label, (0, 0))
                alive = _survives(module, mutated, tmp)
                tally[label] = (total + 1, survived + alive)
                if alive:
                    print(f"survivor {label}:{line} ({kind}): {text.strip()}", flush=True)
    print(f"\n{'function':48s} {'mutants':>8s} {'survived':>8s}")
    for label, (total, survived) in tally.items():
        print(f"{label:48s} {total:8d} {survived:8d}")


if __name__ == "__main__":
    main(sys.argv[1:])
