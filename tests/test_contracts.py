"""Cross-cutting contracts: determinism, purity, convention coherence."""

import concurrent.futures

import numpy as np
import pytest

from elliptau.checks import run_checks
from elliptau.elliptic import (
    HALF_HALF,
    lattice_from_periods,
    sigma,
    sigma_char,
    theta,
    wp,
)
from elliptau.scenario import GOLDEN


def test_reports_deterministic_given_seed():
    names = ["legendre", "wp_ode", "quasi_periodicity"]
    r1 = run_checks(GOLDEN, checks=names)
    r2 = run_checks(GOLDEN, checks=names)
    assert [c.residual for c in r1.results] == [c.residual for c in r2.results]
    assert [c.status for c in r1.results] == [c.status for c in r2.results]


def test_seed_changes_draws_not_verdicts():
    names = ["wp_ode"]
    r1 = run_checks(GOLDEN, checks=names)
    r2 = run_checks(GOLDEN._replace(seed=GOLDEN.seed + 1), checks=names)
    assert r1.results[0].residual != r2.results[0].residual
    assert r1.results[0].status == r2.results[0].status == "pass"


def test_half_half_characteristic_is_plain_sigma():
    lat = lattice_from_periods(1.1 + 0.1j, 0.2 + 0.9j)
    for u in (0.3, 0.21 - 0.4j, -0.17 + 0.33j):
        assert sigma_char(lat, HALF_HALF, u) == sigma(lat, u)


def test_concurrent_evaluation_is_consistent():
    # pure value-type operations: concurrent calls agree with serial ones
    lat = lattice_from_periods(1.0, 0.3 + 1.1j)
    us = [0.11 + 0.07j * k for k in range(1, 33)]
    serial = [wp(lat, u) for u in us]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda u: wp(lat, u), us))
    assert np.allclose(serial, parallel, rtol=0, atol=0)
    vals = [theta(HALF_HALF, 0.2 + 0.1j, 1j) for _ in range(4)]
    assert len(set(vals)) == 1


def test_heat_equation_rounds_its_draw_count_like_every_check(monkeypatch):
    # 10 * 0.35 rounds to 4 draws per row of the grid, as ctx.draws does
    import elliptau.checks as checks

    chars = []
    real = checks._random_char
    monkeypatch.setattr(checks, "_random_char", lambda rng: chars.append(1) or real(rng))
    ctx = checks.CheckContext(GOLDEN, draw_scale=0.35)
    checks.check_heat_equation(ctx, checks.check_stream(GOLDEN.seed, "heat_equation"))
    assert len(chars) == 10 * ctx.draws(10) == 40


def test_every_public_name_has_a_reader_outside_tests():
    # a public module-level function or class of the package, or a public
    # method of such a class, must be named in src/ or perfbench/ somewhere
    # other than its own def or class line: code that only tests read has no job
    import ast
    import io
    import tokenize
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "elliptau").glob("*.py"))
    public = {}  # name -> defining file
    for path in package:
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")):
                    public[d.name] = path.name
    named = set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                named.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                prev = tok.string
    unread = sorted(f"{module}:{name}" for name, module in public.items()
                    if name not in named)
    assert not unread, f"read only by tests, or by nothing: {unread}"


def test_every_field_has_a_reader_outside_tests():
    # a field of a public class of the package, named in its namedtuple base
    # or its __slots__ or set as self.field in its __init__, must be read as an
    # attribute (x.field) somewhere in src/ or perfbench/: data that only
    # tests read has no job
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "elliptau").glob("*.py"))
    fields = []  # (defining file, class, field)
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            names = [b.args[1].value.split() for b in node.bases
                     if isinstance(b, ast.Call) and getattr(b.func, "id", None) == "namedtuple"]
            names += [[e.value for e in a.value.elts] for a in node.body
                      if isinstance(a, ast.Assign)
                      and [getattr(t, "id", None) for t in a.targets] == ["__slots__"]]
            names += [[t.attr for a in ast.walk(init) if isinstance(a, ast.Assign)
                       for t in a.targets if isinstance(t, ast.Attribute)
                       and getattr(t.value, "id", None) == "self"]
                      for init in node.body
                      if isinstance(init, ast.FunctionDef) and init.name == "__init__"]
            fields += [(path.name, node.name, f) for group in names for f in group]
    read = {n.attr for path in package + sorted((root / "perfbench").glob("*.py"))
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assert len({cls for _, cls, _ in fields}) >= 17  # the parse found the value types
    unread = sorted(f"{where}:{cls}.{f}" for where, cls, f in fields if f not in read)
    assert not unread, f"read only by tests, or by nothing: {unread}"


def test_value_types_keep_their_semantics():
    # equality within a type only, hash of the value, fresh defaults, the
    # constructor's checks on a copy, and what equality and repr leave out
    from elliptau.checks import CheckResult
    from elliptau.curve import BranchConfig, Line
    from elliptau.elliptic import ThetaChar
    from elliptau.errors import ContourGeometryError
    from elliptau.isomono import make_params
    from elliptau.scenario import Scenario

    assert Line(0.5, 0.25) != ThetaChar(0.5, 0.25) and Line(0.5, 0.25) != (0.5, 0.25)
    assert Line(0.5, 0.25) == Line(0.5, 0.25) and len({Line(0.5, 0.25), Line(0.5, 0.25)}) == 1
    b = BranchConfig(1.0, 0.0, -1.0)
    moved = b.moved(1, 1e-3)
    assert "chart" not in repr(moved) and moved != BranchConfig(*moved.es)
    with pytest.raises(ContourGeometryError):
        b._replace(e2=1.0)
    p = make_params(b, 2.0, 0.1, 0.3, 0.2)
    batch = p.moved(np.array([0, 1]), 1e-3)
    assert batch.root is p and batch._replace(t=0.2).root is p
    assert p._replace(root=batch) == p and hash(p._replace(root=batch)) == hash(p)
    assert "root" not in repr(p)
    s = Scenario(*GOLDEN[:5])
    assert s.tolerances == {} and s.tolerances is not Scenario(*GOLDEN[:5]).tolerances
    r = CheckResult("x", "pass", 0.0, 1e-6, 1.0)
    r.status = "fail"
    assert r.status == "fail" and r.notes == ""


def test_every_default_parameter_is_set_outside_tests():
    # a parameter with a default, on a public function or method of the
    # package, must be passed, by keyword or by position, in some call in
    # src/ or perfbench/: a setting that only tests change has no job
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "elliptau").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in package + sorted((root / "perfbench").glob("*.py"))}
    defaults = []  # (where, name, parameter, its position or None)
    for path in package:
        for node in trees[path].body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *methods]:
                if not isinstance(d, ast.FunctionDef) or d.name.startswith("_"):
                    continue
                args = d.args
                positional = args.posonlyargs + args.args
                if d is not node:  # a method: the call passes self as its receiver
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], start=first):
                    defaults.append((path.name, d.name, arg.arg, k))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaults.append((path.name, d.name, arg.arg, None))
    calls = [c for tree in trees.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]

    def name(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    def passes(call, param, k):
        if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
            return True
        return any(isinstance(a, ast.Starred) for a in call.args) or (
            k is not None and len(call.args) > k)

    unset = sorted(f"{where}:{fn}({param})" for where, fn, param, k in defaults
                   if not any(name(c) == fn and passes(c, param, k) for c in calls))
    assert not unset, f"set only by tests, or by nothing: {unset}"


def _sequential_draw(rng, lattice):
    """One admissible branch as a lone draw makes it: candidates in stream
    order, the gap test, then the period ratio; a reference."""
    from elliptau.curve import BranchConfig
    from elliptau.errors import EllipTauError, ScenarioError

    for _ in range(500):
        es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
        gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) < 0.3 * max(gaps) or max(gaps) < 0.5:
            continue
        try:
            branch = BranchConfig(*es)
            if lattice(branch).Omega.imag >= 0.05:
                return branch
        except EllipTauError:
            continue
    raise ScenarioError("could not draw an admissible branch")


def test_batched_draws_consume_the_stream_as_sequential_draws(monkeypatch):
    # the period-ratio test rejects no drawn branch on its own, so it is
    # forced here, at the configuration's lattice read, to reject every
    # candidate whose e1 has a positive real part
    import types

    from elliptau.curve import BranchConfig
    from elliptau.scenario import SplitMix64, admissible_branch, admissible_branches

    real = BranchConfig.lattice
    rejected = []

    def forced(branch):
        if branch.es[0].real > 0:
            rejected.append(branch)
            return types.SimpleNamespace(Omega=0.01j)
        return real.__get__(branch, BranchConfig)

    monkeypatch.setattr(BranchConfig, "lattice", property(forced))
    for seed in (7, 8):
        for count in (1, 4, 9):
            ref_rng, one_rng, batch_rng = (SplitMix64(seed) for _ in range(3))
            ref = [_sequential_draw(ref_rng, forced) for _ in range(count)]
            ones = [admissible_branch(one_rng) for _ in range(count)]
            assert admissible_branches(batch_rng, count) == ones == ref
            assert batch_rng.state == one_rng.state == ref_rng.state
    assert rejected


def test_module_state_is_four_caches_and_a_verify_leaves_no_trace():
    # derived data lives on the value that owns it: the only module caches
    # are the four below, and no module-level dict, list or set of the
    # package holds other contents after a cold golden verify than before
    import importlib
    import pkgutil
    import sys

    import elliptau

    for info in pkgutil.iter_modules(elliptau.__path__):
        importlib.import_module(f"elliptau.{info.name}")
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("elliptau.") and m is not None]
    caches = {fn for m in modules for fn in vars(m).values()
              if callable(fn) and hasattr(fn, "cache_info")}
    assert {f"{fn.__module__}.{fn.__qualname__}" for fn in caches} == {
        # the size-1 theta call: perfbench reads its cache_info()
        "elliptau.elliptic._theta_jet",
        # the ring tables of a number p: a cold golden verify ran slower
        # without it in 18 and in 15 of two series of 20 alternating pairs
        "elliptau.elliptic._rings",
        # the periods of a configuration, which BranchConfig.lattice reads:
        # perfbench reads its cache_info(), and a cold golden verify makes
        # one miss and no hit on it
        "elliptau.curve.period_data",
        # the Abel map of one point: perfbench reads its cache_info()
        "elliptau.curve.abel_with_y",
    }

    def contents():
        out = {}
        for m in modules:
            for name, v in vars(m).items():
                if isinstance(v, dict) and not name.startswith("__"):
                    out[m.__name__, name] = [(k, id(x)) for k, x in v.items()]
                elif isinstance(v, (list, set)):
                    out[m.__name__, name] = sorted(map(id, v))
        return out

    for fn in caches:
        fn.cache_clear()
    before = contents()
    assert run_checks(GOLDEN).overall == "pass"
    assert contents() == before
