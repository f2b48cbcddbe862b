"""tests/mutation_sweep.py: its targets, its sites and its verdicts, with no
verify run."""

import ast
import importlib.util
import inspect
import threading
import time
from pathlib import Path

import pytest

from elliptau.isomono import YSolution


@pytest.fixture
def sweep(monkeypatch):
    # the tool imported by path, with a run that fails the test if it starts
    spec = importlib.util.spec_from_file_location(
        "mutation_sweep", Path(__file__).resolve().parent / "mutation_sweep.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def no_verify(*args):
        raise AssertionError("a verify ran before every target was resolved")

    monkeypatch.setattr(tool, "_outputs", no_verify)
    return tool


@pytest.mark.parametrize("target, message", [
    ("isomono.NoSuchClass", "no function 'isomono.NoSuchClass'"),
    ("nosuchmodule", "no module 'nosuchmodule'"),
])
def test_an_unknown_target_exits_before_the_baseline(sweep, target, message):
    with pytest.raises(SystemExit) as exited:
        sweep.main(["tau", target])
    assert message in str(exited.value)


def test_a_class_target_names_its_methods(sweep):
    def names(target):
        return [name for name, _ in sweep._resolve(target)[2]]

    methods = [name for name, v in vars(YSolution).items() if inspect.isfunction(v)]
    assert names("isomono.YSolution") == [f"YSolution.{m}" for m in methods]
    assert "YSolution.y_at" in names("isomono.YSolution")
    assert names("isomono.YSolution.y_at") == ["YSolution.y_at"]


def test_each_site_is_one_mutant(sweep):
    # a nested function's sites are its own only, and the two operators of
    # a * b / c lie apart: no two mutants of a module share line, column, kind
    for path in sorted((sweep.SRC / "elliptau").glob("*.py")):
        functions = sweep._functions(ast.parse(path.read_text()), None)
        keys = [sweep._place(node) + (kind,) for _, fn in functions for node, kind in sweep._sites(fn)]
        assert len(keys) == len(set(keys)), path.name
    assert [name for name, _ in sweep._resolve("monodromy._continue_paths")[2]] == [
        "_continue_paths", "_continue_paths.rows"]


BASE = {"golden legendre": ("pass", "4e-15"), "draw 3 wp_ode": ("pass", "2e-14"),
        "tau": (0, "t,re_log_tau\n0,1.5\n")}


@pytest.mark.parametrize("mutant, label, ratio, output", [
    (dict(BASE), "blind", None, None),
    (dict(BASE, **{"draw 3 wp_ode": ("pass", "6e-14")}), "weak", 3.0, "draw 3 wp_ode"),
    (dict(BASE, **{"tau": (0, "t,re_log_tau\n0,1.25\n")}), "weak", None, "tau"),
    (dict(BASE, **{"golden legendre": ("fail", "4e-15")}), "killed", None, None),
    (dict(BASE, **{"tau": (1, "t,re_log_tau\n0,nan\n")}), "killed", None, None),
    (None, "killed", None, None),
])
def test_blind_weak_and_killed(sweep, mutant, label, ratio, output):
    got = sweep.classify(BASE, mutant)
    assert got == (label, pytest.approx(ratio) if ratio else None, output)


def test_two_runs_at_a_time_after_the_baseline(sweep, monkeypatch, capsys):
    running, most, calls = [0], [0], []
    lock = threading.Lock()

    def fake(src, module=None, mutated=None):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            calls.append(module)
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return dict(BASE)

    monkeypatch.setattr(sweep, "_outputs", fake)
    sweep.main(["scenario.SplitMix64.next_u64"])
    assert sweep.JOBS == 2 and most[0] <= sweep.JOBS
    assert calls[0] is None and calls[1:] and None not in calls[1:]
    assert "blind: scenario.SplitMix64.next_u64" in capsys.readouterr().out

    monkeypatch.setattr(sweep, "_outputs", lambda *args: dict(
        BASE, **{"golden legendre": ("fail", "1.0")}) if not args[1:] else fake(*args))
    with pytest.raises(SystemExit, match="unmutated source fails"):
        sweep.main(["scenario.SplitMix64.next_u64"])
