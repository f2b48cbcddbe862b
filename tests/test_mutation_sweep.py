"""tests/mutation_sweep.py resolves every target before its first verify."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from elliptau.isomono import YSolution


@pytest.fixture
def sweep(monkeypatch):
    # the tool imported by path, with a verify that fails the test if it runs
    spec = importlib.util.spec_from_file_location(
        "mutation_sweep", Path(__file__).resolve().parent / "mutation_sweep.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def no_verify(*args):
        raise AssertionError("a verify ran before every target was resolved")

    monkeypatch.setattr(tool, "_survives", no_verify)
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
