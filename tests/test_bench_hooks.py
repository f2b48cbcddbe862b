"""The names the layer benchmark reads from the package keep their shape.

perfbench/worker.py reads the cache counters of three cached functions and
calls the monodromy chain step by step; perfbench/spans.py times module-level
public functions and the public methods of the solution classes by name.  A
rename must fail here instead of silently zeroing a traced metric.
"""

import inspect
import types

from elliptau import cli, curve, elliptic, isomono, monodromy


def test_cached_functions_keep_their_counters():
    for fn in (elliptic._theta_jet, curve.period_data, curve.abel_with_y):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_functions_are_module_level_and_public():
    expected = {
        isomono: ("make_params", "build_phi", "normalize_Y", "coefficients",
                  "theoretical_monodromy"),
        monodromy: ("base_point", "calibrate_loops", "continue_solution"),
        curve: ("period_data", "abel_with_y", "path_integral"),
        cli: ("main",),
    }
    for module, names in expected.items():
        for name in names:
            fn = getattr(module, name)
            assert callable(fn) and not isinstance(fn, type)
            assert fn.__module__ == module.__name__


def test_traced_methods_are_plain_functions():
    for cls, name in ((isomono.YSolution, "y_at"),
                      (isomono.SystemCoefficients, "A_of")):
        assert isinstance(vars(cls)[name], types.FunctionType)


def test_call_shapes_the_worker_uses():
    assert _params(isomono.make_params) == ["branch", "a", "t", "p", "q"]
    assert _params(isomono.build_phi) == ["params"]
    assert _params(isomono.normalize_Y)[:2] == ["params", "phi"]
    assert {"phi", "sol"} <= set(_params(isomono.coefficients))
    assert _params(isomono.YSolution.y_at)[:2] == ["self", "x"]
    assert _params(isomono.SystemCoefficients.A_of) == ["self", "x"]
    assert _params(monodromy.base_point) == ["branch"]
    assert _params(monodromy.calibrate_loops) == ["params"]
    assert _params(monodromy.continue_solution) == ["coeffs", "pieces", "Y0"]
