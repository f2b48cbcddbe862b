"""Mutation gate: every closed form has a check that fails when it is wrong.

Each mutant scales one closed form's value by (1 + DELTA), every entry of a
matrix alike, and is patched in under every name the package holds it by
(the defining module and each `from .x import y` alias).  The named checks
run on the golden scenario: unmutated they all pass, mutated at least one
fails.  A closed form that its checks cannot catch shows up as a row whose
mutant passes them.
"""

import importlib
import sys

import pytest

from elliptau.checks import run_checks
from elliptau.isomono import YSolution
from elliptau.scenario import GOLDEN

DELTA = 1e-5


def _scaled(fn, s):
    return lambda *args, **kwargs: fn(*args, **kwargs) * s


def _scaled_sums(fn, s):
    """Mutant factory scaling the sums of a (sums, settled mask) result."""
    def mutant(*args, **kwargs):
        sums, ok = fn(*args, **kwargs)
        return sums * s, ok
    return mutant


def _scaled_field(name):
    """Mutant factory scaling each matrix of the result's dict field `name`."""
    def factory(fn, s):
        def mutant(*args, **kwargs):
            out = fn(*args, **kwargs)
            return out._replace(**{name: {k: v * s for k, v in getattr(out, name).items()}})
        return mutant
    return factory


# (module, name, mutant factory, checks expected to catch it)
MUTANTS = {
    "H_t": ("tau", "H_t", _scaled, ("dlogtau_dt", "h_t_residue_oracle")),
    "H_nu": ("tau", "H_nu", _scaled, ("dlogtau_de", "hamiltonian_cross")),
    "dOmega_de": ("curve", "dOmega_de", _scaled, ("domega_de",)),
    "dlog_omega1_de": ("curve", "dlog_omega1_de", _scaled, ("dlog_omega1_de",)),
    "residue_formula": ("tau", "residue_formula", _scaled, ("residue_identity",)),
    "quasiperiod_ratio_derivative": ("curve", "quasiperiod_ratio_derivative", _scaled,
                                     ("quasiperiod_ratio_derivative",)),
    "omega_a_de_component": ("tau", "omega_a_de_component", _scaled,
                             ("hamiltonian_cross",)),
    "log_tau": ("tau", "log_tau", _scaled, ("dlogtau_dt", "dlogtau_de")),
    "sigma_shift_dlog_tau_dt": ("tau", "sigma_shift_dlog_tau_dt", _scaled,
                                ("shifted_tau_dlog", "shifted_tau_trace")),
    "sigma_shift_tau": ("tau", "sigma_shift_tau", _scaled, ("shifted_tau_at_zero",)),
    "sigma_shift_y1": ("tau", "sigma_shift_y1", _scaled, ("shifted_tau_trace",)),
    "theoretical_monodromy M": ("isomono", "theoretical_monodromy", _scaled_field("M"),
                                ("monodromy_match",)),
    "YSolution.y1_closed_form": (None, "y1_closed_form", _scaled, ("y1_closed_form",)),
    "coefficients A_nu": ("isomono", "coefficients", _scaled_field("A"),
                          ("ode_residual", "deformation_equation")),
    "deformation_rhs": ("isomono", "deformation_rhs", _scaled, ("deformation_equation",)),
    "_taylor_sums transfers": ("monodromy", "_taylor_sums", _scaled_sums, ("monodromy_match",)),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("elliptau.") and m is not None]


def _clear_caches():
    for mod in _package_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _patch(mp, module, name, factory, scale):
    if module is None:
        mp.setattr(YSolution, name, _scaled(getattr(YSolution, name), scale))
        return
    original = getattr(importlib.import_module(f"elliptau.{module}"), name)
    mutant = factory(original, scale)
    for mod in _package_modules():
        for alias, obj in list(vars(mod).items()):
            if obj is original:
                mp.setattr(mod, alias, mutant)


def _statuses(checks):
    return {r.name: r.status for r in run_checks(GOLDEN, checks=checks).results}


@pytest.mark.parametrize("label", list(MUTANTS))
def test_mutant_is_caught(label, monkeypatch):
    module, name, factory, checks = MUTANTS[label]
    _clear_caches()
    try:
        assert set(_statuses(checks).values()) == {"pass"}
        with monkeypatch.context() as mp:
            _patch(mp, module, name, factory, 1.0 + DELTA)
            _clear_caches()
            mutated = _statuses(checks)
    finally:
        _clear_caches()
    assert "fail" in mutated.values(), f"{label} scaled by 1 + {DELTA} passes {mutated}"
