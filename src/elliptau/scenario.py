"""Scenario files and the deterministic random-draw contract.

A scenario is a JSON object

    { "e": [[re,im],[re,im],[re,im]], "a": [re,im], "t": [re,im],
      "p": re, "q": re, "seed": int,
      "checks": [name, ...], "tolerances": {name: float, ...} }

with "checks" empty or absent meaning every registered check, and
"tolerances" overriding per-check defaults.

Randomized draws inside checks come from SplitMix64 streams: the stream for
check NAME is seeded with seed XOR fnv1a64(NAME), so check selection and
ordering never change the draws and reports are bit-reproducible across
platforms up to floating-point law.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

from .curve import BranchConfig, periods
from .errors import EllipTauError, ScenarioError

_MASK = (1 << 64) - 1


def fnv1a64(text):
    """64-bit FNV-1a hash of a string; names per-check random streams."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


class SplitMix64:
    """SplitMix64 generator: 64-bit state, gamma 0x9E3779B97F4A7C15."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * (self.next_u64() >> 11) * 2.0**-53

    def complex_box(self, lo=-1.0, hi=1.0):
        return complex(self.uniform(lo, hi), self.uniform(lo, hi))

    def unit_phase(self):
        return cmath.exp(2j * math.pi * self.uniform())


def check_stream(seed, name):
    """The SplitMix64 stream a named check draws from."""
    return SplitMix64((seed ^ fnv1a64(name)) & _MASK)


@dataclass(frozen=True)
class Scenario:
    e: tuple
    a: complex
    t: complex
    p: float
    q: float
    seed: int = 0
    checks: tuple = ()
    tolerances: dict = field(default_factory=dict)

    @property
    def branch(self):
        return BranchConfig(*self.e)


def _is_real(value):
    """A finite JSON number; booleans (a subclass of int) are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _as_complex(value, key):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_real(v) for v in value)):
        raise ScenarioError(
            f"field {key!r} must be a [re, im] pair of finite reals, got {value!r}")
    return complex(value[0], value[1])


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    missing = [k for k in ("e", "a", "t", "p", "q") if k not in data]
    if missing:
        raise ScenarioError(f"scenario is missing fields: {missing}")
    e_raw = data["e"]
    if not isinstance(e_raw, (list, tuple)) or len(e_raw) != 3:
        raise ScenarioError("field 'e' must hold exactly three [re, im] pairs")
    es = tuple(_as_complex(v, "e") for v in e_raw)
    if len({*es}) != 3:
        raise ScenarioError("branch points must be pairwise distinct")
    for k in ("p", "q"):
        if not _is_real(data[k]):
            raise ScenarioError(f"field {k!r} must be a finite real, got {data[k]!r}")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError(f"field 'seed' must be an integer, got {seed!r}")
    checks = data.get("checks", ())
    if (not isinstance(checks, (list, tuple))
            or not all(isinstance(c, str) for c in checks)):
        raise ScenarioError("field 'checks' must be a list of names")
    tol = data.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ScenarioError("field 'tolerances' must be an object")
    for k, v in tol.items():
        if not isinstance(k, str) or not _is_real(v) or v <= 0:
            raise ScenarioError(
                "field 'tolerances' must map names to positive finite reals")
    a = _as_complex(data["a"], "a")
    try:
        BranchConfig(*es).check_regular_point(a)
    except Exception as exc:
        raise ScenarioError(f"invalid branch points or a: {exc}") from exc
    return Scenario(
        e=es, a=a, t=_as_complex(data["t"], "t"),
        p=float(data["p"]), q=float(data["q"]), seed=seed,
        checks=tuple(checks), tolerances=dict(tol),
    )


def load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


GOLDEN = Scenario(e=(1.0 + 0j, 0j, -1.0 + 0j), a=2.0 + 0j, t=0.1 + 0j,
                  p=0.3, q=0.2, seed=20260809)


def golden_dict():
    return {
        "e": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
        "a": [2.0, 0.0],
        "t": [0.1, 0.0],
        "p": 0.3,
        "q": 0.2,
        "seed": 20260809,
        "checks": [],
        "tolerances": {},
    }


def random_admissible_scenario(rng, seed=0):
    """Draw branch points, a, t, p, q satisfying the admissibility bounds.

    Branch points keep a minimum pairwise separation of 0.3 of their spread,
    a stays at least 0.4 of the spread away from every branch point, |t| is
    at most 0.3, p and q are real in (0.05, 0.95) away from 0.5 by at least
    0.05, and the period ratio satisfies Im >= 0.05 (checked by the caller
    when the lattice is built).
    """
    for _ in range(500):
        es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
        scale = max(abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3))
        gap = min(abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3))
        if gap < 0.3 * scale or scale < 0.5:
            continue
        centroid = sum(es) / 3.0
        a = centroid + (0.8 + rng.uniform(0.0, 1.2) * scale) * rng.unit_phase()
        if min(abs(a - e) for e in es) < 0.4 * scale:
            continue
        t = rng.uniform(0.05, 0.3) * rng.unit_phase()
        p = rng.uniform(0.05, 0.95)
        if abs(p - 0.5) < 0.05:
            continue
        q = rng.uniform(0.05, 0.95)
        if abs(q - 0.5) < 0.05:
            continue
        try:
            branch = BranchConfig(*es)
            lat = periods(branch)
        except EllipTauError:
            continue
        if lat.Omega.imag < 0.05:
            continue
        return Scenario(e=es, a=a, t=t, p=p, q=q, seed=seed)
    raise ScenarioError("could not draw an admissible scenario")
