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

import cmath
import json
import math
from collections import namedtuple

from .curve import BranchConfig, periods_of
from .elliptic import _Value
from .errors import EllipTauError, ScenarioError

try:  # CPython's own SHA-256: hashlib would load OpenSSL for one small file
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

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


class Scenario(_Value, namedtuple("Scenario", "e a t p q seed checks tolerances")):
    """A scenario's fields; tolerances defaults to a new empty dict."""

    def __new__(cls, e, a, t, p, q, seed=0, checks=(), tolerances=None):
        return tuple.__new__(cls, (e, a, t, p, q, seed, checks,
                                   {} if tolerances is None else tolerances))

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
    except EllipTauError as exc:
        raise ScenarioError(f"invalid branch points or a: {exc}") from exc
    return Scenario(
        e=es, a=a, t=_as_complex(data["t"], "t"),
        p=float(data["p"]), q=float(data["q"]), seed=seed,
        checks=tuple(checks), tolerances=dict(tol),
    )


def read_scenario(path):
    """The scenario in the file at path and the SHA-256 hex digest of the
    bytes it was parsed from, which are read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        obj = json.loads(data)
    except ValueError as exc:  # not JSON, or not text
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # valid JSON too, nested past the recursion limit
        raise ScenarioError("scenario file nests too deeply to parse") from exc
    return scenario_from_dict(obj), sha256(data).hexdigest()


def load_scenario(path):
    """The scenario in the file at path."""
    return read_scenario(path)[0]


GOLDEN = Scenario(e=(1.0 + 0j, 0j, -1.0 + 0j), a=2.0 + 0j, t=0.1 + 0j,
                  p=0.3, q=0.2, seed=20260809)


def golden_dict():
    """GOLDEN as the JSON object of a scenario file."""
    g = GOLDEN
    return {"e": [[e.real, e.imag] for e in g.e], "a": [g.a.real, g.a.imag],
            "t": [g.t.real, g.t.imag], "p": g.p, "q": g.q, "seed": g.seed,
            "checks": [], "tolerances": {}}


def admissible_branch(rng):
    """Draw three branch points from complex_box(-1.2, 1.2) until their
    minimum pairwise gap is at least 0.3 of their spread, the spread is at
    least 0.5 and the period ratio has Im >= 0.05; at most 500 attempts.
    The one-draw case of admissible_branches."""
    return admissible_branches(rng, 1)[0]


def admissible_branches(rng, count):
    """count admissible_branch draws, leaving rng where count calls of it
    leave it: the candidates that pass the gap test get their periods from
    one periods_of call, and those the period ratio rejects are topped up.
    Each accepted configuration is the object that periods_of computed."""
    out, tries = [], 0  # tries: attempts of the draw under way
    while len(out) < count:
        found, spent, last = [], 0, 0  # candidates and their attempt; attempts; last accepted
        while len(found) < count - len(out) and tries + spent < 500:
            spent += 1
            es = tuple(rng.complex_box(-1.2, 1.2) for _ in range(3))
            gaps = [abs(es[i] - es[j]) for i in range(3) for j in range(i + 1, 3)]
            if min(gaps) >= 0.3 * max(gaps) and max(gaps) >= 0.5:
                found.append((es, spent))
        branches = [BranchConfig(*es) for es, _ in found]  # the gap test keeps them apart
        try:
            periods_of(branches)
        except EllipTauError:
            pass  # each candidate below then computes alone and fails alone
        for branch, (_, attempt) in zip(branches, found):
            try:
                if branch.lattice.Omega.imag < 0.05:
                    continue
            except EllipTauError:
                continue
            out.append(branch)
            last, tries = attempt, 0
        tries += spent - last
        if tries >= 500:
            raise ScenarioError("could not draw an admissible branch")
    return out


def random_admissible_scenario(rng, seed=0):
    """Draw an admissible branch, then a, t, p, q within the bounds.

    a stays at least 0.4 of the branch spread away from every branch point,
    |t| is at most 0.3, and p and q are real in (0.05, 0.95) away from 0.5 by
    at least 0.05; a rejected draw starts over with a new branch, for at
    most 500 attempts.
    """
    for _ in range(500):
        branch = admissible_branch(rng)
        a = branch.centroid + (0.8 + rng.uniform(0.0, 1.2) * branch.scale) * rng.unit_phase()
        if min(abs(a - e) for e in branch.es) < 0.4 * branch.scale:
            continue
        t = rng.uniform(0.05, 0.3) * rng.unit_phase()
        p = rng.uniform(0.05, 0.95)
        if abs(p - 0.5) < 0.05:
            continue
        q = rng.uniform(0.05, 0.95)
        if abs(q - 0.5) < 0.05:
            continue
        return Scenario(e=branch.es, a=a, t=t, p=p, q=q, seed=seed)
    raise ScenarioError("could not draw an admissible scenario")
