"""Scenario handling, the deterministic RNG contract, and the CLI surface."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import elliptau.checks
import elliptau.cli
import elliptau.curve
import elliptau.elliptic
import elliptau.isomono
import elliptau.monodromy
import elliptau.scenario
from elliptau.checks import (
    CHECKS,
    SUITES,
    CheckResult,
    _installed_version,
    _platform_name,
    resolve_check_names,
    run_checks,
)
from elliptau.cli import main
from elliptau.elliptic import ThetaChar
from elliptau.errors import (
    DegenerateParameterError,
    EllipTauError,
    QuadratureError,
    ScenarioError,
)
from elliptau.isomono import DeformationParams, make_params
from elliptau.monodromy import monodromy_matrices
from elliptau.scenario import (
    GOLDEN,
    SplitMix64,
    check_stream,
    fnv1a64,
    golden_dict,
    load_scenario,
    random_admissible_scenario,
    read_scenario,
    scenario_from_dict,
)
from elliptau.tau import H_t, log_tau


def test_splitmix_reference_sequence():
    # frozen first outputs of the generator at seed 42; the documented
    # contract for reproducible reports
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_uniform_range_and_determinism():
    a = SplitMix64(7)
    b = SplitMix64(7)
    xs = [a.uniform() for _ in range(100)]
    assert xs == [b.uniform() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_check_streams_isolated_by_name():
    s1 = check_stream(1, "legendre")
    s2 = check_stream(1, "wp_ode")
    assert s1.next_u64() != s2.next_u64()
    assert fnv1a64("legendre") != fnv1a64("wp_ode")


def test_scenario_roundtrip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(golden_dict()))
    s = load_scenario(path)
    assert s.e == GOLDEN.e
    assert s.a == GOLDEN.a
    assert s.p == GOLDEN.p


def test_scenario_validation_errors():
    base = golden_dict()
    bad = dict(base)
    bad["e"] = [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)
    bad = dict(base)
    del bad["a"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)
    bad = dict(base)
    bad["p"] = "x"
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)
    bad = dict(base)
    bad["tolerances"] = {"legendre": -1.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)


def test_unknown_check_rejected():
    with pytest.raises(ScenarioError):
        resolve_check_names(["not_a_check"])


def test_suite_names_expand():
    names = resolve_check_names(["elliptic"])
    assert names == SUITES["elliptic"]
    assert resolve_check_names([]) == list(CHECKS)


def test_every_check_sits_in_one_suite():
    # each check appears once over all suites, and in registry order
    members = [n for names in SUITES.values() for n in names]
    assert members == list(CHECKS)


def test_inconclusive_is_a_structured_status(monkeypatch):
    # a residual that does not shrink from the 2-point sub-ring to the full
    # ring cannot be judged, even though it is below the tolerance
    real = elliptau.checks.ring_derivative

    def no_gain(*args):
        d, _ = real(*args)
        return d, d

    monkeypatch.setattr(elliptau.checks, "ring_derivative", no_gain)
    rep = run_checks(GOLDEN, checks=["deformation_equation"])
    assert rep.results[0].status == "inconclusive"
    assert rep.results[0].residual < rep.results[0].tolerance
    assert rep.overall == "fail"


def test_notes_prefix_is_not_a_status(monkeypatch):
    def check(ctx, rng):
        return 0.0, "INCONCLUSIVE in name only"

    monkeypatch.setitem(CHECKS, "legendre", (check, "elliptic", 1e-10))
    rep = run_checks(GOLDEN, checks=["legendre"])
    assert rep.results[0].status == "pass"
    assert rep.overall == "pass"


def test_single_check_report():
    rep = run_checks(GOLDEN, checks=["legendre"])
    assert len(rep.results) == 1
    assert rep.results[0].name == "legendre"
    assert rep.results[0].status == "pass"
    assert rep.overall == "pass"


def test_report_serialization_digits():
    rep = run_checks(GOLDEN, checks=["legendre"])
    d = rep.to_json_dict()
    assert d["overall"] == "pass"
    assert d["environment"]["precision"] == "float64/complex128"
    rec = d["checks"][0]
    assert isinstance(rec["residual"], str)
    float(rec["residual"])  # parses back
    assert rec["status"] == "pass"


def test_report_explains_itself(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    out = tmp_path / "r.json"
    argv = ["verify", "--scenario", str(scenario), "--checks",
            "legendre,y_normalization", "--out", str(out)]
    assert main(argv) == 0
    d = json.loads(out.read_text())
    env = d["environment"]
    assert env["scenario_sha256"] == hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert env["argv"] == argv
    assert env["seed"] == GOLDEN.seed
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"]
    assert env["platform"]
    for c in d["checks"]:
        expected = math.log10(float(c["tolerance"]) / float(c["residual"]))
        assert float(c["headroom"]) == pytest.approx(expected, rel=1e-15)
        assert float(c["runtime_ms"]) >= 0
    # y_normalization builds params, phi and sol; each stage is timed once
    assert {"branch", "params", "phi", "sol"} <= set(d["stage_s"])
    assert all(float(v) >= 0 for v in d["stage_s"].values())


def test_verify_defaults_are_the_library_defaults(tmp_path):
    # --tol-scale and --draw-scale default to run_checks' 1.0: the record of
    # a check in the report is the one run_checks gives (its notes count
    # the draws)
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    out = tmp_path / "r.json"
    assert main(["verify", "--scenario", str(scenario), "--checks", "abel_roundtrip",
                 "--out", str(out)]) == 0
    (c,) = json.loads(out.read_text())["checks"]
    (ref,) = run_checks(GOLDEN, checks=["abel_roundtrip"]).results
    assert (float(c["residual"]), float(c["tolerance"]), c["notes"]) == (
        ref.residual, ref.tolerance, ref.notes)


def test_stage_and_check_times_read_one_clock(monkeypatch):
    # on a clock that reads 0.5 s later at each read, a stage excludes the
    # stage it builds, and a check that builds none spends one tick
    ticks = iter(np.arange(0.0, 100.0, 0.5).tolist())
    monkeypatch.setattr(elliptau.checks, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    ctx = elliptau.checks.CheckContext(GOLDEN)
    ctx._get("outer", lambda: ctx._get("inner", lambda: None))
    assert ctx.stage_s == {"inner": 0.5, "outer": 1.0}
    (r,) = run_checks(GOLDEN, checks=["legendre"]).results
    assert r.runtime_ms == 500.0


def test_environment_versions_match_importlib_metadata():
    import importlib.metadata

    for dist in ("scipy", "numpy"):
        assert _installed_version(dist) == importlib.metadata.version(dist)
    assert _installed_version("no-such-distribution") is None


def test_platform_name_is_platform_platform():
    # platform.platform() drops a processor that is blank, unknown or the
    # machine name; the report's name never reads the processor
    if platform.processor() not in ("", "unknown", platform.machine()):
        pytest.skip("this host's platform string names its processor")
    assert _platform_name() == platform.platform()


def _fresh_python(script):
    """The JSON of the last stdout line of script, run in a fresh interpreter
    that imports the package from this checkout."""
    src = str(Path(elliptau.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_verify_imports_no_subprocess(tmp_path):
    # a fresh interpreter's verify fills its environment block without
    # spawning anything (platform.platform() runs `uname -p`)
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert _fresh_python(f"""
        import contextlib, io, json, sys
        import elliptau.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = elliptau.cli.main(["verify", "--scenario", {str(scenario)!r},
                                      "--out", {str(tmp_path / "report.json")!r}])
        print(json.dumps([code, "subprocess" in sys.modules]))
    """) == [0, False]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["environment"]["platform"] == _platform_name()


def test_cli_imports_no_scipy_and_tau_imports_nothing_late(tmp_path):
    # In a fresh interpreter: the runtime needs numpy only, and a tau sweep
    # imports no numpy or package module lazily, inside the timed region.
    # Nor does the import, a tau sweep or a one-suite verify load OpenSSL's
    # _hashlib, numpy.polynomial, dataclasses or glob, which numpy leaves out.
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code, scipy, late, verified, heavy = _fresh_python(f"""
        import contextlib, io, json, sys
        import numpy
        with_numpy = set(sys.modules)
        import elliptau.cli
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = elliptau.cli.main(["tau", "--scenario", {str(scenario)!r},
                                      "--grid", "t=0:0.01:0.001"])
        late = sorted(m for m in set(sys.modules) - before
                      if m.split(".")[0] in ("numpy", "elliptau"))
        with contextlib.redirect_stdout(io.StringIO()):
            verified = elliptau.cli.main(["verify", "--scenario", {str(scenario)!r},
                                          "--checks", "elliptic",
                                          "--out", {str(tmp_path / "report.json")!r}])
        heavy = [m for m in ("_hashlib", "numpy.polynomial", "dataclasses", "glob")
                 if m in sys.modules and m not in with_numpy]
        print(json.dumps([code, scipy, late, verified, heavy]))
    """)
    assert code == 0
    assert scipy == []
    assert late == []
    assert verified == 0
    assert heavy == []


def test_scenario_digest_with_and_without_the_builtin_sha256(tmp_path):
    # CPython's own _sha256 where it exists, else hashlib: the same digest
    import _sha256

    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    expected = hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert elliptau.scenario.sha256 is _sha256.sha256
    assert read_scenario(scenario) == (GOLDEN, expected)
    assert _fresh_python(f"""
        import hashlib, json, sys
        sys.modules["_sha256"] = None  # import _sha256 raises ImportError
        import elliptau.scenario
        print(json.dumps([elliptau.scenario.sha256 is hashlib.sha256,
                          elliptau.scenario.read_scenario({str(scenario)!r})[1]]))
    """) == [True, expected]


def test_report_digest_names_the_bytes_that_were_verified(tmp_path, monkeypatch):
    # a check that rewrites the scenario file does not change the digest:
    # the file is read once, and parsed and hashed from the same bytes
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    original = hashlib.sha256(scenario.read_bytes()).hexdigest()

    def rewriting(ctx, rng):
        scenario.write_text(json.dumps(dict(golden_dict(), seed=7)))
        return 0.0, "rewrote the scenario file"

    monkeypatch.setitem(CHECKS, "legendre", (rewriting, "elliptic", 1e-10))
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario", str(scenario), "--checks", "legendre",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(scenario.read_bytes()).hexdigest() != original
    assert json.loads(out.read_text())["environment"]["scenario_sha256"] == original


def test_headroom_at_the_extremes():
    r = CheckResult("x", "pass", 0.0, 1e-6, 1.0)
    assert r.headroom == math.inf
    r.residual = math.inf
    assert r.headroom == -math.inf
    r.residual = 1e-9
    assert r.headroom == pytest.approx(3.0)


def test_cli_verify_subset(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", str(scenario),
                 "--checks", "legendre,wp_ode", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [c["name"] for c in data["checks"]] == ["legendre", "wp_ode"]
    assert data["overall"] == "pass"


def test_cli_verify_writes_over_an_existing_report(tmp_path):
    # the report is written over the old file and cut at its end: a longer
    # file at --out keeps no stale tail, and through a symlink the target
    # is updated (the link stays a link)
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    argv = ["verify", "--scenario", str(scenario), "--checks", "legendre", "--out"]
    fresh = tmp_path / "fresh.json"
    assert main(argv + [str(fresh)]) == 0
    expected = json.loads(fresh.read_text())
    out = tmp_path / "report.json"
    out.write_text("x" * (10 * fresh.stat().st_size))
    assert main(argv + [str(out)]) == 0
    text = out.read_text()
    got = json.loads(text)
    assert text == json.dumps(got, indent=2) + "\n"
    for report in (got, expected):  # the same report but for its times and argv
        for check in report["checks"]:
            del check["runtime_ms"]
        del report["stage_s"], report["environment"]["argv"]
    assert got == expected
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(out.read_text())["environment"]["argv"][-1] == str(link)


def test_cli_tol_scale_can_force_failure(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", str(scenario),
                 "--checks", "legendre", "--tol-scale", "1e-18",
                 "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["overall"] == "fail"


def test_cli_invalid_scenario_exits_2(tmp_path):
    bad = golden_dict()
    bad["e"][1] = bad["e"][0]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(bad))
    code = main(["verify", "--scenario", str(scenario),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("e", [[NAN, 0.0], [0.0, 0.0], [-1.0, 0.0]]),
    ("e", [[1.0, 0.0], [0.0, -INF], [-1.0, 0.0]]),
    ("a", [NAN, 0.0]),
    ("a", [2.0, INF]),
    ("t", [-INF, 0.0]),
    ("t", [0.1, NAN]),
    ("p", True),
    ("q", False),
    ("p", NAN),
    ("q", INF),
    ("seed", True),
    ("tolerances", {"legendre": NAN}),
    ("tolerances", {"legendre": INF}),
    ("tolerances", [1, 2]),
    ("checks", 5),
    ("checks", "legendre"),
], ids=["e-nan", "e-inf", "a-nan", "a-inf", "t-inf", "t-nan", "p-bool",
        "q-bool", "p-nan", "q-inf", "seed-bool", "tol-nan", "tol-inf",
        "tol-list", "checks-int", "checks-str"])
def test_malformed_field_exits_2(tmp_path, field, value):
    bad = golden_dict()
    bad[field] = value
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)
    # json writes NaN and Infinity literals, which json.load reads back
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(bad))
    code = main(["verify", "--scenario", str(scenario), "--checks", "solution",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--tol-scale", "--draw-scale"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_cli_non_positive_or_non_finite_scale_exits_2(tmp_path, flag, value):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["verify", "--scenario", str(scenario), "--checks", "legendre",
                 f"{flag}={value}", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["verify", "tau", "monodromy"])
def test_a_next_to_a_branch_point_exits_2(tmp_path, command):
    # golden spread is 2, so a must keep 2e-6 from e1 = 1
    bad = golden_dict()
    bad["a"] = [1.0, 1e-9]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(bad))
    report = tmp_path / "r.json"
    extra = {"verify": ["--checks", "solution", "--out", str(report)],
             "tau": ["--grid", "t=0:0.2:0.1"],
             "monodromy": ["--loop", "1"]}[command]
    assert main([command, "--scenario", str(scenario), *extra]) == 2
    assert not report.exists()


def test_a_just_inside_the_bound_loads():
    ok = golden_dict()
    ok["a"] = [1.0, 2.001e-6]
    assert scenario_from_dict(ok).a == complex(1.0, 2.001e-6)
    ok["a"] = [1.0, 1.999e-6]
    with pytest.raises(ScenarioError, match="1e-6 of the branch spread"):
        scenario_from_dict(ok)


def test_programming_error_in_the_load_check_propagates(monkeypatch):
    # only the package's own errors become a configuration error (exit 2)
    def broken(self, a):
        raise TypeError("not a configuration error")

    monkeypatch.setattr(elliptau.curve.BranchConfig, "check_regular_point", broken)
    with pytest.raises(TypeError, match="not a configuration error"):
        scenario_from_dict(golden_dict())


def test_tau_grid_is_parsed_without_forming_its_points():
    tracemalloc.start()
    try:
        start, step, n = elliptau.cli._parse_grid("t=0:1:1e-12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (start, step, n) == (0.0, 1e-12, 10**12 + 1)
    assert peak < 100_000


def test_cli_misspelled_tolerance_exits_2(tmp_path, capsys):
    # a tolerance for a name that is no check would silently fall back to the
    # default, so the run is refused before any check
    data = dict(golden_dict(), tolerances={"legendr": 1e-30, "legendre": 1e-10})
    scenario = tmp_path / "typo.json"
    scenario.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code = main(["verify", "--scenario", str(scenario), "--checks", "legendre",
                 "--out", str(report)])
    assert code == 2
    assert "['legendr']" in capsys.readouterr().err
    assert not report.exists()


def test_cli_unknown_check_exits_2(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["verify", "--scenario", str(scenario),
                 "--checks", "bogus", "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_cli_verify_unwritable_out_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    ran = []
    monkeypatch.setattr(elliptau.cli, "run_checks", lambda *args, **kw: ran.append(args))
    out = tmp_path / "missing" / "r.json"
    code = main(["verify", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2 and ran == []
    assert f"configuration error: cannot write {out}" in capsys.readouterr().err
    # a writable path that holds no file yet is left without one on an error
    monkeypatch.undo()
    code = main(["verify", "--scenario", str(scenario), "--checks", "bogus",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2 and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", [["verify"], ["tau", "--grid", "t=0:1:0.5"],
                                     ["monodromy", "--loop", "1"]],
                         ids=["verify", "tau", "monodromy"])
def test_a_scenario_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, command):
    # valid JSON 3,000 levels deep makes the parser raise RecursionError, a
    # configuration error like any other unreadable scenario, and verify
    # writes no report
    scenario, out = tmp_path / "deep.json", tmp_path / "r.json"
    scenario.write_text('{"e": ' + "[" * 3000 + "]" * 3000 + "}")
    argv = [command[0], "--scenario", str(scenario), *command[1:]]
    code = main(argv + (["--out", str(out)] if command == ["verify"] else []))
    assert code == 2 and not out.exists()
    assert ("configuration error: scenario file nests too deeply to parse"
            in capsys.readouterr().err)


def test_cli_tau_unwritable_out_exits_2_before_any_row(tmp_path, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0:0.2:0.1",
                 "--out", str(tmp_path)])  # a directory
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"configuration error: cannot write {tmp_path}" in err


def test_cli_tau_grid(tmp_path, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0:0.2:0.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,re_log_tau,im_log_tau,re_H_t,im_H_t"
    assert len(lines) == 4  # header + t = 0, 0.1, 0.2
    row = lines[2].split(",")
    assert len(row) == 5
    assert abs(float(row[0]) - 0.1) < 1e-12
    float(row[1]), float(row[3])


def test_cli_tau_failed_row_exits_1(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    # a zero of theta forced into the chunk's jet at t = 0.1; its error is
    # renamed so that the message names the forcing
    jet = DeformationParams.theta_jet.func
    real = elliptau.cli.theta_zero_errors

    def forced_zero(params):
        th, thz = jet(params)
        return np.where(np.abs(params.t - 0.1) < 1e-12, 0j, th), thz

    def flaky(params):
        return {k: DegenerateParameterError("forced failure") for k in real(params)}

    monkeypatch.setattr(DeformationParams, "theta_jet", property(forced_zero))
    monkeypatch.setattr(elliptau.cli, "theta_zero_errors", flaky)
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0:0.2:0.1"])
    assert code == 1
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 4  # the CSV keeps every row
    assert lines[2] == "0.1,nan,nan,nan,nan"
    assert all("nan" not in line for line in (lines[1], lines[3]))
    assert err.strip() == ("tau: 1/3 rows failed; first at t=0.1: "
                           "DegenerateParameterError: forced failure")


def test_cli_tau_nonfinite_row_exits_1(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    real = elliptau.cli.log_tau

    def overflowing(params):
        return np.where(np.abs(params.t - 0.2) < 1e-12, complex("nan"), real(params))

    monkeypatch.setattr(elliptau.cli, "log_tau", overflowing)
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0:0.2:0.1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.strip().splitlines()[3] == "0.2,nan,nan,nan,nan"
    assert err.strip() == ("tau: 1/3 rows failed; first at t=0.2: "
                           "EllipTauError: log tau or H_t is not finite")


def test_cli_tau_fixed_stage_failure_fails_every_row(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))

    def failing(branch):
        raise QuadratureError("forced stage failure")

    monkeypatch.setattr(elliptau.curve, "period_data", failing)
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0.05:0.25:0.1"])
    assert code == 1
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[1:] == ["0.05,nan,nan,nan,nan", "0.15,nan,nan,nan,nan",
                         "0.25,nan,nan,nan,nan"]
    assert err.strip() == ("tau: 3/3 rows failed; first at t=0.05: "
                           "QuadratureError: forced stage failure")


def test_cli_tau_row_on_a_theta_zero(tmp_path, capsys):
    # theta[1/2,q](z) vanishes at the real z = 1/2 - q, i.e. at t = (1/2 - q) omega1
    data = dict(golden_dict(), p=0.5)
    scenario = tmp_path / "zero.json"
    scenario.write_text(json.dumps(data))
    g = GOLDEN
    t0 = (0.5 - g.q) * make_params(g.branch, g.a, g.t, 0.5, g.q).lat.omega1.real
    with pytest.raises(DegenerateParameterError):
        make_params(g.branch, g.a, t0, 0.5, g.q)
    code = main(["tau", "--scenario", str(scenario),
                 "--grid", f"t={t0 - 0.1!r}:{t0 + 0.1!r}:0.1"])
    assert code == 1
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[2].endswith(",nan,nan,nan,nan")
    assert all("nan" not in line for line in (lines[1], lines[3]))
    head = (f"tau: 1/3 rows failed; first at t={t0:.12g}: "
            "DegenerateParameterError: theta[p,q](t/omega1) = ")
    tail = " is too close to its zero"
    err = err.strip()
    assert err.startswith(head) and err.endswith(tail)
    assert abs(complex(err[len(head):-len(tail)])) < 1e-8


@pytest.mark.parametrize("draw", [None, 1, 2])
def test_cli_tau_batch_matches_rows(tmp_path, draw):
    # a grid one point longer than a chunk, against the per-row closed forms
    if draw is None:
        s = GOLDEN
    else:
        rng = SplitMix64(61)
        for _ in range(draw):
            s = random_admissible_scenario(rng)
    data = dict(golden_dict(), e=[[e.real, e.imag] for e in s.e],
                a=[s.a.real, s.a.imag], p=s.p, q=s.q)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "tau.csv"
    spec = f"t=0:0.3:{0.3 / elliptau.cli.TAU_CHUNK!r}"
    start, step, n = elliptau.cli._parse_grid(spec)
    assert n == elliptau.cli.TAU_CHUNK + 1
    grid = [start + k * step for k in range(n)]
    assert main(["tau", "--scenario", str(scenario), "--grid", spec,
                 "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(rows) == len(grid)
    for t, (_, lt_re, lt_im, ht_re, ht_im) in zip(grid, rows.tolist()):
        params = make_params(s.branch, s.a, t, s.p, s.q)
        lt, ht = log_tau(params), H_t(params)
        lt += 2j * np.pi * round((lt_im - lt.imag) / (2 * np.pi))  # the CSV unwraps
        assert abs(complex(lt_re, lt_im) - lt) <= 1e-14 * abs(lt)
        assert abs(complex(ht_re, ht_im) - ht) <= 1e-14 * abs(ht)


def test_tau_sweep_makes_one_kernel_call_per_chunk(tmp_path, monkeypatch):
    # once the lattice exists, log tau, H_t and the theta-zero test of a chunk
    # all read its one theta jet: two chunks, two calls (six with one call
    # per reader)
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    grid = f"t=0:0.3:{0.3 / elliptau.cli.TAU_CHUNK!r}"
    argv = ["tau", "--scenario", str(scenario), "--grid", grid, "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0  # builds the lattice
    calls = []
    block = elliptau.elliptic._theta_block

    def counted(char, z, *args):
        calls.append(z.size)
        return block(char, z, *args)

    monkeypatch.setattr(elliptau.elliptic, "_theta_block", counted)
    assert main(argv) == 0
    assert calls == [elliptau.cli.TAU_CHUNK, 1]


def test_a_golden_tau_chunk_sums_one_short_block(monkeypatch):
    # golden has Omega = i, where a term 4 rings from the top is about e^-50
    # of it: the first block, sized from that Gaussian bound, holds at most
    # 5 rings a side, and the edge test finds it enough
    g = GOLDEN
    b = g.branch
    point = DeformationParams(b, b.lattice, g.a, 0j, ThetaChar(g.p, g.q))
    reads = []
    real = elliptau.elliptic._rings

    def spy(p, done, K, *rest):
        reads.append((done, K))
        return real(p, done, K, *rest)

    monkeypatch.setattr(elliptau.elliptic, "_rings", spy)
    elliptau.cli._tau_rows(point, np.arange(elliptau.cli.TAU_CHUNK) * 1e-4)
    assert reads and all(done == -1 and K <= 5 for done, K in reads), reads


@pytest.mark.parametrize("data, grid", [
    (golden_dict(), "t=0:4:0.001"),  # Im log tau jumps by 2 pi inside
    (dict(golden_dict(), p=0.5), None),  # a theta zero at the end of a 7-chunk
])
def test_tau_chunking_leaves_no_trace(tmp_path, monkeypatch, capsys, data, grid):
    # the unwrap of Im log tau runs across chunk boundaries and restarts after
    # a nan row, whatever the chunk size
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    if grid is None:
        g = GOLDEN
        t0 = (0.5 - g.q) * make_params(g.branch, g.a, g.t, 0.5, g.q).lat.omega1.real
        grid = f"t={t0 - 0.06!r}:{t0 + 0.14!r}:0.01"
    runs = []
    for chunk in (elliptau.cli.TAU_CHUNK, 7):
        monkeypatch.setattr(elliptau.cli, "TAU_CHUNK", chunk)
        code = main(["tau", "--scenario", str(scenario), "--grid", grid])
        runs.append((code,) + capsys.readouterr())
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    im = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    if data["p"] == 0.5:
        assert code == 1 and err.startswith("tau: 1/21 rows failed")
        assert out.splitlines()[7].endswith(",nan,nan,nan,nan")
    else:
        assert code == 0 and err == ""
        assert max(abs(b - a) for a, b in zip(im, im[1:])) < 0.1  # unwrapped
        g = GOLDEN
        principal = log_tau(make_params(g.branch, g.a, 4.0, g.p, g.q)).imag
        assert abs(im[-1] - principal - 2 * math.pi) < 1e-9  # one jump inside


def _tau_by_rows(scenario, grid):
    """The row rule of `elliptau tau` as a loop per row over the chunks' values,
    as (exit code, CSV, stderr): a failed row prints nan and restarts the
    unwrap of Im log tau, every other row moves by whole turns to within pi of
    the row before."""
    s, (t0, step, n) = load_scenario(scenario), elliptau.cli._parse_grid(grid)
    try:
        b = s.branch
        point = DeformationParams(b, b.lattice, s.a, 0j, ThetaChar(s.p, s.q))
    except EllipTauError as exc:
        point, stage_error = None, exc
    lines, failed, prev = ["t,re_log_tau,im_log_tau,re_H_t,im_H_t\n"], [], None
    for lo in range(0, n, elliptau.cli.TAU_CHUNK):
        ts = [t0 + k * step for k in range(lo, min(n, lo + elliptau.cli.TAU_CHUNK))]
        cols, errors = ([ts] * 4, dict.fromkeys(range(len(ts)), stage_error)) if point is None \
            else elliptau.cli._tau_rows(point, np.array(ts))
        for k, (t, lr, li, hr, hi) in enumerate(zip(ts, *np.asarray(cols).tolist())):
            if k in errors:
                lines.append(f"{t:.12g},nan,nan,nan,nan\n")
                failed.append((t, errors[k]))
                prev = None
                continue
            if prev is not None:
                li += 2 * math.pi * round((prev - li) / (2 * math.pi))
            prev = li
            lines.append("%.12g,%.17g,%.17g,%.17g,%.17g\n" % (t, lr, li, hr, hi))
    if not failed:
        return 0, "".join(lines), ""
    t, exc = failed[0]
    return 1, "".join(lines), (f"tau: {len(failed)}/{n} rows failed; first at t={t:.12g}: "
                               f"{type(exc).__name__}: {exc}\n")


def _sawtooth_rows(point, ts):
    # Im log tau stepping 1.3 a row, wrapped to (-pi, pi]: a turn every few
    # rows; every 11th row fails and the row after it reads -0.0
    k = np.rint(ts / 0.01)
    im = np.where(k % 11 == 0, -0.0, np.pi - (1.3 * k) % (2 * np.pi))
    errors = {j: EllipTauError("sawtooth") for j in np.flatnonzero(k % 11 == 10)}
    return np.array([ts + 1, im, 1 - ts, 2 * ts + 1]), errors


@pytest.mark.parametrize("case", ["jump", "zero", "stage", "sawtooth"])
def test_tau_rows_match_the_loop_per_row(tmp_path, monkeypatch, capsys, case):
    # the chunk's arrays carry the unwrap and the failed rows: the CSV, stderr
    # and exit code equal those of the loop per row, on a 2 pi jump of Im log
    # tau, a theta zero in the middle of a 7-row chunk, a failed lattice, and
    # on made-up values whose turns add up over runs that restart mid-chunk
    data, grid = golden_dict(), "t=0:4:0.001"
    if case == "zero":
        g = GOLDEN
        t0 = (0.5 - g.q) * make_params(g.branch, g.a, g.t, 0.5, g.q).lat.omega1.real
        data, grid = dict(data, p=0.5), f"t={t0 - 0.03!r}:{t0 + 0.17!r}:0.01"
        monkeypatch.setattr(elliptau.cli, "TAU_CHUNK", 7)
    if case == "stage":
        def failing(branch):
            raise QuadratureError("forced stage failure")
        grid = "t=0.05:0.25:0.1"
        monkeypatch.setattr(elliptau.curve, "period_data", failing)
    if case == "sawtooth":
        grid = "t=0:0.99:0.01"
        monkeypatch.setattr(elliptau.cli, "_tau_rows", _sawtooth_rows)
        monkeypatch.setattr(elliptau.cli, "TAU_CHUNK", 16)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    code = main(["tau", "--scenario", str(scenario), "--grid", grid])
    out, err = capsys.readouterr()
    assert (code, out, err) == _tau_by_rows(str(scenario), grid)
    assert code == (0 if case == "jump" else 1)
    if case == "sawtooth":
        im = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert ",-0," in out and np.nanmax(np.abs(im)) > 10  # the turns add up
    if case == "zero":
        assert out.splitlines()[4].endswith(",nan,nan,nan,nan") and out.count("nan") == 4


def test_tau_writes_one_row_per_call(tmp_path, monkeypatch):
    # perfbench times a tau sweep's rows by its writes: the header and each of
    # the n rows are one write each, never a batch of rows
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    grid = f"t=0:0.3:{0.3 / elliptau.cli.TAU_CHUNK!r}"
    n = elliptau.cli._parse_grid(grid)[2]
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["tau", "--scenario", str(scenario), "--grid", grid]) == 0
    assert n > elliptau.cli.TAU_CHUNK and len(writes) == 1 + n
    assert all(text.count("\n") == 1 and text.endswith("\n") for text in writes)


def test_anchor_tail_is_integrated_only_for_the_abel_map(tmp_path, monkeypatch):
    # the period cycles read a frame's anchor and y only: from cold caches a
    # golden verify integrates the anchor's tail once per frame that
    # abel_with_y reads, and a tau sweep never
    for module in (elliptau.elliptic, elliptau.curve, elliptau.isomono):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    tails, abel_branches = [], set()
    tail_g, abel = elliptau.curve._tail_g, elliptau.curve.abel_with_y

    def counted_tail(branch, X):
        if np.ndim(X):
            tails.append(branch)
        return tail_g(branch, X)

    def counted_abel(branch, x):
        abel_branches.add(branch)
        return abel(branch, x)

    monkeypatch.setattr(elliptau.curve, "_tail_g", counted_tail)
    for module in (elliptau.curve, elliptau.monodromy):
        monkeypatch.setattr(module, "abel_with_y", counted_abel)
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert main(["tau", "--scenario", str(scenario), "--grid", "t=0:1:0.25"]) == 0
    assert tails == [] and abel_branches == set()
    assert run_checks(GOLDEN).overall == "pass"
    assert len(tails) == len(abel_branches) and set(tails) == abel_branches


def test_failed_stage_is_built_once(monkeypatch):
    # (function the stage calls, the stage, its readers, the error raised);
    # an EllipTauError from periods_of is taken as a bad draw, so it raises
    # another error there
    cases = [
        ("make_params", "params", ["phi_transformation", "det_phi_zeros",
                                   "y_normalization", "ode_residual"],
         DegenerateParameterError),
        ("admissible_branches", "branch_samples",
         ["theta_constants", "domega_de", "dlog_omega1_de", "quasiperiod_ratio_derivative"],
         DegenerateParameterError),
        ("periods_of", "branch_ring",
         ["domega_de", "dlog_omega1_de", "quasiperiod_ratio_derivative"], RuntimeError),
        ("periods_of", "neighbours", ["dlogtau_dt", "dlogtau_de"], RuntimeError),
    ]
    for function, stage, names, error in cases:
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            raise error("forced stage failure")

        with monkeypatch.context() as mp:
            mp.setattr(elliptau.checks, function, failing)
            rep = run_checks(GOLDEN, checks=names)
        assert len(calls) == 1, stage
        assert [r.name for r in rep.results] == names
        for r in rep.results:
            assert r.status == "fail"
            assert r.notes == (f"error: {error.__name__} in stage {stage!r}: "
                               "forced stage failure")


@pytest.mark.parametrize("seed", [None, 3])
def test_shared_draws_do_not_depend_on_which_checks_run(seed):
    # the checks that read the shared branch samples, branch ring and
    # neighbours give the same residual run alone, in their suite and in the
    # full run: each shared stage draws from its own stream
    scenario = GOLDEN if seed is None else GOLDEN._replace(seed=seed)
    names = ["theta_constants", "domega_de", "dlog_omega1_de",
             "quasiperiod_ratio_derivative", "dlogtau_dt", "dlogtau_de"]

    def residuals(checks):
        rep = run_checks(scenario, checks=checks).to_json_dict()
        return {c["name"]: c["residual"] for c in rep["checks"] if c["name"] in names}

    full = residuals(None)
    suites = {**residuals(["branch"]), **residuals(["tau"])}
    alone = {name: residuals([name])[name] for name in names}
    assert full == suites == alone


def test_cli_tau_bad_grid_exits_2(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert main(["tau", "--scenario", str(scenario), "--grid", "x=0:1:0.1"]) == 2
    assert main(["tau", "--scenario", str(scenario), "--grid", "t=0:1:-0.1"]) == 2


@pytest.mark.parametrize("grid", ["t=0:1:nan", "t=nan:1:0.1", "t=0:inf:0.1",
                                  "t=0:1e308:1e-308", "t=-1e308:1e308:1"])
def test_cli_tau_non_finite_grid_exits_2(tmp_path, capsys, grid):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert main(["tau", "--scenario", str(scenario), "--grid", grid]) == 2
    assert "configuration error: grid start, stop and step must be finite" in \
        capsys.readouterr().err


def test_cli_monodromy_prints_matrix(tmp_path, capsys):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["monodromy", "--scenario", str(scenario), "--loop", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("# loop 3")
    assert len(out) == 3  # header + two matrix rows
    assert len(out[1].split()) == 2
    g = GOLDEN
    mats, offsets = monodromy_matrices(make_params(g.branch, g.a, g.t, g.p, g.q), (3,))
    assert out[0].endswith(f"frame offset {offsets[3]}")
    printed = [[complex(z) for z in line.split()] for line in out[1:]]
    for row, expect in zip(printed, mats[3]):
        for z, w in zip(row, expect):
            assert abs(z - w) <= 1e-12 * max(1.0, abs(w))
