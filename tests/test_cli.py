"""Scenario handling, the deterministic RNG contract, and the CLI surface."""

import json

import pytest

import elliptau.checks
import elliptau.cli
from elliptau.checks import CHECKS, SUITES, resolve_check_names, run_checks
from elliptau.cli import main
from elliptau.errors import DegenerateParameterError, ScenarioError
from elliptau.isomono import make_params
from elliptau.monodromy import monodromy_matrices
from elliptau.scenario import (
    GOLDEN,
    SplitMix64,
    check_stream,
    fnv1a64,
    golden_dict,
    load_scenario,
    scenario_from_dict,
)


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
    # a residual that does not shrink with the step cannot be judged, even
    # though it is below the tolerance
    def flat(params, direction, h):
        return {"paired": {1: 1e-7, 2: 1e-7, 3: 1e-7}}

    monkeypatch.setattr(elliptau.checks, "deformation_residual", flat)
    rep = run_checks(GOLDEN, checks=["deformation_equation"])
    assert rep.results[0].status == "inconclusive"
    assert rep.results[0].residual < rep.results[0].tolerance
    assert rep.overall == "fail"


def test_notes_prefix_is_not_a_status(monkeypatch):
    def check(ctx, rng, tol):
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


def test_cli_unknown_check_exits_2(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    code = main(["verify", "--scenario", str(scenario),
                 "--checks", "bogus", "--out", str(tmp_path / "r.json")])
    assert code == 2


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
    real = elliptau.cli.make_params

    def flaky(branch, a, t, *args, **kwargs):
        if abs(t - 0.1) < 1e-12:
            raise DegenerateParameterError("forced failure")
        return real(branch, a, t, *args, **kwargs)

    monkeypatch.setattr(elliptau.cli, "make_params", flaky)
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
        return complex("nan") if abs(params.t - 0.2) < 1e-12 else real(params)

    monkeypatch.setattr(elliptau.cli, "log_tau", overflowing)
    code = main(["tau", "--scenario", str(scenario), "--grid", "t=0:0.2:0.1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.strip().splitlines()[3] == "0.2,nan,nan,nan,nan"
    assert err.strip() == ("tau: 1/3 rows failed; first at t=0.2: "
                           "EllipTauError: log tau or H_t is not finite")


def test_failed_stage_is_built_once(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise DegenerateParameterError("forced stage failure")

    monkeypatch.setattr(elliptau.checks, "make_params", failing)
    names = ["phi_transformation", "det_phi_zeros", "y_normalization",
             "ode_residual"]
    rep = run_checks(GOLDEN, checks=names)
    assert len(calls) == 1
    assert [r.name for r in rep.results] == names
    for r in rep.results:
        assert r.status == "fail"
        assert r.notes == ("error: DegenerateParameterError in stage 'params': "
                           "forced stage failure")


def test_cli_tau_bad_grid_exits_2(tmp_path):
    scenario = tmp_path / "golden.json"
    scenario.write_text(json.dumps(golden_dict()))
    assert main(["tau", "--scenario", str(scenario), "--grid", "x=0:1:0.1"]) == 2
    assert main(["tau", "--scenario", str(scenario), "--grid", "t=0:1:-0.1"]) == 2


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
