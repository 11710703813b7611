import csv

import pytest
import yaml
from click.testing import CliRunner

from sliceprov import planner
from sliceprov.cli import main
from sliceprov.solver import export_lp, parse_lp

TINY_SCENARIO = {
    "name": "tiny",
    "mix": [{"type": "micro", "count": 1}],
    "variants": ["SP"],
    "slice_types": {
        "micro": {
            "income": 200.0,
            "required_psp": 0.9,
            "users": {"kind": "deterministic", "n": 2},
            "vnfs": [
                {
                    "name": "vA",
                    "requirement": [0.5, 0.0, 0.0],
                    "mean": [0.1, 0.0, 0.0],
                    "std": [0.01, 0.0, 0.0],
                }
            ],
            "vlinks": [],
        }
    },
}


def write_scenario(tmp_path, data=None):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data or TINY_SCENARIO), encoding="utf-8")
    return path


def test_provision_writes_csvs(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["provision", "--scenario", str(write_scenario(tmp_path)),
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("scenario,variant,")
    assert report[1].startswith("tiny,SP,")
    slices = (out / "slices.csv").read_text(encoding="utf-8").splitlines()
    assert slices[1].startswith("tiny,SP,0,micro_0,1,")
    plan = (out / "plan.csv").read_text(encoding="utf-8").splitlines()
    assert plan[0] == "scenario,variant,repetition,slice,kind,element,virtual,count"
    assert len(plan) > 1  # the accepted slice placed at least one instance
    assert "earnings=" in result.output


def test_provision_seed_reaches_margin_calibration(tmp_path, monkeypatch):
    seeds = []
    find_gamma_s = planner.find_gamma_s

    def recording_find_gamma_s(spec, cfg, *args, **kwargs):
        seeds.append(cfg.seed)
        return find_gamma_s(spec, cfg, *args, **kwargs)

    monkeypatch.setattr(planner, "find_gamma_s", recording_find_gamma_s)
    monkeypatch.setattr(planner, "_GAMMA_CACHE", {})
    result = CliRunner().invoke(
        main,
        ["provision", "--scenario", str(write_scenario(tmp_path)),
         "--seed", "3", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    assert seeds == [3]


def test_provision_unknown_scenario_exits_with_usage_error():
    runner = CliRunner()
    result = runner.invoke(main, ["provision", "--scenario", "no-such-scenario"])
    assert result.exit_code == 2
    assert "neither a scenario file nor a builtin" in result.output


def test_provision_variant_override(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["provision", "--scenario", str(write_scenario(tmp_path)),
         "--variant", "SP", "--variant", "SP-B", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1] for line in report[1:]] == ["SP", "SP-B"]


def test_export_lp_round_trips(tmp_path):
    runner = CliRunner()
    out = tmp_path / "lp"
    result = runner.invoke(
        main,
        ["export-lp", "--scenario", str(write_scenario(tmp_path)),
         "--variant", "SP", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    files = sorted(out.glob("*.lp"))
    assert len(files) == 1  # one sequential step for the one slice
    model = parse_lp(files[0].read_text(encoding="utf-8"))
    assert model.variables and model.constraints


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def test_provision_runs_every_repetition_with_psp_estimates(tmp_path):
    out = tmp_path / "out"
    data = dict(TINY_SCENARIO, seed=4, repetitions=2)
    result = CliRunner().invoke(
        main,
        ["provision", "--scenario", str(write_scenario(tmp_path, data)),
         "--variant", "SP", "--variant", "SP-B", "--trials", "10000",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = read_csv(out / "report.csv")
    assert [(r["variant"], r["repetition"], r["seed"]) for r in report] == [
        ("SP", "0", "4"), ("SP", "1", "5"), ("SP-B", "0", "4"), ("SP-B", "1", "5"),
    ]
    slices = read_csv(out / "slices.csv")
    assert len(slices) == 4
    for row in slices:
        assert row["accepted"] == "1"
        assert 0.0 < float(row["psp_qmc"]) <= 1.0
        assert 0.0 < float(row["psp_mc"]) <= 1.0
    plan = read_csv(out / "plan.csv")
    # One block of rows per report row, each with its own repetition.
    assert [(r["variant"], r["repetition"]) for r in plan if r["kind"] == "node"] == [
        ("SP", "0"), ("SP", "1"), ("SP-B", "0"), ("SP-B", "1"),
    ]


def test_export_lp_writes_the_models_the_planner_solves(tmp_path, monkeypatch):
    solved = []
    solve_model = planner.solve_model

    def recording_solve_model(model, *args, **kwargs):
        solved.append(model)
        return solve_model(model, *args, **kwargs)

    monkeypatch.setattr(planner, "solve_model", recording_solve_model)
    out = tmp_path / "lp"
    data = dict(TINY_SCENARIO, mix=[{"type": "micro", "count": 2}])
    result = CliRunner().invoke(
        main,
        ["export-lp", "--scenario", str(write_scenario(tmp_path, data)),
         "--variant", "SP", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    files = sorted(out.glob("*.lp"))
    assert [f.name for f in files] == ["tiny-SP-step0-micro_0.lp", "tiny-SP-step1-micro_1.lp"]
    assert [f.read_text(encoding="utf-8") for f in files] == [export_lp(m) for m in solved]
    # The second step sees the capacity the first slice took.
    capacity = [
        sum(row.rhs for row in parse_lp(f.read_text(encoding="utf-8")).constraints
            if row.name.startswith("cap_"))
        for f in files
    ]
    assert capacity[1] < capacity[0]


def test_calibrate_prints_margin_and_curve():
    runner = CliRunner()
    result = runner.invoke(
        main, ["calibrate", "--slice-type", "type3", "--samples", "1024",
               "--curve-points", "3"],
    )
    assert result.exit_code == 0, result.output
    assert "gamma =" in result.output
    assert "gamma,psp" in result.output
    assert len(result.output.strip().splitlines()) == 2 + 3


def assert_config_error(result):
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
    # sys.exit, not an exception escaping with a traceback.
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("change", [
    {"mix": [{"type": "micro", "count": -1}]},
    {"mix": [{"type": "micro", "required_psp": 1.5}]},
    {"max_impact": 2.0},
    {"variants": []},
    {"variants": ["SP", "XX"]},
    {"repetitions": 0},
    {"verify_trials": -1},
], ids=["negative-count", "required-psp", "max-impact", "no-variants", "unknown-variant",
        "no-repetitions", "negative-trials"])
def test_provision_malformed_scenario_is_a_config_error(tmp_path, change):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["provision", "--scenario", str(write_scenario(tmp_path, dict(TINY_SCENARIO, **change))),
         "--out", str(out)],
    )
    assert_config_error(result)
    assert not out.exists()  # nothing was provisioned


def test_max_impact_override_out_of_range_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["provision", "--scenario", "single-type1", "--max-impact", "2.0", "--out", str(out)],
    )
    assert_config_error(result)
    assert not out.exists()


@pytest.mark.parametrize("args", [["--samples", "10"], ["--psp", "1.5"]],
                         ids=["samples", "psp"])
def test_calibrate_out_of_range_option_is_a_config_error(args):
    result = CliRunner().invoke(main, ["calibrate", "--slice-type", "type1", *args])
    assert_config_error(result)


def test_calibrate_unknown_type_fails():
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--slice-type", "ghost"])
    assert result.exit_code == 2
    assert "unknown slice type" in result.output


def test_verify_reports_empirical_psp(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["verify", "--scenario", str(write_scenario(tmp_path)),
         "--variant", "SP", "--trials", "10000"],
    )
    assert result.exit_code == 0, result.output
    assert "empirical PSP" in result.output
    assert "max empirical impact" in result.output


def test_verify_with_too_few_trials_is_a_config_error(tmp_path, monkeypatch):
    def provision(*args, **kwargs):
        raise AssertionError("provisioned before the trials were checked")

    monkeypatch.setattr(planner, "provision", provision)
    result = CliRunner().invoke(
        main,
        ["verify", "--scenario", str(write_scenario(tmp_path)),
         "--variant", "SP", "--trials", "9999"],
    )
    assert_config_error(result)
    assert "--trials must be at least 10,000" in result.output
