"""End-to-end CLI tests: every command is run in-process through main()."""

import dataclasses
import json

import numpy as np
import pytest

from survquack._version import __version__
from survquack.cli import main, parse_scenario_config, read_dataset
from survquack.errors import NumericalError, ValidationError
from survquack.estim import Measure, SurvivalSample
from survquack.fixtures import (
    FactorSpec,
    OakAnalogSpec,
    generate_prognostic_sample,
    load_oak_analog_spec,
    write_dataset_csv,
)
from survquack.report import strip_volatile, validate_report
from survquack.rng import derive_rng
from survquack.sim import build_section3_scenario, realize_scenario, run_study
from survquack.sme import naive_stratified_ratio, stratified_audit


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Keep ambient SURVQUACK_SEED from leaking into seed resolution."""
    monkeypatch.delenv("SURVQUACK_SEED", raising=False)


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_report(text):
    rep = json.loads(text)
    assert validate_report(rep) is True
    return rep


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,event,arm\n")
        for t, e, a in rows:
            fh.write(f"{t!r},{e},{a}\n")
    return str(path)


@pytest.fixture
def ident_csv(tmp_path):
    """Identical arms, all events: every comparison should land on 'no effect'."""
    rows = [(float(t), 1, "Rx") for t in range(1, 9)]
    rows += [(float(t), 1, "C") for t in range(1, 9)]
    return write_csv(tmp_path / "ident.csv", rows)


@pytest.fixture
def oak_small_csv(tmp_path):
    spec = OakAnalogSpec(
        n=300,
        theta=0.6,
        shape=1.0,
        base_scale=14.0,
        seed=7,
        factors=(
            FactorSpec("sex", ("female", "male"), 0.39, (4.0, 1.0)),
            FactorSpec("kras", ("mutant", "wild"), 0.3, (0.65, 1.0)),
        ),
    )
    path = tmp_path / "oak_small.csv"
    write_dataset_csv(generate_prognostic_sample(spec), path)
    return str(path)


SMALL_SCENARIO = """\
[scenario]
n_total = 60
replications = 25
master_seed = 4242

[subgroup:all]
prevalence = 1.0
shape = 1.0
rx_median = 10
c_median = 8
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SCENARIO)
    return str(path)


class TestReadDataset:
    def test_strata_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,arm,s:grp\n1.5,1,Rx,a\n\n2.5,0,C,b\n")
        sample = read_dataset(path)
        assert sample.n == 2
        assert list(sample.time) == [1.5, 2.5]
        assert list(sample.event) == [True, False]
        assert list(sample.is_rx) == [True, False]
        assert list(sample.strata["grp"]) == ["a", "b"]

    @pytest.mark.parametrize(
        ("content", "match"),
        [
            ("time,arm\n1,Rx\n", "missing required column"),
            ("time,event,arm,time\n1,1,Rx,1\n", "duplicate column"),
            ("time,event,arm,grp\n1,1,Rx,a\n", "unrecognized column"),
            ("", "file is empty"),
            ("time,event,arm\n", "no data rows"),
        ],
    )
    def test_header_failures(self, tmp_path, content, match):
        path = tmp_path / "d.csv"
        path.write_text(content)
        with pytest.raises(ValidationError, match=match):
            read_dataset(path)

    def test_all_problems_collected_in_details(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [
            "abc,1,Rx",
            "0,1,Rx",
            "5,2,Rx",
            "5,1,X",
            "5,1",
            "-1,1,C",
            "inf,1,C",
            "3.5,1,Rx",
            "4.5,0,C",
        ]
        path.write_text("time,event,arm\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as excinfo:
            read_dataset(path)
        assert len(excinfo.value.details) == 7
        assert excinfo.value.details[0].startswith("line 2:")
        assert excinfo.value.details[-1].startswith("line 8:")


class TestAnalyze:
    def test_identical_arms(self, ident_csv, capsys):
        rc, out, err = run_cli(["analyze", ident_csv], capsys)
        assert rc == 0 and err == ""
        rep = parse_report(out)
        assert set(rep["sections"]) == {
            "dataset",
            "logrank",
            "cox_wald",
            "medians",
            "win_probability",
        }
        ds = rep["sections"]["dataset"]["data"]
        assert ds["n"] == 16 and ds["n_rx"] == 8 and ds["n_c"] == 8
        assert ds["events"] == 16 and ds["censored"] == 0
        lr = rep["sections"]["logrank"]["data"]
        assert lr["z"] == 0.0 and lr["p_two_sided"] == 1.0 and not lr["rejected"]
        cox = rep["sections"]["cox_wald"]["data"]
        assert cox["log_hr"] == 0.0 and cox["hr"] == 1.0 and cox["p_two_sided"] == 1.0
        med = rep["sections"]["medians"]["data"]
        assert med["median_rx"] == {"value": 4.0, "reached": True}
        assert med["time_ratio"] == 1.0
        win = rep["sections"]["win_probability"]["data"]
        assert win["llp"] == 0.5 and win["hr_from_llp"] == 1.0

    def test_stratified_audit_matches_library(self, oak_small_csv, capsys):
        rc, out, _ = run_cli(
            ["analyze", oak_small_csv, "--strata", "sex,kras", "--measure", "HR", "--measure", "TR"],
            capsys,
        )
        assert rc == 0
        rep = parse_report(out)
        assert "stratified_audit_hr" in rep["sections"]
        assert "stratified_audit_tr" in rep["sections"]
        sample = read_dataset(oak_small_csv)
        for measure in (Measure.HR, Measure.TR):
            section = rep["sections"][f"stratified_audit_{measure.value.lower()}"]["data"]
            assert section["measure"] == measure.value
            comparisons = stratified_audit(sample, ["sex", "kras"], measure=measure)
            assert [row["factor"] for row in section["factors"]] == ["sex", "kras"]
            for row, comp in zip(section["factors"], comparisons):
                assert row["naive"] == comp.naive_value
                assert row["sme"] == comp.sme_value
                assert row["marginal"] == comp.marginal_value
                assert row["dropped_levels"] == list(comp.dropped_levels)

    def test_hr_audit_survives_small_fitted_shapes(self, tmp_path, capsys):
        # Weibull shape 0.3 with 25% censoring: the per-level fits have shapes
        # near 0.3, which put much of each control curve's mass near t = 0.
        full = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), shape=0.3))
        c = derive_rng(99, "censor").exponential(500.0, full.n)
        sample = SurvivalSample(
            np.minimum(full.time, c), full.time <= c, full.is_rx, full.strata
        )
        path = tmp_path / "shape03.csv"
        write_dataset_csv(sample, path)
        rc, out, _ = run_cli(["analyze", str(path), "--strata", "sex,kras"], capsys)
        assert rc == 0
        audit = parse_report(out)["sections"]["stratified_audit_hr"]
        assert audit["ok"] is True
        for row in audit["data"]["factors"]:
            assert 0.5 < row["sme"] < 0.75

    def test_failed_section_is_embedded_not_fatal(self, tmp_path, capsys):
        # complete separation: the Cox fit must fail without sinking the report
        rows = [(float(t), 1, "Rx") for t in (10, 11, 12)]
        rows += [(float(t), 1, "C") for t in (1, 2, 3)]
        path = write_csv(tmp_path / "sep.csv", rows)
        rc, out, _ = run_cli(["analyze", path], capsys)
        assert rc == 0
        rep = parse_report(out)
        cox = rep["sections"]["cox_wald"]
        assert cox["ok"] is False and cox["data"] is None
        assert cox["error"].startswith("NumericalError: monotone partial likelihood")
        assert rep["sections"]["logrank"]["ok"] is True
        assert rep["sections"]["medians"]["ok"] is True

    def test_whole_sample_cox_fit_runs_once(self, oak_small_csv, capsys, monkeypatch):
        # cox_wald and the HR audit's marginal value read one shared fit
        import survquack.cli as cli_mod
        import survquack.estim as estim_mod
        import survquack.sme as sme_mod

        sizes = []
        original = estim_mod.cox_fit_two_arm

        def counting(sample, *args, **kwargs):
            sizes.append(sample.n)
            return original(sample, *args, **kwargs)

        for module in (estim_mod, sme_mod, cli_mod):
            monkeypatch.setattr(module, "cox_fit_two_arm", counting, raising=False)
        rc, _, _ = run_cli(["analyze", oak_small_csv, "--strata", "sex,kras"], capsys)
        assert rc == 0
        assert sizes.count(read_dataset(oak_small_csv).n) == 1
        assert len(sizes) == 5  # plus one fit per level of each two-level factor

    def test_failed_whole_sample_fit_fails_only_its_sections(self, tmp_path, capsys):
        path = tmp_path / "sep_strata.csv"
        rows = [(t, "Rx", "a" if t % 2 else "b") for t in (10, 11, 12, 13)]
        rows += [(t, "C", "a" if t % 2 else "b") for t in (1, 2, 3, 4)]
        path.write_text("time,event,arm,s:grp\n" + "".join(f"{t},1,{a},{g}\n" for t, a, g in rows))
        rc, out, _ = run_cli(
            ["analyze", str(path), "--strata", "grp", "--measure", "HR", "--measure", "TR"], capsys
        )
        assert rc == 0
        sections = parse_report(out)["sections"]
        for name in ("cox_wald", "stratified_audit_hr"):
            assert sections[name]["ok"] is False
            assert sections[name]["error"].startswith("NumericalError: monotone partial likelihood")
        for name in ("logrank", "medians", "stratified_audit_tr"):
            assert sections[name]["ok"] is True

    def test_unknown_factor_rejected(self, ident_csv, capsys):
        rc, out, err = run_cli(["analyze", ident_csv, "--strata", "bogus"], capsys)
        assert rc == 2 and out == ""
        assert "survquack: error:" in err and "not in dataset" in err

    def test_bad_alpha_rejected(self, ident_csv, capsys):
        rc, _, err = run_cli(["analyze", ident_csv, "--alpha", "1.5"], capsys)
        assert rc == 2 and "alpha must lie in (0, 1)" in err

    def test_missing_column_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "noevent.csv"
        path.write_text("time,arm\n1,Rx\n2,C\n")
        out_path = tmp_path / "report.json"
        rc, out, err = run_cli(
            ["analyze", str(path), "--out", str(out_path)], capsys
        )
        assert rc == 2 and out == ""
        assert "missing required column" in err
        assert not out_path.exists()

    def test_malformed_rows_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        lines = [
            "abc,1,Rx",
            "0,1,Rx",
            "5,2,Rx",
            "5,1,X",
            "5,1",
            "-1,1,C",
            "inf,1,C",
            "3.5,1,Rx",
        ]
        path.write_text("time,event,arm\n" + "\n".join(lines) + "\n")
        rc, out, err = run_cli(["analyze", str(path)], capsys)
        assert rc == 2 and out == ""
        for lineno in (2, 3, 4, 5, 6):
            assert f"line {lineno}:" in err
        assert "(+2 more)" in err
        # the full detail list follows, one bullet per problem
        assert "  - line 7:" in err and "  - line 8:" in err

    def test_out_file_and_tables(self, oak_small_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        tab_dir = tmp_path / "tables"
        rc, out, _ = run_cli(
            [
                "analyze",
                oak_small_csv,
                "--strata",
                "sex",
                "--out",
                str(out_path),
                "--tables",
                str(tab_dir),
            ],
            capsys,
        )
        assert rc == 0 and out == ""
        rep = parse_report(out_path.read_text(encoding="utf-8"))
        expected = {
            "dataset",
            "logrank",
            "cox_wald",
            "medians",
            "win_probability",
            "stratified_audit_hr",
        }
        assert set(rep["sections"]) == expected
        assert {p.name for p in tab_dir.iterdir()} == {f"{n}.csv" for n in expected}
        audit_table = (tab_dir / "stratified_audit_hr.csv").read_text().splitlines()
        assert audit_table[0] == "factor,naive,sme,marginal,dropped_levels"
        assert audit_table[1].startswith("sex,")


class TestSimulate:
    def test_builtin_section3(self, capsys):
        rc, out, _ = run_cli(["simulate", "builtin:section3"], capsys)
        assert rc == 0
        rep = parse_report(out)
        assert rep["seed"] == 210615
        scenario = rep["sections"]["scenario"]["data"]
        assert scenario["arm_medians"]["Rx"] == pytest.approx(8.0, abs=1e-6)
        assert scenario["arm_medians"]["C"] == pytest.approx(8.0, abs=1e-6)
        assert [g["label"] for g in scenario["subgroups"]] == ["g+", "g-"]
        study = rep["sections"]["study"]["data"]
        assert study["replications"] == 1000
        assert study["rejections"] == 307
        assert study["rx_longer"] == 266
        assert study["c_longer"] == 41
        assert study["ties"] == 0
        assert study["cox_rejections"] == 307
        assert study["rejection_rate"] == pytest.approx(0.307, rel=1e-15)
        lo, hi = study["rejection_ci95"]
        assert lo < 0.307 < hi

    def test_builtin_config_equals_builder(self):
        assert parse_scenario_config("builtin:section3") == build_section3_scenario()

    def test_small_config_deterministic_and_matches_library(
        self, small_cfg, tmp_path, capsys
    ):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out_path in (out_a, out_b):
            rc, _, _ = run_cli(
                ["simulate", small_cfg, "--out", str(out_path)], capsys
            )
            assert rc == 0
        rep_a = parse_report(out_a.read_text(encoding="utf-8"))
        rep_b = parse_report(out_b.read_text(encoding="utf-8"))
        assert strip_volatile(rep_a) == strip_volatile(rep_b)
        assert rep_a["seed"] == 4242

        study = run_study(realize_scenario(parse_scenario_config(small_cfg)))
        section = rep_a["sections"]["study"]["data"]
        assert section["replications"] == study.replications == 25
        assert section["rejections"] == study.rejections
        assert section["rx_longer"] == study.rx_longer
        assert section["c_longer"] == study.c_longer
        assert section["cox_rejections"] == study.cox_rejections

    def test_replications_override(self, small_cfg, capsys):
        rc, out, _ = run_cli(
            ["simulate", small_cfg, "--replications", "10"], capsys
        )
        assert rc == 0
        rep = parse_report(out)
        assert rep["sections"]["study"]["data"]["replications"] == 10
        assert rep["inputs"]["replications"] == 10

    def test_zero_replications_rejected(self, small_cfg, capsys):
        rc, out, err = run_cli(
            ["simulate", small_cfg, "--replications", "0"], capsys
        )
        assert rc == 2 and out == ""
        assert "--replications must be >= 1" in err

    def test_unknown_builtin(self, capsys):
        rc, _, err = run_cli(["simulate", "builtin:nope"], capsys)
        assert rc == 2 and "no builtin config named" in err

    def test_config_problems_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nn_total = sixty\nbogus = 1\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2
        assert "cannot parse 'sixty'" in err
        assert "unknown key 'bogus'" in err

    def test_no_subgroups_reported(self, tmp_path, capsys):
        path = tmp_path / "empty_groups.cfg"
        path.write_text("[scenario]\nn_total = 60\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and "no [subgroup:<label>] sections" in err

    def test_missing_scenario_section(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("[subgroup:a]\nprevalence = 1.0\nshape = 1.0\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and "missing [scenario] section" in err


class TestPivotCi:
    def test_identical_arms_interval_contains_one(self, ident_csv, capsys):
        rc, out, _ = run_cli(
            [
                "pivot-ci",
                ident_csv,
                "--grid-min",
                "0.25",
                "--grid-max",
                "4",
                "--grid-points",
                "17",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert rc == 0
        rep = parse_report(out)
        data = rep["sections"]["pivot_ci"]["data"]
        assert data["observed_count"] == 32.0
        lo, hi = data["interval"]
        assert lo < 1.0 < hi
        assert not data["empty"]
        assert data["n_rx"] == data["n_c"] == 8

    def test_lehmann_effect_recovered(self, tmp_path, capsys):
        # power parameter 2: treated survival is the control curve squared,
        # so treated times are stochastically shorter
        rng = derive_rng(77, "cli-pivot")
        c_t = 1.0 * rng.standard_exponential(50)
        rx_t = 0.5 * rng.standard_exponential(50)
        rows = [(float(t), 1, "Rx") for t in rx_t]
        rows += [(float(t), 1, "C") for t in c_t]
        path = write_csv(tmp_path / "lehmann2.csv", rows)
        rc, out, _ = run_cli(
            [
                "pivot-ci",
                path,
                "--grid-min",
                "0.5",
                "--grid-max",
                "8",
                "--grid-points",
                "33",
                "--seed",
                "5",
            ],
            capsys,
        )
        assert rc == 0
        rep = parse_report(out)
        assert rep["seed"] == 5
        data = rep["sections"]["pivot_ci"]["data"]
        lo, hi = data["interval"]
        assert lo <= 2.0 <= hi
        assert data["observed_count"] == 1019.0
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(2.1810154653305154, rel=1e-12)
        assert data["accepted_points"] == 10
        assert rep["inputs"]["grid"]["points"] == 33

    def test_censored_rows_rejected(self, tmp_path, capsys):
        rows = [(1.0, 1, "Rx"), (2.0, 0, "Rx"), (3.0, 1, "C"), (4.0, 0, "C")]
        path = write_csv(tmp_path / "cens.csv", rows)
        rc, out, err = run_cli(["pivot-ci", path], capsys)
        assert rc == 2 and out == ""
        assert "2 censored row(s)" in err

    def test_bad_level_rejected(self, ident_csv, capsys):
        rc, _, err = run_cli(["pivot-ci", ident_csv, "--level", "1.0"], capsys)
        assert rc == 2 and "survquack: error:" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--grid-min", "0"],
            ["--grid-min", "2", "--grid-max", "1"],
            ["--grid-points", "1"],
        ],
    )
    def test_bad_grid_rejected(self, ident_csv, capsys, extra):
        rc, _, err = run_cli(["pivot-ci", ident_csv] + extra, capsys)
        assert rc == 2 and "survquack: error:" in err


class TestSeedPrecedence:
    def pivot_args(self, dataset):
        return [
            "pivot-ci",
            dataset,
            "--grid-min",
            "0.5",
            "--grid-max",
            "2",
            "--grid-points",
            "3",
            "--mc-reps",
            "2000",
        ]

    def test_pivot_fallback_is_zero(self, ident_csv, capsys):
        rc, out, _ = run_cli(self.pivot_args(ident_csv), capsys)
        assert rc == 0 and parse_report(out)["seed"] == 0

    def test_env_seed_used(self, ident_csv, capsys, monkeypatch):
        monkeypatch.setenv("SURVQUACK_SEED", "99")
        rc, out, _ = run_cli(self.pivot_args(ident_csv), capsys)
        assert rc == 0 and parse_report(out)["seed"] == 99

    def test_cli_seed_beats_env(self, ident_csv, capsys, monkeypatch):
        monkeypatch.setenv("SURVQUACK_SEED", "99")
        rc, out, _ = run_cli(self.pivot_args(ident_csv) + ["--seed", "5"], capsys)
        assert rc == 0 and parse_report(out)["seed"] == 5

    def test_config_seed_beats_env(self, small_cfg, capsys, monkeypatch):
        monkeypatch.setenv("SURVQUACK_SEED", "99")
        rc, out, _ = run_cli(["simulate", small_cfg], capsys)
        assert rc == 0 and parse_report(out)["seed"] == 4242

    def test_cli_seed_beats_config(self, small_cfg, capsys):
        rc, out, _ = run_cli(["simulate", small_cfg, "--seed", "7"], capsys)
        assert rc == 0 and parse_report(out)["seed"] == 7

    def test_non_integer_env_rejected(self, ident_csv, capsys, monkeypatch):
        monkeypatch.setenv("SURVQUACK_SEED", "abc")
        rc, _, err = run_cli(self.pivot_args(ident_csv), capsys)
        assert rc == 2 and "SURVQUACK_SEED must be an integer" in err


class TestEq1Demo:
    def test_worked_example(self, capsys):
        rc, out, err = run_cli(["eq1-demo"], capsys)
        assert rc == 0 and err == ""
        rep = parse_report(out)
        data = rep["sections"]["pooled_ratio"]["data"]
        assert data["pooled_display"] == "0.716"
        assert data["pooled"] == naive_stratified_ratio(
            zip((0.521, 0.983), (0.5, 0.5))
        )
        assert [s["label"] for s in data["strata"]] == ["A", "B"]
        assert [s["weight"] for s in data["strata"]] == [0.5, 0.5]

    def test_two_runs_agree(self, capsys):
        _, out_a, _ = run_cli(["eq1-demo"], capsys)
        _, out_b, _ = run_cli(["eq1-demo"], capsys)
        assert strip_volatile(json.loads(out_a)) == strip_volatile(json.loads(out_b))


class TestMainPlumbing:
    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise NumericalError("synthetic pivot failure")

        monkeypatch.setattr("survquack.cli._cmd_eq1_demo", boom)
        rc, out, err = run_cli(["eq1-demo"], capsys)
        assert rc == 3 and out == ""
        assert "survquack: numerical failure: synthetic pivot failure" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"survquack {__version__}"

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
