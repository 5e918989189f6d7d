"""Tests for the study harness, rate computation, reports, and the CLI."""

import argparse
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rrsplit import cli, coupling, cutoff, harness, meshing, sparse
from rrsplit.cases import get_case
from rrsplit.harness import StudyConfig, energy_audit, rates, run_study, table_to_csv
from runs import case_run


class TestRates:
    def test_clean_halving(self):
        assert rates([0.04, 0.02])[1] == pytest.approx(1.0)

    def test_reference_table_entry(self):
        # first rate of the k=2 reference table
        assert rates([4.48e-06, 1.01e-06])[1] == pytest.approx(2.149, abs=2e-3)

    def test_constant_errors(self):
        assert rates([0.5, 0.5])[1] == pytest.approx(0.0)

    def test_nonpositive_marked_undefined(self):
        out = rates([0.1, 0.0, 0.05])
        assert out == [None, None, None]

    def test_first_entry_undefined(self):
        assert rates([1.0])[0] is None


class TestStudyConfig:
    def test_dt_list_must_decrease(self):
        with pytest.raises(ValueError):
            StudyConfig(case="pp_conforming", dt_list=[0.125, 0.25])

    def test_final_time_must_divide(self):
        with pytest.raises(ValueError):
            StudyConfig(case="pp_conforming", dt_list=[0.15])

    def test_empty_dt_list_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(case="pp_conforming", dt_list=[])

    @pytest.mark.parametrize("dt", [-0.25, math.nan])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite and positive"):
            StudyConfig(case="pp_conforming", dt_list=(dt,))

    def test_coefficients_belong_to_the_case(self):
        # a second nu_f could disagree with the one the case's forcing was built for
        with pytest.raises(TypeError):
            StudyConfig(case="pp_conforming", dt_list=(0.25,), nu_f=4.0)


class TestBuildStudyMesh:
    def test_h_equals_dt(self):
        case = get_case("pp_conforming")
        mesh = harness.build_study_mesh(case, 0.125)
        assert mesh.h_max == pytest.approx(math.sqrt(2.0) / 8.0)

    def test_slanted_levels(self):
        case = get_case("pp_slanted")
        mesh = harness.build_study_mesh(case, 0.25)
        assert mesh.geometry.kind == "slanted"
        assert 0.15 <= mesh.h_max <= 0.47

    def test_horizontal_size_bound(self, monkeypatch):
        # 1/dt is at most the slanted family's finest size, checked before anything is built
        sizes = []
        monkeypatch.setattr(meshing, "uniform_split_mesh", sizes.append)
        case = get_case("pp_conforming")
        harness.build_study_mesh(case, 2.0**-12)
        for dt in (1 / 4097, 1e-6, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"dt={dt!r} is finer than")):
                harness.build_study_mesh(case, dt)
        assert sizes == [4096]


class TestRunStudy:
    def test_conforming_smoke_rates(self):
        cfg = StudyConfig(case="pp_conforming", dt_list=[2**-4, 2**-5, 2**-6])
        table = run_study(cfg)
        assert table.norms == ("L2_final_U", "L2_final_W")
        for n in table.norms:
            assert all(e is not None for e in table.errors[n])
            assert 0.6 <= table.rate_table[n][-1] <= 1.3

    def test_zero_exact_solution_flagged(self):
        case = get_case("pp_conforming")
        zero = lambda x, y, t: 0.0 * x
        case.exact_u = zero
        case.exact_w = zero
        case.exact_q = zero
        case.exact_l = zero
        case.grad_u = lambda x, y, t: (0.0 * x, 0.0 * y)
        case.grad_w = case.grad_u
        case.f_f = case.f_s = zero
        case.g_D = case.g_N = zero
        cfg = StudyConfig(case=case, dt_list=[0.25, 0.125])
        table = run_study(cfg)
        assert all(e is None for e in table.errors["L2_final_U"])
        assert all(r is None for r in table.rate_table["L2_final_U"])
        assert len(table.failures) == 4  # both rows, both norms

    def test_pp_uniform_starts_from_the_flux(self):
        # with nu_f = 2 the flux nu_f grad(u).n_f is twice grad(w).n_f at t = 0: the
        # run starts from the flux, whose peak on the interface is 2 pi sqrt(2)/2
        case = get_case("pp_uniform", nu_f=2.0, nu_s=0.5)
        cfg = StudyConfig(case=case, dt_list=[0.25, 0.125])
        assert not run_study(cfg).failures
        mesh = harness.build_study_mesh(case, 0.125)
        ops = coupling.CoupledOperators(mesh, cfg.params(0.125))
        lam0 = coupling.initial_state(case, mesh, ops).lam
        np.testing.assert_array_equal(lam0, ops.interface_values(case.l_consistent, 0.0))
        assert np.abs(lam0).max() == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-14)

    def test_case_coefficients_reach_the_scheme(self):
        # stepping nu_f = 1 against forcing built for nu_f = 4 plateaus near 0.26
        table = run_study(StudyConfig(case=get_case("pp_conforming", nu_f=4.0),
                                      dt_list=[2**-5, 2**-6]))
        assert not table.failures
        assert table.errors["L2_final_U"][-1] < 0.02

    def test_oracle_stepper_runs(self):
        cfg = StudyConfig(case="pp_conforming", dt_list=[0.25, 0.125], use_oracle=True)
        table = run_study(cfg)
        assert all(e is not None for e in table.errors["L2_final_U"])

    @pytest.mark.parametrize("use_oracle, lus", [(True, 1), (False, 2)])
    def test_each_row_factors_only_its_stepper_system(self, use_oracle, lus, monkeypatch):
        made = []
        original = sparse.factorize
        monkeypatch.setattr(sparse, "factorize", lambda *args: made.append(1) or original(*args))
        cfg = StudyConfig(case="pp_conforming", dt_list=[0.25], use_oracle=use_oracle)
        harness.run_row(cfg, 0.25, ("L2_final_U",))
        assert len(made) == lus


    def test_wrong_time_factor_fails_the_study(self):
        # each run scales its t = 0 loads by e^{rate t}: a rate that does not
        # fit the forcing is refused before any row runs
        case = replace(get_case("pp_conforming"), rate_u=0.0)
        with pytest.raises(ValueError, match="residual check failed"):
            run_study(StudyConfig(case=case, dt_list=[0.25]))

    @pytest.mark.parametrize("name", ["pp_slanted", "ph_uniform"])
    def test_half_percent_wrong_forcing_fails_the_study(self, name):
        # data of size 1e-3: the check is relative, so 0.5% off is refused
        case = get_case(name)
        f_f = case.f_f
        bad = replace(case, f_f=lambda x, y, t: 1.005 * f_f(x, y, t))
        with pytest.raises(ValueError, match="residual check failed"):
            run_study(StudyConfig(case=bad, dt_list=[0.25]))

    @staticmethod
    def _case_failing_with(exc_type):
        # raises only while stepping: the residual check evaluates t = 0 and T
        case = get_case("pp_conforming")
        g_D = case.g_D

        def failing(x, y, t):
            if 0.0 < t < 0.25:
                raise exc_type("forcing failed")
            return g_D(x, y, t)

        case.g_D = failing
        return case

    def test_row_failure_is_recorded(self):
        table = run_study(StudyConfig(case=self._case_failing_with(ValueError),
                                      dt_list=[0.125]))
        assert table.errors["L2_final_U"] == [None]
        assert table.failures == [(0.125, "ValueError('forcing failed')")]

    def test_non_finite_error_is_a_failed_row(self, monkeypatch):
        errors = iter([{"L2_final_U": math.inf, "L2_final_W": 1e-3},
                       {"L2_final_U": 1e-3, "L2_final_W": math.nan}])
        monkeypatch.setattr(harness, "run_row", lambda cfg, dt, norms: (None, None, next(errors)))
        table = run_study(StudyConfig(case="pp_conforming", dt_list=[0.25, 0.125]))
        assert table.errors == {"L2_final_U": [None, 1e-3], "L2_final_W": [1e-3, None]}
        assert table.failures == [(0.25, "L2_final_U is not finite (inf)"),
                                  (0.125, "L2_final_W is not finite (nan)")]

    def test_programming_error_propagates(self):
        with pytest.raises(TypeError, match="forcing failed"):
            run_study(StudyConfig(case=self._case_failing_with(TypeError), dt_list=[0.125]))


class TestEnergyAudit:
    def test_k1_passes(self):
        rep = energy_audit(k=1, alpha=1.0, dt=0.1, n_steps=20, seed=5)
        assert rep["passed"] and rep["monotone"]

    def test_k2_large_step_large_alpha(self):
        rep = energy_audit(k=2, alpha=10.0, dt=0.5, n_steps=10, seed=6)
        assert rep["passed"]

    def test_monotone_checks_consecutive_levels(self, monkeypatch):
        # Z rises from 0.5 to 0.8 but never above Z^0: not monotone
        rising = coupling.EnergyLedger(Z=[1.0, 0.5, 0.8, 0.3], S=[0.5, -0.3, 0.5])
        assert not rising.monotone()
        assert coupling.EnergyLedger(Z=[1.0, 0.5, 0.5, 0.3], S=[0.5, 0.0, 0.2]).monotone()
        monkeypatch.setattr(coupling, "run", lambda params, mesh, src, state0, ops: (state0, rising))
        assert not energy_audit(k=1, alpha=1.0, dt=0.1, n_steps=3, seed=7)["monotone"]

    def test_zero_initial_data_trivially_passes(self):
        # force zero data through the seeded generator contract
        rep = energy_audit(k=1, alpha=1.0, dt=0.1, n_steps=3, seed=7)
        rep_zero_defect = rep["ledger"]
        rep_zero_defect.Z = [0.0, 0.0, 0.0, 0.0]
        rep_zero_defect.S = [0.0, 0.0, 0.0]
        assert rep_zero_defect.relative_defect() == 0.0


class TestCutoffReport:
    def test_columns_and_rows(self):
        csv = harness.cutoff_report(
            [cutoff.verify_assumptions(dt) for dt in (0.25, 0.125)])
        lines = csv.strip().splitlines()
        assert lines[0] == "dt,grad_energy,closed_form,growth_ratio,trace_measure,passed"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[4]) == pytest.approx(0.5)  # trace measure = 2 dt
        assert float(row[3]) <= 4.0
        assert row[5] == "1"


class TestCsvOutput:
    def test_schema_and_determinism(self):
        cfg = StudyConfig(case="pp_conforming", dt_list=[0.25, 0.125])
        a = table_to_csv(run_study(cfg))
        b = table_to_csv(run_study(cfg))
        assert a == b
        header = a.splitlines()[0]
        assert header == "dt,errU,rateU,errW,rateW"
        assert a.splitlines()[1].split(",")[2] == "--"

    def test_rows_keep_dt_order(self):
        cfg = StudyConfig(case="pp_conforming", dt_list=[0.25, 0.125])
        table = run_study(cfg)
        assert table.dts == [0.25, 0.125]


def unreachable(*args, **kwargs):
    raise AssertionError("reached a call the input should have stopped before")


class TestCli:
    BASE_ARGV = {
        "convergence": ["--case", "pp_conforming", "--dt-max", "0.25", "--dt-min", "0.125"],
        "run": ["--case", "pp_conforming", "--dt", "0.25"],
        "energy-audit": [],
        "cutoff-verify": ["--dt-max", "0.25", "--dt-min", "0.125"],
        "mesh-dump": ["--case", "pp_conforming", "--dt", "0.25"],
    }

    def test_missing_required_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["convergence", "--dt-max", "0.25", "--dt-min", "0.125"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_mismatched_k_rejected(self, capsys):
        # the case fixes k; only energy-audit takes --k
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--case", "ph_uniform", "--k", "1", "--dt", "0.25"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k" in capsys.readouterr().err

    def test_non_dyadic_range_rejected(self, capsys):
        for argv in (["convergence", "--case", "pp_conforming", "--dt-max", "0.25",
                      "--dt-min", "0.1"],
                     # the ratio overflows to inf
                     ["convergence", "--case", "pp_conforming", "--dt-max", "1e300",
                      "--dt-min", "1e-300"],
                     ["cutoff-verify", "--dt-max", "1e300", "--dt-min", "1e-300"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "--dt-max / --dt-min" in capsys.readouterr().err

    def test_flag_the_subcommand_ignores_exit_2(self, capsys):
        ignored = {
            "convergence": ["--seed", "--k"],
            "run": ["--seed", "--k"],
            "energy-audit": ["--t-final"],
            "cutoff-verify": ["--alpha", "--nu-f", "--nu-s", "--t-final", "--seed"],
            "mesh-dump": ["--alpha", "--nu-f", "--nu-s", "--t-final", "--seed", "--k"],
        }
        for command, flags in ignored.items():
            for flag in flags:
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, *self.BASE_ARGV[command], flag, "1"])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_non_finite_parameter_exit_2(self, capsys):
        for argv in (["run", "--case", "pp_conforming", "--dt", "0.25", "--alpha", "nan"],
                     ["run", "--case", "pp_conforming", "--dt", "0.25", "--t-final", "inf"],
                     ["convergence", "--case", "pp_conforming", "--dt-max", "0.25",
                      "--dt-min", "0.125", "--nu-s", "nan"],
                     ["energy-audit", "--alpha", "inf"],
                     ["cutoff-verify", "--dt-max", "0.25", "--dt-min", "0"],
                     ["convergence", "--case", "pp_conforming", "--dt-max", "0.25",
                      "--dt-min", "0"],
                     ["cutoff-verify", "--dt-max", "inf", "--dt-min", "1"],
                     ["cutoff-verify", "--dt-max", "-0.25", "--dt-min", "-0.5"],
                     ["energy-audit", "--steps", "0"],
                     ["energy-audit", "--steps", "-3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            expected = "n_steps must be at least 1" if "--steps" in argv else "finite and positive"
            assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--case", "pp_conforming", "--dt", "0.25"],
        ["convergence", "--case", "pp_conforming", "--dt-max", "0.25", "--dt-min", "0.125"],
    ])
    def test_overflowing_step_count_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--t-final", "1e308", "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "T=1e+308 / dt=0.25 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mesh-dump", "--case", "pp_conforming", "--dt", "-1"],
        ["mesh-dump", "--case", "pp_slanted", "--dt", "0.3"],
        ["mesh-dump", "--case", "pp_slanted", "--dt", "0"],
        ["mesh-dump", "--case", "pp_conforming", "--dt", "0"],
        ["mesh-dump", "--case", "pp_conforming", "--dt", "1e-6"],
        ["run", "--case", "pp_conforming", "--dt", "1e-6"],
        ["run", "--case", "pp_slanted", "--dt", "0.05"],
        ["cutoff-verify", "--dt-max", "0.5", "--dt-min", "0.25"],
    ])
    def test_dt_without_a_study_mesh_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(meshing, "_two_block_mesh", unreachable)  # nothing is allocated
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out.txt")])
        assert exc.value.code == 2
        assert "dt=" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--case", "pp_conforming", "--dt", "0.25",
         "--t-final", repr(0.25 * (coupling._MAX_STEPS + 1))],
        ["run", "--case", "pp_conforming", "--dt", "0.25", "--t-final", "1e300"],
        ["convergence", "--case", "pp_conforming", "--dt-max", "0.25", "--dt-min", "0.125",
         "--t-final", "1e300"],
        ["energy-audit", "--dt", "0.25", "--steps", str(coupling._MAX_STEPS + 1)],
        ["energy-audit", "--steps", "1000000000000"],
    ])
    def test_step_count_above_the_bound_exit_2(self, argv, capsys, monkeypatch):
        # a guard: a run that started here would not end
        monkeypatch.setattr(coupling, "run", unreachable)
        monkeypatch.setattr(coupling, "run_monolithic", unreachable)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"above the bound of {coupling._MAX_STEPS}" in err and "T=" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, entry", [
        (["run", "--case", "pp_conforming", "--dt", "0.25"], "run_row"),
        (["energy-audit"], "energy_audit"),
    ])
    def test_linalg_error_exits_1(self, argv, entry, capsys, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError, yet a failed run is not bad input
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("2-th leading minor not positive definite")

        monkeypatch.setattr(harness, entry, failing)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"rrsplit {argv[0]}: failed")
        assert line.endswith(": LinAlgError('2-th leading minor not positive definite')")

    def test_convergence_writes_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main([
            "convergence", "--case", "pp_conforming",
            "--dt-max", "0.25", "--dt-min", "0.125",
            "--out", str(out), "--emit-plot",
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "table.gp").exists()
        text = out.read_text()
        assert text.startswith("dt,errU,rateU,errW,rateW")
        assert "logscale" in (tmp_path / "table.gp").read_text()

    def test_convergence_with_failed_rows_exits_1(self, tmp_path, capsys):
        # neither step gives a slanted mesh, so both rows are flagged
        code = cli.main(["convergence", "--case", "pp_slanted", "--dt-max", "0.05",
                         "--dt-min", "0.025", "--out", str(tmp_path / "table.csv")])
        assert code == 1
        assert capsys.readouterr().out.count("flagged row") == 2

    def test_run_prints_errors_and_dumps(self, tmp_path, capsys):
        out = tmp_path / "state.txt"
        code = cli.main(["run", "--case", "pp_conforming", "--dt", "0.25", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "errU=" in captured and "final_energy=" in captured
        assert out.exists()

    # the start multiplier is the flux nu_f grad(u).n_f, so nu_f = 1e300 overflows Z^0
    @pytest.mark.parametrize("flag, value, step", [("--nu-f", "1e300", 0),
                                                   ("--alpha", "1e200", 1)])
    def test_run_with_non_finite_energy_exits_1(self, flag, value, step, capsys):
        code = cli.main(["run", "--case", "pp_uniform", "--dt", "0.25", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert "final_energy" not in captured.out
        error = f"FloatingPointError('non-finite energy at step {step}')"
        assert captured.err.splitlines() == [f"rrsplit run: failed: {error}"]

    def test_convergence_with_non_finite_rows_exits_1(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["convergence", "--case", "pp_uniform", "--dt-max", "0.25",
                         "--dt-min", "0.125", "--nu-f", "1e300", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.count("non-finite energy") == 2
        assert not re.search("inf|nan", out.read_text())

    def test_energy_audit_with_non_finite_energy_exits_1(self, capsys):
        code = cli.main(["energy-audit", "--alpha", "1e300"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "rrsplit energy-audit: failed: FloatingPointError('non-finite energy at step 1')"]

    def test_energy_audit_csv(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        code = cli.main(["energy-audit", "--k", "2", "--dt", "0.2", "--steps", "5",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n,Z,S,Z_plus_cumS")

    def test_cutoff_verify(self, tmp_path, capsys):
        out = tmp_path / "cutoff.csv"
        code = cli.main(["cutoff-verify", "--dt-max", "0.25", "--dt-min", "0.0625",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_cutoff_verify_checks_each_dt_once(self, tmp_path, capsys, monkeypatch):
        checked = []
        original = cutoff.verify_assumptions

        def counting(dt):
            checked.append(dt)
            return original(dt)

        monkeypatch.setattr(cutoff, "verify_assumptions", counting)
        code = cli.main(["cutoff-verify", "--dt-max", "0.25", "--dt-min", "0.0625",
                         "--out", str(tmp_path / "cutoff.csv")])
        assert code == 0
        assert checked == [0.25, 0.125, 0.0625]

    def test_cutoff_verify_below_double_resolution_exit_2(self, tmp_path, capsys, monkeypatch):
        # 1 - dt rounds to 1 from dt = 2^-54 on: bad input, not a failed assumption
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RRSPLIT_OUT_DIR", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                cli.main(["cutoff-verify", "--dt-max", "0.25",
                          "--dt-min", "1.3877787807814457e-17"])
        assert exc.value.code == 2
        assert f"dt={2.0**-54!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = {name: sorted(flags.split()) for name, flags in
                      re.findall(r"^\| `([a-z-]+)` \| `([^`]*)` \|$", readme, re.M)}
        flags = []
        parser = cli.build_parser(flags)
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {name: sorted(f.option_strings[0] for f in flags if f in sub._actions)
                  for name, sub in subparsers.choices.items()}
        assert documented == parsed

    def test_mesh_dump(self, tmp_path, capsys):
        out = tmp_path / "mesh.txt"
        code = cli.main(["mesh-dump", "--case", "pp_slanted", "--dt", "0.25",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("case=pp_conforming\ndt=0.25\n")
        code = cli.main(["--config", str(cfgfile), "run"])
        assert code == 0
        assert "errU=" in capsys.readouterr().out

    def test_config_equals_form_reads_the_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("case=pp_conforming\ndt=0.25\n")
        code = cli.main([f"--config={cfgfile}", "run"])
        assert code == 0
        assert "errU=" in capsys.readouterr().out

    def test_bare_config_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--case", "pp_conforming", "--dt", "0.25", "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_bytes(b"\xff\xfecase=pp_conforming\n")  # a UTF-16 byte order mark
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfgfile), "run", "--case", "pp_conforming", "--dt", "0.25"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and "Traceback" not in err

    # run and energy-audit write only to --out; the others default under RRSPLIT_OUT_DIR
    @pytest.mark.parametrize("command, out", [(c, True) for c in BASE_ARGV] + [
        (c, False) for c in ("convergence", "cutoff-verify", "mesh-dump")])
    def test_output_in_a_missing_directory_exit_2(self, command, out, tmp_path, capsys,
                                                  monkeypatch):
        missing = tmp_path / "missing"
        monkeypatch.setenv("RRSPLIT_OUT_DIR", str(missing))
        out = ["--out", str(missing / "out")] if out else []
        assert cli.main([command, *self.BASE_ARGV[command], *out]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"rrsplit {command}: cannot write output: ")
        assert str(missing) in line and not missing.exists()
        if command == "cutoff-verify":  # its table is printed before the write
            assert captured.out.startswith("dt,grad_energy,")

    def test_closed_stdout_is_not_an_output_path(self, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli.main(["cutoff-verify", *self.BASE_ARGV["cutoff-verify"],
                      "--out", str(tmp_path / "report.csv")])

    def test_config_false_emit_plot_writes_no_script(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("emit_plot=false\n")
        out = tmp_path / "table.csv"
        code = cli.main(["--config", str(cfgfile), "convergence", "--case", "pp_conforming",
                         "--dt-max", "0.25", "--dt-min", "0.125", "--out", str(out)])
        assert code == 0 and out.exists()
        assert not (tmp_path / "table.gp").exists()

    @pytest.mark.parametrize("value, oracle", [("false", False), ("True", True)])
    def test_config_oracle_flag(self, tmp_path, capsys, value, oracle):
        # both steppers report both errors; only the splitting run reports the
        # ledger's final energy
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"oracle={value}\n")
        code = cli.main(["--config", str(cfgfile), "run", "--case", "pp_conforming",
                         "--dt", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "errU=" in out and "errW=" in out
        assert ("final_energy=" in out) is not oracle

    def test_config_bad_boolean_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("oracle=maybe\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfgfile), "run", "--case", "pp_conforming",
                      "--dt", "0.25"])
        assert exc.value.code == 2
        assert "oracle" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("run", "case=nope\ndt=0.25\n", "case"),
        ("run", "case=pp_conforming\ndt=quarter\n", "dt"),
        ("energy-audit", "k=3\n", "k"),
    ])
    def test_config_value_outside_its_flag_exit_2(self, tmp_path, capsys, command, text, key):
        # as a bad --case, --dt or --k on the command line would: argparse's exit 2
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfgfile), command])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config key {key}:" in err and "Traceback" not in err

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RRSPLIT_OUT_DIR", str(tmp_path))
        code = cli.main(["mesh-dump", "--case", "pp_conforming", "--dt", "0.25"])
        assert code == 0
        assert (tmp_path / "mesh_pp_conforming.txt").exists()


class TestCliOutputs:
    def test_checkpoint_dump(self, tmp_path):
        (final, _), _ = case_run(coupling.run, get_case("pp_conforming"),
                                 meshing.uniform_split_mesh(3), 0.25)
        path = tmp_path / "state.txt"
        cli._write(path, cli._checkpoint_lines(final))
        lines = path.read_text().splitlines()
        assert lines[0] == "step 1"
        assert [l.split()[0] for l in lines[1:]] == ["u", "w", "q", "lambda"]
        # plain float tokens that read back bit for bit
        for line, vec in zip(lines[1:], (final.u, final.w, final.q, final.lam)):
            assert np.array([float(v) for v in line.split()[1:]]).tobytes() == vec.tobytes()

    def test_energy_csv(self, tmp_path):
        # two zero-source steps from a seeded random state on mesh 3
        ledger = energy_audit(k=1, alpha=1.0, dt=0.25, n_steps=2, mesh_n=3)["ledger"]
        path = tmp_path / "energy.csv"
        cli._write(path, cli._energy_lines(ledger))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,Z,S,Z_plus_cumS"
        assert len(lines) == 4  # header + 3 levels
        final = [float(v) for v in lines[-1].split(",")]
        assert final[3] == pytest.approx(ledger.Z[0], rel=1e-12)

    def test_mesh_dump_round_trips_counts(self, tmp_path):
        mesh = meshing.uniform_split_mesh(3)
        path = tmp_path / "mesh.txt"
        cli._write(path, cli._mesh_lines(mesh))
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        expected = mesh.n_nodes + len(mesh.triangles_f) + len(mesh.triangles_s) + len(
            mesh.interface_segments
        )
        assert len(lines) == expected
        # plain tokens that read back bit for bit, records in dump order
        values = [[float(v) for v in l.split()[1:]] for l in lines]
        start = 0
        for arr in (mesh.nodes, mesh.triangles_f, mesh.triangles_s, mesh.interface_segments):
            got = np.array(values[start:start + len(arr)]).astype(arr.dtype)
            assert got.tobytes() == arr.tobytes()
            start += len(arr)
