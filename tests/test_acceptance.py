"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Rates "at the J finest levels" are the adjacent-row rates formed among
those J levels (J - 1 of them), matching how the reference tables quote
their final rates.
"""

import math

import numpy as np

from rrsplit import coupling, cutoff, fem, meshing
from rrsplit.cases import CASE_NAMES, get_case, residual_checks, residual_oracle, sample_points
from rrsplit.coupling import CoupledOperators, SchemeParams, SourceData, advance, initial_state
from rrsplit.harness import StudyConfig, energy_audit, run_study
from runs import oracle_gap


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


class TestCriterion1EnergyIdentity:
    def test_energy_identity(self):
        worst = 0.0
        for k in (1, 2):
            for alpha in (0.1, 1.0, 10.0):
                for dt in (0.5, 0.05):
                    rep = energy_audit(k=k, alpha=alpha, dt=dt, n_steps=10, mesh_n=8, seed=42)
                    worst = max(worst, rep["max_relative_defect"])
        report(1, worst <= 1e-10, f"max relative energy defect {worst:.3e} <= 1e-10")


class TestCriterion2SchemeIdentities:
    @staticmethod
    def _defects(k, case_name):
        case = get_case(case_name)
        mesh = meshing.uniform_split_mesh(8)
        params = SchemeParams(k=k, dt=0.05, alpha=1.0, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = initial_state(case, mesh, ops)
        sources, system = SourceData.from_case(case).assemble(ops), coupling._robin_system(ops)
        worst_con = worst_strong = 0.0
        for _ in range(params.n_steps):
            new = advance(ops, state, sources, system)
            g_D = ops.interface_values(case.g_D, new.step_index * params.dt)
            w_tr = fem.trace_restrict(ops.dof_s, new.w)
            if k == 1:
                w_dot = w_tr
                strong = np.abs(new.q - new.w).max()
            else:
                w_dot = (w_tr - fem.trace_restrict(ops.dof_s, state.w)) / params.dt
                strong = np.abs(0.5 * (new.q + state.q) - (new.w - state.w) / params.dt).max()
            con = np.abs(
                params.alpha * (fem.trace_restrict(ops.dof_f, new.u) - w_dot + g_D)
                + new.lam
                - state.lam
            ).max()
            worst_con = max(worst_con, con)
            worst_strong = max(worst_strong, strong)
            state = new
        return worst_con, worst_strong

    def test_pointwise_identities(self):
        con1, strong1 = self._defects(1, "pp_uniform")
        con2, strong2 = self._defects(2, "ph_uniform")
        con = max(con1, con2)
        strong = max(strong1, strong2)
        report(
            2,
            con <= 1e-12 and strong <= 1e-10,
            f"interface update defect {con:.3e} <= 1e-12, midpoint defect {strong:.3e} <= 1e-10",
        )


class TestCriterion3HyperbolicUniformTable:
    def test_k2_errors_and_rates(self):
        cfg = StudyConfig(case="ph_uniform", dt_list=[2.0**-j for j in range(2, 7)])
        table = run_study(cfg)
        rate_u = table.rate_table["L2_final_U"][-1]
        rate_q = table.rate_table["L2_final_Q"][-1]
        err_u = table.errors["L2_final_U"][-1]
        err_q = table.errors["L2_final_Q"][-1]
        ok = (
            0.7 <= rate_u <= 1.2
            and 0.7 <= rate_q <= 1.2
            and 2.25e-07 / 5 <= err_u <= 2.25e-07 * 5
            and 3.62e-07 / 5 <= err_q <= 3.62e-07 * 5
        )
        report(
            3,
            ok,
            f"final rates U={rate_u:.2f}, Q={rate_q:.2f} in [0.7,1.2]; "
            f"errors U={err_u:.3e} (ref 2.25e-07), Q={err_q:.3e} (ref 3.62e-07) within x5",
        )


class TestCriterion4ConformingFirstOrder:
    def test_k1_conforming_rates(self):
        cfg = StudyConfig(case="pp_conforming", dt_list=[2.0**-j for j in range(3, 8)])
        table = run_study(cfg)
        tail_u = table.rate_table["L2_final_U"][-2:]
        tail_w = table.rate_table["L2_final_W"][-2:]
        ok = all(0.85 <= r <= 1.15 for r in tail_u + tail_w)
        report(
            4,
            ok,
            "rates among the three finest levels U="
            + "/".join(f"{r:.2f}" for r in tail_u)
            + " W="
            + "/".join(f"{r:.2f}" for r in tail_w)
            + " in [0.85,1.15]",
        )


class TestCriterion5SlantedInterface:
    def test_slanted_rates(self):
        cfg = StudyConfig(case="pp_slanted", dt_list=[2.0**-j for j in range(2, 9)])
        table = run_study(cfg)
        rate_u = table.rate_table["L2_final_U"][-1]
        rate_w = table.rate_table["L2_final_W"][-1]
        rate_gu = table.rate_table["accumulated_gradU"][-1]
        rate_gw = table.rate_table["accumulated_gradW"][-1]
        ok = (
            0.8 <= rate_u <= 1.1
            and 0.8 <= rate_w <= 1.1
            and 0.6 <= rate_gu <= 1.0
            and 0.6 <= rate_gw <= 1.0
        )
        report(
            5,
            ok,
            f"finest rates U={rate_u:.2f}, W={rate_w:.2f} in [0.8,1.1]; "
            f"gradient rates {rate_gu:.2f}/{rate_gw:.2f} in [0.6,1.0]",
        )


class TestCriterion6Cutoff:
    def test_cutoff_function(self):
        trace_exact = all(
            cutoff.trace_not_one_measure(2.0**-j) == 2.0 * 2.0**-j
            for j in range(2, 11)
        )
        ratios = [
            cutoff.grad_energy(2.0**-j) / (1.0 + math.log(2.0**j))
            for j in range(2, 11)
        ]
        growth_ok = max(ratios) <= 4.0
        small = [2.0**-j for j in (7, 8, 9, 10)]
        energies = [cutoff.grad_energy(d) for d in small]
        slope = np.polyfit([math.log(1.0 / d) for d in small], energies, 1)[0]
        target = 2.0 / (1.0 - small[-1]) + 2.0 * (1.0 - small[-1]) / 3.0
        slope_ok = abs(slope - target) / target <= 0.15
        report(
            6,
            trace_exact and growth_ok and slope_ok,
            f"trace measure exact; growth ratio max {max(ratios):.2f} <= 4; "
            f"log coefficient {slope:.3f} vs {target:.3f} within 15%",
        )


class TestCriterion7ResidualOracle:
    def test_every_case_certified(self):
        rng = np.random.default_rng(0)
        worst = relative = 0.0
        for name in CASE_NAMES:
            case = get_case(name)
            pts = sample_points(case, 100, rng)
            for t in (0.0, 0.125, 0.25):
                worst = max(worst, *(np.abs(sum(terms)).max()
                                     for terms in residual_checks(case, pts, t)))
                relative = max(relative, residual_oracle(case, pts, t))
        # certified as run_study certifies (relative); the line reports the absolute residual
        report(7, worst < 1e-5 and relative < 1e-5,
               f"max residual over all cases {worst:.3e} < 1e-5")


class TestCriterion8OracleComparison:
    def test_splitting_vs_monolithic_gap_halves(self):
        case, mesh = get_case("pp_conforming"), meshing.uniform_split_mesh(32)
        diffs = [oracle_gap(case, mesh, dt) for dt in (2.0**-5, 2.0**-6, 2.0**-7)]
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        ok = all(1.6 <= r <= 2.6 for r in ratios)
        report(8, ok, "splitting-vs-coupled gap ratios "
               + "/".join(f"{r:.2f}" for r in ratios) + " in [1.6,2.6]")
