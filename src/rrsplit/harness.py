"""Convergence studies, energy audits, cut-off reports, and their CSV and plot text.

A study sweeps dyadic time steps with the mesh tied to the step size
(h = dt on the horizontal-interface family, one refinement level per
halving on the slanted family), measures final-time L2 errors and
accumulated gradient-norm errors against the manufactured exact fields,
and reports rates log2(e(2 dt) / e(dt)) between adjacent rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coupling, cutoff, fem, meshing
from .cases import ManufacturedCase, get_case, residual_oracle, sample_points

_DEFAULT_NORMS = {
    "pp_uniform": ("L2_final_U", "L2_final_W"),
    "pp_conforming": ("L2_final_U", "L2_final_W"),
    "ph_uniform": ("L2_final_U", "L2_final_Q"),
    "pp_slanted": ("L2_final_U", "L2_final_W", "accumulated_gradU", "accumulated_gradW"),
}

# per norm: CSV column, subdomain, state field and the case's exact closure (the
# field at T, or for an accumulated norm its gradient, whose rate is rate_<field>)
_NORMS = {
    "L2_final_U": ("U", "f", "u", "exact_u"),
    "L2_final_W": ("W", "s", "w", "exact_w"),
    "L2_final_Q": ("Q", "s", "q", "exact_q"),
    "accumulated_gradU": ("GradU", "f", "u", "grad_u"),
    "accumulated_gradW": ("GradW", "s", "w", "grad_w"),
}


# What a study row can hit: bad input, a singular LU (SuperLU raises
# RuntimeError) or a non-finite state. Anything else is a programming error
# and propagates.
ROW_FAILURES = (ValueError, RuntimeError, np.linalg.LinAlgError, FloatingPointError)


@dataclass
class StudyConfig:
    case: str | ManufacturedCase    # a name is looked up; the case owns k, nu_f and nu_s
    dt_list: tuple
    final_time: float = 0.25
    alpha: float = 1.0
    use_oracle: bool = False        # step with the strongly coupled solver

    def __post_init__(self):
        if not isinstance(self.case, ManufacturedCase):
            self.case = get_case(self.case)
        self.dt_list = tuple(float(dt) for dt in self.dt_list)
        if not self.dt_list:
            raise ValueError("dt_list must not be empty")
        if any(b >= a for a, b in zip(self.dt_list, self.dt_list[1:])):
            raise ValueError("dt_list must be strictly decreasing")
        for dt in self.dt_list:  # SchemeParams validates every row's parameters
            self.params(dt)

    def params(self, dt: float) -> coupling.SchemeParams:
        """The scheme parameters of the row at step dt."""
        return coupling.SchemeParams(k=self.case.k, dt=dt, alpha=self.alpha, nu_f=self.case.nu_f,
                                     nu_s=self.case.nu_s, T=self.final_time)


@dataclass
class ConvergenceTable:
    case_name: str
    norms: tuple
    dts: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)   # norm -> list of floats
    failures: list = field(default_factory=list)

    @property
    def rate_table(self) -> dict:
        """norm -> ``rates`` of its errors, derived on each read."""
        return {n: rates(self.errors[n]) for n in self.norms}


def rates(errors) -> list:
    """log2 ratios of adjacent errors; None where a ratio is undefined."""
    out = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
            out.append(None)
        else:
            out.append(math.log2(prev / cur))
    return out


def build_study_mesh(case: ManufacturedCase, dt: float):
    """Mesh matched to a time step: h = dt (horizontal) or one level per halving (slanted).

    The slanted family needs dt = 2^-(level + 2) exactly, level in [0, 10];
    the horizontal family needs 1/dt an integer in [2, 4096] (to within 1e-9),
    4096 being the finest slanted size. Any other dt raises ValueError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt!r} must be finite and positive")
    if case.geometry.kind == "slanted":
        level = round(-math.log2(dt)) - 2
        if not (0 <= level <= 10 and dt == 2.0 ** -(level + 2)):
            raise ValueError(f"dt={dt!r} is not 2^-(level+2) for a slanted level in [0, 10]")
        return meshing.slanted_interface_mesh(level)
    if 1.0 / dt > 4096.5:  # before round(), which an infinite 1/dt overflows, and any allocation
        raise ValueError(f"dt={dt!r} is finer than the finest study mesh, 1/4096")
    n = round(1.0 / dt)
    if n < 2 or abs(1.0 / dt - n) > 1e-9:
        raise ValueError(f"dt={dt!r} is not 1/n for an integer n >= 2")
    return meshing.uniform_split_mesh(n)


def run_row(cfg: StudyConfig, dt: float, norms):
    """Run cfg's case at step dt; returns (final state, ledger, {norm: error}).

    The ledger is None under the oracle stepper, which keeps none.
    """
    case, params = cfg.case, cfg.params(dt)
    mesh = build_study_mesh(case, dt)
    ops = coupling.CoupledOperators(mesh, params)
    state0 = coupling.initial_state(case, mesh, ops)
    sources = coupling.SourceData.from_case(case)

    specs = {}  # per wanted norm: dofmap, state field and exact closure
    for name in norms:
        _, sub, field, exact = _NORMS[name]
        specs[name] = (getattr(ops, "dof_" + sub), field, getattr(case, exact))
    grad_acc = {name: 0.0 for name in norms if name.startswith("accumulated")}
    # each gradient's profile at t = 0, built at the first step: by then the run has
    # factored its Robin LUs, so the profile's operator is not live while they are
    profiles = {}

    def on_step(state):
        t = state.step_index * dt
        for name in grad_acc:
            dof, field, grad = specs[name]
            if name not in profiles:
                profiles[name] = fem.gradient_profile(dof, grad, 0.0)
            scale = math.exp(getattr(case, "rate_" + field) * t)
            grad_acc[name] += fem.h1_semi_error(getattr(state, field), profiles[name], scale) ** 2

    callback = on_step if grad_acc else None
    if cfg.use_oracle:
        final = coupling.run_monolithic(params, mesh, sources, state0, ops, callback=callback)
        ledger = None
    else:
        final, ledger = coupling.run(params, mesh, sources, state0, ops, callback=callback)
    profiles.clear()  # not needed by the final-time norms below

    values = {}
    for name, (dof, field, exact) in specs.items():
        values[name] = (math.sqrt(dt * grad_acc[name]) if name in grad_acc
                        else fem.l2_error(dof, getattr(final, field), exact, cfg.final_time))
    return final, ledger, values


def run_study(cfg: StudyConfig) -> ConvergenceTable:
    """Sweep the dt list; returns errors and rates per requested norm.

    The case's synthesized data must pass the finite-difference residual
    check before any row is run: a residual of 1e-5 relative to the size of
    its equation fails it, whatever the size of the case's data.
    """
    case = cfg.case
    pts = sample_points(case, 50, np.random.default_rng(0))
    gap = max(residual_oracle(case, pts, t) for t in (0.0, cfg.final_time))
    if gap >= 1e-5:
        raise ValueError(f"manufactured-data residual check failed (relative {gap:.3e})")
    norms = _DEFAULT_NORMS.get(case.name, ("L2_final_U", "L2_final_W"))
    table = ConvergenceTable(case_name=case.name, norms=norms)
    table.errors = {n: [] for n in norms}
    for dt in cfg.dt_list:
        table.dts.append(dt)
        try:
            _, _, values = run_row(cfg, dt, norms)
        except ROW_FAILURES as exc:  # record the failed row, keep the sweep going
            table.failures.append((dt, repr(exc)))
            for n in norms:
                table.errors[n].append(None)
            continue
        for n in norms:
            err = values[n]
            table.errors[n].append(err if 1e-12 < err < math.inf else None)
            if not math.isfinite(err):
                table.failures.append((dt, f"{n} is not finite ({err})"))
            elif err <= 1e-12:
                table.failures.append((dt, f"{n} below measurement floor ({err:.3e})"))
    return table


def energy_audit(k: int, alpha: float, dt: float, n_steps: int = 20, mesh_n: int = 8,
                 seed: int = 0, nu_f: float = 1.0, nu_s: float = 1.0) -> dict:
    """Run with zero sources and seeded random initial data; check Z^N + sum S = Z^0."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    mesh = meshing.uniform_split_mesh(mesh_n)
    params = coupling.SchemeParams(k=k, dt=dt, alpha=alpha, nu_f=nu_f, nu_s=nu_s, T=n_steps * dt)
    ops = coupling.CoupledOperators(mesh, params)
    rng = np.random.default_rng(seed)
    # draw order w, q (k = 2), u, lam: the same seed gives the same audit
    w0 = rng.standard_normal(ops.dof_s.n_dofs)
    q0 = w0.copy() if k == 1 else rng.standard_normal(ops.dof_s.n_dofs)
    u0 = rng.standard_normal(ops.dof_f.n_dofs)
    state0 = coupling.SchemeState(0, u0, w0, q0, rng.standard_normal(ops.n_if))
    _, ledger = coupling.run(params, mesh, coupling.SourceData(), state0, ops)
    defect = ledger.relative_defect()
    return {"max_relative_defect": defect, "monotone": ledger.monotone(),
            "passed": defect <= 1e-10, "ledger": ledger}


def cutoff_report(reports) -> str:
    """CSV rows of ``cutoff.verify_assumptions`` reports, one per time step."""
    lines = ["dt,grad_energy,closed_form,growth_ratio,trace_measure,passed"]
    for rep in reports:
        dt = rep.dt
        lines.append(
            f"{dt:.6g},{rep.energy:.6g},{cutoff.closed_form_grad_energy(dt):.6g},"
            f"{rep.growth_ratio:.6g},{rep.trace_measure:.6g},{int(rep.passed)}"
        )
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    return "--" if v is None else f"{v:.6g}"


def table_to_csv(table: ConvergenceTable) -> str:
    cols = ["dt"]
    for n in table.norms:
        tag = _NORMS[n][0]
        cols += [f"err{tag}", f"rate{tag}"]
    lines, rate_table = [",".join(cols)], table.rate_table
    for i, dt in enumerate(table.dts):
        row = [f"{dt:.6g}"]
        for n in table.norms:
            row.append(_fmt(table.errors[n][i]))
            row.append(_fmt(rate_table[n][i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def plot_script(table: ConvergenceTable, csv_name: str) -> str:
    """gnuplot script plotting each error column of the CSV ``csv_name`` against dt."""
    plots = [f"'{csv_name}' using 1:{2 + 2 * j} with linespoints title '{_NORMS[n][0]}'"
             for j, n in enumerate(table.norms)]
    lines = ["set logscale xy", 'set datafile separator ","', "set key outside",
             'set xlabel "dt"', 'set ylabel "error"', "plot " + ", \\\n     ".join(plots)]
    return "\n".join(lines) + "\n"
