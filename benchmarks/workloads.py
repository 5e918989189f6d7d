"""The benchmark's workloads, their sizes and their correctness gate.

Each workload is one pass over a piece of the paper's numerical section,
run through the public rrsplit API. ``slanted_sweep`` and ``oracle_gap``
are deterministic; the seed only feeds ``energy_audit``'s random initial
data. Reference values were recorded from the solver as of commit 208ba9b;
the gate compares against them to 1e-10 relative.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from rrsplit import coupling, harness, meshing, sparse
from rrsplit.cases import get_case

import spans

SIZES = {
    "paper": {
        "slanted_sweep": {"dts": [2.0**-j for j in range(2, 9)]},
        "oracle_gap": {"mesh_n": 256, "dts": [2.0**-5, 2.0**-6, 2.0**-7]},
        "energy_audit": {"k": 2, "alpha": 10.0, "dt": 2.0**-6, "n_steps": 256,
                         "mesh_n": 256},
    },
    # The same code paths at a size that runs in well under a second.
    "tiny": {
        "slanted_sweep": {"dts": [2.0**-j for j in range(2, 5)]},
        "oracle_gap": {"mesh_n": 32, "dts": [2.0**-5, 2.0**-6, 2.0**-7]},
        "energy_audit": {"k": 2, "alpha": 10.0, "dt": 2.0**-6, "n_steps": 16,
                         "mesh_n": 8},
    },
}

# slanted_sweep: finest-row error and final rate per default norm.
# oracle_gap: ||u_loose - u_strong||_{M_f} at T per dt.
REFERENCE = {
    "paper": {
        "slanted_sweep": {
            "L2_final_U": (1.7087555171080523e-08, 0.9644268716039281),
            "L2_final_W": (1.713493277846486e-08, 0.9710560282691305),
            "accumulated_gradU": (3.040209119180705e-07, 0.9508060314936877),
            "accumulated_gradW": (3.041153550706959e-07, 0.9513545387690097),
        },
        "oracle_gap": (0.008598827691079787, 0.004432509198584714, 0.002153904044794061),
    },
    "tiny": {
        "slanted_sweep": {
            "L2_final_U": (2.4579864334946736e-07, 1.4884179990343211),
            "L2_final_W": (3.272390881353687e-07, 1.57016080444389),
            "accumulated_gradU": (4.5091638254876855e-06, 1.027321090344931),
            "accumulated_gradW": (4.530467909543912e-06, 1.0284604684085232),
        },
        "oracle_gap": (0.008599618551225631, 0.004450879132927494, 0.00216131949461066),
    },
}

REL_TOL = 1e-10
GAP_RATIO = (1.6, 2.6)
DEFECT_TOL = 1e-10


@dataclass
class Pass:
    """One full pass of a workload."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    dof_steps: int = 0
    rows: int = 0
    rows_failed: int = 0
    checks: list = field(default_factory=list)   # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def close(self, name, value, ref):
        ok = value is not None and abs(value - ref) <= REL_TOL * abs(ref)
        self.check(name, ok, f"{value!r} vs reference {ref!r}")

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.checks)


class SetupClock:
    """Seconds from each row's start to its first time step, and dof-steps.

    A row starts at its mesh build (or where the benchmark marks it) and
    its set-up ends when ``coupling.run`` or ``coupling.run_monolithic`` is
    entered. Every stepper call adds (n_dofs_f + n_dofs_s) * n_steps.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.dof_steps = 0
        self._row_start = None

    def row_start(self):
        if self._row_start is None:
            self._row_start = perf_counter()

    def first_step(self, params, initial):
        if self._row_start is not None:
            self.setup_s += perf_counter() - self._row_start
            self._row_start = None
        n_dofs = _coef(initial.u).size + _coef(initial.w).size
        self.dof_steps += n_dofs * params.n_steps

    @contextlib.contextmanager
    def installed(self):
        def at_mesh(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.row_start()
                return fn(*args, **kwargs)
            return wrapper

        def at_stepper(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                self.first_step(bound["params"], bound["initial"])
                return fn(*args, **kwargs)
            return wrapper

        with contextlib.ExitStack() as stack:
            for attr in ("uniform_split_mesh", "slanted_interface_mesh"):
                spans.replace_everywhere(stack, meshing, attr, at_mesh)
            for attr in ("run", "run_monolithic"):
                spans.replace_everywhere(stack, coupling, attr, at_stepper)
            yield self


def _coef(x) -> np.ndarray:
    """Coefficient vector of a Field/TraceField or of a plain array."""
    return np.asarray(getattr(x, "coefficients", x))


def _mass_norm(M, d) -> float:
    # The seed's SparseMatrix has no '@'; a scipy matrix has no spmv.
    Md = M @ d if hasattr(M, "__matmul__") else sparse.spmv(M, d)
    return float(np.sqrt(d @ Md))


def slanted_sweep(p: Pass, cfg, ref, case, seed, clock):
    table = harness.run_study(harness.StudyConfig(case=case, dt_list=cfg["dts"]))
    failed = {dt for dt, _ in table.failures}
    p.rows, p.rows_failed = len(table.dts), len(failed)
    for dt in table.dts:
        p.check(f"row dt={dt:g} not in failures", dt not in failed,
                "; ".join(why for d, why in table.failures if d == dt))
    for norm, (err, rate) in ref.items():
        p.close(f"{norm} finest error", table.errors[norm][-1], err)
        p.close(f"{norm} final rate", table.rate_table[norm][-1], rate)


def oracle_gap(p: Pass, cfg, ref, case, seed, clock):
    mesh = meshing.uniform_split_mesh(cfg["mesh_n"])
    sources = coupling.SourceData.from_case(case)
    gaps = []
    for dt, ref_gap in zip(cfg["dts"], ref):
        p.rows += 1
        clock.row_start()
        try:
            params = coupling.SchemeParams(k=case.k, dt=dt, T=0.25)
            ops = coupling.CoupledOperators(mesh, params)
            state0 = coupling.initial_state(case, mesh, ops)
            loose, _ = coupling.run(params, mesh, sources, state0, ops)
            strong = coupling.run_monolithic(params, mesh, sources, state0, ops)
            gap = _mass_norm(ops.M_f, _coef(loose.u) - _coef(strong.u))
        except Exception as exc:  # a row that raises is a failed check, not a crash
            p.rows_failed += 1
            p.check(f"gap dt={dt:g}", False, repr(exc))
            gap = None
        else:
            p.close(f"gap dt={dt:g}", gap, ref_gap)
        gaps.append(gap)
    for a, b, dt in zip(gaps, gaps[1:], cfg["dts"][1:]):
        ratio = a / b if a is not None and b else None
        p.check(f"gap ratio at dt={dt:g} in {GAP_RATIO}",
                ratio is not None and GAP_RATIO[0] <= ratio <= GAP_RATIO[1], repr(ratio))


def energy_audit(p: Pass, cfg, ref, case, seed, clock):
    p.rows = 1
    rep = harness.energy_audit(seed=seed, **cfg)
    defect = rep["max_relative_defect"]
    p.check(f"relative defect <= {DEFECT_TOL:g}", defect <= DEFECT_TOL, repr(defect))
    p.check("Z monotone", rep["monotone"])


# In order of growing peak memory, so that under ``bench.py --workload all``
# the process peak after each workload is close to that workload's own.
_RUNNERS = {"energy_audit": energy_audit, "slanted_sweep": slanted_sweep,
            "oracle_gap": oracle_gap}
WORKLOADS = tuple(_RUNNERS)
_CASES = {"slanted_sweep": "pp_slanted", "oracle_gap": "pp_conforming"}


def run_pass(workload, size, seed, recorder=None, reference=None) -> Pass:
    """One timed pass; with a recorder the pass is traced.

    ``reference`` replaces the recorded reference values (tests use it to
    show that a wrong value fails the gate).
    """
    cfg = SIZES[size][workload]
    ref = (reference or REFERENCE[size]).get(workload)
    case = get_case(_CASES[workload]) if workload in _CASES else None
    p = Pass()
    with contextlib.ExitStack() as stack:
        clock = stack.enter_context(SetupClock().installed())
        if recorder is not None:
            stack.enter_context(spans.traced(recorder))
            if case is not None:
                case = spans.traced_case(case, recorder)
            stack.enter_context(recorder.span(spans.ROOT))
        t0 = perf_counter()
        try:
            _RUNNERS[workload](p, cfg, ref, case, seed, clock)
        except Exception as exc:  # keep reporting; the pass counts as failed
            p.rows_failed = max(p.rows_failed, 1)
            p.check(f"{workload} pass raised", False, repr(exc))
        p.wall_s = perf_counter() - t0
    p.setup_s, p.dof_steps = clock.setup_s, clock.dof_steps
    return p
