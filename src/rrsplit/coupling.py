"""Loosely coupled Robin-Robin time stepping for the two-subdomain system.

Each step first solves the upper (solid-like) subdomain with a Robin
condition built from the previous fluid trace and interface unknown, then
the lower (fluid-like) subdomain, then updates the interface unknown
pointwise. k = 1 runs backward Euler on both subdomains (parabolic -
parabolic); k = 2 runs the midpoint/Newmark member on the upper subdomain
(parabolic - hyperbolic). A strongly coupled single-matrix stepper with a
Lagrange multiplier block serves as the oracle, and an exact per-step
energy ledger supports the stored-plus-dissipated balance audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import fem, sparse
from .fem import DofMap, Field, TraceField
from .meshing import CoupledMesh


@dataclass(frozen=True)
class SchemeParams:
    """Time-stepping parameters; k=1 backward Euler, k=2 midpoint on the upper side."""

    k: int
    dt: float
    alpha: float = 1.0
    nu_f: float = 1.0
    nu_s: float = 1.0
    T: float = 0.25

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError("k must be 1 or 2")
        if min(self.dt, self.alpha, self.nu_f, self.nu_s, self.T) <= 0.0:
            raise ValueError("dt, alpha, nu_f, nu_s, T must be positive")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-12:
            raise ValueError("T must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class SourceData:
    """Volume forcing and interface data; None means identically zero."""

    f_f: Optional[Callable] = None
    f_s: Optional[Callable] = None
    g_D: Optional[Callable] = None
    g_N: Optional[Callable] = None

    @staticmethod
    def zero() -> "SourceData":
        return SourceData()

    @staticmethod
    def from_case(case) -> "SourceData":
        return SourceData(f_f=case.f_f, f_s=case.f_s, g_D=case.g_D, g_N=case.g_N)


@dataclass
class SchemeState:
    step_index: int
    u: Field
    w: Field
    q: Field
    lam: TraceField


@dataclass
class EnergyLedger:
    """Per-level stored energy Z and per-step dissipation S."""

    Z: list
    S: list

    def identity_defect(self) -> float:
        """max over steps of |Z^n + sum_{m<n} S^{m+1} - Z^0|."""
        z = np.asarray(self.Z)
        cum = np.concatenate([[0.0], np.cumsum(self.S)])
        return float(np.abs(z + cum - z[0]).max())

    def relative_defect(self, eps: float = 1e-30) -> float:
        return self.identity_defect() / max(self.Z[0], eps)


def ddt(v_new, v_old, dt):
    """Backward difference (v_new - v_old) / dt."""
    v_new, v_old = np.asarray(v_new, dtype=float), np.asarray(v_old, dtype=float)
    if v_new.shape != v_old.shape:
        raise ValueError("ddt requires equal-length vectors")
    return (v_new - v_old) / dt


def avg(v_new, v_old):
    """Midpoint average (v_new + v_old) / 2."""
    v_new, v_old = np.asarray(v_new, dtype=float), np.asarray(v_old, dtype=float)
    if v_new.shape != v_old.shape:
        raise ValueError("avg requires equal-length vectors")
    return 0.5 * (v_new + v_old)


def ddt2(v_next, v_cur, v_prev, dt):
    """Second difference (v_next - 2 v_cur + v_prev) / dt^2."""
    v_next = np.asarray(v_next, dtype=float)
    v_cur = np.asarray(v_cur, dtype=float)
    v_prev = np.asarray(v_prev, dtype=float)
    if not v_next.shape == v_cur.shape == v_prev.shape:
        raise ValueError("ddt2 requires equal-length vectors")
    return (v_next - 2.0 * v_cur + v_prev) / dt**2


def _lifted_interface_matrix(M_if, row_index, col_index, n_rows, n_cols):
    """M_if with rows and columns renumbered; index -1 drops the row or column.

    With the nodal trace map R of a subdomain on both sides this is R^T M_if R.
    """
    m = M_if.tocoo()
    r, c = row_index[m.row], col_index[m.col]
    keep = (r >= 0) & (c >= 0)
    return sparse.from_triplets(n_rows, n_cols, (r[keep], c[keep], m.data[keep]))


class CoupledOperators:
    """Assembled operators and cached factorizations for one (mesh, params) pair."""

    def __init__(self, mesh: CoupledMesh, params: SchemeParams):
        self.mesh = mesh
        self.params = params
        self.dof_f: DofMap = fem.build_dofmap(mesh, "f")
        self.dof_s: DofMap = fem.build_dofmap(mesh, "s")
        self.M_f = fem.assemble_mass(mesh, "f", self.dof_f)
        self.K_f = fem.assemble_stiffness(mesh, "f", self.dof_f)
        self.M_s = fem.assemble_mass(mesh, "s", self.dof_s)
        self.K_s = fem.assemble_stiffness(mesh, "s", self.dof_s)
        self.M_if = fem.assemble_interface_mass(mesh)
        ifc = mesh.nodes[mesh.interface_nodes]
        self.if_x1, self.if_x2 = ifc[:, 0].copy(), ifc[:, 1].copy()
        self.n_if = mesh.interface_nodes.size

        idof_f, idof_s = self.dof_f.interface_dofs, self.dof_s.interface_dofs
        n_f, n_s = self.dof_f.n_dofs, self.dof_s.n_dofs
        T_f = _lifted_interface_matrix(self.M_if, idof_f, idof_f, n_f, n_f)
        T_s = _lifted_interface_matrix(self.M_if, idof_s, idof_s, n_s, n_s)
        k, dt, a = params.k, params.dt, params.alpha
        if k == 1:
            A_s = (1.0 / dt) * self.M_s + params.nu_s * self.K_s + a * T_s
        else:
            A_s = (2.0 / dt**2) * self.M_s + (params.nu_s / 2.0) * self.K_s + (a / dt) * T_s
        A_f = (1.0 / dt) * self.M_f + params.nu_f * self.K_f + a * T_f
        self._solid = sparse.factorize(A_s)
        self._fluid = sparse.factorize(A_f)
        self._monolithic = None  # built on first use

    # nodal trace transfer --------------------------------------------------

    def trace(self, field: Field) -> np.ndarray:
        return fem.trace_restrict(field).coefficients

    def lift(self, dofmap: DofMap, ifc_vec: np.ndarray) -> np.ndarray:
        """Adjoint of the nodal trace: scatter an interface vector into dof space."""
        out = np.zeros(dofmap.n_dofs)
        idofs = dofmap.interface_dofs
        keep = idofs >= 0
        out[idofs[keep]] = ifc_vec[keep]
        return out

    # interface data --------------------------------------------------------

    def interface_values(self, fn, t) -> np.ndarray:
        if fn is None:
            return np.zeros(self.n_if)
        vals = np.asarray(fn(self.if_x1, self.if_x2, t), dtype=float)
        return np.broadcast_to(vals, (self.n_if,)).copy()

    def load_f(self, fn, t) -> np.ndarray:
        if fn is None:
            return np.zeros(self.dof_f.n_dofs)
        return fem.assemble_load(self.mesh, "f", fn, t, self.dof_f)

    def load_s(self, fn, t) -> np.ndarray:
        if fn is None:
            return np.zeros(self.dof_s.n_dofs)
        return fem.assemble_load(self.mesh, "s", fn, t, self.dof_s)


def solid_step(params: SchemeParams, ops: CoupledOperators, state: SchemeState,
               sources: SourceData, t_next: float):
    """Upper-subdomain solve with the Robin data of the previous step."""
    k, dt, a = params.k, params.dt, params.alpha
    M_s, K_s, M_if = ops.M_s, ops.K_s, ops.M_if
    w_n, q_n = state.w.coefficients, state.q.coefficients
    g_D = ops.interface_values(sources.g_D, t_next)
    g_N = ops.interface_values(sources.g_N, t_next)
    u_tr = ops.trace(state.u)
    robin = M_if @ (a * (u_tr + g_D) - state.lam.coefficients + g_N)

    if k == 1:
        rhs = M_s @ w_n / dt + ops.lift(ops.dof_s, robin)
        rhs += ops.load_s(sources.f_s, t_next)
        w_next = ops._solid.solve(rhs)
        q_next = w_next
    else:
        w_tr = ops.trace(state.w)
        rhs = (
            (2.0 / dt**2) * (M_s @ w_n)
            + (2.0 / dt) * (M_s @ q_n)
            - (params.nu_s / 2.0) * (K_s @ w_n)
            + ops.lift(ops.dof_s, (a / dt) * (M_if @ w_tr) + robin)
        )
        if sources.f_s is not None:
            # midpoint forcing matches the w^{n+1/2} bracket
            rhs += 0.5 * (ops.load_s(sources.f_s, t_next) + ops.load_s(sources.f_s, t_next - dt))
        w_next = ops._solid.solve(rhs)
        q_next = (2.0 / dt) * (w_next - w_n) - q_n
    return Field(ops.dof_s, w_next), Field(ops.dof_s, q_next)


def fluid_step(params: SchemeParams, ops: CoupledOperators, state: SchemeState,
               w_next: Field, q_next: Field, sources: SourceData, t_next: float):
    """Lower-subdomain solve followed by the pointwise interface update."""
    k, dt, a = params.k, params.dt, params.alpha
    g_D = ops.interface_values(sources.g_D, t_next)
    if k == 1:
        w_dot_tr = ops.trace(w_next)
    else:
        w_dot_tr = (ops.trace(w_next) - ops.trace(state.w)) / dt
    lam_n = state.lam.coefficients
    rhs = ops.M_f @ state.u.coefficients / dt + ops.lift(
        ops.dof_f, ops.M_if @ (lam_n + a * (w_dot_tr - g_D))
    )
    rhs += ops.load_f(sources.f_f, t_next)
    u_next = ops._fluid.solve(rhs)
    u_tr = fem.trace_restrict(Field(ops.dof_f, u_next)).coefficients
    lam_next = lam_n - a * (u_tr - w_dot_tr + g_D)
    return Field(ops.dof_f, u_next), TraceField(lam_next)


def advance(params: SchemeParams, ops: CoupledOperators, state: SchemeState,
            sources: SourceData) -> SchemeState:
    """One loosely coupled step: solid solve, then fluid solve, then the update."""
    t_next = (state.step_index + 1) * params.dt
    w_next, q_next = solid_step(params, ops, state, sources, t_next)
    u_next, lam_next = fluid_step(params, ops, state, w_next, q_next, sources, t_next)
    return SchemeState(state.step_index + 1, u_next, w_next, q_next, lam_next)


def _quad_form(A: sp.csr_array, x: np.ndarray) -> float:
    return float(x @ (A @ x))


def energy_Z(params: SchemeParams, ops: CoupledOperators, state: SchemeState) -> float:
    """Stored energy at one time level."""
    k, dt, a = params.k, params.dt, params.alpha
    u_tr = ops.trace(state.u)
    z = 0.5 * _quad_form(ops.M_s, state.q.coefficients)
    z += 0.5 * _quad_form(ops.M_f, state.u.coefficients)
    z += 0.5 * (k - 1) * params.nu_s * _quad_form(ops.K_s, state.w.coefficients)
    z += 0.5 * dt * a * _quad_form(ops.M_if, u_tr)
    z += 0.5 * (dt / a) * _quad_form(ops.M_if, state.lam.coefficients)
    return z


def energy_S(params: SchemeParams, ops: CoupledOperators, state_n: SchemeState,
             state_next: SchemeState) -> float:
    """Dissipated energy of one step (nonnegative)."""
    k, dt, a = params.k, params.dt, params.alpha
    s = params.nu_f * dt * _quad_form(ops.K_f, state_next.u.coefficients)
    s += (2 - k) * params.nu_s * dt * _quad_form(ops.K_s, state_next.w.coefficients)
    s += 0.5 * (2 - k) * _quad_form(ops.M_s, state_next.q.coefficients - state_n.q.coefficients)
    s += 0.5 * _quad_form(ops.M_f, state_next.u.coefficients - state_n.u.coefficients)
    if k == 1:
        q_half = state_next.q.coefficients
    else:
        q_half = avg(state_next.q.coefficients, state_n.q.coefficients)
    d = fem.trace_restrict(Field(ops.dof_s, q_half)).coefficients - ops.trace(state_n.u)
    s += 0.5 * dt * a * _quad_form(ops.M_if, d)
    return s


def lambda0_from_exact(case, mesh: CoupledMesh) -> TraceField:
    """Nodal interpolation of the case's exact interface unknown at t = 0."""
    pts = mesh.nodes[mesh.interface_nodes]
    vals = np.asarray(case.exact_l(pts[:, 0], pts[:, 1], 0.0), dtype=float)
    return TraceField(np.broadcast_to(vals, (pts.shape[0],)).copy())


def initial_state(case, mesh: CoupledMesh, ops: CoupledOperators) -> SchemeState:
    """Interpolants of the exact fields at t = 0."""
    u0 = fem.interpolate(mesh, "f", case.exact_u, 0.0, ops.dof_f)
    w0 = fem.interpolate(mesh, "s", case.exact_w, 0.0, ops.dof_s)
    if case.k == 1:
        q0 = w0.copy()
    else:
        q0 = fem.interpolate(mesh, "s", case.exact_q, 0.0, ops.dof_s)
    return SchemeState(0, u0, w0, q0, lambda0_from_exact(case, mesh))


def _check_finite(state: SchemeState) -> None:
    """Raise FloatingPointError naming the step and the first non-finite field."""
    for name in ("u", "w", "q", "lam"):
        if not np.isfinite(getattr(state, name).coefficients).all():
            raise FloatingPointError(f"non-finite {name} at step {state.step_index}")


def run(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
        initial: SchemeState, ops: CoupledOperators | None = None,
        callback: Callable | None = None) -> tuple[SchemeState, EnergyLedger]:
    """Advance n_steps from the initial state; returns final state and energy ledger."""
    ops = ops or CoupledOperators(mesh, params)
    if params.k == 1 and not np.array_equal(initial.q.coefficients, initial.w.coefficients):
        raise ValueError("k=1 requires q0 = w0")
    state = initial
    ledger = EnergyLedger(Z=[energy_Z(params, ops, state)], S=[])
    for _ in range(params.n_steps):
        new = advance(params, ops, state, sources)
        _check_finite(new)
        ledger.S.append(energy_S(params, ops, state, new))
        ledger.Z.append(energy_Z(params, ops, new))
        state = new
        if callback is not None:
            callback(state)
    return state, ledger


# --- strongly coupled oracle ------------------------------------------------


def _monolithic_system(ops: CoupledOperators):
    """Saddle matrix of the fully coupled step, cached in the operator bundle.

    Unknown layout is [w | u | lam_free]; the multiplier block keeps only
    interface nodes that carry a dof on both sides, which makes the
    constraint block full rank.
    """
    if ops._monolithic is not None:
        return ops._monolithic
    params = ops.params
    k, dt = params.k, params.dt
    n_s, n_f = ops.dof_s.n_dofs, ops.dof_f.n_dofs
    free_if = np.flatnonzero((ops.dof_s.interface_dofs >= 0) & (ops.dof_f.interface_dofs >= 0))
    n_l = free_if.size

    if k == 1:
        A_s = (1.0 / dt) * ops.M_s + params.nu_s * ops.K_s
        constraint_scale = 1.0
    else:
        A_s = (2.0 / dt**2) * ops.M_s + (params.nu_s / 2.0) * ops.K_s
        constraint_scale = 2.0 / dt
    A_f = (1.0 / dt) * ops.M_f + params.nu_f * ops.K_f

    # coupling blocks through the interface mass matrix; the constraint rows
    # are their transposes because M_if is symmetric
    lam_index = np.full(ops.n_if, -1, dtype=np.int64)
    lam_index[free_if] = np.arange(n_l)
    B_s = _lifted_interface_matrix(ops.M_if, ops.dof_s.interface_dofs, lam_index, n_s, n_l)
    B_f = -_lifted_interface_matrix(ops.M_if, ops.dof_f.interface_dofs, lam_index, n_f, n_l)
    A = sp.block_array(
        [[A_s, None, B_s], [None, A_f, B_f], [constraint_scale * B_s.T, B_f.T, None]],
        format="csr",
    )
    ops._monolithic = (sparse.factorize(A), free_if, lam_index)
    return ops._monolithic


def monolithic_step(params: SchemeParams, ops: CoupledOperators, state: SchemeState,
                    sources: SourceData, t_next: float) -> SchemeState:
    """One implicit step of the fully coupled system (the strongly coupled oracle)."""
    k, dt = params.k, params.dt
    lu, free_if, lam_index = _monolithic_system(ops)
    n_s, n_f, n_l = ops.dof_s.n_dofs, ops.dof_f.n_dofs, free_if.size
    w_n, q_n, u_n = state.w.coefficients, state.q.coefficients, state.u.coefficients

    g_N = ops.interface_values(sources.g_N, t_next)
    g_D = ops.interface_values(sources.g_D, t_next)
    if k == 1:
        rhs_s = ops.M_s @ w_n / dt + ops.load_s(sources.f_s, t_next)
        rhs_c = ops.M_if @ g_D
    else:
        rhs_s = (
            (2.0 / dt**2) * (ops.M_s @ w_n)
            + (2.0 / dt) * (ops.M_s @ q_n)
            - (params.nu_s / 2.0) * (ops.K_s @ w_n)
        )
        if sources.f_s is not None:
            rhs_s += 0.5 * (ops.load_s(sources.f_s, t_next) + ops.load_s(sources.f_s, t_next - dt))
        w_tr, q_tr = ops.trace(state.w), ops.trace(state.q)
        rhs_c = ops.M_if @ (g_D + (2.0 / dt) * w_tr + q_tr)
    rhs_s += ops.lift(ops.dof_s, ops.M_if @ g_N)
    rhs_f = ops.M_f @ u_n / dt + ops.load_f(sources.f_f, t_next)

    rhs = np.concatenate([rhs_s, rhs_f, rhs_c[free_if]])
    sol = lu.solve(rhs)
    w_next = sol[:n_s]
    u_next = sol[n_s : n_s + n_f]
    lam_full = np.zeros(ops.n_if)
    lam_full[free_if] = sol[n_s + n_f :]
    q_next = w_next if k == 1 else (2.0 / dt) * (w_next - w_n) - q_n
    return SchemeState(
        state.step_index + 1,
        Field(ops.dof_f, u_next),
        Field(ops.dof_s, w_next),
        Field(ops.dof_s, q_next),
        TraceField(lam_full),
    )


def run_monolithic(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
                   initial: SchemeState, ops: CoupledOperators | None = None,
                   callback: Callable | None = None) -> SchemeState:
    """Advance the strongly coupled oracle n_steps from the initial state."""
    ops = ops or CoupledOperators(mesh, params)
    state = initial
    for _ in range(params.n_steps):
        state = monolithic_step(params, ops, state, sources, (state.step_index + 1) * params.dt)
        _check_finite(state)
        if callback is not None:
            callback(state)
    return state


# --- plain-text outputs ------------------------------------------------------


def dump_checkpoint(state: SchemeState, path) -> None:
    """Plain-text checkpoint: step index, then each coefficient vector."""
    with open(path, "w") as fh:
        fh.write(f"step {state.step_index}\n")
        for tag, vec in (
            ("u", state.u.coefficients),
            ("w", state.w.coefficients),
            ("q", state.q.coefficients),
            ("lambda", state.lam.coefficients),
        ):
            fh.write(tag + " " + " ".join(repr(v) for v in vec) + "\n")


def write_energy_csv(ledger: EnergyLedger, path) -> None:
    """Per-step energy bookkeeping: n, Z, S, Z_plus_cumS."""
    cum = np.concatenate([[0.0], np.cumsum(ledger.S)])
    with open(path, "w") as fh:
        fh.write("n,Z,S,Z_plus_cumS\n")
        for n, z in enumerate(ledger.Z):
            s = ledger.S[n - 1] if n >= 1 else 0.0
            fh.write(f"{n},{z:.17g},{s:.17g},{z + cum[n]:.17g}\n")
