"""Loosely coupled Robin-Robin time stepping for the two-subdomain system.

Each step first solves the upper (solid-like) subdomain with a Robin
condition built from the previous fluid trace and interface unknown, then
the lower (fluid-like) subdomain, then updates the interface unknown
pointwise. k = 1 runs backward Euler on both subdomains (parabolic -
parabolic); k = 2 runs the midpoint/Newmark member on the upper subdomain
(parabolic - hyperbolic). A strongly coupled stepper, its interface
multiplier eliminated into one SPD system, serves as the oracle, and an
exact per-step energy ledger supports the stored-plus-dissipated balance
audit. Each step reads its parameters from its ``CoupledOperators`` alone,
and a run's sources are one function of time, ``SourceData.assemble(ops)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy import linalg

from . import fem, sparse
from .fem import DofMap
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
        values = (self.dt, self.alpha, self.nu_f, self.nu_s, self.T)
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            raise ValueError("dt, alpha, nu_f, nu_s, T must be finite and positive")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-12:
            raise ValueError(f"T={self.T!r} is not an integer multiple of dt={self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class SourceData:
    """Volume forcing and interface data; None means identically zero.

    Each volume forcing comes with its rate, f(x, y, t) = e^{rate t} f(x, y, 0)
    (``rate_f`` for ``f_f``, ``rate_s`` for ``f_s``), so a run assembles its load
    once and scales it per step; a forcing without a rate raises ValueError.
    The interface data g_D and g_N are evaluated at every step.
    """

    f_f: Optional[Callable] = None
    f_s: Optional[Callable] = None
    g_D: Optional[Callable] = None
    g_N: Optional[Callable] = None
    rate_f: Optional[float] = None
    rate_s: Optional[float] = None

    def __post_init__(self):
        for side in ("f", "s"):
            if getattr(self, f"f_{side}") is not None and getattr(self, f"rate_{side}") is None:
                raise ValueError(f"f_{side} needs rate_{side}: a forcing is e^(rate t) f(x, y, 0)")

    @staticmethod
    def from_case(case) -> "SourceData":
        return SourceData(f_f=case.f_f, f_s=case.f_s, g_D=case.g_D, g_N=case.g_N,
                          rate_f=case.rate_u, rate_s=case.rate_w)

    def assemble(self, ops: "CoupledOperators") -> Callable:
        """This data on ops for one run: ``at(t_next)``, the step's (g_D, g_N, load_s,
        load_f). Loads are assembled here, at t = 0, and scaled to t_next; for k = 2
        the solid load is the midpoint average matching the w^{n+1/2} bracket."""
        load_f, load_s = (np.zeros(d.n_dofs) if f is None else fem.assemble_load(d, f, 0.0)
                          for d, f in ((ops.dof_f, self.f_f), (ops.dof_s, self.f_s)))
        rate_f, rate_s, k, dt = self.rate_f or 0.0, self.rate_s or 0.0, ops.params.k, ops.params.dt

        def at(t_next: float):
            scale = math.exp(rate_s * t_next)
            if k == 2:
                scale = 0.5 * (scale + math.exp(rate_s * (t_next - dt)))
            return (ops.interface_values(self.g_D, t_next), ops.interface_values(self.g_N, t_next),
                    scale * load_s, math.exp(rate_f * t_next) * load_f)

        return at


@dataclass
class SchemeState:
    step_index: int
    u: np.ndarray  # fluid dofs
    w: np.ndarray  # solid dofs
    q: np.ndarray  # solid dofs; the same array as w when k = 1
    lam: np.ndarray  # every interface node, in trace order


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

    def relative_defect(self) -> float:
        """identity_defect over Z^0 (floored at 1e-30, so zero data gives 0)."""
        return self.identity_defect() / max(self.Z[0], 1e-30)

    def monotone(self) -> bool:
        """Z^{n+1} <= Z^n + 1e-12 Z^0 at every step: no level stores more than the last."""
        z = np.asarray(self.Z)
        return bool(np.all(np.diff(z) <= 1e-12 * z[0]))


class CoupledOperators:
    """Operators and Robin factorizations for one (mesh, params) pair.

    The dofmaps, mass, stiffness and interface mass depend on the mesh alone
    and are shared by every bundle on that mesh (``_mesh_operators``); the two
    Robin LUs are this bundle's own. The step matrices they are built from are
    not kept: only the coupled oracle reads them, and it builds its own with
    ``step_matrices``. Each Robin matrix is dropped before the next LU: the
    solid one is built, factored and freed before the fluid one is built, so
    the fluid LU runs beside the solid factors alone.
    """

    def __init__(self, mesh: CoupledMesh, params: SchemeParams):
        self.params = params
        shared = _mesh_operators(mesh)
        *dof_f, self.M_f, self.K_f = shared["f"]
        *dof_s, self.M_s, self.K_s = shared["s"]
        self.dof_f: DofMap = DofMap("f", mesh, *dof_f)
        self.dof_s: DofMap = DofMap("s", mesh, *dof_s)
        self.M_if = shared["if"]
        ifc = mesh.nodes[mesh.interface_nodes]
        self.if_x1, self.if_x2 = ifc[:, 0].copy(), ifc[:, 1].copy()
        self.n_if = mesh.interface_nodes.size

        R_f, R_s, M_if, a = self.dof_f.R, self.dof_s.R, self.M_if, params.alpha
        steps = self.step_matrices()
        # SPD because dt, alpha, nu_f and nu_s are positive (SchemeParams checks)
        self._solid = sparse.factorize(
            next(steps) + (a if params.k == 1 else a / params.dt) * (R_s.T @ M_if @ R_s))
        self._fluid = sparse.factorize(next(steps) + a * (R_f.T @ M_if @ R_f))

    def step_matrices(self):
        """Solid and fluid step matrices without interface terms: yields A_s, then
        A_f, so a caller can drop the first before the second is built."""
        p = self.params
        if p.k == 1:
            yield (1.0 / p.dt) * self.M_s + p.nu_s * self.K_s
        else:
            yield (2.0 / p.dt**2) * self.M_s + (p.nu_s / 2.0) * self.K_s
        yield (1.0 / p.dt) * self.M_f + p.nu_f * self.K_f

    def interface_values(self, fn, t) -> np.ndarray:
        if fn is None:
            return np.zeros(self.n_if)
        vals = np.asarray(fn(self.if_x1, self.if_x2, t), dtype=float)
        return np.broadcast_to(vals, (self.n_if,)).copy()


def _mesh_operators(mesh: CoupledMesh) -> dict:
    """The dt-independent operators of a mesh, built on first use and memoized on it.

    Per subdomain ``"f"``/``"s"``: the DofMap fields after subdomain and mesh
    (node_to_dof, free_nodes, interface_dofs, R), then mass and stiffness;
    ``"if"``: the interface mass. Only arrays and matrices are kept: a cached
    DofMap points back at the mesh, and that cycle would keep every mesh alive
    until the garbage collector runs.
    """
    shared = mesh._cache.get("operators")
    if shared is None:
        shared = {}
        for sub in ("f", "s"):
            dof = fem.build_dofmap(mesh, sub)
            # mass and stiffness share one element_geometry call; it is dropped
            # before the next subdomain's, and before the caller factors anything
            geometry = fem.element_geometry(mesh.nodes, fem.subdomain_triangles(mesh, sub))
            shared[sub] = (dof.node_to_dof, dof.free_nodes, dof.interface_dofs, dof.R,
                           fem.assemble_mass(dof, geometry), fem.assemble_stiffness(dof, geometry))
            del geometry
        shared["if"] = fem.assemble_interface_mass(mesh)
        mesh._cache["operators"] = shared
    return shared


def solid_history(ops: CoupledOperators, state: SchemeState) -> np.ndarray:
    """The solid right-hand side's terms in w^n and q^n, without interface terms."""
    p, dt, M_s, w_n = ops.params, ops.params.dt, ops.M_s, state.w
    if p.k == 1:
        return M_s @ w_n / dt
    return ((2.0 / dt**2) * (M_s @ w_n) + (2.0 / dt) * (M_s @ state.q)
            - (p.nu_s / 2.0) * (ops.K_s @ w_n))


def solid_velocity(ops: CoupledOperators, state: SchemeState, w_next: np.ndarray) -> np.ndarray:
    """q^{n+1}: w^{n+1} itself for k = 1, (2/dt)(w^{n+1} - w^n) - q^n for k = 2."""
    if ops.params.k == 1:
        return w_next
    return (2.0 / ops.params.dt) * (w_next - state.w) - state.q


def solid_step(ops: CoupledOperators, state: SchemeState, step_sources):
    """Upper-subdomain solve with the Robin data of the previous step; ``step_sources``
    is the step's tuple from the run's source function (``SourceData.assemble``)."""
    k, dt, a, M_if = ops.params.k, ops.params.dt, ops.params.alpha, ops.M_if
    g_D, g_N, load_s, _ = step_sources
    u_tr = fem.trace_restrict(ops.dof_f, state.u)
    robin = M_if @ (a * (u_tr + g_D) - state.lam + g_N)
    if k == 2:
        robin = (a / dt) * (M_if @ fem.trace_restrict(ops.dof_s, state.w)) + robin
    rhs = solid_history(ops, state) + ops.dof_s.R.T @ robin + load_s
    w_next = ops._solid.solve(rhs)
    return w_next, solid_velocity(ops, state, w_next)


def fluid_step(ops: CoupledOperators, state: SchemeState, w_next: np.ndarray, step_sources):
    """Lower-subdomain solve followed by the pointwise interface update; ``step_sources``
    as in ``solid_step``."""
    k, dt, a = ops.params.k, ops.params.dt, ops.params.alpha
    g_D, _, _, load_f = step_sources
    if k == 1:
        w_dot_tr = fem.trace_restrict(ops.dof_s, w_next)
    else:
        w_dot_tr = (fem.trace_restrict(ops.dof_s, w_next)
                    - fem.trace_restrict(ops.dof_s, state.w)) / dt
    rhs = ops.M_f @ state.u / dt + ops.dof_f.R.T @ (ops.M_if @ (state.lam + a * (w_dot_tr - g_D)))
    rhs += load_f
    u_next = ops._fluid.solve(rhs)
    u_tr = fem.trace_restrict(ops.dof_f, u_next)
    lam_next = state.lam - a * (u_tr - w_dot_tr + g_D)
    return u_next, lam_next


def advance(ops: CoupledOperators, state: SchemeState, sources: Callable) -> SchemeState:
    """One loosely coupled step: solid solve, fluid solve, then the interface update;
    ``sources`` is the run's ``SourceData.assemble(ops)``."""
    step_sources = sources((state.step_index + 1) * ops.params.dt)
    w_next, q_next = solid_step(ops, state, step_sources)
    u_next, lam_next = fluid_step(ops, state, w_next, step_sources)
    return SchemeState(state.step_index + 1, u_next, w_next, q_next, lam_next)


def _quad_form(A: sp.csr_array, x: np.ndarray) -> float:
    return float(x @ (A @ x))


def energy_Z(ops: CoupledOperators, state: SchemeState) -> float:
    """Stored energy at one time level; the solid strain term is there for k = 2 only."""
    p, dt, a = ops.params, ops.params.dt, ops.params.alpha
    u_tr = fem.trace_restrict(ops.dof_f, state.u)
    z = 0.5 * _quad_form(ops.M_s, state.q)
    z += 0.5 * _quad_form(ops.M_f, state.u)
    if p.k == 2:
        z += 0.5 * p.nu_s * _quad_form(ops.K_s, state.w)
    z += 0.5 * dt * a * _quad_form(ops.M_if, u_tr)
    z += 0.5 * (dt / a) * _quad_form(ops.M_if, state.lam)
    return z


def energy_S(ops: CoupledOperators, state_n: SchemeState, state_next: SchemeState) -> float:
    """Dissipated energy of one step (nonnegative).

    The solid's viscous term and backward Euler's velocity-jump term are there
    for k = 1 only: for k = 2 the solid is hyperbolic and the midpoint rule
    dissipates nothing there.
    """
    p, dt, a = ops.params, ops.params.dt, ops.params.alpha
    s = p.nu_f * dt * _quad_form(ops.K_f, state_next.u)
    if p.k == 1:
        s += p.nu_s * dt * _quad_form(ops.K_s, state_next.w)
        s += 0.5 * _quad_form(ops.M_s, state_next.q - state_n.q)
        q_half = state_next.q
    else:
        q_half = 0.5 * (state_next.q + state_n.q)
    s += 0.5 * _quad_form(ops.M_f, state_next.u - state_n.u)
    d = fem.trace_restrict(ops.dof_s, q_half) - fem.trace_restrict(ops.dof_f, state_n.u)
    s += 0.5 * dt * a * _quad_form(ops.M_if, d)
    return s


def _check_ops(ops: CoupledOperators, mesh: CoupledMesh, params: SchemeParams | None = None):
    """Raise ValueError unless ops were built on this mesh (and for these params)."""
    if ops.dof_f.mesh is not mesh:
        raise ValueError("ops were built on another mesh")
    if params is not None and ops.params != params:
        raise ValueError(f"ops were built for {ops.params}, not {params}")


def _check_start(params: SchemeParams, mesh: CoupledMesh, ops: CoupledOperators,
                 initial: SchemeState):
    """Raise ValueError unless ops fit this run and a k = 1 start has q0 = w0."""
    _check_ops(ops, mesh, params)
    if params.k == 1 and not np.array_equal(initial.q, initial.w):
        raise ValueError("k=1 requires q0 = w0")


def initial_state(case, mesh: CoupledMesh, ops: CoupledOperators) -> SchemeState:
    """Interpolants of the exact fields at t = 0."""
    _check_ops(ops, mesh)
    u0 = fem.interpolate(ops.dof_f, case.exact_u, 0.0)
    w0 = fem.interpolate(ops.dof_s, case.exact_w, 0.0)
    if case.k == 1:
        q0 = w0.copy()
    else:
        q0 = fem.interpolate(ops.dof_s, case.exact_q, 0.0)
    return SchemeState(0, u0, w0, q0, ops.interface_values(case.exact_l, 0.0))


def _check_finite(state: SchemeState) -> None:
    """Raise FloatingPointError naming the step and the first non-finite field."""
    for name in ("u", "w", "q", "lam"):
        if not np.isfinite(getattr(state, name)).all():
            raise FloatingPointError(f"non-finite {name} at step {state.step_index}")


def run(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
        initial: SchemeState, ops: CoupledOperators,
        callback: Callable | None = None) -> tuple[SchemeState, EnergyLedger]:
    """Advance n_steps from the initial state; returns final state and energy ledger."""
    _check_start(params, mesh, ops, initial)
    state, step_sources = initial, sources.assemble(ops)
    ledger = EnergyLedger(Z=[energy_Z(ops, state)], S=[])
    for _ in range(params.n_steps):
        new = advance(ops, state, step_sources)
        _check_finite(new)
        ledger.S.append(energy_S(ops, state, new))
        ledger.Z.append(energy_Z(ops, new))
        state = new
        if callback is not None:
            callback(state)
    return state, ledger


# --- strongly coupled oracle ------------------------------------------------


def _monolithic_system(ops: CoupledOperators):
    """Condensed SPD system of the fully coupled step, factored.

    The multiplier lives on the interface nodes F that carry a dof on both
    sides, where the constraint rows read M_FF (v_F - u_F) = rhs_c[F] with
    v = c w the solid velocity (c = 1 for k = 1, 2/dt for k = 2). So
    u_F = v_F - M_FF^{-1} rhs_c[F], and adding the solid and fluid interface
    rows cancels the multiplier. What is left is SPD on the merged dofs
    [v | non-interface fluid dofs]: A_s / c on the solid block plus
    Pf.T @ A_f @ Pf, where the 0/1 map Pf sends each fluid dof to its merged
    dof (an interface dof to the solid dof at the same node).

    Returns (lu, Pf, F, M_FF in upper banded form, c, A_s, A_f), with A_s and
    A_f from ``ops.step_matrices()``. ``run_monolithic`` builds it once per
    call and drops it on return, so the oracle LU and the step matrices never
    outlive the run.
    """
    params, dof_s, dof_f = ops.params, ops.dof_s, ops.dof_f
    F = np.flatnonzero(dof_s.interface_dofs >= 0)
    if not np.array_equal(F, np.flatnonzero(dof_f.interface_dofs >= 0)):
        raise ValueError("the coupled oracle needs every interface dof on both sides")
    c = 1.0 if params.k == 1 else 2.0 / params.dt

    n_s, n_f = dof_s.n_dofs, dof_f.n_dofs
    merged = np.full(n_f, -1, dtype=np.int64)
    merged[dof_f.interface_dofs[F]] = dof_s.interface_dofs[F]
    n_rest = n_f - F.size
    merged[merged < 0] = n_s + np.arange(n_rest)
    Pf = sparse.from_triplets(n_f, n_s + n_rest, (np.arange(n_f), merged, np.ones(n_f)))
    A_s, A_f = ops.step_matrices()
    K = Pf.T @ A_f @ Pf + sp.block_diag((A_s / c, sp.csr_array((n_rest, n_rest))))
    M_FF = ops.M_if[F][:, F]  # tridiagonal
    band = np.stack([np.r_[0.0, M_FF.diagonal(1)], M_FF.diagonal()])
    return sparse.factorize(K), Pf, F, band, c, A_s, A_f


def monolithic_step(ops: CoupledOperators, state: SchemeState, sources: Callable,
                    system) -> SchemeState:
    """One implicit step of the fully coupled system (the strongly coupled oracle).

    ``sources`` is as in ``advance``; ``system`` is ``_monolithic_system(ops)``.
    """
    k, dt = ops.params.k, ops.params.dt
    lu, Pf, F, M_FF, c, A_s, A_f = system
    n_s = ops.dof_s.n_dofs

    g_D, g_N, load_s, load_f = sources((state.step_index + 1) * dt)
    rhs_s = solid_history(ops, state) + load_s
    rhs_s += ops.dof_s.R.T @ (ops.M_if @ g_N)
    if k == 1:
        rhs_c = ops.M_if @ g_D
    else:
        w_tr = fem.trace_restrict(ops.dof_s, state.w)
        q_tr = fem.trace_restrict(ops.dof_s, state.q)
        rhs_c = ops.M_if @ (g_D + (2.0 / dt) * w_tr + q_tr)
    rhs_f = ops.M_f @ state.u / dt + load_f

    # the interface jump v - u, fixed by the constraint, lifted into the fluid dofs
    jump = np.zeros(ops.n_if)
    jump[F] = linalg.solveh_banded(M_FF, rhs_c[F], check_finite=False)
    jump_f = ops.dof_f.R.T @ jump
    rhs = Pf.T @ (rhs_f + A_f @ jump_f)
    rhs[:n_s] += rhs_s
    z = lu.solve(rhs)
    u_next = Pf @ z - jump_f
    w_next = z[:n_s] / c
    # the multiplier from the solid interface rows A_s w + R_s.T M_if[:, F] lam_F = rhs_s
    lam_full = np.zeros(ops.n_if)
    resid = fem.trace_restrict(ops.dof_s, rhs_s - A_s @ w_next)
    lam_full[F] = linalg.solveh_banded(M_FF, resid[F], check_finite=False)
    q_next = solid_velocity(ops, state, w_next)
    return SchemeState(state.step_index + 1, u_next, w_next, q_next, lam_full)


def run_monolithic(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
                   initial: SchemeState, ops: CoupledOperators,
                   callback: Callable | None = None) -> SchemeState:
    """Advance the strongly coupled oracle n_steps from the initial state."""
    _check_start(params, mesh, ops, initial)
    state, step_sources = initial, sources.assemble(ops)
    system = _monolithic_system(ops)
    for _ in range(params.n_steps):
        state = monolithic_step(ops, state, step_sources, system)
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
            ("u", state.u),
            ("w", state.w),
            ("q", state.q),
            ("lambda", state.lam),
        ):
            fh.write(tag + " " + " ".join(map(repr, vec.tolist())) + "\n")


def write_energy_csv(ledger: EnergyLedger, path) -> None:
    """Per-step energy bookkeeping: n, Z, S, Z_plus_cumS."""
    cum = np.concatenate([[0.0], np.cumsum(ledger.S)])
    with open(path, "w") as fh:
        fh.write("n,Z,S,Z_plus_cumS\n")
        for n, z in enumerate(ledger.Z):
            s = ledger.S[n - 1] if n >= 1 else 0.0
            fh.write(f"{n},{z:.17g},{s:.17g},{z + cum[n]:.17g}\n")
