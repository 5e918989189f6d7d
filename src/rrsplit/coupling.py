"""Loosely coupled Robin-Robin time stepping for the two-subdomain system.

Each step first solves the upper (solid-like) subdomain with a Robin
condition built from the previous fluid trace and interface unknown, then
the lower (fluid-like) subdomain, then updates the interface unknown
pointwise. k = 1 runs backward Euler on both subdomains (parabolic -
parabolic); k = 2 runs the midpoint/Newmark member on the upper subdomain
(parabolic - hyperbolic). Either way the solid step solves for its interface
velocity v (w^{n+1} for k = 1, (w^{n+1} - w^n)/dt for k = 2), so both
couplings share one Robin form: the solid matrix carries alpha R^T M_if R,
the fluid step couples to R v, and ``solid_levels`` maps v to the next
(w, q). The oracle is the splitting's strongly coupled limit,
R_s v - R_f u = g_D for both k, with its interface multiplier eliminated into
one SPD system; an exact per-step energy ledger supports the
stored-plus-dissipated balance audit. Both steppers step on levels
(``_level``): checked finite, read-only, and carrying the level's mass,
stiffness and trace products, formed once, which the next step and the ledger
both read; a public step or energy function called on a bare state forms them
itself. Each step reads its parameters from its
``CoupledOperators``, which holds no factorization: each run factors its own
system and drops it on return. A run's sources are one function of time,
``SourceData.assemble(ops)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy import linalg

from . import fem, sparse
from .meshing import CoupledMesh

_MAX_STEPS = 2**20  # far above any study (at most 512 steps): more is a slip in T or dt


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
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T={self.T!r} / dt={self.dt!r} overflows a float")
        if self.T / self.dt > _MAX_STEPS:
            raise ValueError(f"T={self.T!r} / dt={self.dt!r} is {self.T / self.dt:.6g} steps, "
                             f"above the bound of {_MAX_STEPS}")
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * self.dt:
            raise ValueError(f"T={self.T!r} is not a positive integer multiple of dt={self.dt!r}")

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
    q: np.ndarray  # solid dofs; for k = 1 equal to w, and the same array after a step
    lam: np.ndarray  # every interface node, in trace order
    # the level's record (``_products``), attached by ``_level`` to the states both
    # steppers step with; the states they hand out are bare (None) and read-only
    products: Optional[tuple] = field(default=None, repr=False, compare=False)


@dataclass
class EnergyLedger:
    """Per-level stored energy Z and per-step dissipation S."""

    Z: list
    S: list

    def balance(self) -> np.ndarray:
        """Z^n + sum_{m<n} S^{m+1} per level n; the telescoped identity makes it Z^0."""
        return np.asarray(self.Z) + np.concatenate([[0.0], np.cumsum(self.S)])

    def relative_defect(self) -> float:
        """max over levels of |balance - Z^0|, over Z^0 (floored at 1e-30, so zero
        data gives 0)."""
        return float(np.abs(self.balance() - self.Z[0]).max()) / max(self.Z[0], 1e-30)

    def monotone(self) -> bool:
        """Z^{n+1} <= Z^n + 1e-12 Z^0 at every step: no level stores more than the last."""
        z = np.asarray(self.Z)
        return bool(np.all(np.diff(z) <= 1e-12 * z[0]))


class CoupledOperators:
    """Operators for one (mesh, params) pair; it holds no factorization.

    The dofmaps, mass, stiffness and interface mass depend on the mesh alone
    and are shared by every bundle on that mesh (``_mesh_operators``). Each
    run factors its own system.
    """

    def __init__(self, mesh: CoupledMesh, params: SchemeParams):
        self.mesh, self.params = mesh, params
        shared = _mesh_operators(mesh)
        self.dof_f, self.M_f, self.K_f = shared["f"]
        self.dof_s, self.M_s, self.K_s = shared["s"]
        self.M_if = shared["if"]
        ifc = mesh.nodes[mesh.interface_nodes]
        self.if_x1, self.if_x2 = ifc[:, 0].copy(), ifc[:, 1].copy()
        self.n_if = mesh.interface_nodes.size

    def step_matrices(self):
        """Solid and fluid step matrices without interface terms, on the solid's
        interface velocity v and on u: yields A_s, then A_f, so a caller can drop
        the first before the second is built."""
        p = self.params
        if p.k == 1:
            yield (1.0 / p.dt) * self.M_s + p.nu_s * self.K_s
        else:
            yield (2.0 / p.dt) * self.M_s + (p.nu_s * p.dt / 2.0) * self.K_s
        yield (1.0 / p.dt) * self.M_f + p.nu_f * self.K_f

    def interface_values(self, fn, t) -> np.ndarray:
        if fn is None:
            return np.zeros(self.n_if)
        vals = np.asarray(fn(self.if_x1, self.if_x2, t), dtype=float)
        return np.broadcast_to(vals, (self.n_if,)).copy()


def _mesh_operators(mesh: CoupledMesh) -> dict:
    """The dt-independent operators of a mesh, built on first use and memoized on it.

    Per subdomain ``"f"``/``"s"``: (DofMap, mass, stiffness), on dofs numbered
    in their elimination order (``fem.build_dofmap``); ``"if"``: the interface
    mass.
    """
    shared = mesh._cache.get("operators")
    if shared is None:
        shared = {}
        for sub in ("f", "s"):
            dof = fem.build_dofmap(mesh, sub)
            shared[sub] = (dof, fem.assemble_mass(dof), fem.assemble_stiffness(dof))
        shared["if"] = fem.assemble_interface_mass(mesh)
        mesh._cache["operators"] = shared
    return shared


def _products(ops: CoupledOperators, state: SchemeState) -> tuple:
    """The level's record (M_f u, M_s q, K_s w or None for k = 1, R_f u): the one
    ``_level`` attached, or, on a bare state, formed here. For k = 1, M_s q is also the
    solid history's M_s w^n (q = w)."""
    if state.products is not None:
        return state.products
    return (ops.M_f @ state.u, ops.M_s @ state.q,
            ops.K_s @ state.w if ops.params.k == 2 else None,
            fem.trace_restrict(ops.dof_f, state.u))


def _level(ops: CoupledOperators, state: SchemeState) -> SchemeState:
    """The state as both steppers step with it: FloatingPointError naming its step and
    first non-finite field, else a state on read-only views of its arrays (q stays w's
    view when it was w's array) with its record (``_products``) attached."""
    for name in ("u", "w", "q", "lam"):
        if not np.isfinite(getattr(state, name)).all():
            raise FloatingPointError(f"non-finite {name} at step {state.step_index}")
    u, w, lam = (np.asarray(a).view() for a in (state.u, state.w, state.lam))
    q = w if state.q is state.w else np.asarray(state.q).view()
    for a in (u, w, q, lam):
        a.flags.writeable = False
    level = SchemeState(state.step_index, u, w, q, lam)
    return replace(level, products=_products(ops, level))


def solid_history(ops: CoupledOperators, state: SchemeState) -> np.ndarray:
    """The solid right-hand side's terms in w^n and q^n, without interface terms."""
    p, dt, (_, Mq, Kw, _) = ops.params, ops.params.dt, _products(ops, state)
    if p.k == 1:
        return Mq / dt
    return (2.0 / dt) * Mq - p.nu_s * Kw


def solid_levels(ops: CoupledOperators, state: SchemeState, v: np.ndarray):
    """(w^{n+1}, q^{n+1}) from the solid's interface velocity v: (v, v) for k = 1,
    (w^n + dt v, 2 v - q^n) for k = 2."""
    if ops.params.k == 1:
        return v, v
    return state.w + ops.params.dt * v, 2.0 * v - state.q


def _robin_system(ops: CoupledOperators):
    """The splitting's Robin LUs (solid, fluid), of each step matrix plus alpha R^T M_if R;
    the solid matrix is built, factored and dropped before the fluid one is built."""
    a, M_if, steps = ops.params.alpha, ops.M_if, ops.step_matrices()
    # SPD because dt, alpha, nu_f and nu_s are positive (SchemeParams checks)
    return tuple(sparse.factorize(next(steps) + a * (dof.R.T @ M_if @ dof.R))
                 for dof in (ops.dof_s, ops.dof_f))


def solid_step(ops: CoupledOperators, state: SchemeState, step_sources, system) -> np.ndarray:
    """Upper-subdomain solve with the Robin data of the previous step, for the solid's
    interface velocity v; ``step_sources`` is the step's tuple from the run's source
    function (``SourceData.assemble``), ``system`` is ``_robin_system(ops)``."""
    a, M_if = ops.params.alpha, ops.M_if
    g_D, g_N, load_s, _ = step_sources
    robin = M_if @ (a * (_products(ops, state)[3] + g_D) - state.lam + g_N)
    return system[0].solve(solid_history(ops, state) + ops.dof_s.R.T @ robin + load_s)


def fluid_step(ops: CoupledOperators, state: SchemeState, v: np.ndarray, step_sources, system):
    """Lower-subdomain solve coupled to the solid's interface velocity v, followed by
    the pointwise interface update; ``step_sources`` and ``system`` as in ``solid_step``."""
    dt, a = ops.params.dt, ops.params.alpha
    g_D, _, _, load_f = step_sources
    v_tr = fem.trace_restrict(ops.dof_s, v)
    rhs = _products(ops, state)[0] / dt
    rhs += ops.dof_f.R.T @ (ops.M_if @ (state.lam + a * (v_tr - g_D)))
    rhs += load_f
    u_next = system[1].solve(rhs)
    u_tr = fem.trace_restrict(ops.dof_f, u_next)
    lam_next = state.lam - a * (u_tr - v_tr + g_D)
    return u_next, lam_next


def advance(ops: CoupledOperators, state: SchemeState, sources: Callable, system) -> SchemeState:
    """One loosely coupled step: solid solve, fluid solve, then the interface update;
    ``sources`` is the run's ``SourceData.assemble(ops)``, ``system`` its Robin LUs."""
    step_sources = sources((state.step_index + 1) * ops.params.dt)
    v = solid_step(ops, state, step_sources, system)
    u_next, lam_next = fluid_step(ops, state, v, step_sources, system)
    return SchemeState(state.step_index + 1, u_next, *solid_levels(ops, state, v), lam_next)


def _quad_form(A: sp.csr_array, x: np.ndarray) -> float:
    return float(x @ (A @ x))


def energy_Z(ops: CoupledOperators, state: SchemeState) -> float:
    """Stored energy at one time level; the solid strain term is there for k = 2 only."""
    p, dt, a = ops.params, ops.params.dt, ops.params.alpha
    Mu, Mq, Kw, u_tr = _products(ops, state)
    z = 0.5 * float(state.q @ Mq)
    z += 0.5 * float(state.u @ Mu)
    if p.k == 2:
        z += 0.5 * p.nu_s * float(state.w @ Kw)
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
    d = fem.trace_restrict(ops.dof_s, q_half) - _products(ops, state_n)[3]
    s += 0.5 * dt * a * _quad_form(ops.M_if, d)
    return s


def _check_ops(ops: CoupledOperators, mesh: CoupledMesh, params: SchemeParams | None = None):
    """Raise ValueError unless ops were built on this mesh (and for these params)."""
    if ops.mesh is not mesh:
        raise ValueError("ops were built on another mesh")
    if params is not None and ops.params != params:
        raise ValueError(f"ops were built for {ops.params}, not {params}")


def initial_state(case, mesh: CoupledMesh, ops: CoupledOperators) -> SchemeState:
    """Interpolants of the exact fields at t = 0; ValueError unless ops were built on
    this mesh with the case's k, nu_f and nu_s."""
    _check_ops(ops, mesh)
    want, got = (case.k, case.nu_f, case.nu_s), (ops.params.k, ops.params.nu_f, ops.params.nu_s)
    if want != got:
        raise ValueError(f"case {case.name} has (k, nu_f, nu_s) = {want}, ops have {got}")
    u0 = fem.interpolate(ops.dof_f, case.exact_u, 0.0)
    w0 = fem.interpolate(ops.dof_s, case.exact_w, 0.0)
    if case.k == 1:
        q0 = w0.copy()
    else:
        q0 = fem.interpolate(ops.dof_s, case.exact_q, 0.0)
    return SchemeState(0, u0, w0, q0, ops.interface_values(case.exact_l, 0.0))


def _start(params: SchemeParams, mesh: CoupledMesh, ops: CoupledOperators,
           initial: SchemeState) -> SchemeState:
    """The start's level (``_level``); ValueError unless ops fit this run, each start
    vector is 1-D with its dof or interface count, and a k = 1 start has q0 = w0."""
    _check_ops(ops, mesh, params)
    n_f, n_s = ops.dof_f.n_dofs, ops.dof_s.n_dofs
    for name, n in (("u", n_f), ("w", n_s), ("q", n_s), ("lam", ops.n_if)):
        shape = np.shape(getattr(initial, name))
        if shape != (n,):
            raise ValueError(f"start {name} has shape {shape}, expected {(n,)}")
    level = _level(ops, initial)  # the finite check first: NaN != NaN
    if params.k == 1 and not np.array_equal(level.q, level.w):
        raise ValueError("k=1 requires q0 = w0")
    return level


def _finite_energy(energy: Callable, ops: CoupledOperators, *states) -> float:
    """``energy(ops, *states)``; FloatingPointError naming the last state's step if
    it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf, checked below
        value = energy(ops, *states)
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite energy at step {states[-1].step_index}")
    return value


def run(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
        initial: SchemeState, ops: CoupledOperators,
        callback: Callable | None = None) -> tuple[SchemeState, EnergyLedger]:
    """Advance n_steps from the initial state; returns final state and energy ledger.

    Each level's products are formed once (``_level``), and the next step and the
    ledger read them. The callback and the return get bare states with read-only
    arrays; the caller's ``initial`` keeps its own. Raises FloatingPointError at the
    first step whose state, Z or S is not finite.
    """
    state, step_sources = _start(params, mesh, ops, initial), sources.assemble(ops)
    system = _robin_system(ops)
    ledger = EnergyLedger(Z=[_finite_energy(energy_Z, ops, state)], S=[])
    for _ in range(params.n_steps):
        new = _level(ops, advance(ops, state, step_sources, system))
        ledger.S.append(_finite_energy(energy_S, ops, state, new))
        ledger.Z.append(_finite_energy(energy_Z, ops, new))
        state = new
        if callback is not None:
            callback(replace(state, products=None))
    return replace(state, products=None), ledger


# --- strongly coupled oracle ------------------------------------------------


def _monolithic_system(ops: CoupledOperators):
    """Condensed SPD system of the fully coupled step, factored.

    The solid unknown is its interface velocity v, as in ``solid_step``, and for
    both k the coupling is the fixed point of the splitting's interface update,
    R_s v - R_f u = g_D: the fluid trace is the solid's velocity less g_D. The
    multiplier lives on the interface nodes F that carry a dof on both sides,
    where that condition reads M_FF (v_F - u_F) = (M_if g_D)[F]. So
    u_F = v_F - M_FF^{-1} (M_if g_D)[F], and adding the solid and fluid
    interface rows cancels the multiplier. What is left is SPD on the merged
    dofs [fluid-only | solid-only | shared interface]: Pf.T @ A_f @ Pf +
    Ps.T @ A_s @ Ps, where the 0/1 maps Pf and Ps send each fluid and solid
    dof to its merged dof. Each block keeps its subdomain's numbering and the
    interface dofs, the separator of the two blocks, come last in trace
    order, so the merged numbering is the elimination order.

    Returns (lu, Pf, Ps, F, M_FF in upper banded form, I_s, A_s[I_s], near,
    A_f[near]), with A_s and A_f from ``ops.step_matrices()``: I_s are the
    solid's interface dofs, the only rows of A_s v the step reads, and near
    the rows of A_f that touch an interface dof, the only rows of the lifted
    jump's product that are not zero. Whole rows are kept, so each product
    sums in the order of the full one. ``run_monolithic`` builds it once per
    call and drops it on return, so the oracle LU never outlives the run.
    """
    dof_s, dof_f = ops.dof_s, ops.dof_f
    F = np.flatnonzero(dof_s.interface_dofs >= 0)
    if not np.array_equal(F, np.flatnonzero(dof_f.interface_dofs >= 0)):
        raise ValueError("the coupled oracle needs every interface dof on both sides")

    n_fo, n_so = dof_f.n_dofs - F.size, dof_s.n_dofs - F.size  # fluid-only, solid-only
    n = n_fo + n_so + F.size

    def merge(dof, first):
        m = dof.n_dofs
        to = np.full(m, -1, dtype=np.int64)
        to[dof.interface_dofs[F]] = n_fo + n_so + np.arange(F.size)
        to[to < 0] = first + np.arange(m - F.size)
        return sparse.from_triplets(m, n, (np.arange(m), to, np.ones(m)))

    Pf, Ps = merge(dof_f, 0), merge(dof_s, n_fo)
    A_s, A_f = ops.step_matrices()
    K = Pf.T @ A_f @ Pf + Ps.T @ A_s @ Ps
    I_s = dof_s.interface_dofs[F]
    near = np.flatnonzero(np.diff(A_f[:, dof_f.interface_dofs[F]].indptr))
    rows = (I_s, A_s[I_s], near, A_f[near])
    del A_s, A_f  # only their rows above stay alive beside the LU
    M_FF = ops.M_if[F][:, F]  # tridiagonal
    band = np.stack([np.r_[0.0, M_FF.diagonal(1)], M_FF.diagonal()])
    return (sparse.factorize(K), Pf, Ps, F, band, *rows)


def monolithic_step(ops: CoupledOperators, state: SchemeState, sources: Callable,
                    system) -> SchemeState:
    """One implicit step of the fully coupled system (the strongly coupled oracle).

    ``sources`` is as in ``advance``; ``system`` is ``_monolithic_system(ops)``.
    """
    dt = ops.params.dt
    lu, Pf, Ps, F, M_FF, I_s, A_s_rows, near, A_f_rows = system

    g_D, g_N, load_s, load_f = sources((state.step_index + 1) * dt)
    rhs_s = solid_history(ops, state) + load_s
    rhs_s += ops.dof_s.R.T @ (ops.M_if @ g_N)
    rhs_f = _products(ops, state)[0] / dt + load_f

    # the interface jump v - u, fixed by the constraint, lifted into the fluid dofs
    jump = np.zeros(ops.n_if)
    jump[F] = linalg.solveh_banded(M_FF, (ops.M_if @ g_D)[F], check_finite=False)
    jump_f = ops.dof_f.R.T @ jump
    rhs_f[near] += A_f_rows @ jump_f
    z = lu.solve(Pf.T @ rhs_f + Ps.T @ rhs_s)
    u_next = Pf @ z - jump_f
    v = Ps @ z
    # the multiplier from the solid interface rows A_s v + R_s.T M_if[:, F] lam_F = rhs_s
    lam_full = np.zeros(ops.n_if)
    resid = rhs_s[I_s] - A_s_rows @ v
    lam_full[F] = linalg.solveh_banded(M_FF, resid, check_finite=False)
    return SchemeState(state.step_index + 1, u_next, *solid_levels(ops, state, v), lam_full)


def run_monolithic(params: SchemeParams, mesh: CoupledMesh, sources: SourceData,
                   initial: SchemeState, ops: CoupledOperators,
                   callback: Callable | None = None) -> SchemeState:
    """Advance the strongly coupled oracle n_steps from the initial state, stepping on
    levels as ``run`` does; the callback and the return get bare states with read-only
    arrays."""
    state, step_sources = _start(params, mesh, ops, initial), sources.assemble(ops)
    system = _monolithic_system(ops)
    for _ in range(params.n_steps):
        state = _level(ops, monolithic_step(ops, state, step_sources, system))
        if callback is not None:
            callback(replace(state, products=None))
    return replace(state, products=None)
