"""Tests for the splitting stepper, energy ledger, and the coupled oracle.

The solid and fluid solves are checked against dense reference systems:
mass and stiffness from the per-triangle kernels of ``tests/elements.py``,
interface mass and traces built entry by entry in this file, so the sparse
assembly and the stepper share no code with the reference.
"""

import gc
import hashlib
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from elements import element_assembly
from rrsplit import coupling, fem, meshing, sparse
from rrsplit.cases import CASE_NAMES, get_case
from rrsplit.coupling import (
    CoupledOperators,
    SchemeParams,
    SchemeState,
    SourceData,
    advance,
    energy_S,
    energy_Z,
    fluid_step,
    initial_state,
    monolithic_step,
    run,
    run_monolithic,
    solid_levels,
    solid_step,
)
from runs import case_run, oracle_gap


# --- dense reference assembly (independent of rrsplit.fem internals) ---------


def dense_subdomain(mesh, sub):
    """Dense mass and stiffness of one subdomain, from the element kernels."""
    dof = fem.build_dofmap(mesh, sub)
    return tuple(A.toarray() for A in element_assembly(dof, dof.triangles))


def dense_trace(mesh, sub):
    """The 0/1 map from a subdomain's dofs to the interface nodes, in trace order."""
    dof = fem.build_dofmap(mesh, sub)
    R = np.zeros((mesh.interface_nodes.size, dof.n_dofs))
    for k, d in enumerate(dof.interface_dofs):
        if d >= 0:
            R[k, d] = 1.0
    return R


def dense_interface(mesh):
    pts = mesh.nodes[mesh.interface_nodes]
    n = pts.shape[0]
    Mi = np.zeros((n, n))
    for k in range(n - 1):
        L = np.linalg.norm(pts[k + 1] - pts[k])
        Mi[k:k + 2, k:k + 2] += L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return Mi


def dense_solid_step(mesh, params, state, gD, gN):
    """The solid step in w-form, solved densely: (w^{n+1}, q^{n+1})."""
    M_s, K_s = dense_subdomain(mesh, "s")
    R_s, R_f = dense_trace(mesh, "s"), dense_trace(mesh, "f")
    Mi = dense_interface(mesh)
    a, dt, nus = params.alpha, params.dt, params.nu_s
    robin = Mi @ (a * (R_f @ state.u + gD) - state.lam + gN)
    if params.k == 1:
        A = M_s / dt + nus * K_s + a * R_s.T @ Mi @ R_s
        rhs = M_s @ state.w / dt + R_s.T @ robin
    else:
        A = 2.0 * M_s / dt**2 + 0.5 * nus * K_s + (a / dt) * R_s.T @ Mi @ R_s
        rhs = (2.0 / dt**2) * M_s @ state.w
        rhs += (2.0 / dt) * M_s @ state.q
        rhs -= 0.5 * nus * K_s @ state.w
        rhs += R_s.T @ ((a / dt) * Mi @ (R_s @ state.w) + robin)
    w = np.linalg.solve(A, rhs)
    return w, (w if params.k == 1 else (2.0 / dt) * (w - state.w) - state.q)


def dense_fluid_step(mesh, params, state, w1, gD):
    """The fluid step and interface update for the solid level w1, solved densely: (u, lam)."""
    M_f, K_f = dense_subdomain(mesh, "f")
    R_s, R_f = dense_trace(mesh, "s"), dense_trace(mesh, "f")
    Mi = dense_interface(mesh)
    a, dt = params.alpha, params.dt
    w_dot = R_s @ w1 if params.k == 1 else R_s @ (w1 - state.w) / dt
    A = M_f / dt + params.nu_f * K_f + a * R_f.T @ Mi @ R_f
    rhs = M_f @ state.u / dt
    rhs += R_f.T @ (Mi @ (state.lam + a * (w_dot - gD)))
    u = np.linalg.solve(A, rhs)
    return u, state.lam - a * (R_f @ u - w_dot + gD)


def random_state(ops, rng, k):
    w = rng.standard_normal(ops.dof_s.n_dofs)
    q = w.copy() if k == 1 else rng.standard_normal(ops.dof_s.n_dofs)
    return SchemeState(0, rng.standard_normal(ops.dof_f.n_dofs), w, q,
                       rng.standard_normal(ops.n_if))


def zero_state(ops):
    return SchemeState(0, np.zeros(ops.dof_f.n_dofs), np.zeros(ops.dof_s.n_dofs),
                       np.zeros(ops.dof_s.n_dofs), np.zeros(ops.n_if))


class TestZeroData:
    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_state_stays_zero(self, k):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        final, ledger = run(params, mesh, SourceData(), zero_state(ops), ops)
        assert np.abs(final.u).max() == 0.0
        assert np.abs(final.w).max() == 0.0
        assert np.abs(final.lam).max() == 0.0
        assert ledger.Z == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_monolithic_zero(self, k):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        final = run_monolithic(params, mesh, SourceData(), zero_state(ops), ops)
        assert np.abs(final.u).max() < 1e-14
        assert np.abs(final.w).max() < 1e-14


class TestRateScaledLoads:
    """A run assembles each load once, at t = 0, and scales it by e^{rate t}."""

    def test_forcing_without_its_rate_rejected(self):
        f = get_case("pp_conforming").f_f
        for kwargs in ({"f_f": f}, {"f_s": f}, {"f_f": f, "rate_s": -1.0}):
            with pytest.raises(ValueError, match="needs rate_"):
                SourceData(**kwargs)
        sources = SourceData(f_f=f, rate_f=-1.0)
        with pytest.raises(AttributeError):  # frozen: no forcing can lose its rate later
            sources.f_s = f

    def test_each_side_scales_by_its_own_rate(self):
        # the registry's one case with two rates has f_f = 0, so this takes made-up data
        ops = CoupledOperators(meshing.uniform_split_mesh(4), SchemeParams(k=1, dt=0.25))
        f_f = lambda x, y, t: np.exp(-1.0 * t) * x * (1.0 - x)
        f_s = lambda x, y, t: np.exp(2.0 * t) * y
        sources = SourceData(f_f=f_f, f_s=f_s, rate_f=-1.0, rate_s=2.0).assemble(ops)
        *_, load_s, load_f = sources(0.5)
        for got, ref in ((load_f, fem.assemble_load(ops.dof_f, f_f, 0.5)),
                         (load_s, fem.assemble_load(ops.dof_s, f_s, 0.5))):
            np.testing.assert_allclose(got, ref, rtol=1e-13)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_scaled_loads_match_assembly_at_t(self, name):
        case = get_case(name)
        mesh = (meshing.slanted_interface_mesh(2) if case.geometry.kind == "slanted"
                else meshing.uniform_split_mesh(8))
        dt = 1.0 / 16
        ops = CoupledOperators(mesh, SchemeParams(k=case.k, dt=dt))
        # the solid load's midpoint average follows k: one bundle per k on this mesh
        sources = {k: SourceData.from_case(case).assemble(
            ops if k == case.k else CoupledOperators(mesh, SchemeParams(k=k, dt=dt)))
            for k in (1, 2)}

        def check(got, dof, f, times, exact, rate):
            ref = sum(fem.assemble_load(dof, f, s) for s in times) / len(times)
            # pp_uniform's f_f cancels to rounding: scale by the size of its terms
            size = max(np.abs(ref).max(),
                       abs(rate) * np.abs(fem.assemble_load(dof, exact, times[0])).max())
            assert np.abs(got - ref).max() <= 1e-13 * size, (
                times, dof.triangles is mesh.triangles_f)

        for t in (dt, 0.125, 0.25, 1.0):
            check(sources[case.k](t)[3], ops.dof_f, case.f_f, (t,), case.exact_u,
                  case.rate_u)
            for k, times in ((1, (t,)), (2, (t, t - dt))):  # k = 2: the midpoint average
                check(sources[k](t)[2], ops.dof_s, case.f_s,
                      times, case.exact_w, case.rate_w)


class TestStepsAgainstDenseReference:
    def setup_method(self):
        self.mesh = meshing.uniform_split_mesh(4)
        self.rng = np.random.default_rng(17)
        xs = self.mesh.nodes[self.mesh.interface_nodes, 0]

        def g_D(x, y, t):
            return 0.3 * np.sin(2.0 * x) * (1.0 + t)

        def g_N(x, y, t):
            return -0.2 * x * (1.0 - x) * t

        self.sources = SourceData(g_D=g_D, g_N=g_N)

    def interface_data(self, t):
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        return self.sources.g_D(xs, ys, t), self.sources.g_N(xs, ys, t)

    @pytest.mark.parametrize("k", [1, 2])
    def test_solid_step(self, k):
        params = SchemeParams(k=k, dt=0.1, alpha=1.7, nu_f=0.8, nu_s=1.3, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        v = solid_step(ops, state, self.sources.assemble(ops)(t1), coupling._robin_system(ops))
        w1, q1 = solid_levels(ops, state, v)

        ref, ref_q = dense_solid_step(self.mesh, params, state, *self.interface_data(t1))
        assert np.abs(w1 - ref).max() < 1e-12
        if k == 2:
            assert np.abs(q1 - ref_q).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_fluid_step(self, k):
        params = SchemeParams(k=k, dt=0.1, alpha=0.6, nu_f=1.2, nu_s=0.9, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        step_sources, system = self.sources.assemble(ops)(t1), coupling._robin_system(ops)
        v = solid_step(ops, state, step_sources, system)
        w1, _ = solid_levels(ops, state, v)
        u1, lam1 = fluid_step(ops, state, v, step_sources, system)

        gD, _ = self.interface_data(t1)
        ref, ref_lam = dense_fluid_step(self.mesh, params, state, w1, gD)
        assert np.abs(u1 - ref).max() < 1e-12
        assert np.abs(lam1 - ref_lam).max() < 1e-11

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dt", [2.0**-8, 0.5])
    @pytest.mark.parametrize("alpha, nu_s, nu_f", [(1e3, 1e-2, 1e2), (1e-3, 1e2, 1e-2)])
    def test_steps_at_parameter_corners(self, k, dt, alpha, nu_s, nu_f):
        # entries far from one: each error is bounded relative to the size of its reference
        params = SchemeParams(k=k, dt=dt, alpha=alpha, nu_f=nu_f, nu_s=nu_s, T=dt)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        step_sources, system = self.sources.assemble(ops)(dt), coupling._robin_system(ops)
        v = solid_step(ops, state, step_sources, system)
        w1, q1 = solid_levels(ops, state, v)
        u1, lam1 = fluid_step(ops, state, v, step_sources, system)

        gD, gN = self.interface_data(dt)
        ref_w, ref_q = dense_solid_step(self.mesh, params, state, gD, gN)
        ref_u, ref_lam = dense_fluid_step(self.mesh, params, state, w1, gD)
        for name, got, ref in (("w", w1, ref_w), ("q", q1, ref_q), ("u", u1, ref_u),
                               ("lam", lam1, ref_lam)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("k", [1, 2])
    def test_monolithic_step(self, k):
        # the saddle system [[A_s, 0, B_s], [0, A_f, B_f], [c B_s^T, B_f^T, 0]]
        # in (w, u, lam on the nodes with a dof on both sides), solved densely; its
        # last rows are the coupling R_s v - R_f u = g_D tested with Mi, where the
        # solid's interface velocity is v = w for k = 1 and (w - w^n) / dt for k = 2
        params = SchemeParams(k=k, dt=0.1, alpha=1.7, nu_f=0.8, nu_s=1.3, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        new = monolithic_step(ops, state, self.sources.assemble(ops),
                              coupling._monolithic_system(ops))

        (M_s, K_s), (M_f, K_f) = (dense_subdomain(self.mesh, sub) for sub in "sf")
        R_s, R_f = dense_trace(self.mesh, "s"), dense_trace(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        gN = self.sources.g_N(xs, ys, t1)
        assert gD[-1] != 0.0  # the endpoint value reaches the constraint through Mi
        dt, nus = params.dt, params.nu_s
        free = np.flatnonzero(R_s.any(axis=1) & R_f.any(axis=1))
        B_s = R_s.T @ Mi[:, free]
        B_f = -R_f.T @ Mi[:, free]
        A_f = M_f / dt + params.nu_f * K_f
        rhs_f = M_f @ state.u / dt
        if k == 1:
            c = 1.0
            A_s = M_s / dt + nus * K_s
            rhs_s = M_s @ state.w / dt
            rhs_c = Mi @ gD
        else:
            c = 1.0 / dt
            A_s = 2.0 * M_s / dt**2 + 0.5 * nus * K_s
            rhs_s = (2.0 / dt**2) * M_s @ state.w + (2.0 / dt) * M_s @ state.q
            rhs_s -= 0.5 * nus * K_s @ state.w
            rhs_c = Mi @ (gD + R_s @ state.w / dt)
        rhs_s += R_s.T @ Mi @ gN
        n_s, n_f, n_c = A_s.shape[0], A_f.shape[0], free.size
        A = np.zeros((n_s + n_f + n_c,) * 2)
        A[:n_s, :n_s], A[:n_s, n_s + n_f:] = A_s, B_s
        A[n_s:n_s + n_f, n_s:n_s + n_f], A[n_s:n_s + n_f, n_s + n_f:] = A_f, B_f
        A[n_s + n_f:, :n_s], A[n_s + n_f:, n_s:n_s + n_f] = c * B_s.T, B_f.T
        sol = np.linalg.solve(A, np.concatenate([rhs_s, rhs_f, rhs_c[free]]))
        ref_w, ref_u = sol[:n_s], sol[n_s:n_s + n_f]
        ref_lam = np.zeros(Mi.shape[0])
        ref_lam[free] = sol[n_s + n_f:]
        ref_q = ref_w if k == 1 else (2.0 / dt) * (ref_w - state.w) - state.q
        for got, ref in ((new.w, ref_w), (new.u, ref_u), (new.q, ref_q), (new.lam, ref_lam)):
            assert np.abs(got - ref).max() < 1e-12


class TestSchemeIdentities:
    @pytest.mark.parametrize("k", [1, 2])
    def test_interface_update_identity(self, k):
        # alpha(u - ddt^{k-1} w + g_D) + (lam_next - lam) = 0 at every interface node
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.05, alpha=2.5, T=0.25)
        ops = CoupledOperators(mesh, params)
        case = get_case("ph_uniform" if k == 2 else "pp_uniform")
        state = initial_state(case, mesh, ops)
        sources, system = SourceData.from_case(case).assemble(ops), coupling._robin_system(ops)
        for _ in range(params.n_steps):
            new = advance(ops, state, sources, system)
            t1 = new.step_index * params.dt
            gD = ops.interface_values(case.g_D, t1)
            if k == 1:
                w_dot = fem.trace_restrict(ops.dof_s, new.w)
            else:
                w_dot = (fem.trace_restrict(ops.dof_s, new.w)
                         - fem.trace_restrict(ops.dof_s, state.w)) / params.dt
            defect = params.alpha * (fem.trace_restrict(ops.dof_f, new.u) - w_dot + gD) + (
                new.lam - state.lam
            )
            assert np.abs(defect).max() <= 1e-12
            state = new

    def test_k2_midpoint_relation(self):
        # the midpoint average of q equals the difference quotient of w after the solve
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        w0 = np.zeros(ops.dof_s.n_dofs)
        q0 = fem.interpolate(ops.dof_s, lambda x, y, t: np.ones_like(x), 0.0)
        state = SchemeState(0, np.zeros(ops.dof_f.n_dofs), w0, q0, np.zeros(ops.n_if))
        v = solid_step(ops, state, SourceData().assemble(ops)(params.dt),
                       coupling._robin_system(ops))
        w1, q1 = solid_levels(ops, state, v)
        lhs = 0.5 * (q1 + q0)
        rhs = (w1 - w0) / params.dt
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_k1_q_is_w(self):
        case, mesh = get_case("pp_conforming"), meshing.uniform_split_mesh(4)
        (final, _), _ = case_run(run, case, mesh, 0.125)
        assert final.q is final.w


class TestEnergyLedger:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_random_data(self, k, seed):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.1, alpha=1.0, T=1.0)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(seed), k)
        _, ledger = run(params, mesh, SourceData(), state, ops)
        assert ledger.relative_defect() <= 1e-10
        assert all(s >= -1e-14 for s in ledger.S)

    # derandomized and without an example database: every run draws the same 40 examples
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=st.sampled_from((1, 2)), alpha_exp=st.floats(-3.0, 3.0),
           nu_f_exp=st.floats(-2.0, 2.0), nu_s_exp=st.floats(-2.0, 2.0), j=st.integers(1, 6),
           mesh=st.sampled_from((("uniform", 4), ("uniform", 6), ("uniform", 8),
                                 ("slanted", 0), ("slanted", 1))),
           seed=st.integers(0, 2**32 - 1))
    def test_identity_over_parameters(self, k, alpha_exp, nu_f_exp, nu_s_exp, j, mesh, seed):
        # the zero-source balance Z^N + sum S = Z^0 with S >= 0, beyond criterion 1's grid
        family, size = mesh
        mesh = (meshing.uniform_split_mesh(size) if family == "uniform"
                else meshing.slanted_interface_mesh(size))
        dt = 2.0**-j
        params = SchemeParams(k=k, dt=dt, alpha=10.0**alpha_exp, nu_f=10.0**nu_f_exp,
                              nu_s=10.0**nu_s_exp, T=8 * dt)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(seed), k)
        _, ledger = run(params, mesh, SourceData(), state, ops)
        assert ledger.relative_defect() <= 1e-10
        assert min(ledger.S) >= -1e-14 * ledger.Z[0]

    def test_zero_state_energy(self):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.25, T=0.25)
        ops = CoupledOperators(mesh, params)
        assert energy_Z(ops, zero_state(ops)) == 0.0

    def test_k1_has_no_gradient_storage(self):
        # the stored energy for k=1 carries no stiffness term
        mesh = meshing.uniform_split_mesh(4)
        ops1 = CoupledOperators(mesh, SchemeParams(k=1, dt=0.1, T=0.1))
        ops2 = CoupledOperators(mesh, SchemeParams(k=2, dt=0.1, T=0.1))
        w = fem.interpolate(ops1.dof_s, lambda x, y, t: x * (1 - x), 0.0)
        zf = np.zeros(ops1.dof_f.n_dofs)
        zq = np.zeros(ops1.dof_s.n_dofs)
        lam = np.zeros(ops1.n_if)
        z1 = energy_Z(ops1, SchemeState(0, zf, w, zq, lam))
        z2 = energy_Z(ops2, SchemeState(0, zf, w, zq, lam))
        assert z1 == 0.0
        assert z2 > 0.0

    def test_identity_twenty_random_trials(self):
        mesh = meshing.uniform_split_mesh(4)
        for k in (1, 2):
            params = SchemeParams(k=k, dt=0.1, alpha=1.0, T=0.5)
            ops = CoupledOperators(mesh, params)
            for seed in range(10):
                state = random_state(ops, np.random.default_rng(100 + seed), k)
                _, ledger = run(params, mesh, SourceData(), state, ops)
                assert ledger.relative_defect() <= 1e-10

    @pytest.mark.parametrize("dt", [0.5, 0.1, 0.01])
    def test_unconditional_decay(self, dt):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=dt, alpha=1.0, T=10 * dt)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(8), 2)
        _, ledger = run(params, mesh, SourceData(), state, ops)
        z0 = ledger.Z[0]
        assert all(z <= z0 * (1.0 + 1e-12) for z in ledger.Z)


class TestInitialData:
    def test_lambda0_zero_case(self):
        mesh = meshing.uniform_split_mesh(4)
        ops = CoupledOperators(mesh, SchemeParams(k=2, dt=0.25, T=0.25))
        zero_case = get_case("ph_uniform")
        zero_case.exact_l = lambda x, y, t: 0.0 * x
        assert np.abs(initial_state(zero_case, mesh, ops).lam).max() == 0.0

    def test_lambda0_ph_uniform_formula(self):
        mesh = meshing.uniform_split_mesh(4)
        ops = CoupledOperators(mesh, SchemeParams(k=2, dt=0.25, T=0.25))
        lam0 = initial_state(get_case("ph_uniform"), mesh, ops).lam
        xs, ys = mesh.nodes[mesh.interface_nodes].T
        np.testing.assert_allclose(lam0, 1e-3 * xs * (1 - xs) * (1 - 2 * ys), rtol=1e-14)

    @pytest.mark.parametrize("change", [{"k": 2}, {"nu_f": 5.0}, {"nu_s": 0.5}])
    def test_rejects_ops_for_another_k_or_coefficients(self, change):
        # the case's data were synthesized for its own k, nu_f and nu_s
        mesh = meshing.uniform_split_mesh(8)
        ops = CoupledOperators(mesh, SchemeParams(**{"k": 1, "dt": 0.125, **change}))
        with pytest.raises(ValueError, match=r"case pp_conforming has \(k, nu_f, nu_s\) = "
                           r"\(1, 1\.0, 1\.0\), ops have"):
            initial_state(get_case("pp_conforming"), mesh, ops)

    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    def test_k1_rejects_mismatched_q0(self, stepper):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.25, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = zero_state(ops)
        state.q = np.ones(ops.dof_s.n_dofs)
        with pytest.raises(ValueError):
            getattr(coupling, stepper)(params, mesh, SourceData(), state, ops)


class TestMonolithic:
    def test_difference_to_splitting_halves(self):
        case, mesh = get_case("pp_conforming"), meshing.uniform_split_mesh(16)
        diffs = [oracle_gap(case, mesh, dt) for dt in (2**-5, 2**-6, 2**-7)]
        for a, b in zip(diffs, diffs[1:]):
            assert 1.6 <= a / b <= 2.6

    def test_time_self_convergence_first_order(self):
        # against a tiny-dt reference on a fixed mesh, the implicit stepper is O(dt)
        case, mesh = get_case("pp_conforming"), meshing.uniform_split_mesh(8)
        ref, ops = case_run(run_monolithic, case, mesh, 2**-9)
        errs = []
        for dt in (2**-3, 2**-4, 2**-5):
            d = case_run(run_monolithic, case, mesh, dt)[0].u - ref.u
            errs.append(float(np.sqrt(d @ (ops.M_f @ d))))
        for a, b in zip(errs, errs[1:]):
            assert 1.7 <= a / b <= 2.4

    def test_k2_monolithic_tracks_exact(self):
        case = get_case("ph_uniform")
        final, ops = case_run(run_monolithic, case, meshing.uniform_split_mesh(16), 2**-4)
        err = fem.l2_error(ops.dof_f, final.u, case.exact_u, 0.25)
        norm = fem.l2_error(ops.dof_f, np.zeros(ops.dof_f.n_dofs), case.exact_u, 0.25)
        assert err < 0.05 * norm

    @pytest.mark.parametrize("name", ["pp_conforming", "ph_uniform", "pp_slanted"])
    def test_oracle_reads_no_alpha(self, name):
        # the strongly coupled step has no Robin term, so one oracle run serves an alpha sweep
        case = get_case(name, nu_f=2.0, nu_s=0.5)
        mesh = (meshing.slanted_interface_mesh(1) if case.geometry.kind == "slanted"
                else meshing.uniform_split_mesh(8))
        finals = []
        for alpha in (0.1, 1.0, 100.0):
            final, _ = case_run(run_monolithic, case, mesh, 2**-3, alpha=alpha)
            finals.append([a.tobytes() for a in (final.u, final.w, final.q, final.lam)])
        assert finals[0] == finals[1] == finals[2]


class TestOracleLimit:
    """The oracle is the strongly coupled limit of the splitting, for both k."""

    # g_D zero, then nonzero, at the two interface endpoints, which carry no dof.
    # Where g_D is nonzero there, the splitting moves the nodal lam at the endpoints
    # by -alpha g_D per iterate, so lam itself has no fixed point; the drift lies in
    # the null space of R_s^T M_if and R_f^T M_if, so u, w, q and R_s^T M_if lam
    # still converge to the oracle step
    G_D = {"zero": lambda x, y, t: 0.3 * np.sin(np.pi * x) * (1.0 + t),
           "nonzero": lambda x, y, t: (0.3 + np.sin(2.0 * x)) * (1.0 + t)}

    @staticmethod
    def sources(g_D):
        # made-up data: the registry cases have g_D = 0 at their default coefficients
        return SourceData(g_D=g_D, g_N=lambda x, y, t: -0.2 * x * (1.0 - x) * t,
                          f_f=lambda x, y, t: np.exp(-t) * x * y, rate_f=-1.0,
                          f_s=lambda x, y, t: np.exp(0.5 * t) * (1.0 - y), rate_s=0.5)

    def test_sub_iteration_fixed_point_is_the_oracle_step(self):
        # iterate one step's solid and fluid solves, each taking its Robin data (u, lam)
        # from the last iterate and its history from state n; the multiplier is compared
        # as the functional R_s^T M_if lam, which is all the solid rows fix
        worst, iterations = {}, {}
        for g_name, g_D in self.G_D.items():
            worst[g_name], iterations[g_name] = 0.0, []
            for k in (1, 2):
                for mesh in (meshing.uniform_split_mesh(8), meshing.slanted_interface_mesh(1)):
                    for alpha in (1.0, 10.0):
                        gap, it = self.fixed_point_gap(k, mesh, alpha, g_D)
                        worst[g_name] = max(worst[g_name], gap)
                        iterations[g_name].append(it)
        print("oracle-limit: sub-iteration fixed point within "
              + " and ".join(f"{worst[g]:.1e} (g_D {g} at the endpoints)" for g in worst)
              + " relative of the oracle step after "
              + " and ".join("/".join(map(str, iterations[g])) for g in iterations)
              + " iterations (k = 1, 2; uniform 8, slanted 1; alpha = 1, 10)")

    def fixed_point_gap(self, k, mesh, alpha, g_D):
        """The largest relative gap of the fixed point to the oracle step, over u, w, q
        and R_s^T M_if lam, and the number of iterations to reach it."""
        params = SchemeParams(k=k, dt=0.1, alpha=alpha, nu_f=0.8, nu_s=1.3, T=0.1)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(5), k)
        sources = self.sources(g_D).assemble(ops)
        step_sources, system = sources(params.dt), coupling._robin_system(ops)
        u, lam = state.u, state.lam
        for it in range(1, 3001):
            v = solid_step(ops, replace(state, u=u, lam=lam), step_sources, system)
            u_next, lam = fluid_step(ops, replace(state, lam=lam), v, step_sources, system)
            converged = np.abs(u_next - u).max() <= 1e-14 * np.abs(u_next).max()
            u = u_next
            if converged:
                break
        assert converged, (k, alpha)
        ref = monolithic_step(ops, state, sources, coupling._monolithic_system(ops))
        w1, q1 = solid_levels(ops, state, v)
        RM = ops.dof_s.R.T @ ops.M_if
        worst = 0.0
        for name, got, want in (("u", u, ref.u), ("w", w1, ref.w), ("q", q1, ref.q),
                                ("lam", RM @ lam, RM @ ref.lam)):
            gap = np.abs(got - want).max() / np.abs(want).max()
            assert gap <= 1e-10, (k, alpha, name, gap)
            worst = max(worst, gap)
        return worst, it

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mesh", [("uniform", 8), ("slanted", 1)])
    def test_zero_source_energy_balance(self, k, mesh):
        # Z_o^n + sum S_o = Z_o^0, with Z_o and S_o the ledger's Z and S without their
        # interface terms: the oracle's coupling does no work on the interface
        family, size = mesh
        mesh = (meshing.uniform_split_mesh(size) if family == "uniform"
                else meshing.slanted_interface_mesh(size))
        params = SchemeParams(k=k, dt=0.1, alpha=1.7, nu_f=0.8, nu_s=1.3, T=0.5)
        ops = CoupledOperators(mesh, params)
        levels = [random_state(ops, np.random.default_rng(3), k)]
        run_monolithic(params, mesh, SourceData(), levels[0], ops, callback=levels.append)

        def quad(A, x):
            return float(x @ (A @ x))

        def stored(s):
            z = 0.5 * quad(ops.M_s, s.q) + 0.5 * quad(ops.M_f, s.u)
            return z + (0.5 * params.nu_s * quad(ops.K_s, s.w) if k == 2 else 0.0)

        def dissipated(s0, s1):
            d = params.nu_f * params.dt * quad(ops.K_f, s1.u) + 0.5 * quad(ops.M_f, s1.u - s0.u)
            if k == 1:
                d += params.nu_s * params.dt * quad(ops.K_s, s1.w)
                d += 0.5 * quad(ops.M_s, s1.q - s0.q)
            return d

        ledger = coupling.EnergyLedger(Z=[stored(s) for s in levels],
                                       S=[dissipated(*pair) for pair in zip(levels, levels[1:])])
        assert len(ledger.S) == params.n_steps
        assert ledger.relative_defect() <= 1e-12


class TestSharedProducts:
    """A level's products are formed once, and the states a run hands out are read-only."""

    @staticmethod
    def products_per_step(stepper, k):
        count = [0]

        class Counting(sp.csr_array):
            # counts its products with a vector while square: the full-size ones, not
            # those of a slice of its rows; its scaled copies and sums, such as the
            # step matrices, are Counting too
            def _matmul_vector(self, other):
                count[0] += self.shape[0] == self.shape[1]
                return super()._matmul_vector(other)

        # mesh 16: its step matrices have rows off the interface band, so a slice of
        # their interface rows is not full-size
        mesh = meshing.uniform_split_mesh(16)
        params = SchemeParams(k=k, dt=0.125, alpha=1.7, T=0.5)
        ops = CoupledOperators(mesh, params)
        for name in ("M_f", "K_f", "M_s", "K_s"):
            setattr(ops, name, Counting(getattr(ops, name)))
        marks = []
        stepper(params, mesh, SourceData(), random_state(ops, np.random.default_rng(4), k),
                ops, callback=lambda state: marks.append(count[0]))
        per_step = set(np.diff(marks).tolist())
        assert len(per_step) == 1, per_step
        return per_step.pop()

    def test_products_per_step(self):
        # splitting: the step reads M_f u, M_s q and K_s w of its level, the ledger adds
        # K_f u' and M_f (u' - u) (and K_s w', M_s (q' - q) for k = 1), and the new
        # level's products are formed once; the oracle forms its level's products and
        # reads only interface rows of its step matrices
        got = {(stepper.__name__, k): self.products_per_step(stepper, k)
               for stepper in (run, run_monolithic) for k in (1, 2)}
        print(f"step-products: full-size matvecs per step: splitting {got['run', 1]} (k = 1), "
              f"{got['run', 2]} (k = 2); oracle {got['run_monolithic', 1]} (k = 1), "
              f"{got['run_monolithic', 2]} (k = 2)")
        assert got == {("run", 1): 6, ("run", 2): 5,
                       ("run_monolithic", 1): 2, ("run_monolithic", 2): 3}

    @staticmethod
    def collected_run(stepper, k, forced):
        """(ops, sources, start, the stepper's return, the states its callback got)."""
        mesh = meshing.uniform_split_mesh(8)
        if forced:
            case = get_case("pp_conforming" if k == 1 else "ph_uniform")
            params = SchemeParams(k=k, dt=0.0625, alpha=2.0, T=0.25)
            ops = CoupledOperators(mesh, params)
            sources, start = SourceData.from_case(case), initial_state(case, mesh, ops)
        else:
            params = SchemeParams(k=k, dt=0.0625, alpha=2.0, nu_f=0.8, nu_s=1.3, T=0.25)
            ops = CoupledOperators(mesh, params)
            sources, start = SourceData(), random_state(ops, np.random.default_rng(6), k)
        levels = [start]
        out = stepper(params, mesh, sources, start, ops, callback=levels.append)
        final = out[0] if stepper is run else out
        assert all(s.products is None for s in levels + [final])
        assert all(getattr(final, name) is getattr(levels[-1], name)
                   for name in ("u", "w", "q", "lam"))
        return ops, sources, start, out, levels

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("forced", [False, True])
    def test_ledger_is_the_energies_of_bare_states(self, k, forced):
        ops, _, _, (_, ledger), levels = self.collected_run(run, k, forced)
        assert ledger.Z == [energy_Z(ops, s) for s in levels]
        assert ledger.S == [energy_S(ops, s0, s1) for s0, s1 in zip(levels, levels[1:])]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("forced", [False, True])
    def test_oracle_levels_are_its_steps_of_bare_states(self, k, forced):
        ops, sources, state, _, levels = self.collected_run(run_monolithic, k, forced)
        step_sources, system = sources.assemble(ops), coupling._monolithic_system(ops)
        for level in levels[1:]:
            state = monolithic_step(ops, state, step_sources, system)
            assert state.step_index == level.step_index
            for name in ("u", "w", "q", "lam"):
                assert getattr(level, name).tobytes() == getattr(state, name).tobytes(), name

    @pytest.mark.parametrize("stepper", [run, run_monolithic])
    def test_handed_out_states_are_read_only(self, stepper):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        start = random_state(ops, np.random.default_rng(8), 2)

        def write(state):
            state.u[0] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            stepper(params, mesh, SourceData(), start, ops, callback=write)
        out = stepper(params, mesh, SourceData(), start, ops)
        final = out[0] if stepper is run else out
        names = ("u", "w", "q", "lam")
        assert not any(getattr(final, name).flags.writeable for name in names)
        # the caller's start keeps its own flags
        assert all(getattr(start, name).flags.writeable for name in names)


class TestFactorizations:
    """The Robin LUs and the condensed oracle LU all take the symmetric path."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_robin_lus_pivot_on_the_diagonal(self, k):
        mesh = meshing.slanted_interface_mesh(1)
        ops = CoupledOperators(mesh, SchemeParams(k=k, dt=0.125, alpha=2.0, T=0.25))
        for fact in coupling._robin_system(ops):
            np.testing.assert_array_equal(fact._lu.perm_r, fact._lu.perm_c)

    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_lu_pivots_on_the_diagonal(self, k):
        mesh = meshing.uniform_split_mesh(8)
        ops = CoupledOperators(mesh, SchemeParams(k=k, dt=0.125, T=0.25))
        lu = coupling._monolithic_system(ops)[0]._lu
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)

    @pytest.mark.parametrize("family, size", [("uniform", 8), ("uniform", 33), ("slanted", 1)])
    def test_oracle_numbers_merged_dofs_in_elimination_order(self, family, size):
        # [fluid-only | solid-only | shared interface]: each block keeps its
        # subdomain's (dissection) order, the separator comes last in trace order,
        # and a shared dof is the same mesh node on both sides
        mesh = (meshing.uniform_split_mesh(size) if family == "uniform"
                else meshing.slanted_interface_mesh(size))
        ops = CoupledOperators(mesh, SchemeParams(k=1, dt=0.125, T=0.25))
        _, Pf, Ps, F, *_ = coupling._monolithic_system(ops)
        n_fo, n_so = ops.dof_f.n_dofs - F.size, ops.dof_s.n_dofs - F.size
        n = n_fo + n_so + F.size
        merged_node = np.full(n, -1)
        for P, dof, first in ((Pf, ops.dof_f, 0), (Ps, ops.dof_s, n_fo)):
            assert P.shape == (dof.n_dofs, n)
            np.testing.assert_array_equal(P.data, 1.0)
            np.testing.assert_array_equal(np.diff(P.indptr), 1)  # one merged dof per dof
            to = P.indices
            shared = dof.interface_dofs[F]
            np.testing.assert_array_equal(to[shared], n_fo + n_so + np.arange(F.size))
            own = np.setdiff1d(np.arange(dof.n_dofs), shared)  # increasing
            np.testing.assert_array_equal(to[own], first + np.arange(own.size))
            assert np.all((merged_node[to] == -1) | (merged_node[to] == dof.free_nodes))
            merged_node[to] = dof.free_nodes
        np.testing.assert_array_equal(merged_node[n_fo + n_so:], mesh.interface_nodes[F])
        assert np.unique(merged_node).size == n  # every merged dof is one distinct node


class TestSharedDiscretization:
    """Bundles on one mesh share its dt-independent operators; nothing outlives its owner."""

    def test_bundles_on_one_mesh_share_the_mesh_operators(self, monkeypatch):
        assembled = []
        for name in ("assemble_mass", "assemble_stiffness"):
            original = getattr(fem, name)

            def counting(dofmap, _name=name, _original=original):
                assembled.append((_name, "f" if dofmap.triangles is mesh.triangles_f else "s"))
                return _original(dofmap)

            monkeypatch.setattr(fem, name, counting)
        mesh = meshing.slanted_interface_mesh(1)
        ops1 = CoupledOperators(mesh, SchemeParams(k=1, dt=0.125, T=0.25))
        ops2 = CoupledOperators(mesh, SchemeParams(k=2, dt=0.0625, alpha=3.0, T=0.25))
        for name in ("M_f", "K_f", "M_s", "K_s", "M_if"):
            assert getattr(ops1, name) is getattr(ops2, name)
        assert ops1.dof_f is ops2.dof_f and ops1.dof_s is ops2.dof_s
        # a DofMap references the mesh's arrays: none is copied into it
        assert ops1.dof_f.nodes is mesh.nodes and ops1.dof_s.nodes is mesh.nodes
        assert ops1.dof_f.triangles is mesh.triangles_f
        assert ops1.dof_s.triangles is mesh.triangles_s
        # the bundles keep no step matrices and no LU; each system builds its own pair
        # and keeps the rows of it that the oracle step reads
        assert not {"A_s", "A_f", "_solid", "_fluid"} & (vars(ops1).keys() | vars(ops2).keys())
        for ops in (ops1, ops2):
            *_, I_s, A_s_rows, near, A_f_rows = coupling._monolithic_system(ops)
            A_s, A_f = ops.step_matrices()
            for got, ref in ((A_s_rows, A_s[I_s]), (A_f_rows, A_f[near])):
                assert (got != ref).nnz == 0
            assert np.array_equal(I_s, ops.dof_s.interface_dofs[ops.dof_s.interface_dofs >= 0])
            # A_f times a field on the interface dofs is zero off the kept rows
            jump_f = ops.dof_f.R.T @ np.random.default_rng(2).standard_normal(ops.n_if)
            off = np.ones(ops.dof_f.n_dofs, dtype=bool)
            off[near] = False
            assert not (A_f @ jump_f)[off].any() and off.any()
        assert sorted(assembled) == [("assemble_mass", "f"), ("assemble_mass", "s"),
                                     ("assemble_stiffness", "f"), ("assemble_stiffness", "s")]

    def test_dropped_mesh_is_freed_without_the_collector(self):
        # a cached DofMap holds the mesh's arrays, not the mesh: no cycle keeps it alive
        case = get_case("ph_uniform")
        gc.disable()
        try:
            mesh = meshing.uniform_split_mesh(4)
            ref = weakref.ref(mesh)
            (loose, _), ops = case_run(run, case, mesh, 0.125)
            strong = case_run(run_monolithic, case, mesh, 0.125)[0]
            fem.l2_error(ops.dof_f, loose.u - strong.u, case.exact_u, 0.25)
            del mesh, ops
            assert ref() is None
        finally:
            gc.enable()

    def test_run_monolithic_drops_the_oracle_factorization(self, monkeypatch):
        made = []
        original = sparse.factorize

        def keeping(*args):
            made.append(original(*args))
            return made[-1]

        monkeypatch.setattr(sparse, "factorize", keeping)
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        gc.disable()
        try:
            run_monolithic(params, mesh, SourceData(), zero_state(ops), ops)
            assert len(made) == 1
            oracle = weakref.ref(made.pop())
            assert oracle() is None
        finally:
            gc.enable()
        assert not [v for v in vars(ops).values() if isinstance(v, sparse.Factorization)]

    def test_run_drops_both_robin_factorizations(self, monkeypatch):
        made = []
        original = sparse.factorize

        def watching(*args):
            lu = original(*args)
            made.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(sparse, "factorize", watching)
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        assert not made
        gc.disable()
        try:
            run(params, mesh, SourceData(), zero_state(ops), ops)
            assert len(made) == 2 and all(lu() is None for lu in made)
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [1, 2])
    def test_bundle_holds_no_factorization(self, k, monkeypatch):
        made = []
        monkeypatch.setattr(sparse, "factorize", lambda *args: made.append(args))
        ops = CoupledOperators(meshing.slanted_interface_mesh(1),
                               SchemeParams(k=k, dt=0.125, T=0.25))
        assert not made
        assert not [v for v in vars(ops).values() if isinstance(v, sparse.Factorization)]


# Fingerprints of the final state, (2-norm, v @ ids) per field with ids the node
# of each dof (``free_nodes``; trace order for lam), so that no dof numbering
# moves them, and the ledger's last Z; at dt = 1/16, alpha = 2, with the cases'
# forcing. Recorded with the dofs in node order.
FINGERPRINTS = {
    ("ph_uniform", "run"): {
        "u": (0.0006590975253702767, 1.040594575119935),
        "w": (0.0002516977112338147, 0.3942999336930196),
        "q": (0.0002389732420585516, 0.36986054510154176),
        "lam": (0.0004746768804558321, -0.013860932341090149),
        "Z": 6.072407137347526e-09,
    },
    ("ph_uniform", "run_monolithic"): {
        "u": (0.0006611390987169032, 1.0445293148579895),
        "w": (0.00025654063101068205, 0.40150271205803806),
        "q": (0.00026451359927914315, 0.41775905476368447),
        "lam": (0.0004676938316915351, -0.013673551124766814),
    },
    ("pp_slanted", "run"): {
        "u": (0.0006872972249188198, 1.6754251109327092),
        "w": (0.0006854381478266767, 3.4670433359155997),
        "q": (0.0006854381478266767, 3.4670433359155997),
        "lam": (0.0001637092380718652, 0.0027294791409532186),
        "Z": 1.1290286382365156e-09,
    },
    ("pp_slanted", "run_monolithic"): {
        "u": (0.0006935054010604847, 1.6906108259919117),
        "w": (0.0006935054010604838, 3.5015176374296573),
        "q": (0.0006935054010604838, 3.5015176374296573),
        "lam": (0.00015601308834906633, 0.0022439283042861298),
    },
}


@pytest.mark.parametrize("case_name, stepper", sorted(FINGERPRINTS))
def test_final_state_fingerprints(case_name, stepper):
    case = get_case(case_name)
    mesh = (meshing.slanted_interface_mesh(2) if case_name == "pp_slanted"
            else meshing.uniform_split_mesh(16))
    out, ops = case_run(getattr(coupling, stepper), case, mesh, 1.0 / 16, alpha=2.0)
    final, ledger = out if stepper == "run" else (out, None)
    expected = FINGERPRINTS[case_name, stepper]
    for name, ids in (("u", ops.dof_f.free_nodes), ("w", ops.dof_s.free_nodes),
                      ("q", ops.dof_s.free_nodes), ("lam", np.arange(ops.n_if))):
        v = getattr(final, name)
        got = (np.linalg.norm(v), v @ ids)
        assert got == pytest.approx(expected[name], rel=1e-12), name
    if ledger is not None:
        assert ledger.Z[-1] == pytest.approx(expected["Z"], rel=1e-12)


# sha256 prefixes of each operator's data, indptr and indices (index arrays cast
# to int64), recorded with the dofs numbered in nested-dissection order and mass
# and stiffness summed from blocked sparse products; each of those equals the
# element-block assembly it replaced to 4.5e-16 relative, and K no longer stores
# the exact zeros that assembly kept
OPERATOR_FINGERPRINTS = {
    ("slanted", 1): {
        "M_f": ("04771808b74e6b05", "07ed6b2688e83553", "1f852b98bff61b1c"),
        "K_f": ("04ae0b3687372db0", "891d92b50f6e0622", "eb3258d645a0e2d8"),
        "M_s": ("d0eb3871a25b063f", "992f7cd53ca923ff", "a7e6e3bec20e2d8a"),
        "K_s": ("141fc4dbf0f3c9ca", "1459c8baa549d549", "9e02d5ca3fe5f323"),
        "M_if": ("1fe1d77f19d37ddc", "ed8a5222513e52fe", "d1f874e86e6d80c9"),
        "R_f": ("022451970ff25a1c", "8be4ac08a7e42038", "1796920806c71ec0"),
        "R_s": ("022451970ff25a1c", "8be4ac08a7e42038", "68bdeaeb2159e534"),
        "Pf": ("2ea08de9b8f77f82", "43f1a99a51253ac9", "8b5ec714506e6efe"),
        "Ps": ("2ea08de9b8f77f82", "43f1a99a51253ac9", "121a38f9220324ea"),
    },
    ("slanted", 3): {
        "M_f": ("b87be653bc78d38f", "5be9eefbf21cb8aa", "df6185bcda082f5c"),
        "K_f": ("a9c12bfffe51530f", "a65dc12d65aceb89", "3ade216466fa082d"),
        "M_s": ("23c8a1cf3faa8361", "a2546ad2b6a19387", "b27114dad7f123fd"),
        "K_s": ("9852aae788066075", "a87be4c2ba7504f2", "17499b235f9d8840"),
        "M_if": ("c2d84c5f0e1129a9", "5e1b82d6758b43d8", "76d7ea2abd7fb5fb"),
        "R_f": ("39f2f7deec2496ab", "c5e1c3d02dcdf328", "81a911a574e64e8c"),
        "R_s": ("39f2f7deec2496ab", "c5e1c3d02dcdf328", "30d4e5f985d1162b"),
        "Pf": ("7b2d2921913416cf", "10c7bc34a873a5b5", "984c9e6c3838626f"),
        "Ps": ("7b2d2921913416cf", "10c7bc34a873a5b5", "4c52d3583ea819c3"),
    },
    ("uniform", 8): {
        "M_f": ("40c0a30fae117872", "163a103de4d08380", "f0337c482907409f"),
        "K_f": ("c7d32667f8cd673d", "ba8a7b91e3019693", "3dbaf98f8f5c623a"),
        "M_s": ("426569e8f603a889", "48ce6d1094403564", "895fa40c0d73edf2"),
        "K_s": ("d534e1ac9e820dc7", "0601a2706d667844", "212545e4ff006c61"),
        "M_if": ("41096352a84f87a8", "ed8a5222513e52fe", "d1f874e86e6d80c9"),
        "R_f": ("022451970ff25a1c", "8be4ac08a7e42038", "eb07b8042b93c096"),
        "R_s": ("022451970ff25a1c", "8be4ac08a7e42038", "e930c8a361f6003e"),
        "Pf": ("09ac88f11d677f2e", "a37cddc35bb52859", "616133bbed2e277b"),
        "Ps": ("2536bd3339400327", "4107167d6f03f7cb", "701383bf94000be3"),
    },
    ("uniform", 33): {
        "M_f": ("7fe22a1e694860b5", "f5b6f6205c92958d", "4d8277acb5319741"),
        "K_f": ("f47fc71802ff8953", "535a040b659f1a72", "7db238451ffb287d"),
        "M_s": ("69155c830fb913c6", "dea99bea490a28d0", "837d89c72ee9b77e"),
        "K_s": ("343cf82d0740987d", "5ec935ad2c7df989", "d6129dff02031275"),
        "M_if": ("5d9b929fec6c7641", "dffd17d1ee917e84", "2fc51078cd5dde7f"),
        "R_f": ("acfc7c36fce590b1", "6d1a9055e913592c", "2727d8b29c59c2a3"),
        "R_s": ("acfc7c36fce590b1", "6d1a9055e913592c", "459f69fae6dc4d48"),
        "Pf": ("e6b8b8a54e4eff0e", "b4d8c759628f1e73", "513810b27da06252"),
        "Ps": ("825fae38cced1bd6", "a153ab6c2947c7b7", "24d424e211c9a02b"),
    },
}


@pytest.mark.parametrize("family, size", sorted(OPERATOR_FINGERPRINTS))
def test_operator_fingerprints(family, size):
    mesh = (meshing.uniform_split_mesh(size) if family == "uniform"
            else meshing.slanted_interface_mesh(size))
    ops = CoupledOperators(mesh, SchemeParams(k=1, dt=0.125, T=0.25))
    system = coupling._monolithic_system(ops)
    operators = {"M_f": ops.M_f, "K_f": ops.K_f, "M_s": ops.M_s, "K_s": ops.K_s,
                 "M_if": ops.M_if, "R_f": ops.dof_f.R, "R_s": ops.dof_s.R,
                 "Pf": system[1], "Ps": system[2]}
    for name, A in operators.items():
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                    for a in (A.data, A.indptr.astype(np.int64), A.indices.astype(np.int64)))
        assert got == OPERATOR_FINGERPRINTS[family, size][name], name
        assert A.indices.dtype == A.indptr.dtype == np.int32, name


def operators_traced_peak(n: int) -> float:
    """The traced peak of building uniform mesh n's operators, in MiB.

    tracemalloc counts numpy's buffers exactly, unlike RSS, which also holds
    what the allocator kept.
    """
    mesh = meshing.uniform_split_mesh(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        coupling._mesh_operators(mesh)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_operator_assembly_traced_peak():
    # blocked sparse products peak at 2.50 MiB here (bound 2.8 MiB, 12% above
    # it); element-block triplets peaked at 2.86 MiB, and full-length int64
    # triplets with their masked copies at 4.57 MiB
    assert operators_traced_peak(64) < 2.8


def test_operator_assembly_traced_peak_over_two_blocks():
    # 24576 fluid triangles, so the fluid matrices sum two blocks. Blocked sparse
    # products peak at 7.50 MiB (bound 8.4 MiB, 12% above it); element blocks over
    # the whole subdomain peaked at 11.55 MiB.
    peak = operators_traced_peak(128)
    print(f"setup-memory: operators of uniform mesh 128 peak at {peak:.2f} MiB traced "
          "(bound 8.4 MiB)")
    assert peak < 8.4


@pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
def test_interface_data_evaluated_once_per_step(stepper):
    mesh = meshing.uniform_split_mesh(4)
    params = SchemeParams(k=1, dt=0.0625, T=0.25)
    ops = CoupledOperators(mesh, params)
    calls = {"g_D": 0, "g_N": 0}

    def counting(name, scale):
        def g(x, y, t):
            calls[name] += 1
            return scale * x * (1.0 - x) * (1.0 + t)
        return g

    sources = SourceData(g_D=counting("g_D", 0.3), g_N=counting("g_N", -0.2))
    getattr(coupling, stepper)(params, mesh, sources, zero_state(ops), ops)
    assert calls == {"g_D": params.n_steps, "g_N": params.n_steps}


class TestNonFiniteGuard:
    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    def test_nan_forcing_names_step_and_field(self, stepper):
        case = get_case("pp_conforming")
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.0625, T=0.25)
        ops = CoupledOperators(mesh, params)
        g_D = case.g_D

        def nan_from_t(x, y, t):  # NaN from the third step on
            return g_D(x, y, t) + (np.nan if t > 0.15 else 0.0)

        sources = replace(SourceData.from_case(case), g_D=nan_from_t)
        run_fn = getattr(coupling, stepper)
        with pytest.raises(FloatingPointError, match="non-finite u at step 3"):
            run_fn(params, mesh, sources, initial_state(case, mesh, ops), ops)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    @pytest.mark.parametrize("field", ["u", "w", "q", "lam"])
    def test_non_finite_start_names_step_0(self, k, stepper, field):
        # checked before anything reads the start: the k = 1 q0 = w0 test, the ledger's Z^0
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.0625, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(5), k)
        getattr(state, field)[1] = np.inf if field == "lam" else np.nan
        with pytest.raises(FloatingPointError, match=f"non-finite {field} at step 0"):
            getattr(coupling, stepper)(params, mesh, SourceData(), state, ops)

    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    @pytest.mark.parametrize("field", ["u", "w", "q", "lam"])
    def test_start_of_wrong_length_names_field_and_shapes(self, stepper, field):
        # one entry too many: unchecked, the oracle ran on and run failed inside scipy
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=0.0625, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(5), 2)
        n = getattr(state, field).size
        setattr(state, field, np.append(getattr(state, field), 0.0))
        with pytest.raises(ValueError, match=rf"start {field} has shape \({n + 1},\), "
                                             rf"expected \({n},\)"):
            getattr(coupling, stepper)(params, mesh, SourceData(), state, ops)

    @pytest.mark.parametrize("k", [1, 2])
    def test_energy_overflow_names_its_step(self, k):
        # a finite start whose stored energy overflows to inf, checked without a warning
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.0625, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(5), k)
        state.lam[:] *= 1e160
        with pytest.raises(FloatingPointError, match="non-finite energy at step 0"):
            coupling.run(params, mesh, SourceData(), state, ops)


class TestMismatchedOperators:
    """The steppers take ops built by the caller and refuse a bundle of another run."""

    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    def test_ops_of_another_step_or_mesh_rejected(self, stepper):
        case = get_case("pp_conforming")
        mesh = meshing.uniform_split_mesh(4)
        ops = CoupledOperators(mesh, SchemeParams(k=1, dt=0.25, T=0.25))
        s0, sources = initial_state(case, mesh, ops), SourceData.from_case(case)
        run_fn = getattr(coupling, stepper)
        # the dt = 1/4 Robin LUs would step dt = 1/16 without an error, to the wrong answer
        with pytest.raises(ValueError, match="ops were built for"):
            run_fn(SchemeParams(k=1, dt=1.0 / 16, T=0.25), mesh, sources, s0, ops)
        with pytest.raises(ValueError, match="another mesh"):
            run_fn(ops.params, meshing.uniform_split_mesh(4), sources, s0, ops)

    def test_initial_state_rejects_ops_of_another_mesh(self):
        ops = CoupledOperators(meshing.uniform_split_mesh(4), SchemeParams(k=1, dt=0.25))
        with pytest.raises(ValueError, match="another mesh"):
            initial_state(get_case("pp_conforming"), meshing.uniform_split_mesh(4), ops)


class TestParams:
    def test_k_validated(self):
        with pytest.raises(ValueError):
            SchemeParams(k=3, dt=0.1, T=0.2)

    def test_T_must_divide(self):
        # the mismatch counts relative to dt, and a run takes at least one step
        for dt, T in ((0.15, 0.25), (0.5, 1e-13), (2.0**-40, 3 * 2.0**-40 + 4e-13)):
            with pytest.raises(ValueError, match="positive integer multiple"):
                SchemeParams(k=1, dt=dt, T=T)

    def test_overflowing_step_count_rejected(self):
        # T / dt overflows to inf, which round() cannot take
        for dt, T in ((0.25, 1e308), (1e-300, 1e10)):
            with pytest.raises(ValueError, match=re.escape(f"T={T!r} / dt={dt!r} overflows")):
                SchemeParams(k=1, dt=dt, T=T)

    def test_step_count_above_the_bound_rejected(self):
        # a slip in T or dt must not start a run that never ends
        bound = coupling._MAX_STEPS
        assert SchemeParams(k=1, dt=0.25, T=0.25 * bound).n_steps == bound
        for dt, T in ((0.25, 0.25 * (bound + 1)), (0.25, 1e300), (1e-300, 1e-290)):
            with pytest.raises(ValueError, match=re.escape(
                    f"T={T!r} / dt={dt!r} is {T / dt:.6g} steps, above the bound of {bound}")):
                SchemeParams(k=1, dt=dt, T=T)

    def test_positive_parameters(self):
        bad = [{"alpha": -1.0}, {"alpha": math.nan}, {"alpha": math.inf}, {"nu_f": math.nan},
               {"nu_s": -math.inf}, {"dt": math.nan}, {"T": math.inf}, {"T": math.nan}]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SchemeParams(**{"k": 1, "dt": 0.1, "T": 0.2, **kwargs})

    def test_n_steps(self):
        assert SchemeParams(k=1, dt=0.05, T=0.25).n_steps == 5


class TestAgainstReferenceTable:
    def test_k2_error_near_reference_at_eighth(self):
        # reference value 1.01e-06 at dt = 1/8 with h = dt; stay within x3
        case = get_case("ph_uniform")
        (final, _), ops = case_run(run, case, meshing.uniform_split_mesh(8), 0.125)
        err = fem.l2_error(ops.dof_f, final.u, case.exact_u, 0.25)
        assert 1.01e-06 / 3.0 <= err <= 1.01e-06 * 3.0
