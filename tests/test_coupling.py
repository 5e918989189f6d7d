"""Tests for the splitting stepper, energy ledger, and the coupled oracle.

The solid and fluid solves are checked against dense reference systems
assembled from scratch in this file (explicit per-triangle loops), so the
sparse assembly and the stepper share no code with the oracle.
"""

import gc
import hashlib
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    solid_step,
)


# --- dense reference assembly (independent of rrsplit.fem internals) ---------


def dense_subdomain(mesh, sub):
    tris = mesh.triangles_f if sub == "f" else mesh.triangles_s
    dof = fem.build_dofmap(mesh, sub)
    nd = dof.n_dofs
    M = np.zeros((nd, nd))
    K = np.zeros((nd, nd))
    for tri in tris:
        p = mesh.nodes[tri]
        area = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                      - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        Me = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
        c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
        Ke = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
        for i in range(3):
            di = dof.node_to_dof[tri[i]]
            if di < 0:
                continue
            for j in range(3):
                dj = dof.node_to_dof[tri[j]]
                if dj >= 0:
                    M[di, dj] += Me[i, j]
                    K[di, dj] += Ke[i, j]
    return dof, M, K


def dense_interface(mesh):
    pts = mesh.nodes[mesh.interface_nodes]
    n = pts.shape[0]
    Mi = np.zeros((n, n))
    for k in range(n - 1):
        L = np.linalg.norm(pts[k + 1] - pts[k])
        Mi[k:k + 2, k:k + 2] += L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return Mi


def dense_trace(dof, n_if):
    R = np.zeros((n_if, dof.n_dofs))
    for k, d in enumerate(dof.interface_dofs):
        if d >= 0:
            R[k, d] = 1.0
    return R


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
            assert np.abs(got - ref).max() <= 1e-13 * size, (times, dof.subdomain)

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_solid_step(self, k):
        params = SchemeParams(k=k, dt=0.1, alpha=1.7, nu_f=0.8, nu_s=1.3, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        w1, q1 = solid_step(ops, state, self.sources.assemble(ops)(t1))

        dof_s, M_s, K_s = dense_subdomain(self.mesh, "s")
        dof_f, M_f, K_f = dense_subdomain(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        R_s = dense_trace(dof_s, Mi.shape[0])
        R_f = dense_trace(dof_f, Mi.shape[0])
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        gN = self.sources.g_N(xs, ys, t1)
        a, dt, nus = params.alpha, params.dt, params.nu_s
        u_tr = R_f @ state.u
        robin = Mi @ (a * (u_tr + gD) - state.lam + gN)
        if k == 1:
            A = M_s / dt + nus * K_s + a * R_s.T @ Mi @ R_s
            rhs = M_s @ state.w / dt + R_s.T @ robin
        else:
            A = 2.0 * M_s / dt**2 + 0.5 * nus * K_s + (a / dt) * R_s.T @ Mi @ R_s
            rhs = (2.0 / dt**2) * M_s @ state.w
            rhs += (2.0 / dt) * M_s @ state.q
            rhs -= 0.5 * nus * K_s @ state.w
            rhs += R_s.T @ ((a / dt) * Mi @ (R_s @ state.w) + robin)
        ref = np.linalg.solve(A, rhs)
        assert np.abs(w1 - ref).max() < 1e-12
        if k == 2:
            ref_q = (2.0 / dt) * (ref - state.w) - state.q
            assert np.abs(q1 - ref_q).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_fluid_step(self, k):
        params = SchemeParams(k=k, dt=0.1, alpha=0.6, nu_f=1.2, nu_s=0.9, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        step_sources = self.sources.assemble(ops)(t1)
        w1, _ = solid_step(ops, state, step_sources)
        u1, lam1 = fluid_step(ops, state, w1, step_sources)

        dof_s, M_s, K_s = dense_subdomain(self.mesh, "s")
        dof_f, M_f, K_f = dense_subdomain(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        R_s = dense_trace(dof_s, Mi.shape[0])
        R_f = dense_trace(dof_f, Mi.shape[0])
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        a, dt = params.alpha, params.dt
        if k == 1:
            w_dot = R_s @ w1
        else:
            w_dot = R_s @ (w1 - state.w) / dt
        A = M_f / dt + params.nu_f * K_f + a * R_f.T @ Mi @ R_f
        rhs = M_f @ state.u / dt
        rhs += R_f.T @ (Mi @ (state.lam + a * (w_dot - gD)))
        ref = np.linalg.solve(A, rhs)
        assert np.abs(u1 - ref).max() < 1e-12
        ref_lam = state.lam - a * (R_f @ ref - w_dot + gD)
        assert np.abs(lam1 - ref_lam).max() < 1e-11

    @pytest.mark.parametrize("k", [1, 2])
    def test_monolithic_step(self, k):
        # the saddle system [[A_s, 0, B_s], [0, A_f, B_f], [c B_s^T, B_f^T, 0]]
        # in (w, u, lam on the nodes with a dof on both sides), solved densely
        params = SchemeParams(k=k, dt=0.1, alpha=1.7, nu_f=0.8, nu_s=1.3, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        new = monolithic_step(ops, state, self.sources.assemble(ops),
                              coupling._monolithic_system(ops))

        dof_s, M_s, K_s = dense_subdomain(self.mesh, "s")
        dof_f, M_f, K_f = dense_subdomain(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        R_s = dense_trace(dof_s, Mi.shape[0])
        R_f = dense_trace(dof_f, Mi.shape[0])
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        gN = self.sources.g_N(xs, ys, t1)
        assert gD[-1] != 0.0  # the endpoint value reaches the constraint through Mi
        dt, nus = params.dt, params.nu_s
        free = np.flatnonzero((dof_s.interface_dofs >= 0) & (dof_f.interface_dofs >= 0))
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
            c = 2.0 / dt
            A_s = 2.0 * M_s / dt**2 + 0.5 * nus * K_s
            rhs_s = (2.0 / dt**2) * M_s @ state.w + (2.0 / dt) * M_s @ state.q
            rhs_s -= 0.5 * nus * K_s @ state.w
            rhs_c = Mi @ (gD + (2.0 / dt) * R_s @ state.w + R_s @ state.q)
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
        sources = SourceData.from_case(case).assemble(ops)
        for _ in range(params.n_steps):
            new = advance(ops, state, sources)
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
        w1, q1 = solid_step(ops, state, SourceData().assemble(ops)(params.dt))
        lhs = 0.5 * (q1 + q0)
        rhs = (w1 - w0) / params.dt
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_k1_q_is_w(self):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        case = get_case("pp_conforming")
        final, _ = run(params, mesh, SourceData.from_case(case), initial_state(case, mesh, ops), ops)
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
        case = get_case("pp_conforming")
        mesh = meshing.uniform_split_mesh(16)
        diffs = []
        for dt in (2**-5, 2**-6, 2**-7):
            params = SchemeParams(k=1, dt=dt, T=0.25)
            ops = CoupledOperators(mesh, params)
            s0 = initial_state(case, mesh, ops)
            src = SourceData.from_case(case)
            loose, _ = run(params, mesh, src, s0, ops)
            strong = run_monolithic(params, mesh, src, s0, ops)
            d = loose.u - strong.u
            diffs.append(float(np.sqrt(d @ (ops.M_f @ d))))
        for a, b in zip(diffs, diffs[1:]):
            assert 1.6 <= a / b <= 2.6

    def test_time_self_convergence_first_order(self):
        # against a tiny-dt reference on a fixed mesh, the implicit stepper is O(dt)
        case = get_case("pp_conforming")
        mesh = meshing.uniform_split_mesh(8)
        src = SourceData.from_case(case)

        def final_u(dt):
            params = SchemeParams(k=1, dt=dt, T=0.25)
            ops = CoupledOperators(mesh, params)
            return run_monolithic(params, mesh, src, initial_state(case, mesh, ops), ops), ops

        (ref, ops) = final_u(2**-9)
        errs = []
        for dt in (2**-3, 2**-4, 2**-5):
            cur, _ = final_u(dt)
            d = cur.u - ref.u
            errs.append(float(np.sqrt(d @ (ops.M_f @ d))))
        for a, b in zip(errs, errs[1:]):
            assert 1.7 <= a / b <= 2.4

    def test_k2_monolithic_tracks_exact(self):
        case = get_case("ph_uniform")
        mesh = meshing.uniform_split_mesh(16)
        params = SchemeParams(k=2, dt=2**-4, T=0.25)
        ops = CoupledOperators(mesh, params)
        final = run_monolithic(params, mesh, SourceData.from_case(case),
                               initial_state(case, mesh, ops), ops)
        err = fem.l2_error(ops.dof_f, final.u, case.exact_u, 0.25)
        norm = fem.l2_error(ops.dof_f, np.zeros(ops.dof_f.n_dofs), case.exact_u, 0.25)
        assert err < 0.05 * norm


class TestFactorizations:
    """The Robin LUs and the condensed oracle LU all take the symmetric path."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_robin_lus_pivot_on_the_diagonal(self, k):
        mesh = meshing.slanted_interface_mesh(1)
        ops = CoupledOperators(mesh, SchemeParams(k=k, dt=0.125, alpha=2.0, T=0.25))
        for fact in (ops._solid, ops._fluid):
            np.testing.assert_array_equal(fact._lu.perm_r, fact._lu.perm_c)

    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_lu_pivots_on_the_diagonal(self, k):
        mesh = meshing.uniform_split_mesh(8)
        ops = CoupledOperators(mesh, SchemeParams(k=k, dt=0.125, T=0.25))
        lu = coupling._monolithic_system(ops)[0]._lu
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


class TestSharedDiscretization:
    """Bundles on one mesh share its dt-independent operators; nothing outlives its owner."""

    def test_bundles_on_one_mesh_share_the_mesh_operators(self, monkeypatch):
        assembled = []
        for name in ("assemble_mass", "assemble_stiffness"):
            original = getattr(fem, name)

            def counting(dofmap, *args, _name=name, _original=original):
                assembled.append((_name, dofmap.subdomain))
                return _original(dofmap, *args)

            monkeypatch.setattr(fem, name, counting)
        mesh = meshing.slanted_interface_mesh(1)
        ops1 = CoupledOperators(mesh, SchemeParams(k=1, dt=0.125, T=0.25))
        ops2 = CoupledOperators(mesh, SchemeParams(k=2, dt=0.0625, alpha=3.0, T=0.25))
        for name in ("M_f", "K_f", "M_s", "K_s", "M_if"):
            assert getattr(ops1, name) is getattr(ops2, name)
        assert ops1.dof_f.R is ops2.dof_f.R and ops1.dof_s.R is ops2.dof_s.R
        assert ops1._solid is not ops2._solid and ops1._fluid is not ops2._fluid
        # the bundles keep no step matrices; each oracle system builds its own pair
        assert not {"A_s", "A_f"} & (vars(ops1).keys() | vars(ops2).keys())
        for ops in (ops1, ops2):
            *_, A_s, A_f = coupling._monolithic_system(ops)
            for got, ref in zip((A_s, A_f), ops.step_matrices()):
                assert (got != ref).nnz == 0
        assert sorted(assembled) == [("assemble_mass", "f"), ("assemble_mass", "s"),
                                     ("assemble_stiffness", "f"), ("assemble_stiffness", "s")]

    def test_dropped_mesh_is_freed_without_the_collector(self):
        # a cached DofMap would point back at its mesh; the cycle would outlive the row
        case = get_case("ph_uniform")
        gc.disable()
        try:
            mesh = meshing.uniform_split_mesh(4)
            ref = weakref.ref(mesh)
            params = SchemeParams(k=2, dt=0.125, T=0.25)
            ops = CoupledOperators(mesh, params)
            src = SourceData.from_case(case)
            s0 = initial_state(case, mesh, ops)
            loose, _ = run(params, mesh, src, s0, ops)
            strong = run_monolithic(params, mesh, src, s0, ops)
            fem.l2_error(ops.dof_f, loose.u - strong.u, case.exact_u, 0.25)
            del mesh, ops, s0
            assert ref() is None
        finally:
            gc.enable()

    def test_run_monolithic_drops_the_oracle_factorization(self, monkeypatch):
        made = []
        original = sparse.factorize

        def keeping(A):
            made.append(original(A))
            return made[-1]

        monkeypatch.setattr(sparse, "factorize", keeping)
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        gc.disable()
        try:
            run_monolithic(params, mesh, SourceData(), zero_state(ops), ops)
            assert len(made) == 3
            oracle = weakref.ref(made.pop())
            assert oracle() is None
        finally:
            gc.enable()
        held = [v for v in vars(ops).values() if isinstance(v, sparse.Factorization)]
        assert held == [ops._solid, ops._fluid]


# Fingerprints of the final state, (2-norm, v @ arange(len(v))) per field, and
# the ledger's last Z; recorded before the steppers moved to plain arrays and
# shared step matrices, at dt = 1/16, alpha = 2, with the cases' forcing.
FINGERPRINTS = {
    ("ph_uniform", "run"): {
        "u": (0.0006590975253702779, 0.7982898687632719),
        "w": (0.00025169771123381484, 0.03965756622976508),
        "q": (0.000238973242058553, 0.0364779623783987),
        "lam": (0.00047467688045583166, -0.013860932341090142),
        "Z": 6.0724071373475335e-09,
    },
    ("ph_uniform", "run_monolithic"): {
        "u": (0.0006626729090418432, 0.8036555649959447),
        "w": (0.0002551621379744103, 0.040126102221655),
        "q": (0.0002588455663484942, 0.04087366006800102),
        "lam": (0.0004652897698280185, -0.013601415915837637),
    },
    ("pp_slanted", "run"): {
        "u": (0.0006872972249188207, 1.3402051006137201),
        "w": (0.0006854381478266774, 0.8562880349706163),
        "q": (0.0006854381478266774, 0.8562880349706163),
        "lam": (0.0001637092380718651, 0.00272947914095323),
        "Z": 1.129028638236518e-09,
    },
    ("pp_slanted", "run_monolithic"): {
        "u": (0.0006935054010604847, 1.3525136578411),
        "w": (0.0006935054010604849, 0.8634125970834645),
        "q": (0.0006935054010604849, 0.8634125970834645),
        "lam": (0.00015601308834906955, 0.00224392830428621),
    },
}


@pytest.mark.parametrize("case_name, stepper", sorted(FINGERPRINTS))
def test_final_state_fingerprints(case_name, stepper):
    case = get_case(case_name)
    mesh = (meshing.slanted_interface_mesh(2) if case_name == "pp_slanted"
            else meshing.uniform_split_mesh(16))
    params = SchemeParams(k=case.k, dt=1.0 / 16, alpha=2.0)
    ops = CoupledOperators(mesh, params)
    out = getattr(coupling, stepper)(params, mesh, SourceData.from_case(case),
                                     initial_state(case, mesh, ops), ops)
    final, ledger = out if stepper == "run" else (out, None)
    expected = FINGERPRINTS[case_name, stepper]
    for name in ("u", "w", "q", "lam"):
        v = getattr(final, name)
        got = (np.linalg.norm(v), v @ np.arange(len(v)))
        assert got == pytest.approx(expected[name], rel=1e-12), name
    if ledger is not None:
        assert ledger.Z[-1] == pytest.approx(expected["Z"], rel=1e-12)


# sha256 prefixes of each operator's data, indptr and indices (index arrays cast
# to int64), recorded while the triplet path still built int64 indices
OPERATOR_FINGERPRINTS = {
    ("uniform", 8): {
        "M_f": ("6c623f1c7271cba9", "ee46a0418e395d69", "e8a487236306b79e"),
        "K_f": ("29d3bf1720d034b4", "ee46a0418e395d69", "e8a487236306b79e"),
        "M_s": ("9014ea5d0beb0c77", "e3556e5c4c4c2863", "c61176dadefcb863"),
        "K_s": ("349e2db892a12978", "e3556e5c4c4c2863", "c61176dadefcb863"),
        "M_if": ("41096352a84f87a8", "ed8a5222513e52fe", "d1f874e86e6d80c9"),
        "R_f": ("022451970ff25a1c", "8be4ac08a7e42038", "26d76fc89d5624b9"),
        "R_s": ("022451970ff25a1c", "8be4ac08a7e42038", "81845a01dafa45c9"),
        "Pf": ("09ac88f11d677f2e", "a37cddc35bb52859", "b63f6e015d536ad5"),
    },
    ("uniform", 33): {
        "M_f": ("f2935843ae80e0a4", "eeb8ec74af359f72", "ad9d3f018afaf8a9"),
        "K_f": ("cbdf48a7804e7ca8", "eeb8ec74af359f72", "ad9d3f018afaf8a9"),
        "M_s": ("5e63a143a0d34cb6", "83389779fdc57e03", "a9a194c8cbcb1bbb"),
        "K_s": ("e57c1919659c0899", "83389779fdc57e03", "a9a194c8cbcb1bbb"),
        "M_if": ("5d9b929fec6c7641", "dffd17d1ee917e84", "2fc51078cd5dde7f"),
        "R_f": ("acfc7c36fce590b1", "6d1a9055e913592c", "13cf4a30b5556e19"),
        "R_s": ("acfc7c36fce590b1", "6d1a9055e913592c", "bcc9bcfc670935c6"),
        "Pf": ("e6b8b8a54e4eff0e", "b4d8c759628f1e73", "511ecbd866ac0a20"),
    },
    ("slanted", 1): {
        "M_f": ("d376b3730027ff8f", "387055a39772c8a6", "50126caabe213139"),
        "K_f": ("51a3f6ea6c667a58", "387055a39772c8a6", "50126caabe213139"),
        "M_s": ("9bf7c3c69d2d8bfd", "387055a39772c8a6", "50126caabe213139"),
        "K_s": ("447237d6fe76caaf", "387055a39772c8a6", "50126caabe213139"),
        "M_if": ("1fe1d77f19d37ddc", "ed8a5222513e52fe", "d1f874e86e6d80c9"),
        "R_f": ("022451970ff25a1c", "8be4ac08a7e42038", "37081da55207d0e1"),
        "R_s": ("022451970ff25a1c", "8be4ac08a7e42038", "81845a01dafa45c9"),
        "Pf": ("2ea08de9b8f77f82", "43f1a99a51253ac9", "00bbfd2f180993b5"),
    },
    ("slanted", 3): {
        "M_f": ("cbbb45c3f18ccf54", "e2f66f2c6ea9adb4", "aea25781aa287452"),
        "K_f": ("39a9ba8f3e556512", "e2f66f2c6ea9adb4", "aea25781aa287452"),
        "M_s": ("f696eb111d09661c", "e2f66f2c6ea9adb4", "aea25781aa287452"),
        "K_s": ("1170bc9b50ef2c94", "e2f66f2c6ea9adb4", "aea25781aa287452"),
        "M_if": ("c2d84c5f0e1129a9", "5e1b82d6758b43d8", "76d7ea2abd7fb5fb"),
        "R_f": ("39f2f7deec2496ab", "c5e1c3d02dcdf328", "d39c5c644c0ac7bd"),
        "R_s": ("39f2f7deec2496ab", "c5e1c3d02dcdf328", "3a769b546b52d0c3"),
        "Pf": ("7b2d2921913416cf", "10c7bc34a873a5b5", "838588b5cf3b2509"),
    },
}


@pytest.mark.parametrize("family, size", sorted(OPERATOR_FINGERPRINTS))
def test_operator_fingerprints(family, size):
    mesh = (meshing.uniform_split_mesh(size) if family == "uniform"
            else meshing.slanted_interface_mesh(size))
    ops = CoupledOperators(mesh, SchemeParams(k=1, dt=0.125, T=0.25))
    operators = {"M_f": ops.M_f, "K_f": ops.K_f, "M_s": ops.M_s, "K_s": ops.K_s,
                 "M_if": ops.M_if, "R_f": ops.dof_f.R, "R_s": ops.dof_s.R,
                 "Pf": coupling._monolithic_system(ops)[1]}
    for name, A in operators.items():
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                    for a in (A.data, A.indptr.astype(np.int64), A.indices.astype(np.int64)))
        assert got == OPERATOR_FINGERPRINTS[family, size][name], name
        assert A.indices.dtype == A.indptr.dtype == np.int32, name


def test_operator_assembly_traced_peak():
    # tracemalloc counts numpy's buffers exactly, unlike RSS, which also holds
    # what the allocator kept. The lean triplet path peaks at 2.87 MiB here
    # (bound 3.2 MiB, 11% above it); full-length int64 triplets and their
    # masked copies peak at 4.57 MiB.
    mesh = meshing.uniform_split_mesh(64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        coupling._mesh_operators(mesh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 2**20


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
        with pytest.raises(ValueError):
            SchemeParams(k=1, dt=0.15, T=0.25)

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
        mesh = meshing.uniform_split_mesh(8)
        params = SchemeParams(k=2, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        final, _ = run(params, mesh, SourceData.from_case(case),
                       initial_state(case, mesh, ops), ops)
        err = fem.l2_error(ops.dof_f, final.u, case.exact_u, 0.25)
        assert 1.01e-06 / 3.0 <= err <= 1.01e-06 * 3.0


class TestOutputs:
    def test_checkpoint_dump(self, tmp_path):
        mesh = meshing.uniform_split_mesh(3)
        params = SchemeParams(k=1, dt=0.25, T=0.25)
        ops = CoupledOperators(mesh, params)
        case = get_case("pp_conforming")
        final, _ = run(params, mesh, SourceData.from_case(case),
                       initial_state(case, mesh, ops), ops)
        path = tmp_path / "state.txt"
        coupling.dump_checkpoint(final, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step 1"
        assert [l.split()[0] for l in lines[1:]] == ["u", "w", "q", "lambda"]
        # plain float tokens that read back bit for bit
        for line, vec in zip(lines[1:], (final.u, final.w, final.q, final.lam)):
            assert np.array([float(v) for v in line.split()[1:]]).tobytes() == vec.tobytes()

    def test_energy_csv(self, tmp_path):
        mesh = meshing.uniform_split_mesh(3)
        params = SchemeParams(k=1, dt=0.25, T=0.5)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(0), 1)
        _, ledger = run(params, mesh, SourceData(), state, ops)
        path = tmp_path / "energy.csv"
        coupling.write_energy_csv(ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,Z,S,Z_plus_cumS"
        assert len(lines) == 4  # header + 3 levels
        final = [float(v) for v in lines[-1].split(",")]
        assert final[3] == pytest.approx(ledger.Z[0], rel=1e-12)
