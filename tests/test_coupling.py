"""Tests for the splitting stepper, energy ledger, and the coupled oracle.

The solid and fluid solves are checked against dense reference systems
assembled from scratch in this file (explicit per-triangle loops), so the
sparse assembly and the stepper share no code with the oracle.
"""

import numpy as np
import pytest

from rrsplit import coupling, fem, meshing
from rrsplit.cases import get_case
from rrsplit.coupling import (
    CoupledOperators,
    SchemeParams,
    SchemeState,
    SourceData,
    advance,
    avg,
    ddt,
    ddt2,
    energy_S,
    energy_Z,
    fluid_step,
    initial_state,
    lambda0_from_exact,
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
    w = fem.Field(ops.dof_s, rng.standard_normal(ops.dof_s.n_dofs))
    q = w.copy() if k == 1 else fem.Field(ops.dof_s, rng.standard_normal(ops.dof_s.n_dofs))
    return SchemeState(
        0,
        fem.Field(ops.dof_f, rng.standard_normal(ops.dof_f.n_dofs)),
        w,
        q,
        fem.TraceField(rng.standard_normal(ops.n_if)),
    )


class TestDifferenceOperators:
    def test_ddt(self):
        np.testing.assert_allclose(ddt([3.0], [1.0], 0.5), [4.0])

    def test_avg(self):
        np.testing.assert_allclose(avg([3.0], [1.0]), [2.0])

    def test_ddt2(self):
        np.testing.assert_allclose(ddt2([1.0], [0.0], [1.0], 1.0), [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ddt([1.0, 2.0], [1.0], 0.5)


class TestZeroData:
    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_state_stays_zero(self, k):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = SchemeState(
            0,
            fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs)),
            fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs)),
            fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs)),
            fem.TraceField(np.zeros(ops.n_if)),
        )
        final, ledger = run(params, mesh, SourceData.zero(), state, ops)
        assert np.abs(final.u.coefficients).max() == 0.0
        assert np.abs(final.w.coefficients).max() == 0.0
        assert np.abs(final.lam.coefficients).max() == 0.0
        assert ledger.Z == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_monolithic_zero(self, k):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        state = SchemeState(
            0,
            fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs)),
            fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs)),
            fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs)),
            fem.TraceField(np.zeros(ops.n_if)),
        )
        final = run_monolithic(params, mesh, SourceData.zero(), state, ops)
        assert np.abs(final.u.coefficients).max() < 1e-14
        assert np.abs(final.w.coefficients).max() < 1e-14


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
        w1, q1 = solid_step(params, ops, state, self.sources, t1)

        dof_s, M_s, K_s = dense_subdomain(self.mesh, "s")
        dof_f, M_f, K_f = dense_subdomain(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        R_s = dense_trace(dof_s, Mi.shape[0])
        R_f = dense_trace(dof_f, Mi.shape[0])
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        gN = self.sources.g_N(xs, ys, t1)
        a, dt, nus = params.alpha, params.dt, params.nu_s
        u_tr = R_f @ state.u.coefficients
        robin = Mi @ (a * (u_tr + gD) - state.lam.coefficients + gN)
        if k == 1:
            A = M_s / dt + nus * K_s + a * R_s.T @ Mi @ R_s
            rhs = M_s @ state.w.coefficients / dt + R_s.T @ robin
        else:
            A = 2.0 * M_s / dt**2 + 0.5 * nus * K_s + (a / dt) * R_s.T @ Mi @ R_s
            rhs = (2.0 / dt**2) * M_s @ state.w.coefficients
            rhs += (2.0 / dt) * M_s @ state.q.coefficients
            rhs -= 0.5 * nus * K_s @ state.w.coefficients
            rhs += R_s.T @ ((a / dt) * Mi @ (R_s @ state.w.coefficients) + robin)
        ref = np.linalg.solve(A, rhs)
        assert np.abs(w1.coefficients - ref).max() < 1e-12
        if k == 2:
            ref_q = (2.0 / dt) * (ref - state.w.coefficients) - state.q.coefficients
            assert np.abs(q1.coefficients - ref_q).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_fluid_step(self, k):
        params = SchemeParams(k=k, dt=0.1, alpha=0.6, nu_f=1.2, nu_s=0.9, T=0.5)
        ops = CoupledOperators(self.mesh, params)
        state = random_state(ops, self.rng, k)
        t1 = params.dt
        w1, q1 = solid_step(params, ops, state, self.sources, t1)
        u1, lam1 = fluid_step(params, ops, state, w1, q1, self.sources, t1)

        dof_s, M_s, K_s = dense_subdomain(self.mesh, "s")
        dof_f, M_f, K_f = dense_subdomain(self.mesh, "f")
        Mi = dense_interface(self.mesh)
        R_s = dense_trace(dof_s, Mi.shape[0])
        R_f = dense_trace(dof_f, Mi.shape[0])
        xs, ys = self.mesh.nodes[self.mesh.interface_nodes].T
        gD = self.sources.g_D(xs, ys, t1)
        a, dt = params.alpha, params.dt
        if k == 1:
            w_dot = R_s @ w1.coefficients
        else:
            w_dot = R_s @ (w1.coefficients - state.w.coefficients) / dt
        A = M_f / dt + params.nu_f * K_f + a * R_f.T @ Mi @ R_f
        rhs = M_f @ state.u.coefficients / dt
        rhs += R_f.T @ (Mi @ (state.lam.coefficients + a * (w_dot - gD)))
        ref = np.linalg.solve(A, rhs)
        assert np.abs(u1.coefficients - ref).max() < 1e-12
        ref_lam = state.lam.coefficients - a * (R_f @ ref - w_dot + gD)
        assert np.abs(lam1.coefficients - ref_lam).max() < 1e-11


class TestSchemeIdentities:
    @pytest.mark.parametrize("k", [1, 2])
    def test_interface_update_identity(self, k):
        # alpha(u - ddt^{k-1} w + g_D) + (lam_next - lam) = 0 at every interface node
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.05, alpha=2.5, T=0.25)
        ops = CoupledOperators(mesh, params)
        case = get_case("ph_uniform" if k == 2 else "pp_uniform")
        state = initial_state(case, mesh, ops)
        sources = SourceData.from_case(case)
        for _ in range(params.n_steps):
            new = advance(params, ops, state, sources)
            t1 = new.step_index * params.dt
            gD = ops.interface_values(sources.g_D, t1)
            if k == 1:
                w_dot = ops.trace(new.w)
            else:
                w_dot = (ops.trace(new.w) - ops.trace(state.w)) / params.dt
            defect = params.alpha * (ops.trace(new.u) - w_dot + gD) + (
                new.lam.coefficients - state.lam.coefficients
            )
            assert np.abs(defect).max() <= 1e-12
            state = new

    def test_k2_midpoint_relation(self):
        # avg(q1, q0) equals ddt(w1, w0) after the eliminated solve
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        w0 = fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs))
        q0 = fem.interpolate(mesh, "s", lambda x, y, t: np.ones_like(x), 0.0, ops.dof_s)
        state = SchemeState(0, fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs)), w0, q0,
                            fem.TraceField(np.zeros(ops.n_if)))
        w1, q1 = solid_step(params, ops, state, SourceData.zero(), params.dt)
        lhs = avg(q1.coefficients, q0.coefficients)
        rhs = ddt(w1.coefficients, w0.coefficients, params.dt)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_k1_q_is_w(self):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.125, T=0.25)
        ops = CoupledOperators(mesh, params)
        case = get_case("pp_conforming")
        final, _ = run(params, mesh, SourceData.from_case(case), initial_state(case, mesh, ops), ops)
        assert final.q.coefficients is final.w.coefficients


class TestEnergyLedger:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_random_data(self, k, seed):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=k, dt=0.1, alpha=1.0, T=1.0)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(seed), k)
        _, ledger = run(params, mesh, SourceData.zero(), state, ops)
        assert ledger.relative_defect() <= 1e-10
        assert all(s >= -1e-14 for s in ledger.S)

    def test_zero_state_energy(self):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.25, T=0.25)
        ops = CoupledOperators(mesh, params)
        z = fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs))
        zs = fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs))
        state = SchemeState(0, z, zs, zs, fem.TraceField(np.zeros(ops.n_if)))
        assert energy_Z(params, ops, state) == 0.0

    def test_k1_has_no_gradient_storage(self):
        # the stored energy for k=1 carries no stiffness term
        mesh = meshing.uniform_split_mesh(4)
        ops1 = CoupledOperators(mesh, SchemeParams(k=1, dt=0.1, T=0.1))
        ops2 = CoupledOperators(mesh, SchemeParams(k=2, dt=0.1, T=0.1))
        w = fem.interpolate(mesh, "s", lambda x, y, t: x * (1 - x), 0.0, ops1.dof_s)
        zf = fem.Field(ops1.dof_f, np.zeros(ops1.dof_f.n_dofs))
        zq = fem.Field(ops1.dof_s, np.zeros(ops1.dof_s.n_dofs))
        lam = fem.TraceField(np.zeros(ops1.n_if))
        z1 = energy_Z(SchemeParams(k=1, dt=0.1, T=0.1), ops1, SchemeState(0, zf, w, zq, lam))
        z2 = energy_Z(SchemeParams(k=2, dt=0.1, T=0.1), ops2, SchemeState(0, zf, w, zq, lam))
        assert z1 == 0.0
        assert z2 > 0.0

    def test_identity_twenty_random_trials(self):
        mesh = meshing.uniform_split_mesh(4)
        for k in (1, 2):
            params = SchemeParams(k=k, dt=0.1, alpha=1.0, T=0.5)
            ops = CoupledOperators(mesh, params)
            for seed in range(10):
                state = random_state(ops, np.random.default_rng(100 + seed), k)
                _, ledger = run(params, mesh, SourceData.zero(), state, ops)
                assert ledger.relative_defect() <= 1e-10

    @pytest.mark.parametrize("dt", [0.5, 0.1, 0.01])
    def test_unconditional_decay(self, dt):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=2, dt=dt, alpha=1.0, T=10 * dt)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(8), 2)
        _, ledger = run(params, mesh, SourceData.zero(), state, ops)
        z0 = ledger.Z[0]
        assert all(z <= z0 * (1.0 + 1e-12) for z in ledger.Z)


class TestInitialData:
    def test_lambda0_zero_case(self):
        mesh = meshing.uniform_split_mesh(4)
        case = get_case("ph_uniform")
        zero_case = get_case("ph_uniform")
        zero_case.exact_l = lambda x, y, t: 0.0 * x
        assert np.abs(lambda0_from_exact(zero_case, mesh).coefficients).max() == 0.0

    def test_lambda0_ph_uniform_formula(self):
        mesh = meshing.uniform_split_mesh(4)
        lam0 = lambda0_from_exact(get_case("ph_uniform"), mesh)
        xs, ys = mesh.nodes[mesh.interface_nodes].T
        np.testing.assert_allclose(
            lam0.coefficients, 1e-3 * xs * (1 - xs) * (1 - 2 * ys), rtol=1e-14
        )

    def test_k1_rejects_mismatched_q0(self):
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.25, T=0.25)
        ops = CoupledOperators(mesh, params)
        zf = fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs))
        w = fem.Field(ops.dof_s, np.zeros(ops.dof_s.n_dofs))
        q = fem.Field(ops.dof_s, np.ones(ops.dof_s.n_dofs))
        state = SchemeState(0, zf, w, q, fem.TraceField(np.zeros(ops.n_if)))
        with pytest.raises(ValueError):
            run(params, mesh, SourceData.zero(), state, ops)


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
            d = loose.u.coefficients - strong.u.coefficients
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
            d = cur.u.coefficients - ref.u.coefficients
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
        err = fem.l2_error(mesh, final.u, case.exact_u, 0.25)
        norm = fem.l2_error(
            mesh, fem.Field(ops.dof_f, np.zeros(ops.dof_f.n_dofs)), case.exact_u, 0.25
        )
        assert err < 0.05 * norm


class TestNonFiniteGuard:
    @pytest.mark.parametrize("stepper", ["run", "run_monolithic"])
    def test_nan_forcing_names_step_and_field(self, stepper):
        case = get_case("pp_conforming")
        mesh = meshing.uniform_split_mesh(4)
        params = SchemeParams(k=1, dt=0.0625, T=0.25)
        ops = CoupledOperators(mesh, params)
        f_f = case.f_f

        def nan_from_t(x, y, t):  # NaN from the third step on
            return f_f(x, y, t) + (np.nan if t > 0.15 else 0.0)

        sources = SourceData(f_f=nan_from_t, f_s=case.f_s, g_D=case.g_D, g_N=case.g_N)
        run_fn = getattr(coupling, stepper)
        with pytest.raises(FloatingPointError, match="non-finite u at step 3"):
            run_fn(params, mesh, sources, initial_state(case, mesh, ops), ops)


class TestParams:
    def test_k_validated(self):
        with pytest.raises(ValueError):
            SchemeParams(k=3, dt=0.1, T=0.2)

    def test_T_must_divide(self):
        with pytest.raises(ValueError):
            SchemeParams(k=1, dt=0.15, T=0.25)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            SchemeParams(k=1, dt=0.1, alpha=-1.0, T=0.2)

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
        err = fem.l2_error(mesh, final.u, case.exact_u, 0.25)
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

    def test_energy_csv(self, tmp_path):
        mesh = meshing.uniform_split_mesh(3)
        params = SchemeParams(k=1, dt=0.25, T=0.5)
        ops = CoupledOperators(mesh, params)
        state = random_state(ops, np.random.default_rng(0), 1)
        _, ledger = run(params, mesh, SourceData.zero(), state, ops)
        path = tmp_path / "energy.csv"
        coupling.write_energy_csv(ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,Z,S,Z_plus_cumS"
        assert len(lines) == 4  # header + 3 levels
        final = [float(v) for v in lines[-1].split(",")]
        assert final[3] == pytest.approx(ledger.Z[0], rel=1e-12)
