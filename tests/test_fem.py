"""Tests for P1 assembly, trace restriction, and quadrature error norms."""

import math

import numpy as np
import pytest

from rrsplit import fem, meshing
from rrsplit.fem import (
    Field,
    assemble_interface_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_dofmap,
    element_geometry,
    element_mass,
    element_stiffness,
    h1_semi_error,
    interpolate,
    l2_error,
    segment_mass,
    trace_restrict,
)
from rrsplit.sparse import factorize

REF_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_TRI = np.array([[0, 1, 2]])


class TestElementKernels:
    def test_reference_mass(self):
        areas, _ = element_geometry(REF_NODES, REF_TRI)
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        np.testing.assert_allclose(element_mass(areas)[0], expected, rtol=1e-15)

    def test_reference_stiffness(self):
        areas, grads = element_geometry(REF_NODES, REF_TRI)
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(element_stiffness(areas, grads)[0], expected, atol=1e-15)

    def test_load_of_x_on_reference_triangle(self):
        # exact integrals of x * phi_i: (1/24, 1/12, 1/24)
        areas, _ = element_geometry(REF_NODES, REF_TRI)
        pts = np.einsum("qb,tbx->tqx", fem.QUAD_DEG2_BARY, REF_NODES[REF_TRI])
        fvals = pts[..., 0]
        be = areas[:, None] * np.einsum(
            "tq,q,qi->ti", fvals, fem.QUAD_DEG2_W, fem.QUAD_DEG2_BARY
        )
        np.testing.assert_allclose(be[0], [1.0 / 24.0, 1.0 / 12.0, 1.0 / 24.0], rtol=1e-14)


class TestMassMatrix:
    def test_partition_of_unity(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f", include_dirichlet=True)
        M = assemble_mass(mesh, "f", dof)
        ones = np.ones(dof.n_dofs)
        assert (M @ ones) @ ones == pytest.approx(0.75, abs=1e-12)

    def test_row_sums_are_patch_area_thirds(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "s", include_dirichlet=True)
        M = assemble_mass(mesh, "s", dof)
        row_sums = M @ np.ones(dof.n_dofs)
        areas, _ = element_geometry(mesh.nodes, mesh.triangles_s)
        patch = np.zeros(mesh.n_nodes)
        np.add.at(patch, mesh.triangles_s, (areas / 3.0)[:, None])
        np.testing.assert_allclose(row_sums, patch[dof.free_nodes], rtol=1e-13)

    def test_spd_after_elimination(self):
        mesh = meshing.uniform_split_mesh(4)
        M = assemble_mass(mesh, "f")
        w = np.linalg.eigvalsh(M.toarray())
        assert w.min() > 0.0


class TestStiffnessMatrix:
    def test_constants_in_kernel_before_elimination(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f", include_dirichlet=True)
        K = assemble_stiffness(mesh, "f", dof)
        np.testing.assert_allclose(K @ np.ones(dof.n_dofs), 0.0, atol=1e-14)

    def test_patch_test_linear_field(self):
        # v = x: integral of |grad v|^2 equals the subdomain area
        mesh = meshing.uniform_split_mesh(4)
        for sub, area in (("f", 0.75), ("s", 0.25)):
            dof = build_dofmap(mesh, sub, include_dirichlet=True)
            K = assemble_stiffness(mesh, sub, dof)
            v = mesh.nodes[dof.free_nodes, 0]
            assert v @ (K @ v) == pytest.approx(area, rel=1e-12)

    def test_symmetry(self):
        mesh = meshing.uniform_split_mesh(5)
        for sub in ("f", "s"):
            for A in (assemble_mass(mesh, sub), assemble_stiffness(mesh, sub)):
                D = A.toarray()
                assert np.abs(D - D.T).max() <= 1e-14

    def test_galerkin_recovery(self):
        # K x = K interp recovers the interpolant on the free dofs
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        K = assemble_stiffness(mesh, "f", dof)
        target = interpolate(mesh, "f", lambda x, y, t: x * (1 - x) * y, 0.0, dof)
        b = K @ target.coefficients
        x = factorize(K).solve(b)
        np.testing.assert_allclose(x, target.coefficients, atol=1e-10)


class TestInterfaceMass:
    def test_single_segment_block(self):
        h = 0.37
        np.testing.assert_allclose(
            segment_mass(h), (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]]), rtol=1e-15
        )

    def test_two_equal_segments_interior_diagonal(self):
        mesh = meshing.uniform_split_mesh(2)
        M = assemble_interface_mass(mesh)
        assert M[1, 1] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert M[0, 0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert M[0, 1] == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_row_sums_total_interface_length(self):
        mesh = meshing.slanted_interface_mesh(1)
        M = assemble_interface_mass(mesh)
        total = (M @ np.ones(M.shape[1])).sum()
        assert total == pytest.approx(math.sqrt(1.25), abs=1e-12)

    def test_matches_1d_mass_on_unit_interval(self):
        # horizontal interface with n segments is the 1D P1 mass matrix on [0,1]
        n = 6
        mesh = meshing.uniform_split_mesh(n)
        M = assemble_interface_mass(mesh).toarray()
        h = 1.0 / n
        ref = np.zeros((n + 1, n + 1))
        for k in range(n):
            ref[k:k + 2, k:k + 2] += segment_mass(h)
        np.testing.assert_allclose(M, ref, rtol=1e-13)


class TestLoad:
    def test_zero_forcing(self):
        mesh = meshing.uniform_split_mesh(4)
        b = assemble_load(mesh, "f", lambda x, y, t: 0.0 * x, 0.0)
        np.testing.assert_allclose(b, 0.0)

    def test_constant_forcing_equals_mass_row_sums(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f", include_dirichlet=True)
        b = assemble_load(mesh, "f", lambda x, y, t: np.ones_like(x), 0.0, dof)
        M = assemble_mass(mesh, "f", dof)
        np.testing.assert_allclose(b, M @ np.ones(dof.n_dofs), rtol=1e-13)


class TestTraceRestrict:
    def test_constant_field(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        tr = trace_restrict(Field(dof, np.ones(dof.n_dofs)))
        free = dof.interface_dofs >= 0
        np.testing.assert_allclose(tr.coefficients[free], 1.0)
        # interface endpoints sit on the outer boundary and are pinned to zero
        np.testing.assert_allclose(tr.coefficients[~free], 0.0)

    def test_zero_at_interface(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "s")
        field = interpolate(mesh, "s", lambda x, y, t: (y - 0.75) * x, 0.0, dof)
        np.testing.assert_allclose(trace_restrict(field).coefficients, 0.0, atol=1e-15)

    def test_coordinate_field(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        field = interpolate(mesh, "f", lambda x, y, t: x, 0.0, dof)
        xs = mesh.nodes[mesh.interface_nodes, 0]
        free = dof.interface_dofs >= 0
        np.testing.assert_allclose(trace_restrict(field).coefficients[free], xs[free])


class TestErrorNorms:
    def test_own_interpolant_error_is_zero(self):
        mesh = meshing.uniform_split_mesh(4)

        def f(x, y, t):
            return 2.0 * x - 0.5 * y

        dof = build_dofmap(mesh, "f", include_dirichlet=True)
        field = interpolate(mesh, "f", f, 0.0, dof)
        # a linear exact field is reproduced exactly by P1
        assert l2_error(mesh, field, f, 0.0) < 1e-14

    def test_zero_field_against_one(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        zero = Field(dof, np.zeros(dof.n_dofs))
        err = l2_error(mesh, zero, lambda x, y, t: np.ones_like(x), 0.0)
        assert err == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_interpolation_error_second_order(self):
        def f(x, y, t):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        errs = []
        for n in (8, 16):
            mesh = meshing.uniform_split_mesh(n)
            dof = build_dofmap(mesh, "f", include_dirichlet=True)
            errs.append(l2_error(mesh, interpolate(mesh, "f", f, 0.0, dof), f, 0.0))
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_h1_linear_field_exact(self):
        mesh = meshing.uniform_split_mesh(4)
        field = interpolate(mesh, "s", lambda x, y, t: 3.0 * x + y, 0.0,
                            build_dofmap(mesh, "s", include_dirichlet=True))
        err = h1_semi_error(
            mesh, field, lambda x, y, t: (3.0 * np.ones_like(x), np.ones_like(y)), 0.0
        )
        assert err < 1e-13

    def test_h1_zero_field_against_unit_gradient(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "s")
        zero = Field(dof, np.zeros(dof.n_dofs))
        err = h1_semi_error(
            mesh, zero, lambda x, y, t: (np.ones_like(x), np.zeros_like(y)), 0.0
        )
        assert err == pytest.approx(math.sqrt(0.25), rel=1e-12)

    def test_h1_interpolation_error_first_order(self):
        def f(x, y, t):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def grad(x, y, t):
            return (
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            )

        errs = []
        for n in (8, 16):
            mesh = meshing.uniform_split_mesh(n)
            dof = build_dofmap(mesh, "f", include_dirichlet=True)
            errs.append(h1_semi_error(mesh, interpolate(mesh, "f", f, 0.0, dof), grad, 0.0))
        assert 1.6 <= errs[0] / errs[1] <= 2.6


class TestDofMap:
    def test_dirichlet_nodes_have_no_dof(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        assert np.all(dof.node_to_dof[mesh.exterior_dirichlet_f] == -1)

    def test_interface_trace_order_matches_both_sides(self):
        mesh = meshing.uniform_split_mesh(4)
        dof_f = build_dofmap(mesh, "f")
        dof_s = build_dofmap(mesh, "s")
        free_f = dof_f.interface_dofs >= 0
        free_s = dof_s.interface_dofs >= 0
        np.testing.assert_array_equal(free_f, free_s)
        # the same interface node indexes both traces at the same slot
        xs = mesh.nodes[mesh.interface_nodes, 0]
        assert np.all(np.diff(xs) > 0)


def _seed_quad(mesh, subdomain, bary):
    # the per-call formulas the memoized kernels replaced, kept as the reference
    tris = fem.subdomain_triangles(mesh, subdomain)
    areas, grads = element_geometry(mesh.nodes, tris)
    pts = np.einsum("qb,tbx->tqx", bary, mesh.nodes[tris])
    return tris, areas, grads, pts


def _seed_load(mesh, subdomain, f, t, dofmap):
    tris, areas, _, pts = _seed_quad(mesh, subdomain, fem.QUAD_DEG2_BARY)
    fvals = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1], t), dtype=float),
                            pts.shape[:2])
    be = areas[:, None] * np.einsum("tq,q,qi->ti", fvals, fem.QUAD_DEG2_W, fem.QUAD_DEG2_BARY)
    dof = dofmap.node_to_dof[tris]
    keep = dof >= 0
    out = np.zeros(dofmap.n_dofs)
    np.add.at(out, dof[keep], be[keep])
    return out


def _seed_l2(mesh, field, exact, t):
    tris, areas, _, pts = _seed_quad(mesh, field.subdomain, fem.QUAD_DEG4_BARY)
    uh = np.einsum("qb,tb->tq", fem.QUAD_DEG4_BARY, fem.nodal_values(field)[tris])
    ex = np.broadcast_to(np.asarray(exact(pts[..., 0], pts[..., 1], t), dtype=float), uh.shape)
    return math.sqrt(np.einsum("t,q,tq->", areas, fem.QUAD_DEG4_W, (uh - ex) ** 2))


def _seed_h1(mesh, field, exact_gradient, t):
    tris, areas, grads, pts = _seed_quad(mesh, field.subdomain, fem.QUAD_DEG4_BARY)
    gh = np.einsum("tbx,tb->tx", grads, fem.nodal_values(field)[tris])
    gx, gy = exact_gradient(pts[..., 0], pts[..., 1], t)
    val = np.einsum("t,q,tq->", areas, fem.QUAD_DEG4_W,
                    (gh[:, None, 0] - gx) ** 2 + (gh[:, None, 1] - gy) ** 2)
    return math.sqrt(val)


class TestQuadratureMemo:
    @staticmethod
    def _setup(subdomain):
        from rrsplit.cases import get_case

        case = get_case("pp_slanted")
        mesh = meshing.slanted_interface_mesh(3)
        dof = build_dofmap(mesh, subdomain)
        exact, grad, f = ((case.exact_u, case.grad_u, case.f_f) if subdomain == "f"
                          else (case.exact_w, case.grad_w, case.f_s))
        # a discrete field that is not the interpolant, so both norms are nonzero
        field = interpolate(mesh, subdomain, lambda x, y, t: np.sin(3.0 * x) * y, 0.0, dof)
        return mesh, dof, exact, grad, f, field

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_agrees_with_per_call_formulas(self, subdomain):
        mesh, dof, exact, grad, f, field = self._setup(subdomain)
        ref_b = _seed_load(mesh, subdomain, f, 0.2, dof)
        ref_l2 = _seed_l2(mesh, field, exact, 0.2)
        ref_h1 = _seed_h1(mesh, field, grad, 0.2)
        for _ in range(2):  # the first call builds the memo, the second reads it
            b = assemble_load(mesh, subdomain, f, 0.2, dof)
            assert np.abs(b - ref_b).max() <= 1e-14 * np.abs(ref_b).max()
            assert l2_error(mesh, field, exact, 0.2) == pytest.approx(ref_l2, rel=1e-14)
            assert h1_semi_error(mesh, field, grad, 0.2) == pytest.approx(ref_h1, rel=1e-14)

    def test_geometry_built_once_per_subdomain(self, monkeypatch):
        built = []
        original = fem.element_geometry

        def counting(nodes, tris):
            built.append(tris.shape[0])
            return original(nodes, tris)

        monkeypatch.setattr(fem, "element_geometry", counting)
        for sub in ("f", "s"):
            mesh, dof, exact, grad, f, field = self._setup(sub)
            for t in (0.0, 0.1, 0.2):
                assemble_load(mesh, sub, f, t, dof)
                l2_error(mesh, field, exact, t)
                h1_semi_error(mesh, field, grad, t)
            assert built == [fem.subdomain_triangles(mesh, sub).shape[0]]
            built.clear()

    def test_energy_audit_builds_no_memo(self, monkeypatch):
        # the memo is lazy: a run without loads or norms leaves it empty
        from rrsplit import harness

        meshes = []
        original = meshing.uniform_split_mesh

        def capture(n):
            meshes.append(original(n))
            return meshes[-1]

        monkeypatch.setattr(meshing, "uniform_split_mesh", capture)
        harness.energy_audit(k=2, alpha=10.0, dt=2.0**-6, n_steps=4, mesh_n=8)
        assert len(meshes) == 1 and meshes[0]._cache == {}
