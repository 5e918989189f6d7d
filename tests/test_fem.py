"""Tests for P1 assembly, trace restriction, and quadrature error norms."""

import math
import tracemalloc

import numpy as np
import pytest

from elements import element_geometry, element_mass, element_stiffness
from rrsplit import fem, meshing
from rrsplit.cases import CASE_NAMES, get_case
from rrsplit.fem import (
    assemble_interface_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_dofmap,
    gradient_profile,
    h1_semi_error,
    interpolate,
    l2_error,
    trace_restrict,
)
from rrsplit.sparse import factorize, from_triplets

# the degree-2 side-midpoint load rule, as the reference for the load
QUAD_DEG2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QUAD_DEG2_W = np.full(3, 1.0 / 3.0)
REF_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_TRI = np.array([[0, 1, 2]])


def full_dofmap(mesh, subdomain):
    """A DofMap on every node of the subdomain, exterior Dirichlet nodes included: the
    reference for the full-node mass and stiffness identities."""
    tris = getattr(mesh, "triangles_" + subdomain)
    nodes = np.unique(tris)
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int32)
    node_to_dof[nodes] = np.arange(nodes.size)
    idofs = node_to_dof[mesh.interface_nodes]
    carried = np.flatnonzero(idofs >= 0)
    R = from_triplets(idofs.size, nodes.size, (carried, idofs[carried], np.ones(carried.size)))
    return fem.DofMap(mesh.nodes, tris, node_to_dof, nodes, idofs, R)


def record_geometry(monkeypatch):
    """The triangles of each fem call to signed_areas, through which every area
    and gradient pass goes, in call order."""
    built = []
    original = fem.signed_areas

    def recording(nodes, tris):
        built.append(tris)
        return original(nodes, tris)

    monkeypatch.setattr(fem, "signed_areas", recording)
    return built


def h1_at(dof, field, exact_gradient, t):
    """h1_semi_error against exact_gradient(., t), its profile built at t itself."""
    return h1_semi_error(field, gradient_profile(dof, exact_gradient, t), 1.0)


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
        pts = np.einsum("qb,tbx->tqx", QUAD_DEG2_BARY, REF_NODES[REF_TRI])
        fvals = pts[..., 0]
        be = areas[:, None] * np.einsum(
            "tq,q,qi->ti", fvals, QUAD_DEG2_W, QUAD_DEG2_BARY
        )
        np.testing.assert_allclose(be[0], [1.0 / 24.0, 1.0 / 12.0, 1.0 / 24.0], rtol=1e-14)


class TestMassMatrix:
    def test_partition_of_unity(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = full_dofmap(mesh, "f")
        M = assemble_mass(dof)
        ones = np.ones(dof.n_dofs)
        assert (M @ ones) @ ones == pytest.approx(0.75, abs=1e-12)

    def test_row_sums_are_patch_area_thirds(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = full_dofmap(mesh, "s")
        M = assemble_mass(dof)
        row_sums = M @ np.ones(dof.n_dofs)
        areas = meshing.signed_areas(mesh.nodes, mesh.triangles_s)
        patch = np.zeros(mesh.n_nodes)
        np.add.at(patch, mesh.triangles_s, (areas / 3.0)[:, None])
        np.testing.assert_allclose(row_sums, patch[dof.free_nodes], rtol=1e-13)

    def test_spd_after_elimination(self):
        mesh = meshing.uniform_split_mesh(4)
        M = assemble_mass(build_dofmap(mesh, "f"))
        w = np.linalg.eigvalsh(M.toarray())
        assert w.min() > 0.0


class TestStiffnessMatrix:
    def test_constants_in_kernel_before_elimination(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = full_dofmap(mesh, "f")
        K = assemble_stiffness(dof)
        np.testing.assert_allclose(K @ np.ones(dof.n_dofs), 0.0, atol=1e-14)

    def test_patch_test_linear_field(self):
        # v = x: integral of |grad v|^2 equals the subdomain area
        mesh = meshing.uniform_split_mesh(4)
        for sub, area in (("f", 0.75), ("s", 0.25)):
            dof = full_dofmap(mesh, sub)
            K = assemble_stiffness(dof)
            v = mesh.nodes[dof.free_nodes, 0]
            assert v @ (K @ v) == pytest.approx(area, rel=1e-12)

    def test_symmetry(self):
        mesh = meshing.uniform_split_mesh(5)
        for sub in ("f", "s"):
            dof = build_dofmap(mesh, sub)
            for A in (assemble_mass(dof), assemble_stiffness(dof)):
                D = A.toarray()
                assert np.abs(D - D.T).max() <= 1e-14

    def test_exact_zeros_not_stored(self):
        # a uniform grid's couplings across each cell's diagonal are exactly zero: K
        # leaves them out, while M, and so every step matrix and its LU, keeps them
        mesh = meshing.uniform_split_mesh(8)
        for sub in ("f", "s"):
            dof = build_dofmap(mesh, sub)
            M, K = assemble_mass(dof), assemble_stiffness(dof)
            assert np.all(K.data != 0) and K.nnz < M.nnz
            assert (M + K).nnz == M.nnz

    def test_galerkin_recovery(self):
        # K x = K interp recovers the interpolant on the free dofs
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        K = assemble_stiffness(dof)
        target = interpolate(dof, lambda x, y, t: x * (1 - x) * y, 0.0)
        b = K @ target
        x = factorize(K).solve(b)
        np.testing.assert_allclose(x, target, atol=1e-10)


class TestInterfaceMass:
    def test_single_segment_block(self):
        # the first interface node touches one segment only: its row is (h/6) [2, 1]
        mesh = meshing.slanted_interface_mesh(1)
        pts = mesh.nodes[mesh.interface_nodes]
        h = np.linalg.norm(pts[1] - pts[0])
        M = assemble_interface_mass(mesh)
        np.testing.assert_allclose([M[0, 0], M[0, 1], M[1, 0]], [h / 3.0, h / 6.0, h / 6.0],
                                   rtol=1e-15)
        assert not M.toarray()[0, 2:].any()

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
            ref[k:k + 2, k:k + 2] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(M, ref, rtol=1e-13)


class TestLoad:
    def test_zero_forcing(self):
        mesh = meshing.uniform_split_mesh(4)
        b = assemble_load(build_dofmap(mesh, "f"), lambda x, y, t: 0.0 * x, 0.0)
        np.testing.assert_allclose(b, 0.0)

    def test_constant_forcing_equals_mass_row_sums(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = full_dofmap(mesh, "f")
        b = assemble_load(dof, lambda x, y, t: np.ones_like(x), 0.0)
        M = assemble_mass(dof)
        np.testing.assert_allclose(b, M @ np.ones(dof.n_dofs), rtol=1e-13)


MESHES = {"horizontal": lambda: meshing.uniform_split_mesh(8),
          "slanted": lambda: meshing.slanted_interface_mesh(1)}
# subdomain areas: the horizontal interface is y = 3/4, the slanted one y = x/2 + 1/4
AREAS = {("horizontal", "f"): 0.75, ("horizontal", "s"): 0.25,
         ("slanted", "f"): 0.5, ("slanted", "s"): 0.5}


@pytest.mark.parametrize("family, subdomain", sorted(AREAS))
class TestLoadOperator:
    # the degree-2 rule integrates P1 x P1 exactly, so for P1 forcing the load
    # is the mass matrix applied to the nodal values

    @pytest.mark.parametrize("f", [lambda x, y, t: 1.0,
                                   lambda x, y, t: 0.3 + 2.0 * x - 1.5 * y + t],
                             ids=["scalar_one", "linear"])
    def test_p1_forcing_equals_mass_times_nodal_values(self, family, subdomain, f):
        mesh = MESHES[family]()
        dof = full_dofmap(mesh, subdomain)
        xy = mesh.nodes[dof.free_nodes]
        expected = assemble_mass(dof) @ np.broadcast_to(
            f(xy[:, 0], xy[:, 1], 0.5), (dof.n_dofs,))
        b = assemble_load(dof, f, 0.5)
        assert np.abs(b - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_one_closure_call_per_block_at_each_side_midpoint(self, family, subdomain,
                                                               monkeypatch):
        # loads are assembled once per run, so each triangle evaluates f at its own
        # three side midpoints: a side shared by two triangles is evaluated twice
        monkeypatch.setattr(fem, "BLOCK", 7)
        mesh = MESHES[family]()
        tris = getattr(mesh, "triangles_" + subdomain)
        calls = []

        def f(x, y, t):
            calls.append((x.copy(), y.copy()))
            return np.sin(x) * y

        dof = build_dofmap(mesh, subdomain)
        b = assemble_load(dof, f, 0.1)
        assert len(calls) == -(-len(tris) // 7) and max(len(x) for x, _ in calls) == 7
        # the same points, bit for bit, as the barycentric products of the rule
        px, py = (QUAD_DEG2_BARY @ mesh.nodes[:, c][tris].T for c in (0, 1))
        np.testing.assert_array_equal(np.concatenate([x for x, _ in calls]), px.T)
        np.testing.assert_array_equal(np.concatenate([y for _, y in calls]), py.T)
        ref = _seed_load(dof, f, 0.1)
        assert np.abs(b - ref).max() <= 1e-14 * np.abs(ref).max()


class TestTraceRestrict:
    def test_constant_field(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        tr = trace_restrict(dof, np.ones(dof.n_dofs))
        free = dof.interface_dofs >= 0
        np.testing.assert_allclose(tr[free], 1.0)
        # interface endpoints sit on the outer boundary and are pinned to zero
        np.testing.assert_allclose(tr[~free], 0.0)

    def test_zero_at_interface(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "s")
        field = interpolate(dof, lambda x, y, t: (y - 0.75) * x, 0.0)
        np.testing.assert_allclose(trace_restrict(dof, field), 0.0, atol=1e-15)

    def test_coordinate_field(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        field = interpolate(dof, lambda x, y, t: x, 0.0)
        xs = mesh.nodes[mesh.interface_nodes, 0]
        free = dof.interface_dofs >= 0
        np.testing.assert_allclose(trace_restrict(dof, field)[free], xs[free])

    def test_trace_operator_is_the_adjoint_pair_the_steppers_use(self):
        rng = np.random.default_rng(3)
        for mesh in (meshing.uniform_split_mesh(4), meshing.slanted_interface_mesh(1)):
            M_if = assemble_interface_mass(mesh)
            dense = M_if.toarray()
            for sub in ("f", "s"):
                dof = build_dofmap(mesh, sub)
                u, v = rng.standard_normal(dof.n_dofs), rng.standard_normal(M_if.shape[0])
                assert (dof.R @ u) @ v == pytest.approx(u @ (dof.R.T @ v), rel=1e-14)
                # the Robin term R^T M_if R by a loop over pairs of interface nodes
                ref = np.zeros((dof.n_dofs, dof.n_dofs))
                for i, di in enumerate(dof.interface_dofs):
                    for j, dj in enumerate(dof.interface_dofs):
                        if di >= 0 and dj >= 0:
                            ref[di, dj] += dense[i, j]
                np.testing.assert_array_equal((dof.R.T @ M_if @ dof.R).toarray(), ref)


class TestErrorNorms:
    def test_own_interpolant_error_is_zero(self):
        mesh = meshing.uniform_split_mesh(4)

        def f(x, y, t):
            return 2.0 * x - 0.5 * y

        dof = full_dofmap(mesh, "f")
        field = interpolate(dof, f, 0.0)
        # a linear exact field is reproduced exactly by P1
        assert l2_error(dof, field, f, 0.0) < 1e-14

    def test_zero_field_against_one(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "f")
        err = l2_error(dof, np.zeros(dof.n_dofs), lambda x, y, t: np.ones_like(x), 0.0)
        assert err == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_interpolation_error_second_order(self):
        def f(x, y, t):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        errs = []
        for n in (8, 16):
            mesh = meshing.uniform_split_mesh(n)
            dof = full_dofmap(mesh, "f")
            errs.append(l2_error(dof, interpolate(dof, f, 0.0), f, 0.0))
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_h1_linear_field_exact(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = full_dofmap(mesh, "s")
        field = interpolate(dof, lambda x, y, t: 3.0 * x + y, 0.0)
        err = h1_at(
            dof, field, lambda x, y, t: (3.0 * np.ones_like(x), np.ones_like(y)), 0.0
        )
        assert err < 1e-13

    def test_h1_zero_field_against_unit_gradient(self):
        mesh = meshing.uniform_split_mesh(4)
        dof = build_dofmap(mesh, "s")
        err = h1_at(
            dof, np.zeros(dof.n_dofs), lambda x, y, t: (np.ones_like(x), np.zeros_like(y)), 0.0
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
            dof = full_dofmap(mesh, "f")
            errs.append(h1_at(dof, interpolate(dof, f, 0.0), grad, 0.0))
        assert 1.6 <= errs[0] / errs[1] <= 2.6


@pytest.mark.parametrize("family, subdomain", sorted(AREAS))
class TestNormsWithScalarClosures:
    def test_l2_zero_field_against_constant(self, family, subdomain):
        mesh = MESHES[family]()
        dof = build_dofmap(mesh, subdomain)
        err = l2_error(dof, np.zeros(dof.n_dofs), lambda x, y, t: 2.5, 0.0)
        assert err == pytest.approx(2.5 * math.sqrt(AREAS[family, subdomain]), rel=1e-12)

    def test_h1_linear_interpolant_against_constant_gradient(self, family, subdomain):
        mesh = MESHES[family]()
        dof = full_dofmap(mesh, subdomain)
        field = interpolate(dof, lambda x, y, t: 0.2 * x - 0.4 * y + 1.0, 0.0)
        assert h1_at(dof, field, lambda x, y, t: (0.2, -0.4), 0.0) <= 1e-13


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

    @pytest.mark.parametrize("family", ["uniform", "slanted"])
    def test_dofs_numbered_in_dissection_order(self, family):
        # the subdomain's nodes off the outer boundary, in its block grid's
        # nested-dissection order: the elimination order of every LU on them
        mesh = (meshing.uniform_split_mesh(9) if family == "uniform"
                else meshing.slanted_interface_mesh(2))
        for sub, dirichlet in (("f", mesh.exterior_dirichlet_f),
                               ("s", mesh.exterior_dirichlet_s)):
            dof = build_dofmap(mesh, sub)
            order = meshing.dissect(getattr(mesh, "grid_" + sub))
            free = np.setdiff1d(getattr(mesh, "triangles_" + sub), dirichlet)
            np.testing.assert_array_equal(dof.free_nodes, order[np.isin(order, free)])
            np.testing.assert_array_equal(dof.node_to_dof[dof.free_nodes],
                                          np.arange(dof.n_dofs))

    def test_unknown_subdomain_rejected(self):
        with pytest.raises(ValueError, match="unknown subdomain 'x'"):
            build_dofmap(meshing.uniform_split_mesh(4), "x")


def _seed_quad(dofmap, bary):
    # the whole-subdomain, per-point formulas, kept as the reference for the blocked kernels
    tris = dofmap.triangles
    areas, grads = element_geometry(dofmap.nodes, tris)
    pts = np.einsum("qb,tbx->tqx", bary, dofmap.nodes[tris])
    return tris, areas, grads, pts


def _seed_load(dofmap, f, t):
    tris, areas, _, pts = _seed_quad(dofmap, QUAD_DEG2_BARY)
    fvals = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1], t), dtype=float),
                            pts.shape[:2])
    be = areas[:, None] * np.einsum("tq,q,qi->ti", fvals, QUAD_DEG2_W, QUAD_DEG2_BARY)
    dof = dofmap.node_to_dof[tris]
    keep = dof >= 0
    out = np.zeros(dofmap.n_dofs)
    np.add.at(out, dof[keep], be[keep])
    return out


def _seed_l2(dof, field, exact, t):
    tris, areas, _, pts = _seed_quad(dof, fem.QUAD_DEG4_BARY)
    uh = np.einsum("qb,tb->tq", fem.QUAD_DEG4_BARY, fem.nodal_values(dof, field)[tris])
    ex = np.broadcast_to(np.asarray(exact(pts[..., 0], pts[..., 1], t), dtype=float), uh.shape)
    return math.sqrt(np.einsum("t,q,tq->", areas, fem.QUAD_DEG4_W, (uh - ex) ** 2))


def _seed_h1(dof, field, exact_gradient, t):
    tris, areas, grads, pts = _seed_quad(dof, fem.QUAD_DEG4_BARY)
    gh = np.einsum("tbx,tb->tx", grads, fem.nodal_values(dof, field)[tris])
    gx, gy = exact_gradient(pts[..., 0], pts[..., 1], t)
    val = np.einsum("t,q,tq->", areas, fem.QUAD_DEG4_W,
                    (gh[:, None, 0] - gx) ** 2 + (gh[:, None, 1] - gy) ** 2)
    return math.sqrt(val)


class TestGradientProfile:
    """run_row builds each exact gradient's profile once and scales it per step."""

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_scaled_profile_matches_the_closure(self, name, subdomain):
        case = get_case(name)
        mesh = (meshing.slanted_interface_mesh(2) if case.geometry.kind == "slanted"
                else meshing.uniform_split_mesh(8))
        dof = build_dofmap(mesh, subdomain)
        exact, grad, rate = ((case.exact_u, case.grad_u, case.rate_u) if subdomain == "f"
                             else (case.exact_w, case.grad_w, case.rate_w))
        profile = gradient_profile(dof, grad, 0.0)
        for t in (0.0, 0.0625, 0.25, 1.0):
            field = interpolate(dof, exact, t)  # small errors, as a study measures
            got = h1_semi_error(field, profile, math.exp(rate * t))
            assert got == pytest.approx(_seed_h1(dof, field, grad, t), rel=1e-13), t

    def test_spread_is_zero_for_a_constant_gradient(self):
        dof = build_dofmap(meshing.slanted_interface_mesh(3), "f")
        G, areas, m, spread = gradient_profile(dof, lambda x, y, t: (3.7, 1e3), 0.0)
        assert spread == 0.0 and m.shape == (2, len(areas)) and G.shape[0] == 2 * len(areas)
        assert np.all(m[0] == 3.7) and np.all(m[1] == 1e3)

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_spread_of_a_linear_gradient_has_its_closed_form(self, subdomain):
        # g = A (x, y) + c: the degree-4 rule is exact, so m is g at the centroid and
        # the spread is sum_T area/12 sum_i |A (v_i - centroid)|^2. The offset c makes
        # |g|^2 about 1e8 times the spread, which sum w|g|^2 - W|m|^2 cannot resolve.
        A, c = np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([300.0, -1200.0])
        mesh = meshing.slanted_interface_mesh(3)
        dof = build_dofmap(mesh, subdomain)
        _, got_areas, m, spread = gradient_profile(
            dof, lambda x, y, t: A @ np.array([x, y]) + c[:, None], 0.0)
        tris = getattr(mesh, "triangles_" + subdomain)
        areas, _ = element_geometry(mesh.nodes, tris)
        np.testing.assert_allclose(got_areas, areas, rtol=1e-14, atol=0)
        v = mesh.nodes[tris]
        centroid = v.mean(axis=1)
        np.testing.assert_allclose(m.T, centroid @ A.T + c, rtol=1e-14, atol=0)
        expected = np.einsum("t,tix->", areas / 12.0, ((v - centroid[:, None]) @ A.T) ** 2)
        assert spread == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_interpolant_on_level_5_matches_the_per_point_reference(self, subdomain):
        # the interpolant's error is small against the gradient itself, as in a study
        case = get_case("pp_slanted")
        exact, grad, rate = ((case.exact_u, case.grad_u, case.rate_u) if subdomain == "f"
                             else (case.exact_w, case.grad_w, case.rate_w))
        dof = build_dofmap(meshing.slanted_interface_mesh(5), subdomain)
        profile = gradient_profile(dof, grad, 0.0)
        field = interpolate(dof, exact, 0.25)
        got = h1_semi_error(field, profile, math.exp(rate * 0.25))
        assert got == pytest.approx(_seed_h1(dof, field, grad, 0.25), rel=1e-13)


class TestGradientOperator:
    @pytest.mark.parametrize("include_dirichlet", [False, True])
    @pytest.mark.parametrize("family, subdomain", sorted(AREAS))
    def test_matches_element_geometry(self, family, subdomain, include_dirichlet):
        mesh = MESHES[family]()
        dof = (full_dofmap if include_dirichlet else build_dofmap)(mesh, subdomain)
        u = np.random.default_rng(3).standard_normal(dof.n_dofs)
        G = gradient_profile(dof, lambda x, y, t: (x, y), 0.0)[0]
        tris = getattr(mesh, "triangles_" + subdomain)
        nt = len(tris)
        assert G.shape == (2 * nt, dof.n_dofs) and G.indices.dtype == np.int32
        # one entry per free vertex in each row: constrained vertices drop out
        free = (dof.node_to_dof[tris] >= 0).sum(1)
        np.testing.assert_array_equal(np.diff(G.indptr), np.tile(free, 2))
        assert (free < 3).any() != include_dirichlet
        _, grads = element_geometry(mesh.nodes, tris)
        ref = np.einsum("tbx,tb->xt", grads, fem.nodal_values(dof, u)[tris])
        np.testing.assert_allclose((G @ u).reshape(2, nt), ref,
                                   rtol=0, atol=1e-12 * np.abs(ref).max())


class TestQuadratureMemo:
    """fem keeps no quadrature memo: loads, profiles and norms are built per call,
    in blocks of triangles, and leave nothing on the mesh."""

    @staticmethod
    def _setup(subdomain):
        case = get_case("pp_slanted")
        mesh = meshing.slanted_interface_mesh(3)
        dof = build_dofmap(mesh, subdomain)
        exact, grad, f = ((case.exact_u, case.grad_u, case.f_f) if subdomain == "f"
                          else (case.exact_w, case.grad_w, case.f_s))
        # a discrete field that is not the interpolant, so both norms are nonzero
        field = interpolate(dof, lambda x, y, t: np.sin(3.0 * x) * y, 0.0)
        return mesh, dof, exact, grad, f, field

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_agrees_with_per_call_formulas(self, subdomain):
        mesh, dof, exact, grad, f, field = self._setup(subdomain)
        ref_b = _seed_load(dof, f, 0.2)
        ref_l2 = _seed_l2(dof, field, exact, 0.2)
        ref_h1 = _seed_h1(dof, field, grad, 0.2)
        for _ in range(2):  # a second call repeats the first
            b = assemble_load(dof, f, 0.2)
            assert np.abs(b - ref_b).max() <= 1e-14 * np.abs(ref_b).max()
            assert l2_error(dof, field, exact, 0.2) == pytest.approx(ref_l2, rel=1e-14)
            assert h1_at(dof, field, grad, 0.2) == pytest.approx(ref_h1, rel=1e-14)
        assert mesh._cache == {}

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_norms_over_several_triangle_blocks(self, subdomain):
        # 32768 triangles per subdomain: loads and norms visit them in two blocks
        case = get_case("pp_slanted")
        mesh = meshing.slanted_interface_mesh(5)
        assert getattr(mesh, "triangles_" + subdomain).shape[0] > 16384
        exact, grad, f = ((case.exact_u, case.grad_u, case.f_f) if subdomain == "f"
                          else (case.exact_w, case.grad_w, case.f_s))
        dof = build_dofmap(mesh, subdomain)
        field = interpolate(dof, lambda x, y, t: np.sin(3.0 * x) * y, 0.0)
        ref_b = _seed_load(dof, f, 0.2)
        assert np.abs(assemble_load(dof, f, 0.2) - ref_b).max() <= 1e-14 * np.abs(ref_b).max()
        assert l2_error(dof, field, exact, 0.2) == pytest.approx(
            _seed_l2(dof, field, exact, 0.2), rel=1e-14)
        assert h1_at(dof, field, grad, 0.2) == pytest.approx(
            _seed_h1(dof, field, grad, 0.2), rel=1e-14)

    def test_forced_run_with_norms_keeps_only_the_operators(self, monkeypatch):
        from rrsplit import harness

        meshes = []
        original = meshing.slanted_interface_mesh

        def capture(level):
            meshes.append(original(level))
            return meshes[-1]

        monkeypatch.setattr(meshing, "slanted_interface_mesh", capture)
        cfg = harness.StudyConfig(case="pp_slanted", dt_list=(0.0625,))
        _, _, values = harness.run_row(cfg, 0.0625, tuple(harness._NORMS))
        assert len(values) == 5 and all(v > 0.0 for v in values.values())
        assert len(meshes) == 1 and meshes[0]._cache.keys() == {"operators"}

    def test_operators_read_each_triangle_once_per_matrix(self, monkeypatch):
        from rrsplit.coupling import CoupledOperators, SchemeParams

        mesh = meshing.slanted_interface_mesh(5)  # 32768 triangles per subdomain
        built = record_geometry(monkeypatch)
        ops = CoupledOperators(mesh, SchemeParams(k=2, dt=0.125, T=0.25))
        # mass, then stiffness, of each subdomain: every triangle once, in blocks
        tf, ts = mesh.triangles_f, mesh.triangles_s
        assert len(built) == 8 and max(len(b) for b in built) <= fem.BLOCK
        np.testing.assert_array_equal(np.concatenate(built), np.concatenate([tf, tf, ts, ts]))
        assert mesh._cache.keys() == {"operators"}
        for sub, dof, M, K in (("f", ops.dof_f, ops.M_f, ops.K_f),
                               ("s", ops.dof_s, ops.M_s, ops.K_s)):
            for got, ref in ((M, assemble_mass(dof)), (K, assemble_stiffness(dof))):
                assert (got != ref).nnz == 0

    def test_energy_audit_builds_no_memo(self, monkeypatch):
        # a run without loads or norms keeps only its operators on the mesh
        from rrsplit import harness

        meshes = []
        original = meshing.uniform_split_mesh

        def capture(n):
            meshes.append(original(n))
            return meshes[-1]

        monkeypatch.setattr(meshing, "uniform_split_mesh", capture)
        harness.energy_audit(k=2, alpha=10.0, dt=2.0**-6, n_steps=4, mesh_n=8)
        assert len(meshes) == 1 and meshes[0]._cache.keys() == {"operators"}


def test_load_traced_peak_and_nothing_kept():
    # slanted level 6, 131072 triangles per subdomain: eight blocks of side midpoints
    # peak at 4.61 MiB traced (bound 5.5 MiB, 19% above it); the edge-deduplicated
    # load operator that was memoized on the mesh peaked at 23.3 MiB and kept 8.0 MiB
    mesh = meshing.slanted_interface_mesh(6)
    case = get_case("pp_slanted")
    peaks, kept = [], []
    for sub, f in (("f", case.f_f), ("s", case.f_s)):
        dof = build_dofmap(mesh, sub)
        # an untraced call first: what the first call in a process sets up once is not
        # counted as kept, so the kept figure does not depend on which tests ran before
        assemble_load(dof, f, 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            b = assemble_load(dof, f, 0.0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append((peak - base) / 2**20)
        kept.append(current - base - b.nbytes)
    print(f"load-memory: assemble_load on slanted level 6 peaks at "
          f"{peaks[0]:.2f}/{peaks[1]:.2f} MiB traced (bound 5.5 MiB) and keeps "
          f"{max(kept)} bytes beside its result")
    assert max(peaks) < 5.5
    assert max(kept) < 4096 and mesh._cache == {}
