"""Tests for the sparse layer: triplet assembly into scipy CSR, products, LU solves."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from elements import element_assembly, element_geometry, element_mass, element_stiffness
from rrsplit.sparse import factorize, from_triplets


def entries(triplets):
    """The (rows, cols, values) arrays of a list of (row, col, value) triplets."""
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=float)


def dense_of(triplets, shape):
    A = np.zeros(shape)
    for i, j, v in triplets:
        A[i, j] += v
    return A


class TestFromTriplets:
    def test_identity(self):
        A = from_triplets(2, 2, entries([(0, 0, 1.0), (1, 1, 1.0)]))
        np.testing.assert_allclose(A.toarray(), np.eye(2))

    def test_duplicates_summed(self):
        A = from_triplets(2, 2, entries([(0, 0, 1.0), (0, 0, 2.0)]))
        assert A.nnz == 1
        assert A[0, 0] == pytest.approx(3.0)

    def test_reference_mass_round_trip(self):
        # P1 mass matrix of the reference triangle, against dense assembly
        mass = (np.ones((3, 3)) + np.eye(3)) / 24.0
        trips = [(i, j, mass[i, j]) for i in range(3) for j in range(3)]
        A = from_triplets(3, 3, entries(trips))
        np.testing.assert_allclose(A.toarray(), dense_of(trips, (3, 3)), rtol=1e-15)

    def test_tuple_of_arrays(self):
        rows, cols = np.array([0, 2, 0]), np.array([1, 0, 1])
        A = from_triplets(3, 2, (rows, cols, np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(A.toarray(), [[0.0, 4.0], [0.0, 0.0], [2.0, 0.0]])

    def test_structural_zero_kept(self):
        A = from_triplets(2, 2, entries([(0, 1, 0.0)]))
        assert A.nnz == 1

    def test_out_of_range_rejected(self):
        # scipy's own checks; a study records the ValueError as a failed row
        with pytest.raises(ValueError, match="index 2 exceeds"):
            from_triplets(2, 2, entries([(2, 0, 1.0)]))
        with pytest.raises(ValueError, match="negative axis 1 index"):
            from_triplets(2, 2, entries([(0, -1, 1.0)]))

    def test_index_beyond_int32_keeps_int64(self):
        # one row, so the CSR arrays stay two entries long however wide the matrix is
        n = 2**31 + 2
        A = from_triplets(1, n, (np.array([0]), np.array([n - 1]), np.array([2.5])))
        assert A.indices.dtype == A.indptr.dtype == np.int64
        assert A.indices.tolist() == [n - 1] and A.data.tolist() == [2.5]
        with pytest.raises(ValueError, match=f"index {n} exceeds"):
            from_triplets(1, n, (np.array([0]), np.array([n]), np.array([1.0])))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            from_triplets(2, 2, (np.array([0, 1]), np.array([0]), np.array([1.0])))

    def test_csr_invariants(self):
        rng = np.random.default_rng(11)
        trips = [(int(r), int(c), float(v)) for r, c, v in
                 zip(rng.integers(0, 6, 40), rng.integers(0, 5, 40), rng.standard_normal(40))]
        A = from_triplets(6, 5, entries(trips))
        assert A.shape == (6, 5)
        assert A.indices.dtype == A.indptr.dtype == np.int32  # from int64 triplets
        assert A.indptr[0] == 0 and A.indptr[-1] == A.nnz
        assert np.all(np.diff(A.indptr) >= 0)
        for i in range(6):
            cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)
        np.testing.assert_allclose(A.toarray(), dense_of(trips, (6, 5)), rtol=1e-15)


class TestSpmv:
    def test_identity(self):
        A = from_triplets(3, 3, entries([(i, i, 1.0) for i in range(3)]))
        np.testing.assert_allclose(A @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_zero_matrix(self):
        A = from_triplets(3, 3, entries([]))
        np.testing.assert_allclose(A @ np.array([1.0, 2.0, 3.0]), np.zeros(3))

    def test_random_against_dense(self):
        rng = np.random.default_rng(5)
        trips = [(int(r), int(c), float(v)) for r, c, v in
                 zip(rng.integers(0, 5, 30), rng.integers(0, 5, 30), rng.standard_normal(30))]
        A = from_triplets(5, 5, entries(trips))
        x = rng.standard_normal(5)
        ref = dense_of(trips, (5, 5)) @ x
        err = np.linalg.norm(A @ x - ref) / np.linalg.norm(ref)
        assert err < 1e-14

    def test_dimension_mismatch(self):
        A = from_triplets(3, 2, entries([(0, 0, 1.0)]))
        with pytest.raises(ValueError):
            A @ np.ones(3)


class TestSolveSpd:
    """Symmetric positive definite systems through the cached LU."""

    def test_identity(self):
        A = from_triplets(2, 2, entries([(0, 0, 1.0), (1, 1, 1.0)]))
        np.testing.assert_allclose(factorize(A).solve([4.0, 5.0]), [4.0, 5.0])

    def test_diagonal(self):
        A = from_triplets(2, 2, entries([(0, 0, 2.0), (1, 1, 4.0)]))
        np.testing.assert_allclose(factorize(A).solve([2.0, 4.0]), [1.0, 1.0])

    def test_time_step_system_vs_dense(self):
        # (1/dt) M + nu K on a small mesh, against numpy's dense solve
        from rrsplit import fem, meshing

        mesh = meshing.uniform_split_mesh(3)
        dof = fem.build_dofmap(mesh, "f")
        A = 10.0 * fem.assemble_mass(dof) + fem.assemble_stiffness(dof)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(dof.n_dofs)
        x = factorize(A).solve(b)
        ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-10

    def test_solution_reproduces_rhs(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 6))
        D = B @ B.T + 6.0 * np.eye(6)
        trips = [(i, j, D[i, j]) for i in range(6) for j in range(6)]
        A = from_triplets(6, 6, entries(trips))
        b = rng.standard_normal(6)
        lu = factorize(A)
        for rhs in (b, 2.0 * b):  # the factorization is reused across right-hand sides
            x = lu.solve(rhs)
            assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_zero_rhs(self):
        A = from_triplets(2, 2, entries([(0, 0, 1.0), (1, 1, 1.0)]))
        np.testing.assert_allclose(factorize(A).solve([0.0, 0.0]), 0.0)


class TestSolveGeneral:
    """Inputs the SPD-only factorization accepts or reports."""

    def test_identity(self):
        A = from_triplets(3, 3, entries([(i, i, 1.0) for i in range(3)]))
        b = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(factorize(A).solve(b), b)

    def test_singular_reported(self):
        # SuperLU raises RuntimeError, which a study records as a failed row
        A = from_triplets(2, 2, entries([(0, 0, 1.0), (1, 0, 1.0)]))
        with pytest.raises(RuntimeError):
            factorize(A)

    def test_spd_factorization_failure_reported(self):
        # a zero pivot, so a study records the row as failed
        A = from_triplets(2, 2, entries([(0, 0, 0.0), (1, 1, 0.0)]))
        with pytest.raises(RuntimeError):
            factorize(A)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            factorize(from_triplets(2, 3, entries([(0, 0, 1.0), (1, 1, 1.0)])))


def spd_matrices():
    """The SPD matrices of TestSolveSpd, by name."""
    from rrsplit import fem, meshing

    dof = fem.build_dofmap(meshing.uniform_split_mesh(3), "f")
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 6))
    D = B @ B.T + 6.0 * np.eye(6)
    return {
        "identity": from_triplets(2, 2, entries([(0, 0, 1.0), (1, 1, 1.0)])),
        "diagonal": from_triplets(2, 2, entries([(0, 0, 2.0), (1, 1, 4.0)])),
        "time_step": 10.0 * fem.assemble_mass(dof) + fem.assemble_stiffness(dof),
        "dense": from_triplets(6, 6, entries([(i, j, D[i, j]) for i in range(6)
                                              for j in range(6)])),
    }


class TestOrderedFactorization:
    """A matrix is eliminated in its own numbering: a renumbering moves rounding and
    fill only."""

    @pytest.mark.parametrize("name", ["identity", "diagonal", "time_step", "dense"])
    def test_random_order_matches_dense_solve(self, name):
        # a random elimination order, as a symmetric renumbering of the matrix
        A = spd_matrices()[name]
        rng = np.random.default_rng(17)
        order = rng.permutation(A.shape[0])
        b = rng.standard_normal(A.shape[0])
        x = np.empty_like(b)
        x[order] = factorize(A[order][:, order]).solve(b[order])
        ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_robin_lus_keep_fewer_nonzeros_than_minimum_degree(self):
        # each Robin LU and the oracle LU of slanted level 5, on dofs numbered in
        # their elimination order, against SuperLU's minimum degree ordering of
        # A + A^T on the same matrix (oracle: 2,204,052 against 2,408,918 nonzeros)
        from rrsplit import coupling, meshing

        params = coupling.SchemeParams(k=1, dt=2.0**-7, T=2.0**-7)
        ops = coupling.CoupledOperators(meshing.slanted_interface_mesh(5), params)
        steps = ops.step_matrices()
        systems = [(lu, next(steps) + params.alpha * (dof.R.T @ ops.M_if @ dof.R))
                   for lu, dof in zip(coupling._robin_system(ops), (ops.dof_s, ops.dof_f))]
        lu, Pf, Ps, *_ = coupling._monolithic_system(ops)
        A_s, A_f = ops.step_matrices()
        systems.append((lu, Pf.T @ A_f @ Pf + Ps.T @ A_s @ Ps))
        for lu, A in systems:
            mmd = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
            assert lu._lu.nnz < mmd.nnz


class TestAssembledAgreement:
    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_spmv_matches_dense_small_mesh(self, subdomain):
        from rrsplit import fem, meshing

        mesh = meshing.uniform_split_mesh(4)  # well under 50 nodes per subdomain
        dof = fem.build_dofmap(mesh, subdomain)
        for A in (fem.assemble_mass(dof), fem.assemble_stiffness(dof)):
            rng = np.random.default_rng(1)
            x = rng.standard_normal(A.shape[1])
            ref = A.toarray() @ x
            assert np.linalg.norm(A @ x - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_assembly_matches_dense(self, subdomain):
        # element-by-element dense assembly over the free dofs
        from rrsplit import fem, meshing

        mesh = meshing.slanted_interface_mesh(1)
        dof = fem.build_dofmap(mesh, subdomain)
        tris = getattr(mesh, "triangles_" + subdomain)
        areas, grads = element_geometry(mesh.nodes, tris)
        M_ref = np.zeros((dof.n_dofs, dof.n_dofs))
        K_ref = np.zeros_like(M_ref)
        for tri, m, k in zip(tris, element_mass(areas), element_stiffness(areas, grads)):
            d = dof.node_to_dof[tri]
            for a in range(3):
                for b in range(3):
                    if d[a] >= 0 and d[b] >= 0:
                        M_ref[d[a], d[b]] += m[a, b]
                        K_ref[d[a], d[b]] += k[a, b]
        for A, ref in ((fem.assemble_mass(dof), M_ref),
                       (fem.assemble_stiffness(dof), K_ref)):
            np.testing.assert_allclose(A.toarray(), ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("subdomain", ["f", "s"])
    def test_assembly_over_two_blocks_matches_element_kernels(self, subdomain):
        # 32768 triangles per subdomain: each grid cell has one triangle in either block,
        # so the two blocks share nearly every dof.
        # Too large for a dense matrix, so the element blocks are summed as triplets.
        from rrsplit import fem, meshing

        mesh = meshing.slanted_interface_mesh(5)
        dof = fem.build_dofmap(mesh, subdomain)
        tris = getattr(mesh, "triangles_" + subdomain)
        assert len(tris) == 2 * fem.BLOCK
        M_ref, K_ref = element_assembly(dof, tris)
        for A, ref in ((fem.assemble_mass(dof), M_ref), (fem.assemble_stiffness(dof), K_ref)):
            assert abs(A - ref).max() <= 1e-14 * abs(ref).max()
