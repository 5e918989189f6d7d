"""Tests for the sparse layer: triplet assembly into scipy CSR, products, LU solves."""

import numpy as np
import pytest

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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            from_triplets(2, 2, (np.array([0, 1]), np.array([0]), np.array([1.0])))

    def test_csr_invariants(self):
        rng = np.random.default_rng(11)
        trips = [(int(r), int(c), float(v)) for r, c, v in
                 zip(rng.integers(0, 6, 40), rng.integers(0, 5, 40), rng.standard_normal(40))]
        A = from_triplets(6, 5, entries(trips))
        assert A.shape == (6, 5)
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
        tris = fem.subdomain_triangles(mesh, subdomain)
        areas, grads = fem.element_geometry(mesh.nodes, tris)
        M_ref = np.zeros((dof.n_dofs, dof.n_dofs))
        K_ref = np.zeros_like(M_ref)
        for tri, m, k in zip(tris, fem.element_mass(areas), fem.element_stiffness(areas, grads)):
            d = dof.node_to_dof[tri]
            for a in range(3):
                for b in range(3):
                    if d[a] >= 0 and d[b] >= 0:
                        M_ref[d[a], d[b]] += m[a, b]
                        K_ref[d[a], d[b]] += k[a, b]
        for A, ref in ((fem.assemble_mass(dof), M_ref),
                       (fem.assemble_stiffness(dof), K_ref)):
            np.testing.assert_allclose(A.toarray(), ref, rtol=0, atol=1e-14 * np.abs(ref).max())
