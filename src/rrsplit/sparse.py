"""Sparse assembly from triplets and cached SPD LU factorizations on scipy CSR arrays."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def from_triplets(n_rows, n_cols, entries) -> sp.csr_array:
    """CSR array of shape (n_rows, n_cols) from a (rows, cols, values) tuple of arrays.

    Duplicate positions are summed, explicit zeros are kept and column
    indices come out sorted. scipy raises ValueError for arrays of unequal
    length and for an index out of range.
    """
    rows, cols, vals = entries
    return sp.coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()


class Factorization:
    """Cached sparse LU factorization; solve() is reusable across right-hand sides."""

    def __init__(self, A):
        # symmetric ordering of A + A^T and pivots on the diagonal, so the
        # row and column permutations agree and the factors stay small
        self._lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(A) -> Factorization:
    """SuperLU factorization of a symmetric positive definite matrix.

    SPD is the caller's promise: SuperLU runs in symmetric mode with the MMD
    ordering of A + A^T and no row interchanges. A non-square matrix raises
    ValueError, a singular one RuntimeError.
    """
    return Factorization(A)
