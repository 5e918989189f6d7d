"""Sparse assembly from triplets and SPD LU factorizations on scipy CSR arrays."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def from_triplets(n_rows, n_cols, entries) -> sp.csr_array:
    """CSR array of shape (n_rows, n_cols) from a (rows, cols, values) tuple of arrays.

    Duplicate positions are summed, explicit zeros are kept and column
    indices come out sorted. scipy raises ValueError for arrays of unequal
    length and for an index out of range. ``indices`` and ``indptr`` are
    int32 when n_rows, n_cols and the number of triplets are all below 2**31,
    and int64 otherwise, whatever the dtype of ``rows`` and ``cols``; int32
    rows and cols are used as they are, without a copy.
    """
    rows, cols, vals = entries
    A = sp.coo_array((vals, (rows, cols)), shape=(n_rows, n_cols))
    if max(n_rows, n_cols, A.nnz) < 2**31:
        A.coords = sp.safely_cast_index_arrays(A)
    return A.tocsr()


class Factorization:
    """SuperLU factorization of one matrix; solve() is reusable across right-hand sides."""

    def __init__(self, A):
        # natural order and pivots on the diagonal: the rows and columns are
        # eliminated in the matrix's own numbering
        self._lu = spla.splu(A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        # A = A^T for every matrix factorize is given, and SuperLU's transposed
        # solve runs faster on these factors than its plain one
        return self._lu.solve(np.asarray(b, dtype=np.float64), trans="T")


def factorize(A) -> Factorization:
    """SuperLU factorization of a symmetric positive definite matrix, eliminated in
    the order of its rows.

    SPD is the caller's promise, and so is a numbering that keeps the fill low
    (``fem.build_dofmap`` numbers each subdomain's dofs in nested-dissection
    order): SuperLU runs in symmetric mode on A as numbered, with no row
    interchanges. A non-square matrix raises ValueError, a singular one
    RuntimeError.
    """
    return Factorization(A)
