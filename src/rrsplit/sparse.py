"""Sparse assembly from triplets and cached SPD LU factorizations on scipy CSR arrays."""

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
    """Cached sparse LU factorization; solve() is reusable across right-hand sides."""

    def __init__(self, A, order):
        n = A.shape[0]
        order = np.asarray(order)
        if A.shape != (n, n) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"factorize needs a square matrix and a permutation of its "
                             f"rows as order, got shape {A.shape} and {order.size} entries")
        self._order = order
        # the rows of A gathered in order, their column indices renumbered by the
        # inverse permutation, then to CSC: the one copy of A beside SuperLU's factors
        B = A.tocsr()[order]
        inv = np.empty(n, dtype=B.indices.dtype)
        inv[order] = np.arange(n, dtype=inv.dtype)
        B.indices = inv[B.indices]
        B = B.tocsc()
        # natural order of the permuted matrix and pivots on the diagonal, so the
        # row and column permutations are both the given order
        self._lu = spla.splu(B, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


def factorize(A, order) -> Factorization:
    """SuperLU factorization of a symmetric positive definite matrix, eliminated in
    ``order``, a permutation of its rows.

    SPD is the caller's promise: SuperLU runs in symmetric mode on the rows and
    columns of A taken in ``order``, with no row interchanges. A non-square matrix
    or an order that is not a permutation of range(n) raises ValueError, a
    singular matrix RuntimeError.
    """
    return Factorization(A, order)
