"""Sparse assembly from triplets and cached LU factorizations on scipy CSR arrays."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def from_triplets(n_rows, n_cols, entries) -> sp.csr_array:
    """Build a CSR array from (row, col, value) entries.

    Duplicate positions are summed. ``entries`` may be an iterable of
    triplets or a (rows, cols, values) tuple of arrays. Structural zeros
    are kept if explicitly inserted; column indices come out sorted.
    """
    if isinstance(entries, tuple) and len(entries) == 3:
        rows, cols, vals = entries
    else:
        trip = list(entries)
        rows, cols, vals = zip(*trip) if trip else ((), (), ())
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("triplet arrays must have matching lengths")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise IndexError("triplet row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise IndexError("triplet column index out of range")
    return sp.coo_array((vals, (rows, cols)), shape=(int(n_rows), int(n_cols))).tocsr()


class Factorization:
    """Cached sparse LU factorization; solve() is reusable across right-hand sides."""

    def __init__(self, A):
        self.shape = A.shape
        self._lu = spla.splu(A.tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(A) -> Factorization:
    """SuperLU factorization of a square sparse matrix (default COLAMD ordering).

    A singular matrix raises RuntimeError.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError("factorize requires a square matrix")
    return Factorization(A)
