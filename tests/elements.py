"""Element-by-element P1 reference for the assembly tests.

``fem`` assembles mass and stiffness as sparse products over blocks of
triangles. The tests hold it to these per-triangle formulas: the 3x3 element
kernels, and their entries summed straight into the free dofs.
"""

import numpy as np
import scipy.sparse as sp


def element_geometry(nodes, tris):
    """Areas and P1 basis gradients, per triangle.

    Returns (areas, grads) with grads[t, i] the constant gradient of the
    barycentric basis function of local vertex i.
    """
    p = nodes[tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    areas = 0.5 * det
    gx = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], 1)
    gy = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], 1)
    grads = np.stack([gx, gy], axis=2) / det[:, None, None]
    return areas, grads


def element_mass(areas):
    """Consistent P1 mass blocks, (nt, 3, 3)."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return areas[:, None, None] * base[None]


def element_stiffness(areas, grads):
    """P1 stiffness blocks area * grad_i . grad_j, (nt, 3, 3)."""
    return areas[:, None, None] * np.einsum("tix,tjx->tij", grads, grads)


def element_assembly(dofmap, tris):
    """Mass and stiffness over the dofmap's free dofs from the element kernels: each
    block entry whose two vertices carry a dof is one triplet, duplicates summed."""
    areas, grads = element_geometry(dofmap.nodes, tris)
    dof = dofmap.node_to_dof[tris]
    free = dof >= 0
    keep = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(dof[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(dof[:, None, :], keep.shape)[keep]
    n = dofmap.n_dofs
    return tuple(sp.coo_array((blocks[keep], (rows, cols)), shape=(n, n)).tocsr()
                 for blocks in (element_mass(areas), element_stiffness(areas, grads)))
