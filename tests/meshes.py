"""Gather-based reference for the mesh set-up.

``meshing`` reads triangle geometry from the two coordinate columns and each
exterior Dirichlet set off its block's node grid, and ``fem.build_dofmap``
drops those sets with a node mask. The tests hold them to these forms: the
formulas on the gathered (nt, 3, 2) vertex coordinates, the sets read from a
boundary mask over every triangle, and free nodes found by ``np.isin``.
"""

import numpy as np

from rrsplit.meshing import dissect

TOL = 1e-12


def signed_areas(nodes, tris):
    p = nodes[tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


def max_edge(nodes, tris):
    p = nodes[tris]
    e = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.sqrt((e**2).sum(axis=1)).max())


def square_boundary_mask(nodes):
    x, y = nodes[:, 0], nodes[:, 1]
    return (
        (np.abs(x) <= TOL)
        | (np.abs(x - 1.0) <= TOL)
        | (np.abs(y) <= TOL)
        | (np.abs(y - 1.0) <= TOL)
    )


def dirichlet_sets(mesh):
    """The fluid and solid nodes on the outer boundary of the square."""
    boundary = square_boundary_mask(mesh.nodes)
    return tuple(np.unique(tris[boundary[tris]]) for tris in (mesh.triangles_f, mesh.triangles_s))


def free_nodes(mesh, subdomain):
    """The subdomain's nodes in dissection order, less its exterior Dirichlet set."""
    nodes = dissect(getattr(mesh, "grid_" + subdomain))
    return nodes[~np.isin(nodes, dirichlet_sets(mesh)["fs".index(subdomain)])]
