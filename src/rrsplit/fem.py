"""Piecewise-linear conforming finite elements on the coupled mesh.

Assembly of mass/stiffness/interface-mass operators over the free degrees
of freedom of one subdomain, load vectors by quadrature, nodal trace
restriction onto the interface, and quadrature error norms against smooth
exact fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import CoupledMesh
from .sparse import from_triplets

# Degree-4 six-point rule for norms (loads use edge midpoints, see _load_operator).
_a, _b = 0.445948490915965, 0.108103018168070
_c, _d = 0.091576213509771, 0.816847572980459
QUAD_DEG4_BARY = np.array(
    [[_a, _a, _b], [_a, _b, _a], [_b, _a, _a], [_c, _c, _d], [_c, _d, _c], [_d, _c, _c]]
)
QUAD_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


@dataclass
class DofMap:
    """Free-node numbering for one subdomain.

    Exterior Dirichlet nodes carry no dof (this includes the two points
    where the interface meets the outer boundary); ``interface_dofs`` lists
    the dof of each interface node in trace order, -1 where constrained.
    ``R`` is the 0/1 trace operator (interface nodes x dofs): the trace of u
    is ``R @ u``, the lift of an interface vector v is its adjoint ``R.T @ v``.
    """

    subdomain: str
    mesh: CoupledMesh
    node_to_dof: np.ndarray
    free_nodes: np.ndarray
    interface_dofs: np.ndarray
    R: sp.csr_array

    @property
    def n_dofs(self) -> int:
        return int(self.free_nodes.size)


def subdomain_triangles(mesh: CoupledMesh, subdomain: str) -> np.ndarray:
    if subdomain == "f":
        return mesh.triangles_f
    if subdomain == "s":
        return mesh.triangles_s
    raise ValueError(f"unknown subdomain {subdomain!r}")


def build_dofmap(mesh: CoupledMesh, subdomain: str, include_dirichlet: bool = False) -> DofMap:
    tris = subdomain_triangles(mesh, subdomain)
    sub_nodes = np.flatnonzero(np.bincount(tris.ravel(), minlength=mesh.n_nodes))
    dirichlet = mesh.exterior_dirichlet_f if subdomain == "f" else mesh.exterior_dirichlet_s
    free = sub_nodes if include_dirichlet else sub_nodes[~np.isin(sub_nodes, dirichlet)]
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_to_dof[free] = np.arange(free.size)
    idofs = node_to_dof[mesh.interface_nodes]
    carried = np.flatnonzero(idofs >= 0)
    return DofMap(
        subdomain=subdomain,
        mesh=mesh,
        node_to_dof=node_to_dof,
        free_nodes=free,
        interface_dofs=idofs,
        R=from_triplets(idofs.size, free.size, (carried, idofs[carried], np.ones(carried.size))),
    )


def element_geometry(nodes: np.ndarray, tris: np.ndarray):
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


def element_mass(areas: np.ndarray) -> np.ndarray:
    """Consistent P1 mass blocks, (nt, 3, 3)."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return areas[:, None, None] * base[None]


def element_stiffness(areas: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """P1 stiffness blocks area * grad_i . grad_j, (nt, 3, 3)."""
    return areas[:, None, None] * np.einsum("tix,tjx->tij", grads, grads)


def _scatter_blocks(blocks: np.ndarray, tris: np.ndarray, dofmap: DofMap) -> sp.csr_array:
    dof = dofmap.node_to_dof[tris]
    rows = np.broadcast_to(dof[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dof[:, None, :], blocks.shape).ravel()
    vals = blocks.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = dofmap.n_dofs
    return from_triplets(n, n, (rows[keep], cols[keep], vals[keep]))


def assemble_mass(mesh: CoupledMesh, subdomain: str, dofmap: DofMap | None = None,
                  geometry=None) -> sp.csr_array:
    """Consistent mass matrix over the free dofs of one subdomain.

    ``geometry`` is the subdomain's ``element_geometry`` output, if the caller
    already has it (so mass and stiffness can share one call).
    """
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    tris = subdomain_triangles(mesh, subdomain)
    areas, _ = geometry or element_geometry(mesh.nodes, tris)
    return _scatter_blocks(element_mass(areas), tris, dofmap)


def assemble_stiffness(
    mesh: CoupledMesh, subdomain: str, dofmap: DofMap | None = None, geometry=None
) -> sp.csr_array:
    """Stiffness matrix (grad, grad) over the free dofs of one subdomain; ``geometry``
    as in ``assemble_mass``."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    tris = subdomain_triangles(mesh, subdomain)
    areas, grads = geometry or element_geometry(mesh.nodes, tris)
    return _scatter_blocks(element_stiffness(areas, grads), tris, dofmap)


def assemble_interface_mass(mesh: CoupledMesh) -> sp.csr_array:
    """Tridiagonal interface mass matrix over interface nodes in trace order."""
    pts = mesh.nodes[mesh.interface_nodes]
    lengths = np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(axis=1))
    n_seg = lengths.size
    left = np.arange(n_seg)
    right = left + 1
    rows = np.concatenate([left, left, right, right])
    cols = np.concatenate([left, right, left, right])
    vals = np.concatenate([lengths / 3.0, lengths / 6.0, lengths / 6.0, lengths / 3.0])
    n = mesh.interface_nodes.size
    return from_triplets(n, n, (rows, cols, vals))


def _quad_data(mesh: CoupledMesh, subdomain: str, rule: str | None = None):
    """Per-subdomain quadrature data, memoized on the mesh and built on first use.

    ``rule=None`` gives (tris, areas, grads), grads[x, i] the x component of the
    gradient of basis i per triangle; ``rule="load"`` gives ``_load_operator``'s
    x, y, P. Vertex coordinates and norm points are not kept: more peak memory.
    """
    key = (subdomain, rule)
    data = mesh._cache.get(key)
    if data is None:
        if rule is None:
            tris = subdomain_triangles(mesh, subdomain)
            areas, grads = element_geometry(mesh.nodes, tris)
            data = (tris, areas, grads.transpose(2, 1, 0).copy())
        else:
            data = _load_operator(mesh, *_quad_data(mesh, subdomain)[:2])
        mesh._cache[key] = data
    return data


def _load_operator(mesh: CoupledMesh, tris: np.ndarray, areas: np.ndarray):
    """Distinct edge midpoints x, y and the CSR operator P with load = P @ f(x, y).

    The degree-2 rule weighs each edge midpoint by area/3 and the basis
    functions of the edge's two ends by 1/2 there, so column e of P holds, in
    the rows of the edge's ends, area/6 summed over the triangles sharing it.
    """
    n = mesh.n_nodes
    # side-major keys lo * n + hi, deduplicated by sorting: np.unique is ~20x slower here
    t0, t1, t2 = tris.T
    key = np.concatenate([np.minimum(a, b) * n + np.maximum(a, b)
                          for a, b in ((t0, t1), (t1, t2), (t0, t2))])
    keys = np.sort(key)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    lo, hi = keys // n, keys % n
    # 0.5 * (a + b) is bit-identical to the barycentric product 0.5 a + 0.5 b
    x, y = (0.5 * (mesh.nodes[lo, c] + mesh.nodes[hi, c]) for c in (0, 1))
    weight = np.bincount(np.searchsorted(keys, key), np.tile(areas / 6.0, 3), keys.size)
    idx = np.int32 if max(n, 2 * keys.size) < 2**31 else np.int64
    P = sp.csc_array((np.repeat(weight, 2), np.stack([lo, hi], 1).ravel().astype(idx),
                      np.arange(0, 2 * keys.size + 1, 2, dtype=idx)), shape=(n, keys.size))
    return x, y, P.tocsr()


def assemble_load(
    mesh: CoupledMesh, subdomain: str, f, t: float, dofmap: DofMap | None = None
) -> np.ndarray:
    """Load vector (f(., t), phi_i) with a quadrature exact for degree <= 2."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    x, y, P = _quad_data(mesh, subdomain, "load")
    fvals = np.broadcast_to(np.asarray(f(x, y, t), dtype=float), x.shape)
    return (P @ fvals)[dofmap.free_nodes]


def interpolate(
    mesh: CoupledMesh, subdomain: str, fn, t: float, dofmap: DofMap | None = None
) -> np.ndarray:
    """Nodal interpolant of fn(x, y, t) on the free dofs."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    xy = mesh.nodes[dofmap.free_nodes]
    vals = np.asarray(fn(xy[:, 0], xy[:, 1], t), dtype=float)
    return np.broadcast_to(vals, (dofmap.n_dofs,)).copy()


def nodal_values(dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """Coefficients expanded over all mesh nodes (zero at constrained nodes)."""
    out = np.zeros(dofmap.mesh.n_nodes)
    out[dofmap.free_nodes] = u
    return out


def trace_restrict(dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """Values at interface nodes in trace order; zero where the node is constrained."""
    return dofmap.R @ u


def _norm_points(mesh: CoupledMesh, tris: np.ndarray):
    """Triangle block, weight, barycentric coordinates, x and y of each degree-4 point.

    Blocks of 16384 triangles, one point at a time, keep each closure call's
    arrays in cache and bound the memory the norms add on the finest mesh.
    """
    px, py = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]
    for blk in (slice(s, s + 16384) for s in range(0, len(tris), 16384)):
        for w, b in zip(QUAD_DEG4_W, QUAD_DEG4_BARY):
            yield blk, w, b, px[blk] @ b, py[blk] @ b


def l2_error(dofmap: DofMap, u: np.ndarray, exact, t: float) -> float:
    """L2 norm of (u - exact(., t)) over the dofmap's subdomain (degree-4 quadrature)."""
    tris, areas, _ = _quad_data(dofmap.mesh, dofmap.subdomain)
    uh = nodal_values(dofmap, u)[tris]
    acc = np.zeros(tris.shape[0])
    for blk, w, b, x, y in _norm_points(dofmap.mesh, tris):
        d = uh[blk] @ b - exact(x, y, t)
        acc[blk] += w * (d * d)
    return float(np.sqrt(max(areas @ acc, 0.0)))


def h1_semi_error(dofmap: DofMap, u: np.ndarray, exact_gradient, t: float) -> float:
    """L2 norm of grad(u) - exact_gradient(., t) over the dofmap's subdomain."""
    tris, areas, grads = _quad_data(dofmap.mesh, dofmap.subdomain)
    ghx, ghy = np.einsum("bt,xbt->xt", nodal_values(dofmap, u)[tris.T], grads)
    acc = np.zeros(tris.shape[0])
    for blk, w, _, x, y in _norm_points(dofmap.mesh, tris):
        gx, gy = exact_gradient(x, y, t)
        dx, dy = ghx[blk] - gx, ghy[blk] - gy  # new arrays: gx, gy may be scalars or read-only
        acc[blk] += w * (np.square(dx, out=dx) + np.square(dy, out=dy))
    return float(np.sqrt(max(areas @ acc, 0.0)))
