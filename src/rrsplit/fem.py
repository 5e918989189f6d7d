"""Piecewise-linear conforming finite elements on the coupled mesh.

Assembly of mass/stiffness/interface-mass operators over the free degrees
of freedom of one subdomain, load vectors by quadrature, nodal trace
restriction onto the interface, and quadrature error norms against smooth
exact fields. The L2 norm evaluates its exact field per call. The H1
seminorm reads the exact gradient from a profile built once
(``gradient_profile``): its per-triangle means at the quadrature points and
one scalar spread about them. Each call scales the profile, as a load vector
assembled once is scaled per step (``coupling.SourceData.assemble``), and gets
the discrete gradient from one sparse matvec with the memoized P1 gradient
operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import CoupledMesh, dissect, signed_areas
from .sparse import from_triplets

# Degree-4 six-point rule for norms (loads use edge midpoints, see _load_operator).
_a, _b = 0.445948490915965, 0.108103018168070
_c, _d = 0.091576213509771, 0.816847572980459
QUAD_DEG4_BARY = np.array(
    [[_a, _a, _b], [_a, _b, _a], [_b, _a, _a], [_c, _c, _d], [_c, _d, _c], [_d, _c, _c]]
)
QUAD_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_W = float(QUAD_DEG4_W.sum())


@dataclass
class DofMap:
    """Free-node numbering for one subdomain.

    Exterior Dirichlet nodes carry no dof (this includes the two points
    where the interface meets the outer boundary). The dofs follow the
    nested-dissection order of the subdomain's block grid
    (``meshing.dissect``): ``free_nodes`` lists the node of each dof, and
    the numbering is the elimination order of every LU on these dofs.
    ``interface_dofs`` lists the dof of each interface node in trace order,
    -1 where constrained. ``R`` is the 0/1 trace operator (interface nodes x
    dofs): the trace of u is ``R @ u``, the lift of an interface vector v is
    its adjoint ``R.T @ v``.
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


def build_dofmap(mesh: CoupledMesh, subdomain: str) -> DofMap:
    if subdomain not in ("f", "s"):
        raise ValueError(f"unknown subdomain {subdomain!r}")
    nodes = dissect(getattr(mesh, "grid_" + subdomain))
    free = nodes[~np.isin(nodes, getattr(mesh, "exterior_dirichlet_" + subdomain))]
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int32 if mesh.n_nodes < 2**31 else np.int64)
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
    """The (nt, 3, 3) element blocks summed into a matrix over the free dofs.

    A per-triangle mask picks the (i, j) entries whose two vertices both carry
    a dof, in the blocks' own order, straight from the blocks and the
    broadcast int32 dof numbers: the triplets hold the kept entries only, and
    no full-length copy of them is made first.
    """
    dof = dofmap.node_to_dof[tris]
    free = dof >= 0
    keep = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(dof[:, :, None], blocks.shape)[keep]
    cols = np.broadcast_to(dof[:, None, :], blocks.shape)[keep]
    n = dofmap.n_dofs
    return from_triplets(n, n, (rows, cols, blocks[keep]))


def assemble_mass(dofmap: DofMap, geometry=None) -> sp.csr_array:
    """Consistent mass matrix over the dofmap's free dofs.

    ``geometry`` is the subdomain's ``element_geometry`` output, if the caller
    already has it (so mass and stiffness can share one call).
    """
    tris = subdomain_triangles(dofmap.mesh, dofmap.subdomain)
    areas, _ = geometry or element_geometry(dofmap.mesh.nodes, tris)
    return _scatter_blocks(element_mass(areas), tris, dofmap)


def assemble_stiffness(dofmap: DofMap, geometry=None) -> sp.csr_array:
    """Stiffness matrix (grad, grad) over the dofmap's free dofs; ``geometry``
    as in ``assemble_mass``."""
    tris = subdomain_triangles(dofmap.mesh, dofmap.subdomain)
    areas, grads = geometry or element_geometry(dofmap.mesh.nodes, tris)
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

    ``rule=None`` gives (tris, areas, G): G is the CSR P1 gradient operator,
    (2 nt, n_nodes) with rows x components then y components, so
    ``G @ nodal_values(dofmap, u)`` is each triangle's constant gradient.
    ``rule="load"`` gives ``_load_operator``'s x, y, P; it takes its areas from
    ``signed_areas``, the same arithmetic as ``element_geometry``'s, so a run
    that computes no norm builds no G. Vertex coordinates and norm points are
    not kept: more peak memory.
    """
    key = (subdomain, rule)
    data = mesh._cache.get(key)
    if data is None:
        if rule is None:
            tris = subdomain_triangles(mesh, subdomain)
            areas, grads = element_geometry(mesh.nodes, tris)
            nt = len(tris)
            # three entries per row, in the triangle's vertex order: built as CSR, no sort
            G = sp.csr_array((grads.transpose(2, 0, 1).ravel(),
                              np.tile(tris, (2, 1)).ravel().astype(np.int32),
                              np.arange(0, 6 * nt + 1, 3, dtype=np.int32)),
                             shape=(2 * nt, mesh.n_nodes))
            data = (tris, areas, G)
        else:
            tris = subdomain_triangles(mesh, subdomain)
            data = _load_operator(mesh, tris, signed_areas(mesh.nodes, tris))
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


def assemble_load(dofmap: DofMap, f, t: float) -> np.ndarray:
    """Load vector (f(., t), phi_i) with a quadrature exact for degree <= 2."""
    x, y, P = _quad_data(dofmap.mesh, dofmap.subdomain, "load")
    fvals = np.broadcast_to(np.asarray(f(x, y, t), dtype=float), x.shape)
    return (P @ fvals)[dofmap.free_nodes]


def interpolate(dofmap: DofMap, fn, t: float) -> np.ndarray:
    """Nodal interpolant of fn(x, y, t) on the free dofs."""
    xy = dofmap.mesh.nodes[dofmap.free_nodes]
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
    """Per block of 16384 triangles: its slice and, for each degree-4 point,
    the weight, barycentric coordinates, x and y.

    Blocks keep each pass's arrays in cache and bound the memory the norms add
    on the finest mesh.
    """
    px, py = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]
    for blk in (slice(s, s + 16384) for s in range(0, len(tris), 16384)):
        yield blk, [(w, b, px[blk] @ b, py[blk] @ b) for w, b in zip(QUAD_DEG4_W, QUAD_DEG4_BARY)]


def l2_error(dofmap: DofMap, u: np.ndarray, exact, t: float) -> float:
    """L2 norm of (u - exact(., t)) over the dofmap's subdomain (degree-4 quadrature)."""
    tris, areas, _ = _quad_data(dofmap.mesh, dofmap.subdomain)
    uh = nodal_values(dofmap, u)[tris]
    acc = np.zeros(tris.shape[0])
    for blk, points in _norm_points(dofmap.mesh, tris):
        for w, b, x, y in points:
            d = uh[blk] @ b - exact(x, y, t)
            acc[blk] += w * (d * d)
    return float(np.sqrt(max(areas @ acc, 0.0)))


def gradient_profile(dofmap: DofMap, exact_gradient, t: float):
    """exact_gradient(., t) on the dofmap's subdomain as (m, spread).

    m, of shape (2, nt), is each triangle's weighted mean of the gradient over
    the degree-4 points; spread is sum_T area_T sum_p w_p |g(x_p) - m_T|^2.
    A P1 gradient g_h is constant per triangle, so with W = sum_p w_p

        sum_p w_p |g_h - s g(x_p)|^2 = W |g_h - s m_T|^2 + s^2 sum_p w_p |g(x_p) - m_T|^2

    and ``h1_semi_error`` needs nothing else. The spread is summed from
    squared deviations, never as sum w|g|^2 - W|m|^2, which cancels digits.
    A caller whose gradient is e^{rate t} g(x, y) builds the profile once and
    passes e^{rate t} as the scale at each t.
    """
    tris, areas, _ = _quad_data(dofmap.mesh, dofmap.subdomain)
    m = np.empty((2, len(tris)))
    spread = 0.0
    for blk, points in _norm_points(dofmap.mesh, tris):
        g = [np.array([np.broadcast_to(c, x.shape) for c in exact_gradient(x, y, t)])
             for *_, x, y in points]
        # the mean as an offset from the first point: exactly g for a constant gradient
        mean = g[0] + sum(w * (gp - g[0]) for w, gp in zip(QUAD_DEG4_W, g)) / _W
        dev = sum(w * np.square(gp - mean).sum(0) for w, gp in zip(QUAD_DEG4_W, g))
        m[:, blk] = mean
        spread += float(areas[blk] @ dev)
    return m, spread


def h1_semi_error(dofmap: DofMap, u: np.ndarray, profile, scale: float) -> float:
    """L2 norm of grad(u) - scale * gradient over the dofmap's subdomain.

    ``profile`` is a ``gradient_profile`` (m, spread) of the same dofmap: one
    sparse matvec gives the gradient of u per triangle, and the closed form
    there adds scale^2 * spread to the area-weighted |grad(u) - scale * m|^2.
    """
    _, areas, G = _quad_data(dofmap.mesh, dofmap.subdomain)
    m, spread = profile
    d = G @ nodal_values(dofmap, u)
    d -= scale * m.ravel()
    acc = _W * float((np.square(d, out=d).reshape(2, -1) @ areas).sum()) + scale**2 * spread
    return float(np.sqrt(max(acc, 0.0)))
