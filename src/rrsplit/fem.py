"""Piecewise-linear conforming finite elements on the coupled mesh.

Assembly of mass/stiffness/interface-mass operators over the free degrees
of freedom of one subdomain, load vectors by quadrature, nodal trace
restriction onto the interface, and quadrature error norms against smooth
exact fields. Every function works on blocks of ``BLOCK`` triangles and keeps
nothing between calls. Mass and stiffness are sums of sparse products
B^T diag(w) B over the blocks (B: a block's triangle-to-dof incidence or P1
gradient operator). The L2 norm evaluates its exact field per call. The H1
seminorm reads the exact gradient from a profile built once
(``gradient_profile``): the P1 gradient operator on the free dofs, the
per-triangle means of the gradient at the quadrature points and one scalar
spread about them. Each call scales the profile, as a load vector assembled
once is scaled per step (``coupling.SourceData.assemble``), and gets the
discrete gradient from one sparse matvec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import CoupledMesh, dissect, signed_areas
from .sparse import from_triplets

# Degree-4 six-point rule for norms (loads use side midpoints, see assemble_load).
_a, _b = 0.445948490915965, 0.108103018168070
_c, _d = 0.091576213509771, 0.816847572980459
QUAD_DEG4_BARY = np.array(
    [[_a, _a, _b], [_a, _b, _a], [_b, _a, _a], [_c, _c, _d], [_c, _d, _c], [_d, _c, _c]]
)
QUAD_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_W = float(QUAD_DEG4_W.sum())
# Assembly, loads, the gradient profile and the norms visit a subdomain in blocks of
# at most this many triangles, so their temporaries stay small beside the LUs.
BLOCK = 16384


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
    its adjoint ``R.T @ v``. ``nodes`` is the mesh's node array and
    ``triangles`` the subdomain's, both by reference, so a DofMap holds what
    its assembly, loads and norms read without holding the mesh.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_to_dof: np.ndarray
    free_nodes: np.ndarray
    interface_dofs: np.ndarray
    R: sp.csr_array

    @property
    def n_dofs(self) -> int:
        return int(self.free_nodes.size)


def build_dofmap(mesh: CoupledMesh, subdomain: str) -> DofMap:
    if subdomain not in ("f", "s"):
        raise ValueError(f"unknown subdomain {subdomain!r}")
    nodes = dissect(getattr(mesh, "grid_" + subdomain))
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    constrained[getattr(mesh, "exterior_dirichlet_" + subdomain)] = True
    free = nodes[~constrained[nodes]]
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int32 if mesh.n_nodes < 2**31 else np.int64)
    node_to_dof[free] = np.arange(free.size)
    idofs = node_to_dof[mesh.interface_nodes]
    carried = np.flatnonzero(idofs >= 0)
    return DofMap(
        nodes=mesh.nodes,
        triangles=getattr(mesh, "triangles_" + subdomain),
        node_to_dof=node_to_dof,
        free_nodes=free,
        interface_dofs=idofs,
        R=from_triplets(idofs.size, free.size, (carried, idofs[carried], np.ones(carried.size))),
    )


def _blocks(tris: np.ndarray):
    """Slices of at most BLOCK triangles covering ``tris`` in order."""
    return (slice(s, s + BLOCK) for s in range(0, len(tris), BLOCK))


def _gradients(nodes: np.ndarray, tris: np.ndarray):
    """Per block of triangles: its slice, its areas (``signed_areas``) and its P1
    basis gradients gx, gy, each (nb, 3) with column i for local vertex i."""
    for blk in _blocks(tris):
        areas = signed_areas(nodes, tris[blk])
        x, y = nodes[:, 0][tris[blk]], nodes[:, 1][tris[blk]]
        det = (2.0 * areas)[:, None]
        yield (blk, areas, (y[:, [1, 2, 0]] - y[:, [2, 0, 1]]) / det,
               (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / det)


def _vertex_operator(cols: np.ndarray, n_cols: int, *values) -> sp.csr_array:
    """CSR with one row per triangle and ``values`` array: row j nt + t holds
    values[j][t, i] in column cols[t, i] for each local vertex i with
    cols[t, i] >= 0, so constrained vertices drop out."""
    keep, k = cols >= 0, len(values)
    indptr = np.zeros(k * len(cols) + 1, dtype=cols.dtype)
    np.cumsum(np.tile(keep.sum(1), k), out=indptr[1:])
    data = np.concatenate([v[keep] for v in values])
    return sp.csr_array((data, np.tile(cols[keep], k), indptr), shape=(k * len(cols), n_cols))


def _gram(B: sp.csr_array, w: np.ndarray) -> sp.csr_array:
    """B^T diag(w) B; the product stores no exact zero."""
    wB = sp.csr_array((np.repeat(w, np.diff(B.indptr)) * B.data, B.indices, B.indptr),
                      shape=B.shape)
    return B.T.tocsr() @ wB


def assemble_mass(dofmap: DofMap) -> sp.csr_array:
    """Consistent mass matrix over the dofmap's free dofs.

    A triangle's block is area/12 (1 + delta_ij), so M = P + diag(P), with P
    the sum over blocks of triangles of S^T diag(area/12) S and S the block's
    0/1 triangle-to-dof incidence.
    """
    tris, n = dofmap.triangles, dofmap.n_dofs
    P = sp.csr_array((n, n))
    for blk in _blocks(tris):
        S = _vertex_operator(dofmap.node_to_dof[tris[blk]], n, np.ones((len(tris[blk]), 3)))
        P = P + _gram(S, signed_areas(dofmap.nodes, tris[blk]) / 12.0)
    M = P + sp.diags_array(P.diagonal())
    M.sort_indices()
    return M


def assemble_stiffness(dofmap: DofMap) -> sp.csr_array:
    """Stiffness matrix (grad, grad) over the dofmap's free dofs.

    The sum over blocks of triangles of G^T diag(area, area) G, with G the
    block's P1 gradient operator on the free dofs (x rows, then y rows). Exact
    zeros, such as the couplings across the diagonals of a uniform grid, are
    not stored.
    """
    tris, n = dofmap.triangles, dofmap.n_dofs
    K = sp.csr_array((n, n))
    for blk, areas, gx, gy in _gradients(dofmap.nodes, tris):
        G = _vertex_operator(dofmap.node_to_dof[tris[blk]], n, gx, gy)
        K = K + _gram(G, np.tile(areas, 2))
    K.sort_indices()
    return K


def assemble_interface_mass(mesh: CoupledMesh) -> sp.csr_array:
    """Tridiagonal interface mass matrix over interface nodes in trace order."""
    pts = mesh.nodes[mesh.interface_nodes]
    lengths = np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(axis=1))
    main = np.append(lengths / 3.0, 0.0) + np.insert(lengths / 3.0, 0, 0.0)
    return sp.diags_array([lengths / 6.0, main, lengths / 6.0], offsets=(-1, 0, 1), format="csr")


def assemble_load(dofmap: DofMap, f, t: float) -> np.ndarray:
    """Load vector (f(., t), phi_i) with a quadrature exact for degree <= 2.

    The rule weighs each side midpoint of a triangle by area/3 and the basis
    functions of the side's two ends by 1/2 there, so each vertex gets area/6
    times f at the midpoints of its two sides. f is evaluated once per block of
    triangles, at each triangle's three side midpoints.
    """
    nodes, tris = dofmap.nodes, dofmap.triangles
    b = np.zeros(dofmap.n_dofs)
    for blk in _blocks(tris):
        # side j joins vertices j and j + 1 (mod 3); 0.5 * (p + q) is bit-identical to
        # the barycentric product 0.5 p + 0.5 q
        x, y = (nodes[:, c][tris[blk]] for c in (0, 1))
        mx, my = 0.5 * (x + x[:, [1, 2, 0]]), 0.5 * (y + y[:, [1, 2, 0]])
        fm = np.broadcast_to(np.asarray(f(mx, my, t), dtype=float), mx.shape)
        w = (signed_areas(nodes, tris[blk]) / 6.0)[:, None] * (fm + fm[:, [2, 0, 1]])
        cols = dofmap.node_to_dof[tris[blk]]
        keep = cols >= 0
        b += np.bincount(cols[keep], w[keep], dofmap.n_dofs)
    return b


def interpolate(dofmap: DofMap, fn, t: float) -> np.ndarray:
    """Nodal interpolant of fn(x, y, t) on the free dofs."""
    xy = dofmap.nodes[dofmap.free_nodes]
    vals = np.asarray(fn(xy[:, 0], xy[:, 1], t), dtype=float)
    return np.broadcast_to(vals, (dofmap.n_dofs,)).copy()


def nodal_values(dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """Coefficients expanded over all mesh nodes (zero at constrained nodes)."""
    out = np.zeros(len(dofmap.nodes))
    out[dofmap.free_nodes] = u
    return out


def trace_restrict(dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """Values at interface nodes in trace order; zero where the node is constrained."""
    return dofmap.R @ u


def _norm_points(nodes: np.ndarray, tris: np.ndarray) -> list:
    """For each degree-4 point of a block of triangles: the weight, barycentric
    coordinates, x and y."""
    px, py = nodes[:, 0][tris], nodes[:, 1][tris]
    return [(w, b, px @ b, py @ b) for w, b in zip(QUAD_DEG4_W, QUAD_DEG4_BARY)]


def l2_error(dofmap: DofMap, u: np.ndarray, exact, t: float) -> float:
    """L2 norm of (u - exact(., t)) over the dofmap's subdomain (degree-4 quadrature)."""
    nodes, tris = dofmap.nodes, dofmap.triangles
    uh, acc = nodal_values(dofmap, u), 0.0
    for blk in _blocks(tris):
        ub = uh[tris[blk]]
        dev = sum(w * np.square(ub @ b - exact(x, y, t))
                  for w, b, x, y in _norm_points(nodes, tris[blk]))
        acc += float(signed_areas(nodes, tris[blk]) @ dev)
    return float(np.sqrt(max(acc, 0.0)))


def gradient_profile(dofmap: DofMap, exact_gradient, t: float):
    """exact_gradient(., t) on the dofmap's subdomain as (G, areas, m, spread).

    G is the P1 gradient operator on the free dofs, (2 nt, n_dofs) with x rows
    then y rows, built block by block as the stiffness is, so ``G @ u`` is each
    triangle's constant gradient of u. m, of shape (2, nt), is each triangle's
    weighted mean of the gradient over the degree-4 points; spread is
    sum_T area_T sum_p w_p |g(x_p) - m_T|^2. A P1 gradient g_h is constant per
    triangle, so with W = sum_p w_p

        sum_p w_p |g_h - s g(x_p)|^2 = W |g_h - s m_T|^2 + s^2 sum_p w_p |g(x_p) - m_T|^2

    and ``h1_semi_error`` needs nothing else. The spread is summed from
    squared deviations, never as sum w|g|^2 - W|m|^2, which cancels digits.
    A caller whose gradient is e^{rate t} g(x, y) builds the profile once and
    passes e^{rate t} as the scale at each t.
    """
    nodes, tris = dofmap.nodes, dofmap.triangles
    areas, m, spread = np.empty(len(tris)), np.empty((2, len(tris))), 0.0
    Gx, Gy = [], []
    for blk, a, gx, gy in _gradients(nodes, tris):
        cols = dofmap.node_to_dof[tris[blk]]
        Gx.append(_vertex_operator(cols, dofmap.n_dofs, gx))
        Gy.append(_vertex_operator(cols, dofmap.n_dofs, gy))
        g = [np.array([np.broadcast_to(c, x.shape) for c in exact_gradient(x, y, t)])
             for *_, x, y in _norm_points(nodes, tris[blk])]
        # the mean as an offset from the first point: exactly g for a constant gradient
        mean = g[0] + sum(w * (gp - g[0]) for w, gp in zip(QUAD_DEG4_W, g)) / _W
        dev = sum(w * np.square(gp - mean).sum(0) for w, gp in zip(QUAD_DEG4_W, g))
        areas[blk], m[:, blk] = a, mean
        spread += float(a @ dev)
    return sp.vstack(Gx + Gy, format="csr"), areas, m, spread


def h1_semi_error(u: np.ndarray, profile, scale: float) -> float:
    """L2 norm of grad(u) - scale * gradient over the subdomain of u's dofs.

    ``profile`` is a ``gradient_profile`` (G, areas, m, spread) of those dofs:
    one sparse matvec gives the gradient of u per triangle, and the closed form
    there adds scale^2 * spread to the area-weighted |grad(u) - scale * m|^2.
    """
    G, areas, m, spread = profile
    d = G @ u
    d -= scale * m.ravel()
    acc = _W * float((np.square(d, out=d).reshape(2, -1) @ areas).sum()) + scale**2 * spread
    return float(np.sqrt(max(acc, 0.0)))
