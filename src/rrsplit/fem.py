"""Piecewise-linear conforming finite elements on the coupled mesh.

Assembly of mass/stiffness/interface-mass operators over the free degrees
of freedom of one subdomain, load vectors by quadrature, nodal trace
restriction onto the interface, and quadrature error norms against smooth
exact fields. Mass and stiffness are sums of sparse products B^T diag(w) B
over blocks of ``BLOCK`` triangles (B: a block's triangle-to-dof incidence or
P1 gradient operator). The L2 norm evaluates its exact field per call. The H1
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
# Assembly, the gradient operator and the norms visit a subdomain in blocks of at
# most this many triangles, so their temporaries stay small beside the LUs.
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
    tris, n = subdomain_triangles(dofmap.mesh, dofmap.subdomain), dofmap.n_dofs
    P = sp.csr_array((n, n))
    for blk in _blocks(tris):
        S = _vertex_operator(dofmap.node_to_dof[tris[blk]], n, np.ones((len(tris[blk]), 3)))
        P = P + _gram(S, signed_areas(dofmap.mesh.nodes, tris[blk]) / 12.0)
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
    tris, n = subdomain_triangles(dofmap.mesh, dofmap.subdomain), dofmap.n_dofs
    K = sp.csr_array((n, n))
    for blk, areas, gx, gy in _gradients(dofmap.mesh.nodes, tris):
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


def _quad_data(mesh: CoupledMesh, subdomain: str, rule: str | None = None):
    """Per-subdomain quadrature data, memoized on the mesh and built on first use.

    ``rule=None`` gives (tris, areas, G): G is the CSR P1 gradient operator,
    (2 nt, n_nodes) with rows x components then y components, so
    ``G @ nodal_values(dofmap, u)`` is each triangle's constant gradient.
    G is filled block by block from ``_gradients``, as the stiffness is, so no
    temporary spans the subdomain. ``rule="load"`` gives ``_load_operator``'s
    x, y, P; it takes its areas from ``signed_areas``, as ``_gradients`` does,
    so a run that computes no norm builds no G. Vertex coordinates and norm
    points are not kept: more peak memory.
    """
    key = (subdomain, rule)
    data = mesh._cache.get(key)
    if data is None:
        tris = subdomain_triangles(mesh, subdomain)
        if rule is None:
            nt = len(tris)
            areas, grads = np.empty(nt), np.empty((2, nt, 3))
            for blk, a, gx, gy in _gradients(mesh.nodes, tris):
                areas[blk], grads[0, blk], grads[1, blk] = a, gx, gy
            # three entries per row, in the triangle's vertex order: built as CSR, no sort
            G = sp.csr_array((grads.ravel(), np.tile(tris.astype(np.int32), (2, 1)).ravel(),
                              np.arange(0, 6 * nt + 1, 3, dtype=np.int32)),
                             shape=(2 * nt, mesh.n_nodes))
            data = (tris, areas, G)
        else:
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
    """Per block of triangles: its slice and, for each degree-4 point,
    the weight, barycentric coordinates, x and y.

    Blocks keep each pass's arrays in cache and bound the memory the norms add
    on the finest mesh.
    """
    px, py = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]
    for blk in _blocks(tris):
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
