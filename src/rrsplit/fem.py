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

# Degree-2 rule (edge midpoints) for loads; degree-4 six-point rule for norms.
QUAD_DEG2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QUAD_DEG2_W = np.full(3, 1.0 / 3.0)

_a, _b = 0.445948490915965, 0.108103018168070
_c, _d = 0.091576213509771, 0.816847572980459
QUAD_DEG4_BARY = np.array(
    [[_a, _a, _b], [_a, _b, _a], [_b, _a, _a], [_c, _c, _d], [_c, _d, _c], [_d, _c, _c]]
)
QUAD_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

# load-rule weights w_q phi_i(x_q), indexed [q, i]
_LOAD_WEIGHTS = QUAD_DEG2_W[:, None] * QUAD_DEG2_BARY


@dataclass
class DofMap:
    """Free-node numbering for one subdomain.

    Exterior Dirichlet nodes carry no dof (this includes the two points
    where the interface meets the outer boundary); ``interface_dofs`` lists
    the dof of each interface node in trace order, -1 where constrained.
    """

    subdomain: str
    mesh: CoupledMesh
    node_to_dof: np.ndarray
    free_nodes: np.ndarray
    interface_dofs: np.ndarray

    @property
    def n_dofs(self) -> int:
        return int(self.free_nodes.size)


@dataclass
class Field:
    """Coefficient vector over a subdomain DofMap."""

    dofmap: DofMap
    coefficients: np.ndarray

    @property
    def subdomain(self) -> str:
        return self.dofmap.subdomain

    def copy(self) -> "Field":
        return Field(self.dofmap, self.coefficients.copy())


@dataclass
class TraceField:
    """Coefficient vector over the interface nodes, in trace order."""

    coefficients: np.ndarray

    def copy(self) -> "TraceField":
        return TraceField(self.coefficients.copy())


def subdomain_triangles(mesh: CoupledMesh, subdomain: str) -> np.ndarray:
    if subdomain == "f":
        return mesh.triangles_f
    if subdomain == "s":
        return mesh.triangles_s
    raise ValueError(f"unknown subdomain {subdomain!r}")


def build_dofmap(mesh: CoupledMesh, subdomain: str, include_dirichlet: bool = False) -> DofMap:
    tris = subdomain_triangles(mesh, subdomain)
    sub_nodes = np.unique(tris)
    dirichlet = mesh.exterior_dirichlet_f if subdomain == "f" else mesh.exterior_dirichlet_s
    free = sub_nodes if include_dirichlet else np.setdiff1d(sub_nodes, dirichlet)
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_to_dof[free] = np.arange(free.size)
    return DofMap(
        subdomain=subdomain,
        mesh=mesh,
        node_to_dof=node_to_dof,
        free_nodes=free,
        interface_dofs=node_to_dof[mesh.interface_nodes].copy(),
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


def assemble_mass(mesh: CoupledMesh, subdomain: str, dofmap: DofMap | None = None) -> sp.csr_array:
    """Consistent mass matrix over the free dofs of one subdomain."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    tris = subdomain_triangles(mesh, subdomain)
    areas, _ = element_geometry(mesh.nodes, tris)
    return _scatter_blocks(element_mass(areas), tris, dofmap)


def assemble_stiffness(
    mesh: CoupledMesh, subdomain: str, dofmap: DofMap | None = None
) -> sp.csr_array:
    """Stiffness matrix (grad, grad) over the free dofs of one subdomain."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    tris = subdomain_triangles(mesh, subdomain)
    areas, grads = element_geometry(mesh.nodes, tris)
    return _scatter_blocks(element_stiffness(areas, grads), tris, dofmap)


def segment_mass(length: float) -> np.ndarray:
    """1D P1 mass block of a single interface segment."""
    return (length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])


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

    ``rule=None`` gives (tris, areas, grads); ``rule="load"`` gives the
    points of the degree-2 load rule. The degree-4 norm points are not
    kept (see ``_norm_points``): they would double the memo's memory for
    little time.
    """
    key = (subdomain, rule)
    data = mesh._cache.get(key)
    if data is None:
        if rule is None:
            tris = subdomain_triangles(mesh, subdomain)
            data = (tris, *element_geometry(mesh.nodes, tris))
        else:
            tris = _quad_data(mesh, subdomain)[0]
            # x and y of the points, each (3, nt)
            data = (QUAD_DEG2_BARY @ mesh.nodes[:, 0][tris].T,
                    QUAD_DEG2_BARY @ mesh.nodes[:, 1][tris].T)
        mesh._cache[key] = data
    return data


def assemble_load(
    mesh: CoupledMesh, subdomain: str, f, t: float, dofmap: DofMap | None = None
) -> np.ndarray:
    """Load vector (f(., t), phi_i) with a quadrature exact for degree <= 2."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    tris, areas, _ = _quad_data(mesh, subdomain)
    x, y = _quad_data(mesh, subdomain, "load")
    fvals = np.broadcast_to(np.asarray(f(x, y, t), dtype=float), x.shape)
    # b_e[i] = area * sum_q w_q f(x_q) phi_i(x_q)
    be = (_LOAD_WEIGHTS.T @ fvals) * areas
    dof = dofmap.node_to_dof[tris].T
    keep = dof >= 0
    return np.bincount(dof[keep], weights=be[keep], minlength=dofmap.n_dofs)


def interpolate(
    mesh: CoupledMesh, subdomain: str, fn, t: float, dofmap: DofMap | None = None
) -> Field:
    """Nodal interpolant of fn(x, y, t) on the free dofs."""
    dofmap = dofmap or build_dofmap(mesh, subdomain)
    xy = mesh.nodes[dofmap.free_nodes]
    vals = np.asarray(fn(xy[:, 0], xy[:, 1], t), dtype=float)
    return Field(dofmap, np.broadcast_to(vals, (dofmap.n_dofs,)).copy())


def nodal_values(field: Field) -> np.ndarray:
    """Coefficients expanded over all mesh nodes (zero at constrained nodes)."""
    out = np.zeros(field.dofmap.mesh.n_nodes)
    out[field.dofmap.free_nodes] = field.coefficients
    return out


def trace_restrict(field: Field) -> TraceField:
    """Values at interface nodes in trace order; zero where the node is constrained."""
    idofs = field.dofmap.interface_dofs
    vals = np.where(idofs >= 0, field.coefficients[np.clip(idofs, 0, None)], 0.0)
    return TraceField(vals)


def _norm_points(mesh: CoupledMesh, tris: np.ndarray):
    """Weight, barycentric coordinates, x and y of each degree-4 point in turn.

    Going one point at a time keeps each closure call to one value per
    triangle, which bounds the memory the norms add on the finest mesh.
    """
    px, py = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]
    for w, b in zip(QUAD_DEG4_W, QUAD_DEG4_BARY):
        yield w, b, px @ b, py @ b


def l2_error(mesh: CoupledMesh, field: Field, exact, t: float) -> float:
    """L2 norm of (field - exact(., t)) over the field's subdomain (degree-4 quadrature)."""
    tris, areas, _ = _quad_data(mesh, field.subdomain)
    uh = nodal_values(field)[tris]
    acc = np.zeros(tris.shape[0])
    for w, b, x, y in _norm_points(mesh, tris):
        d = uh @ b - exact(x, y, t)
        acc += w * (d * d)
    return float(np.sqrt(max(areas @ acc, 0.0)))


def h1_semi_error(mesh: CoupledMesh, field: Field, exact_gradient, t: float) -> float:
    """L2 norm of grad(field) - exact_gradient(., t) over the field's subdomain."""
    tris, areas, grads = _quad_data(mesh, field.subdomain)
    ghx, ghy = np.einsum("tb,tbx->xt", nodal_values(field)[tris], grads)
    acc = np.zeros(tris.shape[0])
    for w, _, x, y in _norm_points(mesh, tris):
        gx, gy = exact_gradient(x, y, t)
        dx, dy = ghx - gx, ghy - gy
        acc += w * (dx * dx + dy * dy)
    return float(np.sqrt(max(areas @ acc, 0.0)))
