"""Coupled two-subdomain triangulations of the unit square with matched interface traces.

Two families are provided: a structured grid split by the horizontal line
y = 3/4, and a mapped non-uniform grid matched to the slanted line
y = x/2 + 1/4. Both subdomains share one node array; interface nodes are
literally the same node ids in both triangulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-12


@dataclass(frozen=True)
class InterfaceGeometry:
    """Straight interface line y = slope*x + intercept; ``kind`` names the mesh family."""

    kind: str
    slope: float
    intercept: float

    @staticmethod
    def horizontal() -> "InterfaceGeometry":
        return InterfaceGeometry("horizontal", 0.0, 0.75)

    @staticmethod
    def slanted() -> "InterfaceGeometry":
        return InterfaceGeometry("slanted", 0.5, 0.25)

    def curve_y(self, x):
        """Interface height over x in [0, 1]."""
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def normal_f(self) -> np.ndarray:
        """Unit normal pointing out of the lower subdomain (into the upper one)."""
        # 0.0 - slope keeps the horizontal x component +0.0 (-0.0 would flip
        # the sign of zero fluxes in the case closures)
        n = np.array([0.0 - self.slope, 1.0])
        return n / np.linalg.norm(n)

    def length(self) -> float:
        """Length of the interface clipped to the unit square."""
        return math.sqrt(1.0 + self.slope**2)


@dataclass
class CoupledMesh:
    """Two conforming triangulations sharing interface nodes.

    ``triangles_f`` covers the lower subdomain, ``triangles_s`` the upper;
    both index into the shared ``nodes`` array. ``interface_nodes`` is
    ordered by increasing x, and ``exterior_dirichlet_*`` lists the nodes of
    each subdomain on the outer boundary of the square (the points where the
    interface meets the boundary belong to both sets).
    """

    nodes: np.ndarray
    triangles_f: np.ndarray
    triangles_s: np.ndarray
    exterior_dirichlet_f: np.ndarray
    exterior_dirichlet_s: np.ndarray
    interface_nodes: np.ndarray
    interface_segments: np.ndarray
    h_max: float
    geometry: InterfaceGeometry
    # built on first use: fem's quadrature data, coupling's dt-independent operators
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _signed_areas(nodes, tris):
    p = nodes[tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


def _max_edge(nodes, tris):
    p = nodes[tris]
    e = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.sqrt((e**2).sum(axis=1)).max())


def _split_cells(a, b, c, d, nodes):
    """Split quad cells (corners a,b,c,d counterclockwise) into CCW triangles.

    Each cell is cut along its shorter diagonal (ties take a-c).
    """
    ac = ((nodes[a] - nodes[c]) ** 2).sum(axis=1)
    bd = ((nodes[b] - nodes[d]) ** 2).sum(axis=1)
    use_ac = ac <= bd + _TOL
    t1 = np.where(use_ac[:, None], np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    t2 = np.where(use_ac[:, None], np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))
    return np.concatenate([t1, t2], axis=0)


def _square_boundary_mask(nodes):
    x, y = nodes[:, 0], nodes[:, 1]
    return (
        (np.abs(x) <= _TOL)
        | (np.abs(x - 1.0) <= _TOL)
        | (np.abs(y) <= _TOL)
        | (np.abs(y - 1.0) <= _TOL)
    )


def _assemble_mesh(nodes, cells_f, cells_s, interface_ids, geometry):
    tri_f = _split_cells(*cells_f, nodes)
    tri_s = _split_cells(*cells_s, nodes)
    boundary = _square_boundary_mask(nodes)
    dir_f = np.unique(tri_f[boundary[tri_f]])
    dir_s = np.unique(tri_s[boundary[tri_s]])
    segments = np.stack([interface_ids[:-1], interface_ids[1:]], axis=1)
    h_max = max(_max_edge(nodes, tri_f), _max_edge(nodes, tri_s))
    return CoupledMesh(
        nodes=nodes,
        triangles_f=tri_f,
        triangles_s=tri_s,
        exterior_dirichlet_f=dir_f,
        exterior_dirichlet_s=dir_s,
        interface_nodes=interface_ids,
        interface_segments=segments,
        h_max=h_max,
        geometry=geometry,
    )


def _grid_cells(row_ids):
    """Quad corner ids (a, b, c, d) for all cells of stacked node rows."""
    a = row_ids[:-1, :-1].ravel()
    b = row_ids[:-1, 1:].ravel()
    c = row_ids[1:, 1:].ravel()
    d = row_ids[1:, :-1].ravel()
    return a, b, c, d


def uniform_split_mesh(n: int) -> CoupledMesh:
    """Structured mesh on the unit square split by the line y = 3/4.

    x spacing is 1/n. The lower subdomain uses ceil(3n/4) rows below y = 3/4
    and the upper one ceil(n/4) rows above, so a node row lands exactly on
    the interface for any n while h stays close to 1/n.
    """
    if n < 2:
        raise ValueError("uniform_split_mesh requires n >= 2")
    m_f = math.ceil(3 * n / 4)
    m_s = math.ceil(n / 4)
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.concatenate([np.linspace(0.0, 0.75, m_f + 1), np.linspace(0.75, 1.0, m_s + 1)[1:]])
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange(nodes.shape[0]).reshape(len(ys), n + 1)
    cells_f = _grid_cells(ids[: m_f + 1])
    cells_s = _grid_cells(ids[m_f:])
    interface_ids = ids[m_f]
    return _assemble_mesh(nodes, cells_f, cells_s, interface_ids, InterfaceGeometry.horizontal())


def slanted_interface_mesh(level: int) -> CoupledMesh:
    """Mapped mesh matched to the line y = x/2 + 1/4, refinement halves h per level.

    Each subdomain is a graded stack of quadrilateral strips between the
    line and the outer boundary, 4 * 2**level cells per direction, split
    into triangles. Interface nodes sit exactly on the line at uniform x
    spacing.
    """
    if not 0 <= level <= 10:
        raise ValueError("slanted_interface_mesh level must be in [0, 10]")
    m = 4 * 2**level
    geometry = InterfaceGeometry.slanted()
    xs = np.linspace(0.0, 1.0, m + 1)
    y_line = geometry.slope * xs + geometry.intercept
    eta = np.linspace(0.0, 1.0, m + 1)

    # Lower block rows j = 0..m (row m is the interface), upper rows j = 1..m.
    nodes_f = np.column_stack(
        [np.tile(xs, m + 1), (eta[:, None] * y_line[None, :]).ravel()]
    )
    nodes_s = np.column_stack(
        [
            np.tile(xs, m),
            (y_line[None, :] + eta[1:, None] * (1.0 - y_line[None, :])).ravel(),
        ]
    )
    nodes = np.concatenate([nodes_f, nodes_s])
    n_lower = (m + 1) * (m + 1)
    ids_f = np.arange(n_lower).reshape(m + 1, m + 1)
    ids_s = np.concatenate(
        [ids_f[-1:], n_lower + np.arange(m * (m + 1)).reshape(m, m + 1)]
    )
    cells_f = _grid_cells(ids_f)
    cells_s = _grid_cells(ids_s)
    return _assemble_mesh(nodes, cells_f, cells_s, ids_f[-1], geometry)


def validate(mesh: CoupledMesh) -> list[str]:
    """Check mesh invariants; returns a list of violations (empty means valid)."""
    problems = []
    for name, tris in (("fluid", mesh.triangles_f), ("solid", mesh.triangles_s)):
        areas = _signed_areas(mesh.nodes, tris)
        bad = np.flatnonzero(areas <= 0.0)
        for t in bad:
            problems.append(f"{name} triangle {t} has non-positive area {areas[t]:.3e}")
    total = float(_signed_areas(mesh.nodes, mesh.triangles_f).sum()
                  + _signed_areas(mesh.nodes, mesh.triangles_s).sum())
    if abs(total - 1.0) > _TOL:
        problems.append(f"subdomain areas sum to {total!r}, expected 1")

    pts = mesh.nodes[mesh.interface_nodes]
    off = np.abs(pts[:, 1] - mesh.geometry.curve_y(pts[:, 0]))
    for k in np.flatnonzero(off > _TOL):
        problems.append(
            f"interface node {mesh.interface_nodes[k]} off the interface line by {off[k]:.3e}"
        )

    for name, tris in (("fluid", mesh.triangles_f), ("solid", mesh.triangles_s)):
        missing = np.setdiff1d(mesh.interface_nodes, np.unique(tris))
        for node in missing:
            problems.append(f"interface node {node} missing from the {name} triangulation")

    boundary = _square_boundary_mask(mesh.nodes)
    for name, dirichlet in (
        ("fluid", mesh.exterior_dirichlet_f),
        ("solid", mesh.exterior_dirichlet_s),
    ):
        overlap = np.intersect1d(dirichlet, mesh.interface_nodes)
        stray = overlap[~boundary[overlap]]
        for node in stray:
            problems.append(
                f"{name} Dirichlet set meets the interface at interior node {node}"
            )

    seg = mesh.nodes[mesh.interface_segments]
    seg_len = float(np.sqrt(((seg[:, 1] - seg[:, 0]) ** 2).sum(axis=1)).sum())
    length = float(mesh.geometry.length())
    if abs(seg_len - length) > _TOL:
        problems.append(f"interface segments sum to {seg_len!r}, expected {length!r}")
    return problems


def dump_mesh(mesh: CoupledMesh, path) -> None:
    """Plain-text dump: one record per line, index then fields, space separated."""
    with open(path, "w") as fh:
        fh.write("# nodes: id x y\n")
        for i, (x, y) in enumerate(mesh.nodes.tolist()):
            fh.write(f"{i} {x!r} {y!r}\n")
        for tag, tris in (("triangles_f", mesh.triangles_f), ("triangles_s", mesh.triangles_s)):
            fh.write(f"# {tag}: id n0 n1 n2\n")
            for i, (a, b, c) in enumerate(tris):
                fh.write(f"{i} {a} {b} {c}\n")
        fh.write("# interface_segments: id n0 n1\n")
        for i, (a, b) in enumerate(mesh.interface_segments):
            fh.write(f"{i} {a} {b}\n")
