"""Coupled two-subdomain triangulations of the unit square with matched interface traces.

Two families are provided: a structured grid split by the horizontal line
y = 3/4, and a mapped non-uniform grid matched to the slanted line
y = x/2 + 1/4, both made by one two-block builder. Both subdomains share
one node array; interface nodes are literally the same node ids in both
triangulations. Each block keeps its node ids as a grid, from which
``dissect`` derives a nested-dissection order; ``fem.build_dofmap`` numbers
each subdomain's dofs in it, so every LU eliminates in that order.
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


@dataclass
class CoupledMesh:
    """Two conforming triangulations sharing interface nodes.

    ``triangles_f`` covers the lower subdomain, ``triangles_s`` the upper;
    both index into the shared ``nodes`` array. ``interface_nodes`` is
    ordered by increasing x, and ``exterior_dirichlet_*`` lists the nodes of
    each subdomain on the outer boundary of the square (the points where the
    interface meets the boundary belong to both sets). ``grid_f`` and
    ``grid_s`` hold each block's node ids row by row, bottom row first; both
    include the interface row. ``h_max``, the longest triangle edge, is
    computed when read.
    """

    nodes: np.ndarray
    triangles_f: np.ndarray
    triangles_s: np.ndarray
    exterior_dirichlet_f: np.ndarray
    exterior_dirichlet_s: np.ndarray
    interface_nodes: np.ndarray
    interface_segments: np.ndarray
    geometry: InterfaceGeometry
    grid_f: np.ndarray
    grid_s: np.ndarray
    # built on first use: coupling's dt-independent operators (coupling._mesh_operators)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def h_max(self) -> float:
        return max(_max_edge(self.nodes, tris) for tris in (self.triangles_f, self.triangles_s))


def signed_areas(nodes, tris):
    """Signed triangle areas, positive for counterclockwise vertices."""
    x, y = nodes[:, 0][tris], nodes[:, 1][tris]
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def _max_edge(nodes, tris):
    x, y = nodes[:, 0][tris], nodes[:, 1][tris]
    dx, dy = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
    return float(np.sqrt(dx**2 + dy**2).max())


def _split_cells(grid, nodes):
    """Split the quad cells of a node id grid into CCW triangles.

    Each cell's corners a, b, c, d run counterclockwise from its lower left;
    the cell is cut along its shorter diagonal (ties take a-c).
    """
    a, b = grid[:-1, :-1].ravel(), grid[:-1, 1:].ravel()
    c, d = grid[1:, 1:].ravel(), grid[1:, :-1].ravel()
    x, y = nodes[:, 0], nodes[:, 1]
    ac = (x[a] - x[c]) ** 2 + (y[a] - y[c]) ** 2
    bd = (x[b] - x[d]) ** 2 + (y[b] - y[d]) ** 2
    use_ac = ac <= bd + _TOL
    t1 = np.where(use_ac[:, None], np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    t2 = np.where(use_ac[:, None], np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))
    return np.concatenate([t1, t2], axis=0)


def _two_block_mesh(n_x: int, m_f: int, m_s: int, geometry: InterfaceGeometry) -> CoupledMesh:
    """Uniform-x grid mapped between the interface line and the bottom (m_f even
    rows) and top (m_s even rows) edges; row m_f of its one id grid is the interface."""
    xs = np.linspace(0.0, 1.0, n_x + 1)
    y_line = geometry.curve_y(xs)
    ys = np.concatenate([np.linspace(0.0, y_line, m_f + 1), np.linspace(y_line, 1.0, m_s + 1)[1:]])
    nodes = np.column_stack([np.tile(xs, m_f + m_s + 1), ys.ravel()])
    ids = np.arange(nodes.shape[0]).reshape(ys.shape)
    grid_f, grid_s = ids[: m_f + 1], ids[m_f:]
    return CoupledMesh(
        nodes=nodes,
        triangles_f=_split_cells(grid_f, nodes),
        triangles_s=_split_cells(grid_s, nodes),
        # the outer boundary: a block's outer row and its first and last columns
        exterior_dirichlet_f=np.unique(np.concatenate([grid_f[0], grid_f[:, 0], grid_f[:, -1]])),
        exterior_dirichlet_s=np.unique(np.concatenate([grid_s[-1], grid_s[:, 0], grid_s[:, -1]])),
        interface_nodes=ids[m_f],
        interface_segments=np.stack([ids[m_f, :-1], ids[m_f, 1:]], axis=1),
        geometry=geometry,
        grid_f=grid_f,
        grid_s=grid_s,
    )


def dissect(grid: np.ndarray) -> np.ndarray:
    """The ids of a node grid in nested-dissection order (George, 1973).

    The middle grid line across the longer side separates the two halves, since
    every cell's diagonal stays inside one half: each half is ordered
    recursively, then the line. Grids of at most 16 nodes go row by row.
    """
    rows, cols = grid.shape
    if rows * cols <= 16:
        return grid.ravel()
    if rows >= cols:
        mid = rows // 2
        return np.concatenate([dissect(grid[:mid]), dissect(grid[mid + 1:]), grid[mid]])
    mid = cols // 2
    return np.concatenate([dissect(grid[:, :mid]), dissect(grid[:, mid + 1:]), grid[:, mid]])


def uniform_split_mesh(n: int) -> CoupledMesh:
    """Structured mesh on the unit square split by the line y = 3/4.

    x spacing is 1/n. The lower subdomain uses ceil(3n/4) rows below y = 3/4
    and the upper one ceil(n/4) rows above, so a node row lands exactly on
    the interface for any n while h stays close to 1/n.
    """
    if not 2 <= n <= 4096:  # the slanted family's finest size, 4 * 2**10 at level 10
        raise ValueError("uniform_split_mesh requires 2 <= n <= 4096")
    return _two_block_mesh(n, math.ceil(3 * n / 4), math.ceil(n / 4), InterfaceGeometry.horizontal())


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
    return _two_block_mesh(m, m, m, InterfaceGeometry.slanted())
