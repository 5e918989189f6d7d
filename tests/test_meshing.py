"""Tests for the two mesh families, checked by a mesh validator."""

import hashlib
import math

import meshes
import numpy as np
import pytest

from rrsplit import fem, meshing
from rrsplit.meshing import (
    InterfaceGeometry,
    signed_areas,
    slanted_interface_mesh,
    uniform_split_mesh,
)

TOL = 1e-12


def validate(mesh) -> list[str]:
    """Check mesh invariants; returns a list of violations (empty means valid)."""
    problems = []
    for name, tris in (("fluid", mesh.triangles_f), ("solid", mesh.triangles_s)):
        areas = signed_areas(mesh.nodes, tris)
        bad = np.flatnonzero(areas <= 0.0)
        for t in bad:
            problems.append(f"{name} triangle {t} has non-positive area {areas[t]:.3e}")
    total = float(signed_areas(mesh.nodes, mesh.triangles_f).sum()
                  + signed_areas(mesh.nodes, mesh.triangles_s).sum())
    if abs(total - 1.0) > TOL:
        problems.append(f"subdomain areas sum to {total!r}, expected 1")

    pts = mesh.nodes[mesh.interface_nodes]
    off = np.abs(pts[:, 1] - mesh.geometry.curve_y(pts[:, 0]))
    for k in np.flatnonzero(off > TOL):
        problems.append(
            f"interface node {mesh.interface_nodes[k]} off the interface line by {off[k]:.3e}"
        )

    for name, tris in (("fluid", mesh.triangles_f), ("solid", mesh.triangles_s)):
        missing = np.setdiff1d(mesh.interface_nodes, np.unique(tris))
        for node in missing:
            problems.append(f"interface node {node} missing from the {name} triangulation")

    boundary = meshes.square_boundary_mask(mesh.nodes)
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
    length = math.hypot(1.0, mesh.geometry.slope)
    if abs(seg_len - length) > TOL:
        problems.append(f"interface segments sum to {seg_len!r}, expected {length!r}")

    for name, grid, tris in (("fluid", mesh.grid_f, mesh.triangles_f),
                             ("solid", mesh.grid_s, mesh.triangles_s)):
        if not np.array_equal(np.sort(meshing.dissect(grid)), np.unique(tris)):
            problems.append(f"{name} dissection is not a permutation of the block's nodes")
    return problems


# (level, h_max) targets for the slanted family; generator must land within +-50%
SLANTED_HMAX_TARGETS = [0.3125, 0.1574, 0.0794, 0.0398, 0.0199]


class TestUniformSplitMesh:
    def test_interface_nodes_on_three_quarters(self):
        mesh = uniform_split_mesh(4)
        pts = mesh.nodes[mesh.interface_nodes]
        assert pts.shape[0] == 5
        np.testing.assert_allclose(pts[:, 1], 0.75)
        np.testing.assert_allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_fluid_area_is_three_quarters(self):
        mesh = uniform_split_mesh(4)
        assert signed_areas(mesh.nodes, mesh.triangles_f).sum() == pytest.approx(0.75, abs=1e-12)
        assert signed_areas(mesh.nodes, mesh.triangles_s).sum() == pytest.approx(0.25, abs=1e-12)

    def test_interface_nodes_in_both_triangulations(self):
        mesh = uniform_split_mesh(4)
        for tris in (mesh.triangles_f, mesh.triangles_s):
            present = np.unique(tris)
            assert np.all(np.isin(mesh.interface_nodes, present))

    def test_h_max_n8(self):
        assert uniform_split_mesh(8).h_max == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-12)

    def test_odd_n_still_places_interface_row(self):
        mesh = uniform_split_mesh(5)
        assert validate(mesh) == []

    def test_interface_endpoints_are_dirichlet(self):
        mesh = uniform_split_mesh(4)
        ends = [mesh.interface_nodes[0], mesh.interface_nodes[-1]]
        assert np.all(np.isin(ends, mesh.exterior_dirichlet_f))
        assert np.all(np.isin(ends, mesh.exterior_dirichlet_s))

    def test_refinement_ratio(self):
        h = [uniform_split_mesh(n).h_max for n in (4, 8, 16)]
        for a, b in zip(h, h[1:]):
            assert 1.6 <= a / b <= 2.6

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            uniform_split_mesh(1)

    def test_n_above_the_finest_slanted_size(self, monkeypatch):
        # rejected before anything is allocated
        def unreachable(*args):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(meshing, "_two_block_mesh", unreachable)
        for n in (4097, 10**6):
            with pytest.raises(ValueError, match="2 <= n <= 4096"):
                uniform_split_mesh(n)


class TestSlantedInterfaceMesh:
    @pytest.mark.parametrize("level,target", list(enumerate(SLANTED_HMAX_TARGETS)))
    def test_h_max_near_targets(self, level, target):
        mesh = slanted_interface_mesh(level)
        assert 0.5 * target <= mesh.h_max <= 1.5 * target

    @pytest.mark.parametrize("level", [0, 2])
    def test_interface_nodes_on_line(self, level):
        mesh = slanted_interface_mesh(level)
        pts = mesh.nodes[mesh.interface_nodes]
        assert np.abs(pts[:, 1] - (pts[:, 0] / 2.0 + 0.25)).max() <= 1e-12

    def test_valid_and_matched(self):
        assert validate(slanted_interface_mesh(1)) == []

    def test_refinement_ratio(self):
        h = [slanted_interface_mesh(level).h_max for level in (0, 1, 2)]
        for a, b in zip(h, h[1:]):
            assert 1.6 <= a / b <= 2.6

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            slanted_interface_mesh(-1)
        with pytest.raises(ValueError):
            slanted_interface_mesh(11)


# sha256 prefixes of nodes, triangles_f, triangles_s, interface_nodes and the two
# Dirichlet sets, then h_max; recorded before both families moved to one builder
MESH_FINGERPRINTS = {
    ("uniform", 2): ("9e56786190fe6353", "8c0fd26e8053c0f5", "d2e866314e6b6985",
                     "239b893ce036f83d", "0bc861556876d889", "cbadd4c5c3201656", 0.625),
    ("uniform", 3): ("306107c327917ffb", "6caf66633d003d8a", "a9f4fd18168f39d2",
                     "0fa8ed3fec0deaf6", "1a91401c958e96a8", "e8fc4d33fd2d4b35",
                     0.4166666666666667),
    ("uniform", 5): ("cf98dce1acc7bc40", "175b47ee74dfa1fd", "8f26854319980a32",
                     "9c24081f3ab65838", "96e7701f5ba2cf06", "22602583f95b0ab7",
                     0.27414640249326644),
    ("uniform", 8): ("148418ec2093039d", "c5005af92f203e8c", "76c7e02e30a3bb1f",
                     "a3b921d2d6ca52ee", "00bd383376821b9e", "5f8073808e9b76bc",
                     0.1767766952966369),
    ("slanted", 0): ("f3458cd5e5de2bfe", "ce8a17c3737fde87", "98088c297c012eb8",
                     "1e678e0dbd27fcaa", "1a5d02ed4fe130e5", "4031e3a61d5f80e7",
                     0.29481191037676885),
    ("slanted", 1): ("0cac6be8025581f4", "eb153ffe606027f1", "572b31b7e04fa1c5",
                     "cc01db1137ca828b", "64da2fe7f4968453", "90ed766941ddf2fb",
                     0.15169131124177812),
    ("slanted", 2): ("54165c34306fc5f5", "bf1a5a4f90234000", "65439b3d02d772da",
                     "03b6751b5a060119", "32b55faefc883b03", "9cc843de44ec0f0e",
                     0.07696898630952356),
}


@pytest.mark.parametrize("family, size", sorted(MESH_FINGERPRINTS))
def test_mesh_fingerprints(family, size):
    mesh = uniform_split_mesh(size) if family == "uniform" else slanted_interface_mesh(size)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
                for a in (mesh.nodes, mesh.triangles_f, mesh.triangles_s, mesh.interface_nodes,
                          mesh.exterior_dirichlet_f, mesh.exterior_dirichlet_s))
    assert got + (mesh.h_max,) == MESH_FINGERPRINTS[family, size]


# sha256 prefixes of nodes, triangles_f and triangles_s at sizes past MESH_FINGERPRINTS,
# recorded while _two_block_mesh still gathered nodes[tris]
LARGE_MESH_FINGERPRINTS = {
    ("uniform", 37): ("b11c87b4a100e770", "6c30eb2fbfc8d94b", "389fb5eea7a7b5a7"),
    ("uniform", 256): ("cc0577cb3c8bfd4c", "351a7990f1a8507b", "0c2eac5ea807c184"),
    ("slanted", 4): ("7f320071bccfe65d", "1c4ca04a61a2a04b", "eccce1fb25438615"),
    ("slanted", 6): ("20b3cb5b9c140781", "a2bee5fdbda15604", "be3040c00a689d21"),
}


@pytest.mark.parametrize("family, size", sorted(LARGE_MESH_FINGERPRINTS))
def test_set_up_matches_gather_reference(family, size):
    """Column-form geometry, grid-read Dirichlet sets and masked dofmaps, bit for bit."""
    mesh = uniform_split_mesh(size) if family == "uniform" else slanted_interface_mesh(size)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
                for a in (mesh.nodes, mesh.triangles_f, mesh.triangles_s))
    assert got == LARGE_MESH_FINGERPRINTS[family, size]
    for dirichlet, want in zip((mesh.exterior_dirichlet_f, mesh.exterior_dirichlet_s),
                               meshes.dirichlet_sets(mesh)):
        assert dirichlet.dtype == want.dtype and np.array_equal(dirichlet, want)
    assert mesh.h_max == max(meshes.max_edge(mesh.nodes, tris)
                             for tris in (mesh.triangles_f, mesh.triangles_s))
    for sub, tris in (("f", mesh.triangles_f), ("s", mesh.triangles_s)):
        for blk in range(0, len(tris), fem.BLOCK):
            block = tris[blk:blk + fem.BLOCK]
            assert (signed_areas(mesh.nodes, block).tobytes()
                    == meshes.signed_areas(mesh.nodes, block).tobytes())
        free = fem.build_dofmap(mesh, sub).free_nodes
        want = meshes.free_nodes(mesh, sub)
        assert free.dtype == want.dtype and np.array_equal(free, want)


class TestInterfaceLength:
    def test_horizontal_segments_sum_to_one(self):
        mesh = uniform_split_mesh(6)
        seg = mesh.nodes[mesh.interface_segments]
        total = np.sqrt(((seg[:, 1] - seg[:, 0]) ** 2).sum(axis=1)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_slanted_segments_sum_to_clipped_length(self):
        mesh = slanted_interface_mesh(1)
        seg = mesh.nodes[mesh.interface_segments]
        total = np.sqrt(((seg[:, 1] - seg[:, 0]) ** 2).sum(axis=1)).sum()
        assert total == pytest.approx(math.sqrt(1.25), abs=1e-12)


class TestValidate:
    def test_clean_mesh_is_clean(self):
        assert validate(uniform_split_mesh(4)) == []

    def test_flipped_triangle_reported(self):
        mesh = uniform_split_mesh(4)
        mesh.triangles_f[0] = mesh.triangles_f[0][::-1]
        assert any("area" in v for v in validate(mesh))

    def test_perturbed_interface_node_reported(self):
        mesh = uniform_split_mesh(4)
        mesh.nodes[mesh.interface_nodes[2], 1] += 1e-6
        assert any("off the interface" in v for v in validate(mesh))

    def test_block_grid_off_its_triangles_reported(self):
        mesh = uniform_split_mesh(4)
        mesh.grid_s = mesh.grid_s[1:]  # the interface row dropped from the solid block
        assert validate(mesh) == ["solid dissection is not a permutation of the block's nodes"]

    def test_messages_print_plain_floats(self):
        # under numpy 2 the repr of a numpy scalar reads np.float64(...)
        mesh = uniform_split_mesh(4)
        mesh.nodes[0, 0] -= 0.1
        mesh.nodes[mesh.interface_nodes[1], 0] += 0.3
        problems = validate(mesh)
        assert "subdomain areas sum to 1.0125, expected 1" in problems
        assert "interface segments sum to 1.1, expected 1.0" in problems
        assert not [v for v in problems if "np.float64" in v]


class TestGeometry:
    def test_horizontal_normal(self):
        # bitwise, with a positive zero: the closures' signs of zero follow it
        n = InterfaceGeometry.horizontal().normal_f()
        assert n.tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_slanted_normal_unit_and_upward(self):
        n = InterfaceGeometry.slanted().normal_f()
        assert np.linalg.norm(n) == pytest.approx(1.0)
        np.testing.assert_allclose(n, np.array([-1.0, 2.0]) / math.sqrt(5.0))
