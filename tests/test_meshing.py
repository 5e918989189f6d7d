"""Tests for the two mesh families and the mesh validator."""

import math

import numpy as np
import pytest

from rrsplit import meshing
from rrsplit.meshing import (
    InterfaceGeometry,
    slanted_interface_mesh,
    uniform_split_mesh,
    validate,
)

# (level, h_max) targets for the slanted family; generator must land within +-50%
SLANTED_HMAX_TARGETS = [0.3125, 0.1574, 0.0794, 0.0398, 0.0199]


def tri_areas(mesh, tris):
    p = mesh.nodes[tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


class TestUniformSplitMesh:
    def test_interface_nodes_on_three_quarters(self):
        mesh = uniform_split_mesh(4)
        pts = mesh.nodes[mesh.interface_nodes]
        assert pts.shape[0] == 5
        np.testing.assert_allclose(pts[:, 1], 0.75)
        np.testing.assert_allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_fluid_area_is_three_quarters(self):
        mesh = uniform_split_mesh(4)
        assert tri_areas(mesh, mesh.triangles_f).sum() == pytest.approx(0.75, abs=1e-12)
        assert tri_areas(mesh, mesh.triangles_s).sum() == pytest.approx(0.25, abs=1e-12)

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


def test_mesh_dump_round_trips_counts(tmp_path):
    mesh = uniform_split_mesh(3)
    path = tmp_path / "mesh.txt"
    meshing.dump_mesh(mesh, path)
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    expected = mesh.n_nodes + len(mesh.triangles_f) + len(mesh.triangles_s) + len(
        mesh.interface_segments
    )
    assert len(lines) == expected
    # plain tokens that read back bit for bit, records in dump order
    values = [[float(v) for v in l.split()[1:]] for l in lines]
    start = 0
    for arr in (mesh.nodes, mesh.triangles_f, mesh.triangles_s, mesh.interface_segments):
        got = np.array(values[start:start + len(arr)]).astype(arr.dtype)
        assert got.tobytes() == arr.tobytes()
        start += len(arr)
