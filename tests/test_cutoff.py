"""Tests for the cut-off function: regions, values, gradients, and its energy."""

import math

import numpy as np
import pytest

from rrsplit.cutoff import (
    AssumptionReport,
    CutoffConfig,
    _labels,
    closed_form_grad_energy,
    grad_energy,
    grad_phi,
    phi,
    trace_not_one_measure,
    verify_assumptions,
)

REGIONS = ("K1", "K2", "K3", "K4", "K5")


def region(x1, x2, cfg):
    """Label of the region that phi and grad_phi use at one point."""
    return REGIONS[int(_labels(x1, x2, cfg))]


class TestClassify:
    def test_middle_of_top_is_k2(self):
        cfg = CutoffConfig(0.25)
        assert region(0.5, 0.9, cfg) == "K2"  # 1 - 0.75*0.9 = 0.325 < 0.5

    def test_left_strip_at_top_is_k1(self):
        cfg = CutoffConfig(0.25)
        assert region(0.1, 1.0, cfg) == "K1"  # 0.1 <= dt

    def test_lower_left_quadrant_is_k5(self):
        assert region(0.25, 0.25, CutoffConfig(0.25)) == "K5"

    def test_priority_on_shared_edges(self):
        cfg = CutoffConfig(0.25)
        assert region(0.5, 0.25, cfg) == "K4"  # K4 wins over K5 at x1 = 1/2

    def test_membership_predicate(self):
        cfg = CutoffConfig(0.25)
        assert region(0.3, 0.3, cfg) == region(0.25, 0.25, cfg)
        assert region(0.9, 0.9, cfg) != region(0.25, 0.25, cfg)

    def test_outside_square_rejected(self):
        with pytest.raises(ValueError):
            _labels(1.5, 0.5, CutoffConfig(0.25))

    def test_regions_tile_the_square(self):
        cfg = CutoffConfig(0.125)
        rng = np.random.default_rng(4)
        pts = rng.random((500, 2))
        assert set(_labels(pts[:, 0], pts[:, 1], cfg).tolist()) <= set(range(5))


class TestPhi:
    def test_one_in_k2(self):
        cfg = CutoffConfig(0.25)
        assert phi(0.5, 0.9, cfg) == 1.0

    def test_zero_on_left_edge(self):
        cfg = CutoffConfig(0.25)
        for x2 in (0.0, 0.3, 0.7, 1.0):
            assert phi(0.0, x2, cfg) == 0.0

    def test_half_on_top_edge_inside_ramp(self):
        cfg = CutoffConfig(0.25)
        assert phi(0.125, 1.0, cfg) == pytest.approx(0.5, rel=1e-14)

    def test_range_after_clamp(self):
        # phi applies no clamp, so this checks the five branches themselves
        cfg = CutoffConfig(0.1)
        xs = np.linspace(0.0, 1.0, 301)
        X1, X2 = np.meshgrid(xs, xs)
        vals = phi(X1, X2, cfg)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_top_edge_ramp_measure(self):
        cfg = CutoffConfig(0.25)
        xs = np.linspace(cfg.dt + 1e-9, 1.0 - cfg.dt - 1e-9, 10000)
        np.testing.assert_allclose(phi(xs, np.ones_like(xs), cfg), 1.0)

    def test_seam_jump_small(self):
        # max jump of phi across the x2 = 1/2 seam between the quadrants and the strips
        xs = np.linspace(0.0, 1.0, 2001)
        for dt in (0.25, 0.125, 0.0625):
            cfg = CutoffConfig(dt)
            lo, hi = (phi(xs, np.full(xs.size, 0.5 + eps), cfg) for eps in (-1e-9, 1e-9))
            assert np.abs(hi - lo).max() <= 3.0 * dt


class TestGradPhi:
    def test_zero_gradient_in_k2(self):
        assert grad_phi(0.5, 0.9, CutoffConfig(0.25)) == (0.0, 0.0)

    def test_k5_closed_form(self):
        gx, gy = grad_phi(0.25, 0.25, CutoffConfig(0.25))
        assert gx == pytest.approx(0.75, rel=1e-14)
        assert gy == pytest.approx(0.75, rel=1e-14)

    def test_k1_branch_formula(self):
        cfg = CutoffConfig(0.25)
        x1, x2 = 0.05, 0.95
        d = 1.0 - 0.75 * x2
        gx, gy = grad_phi(x1, x2, cfg)
        assert gx == pytest.approx(1.0 / d, rel=1e-14)
        assert gy == pytest.approx(x1 * 0.75 / d**2, rel=1e-14)

    def test_finite_difference_check(self):
        cfg = CutoffConfig(0.25)
        rng = np.random.default_rng(12)
        h = 1e-7
        checked = 0
        while checked < 1000:
            x1, x2 = rng.random(2) * (1 - 4 * h) + 2 * h
            # keep the whole stencil inside a single region
            labels = {
                region(x1 + s1 * h, x2 + s2 * h, cfg)
                for s1 in (-1, 0, 1)
                for s2 in (-1, 0, 1)
            }
            if len(labels) != 1:
                continue
            gx, gy = grad_phi(x1, x2, cfg)
            fdx = (phi(x1 + h, x2, cfg) - phi(x1 - h, x2, cfg)) / (2 * h)
            fdy = (phi(x1, x2 + h, cfg) - phi(x1, x2 - h, cfg)) / (2 * h)
            assert abs(gx - fdx) < 1e-6 and abs(gy - fdy) < 1e-6
            checked += 1


class TestTraceMeasure:
    def test_quarter(self):
        assert trace_not_one_measure(CutoffConfig(0.25)) == 0.5

    def test_eighth(self):
        assert trace_not_one_measure(CutoffConfig(0.125)) == 0.25

    @pytest.mark.parametrize("dt", [0.1, 0.3, 0.01])
    def test_non_dyadic_within_rounding(self, dt):
        assert trace_not_one_measure(CutoffConfig(dt)) == pytest.approx(2.0 * dt, rel=1e-15)

    def test_measured_not_assumed(self):
        # a ramp wider than half the edge leaves no point at 1: the whole edge counts
        assert trace_not_one_measure(CutoffConfig(0.75)) == 1.0

    def test_small_non_dyadic_dt_passes(self):
        # 1 - (1 - dt) rounds by ~1e-16 absolute, which is 5e-12 of 2 dt here
        assert verify_assumptions(CutoffConfig(1e-5)).trace_ok


class TestGradEnergy:
    def test_closed_form_at_quarter(self):
        expected = (8.0 / 3.0 + 0.5) * math.log(2.0) + 0.5 + 8.0 / 9.0
        assert closed_form_grad_energy(0.25) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(3.584, abs=5e-4)

    def test_measured_tracks_closed_form(self):
        # the region reconstruction reproduces the closed form up to O(dt)
        for dt in (0.25, 0.125, 0.0625):
            cfg = CutoffConfig(dt)
            assert grad_energy(cfg) == pytest.approx(closed_form_grad_energy(dt), rel=2e-2)

    def test_growth_ratio_bounded(self):
        for j in range(2, 11):
            dt = 2.0**-j
            ratio = grad_energy(CutoffConfig(dt)) / (1.0 + math.log(1.0 / dt))
            assert ratio <= 4.0

    def test_quadrature_levels_cauchy(self):
        cfg = CutoffConfig(0.125)
        vals = [grad_energy(cfg, quadrature_level=lvl) for lvl in (2, 4, 6)]
        assert abs(vals[1] - vals[0]) < 1e-4
        assert abs(vals[2] - vals[1]) < 1e-4

    def test_monotone_in_refinement(self):
        vals = [grad_energy(CutoffConfig(2.0**-j)) for j in range(2, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestVerifyAssumptions:
    def test_all_pass_at_eighth(self):
        rep = verify_assumptions(CutoffConfig(0.125))
        assert isinstance(rep, AssumptionReport)
        assert rep.dt_valid and rep.range_ok and rep.boundary_ok and rep.trace_ok
        assert rep.growth_ok and rep.passed

    def test_large_dt_flagged(self):
        rep = verify_assumptions(CutoffConfig(0.6))
        assert not rep.dt_valid and not rep.passed

    def test_boundary_values_tiny(self):
        rep = verify_assumptions(CutoffConfig(0.125))
        assert rep.boundary_max < 1e-12
