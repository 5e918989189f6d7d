"""Tests for the manufactured-solution registry and its residual oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rrsplit.cases import (
    CASE_NAMES,
    get_case,
    residual_oracle,
    sample_points,
)


class TestRegistry:
    def test_known_names(self):
        for name in CASE_NAMES:
            case = get_case(name)
            assert case.name == name
            assert case.k in (1, 2)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_case("nope")

    def test_case_k_values(self):
        assert get_case("pp_uniform").k == 1
        assert get_case("ph_uniform").k == 2
        assert get_case("pp_slanted").k == 1
        assert get_case("pp_conforming").k == 1


class TestExactFields:
    def test_ph_uniform_point_value(self):
        case = get_case("ph_uniform")
        assert case.exact_u(0.5, 0.5, 0.0) == pytest.approx(6.25e-05, rel=1e-14)

    def test_fields_vanish_on_outer_boundary(self):
        xs = np.linspace(0.0, 1.0, 40)
        zeros = np.zeros_like(xs)
        ones = np.ones_like(xs)
        for name in CASE_NAMES:
            case = get_case(name)
            for t in (0.0, 0.25):
                for f in (case.exact_u, case.exact_w):
                    for px, py in ((xs, zeros), (xs, ones), (zeros, xs), (ones, xs)):
                        assert np.abs(f(px, py, t)).max() < 1e-13

    @pytest.mark.parametrize("name", ["ph_uniform"])
    def test_q_is_time_derivative_of_w_when_k2(self, name):
        case = get_case(name)
        rng = np.random.default_rng(2)
        pts = rng.random((50, 2))
        h = 1e-5
        for t in (0.0, 0.2):
            fd = (case.exact_w(pts[:, 0], pts[:, 1], t + h)
                  - case.exact_w(pts[:, 0], pts[:, 1], t - h)) / (2 * h)
            assert np.abs(case.exact_q(pts[:, 0], pts[:, 1], t) - fd).max() < 1e-6

    def test_q_equals_w_when_k1(self):
        for name in ("pp_uniform", "pp_slanted", "pp_conforming"):
            case = get_case(name)
            x = np.linspace(0.1, 0.9, 7)
            np.testing.assert_allclose(
                case.exact_q(x, x, 0.2), case.exact_w(x, x, 0.2), rtol=1e-15
            )


class TestInterfaceData:
    def test_homogeneous_cases(self):
        xs = np.linspace(0.0, 1.0, 60)
        for name in ("ph_uniform", "pp_slanted", "pp_conforming"):
            case = get_case(name)
            ys = case.geometry.curve_y(xs)
            for t in (0.0, 0.25):
                assert np.abs(case.g_D(xs, ys, t)).max() < 1e-12
                assert np.abs(case.g_N(xs, ys, t)).max() < 1e-12

    def test_pp_uniform_data_grows_from_zero(self):
        case = get_case("pp_uniform")
        xs = np.linspace(0.0, 1.0, 60)
        ys = case.geometry.curve_y(xs)
        assert np.abs(case.g_D(xs, ys, 0.0)).max() < 1e-14
        assert np.abs(case.g_D(xs, ys, 0.25)).max() > 1e-2
        assert np.abs(case.g_N(xs, ys, 0.25)).max() > 1e-2


class TestForcing:
    def test_pp_uniform_fluid_forcing_is_zero(self):
        case = get_case("pp_uniform")
        x = np.linspace(0.05, 0.95, 9)
        assert np.abs(case.f_f(x, x, 0.1)).max() < 1e-14

    def test_pp_uniform_solid_forcing_closed_form(self):
        case = get_case("pp_uniform")
        pi = math.pi
        x1, x2, t = 0.3, 0.8, 0.1
        expected = (2 * pi**2 - 2 * pi) * math.exp(-2 * pi * t) * math.sin(pi * x1) * math.sin(pi * x2)
        assert case.f_s(x1, x2, t) == pytest.approx(expected, rel=1e-13)

    def test_ph_uniform_fluid_forcing_closed_form(self):
        case = get_case("ph_uniform")
        x1, x2, t = 0.3, 0.2, 0.1
        expected = 1e-3 * math.exp(t) * (
            x1 * (1 - x1) * x2 * (1 - x2) + 2 * x1 * (1 - x1) + 2 * x2 * (1 - x2)
        )
        assert case.f_f(x1, x2, t) == pytest.approx(expected, rel=1e-13)

    def test_viscosity_enters_forcing(self):
        case = get_case("pp_uniform", nu_f=2.0)
        x = np.linspace(0.1, 0.9, 5)
        assert np.abs(case.f_f(x, x, 0.1)).max() > 1e-2  # no longer an eigenfunction


class TestResidualOracle:
    # the default coefficients keep the bare case name as the test id
    @pytest.mark.parametrize("name, nu_f, nu_s", [
        *(pytest.param(n, 1.0, 1.0, id=n) for n in CASE_NAMES),
        *(pytest.param(n, 2.0, 0.5, id=f"{n}-nu_f=2-nu_s=0.5") for n in CASE_NAMES),
    ])
    def test_residuals_below_fd_floor(self, name, nu_f, nu_s):
        case = get_case(name, nu_f=nu_f, nu_s=nu_s)
        pts = sample_points(case, 100, np.random.default_rng(0))
        for t in (0.0, 0.125, 0.25):
            assert residual_oracle(case, pts, t) < 1e-5

    def test_conforming_interface_residuals_tiny(self):
        case = get_case("pp_conforming")
        xs = np.linspace(0.0, 1.0, 30)
        ys = case.geometry.curve_y(xs)
        assert np.abs(case.exact_q(xs, ys, 0.2) - case.exact_u(xs, ys, 0.2)
                      - case.g_D(xs, ys, 0.2)).max() < 1e-12

    def test_oracle_catches_a_wrong_time_factor(self):
        # the closures still decay like e^{-t}, so every PDE residual stays at
        # rounding; only the time-factor check sees that rate_u no longer fits
        good = get_case("pp_conforming")
        bad = replace(good, rate_u=0.0)
        pts = sample_points(good, 50, np.random.default_rng(0))
        assert residual_oracle(good, pts, 0.25) < 1e-5
        assert residual_oracle(bad, pts, 0.0) < 1e-5  # e^{rate 0} = 1 for any rate
        assert residual_oracle(bad, pts, 0.25) > 0.1

    def test_oracle_catches_wrong_forcing(self):
        case = get_case("pp_conforming")
        good = case.f_s
        case.f_s = lambda x, y, t: good(x, y, t) + 1e-3
        pts = sample_points(case, 50, np.random.default_rng(1))
        assert residual_oracle(case, pts, 0.1) > 1e-4


class TestMultiplier:
    def test_slanted_center_value(self):
        case = get_case("pp_slanted")
        assert case.exact_l(0.5, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_pp_uniform_flux_value(self):
        case = get_case("pp_uniform")
        val = case.l_consistent(0.5, 0.75, 0.0)
        assert val == pytest.approx(-math.pi * math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_ph_uniform_stated_equals_flux(self):
        case = get_case("ph_uniform")
        xs = np.linspace(0.0, 1.0, 30)
        ys = case.geometry.curve_y(xs)
        for t in (0.0, 0.25):
            np.testing.assert_allclose(
                case.exact_l(xs, ys, t), case.l_consistent(xs, ys, t), atol=1e-15
            )

    def test_pp_uniform_stated_drifts_from_flux(self):
        # identical at t = 0, different time decay afterwards
        case = get_case("pp_uniform")
        xs = np.linspace(0.0, 1.0, 30)
        ys = case.geometry.curve_y(xs)
        np.testing.assert_allclose(case.exact_l(xs, ys, 0.0), case.l_consistent(xs, ys, 0.0),
                                   atol=1e-14)
        assert np.abs(case.exact_l(xs, ys, 0.25) - case.l_consistent(xs, ys, 0.25)).max() > 0.1

    def test_slanted_matches_directional_derivative(self):
        case = get_case("pp_slanted")
        xs = np.linspace(0.1, 0.9, 17)
        ys = case.geometry.curve_y(xs)
        expected = (1e-3 / math.sqrt(5.0)) * np.exp(0.3) * (
            2 * xs * (1 - xs) * (1 - 2 * ys) - (1 - 2 * xs) * ys * (1 - ys)
        )
        np.testing.assert_allclose(case.exact_l(xs, ys, 0.3), expected, rtol=1e-13)
