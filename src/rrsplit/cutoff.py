"""Time-step-dependent cut-off function on the unit square with the top edge special.

The function equals 1 on most of the top edge, vanishes on the other three
edges, and its squared gradient integrates to O(1 + log(1/dt)). The square
is tiled by five regions: two lower quadrants K4/K5, two slanted strips
K1/K3 hugging the side walls of the upper half (bounded by the lines
x1 = 1 - (1-dt) x2 and its mirror, on which the strip branches equal 1),
and the remainder K2 where the function is identically 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GROWTH_BOUND = 4.0
_GAUSS8_X, _GAUSS8_W = np.polynomial.legendre.leggauss(8)
_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class CutoffConfig:
    dt: float

    @property
    def valid(self) -> bool:
        return 0.0 < self.dt < 0.5


def _labels(x1, x2, cfg: CutoffConfig) -> np.ndarray:
    """Region index (0..4 for K1..K5); priority K1 > K3 > K4 > K5 > K2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any((x1 < -1e-12) | (x1 > 1 + 1e-12) | (x2 < -1e-12) | (x2 > 1 + 1e-12)):
        raise ValueError("point outside the unit square")
    d = 1.0 - (1.0 - cfg.dt) * x2
    upper = x2 > 0.5
    k1 = upper & (x1 <= d) & (x1 <= 0.5)
    k3 = upper & ~k1 & (1.0 - x1 <= d) & (x1 > 0.5)
    k4 = ~upper & (x1 >= 0.5)
    k5 = ~upper & ~k4
    out = np.full(np.broadcast(x1, x2).shape, 1, dtype=np.int64)  # default K2
    for idx, mask in ((0, k1), (2, k3), (3, k4), (4, k5)):
        out[mask] = idx
    return out


def phi(x1, x2, cfg: CutoffConfig):
    """The five-branch cut-off value, clamped to [0, 1]."""
    return np.clip(phi_unclamped(x1, x2, cfg), 0.0, 1.0)


def phi_unclamped(x1, x2, cfg: CutoffConfig):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    idx = _labels(x1, x2, cfg)
    d = 1.0 - (1.0 - cfg.dt) * x2
    c = 1.0 - cfg.dt
    branches = [
        x1 / d,                      # K1
        np.ones_like(d),             # K2
        (1.0 - x1) / d,              # K3
        4.0 * x2 * (1.0 - x1) * c,   # K4
        4.0 * x1 * x2 * c,           # K5
    ]
    out = np.select([idx == i for i in range(5)], branches)
    return out if out.shape else float(out)


def grad_phi(x1, x2, cfg: CutoffConfig):
    """Analytic per-branch gradient; region boundaries take the _labels priority."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    idx = _labels(x1, x2, cfg)
    d = 1.0 - (1.0 - cfg.dt) * x2
    c = 1.0 - cfg.dt
    zero = np.zeros_like(d)
    gx = np.select(
        [idx == i for i in range(5)],
        [1.0 / d, zero, -1.0 / d, -4.0 * x2 * c, 4.0 * x2 * c],
    )
    gy = np.select(
        [idx == i for i in range(5)],
        [x1 * c / d**2, zero, (1.0 - x1) * c / d**2, 4.0 * (1.0 - x1) * c, 4.0 * x1 * c],
    )
    if gx.shape:
        return gx, gy
    return float(gx), float(gy)


def trace_not_one_measure(cfg: CutoffConfig) -> float:
    """Measure of the top-edge set where the cut-off differs from 1: exactly 2 dt."""
    return 2.0 * cfg.dt


def closed_form_grad_energy(dt: float) -> float:
    """Reference closed form for the squared-gradient integral."""
    c = 1.0 - dt
    return (2.0 / c + 2.0 * c / 3.0) * math.log(1.0 / (2.0 * dt)) + 2.0 * c / 3.0 + 2.0 / (3.0 * c)


def _strip_integral(cfg: CutoffConfig, n_panels: int) -> float:
    """Integral of |grad phi|^2 over K1 (equals the K3 integral by symmetry).

    x2 panels are geometric in the denominator D = 1 - (1-dt) x2, which
    grades the rule toward the top edge where the integrand behaves like
    1/D^2. The x1 integrand |grad_phi|^2 is a quadratic polynomial, handled exactly.
    """
    dt = cfg.dt
    c = 1.0 - dt
    d_hi = 1.0 - c * 0.5   # D at x2 = 1/2
    d_lo = dt              # D at x2 = 1
    bounds = d_hi * (d_lo / d_hi) ** (np.arange(n_panels + 1) / n_panels)
    if d_lo < 0.5 < d_hi:
        bounds = np.sort(np.unique(np.append(bounds, 0.5)))[::-1]
    total = 0.0
    for da, db in zip(bounds[:-1], bounds[1:]):
        # map Gauss nodes into the D panel, then back to x2
        dm = 0.5 * (da + db) + 0.5 * (db - da) * _GAUSS8_X
        wt = 0.5 * (da - db) * _GAUSS8_W / c  # dx2 = -dD / (1-dt)
        b = np.minimum(0.5, dm)
        # inner x1 integral on [0, b]: quadratic in x1
        xg = 0.5 * b[:, None] * (1.0 + _GAUSS4_X[None, :])
        wg = 0.5 * b[:, None] * _GAUSS4_W[None, :]
        gx, gy = grad_phi(xg, ((1.0 - dm) / c)[:, None], cfg)
        inner = (wg * (gx**2 + gy**2)).sum(axis=1)
        total += float((wt * inner).sum())
    return total


def _quadrant_integral(cfg: CutoffConfig) -> float:
    """Integral of |grad_phi|^2 over K5 and K4 (tensor Gauss per quadrant, exact for quadratics)."""
    x = 0.25 * (1.0 + _GAUSS4_X)
    w = 0.25 * _GAUSS4_W
    gx, gy = grad_phi(np.concatenate([x, x + 0.5])[None, :], x[:, None], cfg)
    return float((np.outer(w, np.tile(w, 2)) * (gx**2 + gy**2)).sum())


def grad_energy(cfg: CutoffConfig, quadrature_level: int = 4) -> float:
    """Squared-gradient integral over the unit square by region-wise quadrature."""
    n_panels = 4 + 2 * quadrature_level + max(0, int(math.ceil(math.log2(1.0 / cfg.dt))))
    return 2.0 * _strip_integral(cfg, n_panels) + _quadrant_integral(cfg)


def overshoot_measure(cfg: CutoffConfig, n: int = 400) -> float:
    """Sampled area where the unclamped branches exceed 1 (clamping target)."""
    xs = (np.arange(n) + 0.5) / n
    X1, X2 = np.meshgrid(xs, xs)
    over = phi_unclamped(X1, X2, cfg) > 1.0 + 1e-12
    return float(over.mean())


@dataclass
class AssumptionReport:
    dt: float
    dt_valid: bool
    range_ok: bool
    range_min: float
    range_max: float
    boundary_ok: bool
    boundary_max: float
    trace_measure: float
    trace_ok: bool
    energy: float
    growth_ratio: float
    growth_ok: bool
    overshoot: float
    passed: bool


def verify_assumptions(cfg: CutoffConfig, n_sample: int = 300) -> AssumptionReport:
    """Check the four cut-off requirements; returns measured values per item."""
    if not cfg.valid:
        nan = float("nan")
        return AssumptionReport(
            cfg.dt, False, False, nan, nan, False, nan, nan, False, nan, nan, False, nan, False
        )
    xs = np.linspace(0.0, 1.0, n_sample)
    X1, X2 = np.meshgrid(xs, xs)
    vals = phi(X1, X2, cfg)
    range_min, range_max = float(vals.min()), float(vals.max())
    range_ok = -1e-15 <= range_min and range_max <= 1.0 + 1e-15

    edges = np.concatenate(
        [
            phi(np.zeros(n_sample), xs, cfg),
            phi(np.ones(n_sample), xs, cfg),
            phi(xs, np.zeros(n_sample), cfg),
        ]
    )
    boundary_max = float(np.abs(edges).max())
    boundary_ok = boundary_max < 1e-12

    trace = trace_not_one_measure(cfg)
    trace_ok = trace == 2.0 * cfg.dt

    energy = grad_energy(cfg)
    ratio = energy / (1.0 + math.log(1.0 / cfg.dt))
    growth_ok = ratio <= GROWTH_BOUND

    passed = range_ok and boundary_ok and trace_ok and growth_ok
    return AssumptionReport(
        cfg.dt, True, range_ok, range_min, range_max, boundary_ok, boundary_max,
        trace, trace_ok, energy, ratio, growth_ok, overshoot_measure(cfg), passed,
    )
