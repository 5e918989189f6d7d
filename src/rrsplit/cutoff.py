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
_N_SAMPLE = 300  # grid points per direction of the range and boundary checks
_N_PANELS = 12  # x2 panels of the strip rule, plus one per halving of dt below 1
_GAUSS8_X, _GAUSS8_W = np.polynomial.legendre.leggauss(8)
_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)


def _labels(x1, x2, dt: float) -> np.ndarray:
    """Region index (0..4 for K1..K5); priority K1 > K3 > K4 > K5 > K2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any((x1 < -1e-12) | (x1 > 1 + 1e-12) | (x2 < -1e-12) | (x2 > 1 + 1e-12)):
        raise ValueError("point outside the unit square")
    d = 1.0 - (1.0 - dt) * x2
    upper = x2 > 0.5
    k1 = upper & (x1 <= d) & (x1 <= 0.5)
    k3 = upper & ~k1 & (1.0 - x1 <= d) & (x1 > 0.5)
    k4 = ~upper & (x1 >= 0.5)
    k5 = ~upper & ~k4
    out = np.full(np.broadcast(x1, x2).shape, 1, dtype=np.int64)  # default K2
    for idx, mask in ((0, k1), (2, k3), (3, k4), (4, k5)):
        out[mask] = idx
    return out


def phi(x1, x2, dt: float):
    """The five-branch cut-off value.

    Every branch lies in [0, 1], so no clamp is needed: x1 <= d on K1,
    1 - x1 <= d on K3, and the K4/K5 products are at most 1 - dt.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    idx = _labels(x1, x2, dt)
    d = 1.0 - (1.0 - dt) * x2
    c = 1.0 - dt
    branches = [
        x1 / d,                      # K1
        np.ones_like(d),             # K2
        (1.0 - x1) / d,              # K3
        4.0 * x2 * (1.0 - x1) * c,   # K4
        4.0 * x1 * x2 * c,           # K5
    ]
    out = np.select([idx == i for i in range(5)], branches)
    return out if out.shape else float(out)


def grad_phi(x1, x2, dt: float):
    """Analytic per-branch gradient; region boundaries take the _labels priority."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    idx = _labels(x1, x2, dt)
    d = 1.0 - (1.0 - dt) * x2
    c = 1.0 - dt
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


def trace_not_one_measure(dt: float) -> float:
    """Measure of the top-edge set where the cut-off is below 1 (2 dt by construction).

    Along x2 = 1 the cut-off is 0 at both ends and reaches 1 before x1 = 1/2
    from either side, so each end's share is bisected on [end, 1/2] down to
    adjacent doubles.
    """
    measure = 0.0
    for end in (0.0, 1.0):
        below, one = end, 0.5
        while (mid := 0.5 * (below + one)) not in (below, one):
            if phi(mid, 1.0, dt) < 1.0:
                below = mid
            else:
                one = mid
        measure += abs(one - end)
    return measure


def closed_form_grad_energy(dt: float) -> float:
    """Reference closed form for the squared-gradient integral."""
    c = 1.0 - dt
    return (2.0 / c + 2.0 * c / 3.0) * math.log(1.0 / (2.0 * dt)) + 2.0 * c / 3.0 + 2.0 / (3.0 * c)


def _strip_integral(dt: float, n_panels: int) -> float:
    """Integral of |grad phi|^2 over K1 (equals the K3 integral by symmetry).

    x2 panels are geometric in the denominator D = 1 - (1-dt) x2, which
    grades the rule toward the top edge where the integrand behaves like
    1/D^2. The x1 integrand |grad_phi|^2 is a quadratic polynomial, handled exactly.
    """
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
        gx, gy = grad_phi(xg, ((1.0 - dm) / c)[:, None], dt)
        inner = (wg * (gx**2 + gy**2)).sum(axis=1)
        total += float((wt * inner).sum())
    return total


def _quadrant_integral(dt: float) -> float:
    """Integral of |grad_phi|^2 over K5 and K4 (tensor Gauss per quadrant, exact for quadratics)."""
    x = 0.25 * (1.0 + _GAUSS4_X)
    w = 0.25 * _GAUSS4_W
    gx, gy = grad_phi(np.concatenate([x, x + 0.5])[None, :], x[:, None], dt)
    return float((np.outer(w, np.tile(w, 2)) * (gx**2 + gy**2)).sum())


def grad_energy(dt: float) -> float:
    """Squared-gradient integral over the unit square by region-wise quadrature."""
    n_panels = _N_PANELS + max(0, int(math.ceil(math.log2(1.0 / dt))))
    return 2.0 * _strip_integral(dt, n_panels) + _quadrant_integral(dt)


@dataclass
class AssumptionReport:
    dt: float
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
    passed: bool


def verify_assumptions(dt: float) -> AssumptionReport:
    """Check the four cut-off requirements; returns measured values per item.

    The construction needs 0 < dt < 1/2; any other dt raises ValueError.
    """
    if not 0.0 < dt < 0.5:
        raise ValueError(f"cut-off needs 0 < dt < 1/2, got dt={dt!r}")
    xs = np.linspace(0.0, 1.0, _N_SAMPLE)
    X1, X2 = np.meshgrid(xs, xs)
    vals = phi(X1, X2, dt)
    range_min, range_max = float(vals.min()), float(vals.max())
    range_ok = -1e-15 <= range_min and range_max <= 1.0 + 1e-15

    edges = np.concatenate(
        [
            phi(np.zeros(_N_SAMPLE), xs, dt),
            phi(np.ones(_N_SAMPLE), xs, dt),
            phi(xs, np.zeros(_N_SAMPLE), dt),
        ]
    )
    boundary_max = float(np.abs(edges).max())
    boundary_ok = boundary_max < 1e-12

    trace = trace_not_one_measure(dt)
    # d = 1 - (1 - dt) rounds by up to half an ulp of 1, whatever dt is
    trace_ok = math.isclose(trace, 2.0 * dt, rel_tol=1e-12, abs_tol=1e-15)

    energy = grad_energy(dt)
    ratio = energy / (1.0 + math.log(1.0 / dt))
    growth_ok = ratio <= GROWTH_BOUND

    passed = range_ok and boundary_ok and trace_ok and growth_ok
    return AssumptionReport(
        dt, range_ok, range_min, range_max, boundary_ok, boundary_max,
        trace, trace_ok, energy, ratio, growth_ok, passed,
    )
