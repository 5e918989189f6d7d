"""Manufactured solutions in separable form, with their forcing and interface data.

Each case is one spatial profile p(x, y) with a hand-differentiated value,
gradient and Laplacian, times one exponential time factor per field:
u = amp e^{rate_u t} p below the interface, w = amp e^{rate_w t} p above it,
and q = w (k = 1) or dw/dt (k = 2). `_separable_case` derives every closure
from that form, including f_f = du/dt - nu_f lap(u), f_s = dq/dt - nu_s lap(w),
g_D = q - u and g_N = nu_s grad(w).n_s + nu_f grad(u).n_f. `residual_oracle`
certifies them against central finite differences, and the time factors of the
forcing, before any run leans on them: a run assembles each load once at t = 0
and scales it by e^{rate t}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, pi
from typing import Callable

import numpy as np

from .meshing import InterfaceGeometry

_FD_SPACE = 1e-4
_FD_TIME = 1e-5


@dataclass
class ManufacturedCase:
    name: str
    k: int
    geometry: InterfaceGeometry
    nu_f: float
    nu_s: float
    exact_u: Callable
    exact_w: Callable
    exact_q: Callable
    exact_l: Callable
    grad_u: Callable
    grad_w: Callable
    f_f: Callable
    f_s: Callable
    g_D: Callable
    g_N: Callable
    l_consistent: Callable
    rate_u: float  # f_f(x, y, t) = e^{rate_u t} f_f(x, y, 0), likewise grad_u
    rate_w: float  # f_s(x, y, t) = e^{rate_w t} f_s(x, y, 0), likewise grad_w


# Profiles: value, gradient and Laplacian of p, each led by the time factor s.
def _sine(s, x1, x2):
    return s * np.sin(pi * x1) * np.sin(pi * x2)


def _sine_grad(s, x1, x2):
    return (s * pi * np.cos(pi * x1) * np.sin(pi * x2), s * pi * np.sin(pi * x1) * np.cos(pi * x2))


def _sine_lap(s, x1, x2):
    return -2.0 * pi**2 * _sine(s, x1, x2)


def _bubble(s, x1, x2):
    return s * x1 * (1.0 - x1) * x2 * (1.0 - x2)


def _bubble_grad(s, x1, x2):
    return (s * (1.0 - 2.0 * x1) * x2 * (1.0 - x2), s * x1 * (1.0 - x1) * (1.0 - 2.0 * x2))


def _bubble_lap(s, x1, x2):
    return s * (-2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1))


_SINE = (_sine, _sine_grad, _sine_lap)           # sin(pi x) sin(pi y)
_BUBBLE = (_bubble, _bubble_grad, _bubble_lap)  # x(1-x) y(1-y)


def _separable_case(name, k, geometry, profile, amp, rate_u, rate_w, nu_f, nu_s):
    """The case u = amp e^{rate_u t} p, w = amp e^{rate_w t} p for p = profile.

    The interface unknown l is the flux nu_f grad(u).n_f when u and w share a
    time factor; with two, l = grad(w).n_f, which drifts from the flux on
    purpose (the study reports the gap).
    """
    val, grad, lap = profile
    nfx, nfy = geometry.normal_f()

    def a(rate, t):
        return amp * np.exp(rate * t)

    def exact_u(x1, x2, t):
        return val(a(rate_u, t), x1, x2)

    def exact_w(x1, x2, t):
        return val(a(rate_w, t), x1, x2)

    def exact_q(x1, x2, t):  # w for k = 1, dw/dt for k = 2
        return val(a(rate_w, t) if k == 1 else rate_w * a(rate_w, t), x1, x2)

    def grad_u(x1, x2, t):
        return grad(a(rate_u, t), x1, x2)

    def grad_w(x1, x2, t):
        return grad(a(rate_w, t), x1, x2)

    def f_f(x1, x2, t):
        return rate_u * exact_u(x1, x2, t) - nu_f * lap(a(rate_u, t), x1, x2)

    def f_s(x1, x2, t):  # dq/dt = rate_w q for either k
        return rate_w * exact_q(x1, x2, t) - nu_s * lap(a(rate_w, t), x1, x2)

    def g_D(x1, x2, t):
        return exact_q(x1, x2, t) - exact_u(x1, x2, t)

    def l_consistent(x1, x2, t):
        ufx, ufy = grad_u(x1, x2, t)
        return nu_f * (ufx * nfx + ufy * nfy)

    def g_N(x1, x2, t):  # n_s = -n_f along a matched straight interface
        wfx, wfy = grad_w(x1, x2, t)
        return l_consistent(x1, x2, t) + nu_s * (wfx * (-nfx) + wfy * (-nfy))

    def l_stated(x1, x2, t):
        wfx, wfy = grad_w(x1, x2, t)
        return wfx * nfx + wfy * nfy

    return ManufacturedCase(
        name, k, geometry, nu_f, nu_s,
        exact_u=exact_u, exact_w=exact_w, exact_q=exact_q,
        exact_l=l_consistent if rate_u == rate_w else l_stated,
        grad_u=grad_u, grad_w=grad_w, f_f=f_f, f_s=f_s,
        g_D=g_D, g_N=g_N, l_consistent=l_consistent, rate_u=rate_u, rate_w=rate_w,
    )


# name: (k, geometry, profile, amp, rate_u, rate_w)
_CASES = {
    "pp_uniform": (1, InterfaceGeometry.horizontal(), _SINE, 1.0, -2.0 * pi**2, -2.0 * pi),
    "ph_uniform": (2, InterfaceGeometry.horizontal(), _BUBBLE, 1e-3, 1.0, 1.0),
    "pp_slanted": (1, InterfaceGeometry.slanted(), _BUBBLE, 1e-3, 1.0, 1.0),
    "pp_conforming": (1, InterfaceGeometry.horizontal(), _SINE, 1.0, -1.0, -1.0),
}
CASE_NAMES = tuple(_CASES)


def get_case(name: str, nu_f: float = 1.0, nu_s: float = 1.0) -> ManufacturedCase:
    """Manufactured case by name, with data synthesized for the given coefficients."""
    if name not in _CASES:
        raise KeyError(f"unknown case {name!r}; known cases: {CASE_NAMES}")
    return _separable_case(name, *_CASES[name], nu_f, nu_s)


def _fd_time(fn, x1, x2, t, h=_FD_TIME):
    return (fn(x1, x2, t + h) - fn(x1, x2, t - h)) / (2.0 * h)


def _fd_laplacian(fn, x1, x2, t, h=_FD_SPACE):
    c = fn(x1, x2, t)
    return (
        fn(x1 + h, x2, t) + fn(x1 - h, x2, t) + fn(x1, x2 + h, t) + fn(x1, x2 - h, t) - 4.0 * c
    ) / h**2


def _fd_gradient(fn, x1, x2, t, h=_FD_SPACE):
    return (
        (fn(x1 + h, x2, t) - fn(x1 - h, x2, t)) / (2.0 * h),
        (fn(x1, x2 + h, t) - fn(x1, x2 - h, t)) / (2.0 * h),
    )


def residual_oracle(case: ManufacturedCase, sample_points, t: float) -> float:
    """Max residual of the synthesized data, by central finite differences.

    Checks |du/dt - nu_f lap(u) - f_f| and |dq/dt - nu_s lap(w) - f_s| at the
    sample points, plus |q - u - g_D| and |flux sum - g_N| at 50 interface points,
    with all derivatives taken by finite differences so the check is
    independent of the hand-written closed forms. It also checks the time
    factors the runs lean on, |f(x, y, t) - e^{rate t} f(x, y, 0)| for f_f and
    grad_u (rate_u) and for f_s and grad_w (rate_w) at the sample points.
    """
    pts = np.asarray(sample_points, dtype=float)
    x1, x2 = pts[:, 0], pts[:, 1]
    res_f = _fd_time(case.exact_u, x1, x2, t) - case.nu_f * _fd_laplacian(
        case.exact_u, x1, x2, t
    ) - case.f_f(x1, x2, t)
    res_s = _fd_time(case.exact_q, x1, x2, t) - case.nu_s * _fd_laplacian(
        case.exact_w, x1, x2, t
    ) - case.f_s(x1, x2, t)
    worst = max(np.abs(res_f).max(), np.abs(res_s).max())
    for rate, fn in ((case.rate_u, case.f_f), (case.rate_u, case.grad_u),
                     (case.rate_w, case.f_s), (case.rate_w, case.grad_w)):
        drift = np.asarray(fn(x1, x2, t)) - exp(rate * t) * np.asarray(fn(x1, x2, 0.0))
        worst = max(worst, np.abs(drift).max())

    xi = np.linspace(0.0, 1.0, 50)
    yi = case.geometry.curve_y(xi)
    kin = case.exact_q(xi, yi, t) - case.exact_u(xi, yi, t) - case.g_D(xi, yi, t)
    nfx, nfy = case.geometry.normal_f()
    ufx, ufy = _fd_gradient(case.exact_u, xi, yi, t)
    wfx, wfy = _fd_gradient(case.exact_w, xi, yi, t)
    flux = case.nu_f * (ufx * nfx + ufy * nfy) - case.nu_s * (wfx * nfx + wfy * nfy)
    dyn = flux - case.g_N(xi, yi, t)
    return float(max(worst, np.abs(kin).max(), np.abs(dyn).max()))


def sample_points(case: ManufacturedCase, n: int, rng: np.random.Generator) -> np.ndarray:
    """n random points in each subdomain (2n total), for the residual oracle."""
    out = []
    for want_fluid in (True, False):
        got = 0
        pts = []
        while got < n:
            cand = rng.random((4 * n, 2))
            below = cand[:, 1] < case.geometry.curve_y(cand[:, 0])
            sel = cand[below] if want_fluid else cand[~below]
            pts.append(sel)
            got += sel.shape[0]
        out.append(np.concatenate(pts)[:n])
    return np.concatenate(out)
