"""Manufactured solutions with synthesized forcing and interface data.

Each case carries closed-form exact fields u (lower subdomain), w and q
(upper subdomain) and the interface unknown l, all vectorized over numpy
arrays, plus the synthesized volume forcing f_f, f_s and interface data
g_D = q - u and g_N = nu_s grad(w).n_s + nu_f grad(u).n_f. All closed forms
are hand-differentiated; `residual_oracle` certifies them against central
finite differences before any convergence run leans on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .meshing import InterfaceGeometry

CASE_NAMES = ("pp_uniform", "ph_uniform", "pp_slanted", "pp_conforming")

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


def synthesize_forcing(dt_u, lap_u, dt_q, lap_w, nu_f, nu_s):
    """Forcing closures f_f = du/dt - nu_f lap(u), f_s = dq/dt - nu_s lap(w)."""

    def f_f(x1, x2, t):
        return dt_u(x1, x2, t) - nu_f * lap_u(x1, x2, t)

    def f_s(x1, x2, t):
        return dt_q(x1, x2, t) - nu_s * lap_w(x1, x2, t)

    return f_f, f_s


def _interface_data(exact_u, exact_q, grad_u, grad_w, geometry, nu_f, nu_s):
    nfx, nfy = geometry.normal_f()

    def g_D(x1, x2, t):
        return exact_q(x1, x2, t) - exact_u(x1, x2, t)

    def g_N(x1, x2, t):
        ufx, ufy = grad_u(x1, x2, t)
        wfx, wfy = grad_w(x1, x2, t)
        # n_s = -n_f along a matched straight interface
        return nu_f * (ufx * nfx + ufy * nfy) + nu_s * (wfx * (-nfx) + wfy * (-nfy))

    def l_consistent(x1, x2, t):
        ufx, ufy = grad_u(x1, x2, t)
        return nu_f * (ufx * nfx + ufy * nfy)

    return g_D, g_N, l_consistent


def _bubble_parts():
    """Shared pieces of the 1e-3 * e^t * x1(1-x1)x2(1-x2) solution family."""
    amp = 1e-3

    def val(x1, x2, t):
        return amp * np.exp(t) * x1 * (1.0 - x1) * x2 * (1.0 - x2)

    def grad(x1, x2, t):
        s = amp * np.exp(t)
        return (
            s * (1.0 - 2.0 * x1) * x2 * (1.0 - x2),
            s * x1 * (1.0 - x1) * (1.0 - 2.0 * x2),
        )

    def lap(x1, x2, t):
        return amp * np.exp(t) * (-2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1))

    return val, grad, lap


def _case_pp_uniform(nu_f, nu_s):
    pi = math.pi
    geometry = InterfaceGeometry.horizontal()

    def u(x1, x2, t):
        return np.exp(-2.0 * pi**2 * t) * np.sin(pi * x1) * np.sin(pi * x2)

    def w(x1, x2, t):
        return np.exp(-2.0 * pi * t) * np.sin(pi * x1) * np.sin(pi * x2)

    def grad_u(x1, x2, t):
        s = np.exp(-2.0 * pi**2 * t)
        return (pi * s * np.cos(pi * x1) * np.sin(pi * x2), pi * s * np.sin(pi * x1) * np.cos(pi * x2))

    def grad_w(x1, x2, t):
        s = np.exp(-2.0 * pi * t)
        return (pi * s * np.cos(pi * x1) * np.sin(pi * x2), pi * s * np.sin(pi * x1) * np.cos(pi * x2))

    def dt_u(x1, x2, t):
        return -2.0 * pi**2 * u(x1, x2, t)

    def dt_w(x1, x2, t):
        return -2.0 * pi * w(x1, x2, t)

    def lap_u(x1, x2, t):
        return -2.0 * pi**2 * u(x1, x2, t)

    def lap_w(x1, x2, t):
        return -2.0 * pi**2 * w(x1, x2, t)

    def l_exact(x1, x2, t):
        return pi * np.exp(-2.0 * pi * t) * np.sin(pi * x1) * np.cos(pi * x2)

    f_f, f_s = synthesize_forcing(dt_u, lap_u, dt_w, lap_w, nu_f, nu_s)
    g_D, g_N, l_cons = _interface_data(u, w, grad_u, grad_w, geometry, nu_f, nu_s)
    return ManufacturedCase(
        "pp_uniform", 1, geometry, nu_f, nu_s,
        exact_u=u, exact_w=w, exact_q=w, exact_l=l_exact,
        grad_u=grad_u, grad_w=grad_w, f_f=f_f, f_s=f_s,
        g_D=g_D, g_N=g_N, l_consistent=l_cons,
    )


def _case_bubble(name, k, geometry, nu_f, nu_s):
    # u = w = 1e-3 e^t x1(1-x1)x2(1-x2); for k=2 the time factor makes q = w.
    val, grad, lap = _bubble_parts()
    exact_q = val  # dw/dt = w when k = 2; q = w when k = 1

    def l_exact(x1, x2, t):
        nfx, nfy = geometry.normal_f()
        gx, gy = grad(x1, x2, t)
        return nu_f * (gx * nfx + gy * nfy)

    f_f, f_s = synthesize_forcing(val, lap, val, lap, nu_f, nu_s)
    g_D, g_N, l_cons = _interface_data(val, exact_q, grad, grad, geometry, nu_f, nu_s)
    return ManufacturedCase(
        name, k, geometry, nu_f, nu_s,
        exact_u=val, exact_w=val, exact_q=exact_q, exact_l=l_exact,
        grad_u=grad, grad_w=grad, f_f=f_f, f_s=f_s,
        g_D=g_D, g_N=g_N, l_consistent=l_cons,
    )


def _case_pp_conforming(nu_f, nu_s):
    pi = math.pi
    geometry = InterfaceGeometry.horizontal()

    def u(x1, x2, t):
        return np.exp(-t) * np.sin(pi * x1) * np.sin(pi * x2)

    def grad(x1, x2, t):
        s = np.exp(-t)
        return (pi * s * np.cos(pi * x1) * np.sin(pi * x2), pi * s * np.sin(pi * x1) * np.cos(pi * x2))

    def dt(x1, x2, t):
        return -u(x1, x2, t)

    def lap(x1, x2, t):
        return -2.0 * pi**2 * u(x1, x2, t)

    def l_exact(x1, x2, t):
        return nu_f * pi * np.exp(-t) * np.sin(pi * x1) * np.cos(pi * x2)

    f_f, f_s = synthesize_forcing(dt, lap, dt, lap, nu_f, nu_s)
    g_D, g_N, l_cons = _interface_data(u, u, grad, grad, geometry, nu_f, nu_s)
    return ManufacturedCase(
        "pp_conforming", 1, geometry, nu_f, nu_s,
        exact_u=u, exact_w=u, exact_q=u, exact_l=l_exact,
        grad_u=grad, grad_w=grad, f_f=f_f, f_s=f_s,
        g_D=g_D, g_N=g_N, l_consistent=l_cons,
    )


def get_case(name: str, nu_f: float = 1.0, nu_s: float = 1.0) -> ManufacturedCase:
    """Manufactured case by name, with data synthesized for the given coefficients."""
    if name == "pp_uniform":
        return _case_pp_uniform(nu_f, nu_s)
    if name == "ph_uniform":
        return _case_bubble("ph_uniform", 2, InterfaceGeometry.horizontal(), nu_f, nu_s)
    if name == "pp_slanted":
        return _case_bubble("pp_slanted", 1, InterfaceGeometry.slanted(), nu_f, nu_s)
    if name == "pp_conforming":
        return _case_pp_conforming(nu_f, nu_s)
    raise KeyError(f"unknown case {name!r}; known cases: {CASE_NAMES}")


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


def residual_oracle(case: ManufacturedCase, sample_points, t: float, n_interface: int = 50) -> float:
    """Max residual of the synthesized data, by central finite differences.

    Checks |du/dt - nu_f lap(u) - f_f| and |dq/dt - nu_s lap(w) - f_s| at the
    sample points, plus |q - u - g_D| and |flux sum - g_N| on the interface,
    with all derivatives taken by finite differences so the check is
    independent of the hand-written closed forms.
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

    xi = np.linspace(0.0, 1.0, n_interface)
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
