"""One case run and one splitting-vs-oracle gap for the tests.

A case run steps from the case's exact fields at t = 0, with its sources, its
k and its coefficients. The gap is the paper's quantity: the fluid field of
the loosely coupled splitting against the strongly coupled oracle's, in the
fluid mass norm, at the final time.
"""

import numpy as np

from rrsplit import coupling
from rrsplit.coupling import CoupledOperators, SchemeParams, SourceData, initial_state


def case_run(stepper, case, mesh, dt, alpha=1.0):
    """(``stepper``'s return, ops) for the case on mesh; ``stepper`` is ``coupling.run``
    or ``coupling.run_monolithic``."""
    params = SchemeParams(k=case.k, dt=dt, alpha=alpha, nu_f=case.nu_f, nu_s=case.nu_s)
    ops = CoupledOperators(mesh, params)
    sources, start = SourceData.from_case(case), initial_state(case, mesh, ops)
    return stepper(params, mesh, sources, start, ops), ops


def oracle_gap(case, mesh, dt):
    """||u - u_o||_{M_f} at the final time, u the splitting's fluid field and u_o the
    oracle's, both at alpha = 1."""
    (loose, _), ops = case_run(coupling.run, case, mesh, dt)
    d = loose.u - case_run(coupling.run_monolithic, case, mesh, dt)[0].u
    return float(np.sqrt(d @ (ops.M_f @ d)))
