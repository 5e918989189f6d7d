"""Print SHA-256 digests of the solver's outputs, per group and overall.

Usage, from the root of a checkout: python .github/fingerprint.py

A change meant to keep every number bit-identical runs this at its parent
and at the change and compares the digests. The digests depend on the CPU
and on the BLAS kernel and its thread count, so compare only two runs made
on one machine with the same settings (CI runs it with one BLAS thread).
It calls only the public entry points, so the same script runs on both
sides. The groups:

- ``run/<case>``: the final u, w, q, lam and the Z and S ledgers of
  ``coupling.run`` for each registry case, forced, with the case built for
  nu_f = 2, nu_s = 0.5 and stepped with alpha = 2 and dt = 1/16 (uniform
  mesh 16, or slanted level 2);
- ``run_monolithic/<case>``: the final u, w, q, lam of the oracle on the
  same inputs;
- ``energy_audit/k1``, ``energy_audit/k2``: the Z and S ledgers of two
  zero-source audits;
- ``study/pp_slanted``: the errors of a three-row pp_slanted study.

The output is appended to $GITHUB_STEP_SUMMARY when that is set.
"""

import hashlib
import os
import sys

import numpy as np

sys.path[:0] = ["src"]
from rrsplit import coupling, harness, meshing  # noqa: E402
from rrsplit.cases import CASE_NAMES, get_case  # noqa: E402


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def state_arrays(state):
    return [state.u, state.w, state.q, state.lam]


def groups():
    for name in CASE_NAMES:
        case = get_case(name, nu_f=2.0, nu_s=0.5)
        mesh = (meshing.slanted_interface_mesh(2) if case.geometry.kind == "slanted"
                else meshing.uniform_split_mesh(16))
        params = coupling.SchemeParams(k=case.k, dt=1.0 / 16, alpha=2.0,
                                       nu_f=case.nu_f, nu_s=case.nu_s)
        ops = coupling.CoupledOperators(mesh, params)
        sources = coupling.SourceData.from_case(case)
        state0 = coupling.initial_state(case, mesh, ops)
        final, ledger = coupling.run(params, mesh, sources, state0, ops)
        yield f"run/{name}", state_arrays(final) + [ledger.Z, ledger.S]
        oracle = coupling.run_monolithic(params, mesh, sources, state0, ops)
        yield f"run_monolithic/{name}", state_arrays(oracle)
    for k in (1, 2):
        rep = harness.energy_audit(k=k, alpha=2.0, dt=0.05, n_steps=12, mesh_n=12, seed=3,
                                   nu_f=2.0, nu_s=0.5)
        yield f"energy_audit/k{k}", [rep["ledger"].Z, rep["ledger"].S]
    table = harness.run_study(harness.StudyConfig("pp_slanted", (0.25, 0.125, 0.0625)))
    yield "study/pp_slanted", [table.errors[n] for n in table.norms]


def main() -> int:
    lines, overall = [], hashlib.sha256()
    for name, arrays in groups():
        d = digest(arrays)
        overall.update(d.encode())
        lines.append(f"{d}  {name}")
    lines.append(f"{overall.hexdigest()}  overall")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    with open(os.environ.get("GITHUB_STEP_SUMMARY", os.devnull), "a") as fh:
        fh.write("```\n" + text + "```\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
