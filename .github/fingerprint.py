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
- ``study/pp_slanted``: the errors of a three-row pp_slanted study;
- ``cutoff``: ``cutoff.phi`` and ``cutoff.grad_phi`` on the verifier's
  300 x 300 grid and on the seams x1 = 1/2, x1 = d and x1 = 1 - d
  (d = 1 - (1-dt) x2), and every field of ``cutoff.verify_assumptions``'s
  report, for dt = 2^-2 .. 2^-10, 0.1, 0.3 and 1e-5;
- ``cli/<name>``: the exit code, stdout, stderr and every written file of
  one ``cli.main`` invocation (``CLI_RUNS``): each subcommand, ``--out``,
  ``--emit-plot``, ``RRSPLIT_OUT_DIR``, a failed ``run`` and a step without
  a study mesh. Each runs in a fresh temporary directory with relative
  paths, so no digest depends on where it ran.

The output is appended to $GITHUB_STEP_SUMMARY when that is set.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path[:0] = [os.path.abspath("src")]
from rrsplit import cli, coupling, cutoff, harness, meshing  # noqa: E402
from rrsplit.cases import CASE_NAMES, get_case  # noqa: E402


# name -> (argv, RRSPLIT_OUT_DIR or None)
CLI_RUNS = {
    "convergence": (["convergence", "--case", "pp_slanted", "--dt-max", "0.25",
                     "--dt-min", "0.125", "--out", "table.csv", "--emit-plot"], None),
    "convergence-oracle": (["convergence", "--case", "ph_uniform", "--dt-max", "0.25",
                            "--dt-min", "0.125", "--oracle"], "out"),
    "run": (["run", "--case", "pp_conforming", "--dt", "0.125", "--out", "state.txt"], None),
    "run-failed": (["run", "--case", "pp_uniform", "--dt", "0.25", "--nu-f", "1e300"], None),
    "run-no-mesh": (["run", "--case", "pp_slanted", "--dt", "0.05"], None),
    "energy-audit": (["energy-audit", "--k", "2", "--dt", "0.2", "--steps", "5", "--seed", "3",
                      "--out", "energy.csv"], None),
    "cutoff-verify": (["cutoff-verify", "--dt-max", "0.25", "--dt-min", "0.0625"], None),
    "mesh-dump": (["mesh-dump", "--case", "pp_slanted", "--dt", "0.125"], "out"),
}


def cli_digest(argv, out_dir) -> str:
    """SHA-256 of one ``cli.main`` run's exit code, stdout, stderr and written files."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("RRSPLIT_OUT_DIR", None)
        if out_dir is not None:
            os.mkdir(out_dir)
            os.environ["RRSPLIT_OUT_DIR"] = out_dir
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        files = sorted((str(p), p.read_bytes()) for p in Path().rglob("*") if p.is_file())
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue(), files)).encode()).hexdigest()


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def state_arrays(state):
    return [state.u, state.w, state.q, state.lam]


def cutoff_arrays():
    xs = np.linspace(0.0, 1.0, 300)  # the verifier's grid
    X1, X2 = np.meshgrid(xs, xs)
    for dt in [2.0**-j for j in range(2, 11)] + [0.1, 0.3, 1e-5]:
        d = 1.0 - (1.0 - dt) * xs
        for x1, x2 in ((X1, X2), (np.full_like(xs, 0.5), xs), (d, xs), (1.0 - d, xs)):
            yield cutoff.phi(x1, x2, dt)
            yield from cutoff.grad_phi(x1, x2, dt)
        yield dataclasses.astuple(cutoff.verify_assumptions(dt))


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
        yield f"run/{name}", digest(state_arrays(final) + [ledger.Z, ledger.S])
        oracle = coupling.run_monolithic(params, mesh, sources, state0, ops)
        yield f"run_monolithic/{name}", digest(state_arrays(oracle))
    for k in (1, 2):
        rep = harness.energy_audit(k=k, alpha=2.0, dt=0.05, n_steps=12, mesh_n=12, seed=3,
                                   nu_f=2.0, nu_s=0.5)
        yield f"energy_audit/k{k}", digest([rep["ledger"].Z, rep["ledger"].S])
    table = harness.run_study(harness.StudyConfig("pp_slanted", (0.25, 0.125, 0.0625)))
    yield "study/pp_slanted", digest([table.errors[n] for n in table.norms])
    yield "cutoff", digest(cutoff_arrays())
    for name, (argv, out_dir) in CLI_RUNS.items():
        yield f"cli/{name}", cli_digest(argv, out_dir)


def main() -> int:
    lines, overall = [], hashlib.sha256()
    for name, d in groups():
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
