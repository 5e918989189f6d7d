"""Command-line runner for convergence studies, audits, and diagnostics.

The only module that writes files or turns a failure into an exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import cutoff, harness
from .cases import CASE_NAMES, get_case


def _dyadic_list(dt_max: float, dt_min: float) -> tuple:
    if not all(math.isfinite(v) and v > 0.0 for v in (dt_max, dt_min)):
        raise ValueError("--dt-max and --dt-min must be finite and positive")
    if dt_min > dt_max:
        raise ValueError("--dt-min must not exceed --dt-max")
    steps = math.log2(dt_max / dt_min)
    if not math.isfinite(steps):
        raise ValueError("--dt-max / --dt-min overflows a float")
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("--dt-max / --dt-min must be a power of two")
    return tuple(dt_max / 2**i for i in range(int(round(steps)) + 1))


def _read_config(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _out_path(args, default_name: str) -> str:
    return args.out or os.path.join(os.environ.get("RRSPLIT_OUT_DIR", "."), default_name)


def _write(path, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _checkpoint_lines(state):
    """Plain-text checkpoint: step index, then each coefficient vector."""
    yield f"step {state.step_index}"
    for tag, vec in (("u", state.u), ("w", state.w), ("q", state.q), ("lambda", state.lam)):
        yield tag + " " + " ".join(map(repr, vec.tolist()))


def _energy_lines(ledger):
    """Per-step energy bookkeeping: n, Z, S, Z_plus_cumS."""
    balance = ledger.balance()
    yield "n,Z,S,Z_plus_cumS"
    for n, z in enumerate(ledger.Z):
        s = ledger.S[n - 1] if n >= 1 else 0.0
        yield f"{n},{z:.17g},{s:.17g},{balance[n]:.17g}"


def _mesh_lines(mesh):
    """Plain-text mesh: one record per line, index then fields, space separated."""
    for tag, fields, records in (("nodes", "x y", mesh.nodes),
                                 ("triangles_f", "n0 n1 n2", mesh.triangles_f),
                                 ("triangles_s", "n0 n1 n2", mesh.triangles_s),
                                 ("interface_segments", "n0 n1", mesh.interface_segments)):
        yield f"# {tag}: id {fields}"
        for i, record in enumerate(records.tolist()):
            yield " ".join(map(repr, (i, *record)))


def _config_parser() -> argparse.ArgumentParser:
    """--config alone: the first parsing pass, and a parent of the full parser."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    return parser


def build_parser(flags: list | None = None) -> argparse.ArgumentParser:
    """The rrsplit parser; appends each subcommand flag's Action to ``flags``."""
    flags = [] if flags is None else flags
    parser = argparse.ArgumentParser(
        prog="rrsplit",
        description="Robin-Robin splitting solver for two-subdomain interface problems",
        parents=[_config_parser()],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *names, **kwargs):
        flags.append(p.add_argument(*names, **kwargs))

    def common(p, case=False, dt=False, dt_range=False, coefficients=False, t_final=False,
               seed=False):
        if case:
            add(p, "--case", required=True, choices=CASE_NAMES)
        if dt:
            add(p, "--dt", type=float, required=True)
        if dt_range:
            add(p, "--dt-max", type=float, required=True)
            add(p, "--dt-min", type=float, required=True)
        if coefficients:
            add(p, "--alpha", type=float, default=1.0)
            add(p, "--nu-f", type=float, default=1.0)
            add(p, "--nu-s", type=float, default=1.0)
        if t_final:
            add(p, "--t-final", type=float, default=0.25)
        if seed:
            add(p, "--seed", type=int, default=0)
        add(p, "--out", help="output path (default under RRSPLIT_OUT_DIR)")

    p = sub.add_parser("convergence", help="dyadic-dt convergence study")
    common(p, case=True, dt_range=True, coefficients=True, t_final=True)
    add(p, "--oracle", action="store_true", help="use the strongly coupled stepper")
    add(p, "--emit-plot", action="store_true", help="write a gnuplot script next to the CSV")

    p = sub.add_parser("run", help="single simulation with final-time errors")
    common(p, case=True, dt=True, coefficients=True, t_final=True)
    add(p, "--oracle", action="store_true")

    p = sub.add_parser("energy-audit", help="stored-plus-dissipated energy balance check")
    common(p, coefficients=True, seed=True)
    add(p, "--k", type=int, choices=(1, 2), default=1)
    add(p, "--dt", type=float, default=0.1)
    add(p, "--steps", type=int, default=20)

    p = sub.add_parser("cutoff-verify", help="cut-off function assumption report")
    common(p, dt_range=True)

    p = sub.add_parser("mesh-dump", help="write the study mesh for a case and dt")
    common(p, case=True, dt=True)
    return parser


def cmd_convergence(args) -> int:
    case = get_case(args.case, nu_f=args.nu_f, nu_s=args.nu_s)
    cfg = harness.StudyConfig(
        case=case,
        dt_list=_dyadic_list(args.dt_max, args.dt_min),
        final_time=args.t_final,
        alpha=args.alpha,
        use_oracle=args.oracle,
    )
    table = harness.run_study(cfg)
    csv, path = harness.table_to_csv(table), _out_path(args, f"convergence_{case.name}.csv")
    _write(path, csv.splitlines())
    print(f"wrote {path}")
    sys.stdout.write(csv)
    for dt, reason in table.failures:
        print(f"flagged row dt={dt:.6g}: {reason}")
    if args.emit_plot:
        script = os.path.splitext(path)[0] + ".gp"
        _write(script, harness.plot_script(table, os.path.basename(path)).splitlines())
        print(f"wrote {script}")
    return 1 if table.failures else 0


def cmd_run(args) -> int:
    case = get_case(args.case, nu_f=args.nu_f, nu_s=args.nu_s)
    cfg = harness.StudyConfig(case=case, dt_list=(args.dt,), final_time=args.t_final,
                              alpha=args.alpha, use_oracle=args.oracle)
    final, ledger, errors = harness.run_row(cfg, args.dt, ("L2_final_U", "L2_final_W"))
    print(f"errU={errors['L2_final_U']:.6g}")
    print(f"errW={errors['L2_final_W']:.6g}")
    if not args.oracle:
        # the zero-source balance identity does not apply under forcing;
        # report the stored energy instead (see energy-audit for the identity)
        print(f"final_energy={ledger.Z[-1]:.6g}")
    if args.out:
        _write(args.out, _checkpoint_lines(final))
        print(f"wrote {args.out}")
    return 0


def cmd_energy_audit(args) -> int:
    report = harness.energy_audit(
        k=args.k, alpha=args.alpha, dt=args.dt, n_steps=args.steps, seed=args.seed,
        nu_f=args.nu_f, nu_s=args.nu_s,
    )
    print(
        f"k={args.k} alpha={args.alpha} dt={args.dt} steps={args.steps} "
        f"defect={report['max_relative_defect']:.3e} "
        f"{'PASS' if report['passed'] else 'FAIL'}"
    )
    if args.out:
        _write(args.out, _energy_lines(report["ledger"]))
        print(f"wrote {args.out}")
    return 0 if report["passed"] else 1


def cmd_cutoff_verify(args) -> int:
    reports = [cutoff.verify_assumptions(dt) for dt in _dyadic_list(args.dt_max, args.dt_min)]
    csv = harness.cutoff_report(reports)
    path = _out_path(args, "cutoff_report.csv")
    sys.stdout.write(csv)
    _write(path, csv.splitlines())
    print(f"wrote {path}")
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_mesh_dump(args) -> int:
    case = get_case(args.case)
    mesh = harness.build_study_mesh(case, args.dt)
    path = _out_path(args, f"mesh_{case.name}.txt")
    _write(path, _mesh_lines(mesh))
    print(f"wrote {path} ({mesh.n_nodes} nodes, h_max={mesh.h_max:.6g})")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = []
    parser = build_parser(flags)
    try:  # first pass: only --config, whose keys become flag defaults (explicit flags win)
        path = _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    if path is not None:
        try:
            defaults = _read_config(path)
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if bad := set(defaults) - {a.dest for a in flags}:
            parser.error(f"unknown config keys: {sorted(bad)}")
        for a in (f for f in flags if f.dest in defaults):
            value = defaults[a.dest]
            if a.nargs == 0:  # a store_true flag
                if value.lower() not in ("true", "false"):
                    parser.error(f"config key {a.dest}: expected true or false, got {value!r}")
                value = value.lower() == "true"
            elif a.type is not None:
                try:
                    value = a.type(value)
                except ValueError:
                    parser.error(f"config key {a.dest}: invalid {a.type.__name__} value {value!r}")
            # argparse never checks a default against the choices: check the key here
            if a.choices is not None and value not in a.choices:
                parser.error(f"config key {a.dest}: invalid choice {value!r} "
                             f"(choose from {', '.join(map(str, a.choices))})")
            a.required, a.default = False, value
    args = parser.parse_args(argv)
    handler = {"convergence": cmd_convergence, "run": cmd_run, "energy-audit": cmd_energy_audit,
               "cutoff-verify": cmd_cutoff_verify, "mesh-dump": cmd_mesh_dump}[args.command]
    try:
        return handler(args)
    except harness.ROW_FAILURES as exc:
        # bad input, such as a step without a study mesh, exits 2; not isinstance:
        # np.linalg.LinAlgError subclasses ValueError, and a failed run exits 1
        if type(exc) is ValueError:
            parser.error(str(exc))
        print(f"rrsplit {args.command}: failed: {exc!r}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path in a missing or unwritable directory
        if exc.filename is None:  # not a file: a closed stdout pipe, say
            raise
        print(f"rrsplit {args.command}: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
