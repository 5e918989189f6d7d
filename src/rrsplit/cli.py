"""Command-line runner for convergence studies, audits, and diagnostics."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import coupling, cutoff, fem, harness, meshing
from .cases import CASE_NAMES, get_case


def _dyadic_list(dt_max: float, dt_min: float) -> tuple:
    if dt_min > dt_max:
        raise ValueError("--dt-min must not exceed --dt-max")
    steps = math.log2(dt_max / dt_min)
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
    if args.out:
        return args.out
    return os.path.join(harness.default_output_dir(), default_name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsplit",
        description="Robin-Robin splitting solver for two-subdomain interface problems",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, case=False, dt=False, dt_range=False):
        if case:
            p.add_argument("--case", required=True, choices=CASE_NAMES)
            p.add_argument("--k", type=int, choices=(1, 2), help="must match the case")
        if dt:
            p.add_argument("--dt", type=float, required=True)
        if dt_range:
            p.add_argument("--dt-max", type=float, required=True)
            p.add_argument("--dt-min", type=float, required=True)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--nu-f", type=float, default=1.0)
        p.add_argument("--nu-s", type=float, default=1.0)
        p.add_argument("--t-final", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default under RRSPLIT_OUT_DIR)")

    p = sub.add_parser("convergence", help="dyadic-dt convergence study")
    common(p, case=True, dt_range=True)
    p.add_argument("--oracle", action="store_true", help="use the strongly coupled stepper")
    p.add_argument("--emit-plot", action="store_true", help="write a gnuplot script next to the CSV")

    p = sub.add_parser("run", help="single simulation with final-time errors")
    common(p, case=True, dt=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("energy-audit", help="stored-plus-dissipated energy balance check")
    common(p)
    p.add_argument("--k", type=int, choices=(1, 2), default=1)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=20)

    p = sub.add_parser("cutoff-verify", help="cut-off function assumption report")
    common(p, dt_range=True)

    p = sub.add_parser("mesh-dump", help="write the study mesh for a case and dt")
    common(p, case=True, dt=True)
    return parser


def _check_case_k(parser, args, case):
    if getattr(args, "k", None) is not None and args.k != case.k:
        parser.error(f"--k {args.k} does not match case {case.name} (k={case.k})")


def cmd_convergence(parser, args) -> int:
    case = get_case(args.case, nu_f=args.nu_f, nu_s=args.nu_s)
    _check_case_k(parser, args, case)
    cfg = harness.StudyConfig(
        case=case,
        dt_list=_dyadic_list(args.dt_max, args.dt_min),
        final_time=args.t_final,
        alpha=args.alpha,
        nu_f=args.nu_f,
        nu_s=args.nu_s,
        use_oracle=args.oracle,
    )
    table = harness.run_study(cfg)
    path = _out_path(args, f"convergence_{case.name}.csv")
    harness.write_table(table, path)
    print(f"wrote {path}")
    sys.stdout.write(harness.table_to_csv(table))
    for note in table.notes:
        print(f"note: {note}")
    for dt, reason in table.failures:
        print(f"flagged row dt={dt:.6g}: {reason}")
    if args.emit_plot:
        script = os.path.splitext(path)[0] + ".gp"
        harness.emit_plot_script(table, path, script)
        print(f"wrote {script}")
    return 0


def cmd_run(parser, args) -> int:
    case = get_case(args.case, nu_f=args.nu_f, nu_s=args.nu_s)
    _check_case_k(parser, args, case)
    params = coupling.SchemeParams(
        k=case.k, dt=args.dt, alpha=args.alpha, nu_f=args.nu_f, nu_s=args.nu_s, T=args.t_final
    )
    mesh = harness.build_study_mesh(case, args.dt)
    ops = coupling.CoupledOperators(mesh, params)
    state0 = coupling.initial_state(case, mesh, ops)
    sources = coupling.SourceData.from_case(case)
    if args.oracle:
        final = coupling.run_monolithic(params, mesh, sources, state0, ops)
        print(f"errU={fem.l2_error(mesh, final.u, case.exact_u, args.t_final):.6g}")
    else:
        final, ledger = coupling.run(params, mesh, sources, state0, ops)
        print(f"errU={fem.l2_error(mesh, final.u, case.exact_u, args.t_final):.6g}")
        print(f"errW={fem.l2_error(mesh, final.w, case.exact_w, args.t_final):.6g}")
        # the zero-source balance identity does not apply under forcing;
        # report the stored energy instead (see energy-audit for the identity)
        print(f"final_energy={ledger.Z[-1]:.6g}")
    if args.out:
        coupling.dump_checkpoint(final, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_energy_audit(parser, args) -> int:
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
        coupling.write_energy_csv(report["ledger"], args.out)
        print(f"wrote {args.out}")
    return 0 if report["passed"] else 1


def cmd_cutoff_verify(parser, args) -> int:
    dt_list = _dyadic_list(args.dt_max, args.dt_min)
    csv = harness.cutoff_report(dt_list)
    path = _out_path(args, "cutoff_report.csv")
    with open(path, "w") as fh:
        fh.write(csv)
    sys.stdout.write(csv)
    print(f"wrote {path}")
    bad = [dt for dt in dt_list if not cutoff.verify_assumptions(cutoff.CutoffConfig(dt)).passed]
    return 0 if not bad else 1


def cmd_mesh_dump(parser, args) -> int:
    case = get_case(args.case)
    _check_case_k(parser, args, case)
    mesh = harness.build_study_mesh(case, args.dt)
    path = _out_path(args, f"mesh_{case.name}.txt")
    meshing.dump_mesh(mesh, path)
    print(f"wrote {path} ({mesh.n_nodes} nodes, h_max={mesh.h_max:.6g})")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # a config file supplies defaults; explicit flags win
    if "--config" in argv:
        defaults = _read_config(argv[argv.index("--config") + 1])
        subparsers = parser._subparsers._group_actions[0].choices.values()
        if bad := set(defaults) - {a.dest for p in (parser, *subparsers) for a in p._actions}:
            parser.error(f"unknown config keys: {sorted(bad)}")
        for a in (act for p in subparsers for act in p._actions if act.dest in defaults):
            a.required, a.default = False, defaults[a.dest]
            if a.nargs == 0:  # a store_true flag; argparse converts other defaults by type
                if a.default.lower() not in ("true", "false"):
                    parser.error(f"config key {a.dest}: expected true or false, got {a.default!r}")
                a.default = a.default.lower() == "true"
    args = parser.parse_args(argv)
    try:
        handler = {
            "convergence": cmd_convergence,
            "run": cmd_run,
            "energy-audit": cmd_energy_audit,
            "cutoff-verify": cmd_cutoff_verify,
            "mesh-dump": cmd_mesh_dump,
        }[args.command]
        return handler(parser, args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
