"""Print one paper-size pass of the named benchmark workloads as a gate table.

Usage, from the root of a checkout: python .github/gate_table.py WORKLOAD...

Every gate is listed with its value, its recorded reference and the relative
drift, so the margin to the 1e-10 tolerance shows on the CPU and BLAS kernel
that ran it; the header also names glibc's mmap threshold, which moves the
peak RSS below. A second table gives each workload's pass wall seconds, its
set-up seconds (``Pass.setup_s``, from each row's mesh build to its first
step) and the process peak RSS after it (``ru_maxrss``, so a peak carries
over to the workloads after it), which shows a memory regression. Both
tables are appended to $GITHUB_STEP_SUMMARY when that is set. Exits 1 if
any gate fails.
"""

import os
import resource
import sys

sys.path[:0] = ["src", "benchmarks"]
import workloads  # noqa: E402


def split(detail):
    value, _, ref = detail.partition(" vs reference ")
    try:
        return value, ref, f"{(float(value) - float(ref)) / abs(float(ref)):+.2e}"
    except ValueError:
        return detail, "", ""


def main(names) -> int:
    kernel = os.environ.get("OPENBLAS_CORETYPE", "default")
    mmap = os.environ.get("MALLOC_MMAP_THRESHOLD_", "dynamic")
    lines = [f"gate tolerance REL_TOL = {workloads.REL_TOL:g}, OpenBLAS kernel: {kernel}, "
             f"glibc mmap threshold: {mmap}", "",
             "| workload | check | ok | value | reference | relative drift |",
             "| --- | --- | --- | --- | --- | --- |"]
    costs = ["", "| workload | pass wall s | set-up s | process peak RSS MiB |",
             "| --- | --- | --- | --- |"]
    failed = 0
    for w in names:
        p = workloads.run_pass(w, "paper", 0)
        failed += p.failed
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        costs.append(f"| {w} | {p.wall_s:.2f} | {p.setup_s:.3f} | {peak_mib:.1f} |")
        for name, ok, detail in p.checks:
            value, ref, drift = split(detail)
            lines.append(f"| {w} | {name} | {'pass' if ok else 'FAIL'} "
                         f"| {value} | {ref} | {drift} |")
    text = "\n".join(lines + costs) + "\n"
    print(text)
    with open(os.environ.get("GITHUB_STEP_SUMMARY", os.devnull), "a") as fh:
        fh.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
