"""Call spans around the public functions of each rrsplit layer.

The benchmark wraps module attributes from the outside; nothing under
``src/`` knows it is being traced. Every wrapped call becomes a span
(name, start, end, parent, count). A span's self time is its duration minus
the time its child spans cover, and each span's self time is charged to
exactly one layer, so the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import pkgutil
from time import perf_counter

import numpy as np

# layer -> module -> wrapped attributes ("Class.method" for methods).
# Helpers that are not listed (element geometry, quadrature points, the
# CoupledOperators lift/interface_values methods) run inside a listed span
# and count toward its self time.
LAYERS = {
    "meshing.build": {"meshing": ("uniform_split_mesh", "slanted_interface_mesh")},
    "fem.assemble": {"fem": ("build_dofmap", "assemble_mass", "assemble_stiffness",
                             "assemble_interface_mass")},
    "fem.load": {"fem": ("assemble_load",)},
    "fem.norm": {"fem": ("l2_error", "h1_semi_error")},
    "fem.trace": {"fem": ("trace_restrict",)},
    "fem.interpolate": {"fem": ("interpolate",)},
    "sparse.triplets": {"sparse": ("from_triplets", "combine")},
    "sparse.factorize": {"sparse": ("factorize",)},
    "sparse.solve": {"sparse": ("Factorization.solve",)},
    "sparse.spmv": {"sparse": ("spmv",)},
    "coupling.operators": {"coupling": ("CoupledOperators.__init__",)},
    "coupling.energy": {"coupling": ("energy_Z", "energy_S")},
    "coupling.solid_step": {"coupling": ("solid_step",)},
    "coupling.fluid_step": {"coupling": ("fluid_step",)},
    "coupling.monolithic_step": {"coupling": ("monolithic_step",)},
    "coupling.loop": {"coupling": ("run", "run_monolithic", "advance", "initial_state")},
    "cases.certify": {"cases": ("residual_oracle",)},
    "harness": {"harness": ("run_study", "energy_audit", "build_study_mesh")},
}

# The root span of a traced pass; its self time is benchmark glue and is
# charged to harness.self_s with the harness functions.
ROOT = "harness.pass"

# Callables of a ManufacturedCase, wrapped on the case the benchmark passes in.
CASE_CLOSURES = ("exact_u", "exact_w", "exact_q", "exact_l", "grad_u", "grad_w",
                 "f_f", "f_s", "g_D", "g_N", "l_consistent")

# Per-layer metrics: (unit, "<end-to-end metric> on <workload>" where a change
# to the layer should show).
LAYER_METRICS = {
    "meshing.build_s": ("s", "setup_s on every workload"),
    "meshing.nodes": ("count", "setup_s on every workload"),
    "fem.assemble_s": ("s", "setup_s on every workload"),
    "sparse.triplets_s": ("s", "setup_s on every workload"),
    "coupling.operators_s": ("s", "setup_s on every workload; an eager cache shows here "
                             "and in peak_rss_mb on energy_audit"),
    "fem.load_s": ("s", "wall_s on slanted_sweep and oracle_gap; 0 on energy_audit"),
    "fem.load_calls": ("count", "wall_s on slanted_sweep and oracle_gap; 0 on energy_audit"),
    "fem.load_points": ("count", "wall_s on slanted_sweep and oracle_gap; 0 on energy_audit"),
    "cases.closure_s": ("s", "wall_s on slanted_sweep and oracle_gap; 0 on energy_audit"),
    "cases.closure_points": ("count", "wall_s on slanted_sweep and oracle_gap; "
                             "0 on energy_audit"),
    "fem.norm_s": ("s", "wall_s on slanted_sweep only"),
    "fem.norm_calls": ("count", "wall_s on slanted_sweep only"),
    "fem.trace_s": ("s", "small everywhere; shows moved work"),
    "fem.interpolate_s": ("s", "small everywhere; shows moved work"),
    "cases.certify_s": ("s", "small everywhere; shows moved work"),
    "sparse.factorize_s": ("s", "setup_s and peak_rss_mb on slanted_sweep (SPD); "
                           "wall_s on oracle_gap (saddle)"),
    "sparse.factorize_calls": ("count", "setup_s on slanted_sweep; wall_s on oracle_gap"),
    "sparse.lu_nnz": ("count", "peak_rss_mb on slanted_sweep and oracle_gap"),
    "sparse.solve_s": ("s", "wall_s on energy_audit (largest share) and oracle_gap"),
    "sparse.solve_calls": ("count", "wall_s on energy_audit and oracle_gap"),
    "sparse.spmv_s": ("s", "wall_s on energy_audit"),
    "sparse.spmv_calls": ("count", "wall_s on energy_audit"),
    "coupling.energy_s": ("s", "wall_s on energy_audit; dropping the unused ledger "
                          "moves slanted_sweep only"),
    "coupling.energy_calls": ("count", "wall_s on energy_audit"),
    "coupling.solid_step_s": ("s", "wall_s through the right-hand-side glue"),
    "coupling.fluid_step_s": ("s", "wall_s through the right-hand-side glue"),
    "coupling.monolithic_step_s": ("s", "wall_s on oracle_gap"),
    "coupling.loop_s": ("s", "wall_s through the stepping loops"),
    "coupling.steps": ("count", "dof_steps_per_s on every workload"),
    "harness.rows": ("count", "rows run in the traced pass"),
    "harness.rows_failed": ("count", "failed_fraction"),
    "harness.self_s": ("s", "time not charged to any other layer"),
    "trace.wall_s": ("s", "wall seconds of the traced pass"),
    "trace.overhead_s": ("s", "traced wall minus the untraced median"),
    "trace.spans": ("count", "spans recorded in the traced pass"),
}


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, args, kwargs, count=None):
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            span[4] = count(args, result)
        return result

    @contextlib.contextmanager
    def span(self, name):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "count": count}) + "\n")


def rrsplit_modules():
    import rrsplit

    mods = [rrsplit]
    for info in pkgutil.iter_modules(rrsplit.__path__):
        mods.append(importlib.import_module(f"rrsplit.{info.name}"))
    return mods


def replace_everywhere(stack: contextlib.ExitStack, module, attr, make_wrapper):
    """Wrap ``module.attr`` in every rrsplit namespace that binds the same object.

    Functions imported with ``from .x import f`` are separate bindings, so
    the replacement goes to each module that holds the identical object.
    An attribute that does not exist is left alone, so its layer reads 0.
    """
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return
        original = vars(cls)[meth]
        stack.callback(setattr, cls, meth, original)
        setattr(cls, meth, make_wrapper(original))
        return
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod in rrsplit_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                stack.callback(setattr, mod, name, value)
                setattr(mod, name, wrapper)


def _n_nodes(args, mesh):
    return int(mesh.n_nodes)


def _lu_nnz(args, fact):
    # SuperLU reports nnz(L + U); the seed keeps it on Factorization._lu.
    lu = getattr(fact, "_lu", fact)
    return int(getattr(lu, "nnz", 0))


def _n_points(args, result):
    return int(np.size(args[0]))


_COUNTS = {"uniform_split_mesh": _n_nodes, "slanted_interface_mesh": _n_nodes,
           "factorize": _lu_nnz}


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap every function named in LAYERS for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for layer, modules in LAYERS.items():
            for mod_name, attrs in modules.items():
                module = importlib.import_module(f"rrsplit.{mod_name}")
                for attr in attrs:
                    name = f"{mod_name}.{attr}"

                    def make(fn, name=name, count=_COUNTS.get(attr)):
                        @functools.wraps(fn)
                        def wrapper(*args, **kwargs):
                            return recorder.call(name, fn, args, kwargs, count)
                        return wrapper

                    replace_everywhere(stack, module, attr, make)
        yield


def traced_case(case, recorder: Recorder):
    """A copy of a ManufacturedCase whose closures record spans and point counts."""
    wrapped = {}
    for field in CASE_CLOSURES:
        fn = getattr(case, field)

        def wrapper(*args, fn=fn, name=f"cases.{field}"):
            return recorder.call(name, fn, args, {}, _n_points)

        wrapped[field] = wrapper
    return dataclasses.replace(case, **wrapped)


def _layer_of_span():
    table = {ROOT: "harness"}
    for layer, modules in LAYERS.items():
        for mod_name, attrs in modules.items():
            for attr in attrs:
                table[f"{mod_name}.{attr}"] = layer
    for field in CASE_CLOSURES:
        table[f"cases.{field}"] = "cases.closure"
    return table


def layer_metrics(spans) -> dict:
    """Self seconds per layer and the counts recorded at the same boundaries."""
    layer_of = _layer_of_span()
    child = np.zeros(len(spans))
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = dict.fromkeys(set(layer_of.values()), 0.0)
    calls = dict.fromkeys(layer_of, 0)
    counted = dict.fromkeys(self_s, 0)
    load_points = 0
    for i, (name, t0, t1, parent, count) in enumerate(spans):
        layer = layer_of[name]
        self_s[layer] += (t1 - t0) - child[i]
        calls[name] += 1
        counted[layer] += count
        if layer == "cases.closure" and parent >= 0 and spans[parent][0] == "fem.assemble_load":
            load_points += count
    out = {f"{layer}_s": v for layer, v in self_s.items() if layer != "harness"}
    out["harness.self_s"] = self_s["harness"]
    out.update({
        "meshing.nodes": counted["meshing.build"],
        "fem.load_calls": calls["fem.assemble_load"],
        "fem.load_points": load_points,
        "fem.norm_calls": calls["fem.l2_error"] + calls["fem.h1_semi_error"],
        "sparse.factorize_calls": calls["sparse.factorize"],
        "sparse.lu_nnz": counted["sparse.factorize"],
        "sparse.solve_calls": calls["sparse.Factorization.solve"],
        "sparse.spmv_calls": calls["sparse.spmv"],
        "coupling.energy_calls": calls["coupling.energy_Z"] + calls["coupling.energy_S"],
        "coupling.steps": calls["coupling.advance"] + calls["coupling.monolithic_step"],
        "cases.closure_points": counted["cases.closure"],
        "trace.spans": len(spans),
    })
    return out


def self_time_total(metrics: dict) -> float:
    """Sum of every layer's self seconds (harness.self_s included)."""
    return sum(v for k, v in metrics.items()
               if k.endswith("_s") and not k.startswith("trace."))
