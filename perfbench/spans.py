"""Span tracing of one `wmgtomo reconstruct` run, and the per-layer metrics
derived from its spans.

Run as a script, it reconstructs in-process with tracing installed and
writes the spans to a JSON file:

    PYTHONPATH=src python3 perfbench/spans.py spans.json reconstruct --sino ...

The package imports functions by name, so each wrapper replaces the name
where its caller looks it up: `wmgtomo.cli` for the top-level phases, the
`wmgtomo.multilevel` globals for the hierarchy build and the V-cycle (whose
recursion goes through the module global `wtg_apply`), the
`wmgtomo.sparse_kernels` global the dense factorization solves through, and
the `wmgtomo.solvers` global the solvers compute errors with.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time
from collections import defaultdict

from stats import self_time
from workloads import MAX_LEVEL


class Tracer:
    """Keeps spans in memory: name, start, end, parent index and level."""

    def __init__(self):
        self.spans: list[dict] = []
        self.memory: dict = {}
        self.iterations = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, level_of=None, on_result=None):
        """`fn` recording one span per call. `level_of(args)` labels the span
        with a hierarchy level; `on_result(result)`, run after the span
        closes, returns the value handed back to the caller."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "level": level_of(args) if level_of else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            return result if on_result is None else on_result(result)

        return traced


def csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def hierarchy_memory(h) -> dict:
    """Computed sizes of the stored factors per level and the dense
    Cholesky factors of the coarsest level."""
    out = {"factor_nnz": defaultdict(int), "factor_bytes": defaultdict(int),
           "coarse_dense_bytes": 0}
    stack = [h.root]
    while stack:
        node = stack.pop()
        if node.factor is not None:
            out["factor_nnz"][f"L{node.level}"] += int(node.factor.nnz)
            out["factor_bytes"][f"L{node.level}"] += csr_bytes(node.factor)
        if node.coarse_solve is not None:
            out["coarse_dense_bytes"] += int(node.coarse_solve.lower.nbytes)
        stack.extend(node.children.values())
    return out


def install(tracer: Tracer):
    """Replace the traced names in the wmgtomo modules with wrappers."""
    from wmgtomo import cli, multilevel, solvers, sparse_kernels

    def node_level(args):
        return args[0].level

    def after_projector(w):
        tracer.memory["w_nnz"] = int(w.nnz)
        tracer.memory["w_bytes"] = csr_bytes(w)
        # Linux reports ru_maxrss in KiB
        tracer.memory["rss_after_projector_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return w

    def after_hierarchy(h):
        tracer.memory["hierarchy"] = hierarchy_memory(h)
        return h

    def after_solve(result):
        tracer.iterations = result[1].iterations[-1]
        return result

    def wrap_cli(attr, name, **kw):
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), **kw))

    wrap_cli("read_grid", "cli.read_grid")
    wrap_cli("write_grid", "cli.write_grid")
    wrap_cli("write_convergence_csv", "cli.write_log")
    wrap_cli("build_projector", "geometry.build_projector",
             on_result=after_projector)
    wrap_cli("normal_operator", "solvers.normal_operator",
             on_result=lambda op: tracer.wrap("solvers.normal_op", op))
    wrap_cli("build_wmg_hierarchy", "multilevel.build_wmg_hierarchy",
             on_result=after_hierarchy)
    wrap_cli("wmg_preconditioner", "multilevel.wmg_preconditioner",
             on_result=lambda minv: tracer.wrap("solvers.precond", minv))
    wrap_cli("bicgstab_solve", "solvers.bicgstab_solve",
             on_result=after_solve)
    multilevel.spgemm = tracer.wrap("sparse_kernels.spgemm",
                                    multilevel.spgemm)
    multilevel.cholesky_factor = tracer.wrap(
        "sparse_kernels.cholesky_factor", multilevel.cholesky_factor)
    multilevel.wtg_apply = tracer.wrap("multilevel.wtg_apply",
                                       multilevel.wtg_apply,
                                       level_of=node_level)
    multilevel.WmgNode.apply_system = tracer.wrap(
        "multilevel.apply_system", multilevel.WmgNode.apply_system,
        level_of=node_level)
    sparse_kernels.cholesky_solve = tracer.wrap(
        "sparse_kernels.cholesky_solve", sparse_kernels.cholesky_solve)
    solvers.error_metrics = tracer.wrap("phantom.error_metrics",
                                        solvers.error_metrics)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, all but trace.overhead_s."""
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def select(name, level=None):
        return [(i, s) for i, s in enumerate(spans) if s["name"] == name
                and (level is None or s["level"] == level)]

    def total(name, level=None):
        return sum(s["end"] - s["start"] for _, s in select(name, level))

    def count(name, level=None):
        return len(select(name, level))

    def self_total(name, level=None):
        return sum(self_time(s, children[i]) for i, s in select(name, level))

    def median_ms(name, level=None):
        d = [s["end"] - s["start"] for _, s in select(name, level)]
        return 1000.0 * statistics.median(d) if d else 0.0

    mem = trace["memory"]
    hier = mem.get("hierarchy", {})
    m = {
        "geometry.build_projector_s": total("geometry.build_projector"),
        "geometry.w_nnz": mem["w_nnz"],
        "geometry.w_bytes": mem["w_bytes"],
        "geometry.rss_after_projector_mb": mem["rss_after_projector_mb"],
        "solvers.normal_operator_build_s": total("solvers.normal_operator"),
        "solvers.normal_op_applies": count("solvers.normal_op"),
        "solvers.normal_op_s": total("solvers.normal_op"),
        "solvers.normal_op_ms": median_ms("solvers.normal_op"),
        "solvers.precond_applies": count("solvers.precond"),
        "solvers.precond_s": total("solvers.precond"),
        "solvers.iterations": trace["iterations"],
        "solvers.bicgstab_self_s": self_total("solvers.bicgstab_solve"),
        "multilevel.build_s": total("multilevel.build_wmg_hierarchy"),
        "multilevel.build_self_s": self_total(
            "multilevel.build_wmg_hierarchy"),
        "multilevel.coarse_dense_bytes": hier.get("coarse_dense_bytes", 0),
        "multilevel.vcycle_ms": median_ms("multilevel.wtg_apply", 1),
    }
    for k in range(1, MAX_LEVEL + 1):
        p = f"multilevel.L{k}."
        m[p + "factor_nnz"] = hier.get("factor_nnz", {}).get(f"L{k}", 0)
        m[p + "factor_bytes"] = hier.get("factor_bytes", {}).get(f"L{k}", 0)
        m[p + "wtg_apply_s"] = total("multilevel.wtg_apply", k)
        m[p + "wtg_self_s"] = self_total("multilevel.wtg_apply", k)
        m[p + "apply_system_calls"] = count("multilevel.apply_system", k)
        m[p + "apply_system_s"] = total("multilevel.apply_system", k)
    for short in ("spgemm", "cholesky_factor", "cholesky_solve"):
        m[f"sparse_kernels.{short}_calls"] = count(f"sparse_kernels.{short}")
        m[f"sparse_kernels.{short}_s"] = total(f"sparse_kernels.{short}")
    m["phantom.error_metrics_calls"] = count("phantom.error_metrics")
    m["phantom.error_metrics_s"] = total("phantom.error_metrics")
    m["cli.read_grid_s"] = total("cli.read_grid")
    m["cli.write_grid_s"] = total("cli.write_grid")
    m["cli.write_log_s"] = total("cli.write_log")
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["trace.coverage"] = top / trace["main_s"]
    return m


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from wmgtomo import cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump({"main_s": main_s, "exit_code": code,
                   "iterations": tracer.iterations, "memory": tracer.memory,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
