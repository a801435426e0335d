"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench

The end-to-end cases run the real pipeline on a 16x16 / 24-angle instance
in a temporary copy of the source tree, so they finish in seconds.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import (END_TO_END, MAX_LEVEL, PER_LAYER, WORKLOADS,  # noqa: E402
                       Workload)

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_WMG = Workload("tiny-wmg", "test", "multilevel", solver="wmg-bicgstab",
                    levels=3, lam=0.5, noise=0.01, iters=6, target=0.9,
                    n=16, angles=24, detectors=16)
TINY_BICGSTAB = Workload("tiny-bicgstab", "test", "geometry",
                         solver="bicgstab", iters=10, target=0.9,
                         n=16, angles=24, detectors=16)


# -- statistics ---------------------------------------------------------------

def test_percentile_interpolates_linearly():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4], 0) == 1
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    assert stats.percentile(list(range(11)), 90) == pytest.approx(9.0)


def test_summarize_reports_median_count_and_a_full_tail_only():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert (s["median"], s["n"], s["high"]) == (2.0, 3, None)
    assert stats.summarize([1.0, 2.0, 3.0, 4.0])["median"] == 2.5
    # p90 needs 10 samples beyond it, so 100 samples; p99 needs 1000
    assert stats.summarize(list(range(99)))["high"] is None
    p, v = stats.summarize(list(range(100)))["high"]
    assert p == 90.0 and v == pytest.approx(89.1)
    assert stats.summarize(list(range(1000)))["high"][0] == 99.0


def test_self_time_subtracts_union_of_clipped_children():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0},
            {"start": 8.0, "end": 12.0}]
    # covered: [1, 4] and [8, 10]
    assert stats.self_time(parent, kids) == pytest.approx(5.0)
    assert stats.self_time(parent, []) == 10.0


LOG = [{"iter": 0, "rel_err_l2": 1.0, "seconds": 0.1},
       {"iter": 1, "rel_err_l2": 0.05, "seconds": 0.6},
       {"iter": 2, "rel_err_l2": 0.019, "seconds": 1.1},
       {"iter": 3, "rel_err_l2": 0.021, "seconds": 1.6},
       {"iter": 4, "rel_err_l2": 0.015, "seconds": 2.1}]


def test_time_to_target_uses_first_iterate_at_or_below_target():
    iters, secs = stats.time_to_target(20.0, LOG, 0.02)
    assert iters == 2 and secs == pytest.approx(21.1)
    assert stats.time_to_target(20.0, LOG, 0.05)[0] == 1
    assert stats.time_to_target(20.0, LOG, 0.01) is None


def test_failed_share():
    assert stats.failed_share(0, 3) == 0.0
    assert stats.failed_share(1, 4) == 0.25
    for bad in ((0, 0), (2, 1), (-1, 3)):
        with pytest.raises(ValueError):
            stats.failed_share(*bad)


# -- per-layer derivation -----------------------------------------------------

def _span(name, start, end, parent=None, level=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "level": level}


def test_layer_metrics_from_synthetic_spans():
    trace = {"main_s": 10.0, "iterations": 1,
             "memory": {"w_nnz": 5, "w_bytes": 80,
                        "rss_after_projector_mb": 1.5,
                        "hierarchy": {"factor_nnz": {"L1": 5},
                                      "factor_bytes": {"L1": 80, "L2": 99},
                                      "coarse_dense_bytes": 64}},
             "spans": [
                 _span("geometry.build_projector", 0.0, 2.0),
                 _span("multilevel.build_wmg_hierarchy", 2.0, 5.0),
                 _span("sparse_kernels.spgemm", 2.5, 3.0, parent=1),
                 _span("solvers.bicgstab_solve", 5.0, 9.5),
                 _span("solvers.precond", 5.5, 7.5, parent=3),
                 _span("multilevel.wtg_apply", 5.5, 7.5, parent=4, level=1),
                 _span("multilevel.wtg_apply", 6.0, 7.0, parent=5, level=2),
                 _span("multilevel.apply_system", 7.0, 7.2, parent=5,
                       level=1),
             ]}
    m = spans.layer_metrics(trace)
    assert set(m) | {"trace.overhead_s"} == {x.name for x in PER_LAYER}
    assert m["multilevel.build_s"] == 3.0
    assert m["multilevel.build_self_s"] == pytest.approx(2.5)
    assert m["solvers.bicgstab_self_s"] == pytest.approx(2.5)
    assert m["multilevel.vcycle_ms"] == pytest.approx(2000.0)
    assert m["multilevel.L1.wtg_self_s"] == pytest.approx(0.8)
    assert m["multilevel.L2.wtg_apply_s"] == pytest.approx(1.0)
    assert m["multilevel.L1.apply_system_calls"] == 1
    assert m["multilevel.L2.factor_bytes"] == 99
    # a level missing from the hierarchy reads 0
    assert m["multilevel.L2.factor_nnz"] == 0
    assert m["sparse_kernels.spgemm_calls"] == 1
    assert m["solvers.normal_op_ms"] == 0.0
    assert m["trace.coverage"] == pytest.approx(0.95)


def test_tracer_records_parent_and_level():
    class Node:
        level = 2

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda node: node.level,
                        level_of=lambda args: args[0].level)
    outer = tracer.wrap("outer", lambda: inner(Node()),
                        on_result=lambda r: r * 10)
    assert outer() == 20
    names = [(s["name"], s["parent"], s["level"]) for s in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, 2)]


def test_child_is_killed_at_the_deadline(tmp_path):
    start = time.perf_counter()
    code, wall, _ = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], tmp_path,
        {}, start + 1.0, tmp_path / "child.out")
    assert code == -signal.SIGKILL
    assert 1.0 <= wall < 30


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_follows_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert bench["workloads"] == [{"name": w.name, "why": w.why}
                                  for w in WORKLOADS.values()]
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(bench["per_layer"]) <= 128


def test_trajectory_points_use_the_catalogue_names():
    traj = json.loads((HERE / "trajectory.json").read_text())
    assert {"nproc", "python", "numpy", "scipy", "blas",
            "blas_threads"} <= set(traj["environment"])
    for point in traj["points"]:
        assert set(point["end_to_end"]) == set(WORKLOADS)
        assert set(point["per_layer"]) == set(WORKLOADS)
        for w in WORKLOADS:
            assert {m.name for m in END_TO_END} <= set(point["end_to_end"][w])
            assert set(point["per_layer"][w]) == {m.name for m in PER_LAYER}


def test_per_level_metrics_cover_the_deepest_workload():
    deepest = max(w.levels or 0 for w in WORKLOADS.values())
    # internal hierarchy nodes sit on levels 1 .. levels-1
    assert MAX_LEVEL == deepest - 1


# -- the pipeline on a tiny instance -----------------------------------------

@pytest.fixture()
def checkout(tmp_path):
    """A scratch checkout: a copy of src/ and the benchmark files."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _check_result(result, catalogue):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for m in catalogue:
        entry = result["metrics"][m.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m.unit
        assert isinstance(entry["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("workload", [TINY_WMG, TINY_BICGSTAB],
                         ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(checkout, workload):
    out = run.run_workload(workload, 5, 0.0, False, root=checkout)
    _check_result(out["result"], END_TO_END)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert m["setup_s"] + m["solve_s"] == pytest.approx(m["reconstruct_s"])
    assert m["solve_s"] > 0 and m["peak_rss_mb"] > 0
    assert 1 <= m["iters_to_target"] <= workload.iters
    # the work directory of the run is removed, the digest record kept
    work = checkout / ".perfbench_work"
    assert sorted(p.name for p in work.iterdir()) == ["images", "inputs"]


def test_traced_run_reports_every_layer_metric(checkout):
    out = run.run_workload(TINY_WMG, 5, 0.0, True, root=checkout)
    _check_result(out["result"], PER_LAYER)
    assert out["result"]["attempted"] == 2
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert m["solvers.iterations"] == TINY_WMG.iters
    assert m["sparse_kernels.spgemm_calls"] == 20
    assert m["sparse_kernels.cholesky_factor_calls"] == 16
    assert m["multilevel.L1.factor_nnz"] == m["geometry.w_nnz"]
    assert m["multilevel.L2.wtg_apply_s"] > 0
    assert 0 < m["trace.coverage"] <= 1


def test_multilevel_layers_read_zero_without_a_hierarchy(checkout):
    out = run.run_workload(TINY_BICGSTAB, 5, 0.0, True, root=checkout)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    for name, value in m.items():
        if name.startswith(("multilevel.", "sparse_kernels.")):
            assert value == 0, name
    assert m["solvers.normal_op_applies"] == 2 * TINY_BICGSTAB.iters + 1


def test_image_bytes_differing_from_an_earlier_run_fail(checkout):
    run.run_workload(TINY_BICGSTAB, 5, 0.0, False, root=checkout)
    (record,) = (checkout / ".perfbench_work" / "images").iterdir()
    record.write_text("0" * 64 + "\n")
    with pytest.raises(run.BenchError, match="image bytes differ"):
        run.run_workload(TINY_BICGSTAB, 5, 0.0, False, root=checkout)


def test_target_not_reached_fails_the_run(checkout):
    strict = Workload("tiny-strict", "test", "geometry", solver="bicgstab",
                      iters=2, target=1e-6, n=16, angles=24, detectors=16)
    with pytest.raises(run.BenchError, match="not reached"):
        run.run_workload(strict, 5, 0.0, False, root=checkout)


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wmg-2pct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
