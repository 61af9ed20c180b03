"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bench import measure, workloads
from cpdilate import dilation
from cpdilate.cli import builtin_instance

ROOT = Path(__file__).resolve().parent.parent


def test_tail_is_the_highest_order_statistic_with_ten_samples_beyond():
    latencies = [float(x) for x in range(30, 0, -1)]
    value, percentile, count = measure.tail(latencies)
    assert (value, count) == (20.0, 30)
    assert sum(x > value for x in latencies) == measure.TAIL_BEYOND
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert measure.tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)
    assert measure.tail([float(x) for x in range(11)]) == (0.0, 100 * 1 / 11, 11)


def test_headroom_floors_residuals_and_takes_the_worst_stage():
    exact = {"stages": [{"tolerance": 1e-9, "max_residual": 0.0}]}
    assert measure.headroom_decades(exact) == pytest.approx(7.0)
    mixed = {"stages": [{"tolerance": 1e-9, "max_residual": 0.0},
                        {"tolerance": 1e-8, "max_residual": 1e-12},
                        {"name": "cyclicity", "pass": False, "residuals": {}}]}
    assert measure.headroom_decades(mixed) == pytest.approx(4.0)
    assert measure.headroom_decades({"stages": [{"pass": False}]}) is None


def _single_instance_loop(tmp_path, command, raw):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw))
    pool = [workloads.InstanceFile(str(path), "", 0)]
    return workloads.ClosedLoop(command, pool, str(tmp_path))


def test_non_covariant_instance_counts_as_failed(tmp_path):
    raw, _ = workloads.draw_instance(workloads.PROFILES["roundtrip-extension"],
                                     np.random.default_rng(0))
    dim = len(raw["states"]["f"]["vector"])
    raw["states"]["f"]["vector"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)
    loop = _single_instance_loop(tmp_path, "dual", raw)
    first, second = loop.op(), loop.op()
    assert first.failure == second.failure == "exit code 2"
    assert len(loop.records) == 2


def test_a_crashing_op_counts_as_failed(tmp_path):
    loop = _single_instance_loop(tmp_path, "no-such-command", {"schema": 1})
    record = loop.op()
    assert record.failure.startswith("raised SystemExit")


def test_generator_is_deterministic_per_seed(tmp_path):
    for name, profile in workloads.PROFILES.items():
        digests = []
        for run, seed in enumerate((7, 7, 8)):
            directory = tmp_path / f"{name}-{run}"
            directory.mkdir()
            pool = workloads.write_pool(profile, seed, str(directory), size=2)
            digests.append([inst.sha256 for inst in pool])
        assert digests[0] == digests[1] != digests[2]
        assert digests[0][0] != digests[0][1]


def test_tracer_nests_spans_and_restores_the_library():
    original = dilation.verify_dilation
    s = builtin_instance().cp_map("S")
    tracer = measure.Tracer()
    with tracer.installed():
        assert dilation.verify_dilation is not original
        d = dilation.weak_tensor_dilation(s)
    assert dilation.verify_dilation is original
    names = [span.name for span in tracer.spans]
    assert names == ["dilation.weak_tensor_dilation", "vnmodule.gns",
                     "vnmodule.qons", "vnmodule.embed_qons",
                     "dilation.verify_dilation"]
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 0, 0]
    assert tracer.spans[-1].counts == {
        "membership_blocks": d.cpmap.source.coord_dim * d.k_dim ** 2}


def test_layer_metrics_self_times_and_absent_layers():
    spans = [measure.Span("dilation.weak_tensor_dilation", 0, None, 0.0, 10.0,
                          {"j_ops_bytes": 2_000_000}),
             measure.Span("vnmodule.gns", 0, 0, 1.0, 3.0,
                          {"h_dim": 4, "module_dim": 6, "n_a": 2, "g": 4}),
             measure.Span("dilation.verify_dilation", 0, 0, 4.0, 9.0,
                          {"membership_blocks": 18})]
    metrics = measure.layer_metrics(spans, [12.0], [11.0])
    assert metrics["dilation.weak_tensor_dilation_s"] == 10.0
    assert metrics["dilation.assemble_self_s"] == 3.0
    assert metrics["duality.dual_map_s"] == 0.0
    assert metrics["cli.self_s"] == 1.0
    assert metrics["trace.overhead_ratio"] == pytest.approx(11 / 12)
    assert metrics["vnmodule.gram_rank_ratio"] == 0.5
    assert metrics["dilation.membership_blocks"] == 18
    assert metrics["dilation.j_ops_mb"] == 2.0
    assert {name for name, _, _ in measure.PER_LAYER} == set(metrics)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == list(measure.END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(measure.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PROFILES)
