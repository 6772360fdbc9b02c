"""Tests of the benchmark itself: generation, pins, tracing and metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kbound import cli, exact, scroll, verify  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())["sha256"]


def first_passes(workload, seed, n=4):
    return list(itertools.islice(workloads.passes(workload, seed), n))


def test_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert first_passes(workload, 7) == first_passes(workload, 7)
        assert first_passes(workload, 7) != first_passes(workload, 8)


def test_every_generated_operation_is_pinned():
    assert set(PINS) == {workloads.op_key(op) for op in workloads.catalogue()}
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            for argvs in first_passes(workload, seed):
                assert all(workloads.op_key(op) in PINS for op in argvs)


def test_passes_have_fixed_composition():
    for seed in range(5):
        for ops in first_passes("sweep", seed):
            starts = {int(op[3]) for op in ops}
            assert all(op[1] == "all" for op in ops)
            assert len(starts) == workloads.SWEEP_WINDOWS
            assert starts <= set(workloads.SWEEP_STARTS)
        for ops in first_passes("short", seed):
            assert sorted((op[1], op[7]) for op in ops) == sorted(
                itertools.product(workloads.SHORT_CASES, workloads.FORMATS)
            )


def wrap_targets():
    return {
        (module, name): getattr(module, name)
        for module in (cli, exact, scroll, verify)
        for name in ("main", "sign_certificate", "phi", "_k2_raw", "minimize_k2", "verify_appendix")
        if hasattr(module, name)
    }


def test_tracer_wraps_where_callers_look_and_restores():
    before = wrap_targets()
    to_json = verify.CaseVerdict.to_json
    try:
        with tracer.Tracer():
            assert scroll.phi is verify.phi
            assert scroll.phi.__wrapped__ is before[(scroll, "phi")]
            assert verify.sign_certificate.__wrapped__ is before[(exact, "sign_certificate")]
            raise KeyError("leaving the block by an exception")
    except KeyError:
        pass
    assert wrap_targets() == before
    assert verify.CaseVerdict.to_json is to_json


def test_missing_function_is_an_absent_span(monkeypatch):
    monkeypatch.delattr(verify, "_r4_s")
    with tracer.Tracer() as t:
        assert hasattr(scroll.minimize_k2, "__wrapped__")
    assert t.absent == ["verify._r4_s"]


def test_traced_verify_counts_and_bytes(tmp_path):
    out = tmp_path / "out"
    argv = ["verify", "all", "--from", "36", "--to", "40", "--format", "json", "--no-timestamp"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    plain = out.read_bytes()
    with tracer.Tracer() as t:
        assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == plain
    summary = t.summary()
    assert summary["spans"]["exact.sign_certificate"][0] == 85
    assert summary["scan_integers"] == 12482
    assert summary["scan_max_tail_bound"] == 1999
    assert summary["json_bytes"] == len(plain)
    assert summary["sweep_degrees"] == 9 * 5
    assert summary["absent"] == []
    claims = {name for name in summary["spans"] if name.startswith("verify.")}
    assert len(claims - {"verify.serialize"}) == 16


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == {"a": [1, 6.0], "b": [2, 3.0], "c": [1, 1.0]}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = run.per_layer_metrics(tracer.empty_summary(), 0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()
    }


def test_unmeasured_layers_read_none_not_zero():
    layer = run.per_layer_metrics(tracer.empty_summary(), 0, 1.0, 1.0)
    measured = {name for name, (value, _) in layer.items() if value is not None}
    assert measured == {"trace.wall_ratio", "env.probe_ms"}
    assert {tracer.claim_metric(c) for c in run.CLAIM_IDS} == {
        tracer.claim_metric(c) for c in verify.CLAIM_ANCHORS
    }


def test_reference_factor_is_block_time_over_nominal():
    runner = run.Runner("short", {}, HERE, {}, float("inf"))
    factors = [runner.reference(0.0) for _ in range(3)]
    assert runner.ref_blocks == 3
    assert all(f > 0 for f in factors)
    assert runner.host_factor() * run.NOMINAL_BLOCK_S * 3 == pytest.approx(runner.ref_seconds)


def test_check_rejects_changed_bytes():
    argv = workloads.short_argv("r6", 40)
    pins = {workloads.op_key(argv): "0" * 64}
    assert run.check(run.Op(argv, 0.1, 0, b""), pins) == "output differs from the pinned sha256"
    assert run.check(run.Op(argv, 0.1, 2, b""), pins) == "exit code 2"
    doc = run.Op(workloads.sweep_argv(1000), 0.1, 0, b'{"overall": false}')
    assert run.check(doc, PINS) == "overall: false"

