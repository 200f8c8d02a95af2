"""Tests of the benchmark's own machinery: span arithmetic, the correctness
gate, and layers that no longer exist.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.pin_environment()

import tcla  # noqa: E402
import tcla.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def registered(kind):
    """Metric name -> unit, as BENCHMARK.json registers them."""
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    spans = tracer.Tracer(clock=lambda: next(ticks))
    leaf = spans.wrap("leaf", lambda: None)
    inner = spans.wrap("inner", lambda: leaf())

    def body():
        inner()
        inner()

    spans.wrap("outer", body)()
    # outer [0, 9] holds inner [1, 4] and [5, 8], each holding a leaf [2, 3] and [6, 7].
    assert [span[1:] for span in spans.spans] == [[0, 9, -1], [1, 4, 0], [2, 3, 1], [5, 8, 0], [6, 7, 3]]
    assert tracer.self_times(spans.spans) == [3, 2, 1, 2, 1]
    assert tracer.summarize(spans.spans) == {"outer": (1, 3), "inner": (2, 4), "leaf": (2, 2)}


def test_span_closes_when_the_call_raises():
    spans = tracer.Tracer()

    def boom():
        raise ValueError

    wrapped = spans.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    wrapped_ok = spans.wrap("ok", lambda: 1)
    assert wrapped_ok() == 1
    assert [span[3] for span in spans.spans] == [-1, -1]
    assert all(span[2] >= span[1] for span in spans.spans)


def test_patch_reaches_copied_bindings_and_restores_them():
    original = tcla.shapovalov.shapovalov_matrix
    spans = tracer.Tracer()
    with tracer.traced_layers(spans, ["shapovalov.shapovalov_matrix"]) as absent:
        assert absent == []
        for module in (tcla, tcla.shapovalov, tcla.criterion, tcla.cli):
            assert module.shapovalov_matrix is not original
    for module in (tcla, tcla.shapovalov, tcla.criterion, tcla.cli):
        assert module.shapovalov_matrix is original


def test_missing_layer_is_reported_absent():
    names = list(tracer.LAYERS) + ["shapovalov.no_such_function", "verma.NoSuchClass.act", "no_such_module.f"]
    original_act = tcla.VermaModule.act
    with tracer.traced_layers(tracer.Tracer(), names) as absent:
        assert tcla.VermaModule.act is not original_act
    assert absent == ["shapovalov.no_such_function", "verma.NoSuchClass.act", "no_such_module.f"]
    assert tcla.VermaModule.act is original_act


def _record(wl, seed):
    inputs = wl.build(seed)
    return wl.record(inputs, wl.job(inputs, []))


def test_corrupted_reference_counts_failed_operations():
    wl = workloads.ValidateSl3(samples=2)
    reference = _record(wl, 3)
    result, _ = run.run_workload(wl, 3, 0.1, False, reference)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert units(result) == registered("end_to_end")
    reference[1] = "0" * 16
    result, _ = run.run_workload(wl, 3, 0.1, False, reference)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 > 0

    wl = workloads.ScanVir(height=2)
    reference = _record(wl, 3)
    reference[0][1][1] += "1"
    result, _ = run.run_workload(wl, 3, 0.1, False, reference)
    assert result["failed"] == result["attempted"] // 2 > 0


def test_command_exits_nonzero_on_a_failed_operation(tmp_path, monkeypatch, capsys):
    wl = workloads.CliCold()
    reference = _record(wl, 0)
    reference[2] = "0" * 16
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"cli-cold": {"params": {}, "seeds": {"0": reference}}}))
    monkeypatch.setattr(run, "REFERENCE", path)
    assert run.main(["--workload", "cli-cold", "--seed", "0", "--seconds", "0.1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == result["attempted"] // 6 > 0


def test_without_sources_the_command_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "scan-vir", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_every_layer_runs_on_its_workload():
    for wl in (workloads.ScanVir(height=3), workloads.ValidateSl3(samples=2), workloads.CliCold()):
        result, details = run.run_workload(wl, 5, 0.1, True)
        assert result["failed"] == 0
        assert details["absent"] == [] and details["uncalled"] == [], wl.name
        assert units(result) == registered("per_layer")
        metrics = result["metrics"]
        for name in wl.layers:
            assert metrics[f"{name}.calls"]["value"] > 0, (wl.name, name)
        shares = sum(metrics[f"{name}.share"]["value"] for name in tracer.LAYERS + (tracer.IMPORT,))
        assert abs(shares + metrics["trace.unattributed_share"]["value"] - 1) < 1e-9
