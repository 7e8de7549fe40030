"""Tests of the benchmark itself; run with

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps them out of the repository's default test collection.
"""
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- workloads


def test_s5_and_wideband_inputs_repeat_for_a_seed():
    for build in (lambda s: workloads.s5_scenario(s, workloads.S5_ORIGINS, "s5_offset", 6),
                  lambda s: workloads.s5_scenario(s, (0,) * 5, "s5_sync_replay", 6),
                  lambda s: workloads.wideband_scenario(s, 4)):
        assert build(3) == build(3)
        assert build(3).trajectory != build(4).trajectory
        assert build(3).rng_seed != build(4).rng_seed


def test_replayed_trace_and_urban_fix_repeat_for_a_seed(tmp_path):
    from foldloc import harness, traceio

    sc = workloads.s5_scenario(3, (0,) * 5, "s5_sync_replay", 1)
    paths = []
    for k in range(2):
        paths.append(tmp_path / f"t{k}.bin")
        traceio.write_trace(paths[-1], harness.synth_fix_trace(sc, 0), 1.92e6)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    urban = workloads.WORKLOADS["urban_tdoa"].fix
    assert urban(3, 0) == urban(3, 0)
    assert urban(3, 0) != urban(4, 0)


def test_workload_pcis_exclude_half_frame_aliases_of_pci_10():
    pcis = set(workloads.S5_PCIS) | {c[0] for c in workloads.WIDE_CELLS}
    assert not pcis & {74, 274}


# --------------------------------------------------------------- tracing


def _span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_of_a_nested_tree():
    spans = [_span("fix", 0, 10),
             _span("synth", 1, 6, 0),
             _span("frame", 2, 3, 1),
             _span("frame", 3, 5, 1),
             _span("detect", 6, 9, 0),
             _span("fix", 10, 12)]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 2.0, 3.0, 2.0]
    assert sum(tracing.self_times(spans)) == 12.0
    agg = tracing.summarize(spans)
    assert agg["frame"]["calls"] == 2 and agg["frame"]["total_s"] == 3.0
    assert agg["synth"]["self_s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0, 10), _span("a", 1, 4, 0), _span("b", 3, 6, 0),
             _span("c", 8, 12, 0)]
    # children cover [1, 6] and [8, 10] of the parent
    assert tracing.self_times(spans)[0] == 3.0


def test_wrap_records_calls_through_every_binding_and_restores():
    import foldloc
    from foldloc import locate

    original = locate.sample_to_distance
    tracer = tracing.Tracer()
    tracer.install({"locate.sample_to_distance": lambda a, k, r: {"m": r}})
    try:
        locate.sample_to_distance(2.0, 1.92e6)
        foldloc.sample_to_distance(1.0, 1.92e6)
    finally:
        tracer.uninstall()
    assert locate.sample_to_distance is original
    assert foldloc.sample_to_distance is original
    agg = tracing.summarize(tracer.spans)["locate.sample_to_distance"]
    assert agg["calls"] == 2
    assert agg["counts"]["m"] == pytest.approx(3.0 * 3e8 / 1.92e6)


def test_missing_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install({"detect.no_such_function": None,
                    "no_such_module.f": None,
                    "locate.sample_to_distance": None})
    tracer.uninstall()
    assert tracer.missing == ["detect.no_such_function", "no_such_module.f"]


# ---------------------------------------------------------------- metrics


def test_metric_and_workload_names_fit_the_grammar():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(run.END_TO_END) + list(run.per_layer_units())
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.fullmatch(u) for u in units), units


def test_benchmark_json_lists_what_the_runs_report():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)


def test_tail_is_the_value_with_ten_fixes_beyond_it():
    assert run.tail_ms([float(v) for v in range(30)]) == (19.0, pytest.approx(200 / 3))
    assert run.tail_ms([3.0, 1.0, 2.0]) == (2.0, 50.0)


def _loop(records):
    return run.Loop(attempts=[(float(i), 0.1, True) for i in range(len(records))],
                    records=[(r["fix"], r) for r in records])


def _rec(i, dets, truth, error=None):
    return workloads.record(i, float(i), (0.0, 0.0), truth, [], None, 0,
                            error_m=error) | {"detections": [[p, 0, 0.0, 1.0, 0.9]
                                                             for p in dets]}


def test_gate_passes_consistent_records_and_names_a_failed_repeat():
    recs = [_rec(0, [10, 84], [10, 84, 150], 12.5), _rec(1, [10, 74], [10, 84])]
    loop = _loop(recs + recs)
    q, counts = run.quality(recs, 2, loop)
    assert (q["recall"], q["precision"]) == (3 / 5, 3 / 4)
    assert q["resolved_frac"] == 0.5
    failed, _ = run.gate("w", 1, recs, [loop], [], counts)
    assert failed == []

    changed = _rec(1, [10], [10, 84])
    failed, _ = run.gate("w", 1, recs, [_loop(recs + [recs[0], changed])], [], counts)
    assert [f.split(":")[0] for f in failed] == ["repeat_identical"]


def test_gate_names_non_finite_outputs():
    recs = [_rec(0, [10], [10], float("nan"))]
    loop = _loop(recs + recs)
    failed, _ = run.gate("w", 1, recs, [loop], [], run.quality(recs, 1, loop)[1])
    assert any(f.startswith("finite") for f in failed)
