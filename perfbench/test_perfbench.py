"""Tests of the benchmark's own helpers (no server, no timing).

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import os
import re

import numpy as np
import pytest

import pb_common
import pb_inputs
import pb_serve_mixed
import pb_stream_sessions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _large(seed):
    pair = pb_inputs.large_pair(seed, n=4000)
    return [np.concatenate(side) for side in (pair.g1, pair.g2)], pair.emerging


def test_one_seed_yields_identical_inputs_and_another_differs():
    (g1, g2), groups = _large(3)
    (h1, h2), again = _large(3)
    assert np.array_equal(g1, h1) and np.array_equal(g2, h2) and groups == again
    (o1, o2), _ = _large(4)
    assert not (len(o1) == len(g1) and np.array_equal(o1, g1))

    assert pb_inputs.serve_requests(3) == pb_inputs.serve_requests(3)
    assert pb_inputs.serve_requests(3) != pb_inputs.serve_requests(4)

    def streams(seed):
        return [(t.universe, t.steps, t.burst) for t in pb_inputs.tenant_streams(seed)]

    assert streams(3) == streams(3)
    assert streams(3) != streams(4)


def test_large_pair_has_the_planted_shape():
    pair = pb_inputs.large_pair(1, n=4000)
    assert len(pair.emerging) == len(pair.disappearing) == pb_inputs.LARGE_GROUPS
    members = [v for group in pair.emerging + pair.disappearing for v in group]
    assert len(members) == len(set(members))
    assert all(8 <= len(group) <= 24 for group in pair.emerging)


def test_request_list_keeps_the_class_shares():
    ops = pb_inputs.serve_requests(1)
    counts = {}
    for kind, _ in ops:
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == pb_inputs.SERVE_COUNTS
    misses = [body["tol_scale"] for kind, body in ops if kind == "miss"]
    assert len(set(misses)) == len(misses)
    owners = pb_inputs._owners()
    for kind, body in ops:
        if kind == "batch":
            refs = {q["graph"] for q in body["queries"]}
            assert refs & set(owners[0]) and refs & set(owners[1])


def test_stream_ops_cover_every_tenant_step_once_in_order():
    seen = {}
    total = 0
    for connection in range(2):
        ops = pb_inputs.stream_ops(connection)
        total += len(ops)
        for op, tenant, step in ops:
            if op == "post":
                assert step == seen.get(tenant, 0) + 1
                seen[tenant] = step
    assert seen == {t: pb_inputs.TENANT_STEPS for t in range(pb_inputs.TENANTS)}
    assert total >= 1000


def test_tail_percentile_refuses_a_thin_tail():
    values = list(range(1, 1001))
    assert pb_common.tail_percentile(values, 99) == 990
    with pytest.raises(ValueError):
        pb_common.tail_percentile(values[:999], 99)
    with pytest.raises(ValueError):
        pb_common.tail_percentile(list(range(15)), 50)
    assert pb_common.tail_percentile(list(range(20)), 50) == 9


def test_non_2xx_response_counts_as_a_failed_op():
    ops = [
        ("hit", {"graph": "g", "kind": "dcsad", "backend": "python"}),
        ("batch", {"queries": []}),
        ("hit", {"graph": "g", "kind": "dcsad", "backend": "python"}),
    ]
    key = json.dumps(ops[0][1], sort_keys=True)
    good = {"cached": True, "result": {"vertices": ["a"], "timings": {"solve_seconds": 1.0}}}
    outcomes = [
        {"status": 200, "body": good, "seconds": 0.001},
        {"status": 429, "body": {"error": "overloaded"}, "seconds": 0.001},
        {"status": 503, "body": {"error": "down"}, "seconds": 0.001},
    ]
    tally = pb_common.Tally()
    pb_serve_mixed._check(ops, outcomes, {key: pb_serve_mixed._canonical(good["result"])}, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert not pb_common.http_ok(0) and pb_common.http_ok(204)


def test_failed_output_check_counts_as_a_failed_op():
    ops = [("hit", {"graph": "g", "kind": "dcsad", "backend": "python"})]
    key = json.dumps(ops[0][1], sort_keys=True)
    served = {"cached": True, "result": {"vertices": ["b"]}}
    tally = pb_common.Tally()
    pb_serve_mixed._check(ops, [{"status": 200, "body": served, "seconds": 0.001}], {key: '{"vertices": ["a"]}'}, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)

    tenant = pb_inputs.TenantStream(["a", "b"], [[{"t": 0, "u": "a", "v": "b", "w": 1.0}]], (5, 8))
    feed = {"alerts": [{"step": 1, "subset": ["a", "b"], "score": 9.0}]}
    tally = pb_common.Tally()
    replayed = [pb_stream_sessions._replay(tenant)]
    pb_stream_sessions._check([{"op": "post", "tenant": 0, "status": 200, "body": {}}], [feed], [tenant], replayed, tally)
    # the final feed read serves an alert that is neither replayed nor
    # inside the burst
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_metric_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    assert listed == list(pb_common.END_TO_END) + list(pb_common.PER_LAYER)
    names = [name for name, _ in listed]
    assert len(names) == len(set(names))
    for name, unit in listed:
        assert pb_common.NAME_RE.match(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values()) <= 0.25


def test_pace_window_takes_nearby_samples_and_widens_to_the_nearest():
    times = [0.1 * i for i in range(200)]
    window = pb_common.PACE_WINDOW_S
    lo, hi = pb_common.pace_window(times, 10.0, 10.5)
    assert times[lo:hi] == [t for t in times if 10.0 - window <= t <= 10.5 + window]
    # past the last sample: the nearest PACE_MIN_SAMPLES stand in
    assert pb_common.pace_window(times, 100.0, 101.0) == (200 - pb_common.PACE_MIN_SAMPLES, 200)
    with pytest.raises(ValueError):
        pb_common.pace_window([], 0.0, 1.0)


def _fake_pacer(costs, steal_per_sample):
    pacer = object.__new__(pb_common.Pacer)
    pacer._reader = io.StringIO()
    pacer._reader.close()
    pacer.times = [0.1 * i for i in range(len(costs))]
    pacer.costs = costs
    # 20 ticks of the machine per 0.1 s sample (2 CPUs at 100 Hz), all busy
    pacer.steal = [int(i * steal_per_sample) for i in range(len(costs))]
    pacer.busy = [20 * i - s for i, s in enumerate(pacer.steal)]
    return pacer


def test_paced_time_scales_wall_time_by_the_local_pace():
    nominal = pb_common.PACE_NOMINAL_S
    # the CPU runs at half the nominal speed for the first 20 s
    pacer = _fake_pacer([2 * nominal if i < 200 else nominal for i in range(400)], 0)
    assert pacer.paced(5.0, 7.0) == pytest.approx(1.0)
    assert pacer.paced(30.0, 32.0) == pytest.approx(2.0)
    # a span across the change is paced slice by slice
    assert pacer.paced(15.0, 35.0) == pytest.approx(2.5 + 15.0, rel=0.05)
    # a fifth of the busy time stolen: a fifth of the wall time discounted
    pacer = _fake_pacer([nominal] * 400, 4)
    assert pacer.paced(10.0, 20.0) == pytest.approx(8.0)


def test_spans_self_time_subtracts_children():
    spans = pb_common.Spans()
    with spans.span("outer", request_id="r1"):
        with spans.span("inner"):
            pass
    inner, outer = spans.records
    assert inner["parent"] == outer["id"] and inner["request_id"] == "r1"
    table = spans.self_times()
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"]
    )
