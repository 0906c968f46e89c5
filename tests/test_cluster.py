"""Multi-worker cluster (`repro serve --workers N`): end-to-end.

Real subprocess servers — a module-scoped 2-worker cluster plus, where
a comparison needs one, a short-lived single-process server — driven
over HTTP.  Covered: topology health, envelope byte-identity through
the router, sharded session routing, per-worker metrics merging (JSON
and Prometheus forms), crash-respawn recovery, and clean shared-memory
teardown on SIGTERM.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.shm import shm_available
from repro.graph.generators import random_signed_graph
from repro.graph.io import write_edge_list
from repro.service.cluster import ClusterRouter, _shard
from repro.service.http import HttpRequest

# Four uploads so both shard buckets own graphs (cg0..cg2 hash to
# worker 1 of 2, cg3 to worker 0) — cross-owner batches need that.
N_GRAPHS = 4


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _post(base, path, payload, timeout=120):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(base, path, timeout=30):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return response.headers, json.loads(response.read())


def _delete(base, path, timeout=30):
    request = urllib.request.Request(f"{base}{path}", method="DELETE")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get_text(base, path, timeout=30):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return response.headers, response.read().decode("utf-8")


def _start(workers):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--scale", "0.0",
            "--workers", str(workers),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"no listening banner: {banner!r}"
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def _stop(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()


def _graph_texts():
    texts = []
    for index in range(N_GRAPHS):
        names = {i: f"v{i:02d}" for i in range(30)}
        g1 = (
            random_signed_graph(30, 0.2, seed=500 + index)
            .positive_part()
            .relabeled(names)
        )
        g2 = (
            random_signed_graph(30, 0.25, seed=600 + index)
            .positive_part()
            .relabeled(names)
        )
        for v in g1.vertices():
            g2.add_vertex(v)
        for v in g2.vertices():
            g1.add_vertex(v)
        texts.append((g1, g2))
    return texts


def _upload(base, texts, tmp_path):
    for index, (g1, g2) in enumerate(texts):
        p1 = tmp_path / f"c{index}_g1.txt"
        p2 = tmp_path / f"c{index}_g2.txt"
        write_edge_list(g1, p1)
        write_edge_list(g2, p2)
        body = _post(
            base,
            "/v1/graphs",
            {
                "name": f"cg{index}",
                "g1": p1.read_text(encoding="utf-8"),
                "g2": p2.read_text(encoding="utf-8"),
            },
        )
        assert len(body["fingerprint"]) == 64


def _strip(record, drop=("timings",)):
    return json.dumps(
        {k: v for k, v in record.items() if k not in drop},
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A 2-worker cluster with N_GRAPHS uploaded pairs."""
    proc, base = _start(2)
    try:
        _upload(
            base, _graph_texts(), tmp_path_factory.mktemp("cluster")
        )
        yield proc, base
    finally:
        _stop(proc)


class TestTopology:
    def test_healthz_reports_both_workers(self, cluster):
        _, base = cluster
        _, health = _get(base, "/healthz")
        assert health["status"] == "ok"
        assert health["cluster"]["workers"] == 2
        workers = health["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert all(w["alive"] for w in workers)
        assert len({w["pid"] for w in workers}) == 2
        if shm_available():
            assert health["cluster"]["segments_announced"] >= N_GRAPHS

    def test_solves_route_to_owners(self, cluster):
        _, base = cluster
        for index in range(N_GRAPHS):
            body = _post(
                base,
                "/v1/solve",
                {"graph": f"cg{index}", "kind": "dcsad"},
            )
            assert body["status"] == "ok"
        # Every shard bucket with traffic solved something: per-worker
        # metrics show requests on each owner.
        _, metrics = _get(base, "/metrics")
        owners = {_shard(f"cg{i}", 2) for i in range(N_GRAPHS)}
        for snap in metrics["workers"]:
            if snap["worker"] in owners:
                assert snap["requests"]["total"] > 0

    def test_unknown_routes_and_errors_still_enveloped(self, cluster):
        _, base = cluster
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/solve", {"graph": "nope", "kind": "dcsad"})
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read())
        assert "unknown graph" in payload["error"]


class TestByteIdentity:
    def test_cluster_envelopes_equal_single_process(
        self, cluster, tmp_path
    ):
        _, base = cluster
        texts = _graph_texts()
        single_proc, single = _start(1)
        try:
            _upload(single, texts, tmp_path)
            sweep = [
                {"graph": f"cg{i}", "kind": kind, "k": k}
                for i in range(N_GRAPHS)
                for kind in ("dcsad", "dcsga")
                for k in (1, 2)
            ]
            mine = [_post(base, "/v1/solve", q) for q in sweep]
            theirs = [_post(single, "/v1/solve", q) for q in sweep]
            assert [_strip(b["result"]) for b in mine] == [
                _strip(b["result"]) for b in theirs
            ]
            # Single-graph batches run whole on the owning worker, so
            # their records are the single process's bytes too.
            batch = {
                "queries": [
                    {"kind": "dcsga", "graph": "cg0"},
                    {"kind": "dcsad", "graph": "cg0", "k": 2},
                ]
            }
            drop = ("seconds", "profile")
            mine_b = _post(base, "/v1/batch", batch)
            theirs_b = _post(single, "/v1/batch", batch)
            assert mine_b["status"] == theirs_b["status"] == "ok"
            assert [
                _strip(r, drop) for r in mine_b["results"]
            ] == [_strip(r, drop) for r in theirs_b["results"]]
        finally:
            _stop(single_proc)


class TestBatchRouting:
    def test_cross_owner_batch_serves_all_records(self, cluster):
        """A batch naming graphs owned by *different* workers answers
        every record — announced refs are served by the primary via
        shared-memory attach, unresolvable ones split to their owners;
        either way a registered graph must never 404 in a batch."""
        _, base = cluster
        assert _shard("cg0", 2) != _shard("cg3", 2)
        body = _post(
            base,
            "/v1/batch",
            {
                "queries": [
                    {"kind": "dcsga", "graph": "cg0"},
                    {"kind": "dcsad", "graph": "cg3", "k": 2},
                    {"kind": "dcsga", "graph": "cg3", "qid": "pin"},
                ]
            },
        )
        assert body["status"] == "ok"
        assert [r["qid"] for r in body["results"]] == ["q0", "q1", "pin"]
        assert all(r["status"] == "ok" for r in body["results"])
        assert body["stats"]["queries"] == 3
        # Earlier tests may have warmed the result cache for some of
        # these queries; either way every record was answered.
        stats = body["stats"]
        assert stats["solved"] + stats["cache_hits"] == 3

    def test_split_batch_merges_to_single_process_envelope(
        self, cluster
    ):
        """Dataset refs nobody has built are un-announced, so a batch
        straddling their owners takes the router's scatter path; the
        merged envelope must match the single process byte-for-byte
        (owners cold-build the same graphs both sides)."""
        _, base = cluster
        refs = ("DBLP/Weighted/Emerging", "DBLP/Discrete/Emerging")
        assert {_shard(ref, 2) for ref in refs} == {0, 1}
        batch = {
            "queries": [
                {"kind": "dcsga", "dataset": refs[0]},
                {"kind": "dcsad", "dataset": refs[1]},
                {"kind": "dcsga", "dataset": refs[1], "qid": "pin"},
            ]
        }
        single_proc, single = _start(1)
        try:
            mine = _post(base, "/v1/batch", batch)
            theirs = _post(single, "/v1/batch", batch)
        finally:
            _stop(single_proc)
        assert mine["status"] == theirs["status"] == "ok"
        assert [r["qid"] for r in mine["results"]] == ["q0", "q1", "pin"]
        drop = ("seconds", "profile")
        assert [_strip(r, drop) for r in mine["results"]] == [
            _strip(r, drop) for r in theirs["results"]
        ]
        assert mine["stats"] == theirs["stats"]


class TestBatchSplitPlan:
    """Router-side scatter planning (no worker processes needed)."""

    def _plan(self, payload, announced=()):
        router = ClusterRouter(workers=2)
        for ref in announced:
            router._announced[ref] = {
                "ref": ref,
                "fingerprint": "f" * 64,
                "segment": "seg",
            }
        request = HttpRequest(
            method="POST",
            path="/v1/batch",
            body=json.dumps(payload).encode("utf-8"),
        )
        return router._split_batch(request)

    def test_unannounced_cross_owner_records_split_to_owners(self):
        plan = self._plan(
            {
                "queries": [
                    {"kind": "dcsga", "graph": "cg0"},
                    {"kind": "dcsad", "graph": "cg3"},
                    {"kind": "dcsga", "graph": "cg3", "qid": "pin"},
                ]
            }
        )
        assert plan is not None
        records, wrapper, targets, qids = plan
        assert targets == [
            _shard("cg0", 2),
            _shard("cg3", 2),
            _shard("cg3", 2),
        ]
        assert qids == ["q0", "q1", "pin"]
        assert wrapper is not None
        assert len(records) == 3

    def test_announced_refs_stay_with_the_primary(self):
        # The primary serves announced foreign refs by segment attach,
        # so the batch forwards whole — the zero-copy fast path.
        plan = self._plan(
            {
                "queries": [
                    {"kind": "dcsga", "graph": "cg0"},
                    {"kind": "dcsad", "graph": "cg3"},
                ]
            },
            announced=("cg3",),
        )
        assert plan is None

    def test_unsplittable_batches_forward_whole(self):
        # Single owner: nothing to split.
        assert (
            self._plan(
                {
                    "queries": [
                        {"kind": "dcsga", "graph": "cg0"},
                        {"kind": "dcsad", "graph": "cg0", "k": 2},
                    ]
                }
            )
            is None
        )
        # Missing refs, malformed records, duplicate qids: one worker
        # must render the same error envelope a single process would.
        assert (
            self._plan(
                {
                    "queries": [
                        {"kind": "dcsga", "graph": "cg0"},
                        {"kind": "dcsad"},
                        {"kind": "dcsga", "graph": "cg3"},
                    ]
                }
            )
            is None
        )
        assert (
            self._plan(
                {"queries": [{"kind": "dcsga", "graph": "cg0"}, "nope"]}
            )
            is None
        )
        assert (
            self._plan(
                {
                    "queries": [
                        {"kind": "dcsga", "graph": "cg0", "qid": "a"},
                        {"kind": "dcsad", "graph": "cg3", "qid": "a"},
                    ]
                }
            )
            is None
        )

    def test_positional_qids_skip_explicit_names(self):
        plan = self._plan(
            [
                {"kind": "dcsga", "graph": "cg0", "qid": "q1"},
                {"kind": "dcsad", "graph": "cg3"},
                {"kind": "dcsga", "graph": "cg3"},
            ]
        )
        assert plan is not None
        records, wrapper, targets, qids = plan
        assert wrapper is None
        # Exactly how assign_qids fills blanks in a single process.
        assert qids == ["q1", "q0", "q2"]


class TestSessions:
    def test_sessions_shard_and_route_by_sid(self, cluster):
        _, base = cluster
        sids = []
        for _ in range(4):
            body = _post(
                base,
                "/v1/stream/sessions",
                {
                    "universe": [f"v{i:02d}" for i in range(6)],
                    "window": 3,
                    "threshold": 1e9,
                },
            )
            sids.append(body["session"])
        # Graphless creates round-robin across workers; sids carry the
        # owning worker's routing prefix.
        prefixes = {sid.split("-", 1)[0] for sid in sids}
        assert prefixes == {"w0", "w1"}
        for step, sid in enumerate(sids):
            body = _post(
                base,
                f"/v1/stream/sessions/{sid}/events",
                {
                    "events": [
                        {"t": step, "u": "v00", "v": "v01", "w": 1.0}
                    ],
                    "advance_to": step + 1,
                },
            )
            assert body["status"] == "ok"
            assert body["session"] == sid
        # The fan-out listing sees every tenant wherever it lives.
        _, listing = _get(base, "/v1/stream/sessions")
        assert set(sids) <= set(listing["sessions"])
        for sid in sids:
            body = _delete(base, f"/v1/stream/sessions/{sid}")
            assert body["closed"] == sid

    def test_unknown_sid_is_enveloped_404(self, cluster):
        _, base = cluster
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/v1/stream/sessions/w9-zzz/events",
                {"events": [{"t": 0, "u": "a", "v": "b", "w": 1.0}]},
            )
        excinfo.value.close()
        assert excinfo.value.code == 404


class TestMetricsAggregation:
    def test_json_form_merges_per_worker_snapshots(self, cluster):
        _, base = cluster
        _, metrics = _get(base, "/metrics")
        assert metrics["cluster"]["workers"] == 2
        assert [s["worker"] for s in metrics["workers"]] == [0, 1]
        aggregate = metrics["aggregate"]
        assert aggregate["requests"]["total"] == sum(
            s["requests"]["total"] for s in metrics["workers"]
        )
        if shm_available():
            # Prepare-once: across the cluster each upload cold-built
            # exactly once (re-uploads by other tests would add more).
            assert (
                aggregate["warm"]["cold_builds"]
                >= metrics["workers"][0]["warm"]["cold_builds"]
            )

    def test_prometheus_form_labels_workers(self, cluster):
        _, base = cluster
        headers, text = _get_text(base, "/metrics?format=prometheus")
        assert "text/plain" in headers["Content-Type"]
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        # One HELP/TYPE block per family even with two label sets.
        assert text.count("# TYPE repro_requests_total ") == 1


@pytest.mark.skipif(
    not shm_available(), reason="crash-reattach exercises shared segments"
)
class TestSupervision:
    def test_worker_crash_respawns_and_recovers(self, cluster):
        _, base = cluster
        _, health = _get(base, "/healthz")
        victim = health["workers"][1]["pid"]
        os.kill(victim, signal.SIGKILL)

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, health = _get(base, "/healthz")
            if (
                health["cluster"]["restarts"] >= 1
                and all(w["alive"] for w in health["workers"])
                # pid updates when the replacement reports ready — the
                # moment the worker is actually serving again.
                and health["workers"][1]["pid"] != victim
            ):
                break
            time.sleep(0.2)
        assert health["cluster"]["restarts"] >= 1
        assert all(w["alive"] for w in health["workers"])
        assert health["workers"][1]["pid"] != victim

        # The respawned worker replays the announce log: traffic for
        # every graph — whoever owns it — keeps flowing, served via
        # attach instead of a rebuild wherever the segment survives.
        for index in range(N_GRAPHS):
            body = _post(
                base,
                "/v1/solve",
                {"graph": f"cg{index}", "kind": "dcsga"},
            )
            assert body["status"] == "ok"


class TestTeardown:
    def test_sigterm_unlinks_all_segments(self, tmp_path):
        proc, base = _start(2)
        try:
            _upload(base, _graph_texts(), tmp_path)
            if shm_available():
                _, health = _get(base, "/healthz")
                assert health["cluster"]["segments_announced"] >= 1
        finally:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            proc.stdout.close()
        assert returncode == 0
        if os.path.isdir("/dev/shm"):
            assert glob.glob(f"/dev/shm/rp{proc.pid}_*") == []
