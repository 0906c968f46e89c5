"""Tests for the batch-query service layer (repro.batch)."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.batch import (
    BatchExecutor,
    BatchPlan,
    BatchQuery,
    GraphSource,
    ResultCache,
    cache_key,
    query_from_dict,
    query_to_dict,
    read_queries,
)
from repro.core.difference import difference_graph
from repro.engine.prepared import PreparedGraph
from repro.exceptions import InputMismatchError
from repro.graph.generators import random_signed_graph
from repro.graph.graph import Graph
from repro.graph.io import write_pair
from repro.graph.sparse import graph_fingerprint, scipy_available

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires SciPy"
)


# ----------------------------------------------------------------------
# shared inputs
# ----------------------------------------------------------------------
@pytest.fixture
def pair():
    # String labels so file round-trips preserve content fingerprints.
    names = {i: f"v{i:02d}" for i in range(40)}
    g1 = random_signed_graph(40, 0.2, seed=11).positive_part().relabeled(names)
    g2 = random_signed_graph(40, 0.25, seed=12).positive_part().relabeled(names)
    return g1, g2


@pytest.fixture
def pair_files(tmp_path, pair):
    g1_path = tmp_path / "g1.txt"
    g2_path = tmp_path / "g2.txt"
    write_pair(pair[0], pair[1], g1_path, g2_path)
    return str(g1_path), str(g2_path)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two CPUs, so a run with ``workers > 1`` and several
    queries to solve starts a pool on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def mixed_queries(pair):
    src = GraphSource.from_pair(*pair)
    return [
        BatchQuery(kind="dcsad", source=src, qid="ad"),
        BatchQuery(kind="dcsad", source=src, qid="ad-k", k=3, strategy="edges"),
        BatchQuery(kind="dcsga", source=src, qid="ga"),
        BatchQuery(kind="dcsga", source=src, qid="ga-k", k=2),
        BatchQuery(kind="dcsad", source=src, qid="ad-half", alpha=0.5),
    ]


# ----------------------------------------------------------------------
# queries: validation + serialisation
# ----------------------------------------------------------------------
class TestQueryValidation:
    def test_unknown_kind_rejected(self, pair):
        with pytest.raises(InputMismatchError):
            BatchQuery(kind="dcsxx", source=GraphSource.from_pair(*pair))

    def test_unknown_backend_rejected(self, pair):
        with pytest.raises(InputMismatchError):
            BatchQuery(
                kind="dcsad",
                source=GraphSource.from_pair(*pair),
                backend="gpu",
            )

    def test_nonpositive_k_rejected(self, pair):
        with pytest.raises(InputMismatchError):
            BatchQuery(kind="dcsga", source=GraphSource.from_pair(*pair), k=0)

    def test_bad_strategy_rejected(self, pair):
        with pytest.raises(InputMismatchError):
            BatchQuery(
                kind="dcsad",
                source=GraphSource.from_pair(*pair),
                strategy="teleport",
            )

    def test_source_needs_exactly_one_flavour(self):
        with pytest.raises(InputMismatchError):
            GraphSource(kind="files", g1="a.txt")
        with pytest.raises(InputMismatchError):
            GraphSource(kind="inline")
        with pytest.raises(InputMismatchError):
            GraphSource(kind="teleport")


class TestQuerySerialisation:
    def test_round_trip_files(self):
        query = BatchQuery(
            kind="dcsga",
            source=GraphSource.from_files("g1.txt", "g2.txt"),
            qid="x",
            alpha=0.25,
            backend="sparse",
            k=3,
            timeout=2.0,
        )
        again = query_from_dict(query_to_dict(query))
        assert again == query

    def test_stream_record_rejected(self):
        # Event logs are replayed by `repro stream` and stream sessions;
        # a batch record naming one is an unknown kind.
        with pytest.raises(InputMismatchError, match="unknown query kind"):
            query_from_dict({"kind": "stream", "events": "e.txt"})

    def test_inline_sources_do_not_serialise(self, pair):
        query = BatchQuery(kind="dcsad", source=GraphSource.from_pair(*pair))
        with pytest.raises(InputMismatchError):
            query_to_dict(query)

    def test_unknown_fields_rejected(self):
        with pytest.raises(InputMismatchError):
            query_from_dict({"kind": "dcsad", "g1": "a", "g2": "b", "zap": 1})

    def test_missing_input_rejected(self):
        with pytest.raises(InputMismatchError):
            query_from_dict({"kind": "dcsad"})
        with pytest.raises(InputMismatchError):
            query_from_dict({"kind": "dcsad", "g1": "only-one.txt"})

    def test_read_queries_json_array(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "dcsad", "g1": "a.txt", "g2": "b.txt"},
                    {"kind": "dcsga", "g1": "a.txt", "g2": "b.txt", "k": 2},
                ]
            )
        )
        queries = read_queries(str(path))
        assert [q.qid for q in queries] == ["q0", "q1"]
        assert queries[1].k == 2

    def test_read_queries_jsonl_with_comments(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            "# sweep\n"
            '{"kind": "dcsad", "g1": "a.txt", "g2": "b.txt"}\n'
            "\n"
            '{"kind": "dcsad", "g1": "a.txt", "g2": "b.txt", "qid": "named"}\n'
        )
        queries = read_queries(str(path))
        assert [q.qid for q in queries] == ["q0", "named"]

    def test_explicit_qid_matching_a_positional_default_is_fine(
        self, tmp_path
    ):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "dcsad", "g1": "a", "g2": "b", "qid": "q1"},
                    {"kind": "dcsad", "g1": "a", "g2": "b"},
                    {"kind": "dcsga", "g1": "a", "g2": "b"},
                ]
            )
        )
        qids = [q.qid for q in read_queries(str(path))]
        assert qids[0] == "q1"
        assert len(set(qids)) == 3

    def test_duplicate_qids_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            '{"kind": "dcsad", "g1": "a", "g2": "b", "qid": "dup"}\n'
            '{"kind": "dcsga", "g1": "a", "g2": "b", "qid": "dup"}\n'
        )
        with pytest.raises(InputMismatchError):
            read_queries(str(path))


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_insertion_order_invariant(self):
        edges = [("a", "b", 1.5), ("b", "c", -2.0), ("c", "d", 0.25)]
        forward = Graph.from_edges(edges)
        backward = Graph.from_edges(list(reversed(edges)))
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_weight_sensitive(self):
        base = Graph.from_edges([("a", "b", 1.0)])
        changed = Graph.from_edges([("a", "b", 1.0 + 1e-12)])
        assert graph_fingerprint(base) != graph_fingerprint(changed)

    def test_isolated_vertices_matter(self):
        bare = Graph.from_edges([("a", "b", 1.0)])
        padded = Graph.from_edges([("a", "b", 1.0)], vertices=["c"])
        assert graph_fingerprint(bare) != graph_fingerprint(padded)

    @needs_scipy
    def test_csr_pickle_round_trip(self):
        import pickle

        from repro.graph.sparse import CSRAdjacency

        graph = random_signed_graph(25, 0.3, seed=3)
        adj = CSRAdjacency.from_graph(graph)
        again = pickle.loads(pickle.dumps(adj))
        assert again.vertices == adj.vertices
        assert again.index == adj.index
        assert (again.matrix != adj.matrix).nnz == 0
        # Raw views must alias the unpickled matrix, not stale buffers.
        assert again.indptr is again.matrix.indptr
        # Derived state, such as the memoised initialisation plan, must
        # not ship.
        from repro.core.initialization import smart_initialization_plan

        gd_plus = graph.positive_part()
        positive = CSRAdjacency.from_graph(gd_plus)
        smart_initialization_plan(gd_plus, backend="sparse", adjacency=positive)
        assert positive._init_plan is not None
        assert pickle.loads(pickle.dumps(positive))._init_plan is None


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_key_is_stable_and_param_sensitive(self):
        a = cache_key("fp", {"kind": "dcsad", "k": 1})
        assert a == cache_key("fp", {"k": 1, "kind": "dcsad"})
        assert a != cache_key("fp", {"kind": "dcsad", "k": 2})
        assert a != cache_key("fp2", {"kind": "dcsad", "k": 1})

    def test_memory_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"status": "ok", "payload": {"x": 1}})
        assert cache.get("k") == {"status": "ok", "payload": {"x": 1}}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_disk_persistence(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        first.put("deadbeef", {"status": "ok", "payload": {"v": 2}})
        second = ResultCache(tmp_path / "cache")
        assert second.get("deadbeef") == {"status": "ok", "payload": {"v": 2}}
        assert len(second) == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        (directory / "badkey.json").write_text("{not json")
        assert cache.get("badkey") is None

    def test_returned_payloads_are_isolated_copies(self):
        cache = ResultCache()
        stored = {"status": "ok", "payload": {"subset": ["a", "b"]}}
        cache.put("k", stored)
        stored["payload"]["subset"].append("poison-store")
        first = cache.get("k")
        first["payload"]["subset"].append("poison-hit")
        assert cache.get("k") == {
            "status": "ok", "payload": {"subset": ["a", "b"]}
        }

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k", {"status": "ok", "payload": None})
        cache.clear()
        assert len(cache) == 0
        assert ResultCache(tmp_path / "cache").get("k") is None


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
class TestBatchPlan:
    def test_dedup_groups_by_source_and_transform(self, pair):
        queries = mixed_queries(pair)
        plan = BatchPlan(queries)
        # 4 queries share the default transform; the alpha sweep is its own.
        assert len(plan.groups) == 2
        assert plan.shared_preps == 3
        assert plan.prep_of[0] == plan.prep_of[1] == plan.prep_of[2]
        assert plan.prep_of[4] != plan.prep_of[0]

    def test_describe_names_queries(self, pair):
        plan = BatchPlan(mixed_queries(pair))
        text = plan.describe()
        assert "2 shared prep nodes" in text
        assert "ad-half" in text

    def test_inline_graph_transform_fails_only_its_queries(self, pair):
        gd = difference_graph(*pair, require_same_vertices=False)
        bad = BatchQuery(
            kind="dcsad", source=GraphSource.from_graph(gd), alpha=0.5,
            qid="bad",
        )
        good = BatchQuery(
            kind="dcsad", source=GraphSource.from_graph(gd), qid="good"
        )
        results = BatchExecutor().run([bad, good])
        assert results[0].status == "error"
        assert "applied twice" in results[0].error
        assert results[1].status == "ok"

    def test_separate_from_pair_calls_share_prep(self, pair):
        g1, g2 = pair
        queries = [
            BatchQuery(kind="dcsad", source=GraphSource.from_pair(g1, g2)),
            BatchQuery(kind="dcsga", source=GraphSource.from_pair(g1, g2)),
        ]
        plan = BatchPlan(queries)
        assert len(plan.groups) == 1
        assert plan.shared_preps == 1

    def test_file_pair_read_once_across_transforms(
        self, pair_files, monkeypatch
    ):
        import repro.batch.plan as plan_module

        calls = []
        original = plan_module.read_pair

        def counting(g1, g2, parser=None):
            calls.append((g1, g2))
            return original(g1, g2, parser)

        monkeypatch.setattr(plan_module, "read_pair", counting)
        source = GraphSource.from_files(*pair_files)
        queries = [
            BatchQuery(kind="dcsad", source=source, alpha=alpha)
            for alpha in (0.5, 1.0, 2.0)
        ]
        outputs = BatchPlan(queries).run_preps()
        assert len(outputs) == 3  # three transforms, three prep nodes
        assert len(calls) == 1  # ...but one file read

    def test_identical_content_same_fingerprint(self, pair, pair_files):
        inline = BatchQuery(kind="dcsad", source=GraphSource.from_pair(*pair))
        files = BatchQuery(
            kind="dcsad", source=GraphSource.from_files(*pair_files)
        )
        outputs = BatchPlan([inline, files]).run_preps()
        fingerprints = {out.fingerprint for out in outputs.values()}
        assert len(outputs) == 2
        assert len(fingerprints) == 1

    def test_prep_failure_is_captured_not_raised(self):
        query = BatchQuery(
            kind="dcsad",
            source=GraphSource.from_files("missing1.txt", "missing2.txt"),
        )
        outputs = BatchPlan([query]).run_preps()
        (output,) = outputs.values()
        assert output.payload is None
        assert output.error is not None


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
class TestBatchExecutor:
    def test_results_in_input_order_with_qids(self, pair):
        results = BatchExecutor().run(mixed_queries(pair))
        assert [r.qid for r in results] == ["ad", "ad-k", "ga", "ga-k", "ad-half"]
        assert all(r.status == "ok" for r in results)

    def test_matches_direct_solver_calls(self, pair):
        from repro.core.dcsad import dcs_greedy

        # The graph a batch pair query mines: from_pair's GD, whose
        # dict form is in repr order (python DCSGreedy's density sums
        # follow it, so a set-ordered dict graph can differ in the last
        # bit).
        gd = PreparedGraph.from_pair(*pair).gd
        assert gd == difference_graph(*pair, require_same_vertices=False)
        direct = dcs_greedy(gd)
        (result,) = BatchExecutor().run(
            [BatchQuery(kind="dcsad", source=GraphSource.from_pair(*pair))]
        )
        assert result.payload["density"] == direct.density
        assert result.payload["vertices"] == sorted(map(str, direct.subset))

    def test_serial_and_forced_process_are_byte_identical(
        self, pair, two_cpus
    ):
        queries = mixed_queries(pair)
        serial = BatchExecutor().run(queries)
        executor = BatchExecutor(workers=2)
        pooled = executor.run(queries)
        assert executor.stats.mode == "process"
        assert [r.canonical_json() for r in serial] == [
            r.canonical_json() for r in pooled
        ]

    def test_resubmission_hits_cache(self, pair):
        executor = BatchExecutor()
        queries = mixed_queries(pair)
        first = executor.run(queries)
        second = executor.run(queries)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert executor.stats.cache_hits == len(queries)
        assert [r.canonical_json() for r in first] == [
            r.canonical_json() for r in second
        ]

    def test_cache_is_shared_across_sources_by_content(
        self, pair, pair_files
    ):
        executor = BatchExecutor()
        executor.run(
            [BatchQuery(kind="dcsad", source=GraphSource.from_pair(*pair))]
        )
        (result,) = executor.run(
            [
                BatchQuery(
                    kind="dcsad", source=GraphSource.from_files(*pair_files)
                )
            ]
        )
        assert result.cached  # same content, different route

    def test_prep_failure_isolates(self, pair):
        queries = [
            BatchQuery(
                kind="dcsad",
                source=GraphSource.from_files("nope1.txt", "nope2.txt"),
                qid="bad",
            ),
            BatchQuery(
                kind="dcsad", source=GraphSource.from_pair(*pair), qid="good"
            ),
        ]
        results = BatchExecutor().run(queries)
        assert results[0].status == "error"
        assert "prep failed" in results[0].error
        assert results[1].status == "ok"

    def test_solve_failure_isolates(self, pair, two_cpus):
        source = GraphSource.from_pair(*pair)
        queries = [
            BatchQuery(kind="dcsga", source=source, qid="bad", tol_scale=-1),
            BatchQuery(kind="dcsga", source=source, qid="good"),
        ]
        for mode, workers in (("serial", 1), ("process", 2)):
            executor = BatchExecutor(workers=workers)
            results = executor.run(queries)
            assert executor.stats.mode == mode
            assert results[0].status == "error", mode
            assert "tol_scale" in results[0].error, mode
            assert results[1].status == "ok", mode

    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("process", 2)])
    def test_timeout_isolates_and_is_not_cached(
        self, mode, workers, two_cpus
    ):
        g1 = random_signed_graph(150, 0.15, seed=21).positive_part()
        g2 = random_signed_graph(150, 0.17, seed=22).positive_part()
        slow = BatchQuery(
            kind="dcsga",
            source=GraphSource.from_pair(g1, g2),
            qid="slow",
            k=5,
            timeout=0.02,
        )
        fast = BatchQuery(
            kind="dcsad", source=GraphSource.from_pair(g1, g2), qid="fast"
        )
        executor = BatchExecutor(workers=workers)
        results = executor.run([slow, fast])
        assert executor.stats.mode == mode
        assert results[0].status == "timeout"
        assert results[1].status == "ok"
        assert executor.stats.timeouts == 1
        # A timeout must not poison the cache: resubmitting with a
        # generous limit gets a real answer.
        retry = BatchExecutor(cache=executor.cache).run(
            [BatchQuery(
                kind="dcsga",
                source=GraphSource.from_pair(g1, g2),
                qid="slow",
                k=5,
                timeout=60.0,
            )]
        )
        assert retry[0].status == "ok"
        assert not retry[0].cached

    def test_errors_are_never_cached(self, pair):
        """Failures can be transient — resubmission must retry them."""
        query = BatchQuery(
            kind="dcsga", source=GraphSource.from_pair(*pair), tol_scale=-1
        )
        executor = BatchExecutor()
        first = executor.run([query])
        second = executor.run([query])
        assert first[0].status == "error" and not first[0].cached
        assert second[0].status == "error" and not second[0].cached
        assert len(executor.cache) == 0

    def test_stats_accounting(self, pair):
        executor = BatchExecutor()
        executor.run(mixed_queries(pair))
        stats = executor.stats
        assert stats.queries == 5
        assert stats.preps_built == 2
        assert stats.preps_shared == 3
        assert stats.solved == 5
        assert stats.wall_seconds > 0

    def test_auto_mode_single_query_stays_serial(self, pair, two_cpus):
        executor = BatchExecutor(workers=4)
        executor.run(
            [BatchQuery(kind="dcsad", source=GraphSource.from_pair(*pair))]
        )
        assert executor.stats.mode == "serial"

    def test_auto_qids_never_collide_with_explicit_ones(self, pair):
        source = GraphSource.from_pair(*pair)
        results = BatchExecutor().run(
            [
                BatchQuery(kind="dcsad", source=source, qid="q1"),
                BatchQuery(kind="dcsga", source=source),  # auto-named
                BatchQuery(kind="dcsad", source=source, k=2),  # auto-named
            ]
        )
        qids = [r.qid for r in results]
        assert qids[0] == "q1"
        assert len(set(qids)) == 3

    def test_duplicate_with_looser_timeout_is_not_fanned_a_failure(self):
        g1 = random_signed_graph(150, 0.15, seed=31).positive_part()
        g2 = random_signed_graph(150, 0.17, seed=32).positive_part()
        source = GraphSource.from_pair(g1, g2)
        tight = BatchQuery(
            kind="dcsga", source=source, qid="tight", k=5, timeout=0.02
        )
        loose = BatchQuery(
            kind="dcsga", source=source, qid="loose", k=5, timeout=120.0
        )
        results = BatchExecutor().run([tight, loose])
        assert results[0].status == "timeout"
        assert results[1].status == "ok"  # ran with its own budget

    def test_duplicate_explicit_qids_rejected(self, pair):
        source = GraphSource.from_pair(*pair)
        with pytest.raises(ValueError):
            BatchExecutor().run(
                [
                    BatchQuery(kind="dcsad", source=source, qid="same"),
                    BatchQuery(kind="dcsga", source=source, qid="same"),
                ]
            )

    def test_duplicate_queries_solved_once_within_a_run(self, pair):
        source = GraphSource.from_pair(*pair)
        queries = [
            BatchQuery(kind="dcsad", source=source, qid="one"),
            BatchQuery(kind="dcsga", source=source, qid="other"),
            BatchQuery(kind="dcsad", source=source, qid="two"),
            BatchQuery(kind="dcsad", source=source, qid="three"),
        ]
        executor = BatchExecutor()
        results = executor.run(queries)
        assert [r.status for r in results] == ["ok"] * 4
        assert [r.cached for r in results] == [False, False, True, True]
        assert executor.stats.solved == 2
        assert results[0].canonical_json().replace(
            '"one"', '"x"'
        ) == results[2].canonical_json().replace('"two"', '"x"')

    def test_serial_run_releases_shared_tables(self, pair):
        from repro.batch import executor as executor_module

        BatchExecutor().run(
            [BatchQuery(kind="dcsga", source=GraphSource.from_pair(*pair))]
        )
        assert executor_module._SHARED_PAYLOADS == {}
        assert executor_module._SHARED_PREPARED == {}

    def test_concurrent_serial_runs_keep_their_own_tables(
        self, pair, monkeypatch
    ):
        """A serial run that ends in one thread must not empty the
        tables under a serial run still going in another."""
        import threading

        from repro.batch import executor as executor_module

        real = executor_module.execute_payload
        held = threading.Event()
        release = threading.Event()

        def hold_first(kind, params, payload, prepared=None):
            if not held.is_set():
                held.set()
                assert release.wait(timeout=60)
            return real(kind, params, payload, prepared=prepared)

        monkeypatch.setattr(executor_module, "execute_payload", hold_first)
        source = GraphSource.from_pair(*pair)
        first_run = [
            BatchQuery(kind="dcsad", source=source, qid=f"ad{k}", k=k)
            for k in (1, 2, 3)
        ]
        other = random_signed_graph(12, 0.4, seed=3)
        results = []
        thread = threading.Thread(
            target=lambda: results.extend(BatchExecutor().run(first_run))
        )
        thread.start()
        try:
            assert held.wait(timeout=60)
            (second,) = BatchExecutor().run(
                [BatchQuery(kind="dcsad", source=GraphSource.from_graph(other))]
            )
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert second.status == "ok"
        assert [(r.qid, r.status, r.error) for r in results] == [
            (f"ad{k}", "ok", None) for k in (1, 2, 3)
        ]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(workers=0)

    @pytest.mark.skipif(
        (
            multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0]
        )
        != "fork",
        reason="the crashing patch reaches pool workers only by fork",
    )
    def test_worker_crash_finishes_the_batch_in_process(
        self, pair, two_cpus, monkeypatch
    ):
        from repro.batch import executor as executor_module

        real = executor_module.execute_payload
        host = os.getpid()

        def crash_in_workers(kind, params, payload, prepared=None):
            if os.getpid() != host:
                os._exit(1)
            return real(kind, params, payload, prepared=prepared)

        monkeypatch.setattr(
            executor_module, "execute_payload", crash_in_workers
        )
        source = GraphSource.from_pair(*pair)
        queries = [
            BatchQuery(kind="dcsad", source=source, qid="ad"),
            BatchQuery(kind="dcsga", source=source, qid="ga"),
        ]
        serial = BatchExecutor().run(queries)
        executor = BatchExecutor(workers=2)
        results = executor.run(queries)
        assert executor.stats.mode == "process+serial-fallback"
        assert [r.status for r in results] == ["ok", "ok"]
        assert [r.canonical_json() for r in results] == [
            r.canonical_json() for r in serial
        ]

    @needs_scipy
    def test_shared_csr_reused_across_queries(self, pair, monkeypatch):
        from repro.graph.sparse import CSRAdjacency

        queries = [
            BatchQuery(
                kind="dcsga",
                source=GraphSource.from_pair(*pair),
                qid=f"ga{i}",
                backend="sparse",
                k=1 + i,
            )
            for i in range(3)
        ]
        builds = []
        original = CSRAdjacency.from_graph
        original_plus = CSRAdjacency.positive_part

        def counting(graph):
            builds.append(graph.num_vertices)
            return original(graph)

        def counting_plus(adjacency):
            builds.append(adjacency.n)
            return original_plus(adjacency)

        monkeypatch.setattr(CSRAdjacency, "from_graph", counting)
        monkeypatch.setattr(CSRAdjacency, "positive_part", counting_plus)
        results = BatchExecutor().run(queries)
        assert all(r.status == "ok" for r in results)
        # One shared GD+ CSR serves all three sparse queries: a pair is
        # assembled as GD's CSR, and GD+ is derived from it once.
        assert len(builds) == 1

    def test_registry_source_resolves(self):
        query = BatchQuery(
            kind="dcsad",
            source=GraphSource.from_registry("DBLP/Weighted/Emerging", 0.05),
        )
        (result,) = BatchExecutor().run([query])
        assert result.status == "ok"
        assert result.payload["density"] > 0

    def test_registry_source_rejects_alpha(self):
        query = BatchQuery(
            kind="dcsad",
            source=GraphSource.from_registry("DBLP/Weighted/Emerging", 0.05),
            alpha=0.5,
        )
        (result,) = BatchExecutor().run([query])
        assert result.status == "error"
        assert "prebuilt difference graphs" in result.error


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBatchCLI:
    @pytest.fixture
    def query_file(self, tmp_path, pair_files):
        g1, g2 = pair_files
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "dcsad", "g1": g1, "g2": g2},
                    {"kind": "dcsga", "g1": g1, "g2": g2, "k": 2},
                    {"kind": "dcsad", "g1": g1, "g2": g2, "alpha": 0.5},
                ]
            )
        )
        return str(path)

    def test_plan_mode(self, query_file, capsys):
        from repro.cli import main

        assert main(["batch", query_file, "--plan"]) == 0
        out = capsys.readouterr().out
        assert "shared prep nodes" in out

    def test_run_emits_jsonl(self, query_file, capsys):
        from repro.cli import main

        assert main(["batch", query_file]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["qid"] for r in records] == ["q0", "q1", "q2"]
        assert all(r["status"] == "ok" for r in records)

    def test_out_file_and_cache_dir(self, query_file, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "results.jsonl"
        cache_dir = tmp_path / "cache"
        assert (
            main([
                "batch", query_file,
                "--out", str(out_path),
                "--cache-dir", str(cache_dir),
            ])
            == 0
        )
        first = out_path.read_text()
        capsys.readouterr()
        # Second invocation: same answers, all served from the disk cache.
        main([
            "batch", query_file,
            "--out", str(out_path),
            "--cache-dir", str(cache_dir),
        ])
        second = out_path.read_text()
        for line_a, line_b in zip(
            first.strip().splitlines(), second.strip().splitlines()
        ):
            a, b = json.loads(line_a), json.loads(line_b)
            assert not a["cached"] and b["cached"]
            assert a["payload"] == b["payload"]

    def test_failing_query_sets_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps([{"kind": "dcsad", "g1": "no1.txt", "g2": "no2.txt"}])
        )
        assert main(["batch", str(path)]) == 1

    def test_bad_query_file_exits(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "queries.json"
        path.write_text(json.dumps([{"kind": "dcsad"}]))
        with pytest.raises(SystemExit):
            main(["batch", str(path)])

    def test_wrong_json_type_exits_cleanly(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps([{"kind": "dcsad", "g1": "a", "g2": "b", "k": "3"}])
        )
        with pytest.raises(SystemExit):  # not a raw TypeError traceback
            main(["batch", str(path)])

    def test_empty_query_file_exits(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "queries.json"
        path.write_text("[]")
        with pytest.raises(SystemExit):
            main(["batch", str(path)])


# ----------------------------------------------------------------------
# cache-key canonicalisation (numerically equal params, one entry)
# ----------------------------------------------------------------------
class TestCacheKeyCanonicalisation:
    def test_int_valued_floats_share_a_key(self):
        assert cache_key("fp", {"alpha": 1}) == cache_key("fp", {"alpha": 1.0})
        assert cache_key("fp", {"k": 3}) == cache_key("fp", {"k": 3.0})
        assert cache_key(
            "fp", {"nested": {"cap": 2.0, "list": [0.0, 1.5]}}
        ) == cache_key("fp", {"nested": {"cap": 2, "list": [0, 1.5]}})

    def test_distinct_values_still_distinct(self):
        assert cache_key("fp", {"alpha": 1.0}) != cache_key(
            "fp", {"alpha": 1.5}
        )
        # Booleans are not coerced into the integer line.
        assert cache_key("fp", {"flip": True}) != cache_key("fp", {"flip": 1})

    def test_non_finite_params_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                cache_key("fp", {"alpha": bad})
            with pytest.raises(ValueError):
                cache_key("fp", {"nested": [bad]})

    def test_canonical_params_preserves_structure(self):
        from repro.batch import canonical_params

        original = {"a": 2.0, "b": [1.0, 0.25], "c": {"d": True}, "e": "x"}
        assert canonical_params(original) == {
            "a": 2, "b": [1, 0.25], "c": {"d": True}, "e": "x"
        }
        assert isinstance(canonical_params(2.0), int)
        assert original["a"] == 2.0  # input untouched

    def test_executor_hits_across_numeric_spellings(self, pair):
        """``tol_scale=1`` and ``tol_scale=1.0`` hit the same entry."""
        source = GraphSource.from_pair(*pair)
        cache = ResultCache()
        first = BatchExecutor(cache=cache)
        (a,) = first.run(
            [BatchQuery(kind="dcsga", source=source, tol_scale=1.0)]
        )
        second = BatchExecutor(cache=cache)
        (b,) = second.run(
            [BatchQuery(kind="dcsga", source=source, tol_scale=1)]
        )
        assert a.status == b.status == "ok"
        assert not a.cached and b.cached
        assert second.stats.cache_hits == 1 and second.stats.solved == 0
        assert a.payload == b.payload


# ----------------------------------------------------------------------
# SIGALRM handler restoration in the degrade path
# ----------------------------------------------------------------------
class TestAlarmHandlerRestoration:
    def test_handler_survives_setitimer_failure(self, monkeypatch):
        """If arming the timer fails after the handler swap, the host's
        handler must be restored — not leak the query-timeout handler."""
        import signal

        from repro.batch.executor import run_guarded

        def sentinel(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("sentinel must not fire")

        def broken_setitimer(which, seconds, interval=0.0):
            raise ValueError("simulated non-main-thread race")

        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            monkeypatch.setattr(signal, "setitimer", broken_setitimer)
            status, value, _ = run_guarded(lambda: {"x": 1}, timeout=5.0)
            assert (status, value) == ("ok", {"x": 1})
            # The degrade path must have put the sentinel back.
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            monkeypatch.undo()
            signal.signal(signal.SIGALRM, previous)

    def test_handler_restored_after_normal_run(self):
        import signal

        from repro.batch.executor import run_guarded

        def sentinel(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("sentinel must not fire")

        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            status, _, _ = run_guarded(lambda: {"ok": True}, timeout=5.0)
            assert status == "ok"
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# disk entries are canonical bytes
# ----------------------------------------------------------------------
class TestCacheByteIdentity:
    def test_disk_entry_is_canonical_text(self, tmp_path):
        from repro.batch import canonical_text

        cache = ResultCache(tmp_path / "cache")
        entry = {"status": "ok", "payload": {"b": [1, 2], "a": 0.5}}
        cache.put("key", entry)
        on_disk = (tmp_path / "cache" / "key.json").read_text(
            encoding="utf-8"
        )
        assert on_disk == canonical_text(entry)
        assert " " not in on_disk  # compact separators, no padding

    def test_disk_round_trip_byte_identical_to_fresh_solve(
        self, tmp_path, pair
    ):
        """The documented contract: a hit replays the exact bytes a
        fresh solve would produce, across a disk round-trip."""
        source = GraphSource.from_pair(*pair)
        query = BatchQuery(kind="dcsad", source=source, qid="q")
        (fresh,) = BatchExecutor(
            cache=ResultCache(tmp_path / "cache")
        ).run([query])
        # A separate cache instance reads the entry back from disk.
        (replayed,) = BatchExecutor(
            cache=ResultCache(tmp_path / "cache")
        ).run([query])
        assert not fresh.cached and replayed.cached
        assert replayed.canonical_json() == fresh.canonical_json()

    def test_non_finite_param_fails_only_its_query(self, pair):
        """A NaN parameter is a per-query error, not a submission abort."""
        source = GraphSource.from_pair(*pair)
        bad = BatchQuery(
            kind="dcsga", source=source, qid="bad",
            tol_scale=float("nan"),
        )
        good = BatchQuery(kind="dcsga", source=source, qid="good")
        executor = BatchExecutor()
        results = executor.run([bad, good])
        assert results[0].status == "error"
        assert "non-finite" in results[0].error
        assert results[1].status == "ok"
        assert executor.stats.errors == 1
