"""Shared-memory graph store: lifecycle, parity, accounting.

The zero-copy substrate of the multi-worker service
(:mod:`repro.engine.shm`): exported segments must serve byte-equal
answers through read-only views, pickle as private copies, refcount
their way to an unlink when the last holder closes, and charge a host
for each graph exactly once however many registries hold it warm.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.difference import assemble_difference
from repro.engine import PreparedGraph, SolveRequest, solve
from repro.engine.shm import (
    SharedGraphStore,
    graph_from_csr,
    list_segments,
    shared_prepared,
    shm_available,
    unlink_segment,
)
from repro.exceptions import InputMismatchError
from repro.graph.generators import random_signed_graph
from repro.graph.io import write_edge_list
from repro.service.registry import GraphRegistry

pytestmark = pytest.mark.skipif(
    not shm_available(),
    reason="shared-memory graph store needs shared_memory+NumPy+SciPy",
)


@pytest.fixture
def store():
    """A fresh store on a unique prefix, audited leak-free on exit."""
    store = SharedGraphStore()
    yield store
    store.close_all()
    assert list_segments(store.prefix) == []


def _prepared(seed: int = 7, n: int = 24) -> PreparedGraph:
    """A small prepared difference graph for parity checks."""
    g1 = random_signed_graph(n, 0.3, seed=seed).positive_part()
    g2 = random_signed_graph(n, 0.35, seed=seed + 1).positive_part()
    for v in g1.vertices():
        g2.add_vertex(v)
    for v in g2.vertices():
        g1.add_vertex(v)
    return PreparedGraph(assemble_difference(g1, g2))


def _answers(prepared: PreparedGraph, backend: str = "sparse"):
    out = []
    for measure in ("average_degree", "affinity"):
        result = solve(
            SolveRequest(measure=measure, backend=backend), prepared
        )
        out.append((result.vertices, result.density))
    return out


def _assert_same_answers(mine, reference):
    """Same subsets; densities to float tolerance.

    A shared preparation's dict-of-dicts graph is lazily reconstructed
    from the CSR in a different iteration order, so density sums can
    drift in the last bits.  (Cluster byte-identity is stronger, but it
    holds by owner routing — owners solve the original dict graph — not
    by cross-representation float determinism.)
    """
    for (mine_v, mine_d), (ref_v, ref_d) in zip(mine, reference):
        assert mine_v == ref_v
        assert mine_d == pytest.approx(ref_d, rel=1e-6)


class TestSegmentLifecycle:
    def test_export_attach_roundtrip_parity(self, store):
        prepared = _prepared()
        reference = _answers(prepared)

        segment = store.export(prepared)
        assert segment.created
        assert segment.fingerprint == prepared.fingerprint
        assert list_segments(store.prefix) == [segment.name]

        sibling = SharedGraphStore(prefix=store.prefix)
        attached = sibling.attach_fingerprint(prepared.fingerprint)
        assert not attached.created
        shared = shared_prepared(attached)
        assert shared.fingerprint == prepared.fingerprint
        # Zero-copy views are read-only — solvers cannot corrupt a
        # segment siblings are serving from.
        for csr in (attached.csr(), attached.csr_plus()):
            assert not csr.data.flags.writeable
            assert not csr.indices.flags.writeable
        _assert_same_answers(_answers(shared), reference)
        _assert_same_answers(
            _answers(shared, backend="python"),
            _answers(prepared, backend="python"),
        )
        sibling.close_all()

    def test_refcount_drain_unlinks(self, store):
        prepared = _prepared(seed=11)
        segment = store.export(prepared)
        assert segment.refcount() == 1

        a = SharedGraphStore(prefix=store.prefix)
        b = SharedGraphStore(prefix=store.prefix)
        a.attach(segment.name)
        b.attach(segment.name)
        assert segment.refcount() == 3

        assert not a.release(segment.name)  # 2 holders remain
        assert not store.release(segment.name)  # 1 holder remains
        assert list_segments(store.prefix) == [segment.name]
        assert b.release(segment.name)  # last close unlinks
        assert list_segments(store.prefix) == []

    def test_export_idempotent_and_cached(self, store):
        prepared = _prepared(seed=13)
        first = store.export(prepared)
        assert store.export(prepared) is first
        assert store.exports == 1
        assert first.refcount() == 1  # the re-export did not double-hold
        assert store.held() == [first.name]

    def test_attach_missing_segment_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.attach(f"{store.prefix}_nosuchsegment")

    def test_attach_waits_for_the_ready_flag(self, store, monkeypatch):
        import repro.engine.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_READY_TIMEOUT", 0.2)
        name = f"{store.prefix}_halfwritten"
        raw = shm_mod._QuietSharedMemory(name=name, create=True, size=1024)
        shm_mod._untrack(name)
        try:
            # The magic is written last by export; a segment that never
            # becomes ready (exporter crashed mid-copy) is refused
            # after the poll window rather than served half-populated.
            with pytest.raises(ValueError):
                store.attach(name)
        finally:
            raw.unlink()
            raw.close()

    def test_unlink_segment_is_the_crash_backstop(self, store):
        prepared = _prepared(seed=17)
        segment = store.export(prepared)
        # A SIGKILLed worker never decrements; the supervisor sweep
        # reclaims by name regardless of the stuck refcount.
        assert unlink_segment(segment.name)
        assert list_segments(store.prefix) == []
        assert not unlink_segment(segment.name)  # idempotent

    def test_graph_from_csr_reconstruction(self, store):
        prepared = _prepared(seed=19)
        segment = store.export(prepared)
        rebuilt = graph_from_csr(segment.csr())
        original = prepared.gd
        assert set(rebuilt.vertices()) == set(original.vertices())
        assert rebuilt.num_edges == original.num_edges
        for u, v, w in original.edges():
            assert rebuilt.weight(u, v) == w


class TestPickleStubs:
    """A shared-memory preparation pickles as a private copy: the
    receiver owns its buffers and attaches no segment."""

    def test_shared_prepared_pickles_as_a_private_copy(self, store):
        prepared = _prepared(seed=23)
        segment = store.export(prepared)
        prepared.adopt_segment(segment)
        for shared in (prepared, shared_prepared(segment)):
            clone = pickle.loads(pickle.dumps(shared))
            assert type(clone) is PreparedGraph
            assert clone.shm_segment is None
            assert clone.fingerprint == shared.fingerprint
            for backend in ("sparse", "python"):
                for measure in ("average_degree", "affinity"):
                    request = SolveRequest(measure=measure, backend=backend)
                    assert (
                        solve(request, clone).canonical_json()
                        == solve(request, shared).canonical_json()
                    )

    def test_shared_csr_pickles_as_a_private_copy(self, store):
        import numpy as np

        prepared = _prepared(seed=29)
        segment = store.export(prepared)
        csr = segment.csr()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.vertices == csr.vertices
        assert (clone.data == csr.data).all()
        assert (clone.indices == csr.indices).all()
        assert (clone.indptr == csr.indptr).all()
        # Private buffers: the clone does not view the segment.
        assert not np.shares_memory(clone.data, csr.data)


class TestRegistryIntegration:
    def _pair_texts(self, tmp_path, seed: int = 31):
        g1 = random_signed_graph(20, 0.3, seed=seed).positive_part()
        g2 = random_signed_graph(20, 0.35, seed=seed + 1).positive_part()
        for v in g1.vertices():
            g2.add_vertex(v)
        for v in g2.vertices():
            g1.add_vertex(v)
        p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        write_edge_list(g1, p1)
        write_edge_list(g2, p2)
        return p1.read_text(), p2.read_text()

    def test_cold_build_exports_and_announces(self, store, tmp_path):
        announced = []
        registry = GraphRegistry(
            capacity=4,
            scale=0.0,
            shm_store=store,
            on_export=lambda *a: announced.append(a),
        )
        g1, g2 = self._pair_texts(tmp_path)
        prepared = registry.register_pair("up", g1, g2)

        assert registry.cold_builds == 1
        assert len(announced) == 1
        name, fingerprint, segment_name = announced[0]
        assert name == "up"
        assert fingerprint == prepared.fingerprint
        assert list_segments(store.prefix) == [segment_name]
        # The owner's warm entry itself rides the segment now: one copy
        # of the frozen arrays on the host.
        assert prepared.shm_segment is not None
        registry.forget("up")

    def test_sibling_attach_serves_without_rebuild(self, store, tmp_path):
        owner = GraphRegistry(capacity=4, scale=0.0, shm_store=store)
        g1, g2 = self._pair_texts(tmp_path, seed=37)
        prepared = owner.register_pair("shared", g1, g2)
        segment_name = store.segment_name(prepared.fingerprint)

        sibling_store = SharedGraphStore(prefix=store.prefix)
        sibling = GraphRegistry(
            capacity=4, scale=0.0, shm_store=sibling_store
        )
        sibling.register_shared(
            "shared", prepared.fingerprint, segment_name
        )
        resolved = sibling.resolve("shared")
        assert sibling.cold_builds == 0
        assert sibling.shared_attaches == 1
        assert resolved.fingerprint == prepared.fingerprint
        _assert_same_answers(_answers(resolved), _answers(prepared))

        # Cell accounting: the graph is charged once per host — the
        # exporting owner pays, attachers ride free.
        assert owner.warm_cells() > 0
        assert sibling.warm_cells() == 0

        sibling_store.close_all()
        owner.forget("shared")

    def test_stale_announcement_falls_back_to_rebuild(
        self, store, tmp_path
    ):
        registry = GraphRegistry(capacity=4, scale=0.0, shm_store=store)
        g1, g2 = self._pair_texts(tmp_path, seed=41)
        registry.register_pair("gone", g1, g2)
        registry.register_shared(
            "gone", "f" * 64, f"{store.prefix}_missingseg"
        )
        # The announced segment never existed (owner evicted/crashed):
        # resolve drops the stale record and cold-builds from the
        # retained upload instead of failing the request.
        resolved = registry.resolve("gone")
        assert resolved is not None
        assert registry.cold_builds == 2
        registry.forget("gone")

    def test_rejected_upload_is_not_exported(self, store, tmp_path):
        announced = []
        registry = GraphRegistry(
            capacity=4,
            scale=0.0,
            max_uploads=1,
            shm_store=store,
            on_export=lambda *a: announced.append(a),
        )
        g1, g2 = self._pair_texts(tmp_path, seed=53)
        registry.register_pair("kept", g1, g2)
        before = list_segments(store.prefix)
        h1, h2 = self._pair_texts(tmp_path, seed=59)
        with pytest.raises(InputMismatchError):
            registry.register_pair("extra", h1, h2)
        # The rejected upload announced nothing and leaked no segment:
        # the limit bounds memory and the cluster name namespace, not
        # just this process's upload table.
        assert [a[0] for a in announced] == ["kept"]
        assert list_segments(store.prefix) == before
        with pytest.raises(KeyError):
            registry.resolve("extra")
        registry.forget("kept")

    def test_unready_squatted_segment_never_fails_the_build(
        self, store, tmp_path, monkeypatch
    ):
        import repro.engine.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_READY_TIMEOUT", 0.2)
        g1, g2 = self._pair_texts(tmp_path, seed=61)
        plain = GraphRegistry(capacity=4, scale=0.0)
        fingerprint = plain.register_pair("probe", g1, g2).fingerprint
        name = store.segment_name(fingerprint)
        squat = shm_mod._QuietSharedMemory(
            name=name, create=True, size=1024
        )
        shm_mod._untrack(name)
        registry = GraphRegistry(capacity=4, scale=0.0, shm_store=store)
        try:
            # Export collides with a never-ready segment under its own
            # fingerprint (a crashed exporter's leftovers): sharing is
            # skipped for this graph, the build still serves.
            prepared = registry.register_pair("up", g1, g2)
            assert prepared.shm_segment is None
            assert registry.resolve("up") is prepared
        finally:
            squat.unlink()
            squat.close()
        registry.forget("up")

    def test_reannounce_drops_stale_store_cache(self, store, tmp_path):
        owner = GraphRegistry(capacity=4, scale=0.0, shm_store=store)
        g1, g2 = self._pair_texts(tmp_path, seed=67)
        h1, h2 = self._pair_texts(tmp_path, seed=71)
        first = owner.register_pair("re", g1, g2)
        seg1 = store.segment_name(first.fingerprint)

        sibling_store = SharedGraphStore(prefix=store.prefix)
        sibling = GraphRegistry(
            capacity=4, scale=0.0, shm_store=sibling_store
        )
        sibling.register_shared("re", first.fingerprint, seg1)
        assert sibling.resolve("re").fingerprint == first.fingerprint
        assert sibling_store.held() == [seg1]

        second = owner.register_pair("re", h1, h2)  # content replaced
        assert second.fingerprint != first.fingerprint
        sibling.register_shared(
            "re",
            second.fingerprint,
            store.segment_name(second.fingerprint),
        )
        # Dropping the stale warm entry must evict the sibling store's
        # cached mapping too: a later announcement of that segment name
        # re-attaches a live mapping instead of handing back the
        # already-closed cached one.
        assert seg1 not in sibling_store.held()
        resolved = sibling.resolve("re")
        assert resolved.fingerprint == second.fingerprint
        _assert_same_answers(_answers(resolved), _answers(second))
        sibling_store.close_all()
        owner.forget("re")

    def test_eviction_releases_segment(self, store, tmp_path):
        registry = GraphRegistry(capacity=1, scale=0.0, shm_store=store)
        a1, a2 = self._pair_texts(tmp_path, seed=43)
        b1, b2 = self._pair_texts(tmp_path, seed=47)
        registry.register_pair("first", a1, a2)
        first_segments = list_segments(store.prefix)
        assert len(first_segments) == 1
        registry.register_pair("second", b1, b2)
        assert registry.evictions == 1
        # The evicted preparation's segment drained to zero and was
        # unlinked; only the resident graph's segment remains.
        remaining = list_segments(store.prefix)
        assert len(remaining) == 1
        assert remaining != first_segments
        registry.forget("second")
