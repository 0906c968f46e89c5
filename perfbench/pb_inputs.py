"""Seeded inputs of the three workloads.

Every generator takes the workload seed and nothing else that varies,
so one seed always yields the same edge lists, request lists and event
streams.  The program under test only ever receives what these return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

#: solve-large size: n vertices, average degree of the G1 background.
#: At n = 100k a run took 48-57 s on 2 CPUs (three set-ups of ~10 s),
#: too long for the benchmark's time budget.  At 60k the DCSGA's time
#: swung 2.2x with the host's state (0.95 s against 0.44 s, minutes
#: apart, same code and input) while DCSAD moved 15%: its per-vertex
#: dense arrays (n x 8 bytes each) and the GD+ CSR, about 4 MB, outgrow
#: a 2 MB private L2 there.  At 20k they take about 1.5 MB.
LARGE_N = 20_000
LARGE_AVG_DEGREE = 8
#: planted groups per side (emerging in G2, disappearing in G1)
LARGE_GROUPS = 24


@dataclass
class LargePair:
    """The solve-large input: two snapshots as parallel edge arrays."""

    n: int
    g1: Tuple[np.ndarray, np.ndarray, np.ndarray]
    g2: Tuple[np.ndarray, np.ndarray, np.ndarray]
    emerging: List[List[int]] = field(default_factory=list)
    disappearing: List[List[int]] = field(default_factory=list)

    def emerging_members(self) -> set:
        return {v for group in self.emerging for v in group}


def _plant(members: np.ndarray, strength: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Internal pairs of one group: 90% of them, at one strength.

    Which pairs are kept depends on the group's size only, so a group
    of a given size has the same shape for every seed.  With the pairs
    drawn from the seed, seed 13 left 34 SEACD runs per DCSGA instead
    of 19-20 and a 9-vertex answer instead of 12, and its DCSGA took
    1.7x as long.
    """
    members = np.sort(members)
    iu, ju = np.triu_indices(len(members), k=1)
    keep = np.random.default_rng([len(members), 7]).random(len(iu)) < 0.9
    u, v = members[iu[keep]], members[ju[keep]]
    return u, v, np.full(len(u), strength)


def _group_schedule() -> List[Tuple[int, float]]:
    """(size, strength) of each planted group on one side.

    Sizes cover 8-24 and strengths the quantiles of U(2, 4) in a fixed
    interleaving, identical for every seed: which group is densest, and
    so how many SEACD runs smart initialisation leaves, must not depend
    on the seed.  The seed only places the groups.
    """
    sizes = [8 + (16 * i) // (LARGE_GROUPS - 1) for i in range(LARGE_GROUPS)]
    strengths = [2.0 + 2.0 * ((7 * i) % LARGE_GROUPS + 0.5) / LARGE_GROUPS for i in range(LARGE_GROUPS)]
    return list(zip(sizes, strengths))


def _merge(
    n: int,
    base: Tuple[np.ndarray, np.ndarray, np.ndarray],
    extra: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add *extra* weights onto *base* edges (summing coincident pairs)."""
    us = np.concatenate([base[0]] + [e[0] for e in extra])
    vs = np.concatenate([base[1]] + [e[1] for e in extra])
    ws = np.concatenate([base[2]] + [e[2] for e in extra])
    keys, inverse = np.unique(us * n + vs, return_inverse=True)
    weights = np.zeros(len(keys))
    np.add.at(weights, inverse, ws)
    nonzero = weights != 0.0
    keys, weights = keys[nonzero], weights[nonzero]
    return keys // n, keys % n, weights


def large_pair(seed: int, n: int = LARGE_N) -> LargePair:
    """G1/G2 for solve-large, in O(m log m) NumPy work.

    G1 is a Chung-Lu style background with Pareto expected degrees
    (average ``LARGE_AVG_DEGREE``) and integer weights 1-3.  G2 moves
    about 40% of those weights by +-1 (an edge at 0 disappears).  Then
    ``LARGE_GROUPS`` emerging groups (8-24 vertices, 90% of pairs, one
    strength each from U(2, 4), see :func:`_group_schedule`) are added
    to G2 and as many disappearing groups to G1, so the signed
    difference has about 1.9 edges per vertex at n = 20k, half of them
    negative.
    ``graph.generators.chung_lu_graph`` is quadratic in n, so it cannot
    build this size.
    """
    rng = np.random.default_rng([seed, 1])
    expected = rng.pareto(2.5, n) + 1.0
    target = n * LARGE_AVG_DEGREE // 2
    draw = int(target * 1.08)
    cdf = np.cumsum(expected / expected.sum())
    a = np.minimum(np.searchsorted(cdf, rng.random(draw)), n - 1)
    b = np.minimum(np.searchsorted(cdf, rng.random(draw)), n - 1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = np.unique((lo * n + hi)[lo != hi])
    if len(keys) > target:
        keys = np.sort(rng.choice(keys, size=target, replace=False))
    schedule = _group_schedule() * 2
    # Groups are placed among the vertices of below-median expected
    # degree, so no planted member is a background hub.  At 60k, with
    # members drawn from every vertex, seeds 11, 21 and 401 left 20, 20
    # and 32 SEACD runs per DCSGA.  Drawn from these, and with the group
    # shapes of _plant, seeds 1-14 at 20k each left 19 or 20.
    quiet = np.flatnonzero(expected <= np.median(expected))
    order = rng.permutation(quiet)
    offsets = np.concatenate([[0], np.cumsum([size for size, _ in schedule])])
    groups = [order[offsets[i]:offsets[i + 1]] for i in range(len(schedule))]
    # No background edge inside a planted group: a +-1 change there would
    # shift the group's strength, and with it how many SEACD runs smart
    # initialisation leaves, from seed to seed.
    group_of = np.full(n, -1)
    for index, group in enumerate(groups):
        group_of[group] = index
    bu, bv = keys // n, keys % n
    outside = (group_of[bu] != group_of[bv]) | (group_of[bu] < 0)
    bu, bv = bu[outside], bv[outside]
    w1 = rng.integers(1, 4, size=len(bu)).astype(float)
    moved = rng.random(len(bu)) < 0.4
    w2 = w1 + np.where(moved, rng.choice([-1.0, 1.0], size=len(bu)), 0.0)

    planted = [_plant(g, strength) for g, (_, strength) in zip(groups, schedule)]
    emerging, disappearing = groups[:LARGE_GROUPS], groups[LARGE_GROUPS:]
    g2 = _merge(n, (bu, bv, w2), planted[:LARGE_GROUPS])
    g1 = _merge(n, (bu, bv, w1), planted[LARGE_GROUPS:])
    return LargePair(
        n=n,
        g1=g1,
        g2=g2,
        emerging=[sorted(int(v) for v in g) for g in emerging],
        disappearing=[sorted(int(v) for v in g) for g in disappearing],
    )


def to_graph(n: int, edges: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> Any:
    """A :class:`repro.graph.graph.Graph` over vertices ``0..n-1``."""
    from repro.graph.graph import Graph

    graph = Graph()
    graph.add_vertices(range(n))
    add = graph.add_edge
    for u, v, w in zip(edges[0].tolist(), edges[1].tolist(), edges[2].tolist()):
        add(u, v, w)
    return graph


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: Table II references the service resolves at its default scale 0.25;
#: chosen so both cluster workers own some (sha256 shard of the name)
#: and miss costs span the Table VII regime, 1-350 ms.
SERVE_REFS = (
    "DBLP/Weighted/Emerging",
    "DBLP/Discrete/Disappearing",
    "DM/-/Emerging",
    "Wiki/-/Consistent",
    "Movie/-/Interest-Social",
    "Book/-/Social-Interest",
    "DBLP-C/Weighted/-",
    "Actor/Weighted/-",
)
#: the four rotating upload names
UPLOAD_NAMES = tuple(f"upload-{i}" for i in range(4))
#: request counts per class: 59% hits, 32% misses, 4.6% batches, 4.6%
#: uploads.  2,080 requests leave 20 beyond p99, and p50 sits 9 points
#: inside the hit class.  p50 falls where hits that waited behind a
#: solve meet the fastest misses, a steep stretch (p45 to p55 spanned 8
#: to 14 ms), so at half this count p50 spread 0.14-0.18 over five
#: seeds.  Misses cover every (ref, kind, backend) MISS_ROUNDS times, so
#: the miss mix is the same for every seed, plus 20 more of the slowest
#: one (Wiki DCSGA on sparse): the 40 slowest requests then come from
#: one cluster and p99 falls inside it, not in a gap.
MISS_ROUNDS = 20
SERVE_COUNTS = {"hit": 1228, "miss": 660, "batch": 96, "upload": 96}
SLOWEST_MISS = {"graph": "Wiki/-/Consistent", "kind": "dcsga", "backend": "sparse"}
SOLVE_KINDS = ("dcsad", "dcsga")
BACKENDS = ("python", "sparse")


def upload_pair(seed: int, index: int, n: int = 300) -> Tuple[str, str]:
    """Edge-list texts of one ~300-vertex upload: a sparse background
    whose weights drift in G2, plus one planted emerging group."""
    rng = random.Random(f"upload-{seed}-{index}")
    names = [f"p{i:03d}" for i in range(n)]
    g1: Dict[Tuple[str, str], float] = {}
    for _ in range(3 * n):
        u, v = rng.sample(names, 2)
        g1[(min(u, v), max(u, v))] = float(rng.randint(1, 3))
    g2 = {key: max(0.0, w + rng.choice((-1.0, 0.0, 0.0, 1.0))) for key, w in g1.items()}
    members = sorted(rng.sample(names, rng.randint(6, 12)))
    strength = round(rng.uniform(2.0, 4.0), 3)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if rng.random() < 0.9:
                g2[(u, v)] = g2.get((u, v), 0.0) + strength

    def text(edges: Dict[Tuple[str, str], float]) -> str:
        lines = [f"{u} {v} {w!r}" for (u, v), w in sorted(edges.items()) if w > 0]
        return "\n".join(names + lines) + "\n"

    return text(g1), text(g2)


def hit_requests() -> List[Dict[str, Any]]:
    """The distinct solves the fill pass caches and hits then repeat."""
    return [
        {"graph": ref, "kind": kind, "backend": backend}
        for ref in SERVE_REFS
        for kind in SOLVE_KINDS
        for backend in BACKENDS
    ]


def serve_requests(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The fixed, shuffled request list of one serve-mixed run.

    The seed picks which cached solve each hit repeats and the content
    of every upload.  Where each class, miss and batch sits in the list
    is the same for every seed: which requests queue behind which is
    then a property of the workload, and a run's latencies do not swing
    with the seed.
    """
    rng = random.Random(f"serve-{seed}")
    hits = hit_requests()
    ops: List[Tuple[str, Dict[str, Any]]] = []
    for i in range(SERVE_COUNTS["hit"]):
        ops.append(("hit", dict(hits[rng.randrange(len(hits))])))
    for i in range(SERVE_COUNTS["miss"]):
        request = dict(hits[i % len(hits)] if i < MISS_ROUNDS * len(hits) else SLOWEST_MISS)
        # a unique tolerance nudge: never a cache hit
        request["tol_scale"] = 1e-2 * (1.0 + 1e-6 * (i + 1))
        ops.append(("miss", request))
    owners = _owners()
    for i in range(SERVE_COUNTS["batch"]):
        a = owners[0][i % len(owners[0])]
        b = owners[1][i % len(owners[1])]
        queries = [
            {"graph": a, "kind": "dcsad", "backend": "python"},
            {"graph": b, "kind": "dcsad", "backend": "sparse"},
            {"graph": (a, b)[i % 2], "kind": "dcsga", "backend": "sparse"},
        ]
        for j, query in enumerate(queries):
            query["tol_scale"] = 1e-2 * (1.0 + 1e-6 * (10_000 + 3 * i + j))
        ops.append(("batch", {"queries": queries}))
    for i in range(SERVE_COUNTS["upload"]):
        g1, g2 = upload_pair(seed, len(UPLOAD_NAMES) + i)
        ops.append(("upload", {"name": UPLOAD_NAMES[i % len(UPLOAD_NAMES)], "g1": g1, "g2": g2}))
    random.Random("serve-layout").shuffle(ops)
    return ops


def _owners() -> Tuple[List[str], List[str]]:
    """SERVE_REFS split by the cluster worker (of 2) that owns each."""
    from repro.service.cluster import _shard

    split: Tuple[List[str], List[str]] = ([], [])
    for ref in SERVE_REFS:
        split[_shard(ref, 2)].append(ref)
    return split


# ----------------------------------------------------------------------
# stream-sessions
# ----------------------------------------------------------------------
TENANTS = 8
TENANT_VERTICES = 400
#: steps after the warm step 0; 8 tenants x 96 posts plus a poll per
#: three posts makes 1,024 requests, 10 beyond p99, with p50 25 points
#: inside the post class
TENANT_STEPS = 96
#: edge density of each tenant's base graph.  A step re-observes 2% of
#: the base edges (about 220 events here), so a post takes ~35 ms.  At
#: a third of this density (~50 events, ~12 ms a post) a tail request
#: was mostly a host stall of a few tens of ms, and p99 followed the
#: run's CPU steal (26 ms at 2% steal, 44 ms at 6%).
BASE_P = 0.09
#: alerts fire only on planted bursts: bursts score 15-30, background
#: steps stay below 1
ALERT_THRESHOLD = 5.0
WINDOW = 5


@dataclass
class TenantStream:
    universe: List[str]
    #: events of step s, as ``{"t", "u", "v", "w"}`` records
    steps: List[List[Dict[str, Any]]]
    burst: Tuple[int, int]


def tenant_streams(seed: int) -> List[TenantStream]:
    """One seeded ``burst_event_stream`` per tenant, split by step."""
    from repro.datasets.streaming import burst_event_stream

    rng = random.Random(f"stream-{seed}")
    tenants = []
    for _ in range(TENANTS):
        start = rng.randrange(20, TENANT_STEPS - 10)
        stream = burst_event_stream(
            n_vertices=TENANT_VERTICES,
            n_steps=TENANT_STEPS + 1,
            base_p=BASE_P,
            reobserve_p=0.02,
            anomaly_size=8,
            anomaly_start=start,
            anomaly_duration=3,
            seed=rng.randrange(1 << 30),
        )
        steps: List[List[Dict[str, Any]]] = [[] for _ in range(stream.n_steps)]
        for event in stream.log.events:
            steps[event.t].append({"t": event.t, "u": event.u, "v": event.v, "w": event.w})
        tenants.append(TenantStream(stream.universe, steps, (stream.anomaly_start, stream.anomaly_end)))
    return tenants


def stream_ops(connection: int, connections: int = 2) -> List[Tuple[str, int, int]]:
    """One connection's fixed op list: ``(op, tenant, step)``.

    Each connection owns a disjoint set of tenants, so a tenant's steps
    always arrive in order; every third post is followed by a poll.
    """
    mine = [t for t in range(TENANTS) if t % connections == connection]
    ops: List[Tuple[str, int, int]] = []
    posts = 0
    for step in range(1, TENANT_STEPS + 1):
        for tenant in mine:
            ops.append(("post", tenant, step))
            posts += 1
            if posts % 3 == 0:
                ops.append(("poll", -1, step))
    return ops
