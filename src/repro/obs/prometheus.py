"""Prometheus text exposition, rendered from the metrics JSON snapshot.

The service has served a JSON counter blob on ``/metrics`` since PR 5,
and existing tests pin its shape byte-for-byte — so the Prometheus
form is *derived from the same snapshot dict*, never maintained in
parallel: one source of truth, two representations, selected by
content negotiation (``Accept: text/plain`` / ``?format=prometheus``).

Only the subset of the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ the
service needs is emitted: ``counter`` and ``gauge`` families plus a
``summary``-style quantile pair for the latency window, each preceded
by ``# HELP`` / ``# TYPE``.  :func:`parse_exposition` is the
round-trip check the tests and the obs-smoke job use — it enforces
the grammar rules that matter (TYPE before samples, consistent family
names, float-parsable values).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "render_exposition",
    "render_multi_exposition",
    "parse_exposition",
]

_PREFIX = "repro"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Integral values print as integers — the conventional exposition
    # form for counters.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Writer:
    """Accumulates families; guarantees grouped, HELP/TYPE-led output.

    Samples are collected per family and emitted grouped in :meth:`text`
    — the exposition format forbids interleaving a family's samples —
    so the cluster router can render several per-worker snapshots into
    one writer (each stamped with its ``{"worker": "<id>"}`` labels via
    *extra_labels*) and still produce a single valid scrape.
    """

    def __init__(
        self, extra_labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.extra_labels = dict(extra_labels or {})
        self._order: List[str] = []
        self._families: Dict[str, Dict[str, Any]] = {}

    def family(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: List[Tuple[Dict[str, str], float]],
    ) -> None:
        if not samples:
            return
        entry = self._families.get(name)
        if entry is None:
            entry = {"kind": kind, "help": help_text, "samples": []}
            self._families[name] = entry
            self._order.append(name)
        for labels, value in samples:
            entry["samples"].append(({**self.extra_labels, **labels}, value))

    def text(self) -> str:
        lines: List[str] = []
        for name in self._order:
            entry = self._families[name]
            lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['kind']}")
            for labels, value in entry["samples"]:
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(text)}"'
                        for key, text in sorted(labels.items())
                    )
                    lines.append(
                        f"{name}{{{rendered}}} {_format_value(value)}"
                    )
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def render_exposition(
    snapshot: Mapping[str, Any],
    extra_labels: Optional[Mapping[str, str]] = None,
) -> str:
    """The ``/metrics`` JSON snapshot as Prometheus text exposition.

    *extra_labels* (e.g. ``{"worker": "2"}``) are merged into every
    sample's label set — the multi-worker router uses this to expose
    per-worker series under one scrape.
    """
    w = _Writer(extra_labels)
    _render_into(w, snapshot)
    return w.text()


def render_multi_exposition(
    labeled_snapshots: List[Tuple[Dict[str, str], Mapping[str, Any]]],
) -> str:
    """Several labelled snapshots as one valid exposition.

    The cluster's ``/metrics`` renders each worker's snapshot with its
    ``worker`` label into one shared writer, keeping every family's
    samples grouped under a single HELP/TYPE header as the format
    requires.
    """
    w = _Writer()
    for labels, snapshot in labeled_snapshots:
        w.extra_labels = dict(labels)
        _render_into(w, snapshot)
    w.extra_labels = {}
    return w.text()


def _render_into(w: _Writer, snapshot: Mapping[str, Any]) -> None:
    p = _PREFIX
    w.family(
        f"{p}_uptime_seconds", "gauge",
        "Seconds since the service process started.",
        [({}, float(snapshot["uptime_seconds"]))],
    )
    requests = snapshot["requests"]
    w.family(
        f"{p}_requests_total", "counter",
        "Requests handled, by route template.",
        [({"route": route}, float(count))
         for route, count in requests["by_route"].items()],
    )
    w.family(
        f"{p}_responses_total", "counter",
        "Responses sent, by HTTP status.",
        [({"status": status}, float(count))
         for status, count in requests["by_status"].items()],
    )
    queries = snapshot["queries"]
    w.family(
        f"{p}_queries_total", "counter",
        "Compute outcomes (solve / batch / session events).",
        [({"outcome": outcome}, float(queries[outcome]))
         for outcome in ("ok", "error", "timeout", "rejected")],
    )
    w.family(
        f"{p}_queue_depth", "gauge",
        "Requests admitted but not yet picked up by a consumer.",
        [({}, float(queries["pending"]))],
    )
    cache = snapshot["cache"]
    w.family(
        f"{p}_result_cache_lookups_total", "counter",
        "Content-addressed result cache lookups, by outcome.",
        [({"outcome": "hit"}, float(cache["hits"])),
         ({"outcome": "miss"}, float(cache["misses"]))],
    )
    warm = snapshot["warm"]
    w.family(
        f"{p}_warm_prepared", "gauge",
        "PreparedGraph instances resident in the warm LRU.",
        [({}, float(warm["prepared"]))],
    )
    w.family(
        f"{p}_warm_evictions_total", "counter",
        "Warm LRU evictions since start.",
        [({}, float(warm["evictions"]))],
    )
    latency = snapshot["latency"]
    w.family(
        f"{p}_query_latency_seconds", "summary",
        "End-to-end compute latency over the recent window "
        "(nearest-rank quantiles).",
        [({"quantile": "0.5"}, float(latency["p50_seconds"])),
         ({"quantile": "0.95"}, float(latency["p95_seconds"]))],
    )
    w.family(
        f"{p}_query_latency_observations_total", "counter",
        "Latency observations ever recorded.",
        [({}, float(latency["observations"]))],
    )
    loop = snapshot.get("loop")
    if loop is not None:
        w.family(
            f"{p}_event_loop_lag_seconds", "gauge",
            "Most recent event-loop scheduling lag probe.",
            [({}, float(loop["lag_seconds"]))],
        )
        w.family(
            f"{p}_event_loop_lag_max_seconds", "gauge",
            "Worst event-loop lag observed since start.",
            [({}, float(loop["lag_max_seconds"]))],
        )
    phases = snapshot.get("solve_phases")
    if phases:
        w.family(
            f"{p}_solve_phase_seconds_total", "counter",
            "Traced solve time attributed to each pipeline phase.",
            [({"phase": phase}, float(entry["seconds"]))
             for phase, entry in phases.items()],
        )
        w.family(
            f"{p}_solve_phase_calls_total", "counter",
            "Traced solves contributing to each phase bucket.",
            [({"phase": phase}, float(entry["calls"]))
             for phase, entry in phases.items()],
        )
    sessions = snapshot.get("sessions")
    if sessions is not None:
        w.family(
            f"{p}_sessions_active", "gauge",
            "Resident stream sessions.",
            [({}, float(sessions["active"]))],
        )
        w.family(
            f"{p}_session_events_total", "counter",
            "Events ingested across all sessions since start.",
            [({}, float(sessions["events"]))],
        )
        w.family(
            f"{p}_session_alerts_total", "counter",
            "Alerts emitted across all sessions since start.",
            [({}, float(sessions["alerts"]))],
        )


def parse_exposition(
    text: str,
) -> Dict[str, Dict[str, Any]]:
    """Parse exposition *text*; raise ``ValueError`` on grammar breaks.

    Returns ``{family: {"type": kind, "samples": {sample_line_name_and
    _labels: value}}}`` — enough for tests to assert types and values.
    Enforced: every sample belongs to a family whose ``# TYPE`` came
    first (summaries also own their ``_count``/``_sum`` suffixes),
    values parse as floats, label blocks are well-formed.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {line!r}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "summary", "histogram"):
                raise ValueError(f"unknown metric type {kind!r}")
            families[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            raise ValueError(f"unknown comment line: {line!r}")
        # sample: name[{labels}] value
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"unparsable sample value in line: {line!r}"
            ) from None
        base = name_part.split("{", 1)[0]
        family: Optional[str] = None
        for candidate in (base, base.rsplit("_", 1)[0]):
            if candidate in families:
                family = candidate
                break
        if family is None:
            raise ValueError(
                f"sample {base!r} has no preceding # TYPE family"
            )
        if "{" in name_part and not name_part.endswith("}"):
            raise ValueError(f"malformed label block in line: {line!r}")
        families[family]["samples"][name_part] = value
    return families
