"""Pluggable sinks for one finished trace.

Three machine-readable forms, all derived from the same exported span
tree so they can never disagree:

* :func:`write_trace_jsonl` — the event log: one JSON object per line,
  spans in deterministic depth-first order (ids assigned at export, so
  the file is byte-stable across job counts modulo the duration
  fields), events attached to their span id;
* :func:`metrics_payload` / :func:`write_metrics_json` — a strict
  superset of ``EngineMetrics.to_dict()`` with an ``obs`` section
  (per-phase totals, event counts, counters, schema version);
* :func:`prometheus_text` — a Prometheus text-format exposition of the
  same numbers, for scraping: the :data:`FAMILIES` table rendered by
  :func:`render`, the one writer of the text format (``repro serve``
  renders its own table through it too).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.tracer import TRACE_SCHEMA, Tracer


def trace_lines(tracer: Tracer) -> list[dict[str, Any]]:
    """The JSONL records of one trace, in deterministic order.

    The first record is a ``meta`` header; every span gets an id in
    depth-first order (the tree is already deterministically ordered by
    construction); events follow their span immediately.
    """
    lines: list[dict[str, Any]] = [
        {"type": "meta", "schema": TRACE_SCHEMA, "counters": dict(sorted(tracer.counters.items()))}
    ]
    next_id = 0

    def visit(node: dict[str, Any], parent: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record: dict[str, Any] = {
            "type": "span",
            "id": span_id,
            "parent": parent,
            "kind": node["kind"],
            "name": node["name"],
            "seconds": node["seconds"],
            "status": node["status"],
        }
        if node.get("attrs"):
            record["attrs"] = node["attrs"]
        lines.append(record)
        for event in node.get("events", ()):
            lines.append({"type": "event", "span": span_id, **event})
        for child in node.get("children", ()):
            visit(child, span_id)

    visit(tracer.export(), None)
    return lines


def write_trace_jsonl(tracer: Tracer, path: str | Path) -> int:
    """Write the JSONL event log; returns the number of lines."""
    lines = trace_lines(tracer)
    text = "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return len(lines)


def metrics_payload(
    engine_metrics: dict[str, Any] | None, tracer: Tracer | None
) -> dict[str, Any]:
    """The metrics-file payload: ``EngineMetrics.to_dict()`` plus obs.

    Every key of the engine summary survives verbatim (the file is a
    strict superset), so consumers of the old ``--stats`` numbers can
    read the new file without changes.
    """
    payload: dict[str, Any] = dict(engine_metrics or {})
    obs: dict[str, Any] = {"schema": TRACE_SCHEMA}
    if tracer is not None and tracer.enabled:
        obs["phases"] = {
            name: {"seconds": entry["seconds"], "calls": int(entry["calls"])}
            for name, entry in sorted(tracer.phase_aggregate().items())
        }
        obs["counters"] = dict(sorted(tracer.counters.items()))
        obs["spans"] = sum(1 for _ in tracer.root.walk()) - 1  # implicit root
    payload["obs"] = obs
    return payload


def write_metrics_json(payload: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Reads a family's ``(label value, sample value)`` pairs from a source;
#: a ``None`` label value marks an unlabelled series.
Samples = Callable[[Any], Iterable[tuple[str | None, Any]]]


@dataclass(frozen=True)
class Family:
    """One metric family: its name, type, help text and sample reader.

    A family whose reader yields no samples is left out of the
    exposition.
    """

    name: str
    kind: str
    help: str
    samples: Samples
    label: str = "kind"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render(prefix: str, families: Iterable[Family], source: Any) -> str:
    """Render ``families`` over ``source`` in Prometheus text format 0.0.4.

    HELP and TYPE lines precede each present family's samples, label
    values are escaped, and the output ends with a newline, as scrapers
    require.
    """
    lines: list[str] = []
    for family in families:
        samples = list(family.samples(source))
        if not samples:
            continue
        name = f"{prefix}_{family.name}"
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for label, value in samples:
            labels = "" if label is None else f'{{{family.label}="{_escape_label(label)}"}}'
            lines.append(f"{name}{labels} {value}")
    return "".join(f"{line}\n" for line in lines)


def _section(payload: dict[str, Any], name: str | None) -> dict[str, Any]:
    """The payload section a family reads (``None``: the top level).

    The presence rule: a series is present when its key is.  Two
    sections are exceptions, read as empty unless they carry news:
    ``incremental``, which every engine run fills, counts only when
    ``enabled``; ``remote`` only with a nonzero counter.
    """
    if name is None:
        return payload
    section = payload.get(name, {})
    if name == "incremental" and not section.get("enabled"):
        return {}
    if name == "remote" and not any(section.values()):
        return {}
    return section


def _read(section: str | None, series: tuple[tuple[str | None, str], ...]) -> Samples:
    """Samples from ``(label value, key)`` pairs of one payload section."""

    def samples(payload: dict[str, Any]) -> list[tuple[str | None, Any]]:
        values = _section(payload, section)
        return [(label, values[key]) for label, key in series if key in values]

    return samples


def _value(section: str | None, key: str) -> Samples:
    return _read(section, ((None, key),))


def _kinds(section: str, *keys: str) -> Samples:
    return _read(section, tuple((key, key) for key in keys))


def _phases(field: str) -> Samples:
    return lambda payload: [
        (name, entry[field])
        for name, entry in sorted(payload.get("obs", {}).get("phases", {}).items())
    ]


#: The ``repro_*`` families of a metrics payload (:func:`metrics_payload`
#: over an engine or a mining run), in exposition order.
FAMILIES: tuple[Family, ...] = (
    Family("classes", "gauge", "Classes in the verified module.", _value(None, "classes")),
    Family("waves", "gauge", "Topological waves in the schedule.", _value(None, "waves")),
    Family("jobs", "gauge", "Configured worker count.", _value(None, "jobs")),
    Family("wall_seconds", "gauge", "Wall time of the run in seconds.",
           _value(None, "wall_seconds")),
    Family("cache_events_total", "counter", "Cache events by kind.",
           _kinds("cache", "class_hits", "class_misses", "writes", "corrupt_entries")),
    Family("incremental_classes_total", "counter", "Incremental run outcome per class, by kind.",
           _kinds("incremental", "reused", "dirty")),
    Family("incremental_reuse_ratio", "gauge",
           "Fraction of class verdicts spliced from the project state.",
           _value("incremental", "reuse_ratio")),
    Family("store_events_total", "counter", "Crash-safe store events by kind.",
           _kinds("store", "checksum_failures", "write_failures", "orphans_removed",
                  "state_save_failures", "state_merged_entries")),
    Family("store_state_generation", "gauge", "Generation counter of the persisted project state.",
           _value("store", "state_generation")),
    Family("cache_remote_events_total", "counter", "Remote cache tier events by kind.",
           _kinds("remote", "hits", "misses", "puts", "errors", "degraded")),
    Family("mine_classes", "gauge", "Classes mined from monitored runs.",
           _value("mine", "classes")),
    Family("mine_corpus_total", "counter", "Corpus volume of the mining run, by kind.",
           _kinds("mine", "corpus_samples", "corpus_events")),
    Family("mine_states", "gauge", "Automaton sizes across the mining run, by stage.",
           _read("mine", (("pta", "pta_states"), ("mined", "mined_states"))), label="stage"),
    Family("mine_merges_total", "counter", "Evidence-gated state merges the learner accepted.",
           _value("mine", "merges_accepted")),
    Family("mine_findings_total", "counter",
           "Mining findings by kind (divergent includes unsound).",
           _kinds("mine", "divergent", "unsound", "notes")),
    Family("mine_wall_seconds", "gauge", "Wall time of the collect/learn/diff phases in seconds.",
           _value("mine", "wall_seconds")),
    Family("supervisor_events_total", "counter", "Supervisor recovery events by kind.",
           _kinds("supervisor", "retries", "quarantines", "budget_trips", "timeouts",
                  "pool_restarts")),
    Family("phase_seconds_total", "counter", "Wall time per pipeline phase in seconds.",
           _phases("seconds"), label="phase"),
    Family("phase_calls_total", "counter", "Phase executions (including cached/skipped records).",
           _phases("calls"), label="phase"),
)


def prometheus_text(payload: dict[str, Any]) -> str:
    """Render a metrics payload as the ``repro_*`` Prometheus exposition."""
    return render("repro", FAMILIES, payload)


def write_prometheus(payload: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(prometheus_text(payload), encoding="utf-8")
