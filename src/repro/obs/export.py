"""Span exporters: Chrome ``trace_event`` JSON and a terminal tree view.

Chrome format reference: every span becomes one *complete* event
(``"ph": "X"``) with microsecond ``ts``/``dur``, so the file loads
directly into ``chrome://tracing`` / Perfetto.  The tree view is what
``repro trace <workload>`` prints: phase nesting, wall time, and tags.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .tracer import Span

__all__ = ["to_chrome", "render_tree", "span_index", "phase_totals"]

#: Canonical pipeline phase names (the span taxonomy documented in
#: DESIGN.md).  Instrumentation sites elsewhere must use these names so
#: dashboards and tests can rely on them.
PHASES = ("parse", "build", "execute", "codegen", "parallelize",
          "instrument", "instrument.profile", "instrument.dyndep", "guru",
          "slice", "parallel_exec", "parallel.exec", "parallel.merge",
          "snapshot", "execute_request", "job", "submit",
          "analyze", "incr.cone", "incr.reuse")


def _as_dicts(spans: Sequence[Union[Span, Dict]]) -> List[Dict]:
    return [s.to_dict() if isinstance(s, Span) else dict(s)
            for s in spans]


def to_chrome(spans: Sequence[Union[Span, Dict]], *,
              process_name: str = "repro") -> Dict:
    """Spans as a Chrome ``trace_event`` JSON object (version-stable:
    ``{"traceEvents": [...], "displayTimeUnit": "ms"}``)."""
    events: List[Dict] = []
    pids = []
    shard_lanes: Dict = {}           # (pid, tid) -> shard tag
    for s in _as_dicts(spans):
        pid = int(s.get("pid") or 0)
        tid = int(s.get("tid") or 0)
        if pid not in pids:
            pids.append(pid)
        args = {str(k): v for k, v in (s.get("tags") or {}).items()}
        args["span_id"] = s["span_id"]
        if s.get("parent_id"):
            args["parent_id"] = s["parent_id"]
        if "shard" in args and (pid, tid) not in shard_lanes:
            shard_lanes[(pid, tid)] = args["shard"]
        events.append({
            "name": s["name"],
            "cat": "repro",
            "ph": "X",
            "ts": int(s.get("start_wall", 0.0) * 1e6),
            "dur": max(1, int(s.get("duration_s", 0.0) * 1e6)),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    # name the processes (parent first, then pool workers)
    for rank, pid in enumerate(pids):
        label = process_name if rank == 0 else f"{process_name}-worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    # name shard-tagged lanes so per-shard load reads off the timeline
    for (pid, tid), shard in sorted(shard_lanes.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": f"shard-{shard}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_index(spans: Sequence[Union[Span, Dict]]) -> Dict[str, Dict]:
    """``span_id -> span dict`` for linkage checks and tree building."""
    return {s["span_id"]: s for s in _as_dicts(spans)}


def _fmt_tags(tags: Dict) -> str:
    if not tags:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"  [{inner}]"


def render_tree(spans: Sequence[Union[Span, Dict]], *,
                min_ms: float = 0.0) -> List[str]:
    """A human-readable span tree, one line per span::

        execute_request                 812.41 ms  [target=mdg]
        ├─ build                          9.12 ms
        │  └─ parse                       6.03 ms
        ├─ profile                      201.55 ms  [loops=9]
        ...
    """
    items = _as_dicts(spans)
    by_id = {s["span_id"]: s for s in items}
    children: Dict[Optional[str], List[Dict]] = {}
    for s in items:
        parent = s.get("parent_id")
        if parent not in by_id:
            parent = None                 # orphan/foreign parent -> root
        children.setdefault(parent, []).append(s)
    for group in children.values():
        group.sort(key=lambda s: (s.get("start_wall", 0.0),
                                  s.get("pid", 0), s.get("seq", 0)))

    lines: List[str] = []

    def emit(span: Dict, prefix: str, tail: str, child_prefix: str) -> None:
        ms = span.get("duration_s", 0.0) * 1e3
        if ms < min_ms:
            return
        label = f"{prefix}{tail}{span['name']}"
        lines.append(f"{label:<44s}{ms:10.2f} ms"
                     f"{_fmt_tags(span.get('tags') or {})}")
        kids = children.get(span["span_id"], [])
        for i, kid in enumerate(kids):
            last = i == len(kids) - 1
            emit(kid, prefix + child_prefix,
                 "└─ " if last else "├─ ",
                 "   " if last else "│  ")

    for root in children.get(None, []):
        emit(root, "", "", "")
    return lines


def phase_totals(spans: Sequence[Union[Span, Dict]]) -> Dict[str, Dict]:
    """Aggregate per-phase wall time: ``name -> {count, total_s, max_s}``
    (the summary block under the tree view and the input for the
    service's per-phase histograms)."""
    out: Dict[str, Dict] = {}
    for s in _as_dicts(spans):
        agg = out.setdefault(s["name"],
                             {"count": 0, "total_s": 0.0, "max_s": 0.0})
        dur = s.get("duration_s", 0.0)
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
    for agg in out.values():
        agg["total_s"] = round(agg["total_s"], 6)
        agg["max_s"] = round(agg["max_s"], 6)
    return out
