"""The job model of the analysis service.

An :class:`AnalysisRequest` names *what* to analyze (a corpus workload or
raw mini-Fortran source), with which inputs and analysis options; its
:meth:`~AnalysisRequest.key` is the content address under which the
result artifact is cached (see :mod:`repro.service.artifacts`).

:func:`execute_request` is the pure worker function: request in, a fully
JSON-serializable artifact out.  It runs the complete Explorer pipeline
(parallelizer plan → loop profile → dynamic dependences → Guru report →
slices of the Guru's targets → simulated parallel execution → optional
user assertions) and flattens every product into plain dicts with a
deterministic encoding, so a process-pool batch is bit-identical to a
sequential run of the same requests.

A :class:`Job` tracks one request through the scheduler lifecycle::

    submitted -> queued -> running -> done | failed

with retry accounting for worker crashes.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence

from .artifacts import SCHEMA_VERSION, artifact_key

# -- job states --------------------------------------------------------------
SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: All states, in lifecycle order.
STATES = (SUBMITTED, QUEUED, RUNNING, DONE, FAILED)

#: How many Guru targets the ``slice: "targets"`` shorthand expands to
#: (slicing every loop of every request would swamp the payload).
MAX_SLICE_TARGETS = 4

#: Server-boundary cap on explicit ``options["slice"]`` query points.
MAX_SLICE_QUERIES = 16

_DEFAULT_OPTIONS = {
    "engine": "transpiled",
    "machine": "alphaserver",
    "use_liveness": True,
    "assertions": False,
}

#: Server-boundary ceiling for ``options["max_ops"]`` — a request may
#: lower its op budget but never raise it past the engine default, so a
#: single pathological job cannot monopolize a pool slot indefinitely.
MAX_OPS_CAP = 500_000_000

#: Options that direct *how* a job is run (chaos directives), not *what*
#: is computed.  They are excluded from the content address and from the
#: options recorded in the artifact, so an injected job shares its cache
#: key — and its artifact bytes — with its clean twin.
NON_SEMANTIC_OPTIONS = ("fault",)


#: Every request option a job reads, plus ``salt``: a nonce no job reads
#: whose only effect is a fresh content key (a cache-busting repeat).
#: Anything else is a 400 at the boundary, so a typo or a removed option
#: never runs silently with the defaults under a new cache key.
KNOWN_OPTIONS = ("engine", "machine", "use_liveness", "liveness_variant",
                 "use_reductions", "assertions", "analysis_only",
                 "max_ops", "deadline_s", "slice", "fault", "salt")


def semantic_options(options: Dict) -> Dict:
    """``options`` minus the :data:`NON_SEMANTIC_OPTIONS` entries."""
    return {k: v for k, v in options.items()
            if k not in NON_SEMANTIC_OPTIONS}


def validate_options(options, *, allow_faults: bool = False) -> Optional[Dict]:
    """Validate and normalize request options at the service boundary.

    Raises :class:`ValueError` with a client-actionable message for bad
    shapes/values and for names outside :data:`KNOWN_OPTIONS`; returns
    a sanitized copy (``max_ops`` coerced to int and capped at
    :data:`MAX_OPS_CAP`, ``deadline_s`` coerced to float).  ``None``
    passes through (defaults apply).

    ``options["fault"]`` is rejected unless ``allow_faults`` is set —
    a production server that never enabled injection must 400 a chaos
    directive at the boundary, not let an arbitrary client crash its
    workers (the directives are additionally neutralized outside pool
    workers, but the front door stays shut regardless).  When allowed,
    the directive's kind is validated so typos are 400s, not failed
    jobs.
    """
    if options is None:
        return None
    if not isinstance(options, dict):
        raise ValueError("options must be a JSON object")
    unknown = sorted(set(options) - set(KNOWN_OPTIONS))
    if unknown:
        raise ValueError(f"unknown option(s) {unknown}; known options: "
                         f"{list(KNOWN_OPTIONS)}")
    out = dict(options)
    if out.get("fault"):
        if not allow_faults:
            raise ValueError(
                "fault injection is not enabled on this server "
                "(start it with --inject / allow_faults=True)")
        from .faults import DIRECTIVE_KINDS
        kind = str(out["fault"]).partition(":")[0]
        if kind not in DIRECTIVE_KINDS:
            raise ValueError(f"unknown fault directive kind {kind!r}; "
                             f"choose from {DIRECTIVE_KINDS}")
    engine = out.get("engine")
    if engine is not None:
        from ..runtime.interpreter import ENGINE_NAMES
        if engine not in ENGINE_NAMES:
            raise ValueError(f"unknown engine {engine!r}; choose from "
                             f"{list(ENGINE_NAMES)}")
    machine = out.get("machine")
    if machine is not None:
        from ..runtime.machine import MACHINES
        if machine not in MACHINES:
            raise ValueError(f"unknown machine {machine!r}; choose from "
                             f"{sorted(MACHINES)}")
    if "max_ops" in out:
        try:
            max_ops = int(out["max_ops"])
        except (TypeError, ValueError):
            raise ValueError("max_ops must be an integer") from None
        if max_ops <= 0:
            raise ValueError("max_ops must be positive")
        out["max_ops"] = min(max_ops, MAX_OPS_CAP)
    if "deadline_s" in out:
        try:
            deadline = float(out["deadline_s"])
        except (TypeError, ValueError):
            raise ValueError("deadline_s must be a number") from None
        if not deadline > 0:
            raise ValueError("deadline_s must be positive")
        out["deadline_s"] = deadline
    for name in ("use_liveness", "use_reductions", "assertions",
                 "analysis_only"):
        if name in out:
            flag = out[name]
            if not isinstance(flag, (bool, int)):
                raise ValueError(f"{name} must be a boolean")
            out[name] = bool(flag)
    if "liveness_variant" in out:
        from ..analysis.liveness import VARIANTS
        if out["liveness_variant"] not in VARIANTS:
            raise ValueError(
                f"unknown liveness_variant {out['liveness_variant']!r}; "
                f"choose from {list(VARIANTS)}")
    if out.get("analysis_only") and out.get("assertions"):
        raise ValueError("analysis_only jobs cannot check "
                         "assertions (no execution to compare)")
    if "slice" in out:
        val = out["slice"]
        if isinstance(val, str):
            val = [val]
        if not isinstance(val, list) or \
                not all(isinstance(x, str) for x in val):
            raise ValueError("slice must be a loop name or a list of "
                             "loop names (or 'targets')")
        if len(val) > MAX_SLICE_QUERIES:
            raise ValueError(f"slice accepts at most "
                             f"{MAX_SLICE_QUERIES} query points")
        out["slice"] = list(val)
    return out


class AnalysisRequest:
    """One unit of analysis work, content-addressable."""

    __slots__ = ("workload", "source", "program_name", "inputs", "options")

    def __init__(self, workload: Optional[str] = None, *,
                 source: Optional[str] = None,
                 program_name: Optional[str] = None,
                 inputs: Optional[Sequence[float]] = None,
                 options: Optional[Dict] = None):
        if (workload is None) == (source is None):
            raise ValueError(
                "exactly one of workload= or source= is required")
        self.workload = workload
        self.source = source
        self.program_name = program_name
        self.inputs = None if inputs is None else [float(x) for x in inputs]
        merged = dict(_DEFAULT_OPTIONS)
        merged.update(options or {})
        self.options = merged

    # -- resolution --------------------------------------------------------
    def resolved(self) -> "AnalysisRequest":
        """A copy with source/name/inputs materialized from the corpus, so
        the content address covers the *actual* source text (editing a
        workload module invalidates its cache entries)."""
        if self.workload is None:
            out = AnalysisRequest(
                source=self.source,
                program_name=self.program_name or "program",
                inputs=self.inputs or [], options=self.options)
            return out
        from ..workloads import get
        w = get(self.workload)
        inputs = self.inputs if self.inputs is not None else list(w.inputs)
        return AnalysisRequest(source=w.source, program_name=w.name,
                               inputs=inputs, options=self.options)

    def key(self) -> str:
        """Content address — hashes **semantic** options only: a chaos
        directive stamped into ``options["fault"]`` changes how a job is
        *run*, not what it computes, so an injected job dedupes, caches,
        and corrupts under the same key as its clean twin."""
        r = self.resolved()
        return artifact_key(r.source, r.program_name, r.inputs,
                            semantic_options(r.options))

    # -- (de)serialization for process-pool transfer and the HTTP API ------
    def to_dict(self) -> Dict:
        return {"workload": self.workload, "source": self.source,
                "program_name": self.program_name, "inputs": self.inputs,
                "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Dict) -> "AnalysisRequest":
        return cls(data.get("workload"), source=data.get("source"),
                   program_name=data.get("program_name"),
                   inputs=data.get("inputs"),
                   options=data.get("options"))

    def describe(self) -> str:
        return self.workload or self.program_name or "<source>"

    def __repr__(self):
        return f"AnalysisRequest({self.describe()})"


# -- executing a request ------------------------------------------------------

def execute_request(request: AnalysisRequest) -> Dict:
    """Run the full Explorer pipeline for one request.

    Pure in the sense that matters for caching and batching: output is a
    function of the request content only, and every field is plain JSON.
    """
    from ..obs import get_tracer
    from .faults import apply_request_fault
    apply_request_fault(request.options)
    tracer = get_tracer()
    with tracer.span("execute_request",
                     target=request.describe()) as root:
        r = request.resolved()
        from ..ir import build_program
        from ..runtime.machine import MACHINES
        from ..explorer.session import ExplorerSession

        machine_name = r.options["machine"]
        try:
            machine = MACHINES[machine_name]
        except KeyError:
            raise ValueError(f"unknown machine {machine_name!r}; choose "
                             f"from {sorted(MACHINES)}") from None
        program = build_program(r.source, r.program_name)
        # the job's one static-analysis driver: both branches plan
        # through it, against the same per-procedure store entries
        from ..analysis.incremental import IncrementalAnalyzer
        analyzer = IncrementalAnalyzer(program, r.source, options=r.options)

        if r.options.get("analysis_only"):
            # Static pipeline only, served from the per-procedure
            # incremental cache: no execution, profiling, dyndep, or
            # Guru ranking — the interactive edit/re-analyze fast path.
            slice_names = r.options.get("slice") or ()
            if "targets" in slice_names:
                raise ValueError("slice 'targets' needs Guru ranking; "
                                 "drop analysis_only or name the loops")
            artifact = analyzer.analysis_artifact(slice_names=slice_names)
            artifact["request"] = {"program": r.program_name,
                                   "workload": request.workload,
                                   "inputs": r.inputs,
                                   "options": semantic_options(r.options),
                                   "schema": SCHEMA_VERSION}
            root.tag(analysis_only=True,
                     procedures=len(program.procedures))
            return artifact

        max_ops = min(int(r.options.get("max_ops", MAX_OPS_CAP)),
                      MAX_OPS_CAP)
        session = ExplorerSession(
            program, inputs=r.inputs, machine=machine, max_ops=max_ops,
            engine=r.options["engine"], analyzer=analyzer)
        session.run_automatic()

        outcomes = []
        if r.options.get("assertions") and request.workload is not None:
            from ..workloads import get
            w = get(request.workload)
            if w.user_assertions:
                checked, _result = session.apply_assertions(
                    w.user_assertions)
                outcomes = [{"assertion": str(o.assertion),
                             "accepted": o.accepted,
                             "warnings": list(o.warnings),
                             "errors": list(o.errors)} for o in checked]

        slice_names = list(r.options.get("slice") or ())
        if "targets" in slice_names:
            slice_names.remove("targets")
            targets = [rep.name for rep
                       in session.guru.targets()[:MAX_SLICE_TARGETS]]
            slice_names.extend(n for n in targets if n not in slice_names)
        with tracer.span("snapshot"):
            artifact = session_snapshot(session, slice_targets=slice_names)
        # Record semantic options only: the artifact must be bit-identical
        # to its clean twin's (they share a content key), so a transient
        # chaos directive must not leak into the cached payload.
        artifact["request"] = {"program": r.program_name,
                               "workload": request.workload,
                               "inputs": r.inputs,
                               "options": semantic_options(r.options),
                               "schema": SCHEMA_VERSION}
        if outcomes:
            artifact["assertion_outcomes"] = outcomes
        root.tag(ops=session.profiler.total_ops,
                 engine=r.options["engine"],
                 profile_engine=session.engine_labels.get("profile"),
                 dyndep_engine=session.engine_labels.get("dyndep"),
                 simexec_engine=session.engine_labels.get("parallel_exec"))
    return artifact


def session_snapshot(session,
                     slice_targets: Optional[Sequence[str]] = None) -> Dict:
    """Flatten a finished :class:`ExplorerSession` into plain JSON dicts:
    plan, profiles, dyndep summary, Guru report, and the simulated
    parallel-execution result.

    Slicing is demand-driven: ``slices`` holds per-variable slice sizes
    only for the loops named in ``slice_targets`` (the service ``slice``
    option / :meth:`ExplorerSession.slice_at`), not precomputed for
    every Guru target."""
    program = session.program
    names = {loop.stmt_id: loop.name for loop in program.all_loops()}

    plan: Dict[str, Dict] = {}
    for loop in program.all_loops():
        lp = session.plan.loops.get(loop.stmt_id)
        if lp is None:
            continue
        plan[loop.name] = {
            "parallel": lp.parallel,
            "contains_io": lp.contains_io,
            "blockers": sorted(lp.blockers),
            "vars": {vp.display_name: {"status": vp.status,
                                       "reason": vp.reason or ""}
                     for vp in lp.vars.values()},
        }

    profiles = {}
    for prof in session.profiler.executed_loops():
        profiles[prof.name] = {"total_ops": prof.total_ops,
                               "invocations": prof.invocations,
                               "iterations": prof.iterations}

    dyndep = {
        "carried": {names.get(lid, str(lid)): count
                    for lid, count in session.dyndep.carried.items()},
        "witnesses": {names.get(lid, str(lid)): sorted(pairs)
                      for lid, pairs in session.dyndep.witnesses.items()},
    }

    guru_rows = {}
    for report in session.guru.all_reports():
        guru_rows[report.name] = {
            "parallel": report.parallel,
            "executed": report.executed,
            "important": report.important,
            "under_parallel": report.under_parallel,
            "interprocedural": report.interprocedural,
            "coverage": report.coverage,
            "granularity_ms": report.granularity_ms,
            "dynamic_deps": report.dynamic_deps,
            "static_deps": report.static_deps,
        }

    slices: Dict[str, Dict] = {}
    for name in slice_targets or ():
        per_var: Dict[str, Dict] = {}
        for ds in session.slice_at(name):
            per_var[ds.var.display_name] = {
                "program": ds.program_slice.line_count(),
                "control": ds.control_slice.line_count(),
                "program_cr": ds.program_slice_cr.line_count(),
                "control_cr": ds.control_slice_cr.line_count(),
                "program_ar": ds.program_slice_ar.line_count(),
                "control_ar": ds.control_slice_ar.line_count(),
            }
        slices[name] = per_var

    result = session.result
    return {
        "program": {"name": program.name,
                    "lines": program.total_lines(),
                    "loops": len(program.all_loops()),
                    "procedures": sorted(program.procedures)},
        "plan": plan,
        "profiles": profiles,
        "total_ops": session.profiler.total_ops,
        "dyndep": dyndep,
        "guru": {"rows": guru_rows,
                 "targets": [r.name for r in session.guru.targets()],
                 "strategy": session.guru.strategy_lines()},
        "slices": slices,
        "metrics": {"coverage": session.coverage(),
                    "granularity_ms": session.granularity_ms()},
        "execution": {"speedup": result.speedup,
                      "coverage": result.coverage,
                      "granularity_ms": result.granularity_ms(),
                      "seq_ops": result.seq_ops,
                      "par_ops": result.par_ops,
                      "processors": result.machine.processors,
                      "machine": result.machine.name,
                      "outputs": [float(v) for v in result.outputs]},
        "summary": session.summary_lines(),
    }


# -- the job record -----------------------------------------------------------

_job_counter = itertools.count(1)


class Job:
    """One request moving through the scheduler lifecycle."""

    __slots__ = ("id", "request", "key", "state", "error", "attempts",
                 "created_at", "started_at", "finished_at", "cached",
                 "started_mono", "finished_mono",
                 "done_event", "deadline_s", "deadline_at", "generation",
                 "failure_kind", "shard", "events", "_events_lock")

    def __init__(self, request: AnalysisRequest, key: str,
                 deadline_s: Optional[float] = None):
        self.id = f"job-{next(_job_counter):06d}"
        self.request = request
        self.key = key
        self.state = SUBMITTED
        #: Ordinal of the scheduler shard this job was routed to.
        self.shard: Optional[int] = None
        #: Seq-numbered lifecycle events for the streaming API.  Guarded
        #: by ``_events_lock`` — HTTP/SSE threads read while scheduler
        #: threads append.
        self.events: List[Dict] = []
        self._events_lock = threading.Lock()
        self.error: Optional[str] = None
        self.attempts = 0
        #: Wall-clock timestamps, for display only (an NTP step moves
        #: them).  Durations come from the ``*_mono`` monotonic pair.
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.started_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None
        self.cached = False          # served straight from the store
        self.done_event = threading.Event()
        #: Wall-budget for this job (None = no deadline).  The watchdog
        #: compares against ``deadline_at``, a *monotonic* instant set
        #: when the job first starts running — NTP steps can't shrink or
        #: stretch a job's allowance.
        self.deadline_s = deadline_s
        self.deadline_at: Optional[float] = None
        #: Pool generation the job was last dispatched on (crash
        #: forensics / single-flight rebuild bookkeeping).
        self.generation: Optional[int] = None
        #: Failure taxonomy bucket ("error", "crash", "deadline",
        #: "budget", "transient", "shutdown"); None until failed.
        self.failure_kind: Optional[str] = None
        self._event("submitted", at=self.created_at)

    # -- progress events ----------------------------------------------------
    def _event(self, name: str, at: Optional[float] = None,
               **extra) -> None:
        # Transitions that already read the wall clock pass it in, so an
        # event's timestamp always equals its transition's timestamp.
        if at is None:
            at = time.time()
        with self._events_lock:
            entry = {"seq": len(self.events) + 1, "event": name,
                     "at": at}
            entry.update(extra)
            self.events.append(entry)

    def events_after(self, seq: int = 0) -> List[Dict]:
        """Events with a sequence number greater than ``seq``.  Terminal
        transitions append their event *before* flipping ``state``, so a
        reader that observes ``finished`` is guaranteed to collect the
        terminal event on its final call."""
        with self._events_lock:
            return [dict(e) for e in self.events if e["seq"] > seq]

    # -- transitions (scheduler holds its lock around these) ----------------
    def mark_queued(self) -> None:
        self._event("queued")
        self.state = QUEUED

    def mark_running(self) -> None:
        self.attempts += 1
        if self.started_at is None:
            self.started_at = time.time()
            self.started_mono = time.monotonic()
        if self.deadline_s is not None and self.deadline_at is None:
            self.deadline_at = time.monotonic() + self.deadline_s
        self._event("running", at=self.started_at,
                    attempt=self.attempts)
        self.state = RUNNING

    def mark_done(self, *, cached: bool = False) -> None:
        # Order matters for lock-free readers (HTTP threads poll
        # ``state`` without the scheduler lock): timestamps and the
        # terminal event must be in place before ``state`` says "done",
        # so state=="done" implies finished_at is set and the terminal
        # event is visible.
        self.cached = cached
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self._event("done", at=self.finished_at, cached=cached)
        self.state = DONE
        self.done_event.set()

    def mark_failed(self, error: str, kind: str = "error") -> None:
        self.error = error
        self.failure_kind = kind
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self._event("failed", at=self.finished_at, error=error,
                    kind=kind)
        self.state = FAILED
        self.done_event.set()

    # -- queries -----------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def duration_s(self) -> Optional[float]:
        """Run duration from the monotonic clock — immune to wall-clock
        (NTP) steps that would make ``finished_at - started_at`` negative
        or inflated.  None until the job has both started and finished."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done_event.wait(timeout)

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "target": self.request.describe(),
            "key": self.key,
            "state": self.state,
            "error": self.error,
            "attempts": self.attempts,
            "cached": self.cached,
            "shard": self.shard,
            "deadline_s": self.deadline_s,
            "failure_kind": self.failure_kind,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
        }

    def __repr__(self):
        return f"Job({self.id} {self.request.describe()} {self.state})"
