"""Incremental per-procedure analysis over the content-addressed store.

The paper's Explorer is *interactive*: the programmer edits one procedure
and expects sub-second re-analysis.  Whole-job caching (PR 2) cannot give
that — any source edit changes the job key and the entire
parse→IR→summaries→liveness pipeline re-runs.  This module splits the
content address to per-procedure granularity:

* **IR facts** are keyed by ``sha256(procedure source segment)`` alone —
  pure functions of one procedure's text.
* **Plan rows** (parallelization verdicts per loop: liveness-driven
  privatization, reduction recognition, dependence blockers) are keyed by
  the procedure's *dependency cone* in the call graph: the source hashes
  of every procedure whose text can influence the result, plus the
  layout signatures of every COMMON block visible from the cone.
* **Slices** are keyed by the *down*-cone only (a demand slice from a
  use point never crosses upward past an exposed formal — formals are
  terminals, resolved only downward at call sites).

The cone of ``p`` is ``down(p) ∪ after(p)``: ``down`` is the transitive
callees (the bottom-up summary inputs), ``after`` the continuation
closure — every procedure that may execute after some call to ``p``
returns, because the top-down liveness phase (chapter 5) flows
*backwards* from program end into ``p``.  Editing a procedure therefore
invalidates exactly the cones it belongs to; everything else is a cache
hit, announced via ``incr.reuse`` events while recomputation is wrapped
in ``incr.cone`` spans (the cache-invalidation matrix test counts both).

Cones are evaluated bottom-up over call-graph SCCs (singletons here —
the IR rejects recursion — but the order generalizes), following
Chatterjee et al.'s on-demand data-flow split, and determinism is
preserved because every cached artifact is a pure function of its key
— a warm re-analysis is bit-identical to a cold one
(``tests/test_incremental.py`` proves this corpus-wide).

:class:`IncrementalAnalyzer` is the one static-analysis driver of a
job: it owns the job's single lazy ``Parallelizer``, built from the
same normalised options its keys hash, and it is the only writer of the
``proc/`` store — ``analysis_only`` jobs (:meth:`~IncrementalAnalyzer.
plan_rows`) and full jobs (:meth:`~IncrementalAnalyzer.plan`) fill and
read the same entries through the same code.

Cached plan rows are keyed by loop *ordinal* within the procedure, never
by loop name: unlabeled loop names embed absolute line numbers
(``proc/L42``), which shift when an *earlier* procedure is edited — the
rows themselves are line-free and the names are reattached from the
freshly built program on every hit.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..ir.callgraph import CallGraph
from ..ir.program import Program
from ..ir.statements import Block, CallStmt, LoopStmt, Statement
from ..poly import fm_counters
from .liveness import FULL

__all__ = [
    "PROC_SCHEMA_VERSION", "ConeIndex", "IncrementalAnalyzer",
    "IncrementalKeys", "common_signatures", "proc_cache_stats",
    "proc_source_segments", "reset_proc_cache_stats", "set_proc_store",
    "get_proc_store", "store_plan_rows",
]

#: Bumped whenever the per-procedure payload layout or key recipe
#: changes — stale ``proc/`` entries then miss instead of being misread.
#: Independent of the whole-job ``artifacts.SCHEMA_VERSION``.
#: v2: v1 full jobs could store default-option rows under a
#: non-default option key.
PROC_SCHEMA_VERSION = 2

_lock = threading.Lock()
_proc_store = None
_counters = {"hit": 0, "miss": 0}


def set_proc_store(store) -> None:
    """Install the shared persistent per-procedure cache (an
    :class:`~repro.service.artifacts.ArtifactStore`, conventionally
    rooted at ``<store root>/proc``).  Pass ``None`` to disable."""
    global _proc_store
    with _lock:
        _proc_store = store


def get_proc_store():
    with _lock:
        return _proc_store


def proc_cache_stats() -> Dict[str, int]:
    """Monotonic counters: ``hit`` (cone result reused) and ``miss``
    (cone recomputed) — mirrored into the service metrics as
    ``proc_cache_hit`` / ``proc_cache_miss``."""
    with _lock:
        return dict(_counters)


def reset_proc_cache_stats() -> None:
    with _lock:
        _counters["hit"] = 0
        _counters["miss"] = 0


def _count(what: str) -> None:
    with _lock:
        _counters[what] += 1


# -- content hashing ----------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def proc_source_segments(source: str, program: Program) -> Dict[str, str]:
    """Split the source text into one segment per procedure unit.

    Segment boundaries are the unit header lines recorded by the parser
    (``proc.source_lines.start``); each segment runs to the line before
    the next unit (the last to EOF), so comments and blank lines between
    units attach to the preceding procedure.  Editing any line of a
    segment — including a comment — changes that procedure's hash and
    nothing else's."""
    lines = source.splitlines()
    procs = sorted(program.procedures.values(),
                   key=lambda p: p.source_lines.start)
    segments: Dict[str, str] = {}
    for i, proc in enumerate(procs):
        start = 1 if i == 0 else proc.source_lines.start
        end = (procs[i + 1].source_lines.start - 1
               if i + 1 < len(procs) else len(lines))
        segments[proc.name] = "\n".join(lines[start - 1:end])
    return segments


def common_signatures(program: Program) -> Dict[str, str]:
    """Per-COMMON-block layout signature: total size plus every
    procedure's declared view (member name/offset/size).  Program-wide,
    not per-cone-member, because the parallelizer's member-group
    refinement unions *all* views of a block."""
    from ..service.artifacts import canonical_json
    out: Dict[str, str] = {}
    for name, block in program.commons.items():
        views = []
        for proc_name in sorted(block.views):
            view = block.views[proc_name]
            views.append([proc_name,
                          [[s.name, s.common_offset, s.constant_size() or 0]
                           for s in view.symbols]])
        out[name] = _sha(canonical_json({"size": block.size,
                                         "views": views}))
    return out


# -- dependency cones ---------------------------------------------------------

class ConeIndex:
    """Call-graph dependency cones, memoized per procedure.

    ``down(p)`` — p plus its transitive callees: everything the
    bottom-up summary of p reads.  ``after(p)`` — the continuation
    closure: for each site calling p, the caller plus the down-cones of
    every call that may execute after the site returns (block suffixes
    through enclosing IFs; *all* calls of an enclosing loop body, since
    the next iteration re-runs them), plus, recursively, whatever runs
    after the caller itself.  The top-down liveness phase reads exactly
    this set, so ``cone(p) = down(p) ∪ after(p)`` bounds every input of
    p's plan rows."""

    def __init__(self, program: Program,
                 callgraph: Optional[CallGraph] = None):
        self.program = program
        self.callgraph = callgraph or CallGraph(program)
        self._down: Dict[str, Tuple[str, ...]] = {}
        self._after: Dict[str, FrozenSet[str]] = {}

    def down(self, name: str) -> Tuple[str, ...]:
        got = self._down.get(name)
        if got is None:
            seen: Set[str] = set()

            def visit(n: str) -> None:
                if n in seen:
                    return
                seen.add(n)
                for c in sorted(self.callgraph.callees.get(n, ())):
                    visit(c)

            visit(name)
            got = tuple(sorted(seen))
            self._down[name] = got
        return got

    def after(self, name: str) -> FrozenSet[str]:
        got = self._after.get(name)
        if got is not None:
            return got
        out: Set[str] = set()
        for call in self.callgraph.sites_calling(name):
            caller = call.proc_name
            out.add(caller)
            for q in self._continuation_callees(call):
                out.update(self.down(q))
            out.update(self.after(caller))
        got = frozenset(out)
        self._after[name] = got
        return got

    def cone(self, name: str) -> Tuple[str, ...]:
        return tuple(sorted(set(self.down(name)) | self.after(name)))

    def scc_bottom_up(self) -> List[Tuple[str, ...]]:
        """Call-graph SCCs in bottom-up (callees-first) evaluation order.

        The IR rejects recursion, so every component is a singleton, but
        the incremental driver iterates components so the order stays
        correct if cycles are ever admitted.  Tarjan emits SCCs in
        reverse topological order of the condensation — exactly
        bottom-up for a callee edge relation."""
        callees = self.callgraph.callees
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        out: List[Tuple[str, ...]] = []

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(callees.get(v, ())):
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(tuple(sorted(comp)))

        for name in self.program.procedures:
            if name not in index:
                strongconnect(name)
        return out

    # -- continuation geometry ---------------------------------------------
    def _continuation_callees(self, call: CallStmt) -> Set[str]:
        """Callees of every statement that may execute *after* ``call``
        within its own procedure: the suffix of each enclosing block
        (composed through IF arms), and the whole body of any enclosing
        loop — its next iteration re-runs statements lexically before
        the call site."""
        trailing: List[Statement] = []
        proc = self.program.procedures[call.proc_name]
        self._collect_after(proc.body, call, trailing)
        out: Set[str] = set()
        for stmt in trailing:
            for sub in stmt.walk():
                if isinstance(sub, CallStmt):
                    out.add(sub.callee)
        return out

    def _collect_after(self, block: Block, target: Statement,
                       out: List[Statement]) -> bool:
        for i, stmt in enumerate(block.statements):
            if stmt is target or _contains(stmt, target):
                if stmt is not target:
                    if isinstance(stmt, LoopStmt):
                        # loop re-entry: every statement of the body may
                        # run again after the call returns
                        out.extend(stmt.body.statements)
                    else:
                        for child in stmt.children_blocks():
                            if self._collect_after(child, target, out):
                                break
                out.extend(block.statements[i + 1:])
                return True
        return False


def _contains(stmt: Statement, target: Statement) -> bool:
    return any(s is target for s in stmt.walk())


# -- cache keys ---------------------------------------------------------------

class IncrementalKeys:
    """Derives every ``proc/`` cache key for one (program, source,
    options) triple.  Keys are content addresses: schema version, kind,
    the procedure's cone source hashes, the COMMON signatures visible
    from the cone, and the analysis-semantic options."""

    def __init__(self, program: Program, source: str,
                 options: Optional[Dict] = None):
        self.program = program
        self.source = source
        self.hashes = {name: _sha(seg) for name, seg
                       in proc_source_segments(source, program).items()}
        self.commons = common_signatures(program)
        self.cones = ConeIndex(program)
        opts = options or {}
        #: The analysis-semantic options, normalised — what the keys hash
        #: and what the analyzer's parallelizer is built from.  Everything
        #: else (engine, machine, inputs, max_ops) is execution-side and
        #: must not fragment the per-procedure cache.
        self.options = {
            "use_liveness": bool(opts.get("use_liveness", True)),
            "liveness_variant": str(opts.get("liveness_variant", FULL)),
            "use_reductions": bool(opts.get("use_reductions", True)),
        }

    def _key(self, payload: Dict) -> str:
        from ..service.artifacts import canonical_json
        payload = dict(payload)
        payload["schema"] = PROC_SCHEMA_VERSION
        return _sha(canonical_json(payload))

    def _commons_for(self, procs: Iterable[str]) -> Dict[str, str]:
        blocks: Set[str] = set()
        for name in procs:
            blocks.update(self.program.procedures[name].common_blocks)
        return {b: self.commons[b] for b in sorted(blocks)
                if b in self.commons}

    def ir_key(self, name: str) -> str:
        """Keyed by the procedure's own source hash alone."""
        return self._key({"kind": "ir", "proc": name,
                          "source": self.hashes[name]})

    def plan_key(self, name: str) -> str:
        """Keyed by the full dependency cone plus COMMON signatures."""
        cone = self.cones.cone(name)
        return self._key({
            "kind": "plan", "proc": name,
            "cone": {q: self.hashes[q] for q in cone},
            "commons": self._commons_for(cone),
            "options": self.options,
        })

    def slice_key(self, name: str, ordinal: int,
                  var: Optional[str]) -> str:
        """Keyed by the *down*-cone only: a no-context slice from a use
        inside ``name`` never crosses upward past an exposed formal."""
        down = self.cones.down(name)
        return self._key({
            "kind": "slice", "proc": name, "loop": ordinal,
            "var": var or "",
            "cone": {q: self.hashes[q] for q in down},
            "commons": self._commons_for(down),
            "options": self.options,
        })

    def summary_key(self, name: str) -> str:
        """Keyed by the *down*-cone: a ⟨R,E,W,M⟩ access summary composes
        only callee summaries (bottom-up phase), never continuations.
        Deliberately option-free — the dataflow always computes the same
        summary; options only change what the planner does with it."""
        down = self.cones.down(name)
        return self._key({
            "kind": "summary", "proc": name,
            "cone": {q: self.hashes[q] for q in down},
            "commons": self._commons_for(down),
        })

    def summary_hash_key(self, name: str) -> str:
        """A tiny side entry mapping the same down-cone address to the
        canonical summary *content hash*, so value-level plan probes
        never deserialize whole summaries."""
        down = self.cones.down(name)
        return self._key({
            "kind": "summary.hash", "proc": name,
            "cone": {q: self.hashes[q] for q in down},
            "commons": self._commons_for(down),
        })

    def after_key(self, name: str) -> str:
        """Key for the cached after-proc summary (S_{r0,proc}: accesses
        from any return of ``name`` to program end, in ``name``'s
        coordinates).  Its value is a function of the continuation
        closure's *bodies* (callers' call sites and suffixes, plus their
        transitive context), the COMMON layout, and — because
        ``_map_to_callee`` rebases into callee coordinates — the callee's
        declared interface, but *not* the callee's executable body."""
        proc = self.program.procedures[name]
        after = self.cones.after(name)
        return self._key({
            "kind": "after", "proc": name,
            "interface": _interface_signature(proc),
            "after": {q: self.hashes[q] for q in sorted(after)},
            "commons": self._commons_for(set(after) | {name}),
        })


# -- plan-row (de)hydration -----------------------------------------------------

def _plan_row(lp) -> Dict:
    """One loop's verdicts as plain JSON — the exact shape of the
    ``plan`` section of :func:`repro.service.jobs.session_snapshot`, and
    deliberately free of loop names and line numbers (both shift under
    edits to earlier procedures)."""
    return {
        "parallel": lp.parallel,
        "contains_io": lp.contains_io,
        "blockers": sorted(lp.blockers),
        "vars": {vp.display_name: {"status": vp.status,
                                   "reason": vp.reason or ""}
                 for vp in lp.vars.values()},
    }


def _proc_facts(proc) -> Dict:
    """Per-procedure IR facts — functions of the procedure text only
    (``lines`` is a length, not an absolute position)."""
    return {
        "kind": proc.kind,
        "lines": proc.line_count(),
        "loops": len(proc.loops()),
        "formals": [f.name for f in proc.formals],
        "calls": sorted({c.callee for c in proc.call_sites()}),
        "commons": sorted(proc.common_blocks),
    }


# -- summary (de)hydration -----------------------------------------------------
#
# ⟨R,E,W,M⟩ summaries serialize cleanly: LocKeys are tuples of plain
# strings, sections are nested tuples of affine constraints over string
# terms, and coefficients are Fractions.  The one impurity is opaque
# symbolic tags: ``TagRegistry.fresh`` draws names from a process-global
# counter, so raw ``tg:N`` names are session-dependent and could alias a
# *different* fresh ``tg:N`` when a cached summary is loaded later.  The
# serializer therefore renames every tag to a canonical per-summary name
# (``tg:s:<proc>:<ordinal>``, first-appearance order) — still a tag to
# ``TagRegistry.is_tag``, never emitted by ``fresh``, and stable across
# sessions.  Loaded tags need no registry entry: a flat summary is only
# ever consumed at a call site, where ``_TermSubstitution`` rebinds every
# unresolved term to a fresh caller tag anyway (exactly what happens to
# freshly-walked callee summaries, so decisions are unchanged).

def _summary_tag_map(summary, proc_name: str) -> Dict[str, str]:
    ren: Dict[str, str] = {}

    def see_section(sec) -> None:
        for system in sec.systems:
            for c in system.constraints:
                for term in c.expr.coeffs:      # insertion order
                    if term.startswith("tg:") and term not in ren:
                        ren[term] = f"tg:s:{proc_name}:{len(ren)}"

    for key in sorted(summary.vars):
        vs = summary.vars[key]
        for sec in (vs.read, vs.exposed, vs.may_write, vs.must_write):
            see_section(sec)
        for op in sorted(vs.reductions):
            see_section(vs.reductions[op])
    return ren


def _section_to_json(sec, ren: Dict[str, str]) -> List:
    out = []
    for system in sec.systems:
        rows = []
        for c in system.constraints:
            coeffs = sorted([ren.get(v, v), str(f)]
                            for v, f in c.expr.coeffs.items())
            rows.append([coeffs, str(c.expr.const),
                         1 if c.is_equality else 0])
        out.append(rows)
    return out


#: coefficient text -> Fraction; a loaded summary repeats a few values
_fraction = functools.lru_cache(maxsize=4096)(Fraction)


def _section_from_json(data: List):
    from ..poly import Constraint, LinExpr, Section, System
    systems = []
    for rows in data:
        constraints = [
            Constraint(LinExpr({v: _fraction(f) for v, f in coeffs},
                               _fraction(const)), bool(eq))
            for coeffs, const, eq in rows]
        systems.append(System(constraints))
    return Section(systems)


def summary_to_json(summary, proc_name: str) -> List:
    """An :class:`AccessSummary` as canonical, session-independent JSON."""
    ren = _summary_tag_map(summary, proc_name)
    out = []
    for key in sorted(summary.vars):
        vs = summary.vars[key]
        out.append([list(key), {
            "r": _section_to_json(vs.read, ren),
            "e": _section_to_json(vs.exposed, ren),
            "w": _section_to_json(vs.may_write, ren),
            "m": _section_to_json(vs.must_write, ren),
            "red": [[op, _section_to_json(vs.reductions[op], ren)]
                    for op in sorted(vs.reductions)],
            "n": sorted(vs.names),
        }])
    return out


def _interface_signature(proc) -> str:
    """Hash of a procedure's declared interface: formal names, types, and
    dimension expressions, plus its COMMON member views.  Everything
    :meth:`ArrayLiveness._map_to_callee` reads on the callee side."""
    def dims(sym):
        return [[repr(d.low), repr(d.high)] for d in sym.dims]
    payload = {
        "formals": [[f.name, f.type, dims(f)] for f in proc.formals],
        "commons": sorted([s.name, s.common_block, s.common_offset,
                           s.type, dims(s)]
                          for s in proc.symbols if s.is_common),
    }
    return _sha(_canonical(payload))


def _canonical(payload) -> str:
    from ..service.artifacts import canonical_json
    return canonical_json(payload)


def summary_from_json(data: List):
    from .summaries import AccessSummary, VarSummary
    vars_: Dict[Tuple, object] = {}
    for key_list, d in data:
        vars_[tuple(key_list)] = VarSummary(
            read=_section_from_json(d["r"]),
            exposed=_section_from_json(d["e"]),
            may_write=_section_from_json(d["w"]),
            must_write=_section_from_json(d["m"]),
            reductions={op: _section_from_json(sec)
                        for op, sec in d["red"]},
            names=set(d["n"]))
    return AccessSummary(vars_)


# -- the analyzer -------------------------------------------------------------

class IncrementalAnalyzer:
    """The one static-analysis driver of a job: demand-driven analysis
    with per-procedure cone caching.

    Owns the job's single *lazy*
    :class:`~repro.parallelize.parallelizer.Parallelizer` — built from
    the same normalised options the cache keys hash, so what is planned
    and what it is stored under cannot disagree — and is the only code
    that reads or writes the ``proc/`` store.  A cache miss on one
    procedure pulls in exactly that procedure's cone; plan-row and slice
    queries are answered from the store whenever the cone is unchanged,
    and :meth:`plan` hands a full session its ``ProgramPlan`` while
    writing the same entries through."""

    def __init__(self, program: Program, source: str, *,
                 options: Optional[Dict] = None, store=None):
        self.program = program
        if store is None and not program.transformed:
            # a transformed program no longer is what its text says, so
            # it never touches the shared, text-keyed store
            store = get_proc_store()
        #: Whether ``store`` outlives this analyzer.  Without one the
        #: analysis is still demand-driven, but nothing is serialised:
        #: the summary / after-context hooks stay off and :meth:`plan`
        #: writes no rows.
        self._shared = store is not None
        if store is None:
            from ..service.artifacts import ArtifactStore
            store = ArtifactStore(None)
        self.store = store
        self.keys = IncrementalKeys(program, source, options)
        self._parallelizer = None
        self._proc_plans: Dict[str, Dict] = {}
        self._slicer = None
        self._summary_hashes: Dict[str, str] = {}
        self._value_keys: Dict[str, str] = {}

    # -- lazy analysis plumbing ---------------------------------------------
    def _new_parallelizer(self, assertions=()):
        """The one place a job constructs a ``Parallelizer``.  Assertions
        mutate the planning inputs, so an asserted parallelizer analyses
        fresh: it neither reads nor feeds the shared caches."""
        from ..parallelize.parallelizer import Parallelizer
        o = self.keys.options
        par = Parallelizer(self.program,
                           use_reductions=o["use_reductions"],
                           use_liveness=o["use_liveness"],
                           liveness_variant=o["liveness_variant"],
                           assertions=assertions, lazy=True)
        if self._shared and not assertions:
            # loaders must be in place before anything forces a walk.
            # summary cache: procedures that only participate as callees
            # load flat ⟨R,E,W,M⟩ summaries instead of re-walking their
            # bodies — the dominant cost of a warm-edit re-analysis
            par.dataflow.summary_loader = self._load_summary
            par.dataflow.summary_saver = self._save_summary
            # after-proc cache: liveness context without re-walking the
            # caller chain (only meaningful for the FULL variant)
            full = par._full_liveness_analysis
            full.after_loader = self._load_after
            full.after_saver = self._save_after
        return par

    def _lazy_parallelizer(self):
        if self._parallelizer is None:
            self._parallelizer = self._new_parallelizer()
        return self._parallelizer

    def _load_summary(self, name: str):
        from ..obs import get_tracer
        cached = self.store.get(self.keys.summary_key(name))
        if cached is None:
            _count("miss")
            return None
        _count("hit")
        get_tracer().event("incr.reuse", proc=name, kind="summary")
        return summary_from_json(cached["summary"])

    def _save_summary(self, name: str, summary) -> None:
        key = self.keys.summary_key(name)
        if key not in self.store:
            data = summary_to_json(summary, name)
            self.store.put(key, {"summary": data})
            h = _sha(_canonical(data))
            self.store.put(self.keys.summary_hash_key(name), {"hash": h})
            self._summary_hashes[name] = h

    def _load_after(self, name: str):
        from ..obs import get_tracer
        cached = self.store.get(self.keys.after_key(name))
        if cached is None:
            _count("miss")
            return None
        _count("hit")
        get_tracer().event("incr.reuse", proc=name, kind="after")
        return summary_from_json(cached["after"])

    def _save_after(self, name: str, summary) -> None:
        key = self.keys.after_key(name)
        if key not in self.store:
            self.store.put(key, {"after": summary_to_json(summary, name)})

    # -- value-level plan keys ------------------------------------------------
    def _summary_value_hash(self, name: str) -> str:
        """Content hash of a procedure's canonical ⟨R,E,W,M⟩ summary.
        Served from the tiny ``summary.hash`` side entry when the
        down-cone is unchanged; otherwise the summary itself is loaded
        or walked and the side entry refilled."""
        got = self._summary_hashes.get(name)
        if got is None:
            hkey = self.keys.summary_hash_key(name)
            cached = self.store.get(hkey)
            if cached is not None:
                got = cached["hash"]
            else:
                summary = self._lazy_parallelizer().dataflow.summary_of(name)
                # the walk's saver may have hashed it already
                got = self._summary_hashes.get(name) or \
                    _sha(_canonical(summary_to_json(summary, name)))
                if hkey not in self.store:
                    self.store.put(hkey, {"hash": got})
            self._summary_hashes[name] = got
        return got

    def plan_value_key(self, name: str) -> str:
        """Second-level plan key: a *semantic* firewall.  The source-cone
        key (:meth:`IncrementalKeys.plan_key`) is conservative — any byte
        change in the cone misses.  But plan rows are a function of the
        procedure's own body, the summary *values* of its callees, the
        bodies of its continuation closure (the liveness context), and
        the COMMON layout — so an edit that leaves every callee summary
        bit-identical (a comment, a reordered declaration, a change to
        dead code) re-anchors the cached rows instead of re-planning.
        Probing this key forces the down-cone's summaries, which is far
        cheaper than the dependence tests planning would re-run."""
        got = self._value_keys.get(name)
        if got is None:
            keys = self.keys
            got = keys._key({
                "kind": "plan.v", "proc": name,
                "source": keys.hashes[name],
                "deps": {q: self._summary_value_hash(q)
                         for q in keys.cones.down(name) if q != name},
                "after": {q: keys.hashes[q]
                          for q in sorted(keys.cones.after(name))},
                "commons": keys._commons_for(keys.cones.cone(name)),
                "options": keys.options,
            })
            self._value_keys[name] = got
        return got

    def _loop_plans(self, name: str) -> Dict:
        """stmt_id -> LoopPlan for one procedure (memoized)."""
        got = self._proc_plans.get(name)
        if got is None:
            plan = self._lazy_parallelizer().plan_for([name])
            got = dict(plan.loops)
            self._proc_plans[name] = got
        return got

    # -- plan rows -----------------------------------------------------------
    def _bottom_up(self) -> List[str]:
        return [n for comp in self.keys.cones.scc_bottom_up() for n in comp]

    def plan_rows(self) -> Dict[str, List]:
        """Per-procedure plan rows (loop-ordinal order), served from the
        cone cache; misses are recomputed bottom-up over call-graph
        SCCs."""
        from ..obs import get_tracer
        tracer = get_tracer()
        rows: Dict[str, List] = {}
        missed: List[str] = []
        for name in self._bottom_up():
            key = self.keys.plan_key(name)
            cached = self.store.get(key)
            if cached is not None:
                _count("hit")
                tracer.event("incr.reuse", proc=name, kind="plan",
                             level="source")
                rows[name] = cached["rows"]
                continue
            # source-cone miss: probe the semantic (value-keyed) level
            # before paying for re-planning
            cached = self.store.get(self.plan_value_key(name))
            if cached is not None:
                _count("hit")
                tracer.event("incr.reuse", proc=name, kind="plan",
                             level="value")
                rows[name] = cached["rows"]
                # re-anchor under the new source-cone key so the next
                # run hits at the first level
                self.store.put(key, {"rows": cached["rows"]})
                continue
            _count("miss")
            missed.append(name)
        for name in missed:
            rows[name] = self._plan_proc(name)
            self._store_rows(name, rows[name])
        return rows

    def _plan_proc(self, name: str) -> List:
        """Plan one procedure's loops under an ``incr.cone`` span and
        return their rows."""
        from ..obs import get_tracer
        cone = self.keys.cones.cone(name)
        fm_before = fm_counters()
        with get_tracer().span("incr.cone", proc=name, kind="plan") as sp:
            plans = self._loop_plans(name)
            proc = self.program.procedures[name]
            rows = [_plan_row(plans[loop.stmt_id])
                    for loop in proc.loops()]
            sp.tag(cone=len(cone), loops=len(rows),
                   **fm_counters(fm_before))
        return rows

    def _store_rows(self, name: str, rows: List) -> None:
        """The one writer of plan rows: under the source-cone key and
        the value-level key."""
        self.store.put(self.keys.plan_key(name), {"rows": rows})
        self.store.put(self.plan_value_key(name), {"rows": rows})

    def plan(self, assertions=(), procs: Optional[Iterable[str]] = None):
        """The :class:`~repro.parallelize.plan.ProgramPlan` a full session
        runs on — every procedure, or just ``procs``.  A session needs
        live ``LoopPlan`` objects, so each procedure is planned (one
        ``incr.cone`` span each, callees first) rather than served from
        cached rows; what a warm store saves it is the after-context
        walks.  The rows, summaries and liveness contexts are written
        through to a shared store by the same code :meth:`plan_rows`
        uses, so a later ``analysis_only`` job — or an edit elsewhere —
        starts hot.  Asserted plans analyse fresh and are never
        written."""
        from ..parallelize.plan import ProgramPlan
        wanted = set(self.program.procedures if procs is None else procs)
        in_order = [n for n in self.program.procedures if n in wanted]
        if assertions:
            return self._new_parallelizer(assertions).plan_for(in_order)
        for name in self._bottom_up():
            if name in wanted:
                rows = self._plan_proc(name)
                if self._shared and \
                        self.keys.plan_key(name) not in self.store:
                    self._store_rows(name, rows)
        result = ProgramPlan(self.program)
        for name in in_order:
            result.loops.update(self._loop_plans(name))
        return result

    # -- IR facts ------------------------------------------------------------
    def proc_facts(self, name: str) -> Dict:
        from ..obs import get_tracer
        key = self.keys.ir_key(name)
        cached = self.store.get(key)
        if cached is not None:
            _count("hit")
            get_tracer().event("incr.reuse", proc=name, kind="ir")
            return cached
        _count("miss")
        facts = _proc_facts(self.program.procedures[name])
        self.store.put(key, facts)
        return facts

    # -- demand slices ---------------------------------------------------------
    def slice_counts(self, query: str) -> Dict[str, Dict]:
        """Demand-driven slice sizes for one query point — a loop name,
        optionally narrowed to one variable as ``"loop@var"``.  Cached
        per (down-cone, loop ordinal, var): slice line *counts* are
        shift-invariant, so edits outside the down-cone reuse the entry."""
        from ..obs import get_tracer
        tracer = get_tracer()
        name, sep, var = query.partition("@")
        var = var if sep else None
        try:
            loop = self.program.loop(name)
        except KeyError:
            raise ValueError(
                f"unknown loop {name!r}; choose from "
                f"{self.program.loop_names()}") from None
        proc = loop.proc_name
        ordinal = [l.stmt_id for l
                   in self.program.procedures[proc].loops()
                   ].index(loop.stmt_id)
        key = self.keys.slice_key(proc, ordinal, var)
        cached = self.store.get(key)
        if cached is not None:
            _count("hit")
            tracer.event("incr.reuse", proc=proc, kind="slice")
            return cached["vars"]
        _count("miss")
        fm_before = fm_counters()
        with tracer.span("incr.cone", proc=proc, kind="slice",
                         query=query) as sp:
            from ..explorer.session import dependence_slices
            if self._slicer is None:
                from ..slicing.slicer import Slicer
                self._slicer = Slicer(self.program)
            loop_plan = self._loop_plans(proc)[loop.stmt_id]
            per_var = {}
            for ds in dependence_slices(self.program, self._slicer, loop,
                                        loop_plan, var=var):
                per_var[ds.var.display_name] = {
                    "program": ds.program_slice.line_count(),
                    "control": ds.control_slice.line_count(),
                    "program_cr": ds.program_slice_cr.line_count(),
                    "control_cr": ds.control_slice_cr.line_count(),
                    "program_ar": ds.program_slice_ar.line_count(),
                    "control_ar": ds.control_slice_ar.line_count(),
                }
            sp.tag(vars=len(per_var), down=len(self.keys.cones.down(proc)),
                   **fm_counters(fm_before))
        self.store.put(key, {"vars": per_var})
        return per_var

    # -- the analysis-only artifact ---------------------------------------------
    def analysis_artifact(self, slice_names: Sequence[str] = ()) -> Dict:
        """The static analysis artifact: program facts, the full plan
        (cached rows reattached to fresh loop names), per-procedure IR
        facts, cone keys, and any requested demand slices.  Bit-identical
        whether served cold (everything recomputed) or warm (everything
        reused) — provenance lives in spans and metrics, never in the
        payload."""
        from ..obs import get_tracer
        program = self.program
        with get_tracer().span("analyze", program=program.name) as sp:
            rows_by_proc = self.plan_rows()
            plan: Dict[str, Dict] = {}
            for proc in program.procedures.values():
                for loop, row in zip(proc.loops(),
                                     rows_by_proc[proc.name]):
                    plan[loop.name] = row
            procs = {name: self.proc_facts(name)
                     for name in program.procedures}
            slices = {q: self.slice_counts(q) for q in slice_names}
            sp.tag(procedures=len(procs), loops=len(plan))
        return {
            "program": {"name": program.name,
                        "lines": program.total_lines(),
                        "loops": len(program.all_loops()),
                        "procedures": sorted(program.procedures)},
            "plan": plan,
            "procs": procs,
            "cones": {name: self.keys.plan_key(name)
                      for name in sorted(program.procedures)},
            "slices": slices,
        }


def store_plan_rows(program: Program, source: str, options: Optional[Dict],
                    plan, dataflow=None, after_summaries=None) -> int:
    """Write-through of an externally computed ``plan`` (jobs themselves
    go through :meth:`IncrementalAnalyzer.plan`): warm the per-procedure
    cache with its rows so a later ``analysis_only`` job (or an edit to
    an unrelated procedure) starts hot.  The run's walked ``dataflow``
    supplies the ⟨R,E,W,M⟩ summaries (and so the content hashes the
    value-level plan keys need) — without it the analyzer derives them
    on demand; ``after_summaries`` (``proc -> AccessSummary``, from the FULL
    liveness pass) warms the after-proc cache.  No-op without a
    registered store; returns the number of procedures stored."""
    if get_proc_store() is None:
        return 0
    analyzer = IncrementalAnalyzer(program, source, options=options)
    if dataflow is not None:
        for name, summary in dataflow.proc_summary.items():
            analyzer._save_summary(name, summary)
    for name, summary in (after_summaries or {}).items():
        analyzer._save_after(name, summary)
    stored = 0
    for proc in program.procedures.values():
        if analyzer.keys.plan_key(proc.name) in analyzer.store:
            continue
        loop_plans = [plan.loops.get(loop.stmt_id) for loop in proc.loops()]
        if None in loop_plans:
            return stored          # partial plan: don't cache half-truths
        analyzer._store_rows(proc.name, [_plan_row(lp) for lp in loop_plans])
        stored += 1
    return stored
