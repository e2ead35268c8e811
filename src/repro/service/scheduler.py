"""The job scheduler: one content-key router over N >= 1 pool shards.

Astrée-style observation (Monniaux, cs/0701191): static-analysis
pipelines fan out cleanly across workers when each unit of work is a
pure function of its inputs and results merge deterministically.  Each
:class:`~repro.service.jobs.AnalysisRequest` here is exactly that, so
:class:`BatchScheduler` — the one scheduler behind ``repro serve``,
``repro batch`` and every script — routes each request by its sha256
content key (:func:`shard_of`) to one of ``shards`` private pool shards,
and each shard can:

* fan requests across a ``concurrent.futures.ProcessPoolExecutor``,
* **dedupe** identical in-flight requests (same content key → same
  shard → same Job),
* serve repeats straight from the shared :class:`ArtifactStore`,
* **retry** jobs whose worker process died (``BrokenProcessPool``) on a
  rebuilt pool — with jittered exponential backoff, up to
  ``max_retries`` attempts,
* stay **deterministic**: a batch produces artifacts bit-identical to
  running the same requests sequentially in one process, regardless of
  shard count, worker count or completion order (results are keyed,
  not ordered).

Robustness layer (the parts that make "heavy traffic" survivable), all
per shard:

* **Deadlines** — ``options["deadline_s"]`` (or the scheduler-wide
  ``default_deadline_s``) bounds a job's wall time across all attempts.
  A watchdog thread fails over-deadline jobs with reason exactly
  ``"deadline exceeded"``, frees their in-flight slot (an identical
  resubmit runs fresh), and terminates the stuck worker; sibling jobs
  caught in the resulting pool breakage are retried on the rebuilt pool.
  Deadlines use ``time.monotonic()`` throughout — wall-clock steps
  cannot shrink or stretch a budget.  (Inline execution cannot be
  preempted, so deadlines bind only in pool mode.)
* **Single-flight pool rebuild** — a worker death breaks *every*
  in-flight future at once; a generation counter ensures only the first
  observer discards and rebuilds the pool, and the survivors are
  redispatched against the one fresh pool instead of triggering a
  rebuild storm.
* **Circuit breaker** — after ``breaker_threshold`` consecutive pool
  breakages the shard stops feeding its pool and runs jobs inline
  (degraded but alive — process-killing/-stalling fault directives are
  neutralized outside pool workers, so an injected crash/hang cannot
  take out the serving process the fallback exists to protect); after
  ``breaker_cooldown_s`` it half-opens and admits a *single* probe
  dispatch, closing on a pooled success while everyone else keeps
  falling back inline.
* **Bounded retention** — finished jobs beyond ``max_jobs`` are evicted
  oldest-first (``GET /jobs/<id>`` then 404s), mirroring the bounded
  ``_traces`` LRU, so a long-lived service cannot leak its job registry.
* **Fault injection** — a seeded :class:`~repro.service.faults.FaultPlan`
  can stamp chaos directives onto a fraction of submissions
  (``repro serve --inject``); directives are non-semantic options
  (excluded from the content key), so an injected job dedupes, caches,
  and corrupts under the same address as its clean twin.  Every failure
  path above increments a taxonomy metrics counter and emits a tracer
  event.

``inline=True`` bypasses the pools and executes synchronously
in-process — the sensible mode on single-core hosts; the determinism
tests compare every mode against :func:`run_sequential`.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import (BrokenExecutor, CancelledError,
                                ProcessPoolExecutor)
from typing import Dict, List, Optional, Sequence, Union

from ..obs import NULL_TRACER, Tracer, activate
from ..runtime.interpreter import OpsBudgetExceeded
from .artifacts import ArtifactStore, canonical_json
from .faults import FaultPlan, TransientFault, mark_worker_process
from .jobs import AnalysisRequest, Job, execute_request, semantic_options
from .metrics import NULL_METRICS, ServiceMetrics


class QueueFull(Exception):
    """Admission control rejected a submission: the scheduler's bounded
    in-flight queue is at capacity.  ``retry_after_s`` is the suggested
    client backoff (the HTTP layer maps this to 429 + ``Retry-After``)."""

    def __init__(self, depth: int, limit: int, retry_after_s: float):
        super().__init__(
            f"queue full ({depth}/{limit} in flight); "
            f"retry in {retry_after_s:g}s")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


def _stats_delta(before: Dict, after: Dict) -> Dict:
    return {k: after[k] - before.get(k, 0) for k in after}


# -- content-key memo ---------------------------------------------------------
# ``AnalysisRequest.key()`` re-resolves and re-hashes the (multi-KB)
# source text on every call; on the warm path a POST then spends more
# time hashing than serving the cache hit.  Corpus-named workloads are
# memoizable: within one process the corpus is fixed, so (workload name,
# inputs, semantic options) fully determines the resolved source and
# therefore the key.  Inline-source requests take the full hash.

_KEY_MEMO_CAP = 4096
_key_memo: "OrderedDict[tuple, str]" = OrderedDict()
_key_memo_lock = threading.Lock()


def request_key(request: AnalysisRequest) -> str:
    """Content key of a request (memoized for workload-named requests)."""
    if request.workload is None:
        return request.key()
    inputs = (None if request.inputs is None
              else tuple(request.inputs))
    memo_key = (request.workload, inputs,
                canonical_json(semantic_options(request.options)))
    with _key_memo_lock:
        got = _key_memo.get(memo_key)
        if got is not None:
            _key_memo.move_to_end(memo_key)
            return got
    key = request.key()          # may raise KeyError (unknown workload)
    with _key_memo_lock:
        _key_memo[memo_key] = key
        while len(_key_memo) > _KEY_MEMO_CAP:
            _key_memo.popitem(last=False)
    return key


def _register_cache_stores(root: str) -> None:
    """Point this process's transpiler and per-procedure analysis
    caches at the ``codegen/`` and ``proc/`` subtrees of the job store
    rooted at ``root``."""
    from ..analysis.incremental import set_proc_store
    from ..runtime.transpile import set_codegen_store
    set_codegen_store(ArtifactStore(os.path.join(root, "codegen")))
    set_proc_store(ArtifactStore(os.path.join(root, "proc")))


def _execute_enveloped(request: AnalysisRequest,
                       trace_ctx: Optional[Dict], **job_tags) -> Dict:
    """Run one request and return its envelope
    ``{artifact, error, spans, codegen, proc}``.

    A raised exception is *returned* as ``error`` (``artifact`` is then
    None), so the cache deltas and spans of a failed run are not lost.
    ``spans`` is only populated when a trace context was given (the run
    then happens under a child tracer whose ``job`` root parents onto
    the scheduler's ``submit`` span); ``codegen`` and ``proc`` carry
    this request's hit/miss deltas of the transpiled-kernel and
    per-procedure analysis caches for the scheduler's metrics."""
    from ..analysis.incremental import proc_cache_stats
    from ..runtime.transpile import codegen_cache_stats
    codegen_before = codegen_cache_stats()
    proc_before = proc_cache_stats()
    artifact = error = spans = None
    try:
        if trace_ctx is None:
            artifact = execute_request(request)
        else:
            tracer = Tracer.from_context(trace_ctx)
            try:
                with activate(tracer), \
                        tracer.span("job", target=request.describe(),
                                    **job_tags):
                    artifact = execute_request(request)
            finally:
                spans = tracer.to_dicts()
    except Exception as exc:                   # noqa: BLE001
        error = exc
    return {"artifact": artifact, "error": error, "spans": spans,
            "codegen": _stats_delta(codegen_before, codegen_cache_stats()),
            "proc": _stats_delta(proc_before, proc_cache_stats())}


_worker_store_root: Optional[str] = None


def _pool_worker(request_dict: Dict, trace_context: Optional[Dict],
                 store_root: Optional[str]) -> Dict:
    """Top-level (picklable) worker entry point: the envelope of
    :func:`_execute_enveloped`, with a failure re-raised so it reaches
    the scheduler as the future's exception."""
    # This process is sacrificial: process-killing fault directives are
    # allowed to execute here (and *only* here — inline execution in the
    # scheduler/server process neutralizes them).
    mark_worker_process()
    # Worker processes have their own module globals, so the
    # registration the scheduler did does not carry over.
    global _worker_store_root
    if store_root and store_root != _worker_store_root:
        _register_cache_stores(store_root)
        _worker_store_root = store_root
    envelope = _execute_enveloped(AnalysisRequest.from_dict(request_dict),
                                  trace_context)
    if envelope["error"] is not None:
        raise envelope["error"]
    return envelope


class _PoolShard:
    """One shard of :class:`BatchScheduler`: submit/queue/run/
    done-or-failed job management over its own process pool, in-flight
    table, breaker and watchdog.  ``shard`` is its ordinal in the router
    (stamped on jobs, ``submit`` span tags and the queue-depth gauge)."""

    def __init__(self, store: ArtifactStore, shard: int, *,
                 metrics: ServiceMetrics,
                 workers: int,
                 tracer,
                 fault_plan: Optional[FaultPlan],
                 max_retries: int = 2,
                 inline: bool = False,
                 max_traces: int = 256,
                 max_jobs: int = 1024,
                 default_deadline_s: Optional[float] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 30.0,
                 retry_backoff_s: float = 0.05,
                 watchdog_interval_s: float = 0.02,
                 max_queue: Optional[int] = None,
                 claim_poll_s: float = 0.02):
        self.store = store
        self.shard = shard
        self.metrics = metrics
        #: Shipped to pool workers, which register the same persistent
        #: codegen and per-procedure caches the router did.
        self.store_root = (None if store.root is None
                           else str(store.root))
        self.workers = workers
        self.max_retries = max_retries
        self.inline = inline
        self.tracer = tracer
        self.max_traces = max(1, max_traces)
        self.max_jobs = max(1, max_jobs)
        self.default_deadline_s = default_deadline_s
        self.fault_plan = fault_plan
        self.breaker_threshold = max(1, breaker_threshold)
        self.breaker_cooldown_s = breaker_cooldown_s
        self.retry_backoff_s = retry_backoff_s
        self.watchdog_interval_s = watchdog_interval_s
        #: Admission cap on new (non-dedupe, non-cached) work in flight;
        #: None = unbounded.  Dedupes and cache hits are always admitted.
        self.max_queue = max_queue
        self.claim_poll_s = claim_poll_s
        self._rng = random.Random(0x5EED)        # retry jitter only
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0                     # bumps on every rebuild
        self._jobs: Dict[str, Job] = {}          # job id -> Job (insertion order)
        self._inflight: Dict[str, Job] = {}      # artifact key -> Job
        self._futures: Dict[str, object] = {}    # job id -> Future
        self._timers: Dict[str, threading.Timer] = {}   # job id -> retry timer
        self._traces: "OrderedDict[str, List[Dict]]" = OrderedDict()
        self._breaker_failures = 0               # consecutive pool breakages
        self._breaker_open_until: Optional[float] = None   # monotonic
        self._probing = False                    # half-open probe in flight
        #: name -> background poll thread (deadline watchdog, claim
        #: waiter); all stop on ``_stop``.
        self._tickers: Dict[str, threading.Thread] = {}
        self._stop = threading.Event()
        #: Keys whose cross-process compute claim this scheduler holds
        #: (released when the owning job settles).
        self._claimed: set = set()
        #: job id -> Job parked waiting on another process's claim.
        self._remote_waits: Dict[str, Job] = {}
        self._shutdown = False

    # -- pool lifecycle ----------------------------------------------------
    def _get_pool(self):
        """The live pool and its generation (building one if needed)."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool, self._generation

    def _recycle_pool(self, observed_gen: int,
                      count_breaker: bool = True) -> bool:
        """Discard a broken pool — **single-flight**.

        Every in-flight future breaks at once when a worker dies, and
        each completion callback lands here; only the first caller still
        observing ``observed_gen`` discards the pool and bumps the
        generation.  The rest see a newer generation and return without
        touching the (already fresh) pool — no rebuild storm.

        ``count_breaker=False`` is the deadline-kill path: a deliberate
        worker termination proves nothing about pool health, so it must
        not push the circuit breaker toward open."""
        with self._lock:
            if observed_gen != self._generation or self._pool is None:
                return False
            pool, self._pool = self._pool, None
            self._generation += 1
            gen = self._generation
            self._probing = False        # a probe's breakage settles it
            opened = False
            if count_breaker:
                self._breaker_failures += 1
                if self._breaker_failures >= self.breaker_threshold:
                    opened = self._breaker_open_until is None
                    self._breaker_open_until = (time.monotonic()
                                                + self.breaker_cooldown_s)
        pool.shutdown(wait=False)
        self.metrics.incr("pool_rebuilds")
        self.tracer.event("pool_recycled", generation=gen)
        if opened:
            self.metrics.incr("breaker_opened")
            self.tracer.event("breaker_open",
                              failures=self.breaker_threshold)
        return True

    def _pool_allowed(self) -> bool:
        """Circuit-breaker gate: False while the breaker is open.

        After the cooldown the gate half-opens and admits **exactly
        one** probe dispatch (``_probing`` is set until that probe's
        future settles); concurrent dispatches keep taking the inline
        fallback, so a traffic burst at cooldown expiry cannot storm a
        possibly-still-bad pool.  A pooled success closes the breaker,
        another breakage re-arms the cooldown, and either way the probe
        flag is cleared when the probe settles."""
        now = time.monotonic()
        with self._lock:
            if self._breaker_open_until is None:
                return True
            if now < self._breaker_open_until:
                return False
            if self._probing:
                return False                     # someone is probing
            self._probing = True                 # this dispatch probes
            return True

    def _terminate_pool_processes(self, gen: Optional[int]) -> None:
        """Kill the worker processes of generation ``gen`` (deadline
        enforcement: a hung worker never returns, so it must die).  The
        resulting ``BrokenProcessPool`` on sibling futures routes them
        through the single-flight recycle + retry path."""
        with self._lock:
            pool = self._pool if gen == self._generation else None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:                   # noqa: BLE001
                pass
        self.metrics.incr("workers_terminated", len(procs))

    def shutdown(self, wait: bool = True) -> None:
        self._stop.set()
        with self._lock:
            self._shutdown = True
            self._probing = False
            pool, self._pool = self._pool, None
            timers = dict(self._timers)
            self._timers.clear()
            stranded = [self._jobs.get(job_id) for job_id in timers]
            stranded += self._remote_waits.values()
            self._remote_waits.clear()
            tickers = list(self._tickers.values())
        for timer in timers.values():
            timer.cancel()
        for job in stranded:     # awaiting a retry timer or a remote claim
            if job is not None:
                self._fail(job, "scheduler shutdown", "shutdown")
        if pool is not None:
            pool.shutdown(wait=wait)
        for thread in tickers:
            if thread.is_alive():
                thread.join(timeout=1.0)
        # Claims this process still holds would read as live (our pid)
        # to other processes until the TTL: release them explicitly.
        with self._lock:
            claimed, self._claimed = set(self._claimed), set()
        for key in claimed:
            self.store.release(key)

    # -- background pollers ------------------------------------------------
    def _ensure_ticker(self, name: str, interval_s: float, tick,
                       error_counter: str) -> None:
        """Start (once) the daemon thread that calls ``tick`` every
        ``interval_s`` until shutdown.  It must outlive any single bad
        job, so a raising tick is counted, not propagated."""
        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    tick()
                except Exception:               # noqa: BLE001
                    self.metrics.incr(error_counter)

        with self._lock:
            if name in self._tickers or self._shutdown:
                return
            thread = self._tickers[name] = threading.Thread(
                target=loop, name=f"scheduler-{name}", daemon=True)
        thread.start()

    def _ensure_watchdog(self) -> None:
        self._ensure_ticker("watchdog", self.watchdog_interval_s,
                            self._reap_deadlines, "watchdog_errors")

    def _reap_deadlines(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [job for job in self._inflight.values()
                       if job.deadline_at is not None
                       and not job.finished and now >= job.deadline_at]
        for job in expired:
            self._expire(job)

    def _expire(self, job: Job) -> None:
        """Deadline enforcement for one job: fail it (reason exactly
        ``"deadline exceeded"``), free its in-flight slot so an identical
        resubmit runs fresh, and reclaim its worker."""
        with self._lock:
            future = self._futures.get(job.id)
        # Fail *first*: completion callbacks observe job.finished and
        # stand down, so a racing worker result cannot resurrect the job.
        if not self._fail(job, "deadline exceeded", "deadline"):
            return                               # lost the race: job done
        self.metrics.incr("jobs_deadline_exceeded")
        self.tracer.event("deadline_exceeded", job=job.id,
                          target=job.request.describe(),
                          deadline_s=job.deadline_s)
        if future is not None and not future.cancel() and \
                not future.done():
            # Already running on a worker: the only way to reclaim the
            # slot is to kill the worker (pool siblings get retried).
            # Proactively recycle so the *next* submit lands on a fresh
            # pool instead of burning a retry on the corpse — without
            # charging the circuit breaker for a deliberate kill.
            self._terminate_pool_processes(job.generation)
            self._recycle_pool(job.generation, count_breaker=False)

    # -- submission --------------------------------------------------------
    def submit(self, request: AnalysisRequest, key: str) -> Job:
        """Submit a request the router placed here by its content
        ``key``; see :meth:`BatchScheduler.submit`."""
        with self.tracer.span("submit", target=request.describe(),
                              shard=self.shard) as sp:
            if self.fault_plan is not None and \
                    not request.options.get("fault"):
                directive = self.fault_plan.draw()
                if directive is not None:
                    request.options["fault"] = directive
                    self.metrics.incr("faults_injected")
                    sp.tag(fault=directive.split(":", 1)[0])
            deadline_s = request.options.get("deadline_s",
                                             self.default_deadline_s)
            cached = self.store.get(key)
            with self._lock:
                existing = self._inflight.get(key)
                if existing is not None:
                    self.metrics.incr("jobs_deduped")
                    sp.tag(cache="dedup", job=existing.id)
                    return existing
                if cached is None and self.max_queue is not None and \
                        len(self._inflight) >= self.max_queue:
                    depth = len(self._inflight)
                    shed = True
                else:
                    shed = False
                    job = Job(request, key, deadline_s=deadline_s)
                    job.shard = self.shard
                    self._jobs[job.id] = job
                    if cached is None:
                        self._inflight[key] = job
                        job.mark_queued()
                    self._gc_finished_locked()
            if shed:
                # Suggest waiting out roughly one mean job latency; a
                # cold scheduler has no sample yet, so fall back to 1s.
                mean = self.metrics.timer_mean("job_latency")
                retry_after_s = round(max(0.1, mean or 1.0), 2)
                self.metrics.incr_shed("queue_full")
                self.tracer.event("shed", reason="queue_full",
                                  depth=depth, limit=self.max_queue)
                sp.tag(cache="shed")
                raise QueueFull(depth, self.max_queue, retry_after_s)
            self.metrics.incr("jobs_submitted")
            sp.tag(cache="hit" if cached is not None else "miss",
                   job=job.id)
            if cached is not None:
                job.mark_done(cached=True)
                self.metrics.incr("jobs_served_cached")
                return job
            self._update_queue_gauge()
            if not self.store.claim(key):
                # Another live server process owns this key's compute:
                # park the job; the claim waiter settles it when the
                # artifact lands (or adopts the compute if the claim
                # goes stale).
                self._enter_remote_wait(job, sp)
                return job
            with self._lock:
                self._claimed.add(key)
            # Finished-while-claiming: the previous owner may have
            # stored + released between our store.get and our claim.
            cached = self.store.get(key)
            if cached is not None:
                self._release_claim(key)
                with self._lock:
                    self._inflight.pop(key, None)
                job.mark_done(cached=True)
                self.metrics.incr("jobs_served_cached")
                self._update_queue_gauge()
                sp.tag(cache="hit")
                return job
            self._start(job)
            return job

    # -- cross-process single-flight (remote waits) ------------------------
    def _enter_remote_wait(self, job: Job, sp) -> None:
        """Park a job whose key another live process is computing; the
        claim-waiter thread settles it from the shared store."""
        self.metrics.incr("jobs_remote_waited")
        sp.tag(cache="remote_wait")
        self.tracer.event("remote_wait", job=job.id, key=job.key[:12])
        if job.deadline_s is not None:
            # The wait burns the job's wall budget just like running
            # would; the watchdog frees the slot if the owner wedges.
            job.deadline_at = time.monotonic() + job.deadline_s
            self._ensure_watchdog()
        with self._lock:
            self._remote_waits[job.id] = job
        self._ensure_claim_waiter()

    def _ensure_claim_waiter(self) -> None:
        self._ensure_ticker("claim-waiter", self.claim_poll_s,
                            self._poll_remote_waits,
                            "claim_waiter_errors")

    def _poll_remote_waits(self) -> None:
        with self._lock:
            waiting = list(self._remote_waits.values())
        for job in waiting:
            if job.finished:        # deadline-expired or shut down
                with self._lock:
                    self._remote_waits.pop(job.id, None)
                continue
            # ``in`` probes path existence without charging a cache
            # miss per poll tick; the real ``get`` runs once, on hit.
            if job.key in self.store:
                artifact = self.store.get(job.key)
                if artifact is not None:
                    self._finish_remote(job)
                    continue
                # corrupt entry was quarantined mid-read: fall through
                # and try to adopt the compute ourselves
            if not self.store.claim(job.key):
                continue            # owner still live: keep waiting
            with self._lock:
                self._claimed.add(job.key)
                self._remote_waits.pop(job.id, None)
            artifact = self.store.get(job.key)
            if artifact is not None:    # owner finished as we claimed
                self._release_claim(job.key)
                self._finish_remote(job)
                continue
            # Stale claim broken (owner died) — adopt the computation.
            self.metrics.incr("jobs_claim_adopted")
            self.tracer.event("claim_adopted", job=job.id,
                              key=job.key[:12])
            self._start(job)

    def _finish_remote(self, job: Job) -> None:
        """Settle a remote-wait job whose artifact another process
        computed and stored."""
        with self._lock:
            if job.finished:
                return
            self._remote_waits.pop(job.id, None)
            self._inflight.pop(job.key, None)
            job.mark_done(cached=True)
        self.metrics.incr("jobs_completed")
        self.metrics.incr("jobs_remote_served")
        self._update_queue_gauge()

    def _release_claim(self, key: str) -> None:
        with self._lock:
            held = key in self._claimed
            self._claimed.discard(key)
        if held:
            self.store.release(key)

    def _gc_finished_locked(self) -> None:
        """Evict the oldest *finished* jobs past ``max_jobs`` (lock
        held).  Unfinished jobs are never evicted, so the registry can
        transiently exceed the cap under a flood of live work."""
        if len(self._jobs) <= self.max_jobs:
            return
        evictable = [j for j in self._jobs.values() if j.finished]
        excess = len(self._jobs) - self.max_jobs
        for job in evictable[:excess]:
            del self._jobs[job.id]
            self._traces.pop(job.id, None)
            self.metrics.incr("jobs_evicted")

    # -- execution ---------------------------------------------------------
    def _start(self, job: Job) -> None:
        """Begin executing a job this shard holds the compute claim for."""
        if self.inline:
            self._run_inline(job)
        else:
            if job.deadline_s is not None:
                self._ensure_watchdog()
            self._dispatch(job)

    def _absorb(self, job: Job, envelope: Dict) -> None:
        """Fold an execution envelope's side channels into this shard:
        the per-job trace and the cache hit/miss deltas."""
        self._record_trace(job, envelope["spans"])
        for cache in ("codegen", "proc"):
            for outcome in ("hit", "miss"):
                count = envelope[cache].get(outcome)
                if count:
                    self.metrics.incr(f"{cache}_cache_{outcome}", count)

    def _run_inline(self, job: Job) -> None:
        job.mark_running()
        trace_ctx = (self.tracer.export_context()
                     if self.tracer.enabled else None)
        with self.metrics.time_phase("execute"):
            envelope = _execute_enveloped(job.request, trace_ctx,
                                          job=job.id)
        self._absorb(job, envelope)
        if envelope["error"] is not None:
            self._finish_failed(job, envelope["error"])
        else:
            self._finish_done(job, envelope["artifact"])

    def _dispatch(self, job: Job) -> None:
        if job.finished:
            return
        if not self._pool_allowed():
            # Breaker open: degrade to inline execution — slower, but
            # the service keeps answering while the pool is poisoned.
            self.metrics.incr("jobs_inline_fallback")
            self.tracer.event("inline_fallback", job=job.id)
            self._run_inline(job)
            return
        job.mark_running()
        trace_ctx = (self.tracer.export_context()
                     if self.tracer.enabled else None)
        gen = None
        try:
            pool, gen = self._get_pool()
            job.generation = gen
            future = pool.submit(_pool_worker, job.request.to_dict(),
                                 trace_ctx, self.store_root)
        except (BrokenExecutor, RuntimeError) as exc:
            self._handle_crash(job, exc, gen)
            return
        with self._lock:
            self._futures[job.id] = future
        future.add_done_callback(
            lambda f, j=job, g=gen: self._on_done(j, f, g))

    def _on_done(self, job: Job, future,
                 gen: Optional[int] = None) -> None:
        with self._lock:
            self._futures.pop(job.id, None)
            # Any pooled future settling settles the half-open probe
            # (while probing, this is the only job the pool was fed).
            self._probing = False
        if job.finished:        # deadline watchdog / pool-wide breakage
            return              # already settled this job
        try:
            exc = future.exception()
        except CancelledError:
            return              # deadline-cancelled before it started
        if exc is None:
            envelope = future.result()
            self._absorb(job, envelope)
            self._finish_done(job, envelope["artifact"], pooled=True)
        elif isinstance(exc, BrokenExecutor):
            self.metrics.incr("futures_broken")
            self._handle_crash(job, exc, gen)
        elif isinstance(exc, TransientFault) and \
                job.attempts <= self.max_retries:
            self.metrics.incr("transient_faults")
            self.metrics.incr("jobs_retried")
            self.tracer.event("transient_retry", job=job.id,
                              attempt=job.attempts)
            self._schedule_retry(job)
        else:
            self._finish_failed(job, exc)

    def _handle_crash(self, job: Job, exc: Exception,
                      gen: Optional[int]) -> None:
        """A worker process died (or the pool was unusable): recycle the
        pool exactly once and route this job to backoff-retry."""
        if gen is not None and self._recycle_pool(gen):
            self.metrics.incr("worker_crashes")
        if job.finished:
            return
        if self._shutdown:
            self._fail(job, "scheduler shutdown", "shutdown")
            return
        if job.attempts <= self.max_retries:
            self.metrics.incr("jobs_retried")
            self._schedule_retry(job)
        else:
            self._fail(job, f"{type(exc).__name__}: {exc}", "crash")

    def _schedule_retry(self, job: Job) -> None:
        """Redispatch after a jittered exponential backoff — retries
        from a mass pool breakage spread out instead of thundering onto
        the fresh pool in lockstep."""
        delay = self.retry_backoff_s * (2 ** max(0, job.attempts - 1))
        delay *= 0.5 + self._rng.random()        # jitter in [0.5, 1.5)
        with self._lock:
            if self._shutdown:
                shutdown = True
            else:
                shutdown = False
                timer = threading.Timer(delay, self._redispatch, [job])
                timer.daemon = True
                self._timers[job.id] = timer
        if shutdown:
            self._fail(job, "scheduler shutdown", "shutdown")
            return
        self.metrics.observe("retry_backoff", delay)
        timer.start()

    def _redispatch(self, job: Job) -> None:
        with self._lock:
            self._timers.pop(job.id, None)
            shutdown = self._shutdown
        if job.finished:
            return
        if shutdown:
            self._fail(job, "scheduler shutdown", "shutdown")
            return
        self._dispatch(job)

    # -- settlement --------------------------------------------------------
    def _finish_done(self, job: Job, artifact: Dict,
                     pooled: bool = False) -> None:
        self.store.put(job.key, artifact)
        if str(job.request.options.get("fault") or "") == \
                "corrupt-artifact":
            # Applied post-store so the *next* read exercises the
            # store's quarantine-and-recompute path.
            self.store.corrupt_on_disk(job.key)
        # put-then-release ordering: a remote waiter that sees the claim
        # gone is guaranteed to find the artifact already on disk.
        self._release_claim(job.key)
        closed = False
        with self._lock:
            if job.finished:
                return
            self._inflight.pop(job.key, None)
            self._futures.pop(job.id, None)
            job.mark_done()
            if pooled:
                # A pooled success proves the pool is healthy again.
                self._breaker_failures = 0
                if self._breaker_open_until is not None:
                    self._breaker_open_until = None
                    closed = True
        if closed:
            self.metrics.incr("breaker_closed")
            self.tracer.event("breaker_closed")
        self.metrics.incr("jobs_completed")
        # This process actually ran the pipeline for this key (vs served
        # cached / deduped / remote-waited) — the single-flight audits
        # sum this across server processes and assert "exactly once".
        self.metrics.incr("artifacts_computed")
        if job.duration_s is not None:
            # monotonic pair — immune to wall-clock steps (NTP, DST)
            self.metrics.observe("job_latency", job.duration_s)
        self._update_queue_gauge()

    def _finish_failed(self, job: Job, exc: Exception) -> None:
        kind = "error"
        if isinstance(exc, OpsBudgetExceeded):
            kind = "budget"
        elif isinstance(exc, TransientFault):
            kind = "transient"
        elif isinstance(exc, BrokenExecutor):
            kind = "crash"
        self._fail(job, f"{type(exc).__name__}: {exc}", kind)

    def _fail(self, job: Job, reason: str, kind: str) -> bool:
        """Settle a job as failed (idempotent; False if it already
        finished).  Frees the in-flight slot so an identical resubmit
        creates a fresh job instead of deduping onto a corpse."""
        with self._lock:
            if job.finished:
                return False
            self._inflight.pop(job.key, None)
            self._futures.pop(job.id, None)
            self._remote_waits.pop(job.id, None)
            timer = self._timers.pop(job.id, None)
            job.mark_failed(reason, kind=kind)
        if timer is not None:
            timer.cancel()
        # Free the cross-process claim so another process (or a local
        # resubmit) can take over the computation.
        self._release_claim(job.key)
        self.metrics.incr("jobs_failed")
        self.metrics.incr_failure(kind)
        self.tracer.event("job_failed", job=job.id, kind=kind)
        self._update_queue_gauge()
        return True

    def _update_queue_gauge(self) -> None:
        # Per-shard gauge names: the shards share one metrics sink, so
        # a single "queue_depth" would be clobbered racily.
        self.metrics.gauge(f"queue_depth_shard_{self.shard}",
                           self.queue_depth())

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- traces ------------------------------------------------------------
    def _record_trace(self, job: Job,
                      spans: Optional[List[Dict]]) -> None:
        """Keep a bounded per-job trace, reattach the spans onto the
        scheduler's own tracer, and fold them into per-phase metrics."""
        if not spans:
            return
        with self._lock:
            self._traces[job.id] = list(spans)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        self.tracer.adopt(spans)
        self.metrics.record_phases(spans)

    def trace(self, job_id: str) -> Optional[List[Dict]]:
        """The recorded spans for one job, or None if not traced/evicted."""
        with self._lock:
            spans = self._traces.get(job_id)
            return list(spans) if spans is not None else None

    # -- queries -----------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())


def shard_of(key: str, nshards: int) -> int:
    """Shard placement by content key: the leading 64 bits of the
    sha256 are uniform, so a plain modulus balances shards and keeps
    every request for one key on one shard (per-shard dedupe and
    single-flight then compose to global dedupe)."""
    return int(key[:16], 16) % nshards


class BatchScheduler:
    """The scheduler: ``shards`` >= 1 independent pool shards routed by
    content key.

    Each shard owns its own process pool, in-flight table, breaker, and
    watchdog; a request's sha256 content key picks its shard, so
    identical requests always meet in the same in-flight table (dedupe
    stays exact) while unrelated traffic stops contending on one
    scheduler lock and one pool queue.  The artifact store (and its
    cross-process claim tree), the metrics sink, the tracer and the
    seeded fault plan are shared by all shards.

    ``workers`` is the pool size *per shard* (default: the host's cores
    split across the shards).  ``shard_options`` configure every shard
    alike: ``inline``, ``max_retries``, ``max_traces``, ``max_jobs``,
    ``default_deadline_s``, ``max_queue``, ``breaker_threshold``,
    ``breaker_cooldown_s``, ``retry_backoff_s``,
    ``watchdog_interval_s``, ``claim_poll_s``."""

    def __init__(self, store: Optional[ArtifactStore] = None, *,
                 shards: int = 1,
                 workers: Optional[int] = None,
                 metrics: ServiceMetrics = NULL_METRICS,
                 tracer=None,
                 fault_plan: Union[FaultPlan, str, None] = None,
                 **shard_options):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.store = store if store is not None else ArtifactStore(None)
        if self.store.root is not None:
            _register_cache_stores(str(self.store.root))
        self.metrics = metrics
        #: Span sink; NULL_TRACER keeps every trace path zero-cost-ish.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if workers is None:
            # Split the host's cores across the shard pools instead of
            # oversubscribing cpu_count() workers per shard.
            workers = max(1, (os.cpu_count() or 2) // shards)
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        #: One shared (seeded) fault plan: draws follow submission
        #: order, so single-threaded chaos harnesses stay deterministic
        #: regardless of which shard each request routes to.
        self.fault_plan = fault_plan
        self.shards = [
            _PoolShard(self.store, i, metrics=metrics, workers=workers,
                       tracer=self.tracer, fault_plan=fault_plan,
                       **shard_options)
            for i in range(shards)
        ]

    def submit(self, request: AnalysisRequest) -> Job:
        """Submit a request; returns a (possibly shared or already-done)
        Job.  Identical in-flight requests dedupe onto one Job; identical
        finished requests are served from the artifact store; a key
        claimed by another server process parks the job on a remote wait
        instead of recomputing.  Raises :class:`QueueFull` when admission
        control rejects *new* work (``max_queue``, per shard); dedupes
        and cache hits are always admitted.  Raises ``KeyError`` for an
        unknown workload name."""
        key = request_key(request)
        return self.shards[shard_of(key, len(self.shards))].submit(
            request, key)

    def batch(self, requests: Sequence[AnalysisRequest],
              timeout: Optional[float] = None) -> List[Optional[Dict]]:
        """Submit all requests, wait, and return their artifacts in
        request order (None for failed jobs)."""
        jobs = [self.submit(r) for r in requests]
        self.wait(jobs, timeout=timeout)
        return [self.artifact(job) for job in jobs]

    # -- fan-in queries ----------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        for shard in self.shards:
            job = shard.job(job_id)
            if job is not None:
                return job
        return None

    def jobs(self) -> List[Job]:
        return sorted((job for shard in self.shards
                       for job in shard.jobs()), key=lambda j: j.id)

    def trace(self, job_id: str) -> Optional[List[Dict]]:
        """The recorded spans for one job, or None if not traced/evicted."""
        for shard in self.shards:
            spans = shard.trace(job_id)
            if spans is not None:
                return spans
        return None

    def artifact(self, job: Job) -> Optional[Dict]:
        if job.state != "done":
            return None
        return self.store.get(job.key)

    def wait(self, jobs: Sequence[Job],
             timeout: Optional[float] = None) -> bool:
        """Block until every job finished; False on timeout.  Monotonic
        throughout — an NTP step cannot corrupt the deadline."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for job in jobs:
            remain = None
            if deadline is not None:
                remain = max(0.0, deadline - time.monotonic())
            if not job.wait(remain):
                return False
        return True

    def shard_stats(self) -> List[Dict]:
        """Per-shard occupancy for ``GET /metrics`` (each depth read
        under that shard's lock)."""
        return [{"shard": shard.shard,
                 "queue_depth": shard.queue_depth(),
                 "jobs": len(shard.jobs()),
                 "workers": shard.workers}
                for shard in self.shards]

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        for shard in self.shards:
            shard.shutdown(wait=wait)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def run_sequential(requests: Sequence[AnalysisRequest]) -> List[Dict]:
    """The sequential reference: execute each request in this process.
    Batch results must be bit-identical to this (determinism contract)."""
    return [execute_request(r) for r in requests]
