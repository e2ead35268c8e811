"""Service hardening: deadlines, budgets, fault injection, degradation.

Every failure mode the scheduler claims to survive is injected here and
driven end-to-end (HTTP → scheduler → pool → artifact store):

* seeded :class:`FaultPlan` chaos — worker crash, transient exception,
  hang, slow-start, corrupt-artifact — and the one-shot directive layer,
* per-job **deadlines**: over-deadline jobs end ``failed`` with reason
  exactly ``"deadline exceeded"``, their in-flight slot is freed (an
  identical resubmit runs fresh), and sibling jobs still complete,
* unified **op-budget enforcement**: budget-exceeded jobs fail
  identically under both engines (same error string, same taxonomy
  bucket), inline and across the process pool,
* **graceful degradation**: single-flight pool rebuild (no rebuild
  storm), jittered backoff retries, the inline-fallback circuit breaker,
  and bounded finished-job retention,
* the determinism contract *under* injected crashes and retries.
"""

import json
import time

import pytest

from repro.service import (AnalysisRequest, AnalysisServer, ArtifactStore,
                           BatchScheduler, FaultPlan, ServiceMetrics,
                           TransientFault, apply_request_fault,
                           canonical_json, run_sequential,
                           validate_options)
from repro.service.jobs import MAX_OPS_CAP

SRC = """
      PROGRAM tiny
      DIMENSION a(40)
      DO 10 i = 1, 40
        a(i) = i * 2.0
10    CONTINUE
      s = 0.0
      DO 20 i = 1, 40
        s = s + a(i)
20    CONTINUE
      PRINT *, s
      END
"""


def _call(server, method, path, body=None):
    import urllib.error
    import urllib.request
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(server.url + path, data=data,
                                 method=method,
                                 headers={"Content-Type":
                                          "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _poll_job(server, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, out = _call(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        if out["job"]["state"] in ("done", "failed"):
            return out["job"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


# -- the fault plan -----------------------------------------------------------

def test_fault_plan_parse_and_seeded_determinism():
    a = FaultPlan.parse("crash=0.3,transient=0.2,seed=7")
    b = FaultPlan.parse("crash=0.3,transient=0.2,seed=7")
    kinds_a = [(d or "").split(":", 1)[0] for d in
               (a.draw() for _ in range(50))]
    kinds_b = [(d or "").split(":", 1)[0] for d in
               (b.draw() for _ in range(50))]
    assert kinds_a == kinds_b                    # replayable chaos
    assert "crash-once" in kinds_a and "transient-once" in kinds_a
    assert FaultPlan.parse("") is None and FaultPlan.parse(None) is None


def test_fault_plan_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.parse("meteor=0.5")
    with pytest.raises(ValueError, match="sum to <= 1"):
        FaultPlan.parse("crash=0.9,hang=0.9")
    with pytest.raises(ValueError, match="kind=rate"):
        FaultPlan.parse("crash")


def test_unknown_fault_directive_is_a_clean_error():
    with pytest.raises(ValueError, match="unknown fault directive"):
        apply_request_fault({"fault": "comet:1"})


def test_transient_once_fires_exactly_once(tmp_path):
    opts = {"fault": f"transient-once:{tmp_path / 'm'}"}
    with pytest.raises(TransientFault):
        apply_request_fault(opts)
    apply_request_fault(opts)                    # second call: no raise


def test_process_killing_faults_are_neutralized_outside_workers(tmp_path):
    """``crash``/``hang`` directives executing in the scheduler/server
    process (inline mode, the breaker-open inline fallback, the
    sequential reference) must be no-ops: a chaos plan degrades the
    service, it never ``os._exit``'s the serving process or stalls its
    thread.  This test would kill pytest outright if the guard broke."""
    from repro.service.faults import in_worker_process
    assert not in_worker_process()               # pytest is not a worker
    start = time.monotonic()
    apply_request_fault({"fault": "crash"})      # would os._exit(17)
    apply_request_fault({"fault": "hang:3600"})  # would stall 1 h
    apply_request_fault({"fault": "slow-start:3600"})
    assert time.monotonic() - start < 5.0
    # one-shot variants are *consumed* by neutralization: the marker is
    # claimed, so a later pool-side retry cannot fire the fault either
    marker = tmp_path / "c"
    apply_request_fault({"fault": f"crash-once:{marker}"})
    assert marker.exists()
    # unknown directives still raise, worker or not
    with pytest.raises(ValueError, match="unknown fault directive"):
        apply_request_fault({"fault": "comet:1"})


def test_inline_scheduler_survives_crash_and_hang_directives():
    """End-to-end version: an inline scheduler fed process-killing
    directives completes the jobs instead of dying ('degraded but
    alive' — the promise the circuit-breaker fallback makes)."""
    with BatchScheduler(ArtifactStore(None), inline=True) as sched:
        for i, fault in enumerate(["crash", "hang:3600"]):
            job = sched.submit(AnalysisRequest(
                "ora", options={"fault": fault, "salt": str(i)}))
            assert job.state == "done", (fault, job.error)


# -- option validation at the server boundary ---------------------------------

def test_validate_options_caps_max_ops_and_rejects_garbage():
    assert validate_options(None) is None
    out = validate_options({"max_ops": 10 ** 18, "deadline_s": "2.5"})
    assert out["max_ops"] == MAX_OPS_CAP and out["deadline_s"] == 2.5
    for bad in [{"max_ops": 0}, {"max_ops": "many"},
                {"deadline_s": -1}, {"deadline_s": "soon"},
                {"engine": "quantum"}, {"machine": "abacus"}, [1, 2]]:
        with pytest.raises(ValueError):
            validate_options(bad)


def test_fault_option_is_rejected_at_the_boundary_by_default():
    """A production server that never enabled injection must 400 a
    chaos directive — any HTTP client could otherwise crash workers
    until the breaker opens (and, before the worker-only guard, kill
    the server itself via the inline fallback)."""
    with pytest.raises(ValueError, match="fault injection is not"):
        validate_options({"fault": "crash"})
    with AnalysisServer(inline=True) as server:          # no --inject
        for directive in ["crash", "hang:3600", "corrupt-artifact"]:
            status, out = _call(server, "POST", "/jobs",
                                {"workload": "ora",
                                 "options": {"fault": directive}})
            assert status == 400, f"fault {directive!r} -> {status}"
            assert "fault injection is not enabled" in out["error"]


def test_fault_option_allowed_and_kind_checked_when_enabled():
    out = validate_options({"fault": "slow-start:0.01"},
                           allow_faults=True)
    assert out["fault"] == "slow-start:0.01"
    with pytest.raises(ValueError, match="unknown fault directive kind"):
        validate_options({"fault": "meteor:1"}, allow_faults=True)
    with AnalysisServer(inline=True, allow_faults=True) as server:
        status, out = _call(server, "POST", "/jobs",
                            {"workload": "ora",
                             "options": {"fault": "meteor:1"}})
        assert status == 400 and "unknown fault directive" in out["error"]
        status, out = _call(server, "POST", "/jobs",
                            {"workload": "ora",
                             "options": {"fault": "transient"}})
        assert status == 202
        job = _poll_job(server, out["job"]["id"])
        assert job["state"] == "failed"          # inline: no retry


def test_http_rejects_bad_options_and_non_object_bodies():
    with AnalysisServer(inline=True) as server:
        for bad_opts in [{"max_ops": 0}, {"engine": "quantum"},
                         {"deadline_s": -3}]:
            status, out = _call(server, "POST", "/jobs",
                                {"workload": "ora", "options": bad_opts})
            assert status == 400 and "error" in out
        # non-object JSON bodies must 400, never 500 (AttributeError)
        for raw in [[1, 2], "x", 7, None]:
            status, out = _call(server, "POST", "/jobs", raw)
            assert status == 400, f"body {raw!r} -> {status}"
            assert "error" in out


# -- unified op-budget enforcement --------------------------------------------

def test_budget_exceeded_identical_across_engines_inline():
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics,
                        inline=True) as sched:
        jobs = [sched.submit(AnalysisRequest(
                    source=SRC, program_name="tiny",
                    options={"engine": engine, "max_ops": 50}))
                for engine in ("transpiled", "tree")]
    for job in jobs:
        assert job.state == "failed"
        assert job.failure_kind == "budget"
    # the unified error: byte-identical across engines
    assert jobs[0].error == jobs[1].error
    assert jobs[0].error == \
        "OpsBudgetExceeded: operation budget exceeded (max_ops=50)"
    assert metrics.counter("failures_budget") == 2
    assert metrics.counter("failures_total") == 2


def test_budget_exceeded_survives_the_process_pool(tmp_path):
    """OpsBudgetExceeded must pickle across the pool boundary intact
    (type, message, taxonomy) — not degrade into a bare RuntimeError."""
    with BatchScheduler(ArtifactStore(None), workers=1) as sched:
        job = sched.submit(AnalysisRequest(
            source=SRC, program_name="tiny", options={"max_ops": 50}))
        assert job.wait(120)
    assert job.state == "failed" and job.failure_kind == "budget"
    assert job.error == \
        "OpsBudgetExceeded: operation budget exceeded (max_ops=50)"


# -- deadlines ----------------------------------------------------------------

def test_deadline_kills_hung_job_but_siblings_complete(tmp_path):
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=2,
                        watchdog_interval_s=0.02) as sched:
        hang_opts = {"fault": f"hang-once:{tmp_path / 'h'}:60",
                     "deadline_s": 1.0}
        hung = sched.submit(AnalysisRequest("ora", options=hang_opts))
        siblings = [sched.submit(AnalysisRequest(w))
                    for w in ("track", "ear")]
        assert sched.wait([hung, *siblings], timeout=120)
        # over-deadline job: failed, with the exact contractual reason
        assert hung.state == "failed"
        assert hung.error == "deadline exceeded"
        assert hung.failure_kind == "deadline"
        # sibling jobs complete despite the worker kill
        for sib in siblings:
            assert sib.state == "done", sib.error
        assert metrics.counter("jobs_deadline_exceeded") == 1
        assert metrics.counter("failures_deadline") == 1
        assert metrics.counter("workers_terminated") >= 1
        # the slot was freed: an identical resubmit runs fresh (the
        # one-shot hang already fired, so this attempt succeeds)
        again = sched.submit(AnalysisRequest("ora", options=hang_opts))
        assert again.id != hung.id, "resubmit deduped onto a corpse"
        assert again.wait(120) and again.state == "done", again.error


def test_scheduler_default_deadline_applies(tmp_path):
    with BatchScheduler(ArtifactStore(None), workers=1,
                        default_deadline_s=1.0,
                        watchdog_interval_s=0.02) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": f"hang-once:{tmp_path / 'h'}:60"}))
        assert job.wait(120)
    assert job.state == "failed" and job.error == "deadline exceeded"
    assert job.deadline_s == 1.0


def test_deadline_over_http_end_to_end(tmp_path):
    # allow_faults: the hang directive must pass the boundary validator
    with AnalysisServer(workers=1, allow_faults=True) as server:
        status, out = _call(server, "POST", "/jobs", {
            "workload": "ora",
            "options": {"fault": f"hang-once:{tmp_path / 'h'}:60",
                        "deadline_s": 1.0}})
        assert status == 202
        job = _poll_job(server, out["job"]["id"])
        assert job["state"] == "failed"
        assert job["error"] == "deadline exceeded"
        assert job["failure_kind"] == "deadline"
        status, snap = _call(server, "GET", "/metrics")
        assert snap["counters"]["jobs_deadline_exceeded"] == 1


# -- transient faults and backoff ---------------------------------------------

def test_transient_fault_is_retried_with_backoff(tmp_path):
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=1,
                        retry_backoff_s=0.01) as sched:
        job = sched.submit(AnalysisRequest(
            "ora",
            options={"fault": f"transient-once:{tmp_path / 't'}"}))
        assert job.wait(120)
    assert job.state == "done", job.error
    assert job.attempts == 2
    assert metrics.counter("transient_faults") == 1
    assert metrics.counter("jobs_retried") == 1
    assert metrics.counter("pool_rebuilds") == 0     # no pool churn


def test_persistent_transient_fault_exhausts_retries():
    with BatchScheduler(ArtifactStore(None), workers=1, max_retries=1,
                        retry_backoff_s=0.01) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": "transient"}))
        assert job.wait(120)
    assert job.state == "failed"
    assert job.failure_kind == "transient"
    assert "TransientFault" in job.error


def test_slow_start_fault_completes_normally():
    with BatchScheduler(ArtifactStore(None), workers=1) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": "slow-start:0.05"}))
        assert job.wait(120)
    assert job.state == "done", job.error


# -- corrupt artifacts --------------------------------------------------------

def test_corrupt_artifact_fault_quarantines_and_recomputes(tmp_path):
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path / "cache", metrics=metrics)
    with BatchScheduler(store, metrics=metrics, inline=True) as sched:
        req = AnalysisRequest("ora",
                              options={"fault": "corrupt-artifact"})
        job = sched.submit(req)
        assert job.state == "done", job.error
        assert metrics.counter("faults_corrupted") == 1
        # the poisoned entry is a miss (quarantined), never a crash
        assert store.get(job.key) is None
        assert metrics.counter("cache_corrupt") == 1
        # resubmitting recomputes instead of wedging on the corpse
        again = sched.submit(AnalysisRequest(
            "ora", options={"fault": "corrupt-artifact"}))
        assert again.state == "done" and again.id != job.id


# -- graceful degradation -----------------------------------------------------

def test_pool_rebuild_is_single_flight_under_mass_breakage(tmp_path):
    """One worker death breaks every in-flight future; the old code
    rebuilt the pool once per broken future.  Now: exactly one rebuild,
    and every survivor completes on the fresh pool."""
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=2,
                        retry_backoff_s=0.01) as sched:
        jobs = [sched.submit(AnalysisRequest(
                    "ora", options={"fault": "slow-start:0.3",
                                    "salt": str(i)}))
                for i in range(3)]
        jobs.append(sched.submit(AnalysisRequest(
            "ora", options={"fault": f"crash-once:{tmp_path / 'c'}"})))
        assert sched.wait(jobs, timeout=180)
    for job in jobs:
        assert job.state == "done", (job.id, job.error)
    assert metrics.counter("worker_crashes") == 1
    assert metrics.counter("pool_rebuilds") == 1, "rebuild storm!"


def test_circuit_breaker_falls_back_to_inline(tmp_path):
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=1,
                        breaker_threshold=1, breaker_cooldown_s=300.0,
                        retry_backoff_s=0.01) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": f"crash-once:{tmp_path / 'c'}"}))
        assert job.wait(120)
        assert job.state == "done", job.error
        assert metrics.counter("breaker_opened") == 1
        assert metrics.counter("jobs_inline_fallback") == 1
        # while open, new jobs keep degrading to inline — still served
        j2 = sched.submit(AnalysisRequest("track"))
        assert j2.wait(120) and j2.state == "done"
        assert metrics.counter("jobs_inline_fallback") == 2


def test_circuit_breaker_half_open_probe_closes(tmp_path):
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=1,
                        breaker_threshold=1, breaker_cooldown_s=0.0,
                        retry_backoff_s=0.01) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": f"crash-once:{tmp_path / 'c'}"}))
        assert job.wait(120)
    assert job.state == "done", job.error
    # cooldown elapsed instantly: the retry probed the pool and closed
    assert metrics.counter("breaker_closed") == 1
    assert metrics.counter("jobs_inline_fallback") == 0


def test_half_open_admits_exactly_one_probe():
    """When the cooldown expires the breaker half-opens for a *single*
    probe dispatch; concurrent dispatches keep degrading inline until
    the probe settles, so a burst cannot storm a possibly-bad pool."""
    with BatchScheduler(ArtifactStore(None), workers=1) as sched:
        shard, = sched.shards
        # force the breaker open with an already-expired cooldown
        with shard._lock:
            shard._breaker_open_until = time.monotonic() - 1.0
        assert shard._pool_allowed() is True      # the one probe
        assert shard._pool_allowed() is False     # everyone else: inline
        assert shard._pool_allowed() is False
        # probe settles in breakage: recycle clears the flag and re-arms
        with shard._lock:
            gen = shard._generation
        shard._get_pool()
        shard._recycle_pool(gen)
        assert shard._probing is False


def test_injected_fault_shares_content_key_with_clean_request():
    """``fault`` is a non-semantic option: an injected job must dedupe/
    cache under the same content address as its clean twin (and
    ``corrupt-artifact`` must poison a key clean requests actually
    read), and the directive must not leak into the artifact payload."""
    clean = AnalysisRequest("ora")
    faulted = AnalysisRequest("ora", options={"fault": "corrupt-artifact"})
    assert clean.key() == faulted.key()
    # directive never leaks into the recorded artifact payload (the
    # artifact shares its key — so must share its bytes — with the
    # clean twin's; slow-start is neutralized outside pool workers)
    from repro.service import execute_request
    with_fault = execute_request(AnalysisRequest(
        source=SRC, program_name="tiny",
        options={"fault": "slow-start:0.01"}))
    without = execute_request(AnalysisRequest(
        source=SRC, program_name="tiny"))
    assert "fault" not in with_fault["request"]["options"]
    assert canonical_json(with_fault) == canonical_json(without)


def test_chaos_corruption_hits_the_clean_cache_entry(tmp_path):
    """With fault excluded from the key, ``corrupt-artifact`` garbages
    the entry a subsequent *clean* request reads — the quarantine-and-
    recompute path is exercised by real traffic, not only by
    resubmitting the identical faulted request."""
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path / "cache", metrics=metrics)
    with BatchScheduler(store, metrics=metrics, inline=True) as sched:
        bad = sched.submit(AnalysisRequest(
            "ora", options={"fault": "corrupt-artifact"}))
        assert bad.state == "done", bad.error
        clean = sched.submit(AnalysisRequest("ora"))
        assert clean.state == "done", clean.error
        assert clean.key == bad.key
        assert not clean.cached                  # recomputed, not served
        assert metrics.counter("cache_corrupt") == 1
        # and the recomputed artifact is back in the store, readable
        assert store.get(clean.key) is not None


def test_finished_job_retention_is_bounded():
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics,
                        inline=True, max_jobs=3) as sched:
        jobs = [sched.submit(AnalysisRequest(
                    "ora", options={"salt": str(i)}))
                for i in range(6)]
        assert len(sched.jobs()) <= 3
        assert metrics.counter("jobs_evicted") >= 3
        # oldest finished jobs evicted → lookup is a miss (HTTP: 404)
        assert sched.job(jobs[0].id) is None
        # the newest job survives
        assert sched.job(jobs[-1].id) is jobs[-1]


# -- seeded chaos + the determinism contract ----------------------------------

def test_fault_plan_injected_scheduler_still_serves():
    metrics = ServiceMetrics()
    plan = FaultPlan({"transient": 0.5}, seed=3)
    with BatchScheduler(ArtifactStore(None), metrics=metrics, workers=2,
                        fault_plan=plan, retry_backoff_s=0.01) as sched:
        jobs = [sched.submit(AnalysisRequest(
                    "ora", options={"salt": str(i)})) for i in range(4)]
        assert sched.wait(jobs, timeout=180)
    for job in jobs:
        assert job.state == "done", (job.id, job.error)
    assert metrics.counter("faults_injected") >= 1
    assert plan.drawn >= 1


def test_batch_determinism_holds_under_crash_and_retry(tmp_path):
    """The acceptance bar: bit-identical batch-vs-sequential artifacts
    even when a worker crash forces a backoff retry mid-batch."""
    requests = [
        AnalysisRequest("ora"),
        AnalysisRequest("track",
                        options={"fault":
                                 f"crash-once:{tmp_path / 'c'}"}),
        AnalysisRequest("ear"),
    ]
    with BatchScheduler(ArtifactStore(tmp_path / "cache"), workers=2,
                        retry_backoff_s=0.01) as sched:
        pooled = sched.batch(requests, timeout=180)
    assert all(a is not None for a in pooled)
    # the crash-once marker is claimed, so the sequential reference
    # executes the identical requests without faulting
    sequential = run_sequential(requests)
    for got, want in zip(pooled, sequential):
        assert canonical_json(got) == canonical_json(want)


# -- the job lifecycle under chaos, through the HTTP server ------------------

_CHAOS_NAMES = ["ora", "track", "ear", "doduc", "dyfesm",
                "synth/s0-alias", "synth/s0-call", "synth/s0-deep"]


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_every_job_reaches_exactly_one_terminal_state_under_chaos(
        tmp_path, seed):
    """Seeded crashes and transient faults over a 2-shard pool server:
    every job's event stream is gapless and ends in exactly one terminal
    event, the /metrics taxonomies add up, and shutdown leaks neither a
    claim file nor a pool worker."""
    import multiprocessing
    import random
    import re
    cache = tmp_path / "cache"
    before = {p.pid for p in multiprocessing.active_children()}
    rng = random.Random(seed)
    with AnalysisServer(cache_dir=str(cache), workers=2, shards=2,
                        inject=f"crash=0.3,transient=0.2,seed={seed}",
                        default_deadline_s=120.0) as server:
        max_attempts = server.service.scheduler.shards[0].max_retries + 1
        job_ids = set()
        for _ in range(40):              # duplicates: dedupe + cache hits
            status, out = _call(server, "POST", "/jobs",
                                {"workload": rng.choice(_CHAOS_NAMES)})
            assert status == 202, out
            job_ids.add(out["job"]["id"])
        for job_id in sorted(job_ids):
            _poll_job(server, job_id)
            status, out = _call(server, "GET", f"/jobs/{job_id}/events")
            assert status == 200 and out["finished"]
            events = out["events"]
            assert [e["seq"] for e in events] == \
                list(range(1, len(events) + 1))
            names = " ".join(e["event"] for e in events)
            assert re.fullmatch(
                r"submitted( queued( running){1,%d})? (done|failed)"
                % max_attempts, names), (job_id, names)
        status, snap = _call(server, "GET", "/metrics")
        counters = snap["counters"]
        assert counters["faults_injected"] > 0   # the plan actually fired
        assert counters["jobs_submitted"] == len(job_ids) == (
            counters.get("jobs_completed", 0)
            + counters.get("jobs_failed", 0)
            + counters.get("jobs_served_cached", 0))
        assert sum(v for k, v in counters.items()
                   if k.startswith("failures_")
                   and k != "failures_total") == \
            counters.get("failures_total", 0) == \
            counters.get("jobs_failed", 0)
        assert counters.get("http_conn_errors", 0) == 0
        workers = {p.pid for p in multiprocessing.active_children()} \
            - before
        assert workers                           # the pools really ran
    assert not list(cache.rglob("*.claim"))
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = {p.pid for p in multiprocessing.active_children()} \
            - before
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"pool workers outlived stop(): {leaked}"
