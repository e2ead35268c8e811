"""The analysis service: artifact store, job scheduler, HTTP server.

Covers the PR-2 contracts: content-addressed keying (any change to
source / inputs / options / schema version misses), corruption
tolerance (truncated disk entry → recompute, never crash), in-flight
dedupe, worker-crash retry, and the determinism guarantee (process-pool
batch artifacts bit-identical to sequential in-process runs over ≥5
corpus workloads).
"""

import json
import os

import pytest

from repro.service import (AnalysisRequest, AnalysisServer, ArtifactStore,
                           BatchScheduler, ServiceMetrics, artifact_key,
                           canonical_json, execute_request, run_sequential)

#: Small corpus entries (sub-second each) used throughout.
SMALL = ["ora", "track", "ear", "doduc", "dyfesm"]

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


# -- content addressing -------------------------------------------------------

def test_key_is_stable_for_identical_requests():
    assert AnalysisRequest("ora").key() == AnalysisRequest("ora").key()
    a = AnalysisRequest(source=SRC, program_name="tiny").key()
    b = AnalysisRequest(source=SRC, program_name="tiny").key()
    assert a == b


def test_key_changes_with_source_inputs_options_and_schema():
    base = artifact_key(SRC, "tiny", [1.0], {"engine": "transpiled"})
    assert base != artifact_key(SRC + "\nC x", "tiny", [1.0],
                                {"engine": "transpiled"})
    assert base != artifact_key(SRC, "tiny", [2.0],
                                {"engine": "transpiled"})
    assert base != artifact_key(SRC, "tiny", [1.0], {"engine": "tree"})
    assert base != artifact_key(SRC, "tiny", [1.0],
                                {"engine": "transpiled"},
                                schema_version=999)


def test_request_requires_exactly_one_target():
    with pytest.raises(ValueError):
        AnalysisRequest()
    with pytest.raises(ValueError):
        AnalysisRequest("ora", source=SRC)


def test_unknown_workload_raises_helpful_keyerror():
    with pytest.raises(KeyError, match="choose from.*mdg"):
        AnalysisRequest("no-such-workload").key()


# -- artifact store -----------------------------------------------------------

def test_store_round_trip_memory_and_disk(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, {"x": 1})
    assert store.get("ab" * 32) == {"x": 1}          # memory hit
    store.clear_memory()
    assert store.get("ab" * 32) == {"x": 1}          # disk hit
    assert store.get("cd" * 32) is None              # miss
    assert ("ab" * 32) in store and len(store) == 1


def test_store_invalidation(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, {"x": 1})
    assert store.invalidate("ab" * 32)
    assert store.get("ab" * 32) is None
    assert not store.invalidate("ab" * 32)           # already gone


def test_store_tolerates_truncated_disk_entry(tmp_path):
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    key = "ab" * 32
    store.put(key, {"x": 1})
    store.clear_memory()
    path, = list(tmp_path.glob("*/*.json"))
    path.write_text(path.read_text()[:17])           # simulate torn write
    assert store.get(key) is None                    # miss, not a crash
    assert metrics.counter("cache_corrupt") == 1
    assert not path.exists()                         # quarantined
    store.put(key, {"x": 2})                         # recompute path works
    assert store.get(key) == {"x": 2}


def test_store_memory_lru_is_bounded():
    store = ArtifactStore(None, memory_capacity=2)   # memory-only
    for i in range(3):
        store.put(f"k{i}" * 16, {"i": i})
    assert store.get("k0" * 16) is None              # evicted
    assert store.get("k2" * 16) == {"i": 2}


def test_store_lru_eviction_order_is_least_recently_used():
    """Eviction must follow *use* recency, not insertion order: a get()
    refreshes the entry, so the untouched one is evicted first."""
    metrics = ServiceMetrics()
    store = ArtifactStore(None, memory_capacity=2, metrics=metrics)
    k0, k1, k2 = ("k0" * 16, "k1" * 16, "k2" * 16)
    store.put(k0, {"i": 0})
    store.put(k1, {"i": 1})
    assert store.get(k0) == {"i": 0}                 # refresh k0
    store.put(k2, {"i": 2})                          # evicts k1, not k0
    assert store.get(k1) is None
    assert store.get(k0) == {"i": 0}
    assert store.get(k2) == {"i": 2}
    assert metrics.counter("cache_evictions") == 1


def test_store_lru_re_put_refreshes_recency():
    """Re-storing an existing key must move it to most-recent, so the
    other entry is the eviction victim."""
    store = ArtifactStore(None, memory_capacity=2)
    k0, k1, k2 = ("k0" * 16, "k1" * 16, "k2" * 16)
    store.put(k0, {"i": 0})
    store.put(k1, {"i": 1})
    store.put(k0, {"i": 0})                          # refresh via put
    store.put(k2, {"i": 2})                          # evicts k1
    assert store.get(k1) is None
    assert store.get(k0) == {"i": 0}


def test_store_zero_capacity_disables_memory_layer(tmp_path):
    """memory_capacity=0 must not crash or evict-loop; disk still works."""
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, memory_capacity=0, metrics=metrics)
    key = "ab" * 32
    store.put(key, {"x": 1})
    assert store.stats()["memory_entries"] == 0
    assert store.get(key) == {"x": 1}                # served from disk
    assert metrics.counter("cache_hits_disk") == 1
    assert metrics.counter("cache_evictions") == 0


# -- executing requests -------------------------------------------------------

@pytest.fixture(scope="module")
def ora_artifact():
    return execute_request(AnalysisRequest("ora"))


def test_artifact_contains_every_product(ora_artifact):
    art = ora_artifact
    assert set(art) >= {"program", "plan", "profiles", "dyndep", "guru",
                        "slices", "metrics", "execution", "summary",
                        "request"}
    assert art["execution"]["speedup"] > 1.0
    assert art["program"]["name"] == "ora"
    assert any(row["parallel"] for row in art["plan"].values())
    json.dumps(art)                                  # fully serializable


def test_artifact_is_deterministic(ora_artifact):
    again = execute_request(AnalysisRequest("ora"))
    assert canonical_json(again) == canonical_json(ora_artifact)


def test_execute_rejects_unknown_machine():
    with pytest.raises(ValueError, match="unknown machine"):
        execute_request(AnalysisRequest("ora",
                                        options={"machine": "cray"}))


# -- scheduler ----------------------------------------------------------------

def test_scheduler_serves_repeats_from_cache(tmp_path):
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    with BatchScheduler(store, metrics=metrics, inline=True) as sched:
        first = sched.submit(AnalysisRequest("ora"))
        second = sched.submit(AnalysisRequest("ora"))
    assert first.state == "done" and not first.cached
    assert second.state == "done" and second.cached
    assert metrics.counter("jobs_served_cached") == 1


def test_warm_repeat_transpiled_job_skips_codegen(tmp_path):
    """First transpiled job pays codegen (``codegen_cache_miss``); a
    repeat of the same program (distinct salt, so the artifact cache
    can't serve it) reuses the generated modules and only the hit
    counter moves."""
    from repro.runtime.transpile import (reset_codegen_cache,
                                         set_codegen_store)
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    reset_codegen_cache()
    try:
        with BatchScheduler(store, metrics=metrics, inline=True) as sched:
            cold = sched.submit(AnalysisRequest(
                "ora", options={"engine": "transpiled", "salt": "cg1"}))
            assert cold.state == "done"
            misses = metrics.counter("codegen_cache_miss")
            assert misses >= 1, "cold transpiled job never ran codegen"
            warm = sched.submit(AnalysisRequest(
                "ora", options={"engine": "transpiled", "salt": "cg2"}))
            assert warm.state == "done" and not warm.cached
            assert metrics.counter("codegen_cache_hit") >= 1
            assert metrics.counter("codegen_cache_miss") == misses, (
                "warm repeat re-ran codegen")
    finally:
        set_codegen_store(None)
        reset_codegen_cache()


def test_scheduler_dedupes_identical_inflight_requests(monkeypatch):
    metrics = ServiceMetrics()
    sched = BatchScheduler(ArtifactStore(None), metrics=metrics)
    shard, = sched.shards
    monkeypatch.setattr(shard, "_dispatch", lambda job: None)  # hold queued
    a = sched.submit(AnalysisRequest("ora"))
    b = sched.submit(AnalysisRequest("ora"))
    assert a is b
    assert metrics.counter("jobs_deduped") == 1
    assert metrics.counter("jobs_submitted") == 1
    shard._finish_done(a, {"stub": True})            # release
    c = sched.submit(AnalysisRequest("ora"))
    assert c is not a and c.cached


def test_scheduler_marks_bad_source_failed():
    with BatchScheduler(ArtifactStore(None), inline=True) as sched:
        job = sched.submit(AnalysisRequest(source="THIS IS NOT FORTRAN",
                                           program_name="bad"))
        arts = [sched.artifact(job)]
    assert job.state == "failed"
    assert job.error
    assert arts == [None]


def test_scheduler_retries_after_worker_crash(tmp_path):
    marker = tmp_path / "crash-marker"
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(None), metrics=metrics,
                        workers=1) as sched:
        job = sched.submit(AnalysisRequest(
            "ora", options={"fault": f"crash-once:{marker}"}))
        assert job.wait(120)
    assert job.state == "done"
    assert job.attempts == 2
    assert metrics.counter("worker_crashes") == 1
    assert metrics.counter("jobs_retried") == 1


def test_job_lifecycle_dict():
    with BatchScheduler(ArtifactStore(None), inline=True) as sched:
        job = sched.submit(AnalysisRequest("ora"))
    d = job.to_dict()
    assert d["state"] == "done" and d["target"] == "ora"
    assert d["attempts"] == 1 and d["error"] is None
    assert len(d["key"]) == 64


# -- the determinism contract -------------------------------------------------

def test_pool_batch_bit_identical_to_sequential(tmp_path):
    """≥5 corpus workloads through the process pool == sequential runs."""
    requests = [AnalysisRequest(name) for name in SMALL]
    with BatchScheduler(ArtifactStore(tmp_path), workers=2) as sched:
        batch = sched.batch(requests, timeout=300)
    sequential = run_sequential([AnalysisRequest(n) for n in SMALL])
    assert all(batch)
    for name, got, want in zip(SMALL, batch, sequential):
        assert canonical_json(got) == canonical_json(want), \
            f"{name}: batch artifact drifted from the sequential oracle"


def test_warm_batch_is_all_cache_hits(tmp_path):
    store = ArtifactStore(tmp_path)
    with BatchScheduler(store, inline=True) as sched:
        sched.batch([AnalysisRequest(n) for n in SMALL[:2]])
    metrics = ServiceMetrics()
    warm_store = ArtifactStore(tmp_path, metrics=metrics)   # fresh LRU
    with BatchScheduler(warm_store, metrics=metrics, inline=True) as sched:
        jobs = [sched.submit(AnalysisRequest(n)) for n in SMALL[:2]]
    assert all(j.cached for j in jobs)
    assert metrics.counter("cache_misses") == 0


# -- HTTP server --------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    with AnalysisServer(inline=True, shards=2) as srv:  # port 0 → ephemeral
        yield srv


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


def test_server_job_round_trip(server):
    status, out = _call(server, "POST", "/jobs", {"workload": "ora"})
    assert status == 202
    job = out["job"]
    status, out = _call(server, "GET", f"/jobs/{job['id']}")
    assert status == 200 and out["job"]["state"] == "done"
    status, art = _call(server, "GET", f"/artifacts/{job['key']}")
    assert status == 200 and art["execution"]["speedup"] > 1.0
    # a second client asking the same question is served from the cache
    status, out = _call(server, "POST", "/jobs", {"workload": "ora"})
    assert status == 202 and out["job"]["cached"]


def test_server_corpus_and_metrics(server):
    status, out = _call(server, "GET", "/corpus")
    assert status == 200
    names = {w["name"] for w in out["workloads"]}
    assert {"mdg", "hydro", "ora"} <= names
    status, out = _call(server, "GET", "/metrics")
    assert status == 200
    assert "cache_hit_rate" in out and "counters" in out
    status, out = _call(server, "GET", "/healthz")
    assert status == 200 and out["ok"]


def test_server_error_paths(server):
    assert _call(server, "GET", "/jobs/job-999999")[0] == 404
    assert _call(server, "GET", "/artifacts/" + "0" * 64)[0] == 404
    assert _call(server, "GET", "/no/such/route")[0] == 404
    status, out = _call(server, "POST", "/jobs", {"workload": "nope"})
    assert status == 400 and "unknown workload" in out["error"]
    status, out = _call(server, "POST", "/jobs", {})
    assert status == 400


def test_server_rejects_removed_engine_names_and_non_boolean_flags(server):
    """Exactly two engine names exist; every retired spelling is a 400
    that lists them (an alias would give one computation two content
    keys).  ``use_liveness`` / ``use_reductions`` / ``assertions`` are
    booleans: the string ``"no"`` must not be accepted and silently mean
    ``True``; a misspelt ``liveness_variant`` is a 400, not a failed job."""
    for name in ("compiled", "closure", "codegen", "interp",
                 "interpreter", "oracle"):
        status, out = _call(server, "POST", "/jobs",
                            {"workload": "ora",
                             "options": {"engine": name}})
        assert status == 400, name
        assert "'transpiled', 'tree'" in out["error"], out["error"]
    for flag in ("use_liveness", "use_reductions", "assertions"):
        for bad in ("no", 0.5, [], None):
            status, out = _call(server, "POST", "/jobs",
                                {"workload": "ora",
                                 "options": {flag: bad}})
            assert status == 400, (flag, bad)
            assert f"{flag} must be a boolean" in out["error"]
    for bad in ("onebit", "FULL", 1, None):
        status, out = _call(server, "POST", "/jobs",
                            {"workload": "ora",
                             "options": {"liveness_variant": bad}})
        assert status == 400, bad
        assert "'full', 'one_bit', 'flow_insensitive'" in out["error"]
    status, out = _call(server, "POST", "/jobs",
                        {"workload": "ora",
                         "options": {"use_liveness": False,
                                     "use_reductions": False,
                                     "liveness_variant": "one_bit"}})
    assert status == 202


def test_default_engine_is_the_one_recorded_and_traced():
    """One merged default: the engine a bare request runs on is the one
    its artifact records and its root span reports, next to the label
    of the run behind each of the three dynamic results — one fused
    run, then the ``cost`` aspect alone after a re-plan."""
    from repro.obs import Tracer, activate
    tracer = Tracer()
    with activate(tracer):
        artifact = execute_request(AnalysisRequest("ora"))
    assert artifact["request"]["options"]["engine"] == "transpiled"
    assert AnalysisRequest("ora").key() == \
        AnalysisRequest("ora", options={"engine": "transpiled"}).key()
    root = [sp for sp in tracer.to_dicts()
            if sp["name"] == "execute_request"][0]["tags"]
    assert root["engine"] == "transpiled"
    fused = "transpiled/profile+dyndep+cost"
    assert (root["profile_engine"], root["dyndep_engine"],
            root["simexec_engine"]) == (fused, fused, fused)
    tracer = Tracer()
    with activate(tracer):
        execute_request(AnalysisRequest("mdg",
                                        options={"assertions": True}))
    root = [sp for sp in tracer.to_dicts()
            if sp["name"] == "execute_request"][0]["tags"]
    assert (root["profile_engine"], root["dyndep_engine"],
            root["simexec_engine"]) == (fused, fused, "transpiled/cost")


# -- cross-process claim protocol ---------------------------------------------

def test_claim_acquire_release_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "ab" * 32
    assert store.claim(key)
    info = store.claim_info(key)
    assert info["pid"] == os.getpid()
    # held claims (live pid) are not re-acquirable, even by ourselves:
    # in-process single-flight belongs to the scheduler's dedupe table
    assert not store.claim(key)
    store.release(key)
    assert store.claim_info(key) is None
    assert store.claim(key)                          # reusable after release
    store.release(key)


def test_memory_only_store_claims_trivially():
    store = ArtifactStore(None)
    assert store.claim("ab" * 32)
    store.release("ab" * 32)                         # no-op, no crash


def test_stale_claim_from_dead_pid_is_broken_and_quarantined(tmp_path):
    import subprocess
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    key = "cd" * 32
    # fabricate a claim owned by a pid that is provably dead
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    path = store._claim_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"pid": proc.pid, "acquired_at": 0.0}))
    # the breaker acquires despite the existing file...
    assert store.claim(key)
    assert store.claim_info(key)["pid"] == os.getpid()
    # ...and the dead claim was quarantined by rename, never unlinked
    stale = list(path.parent.glob("*.stale.*"))
    assert len(stale) == 1
    assert metrics.counter("claims_stale_broken") == 1
    assert metrics.counter("claims_acquired") == 1
    store.release(key)


def test_stale_claim_never_blocks_computation(tmp_path):
    """A scheduler hitting a dead process's claim must break it and
    compute — not park forever on a corpse."""
    import subprocess
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    request = AnalysisRequest("ora")
    key = request.key()
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    path = store._claim_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"pid": proc.pid, "acquired_at": 0.0}))
    with BatchScheduler(store, metrics=metrics, inline=True) as sched:
        job = sched.submit(request)
        assert sched.wait([job], timeout=120)
        assert job.state == "done" and not job.cached
    assert metrics.counter("claims_stale_broken") == 1
    assert metrics.counter("artifacts_computed") == 1


def test_live_remote_claim_parks_job_until_artifact_lands(tmp_path):
    """A claim held by another *live* process parks the local job; when
    the artifact appears in the shared store (and the claim is
    released), the claim waiter settles the job without recomputing."""
    import subprocess
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    request = AnalysisRequest("ora")
    key = request.key()
    artifact = execute_request(request)
    # a live foreign owner: a sleeping child process
    proc = subprocess.Popen(["sleep", "60"])
    try:
        path = store._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"pid": proc.pid,
                                    "acquired_at": 0.0}))
        with BatchScheduler(store, metrics=metrics, inline=True,
                            claim_poll_s=0.01) as sched:
            job = sched.submit(request)
            assert job.state == "queued"             # parked, not running
            assert metrics.counter("jobs_remote_waited") == 1
            # the "other process" finishes: put artifact, release claim
            ArtifactStore(tmp_path).put(key, artifact)
            path.unlink()
            assert sched.wait([job], timeout=30)
            assert job.state == "done" and job.cached
            assert sched.artifact(job) == artifact
    finally:
        proc.kill()
        proc.wait()
    assert metrics.counter("jobs_remote_served") == 1
    assert metrics.counter("artifacts_computed") == 0


def test_two_process_single_flight_computes_exactly_once(tmp_path):
    """Two real server processes share one cache dir; 64 HTTP clients,
    split between them, all ask for the same cold key at once.  The
    claim file must make exactly one process compute it, and every
    client must fetch byte-identical artifact bytes."""
    import select
    import subprocess
    import sys
    import threading
    import time
    import types
    import urllib.request
    child = (
        "import sys\n"
        "from repro.service import AnalysisServer\n"
        "srv = AnalysisServer(cache_dir=sys.argv[1], shards=2, inline=True)\n"
        "srv.start()\n"
        "print(srv.url, flush=True)\n"
        "sys.stdin.read()\n"
        "srv.stop()\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen([sys.executable, "-c", child, str(tmp_path)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              env=env, text=True)
             for _ in range(2)]
    responses, errors = [None] * 64, [None] * 64

    def client(i):
        server = servers[i % 2]
        try:
            job = _call(server, "POST", "/jobs",
                        {"workload": "ora"})[1]["job"]
            deadline = time.time() + 120
            while job["state"] not in ("done", "failed") and \
                    time.time() < deadline:
                time.sleep(0.05)
                job = _call(server, "GET", f"/jobs/{job['id']}")[1]["job"]
            with urllib.request.urlopen(
                    f"{server.url}/artifacts/{job['key']}",
                    timeout=60) as resp:
                responses[i] = resp.read()
        except Exception as exc:            # shown by the assertion below
            errors[i] = repr(exc)

    try:
        servers = []
        for proc in procs:
            ready = select.select([proc.stdout], [], [], 60)[0]
            url = proc.stdout.readline().strip() if ready else ""
            assert url and proc.poll() is None, "a server did not start"
            servers.append(types.SimpleNamespace(url=url))
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(responses))]
        for t in threads:
            t.start()
        end = time.time() + 300
        for t in threads:
            t.join(max(0.0, end - time.time()))
        computed = sum(_call(server, "GET", "/metrics")[1]["counters"]
                       .get("artifacts_computed", 0) for server in servers)
    finally:
        for proc in procs:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    assert None not in responses and len(set(responses)) == 1, \
        sorted({e for e in errors if e})
    assert computed == 1                                # exactly once


# -- admission control --------------------------------------------------------

def test_queue_full_sheds_new_work_but_admits_dedupe_and_hits(tmp_path):
    from repro.service import QueueFull
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    with BatchScheduler(store, metrics=metrics, workers=1,
                        max_queue=1) as sched:
        slow = AnalysisRequest("ora",
                               options={"fault": "slow-start:1.0"})
        job = sched.submit(slow)                     # fills the queue
        with pytest.raises(QueueFull) as exc:
            sched.submit(AnalysisRequest("track"))   # new key: shed
        assert exc.value.retry_after_s > 0
        assert metrics.counter("shed_total") == 1
        assert metrics.counter("shed_queue_full") == 1
        # identical in-flight request dedupes — always admitted
        again = sched.submit(AnalysisRequest(
            "ora", options={"fault": "slow-start:1.0"}))
        assert again is job
        assert sched.wait([job], timeout=120)
        # queue drained: new work admitted again
        ok = sched.submit(AnalysisRequest("ora"))    # cache hit path
        assert ok.state == "done" and ok.cached


def test_queue_full_maps_to_429_with_retry_after():
    from repro.service import AnalysisService
    service = AnalysisService(inline=True, max_queue=0)
    try:
        status, payload = service.handle_post("/jobs",
                                              {"workload": "ora"})
        assert status == 429
        assert payload["retry_after_s"] > 0
        assert "queue full" in payload["error"]
    finally:
        service.close()


# -- sharded scheduler --------------------------------------------------------

def test_shard_of_is_deterministic_and_in_range():
    from repro.service import shard_of
    keys = [artifact_key(SRC, f"p{i}", [1.0], {}) for i in range(64)]
    for key in keys:
        shard = shard_of(key, 4)
        assert 0 <= shard < 4
        assert shard == shard_of(key, 4)
    # keys spread over shards (sha256 uniformity; 64 keys, 4 shards)
    assert len({shard_of(k, 4) for k in keys}) == 4


def test_sharded_scheduler_routes_dedupes_and_merges(tmp_path):
    from repro.service import request_key, shard_of
    metrics = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=metrics)
    with BatchScheduler(store, shards=2, metrics=metrics,
                        inline=True) as sched:
        reqs = [AnalysisRequest(n) for n in ("ora", "track", "ear")]
        jobs = [sched.submit(r) for r in reqs]
        assert sched.wait(jobs, timeout=300)
        for req, job in zip(reqs, jobs):
            assert job.state == "done"
            # routed by content key
            assert job.shard == shard_of(request_key(req), 2)
            # fan-in queries find jobs on any shard
            assert sched.job(job.id) is job
            assert sched.artifact(job) is not None
        # identical resubmit dedupes/caches on the same shard
        again = sched.submit(AnalysisRequest("ora"))
        assert again.state == "done" and again.cached
        assert again.shard == jobs[0].shard
        assert [j.id for j in sched.jobs()] == \
            sorted(j.id for j in list(jobs) + [again])
        stats = sched.shard_stats()
        assert [s["shard"] for s in stats] == [0, 1]
        assert all(s["queue_depth"] == 0 for s in stats)
    gauges = metrics.snapshot()["gauges"]
    assert "queue_depth_shard_0" in gauges or \
        "queue_depth_shard_1" in gauges
    assert "queue_depth" not in gauges               # no clobbered global


def test_sharded_artifacts_bit_identical_to_sequential(tmp_path):
    reqs = [AnalysisRequest(n) for n in SMALL[:3]]
    expected = run_sequential([AnalysisRequest(n) for n in SMALL[:3]])
    with BatchScheduler(ArtifactStore(tmp_path), shards=3,
                        inline=True) as sched:
        got = sched.batch(reqs, timeout=600)
    for art, ref in zip(got, expected):
        assert canonical_json(art) == canonical_json(ref)


# -- job progress events ------------------------------------------------------

def test_job_events_sequence_and_terminal_ordering(tmp_path):
    metrics = ServiceMetrics()
    with BatchScheduler(ArtifactStore(tmp_path), metrics=metrics,
                        inline=True) as sched:
        job = sched.submit(AnalysisRequest("ora"))
        assert sched.wait([job], timeout=120)
    names = [e["event"] for e in job.events_after(0)]
    assert names == ["submitted", "queued", "running", "done"]
    seqs = [e["seq"] for e in job.events_after(0)]
    assert seqs == [1, 2, 3, 4]
    # a reader that saw seq 2 resumes with only the missing tail
    tail = job.events_after(2)
    assert [e["event"] for e in tail] == ["running", "done"]
    # terminal invariant: finished implies the terminal event is visible
    assert job.finished and names[-1] == "done"
    assert job.to_dict()["finished_at"] is not None


# -- metrics consistency ------------------------------------------------------

def test_metrics_snapshot_is_consistent_under_concurrent_writers():
    """Failure/shed taxonomy buckets must always sum to their totals in
    any snapshot taken while writer threads hammer the counters."""
    import threading
    metrics = ServiceMetrics()
    stop = threading.Event()

    def writer(kind):
        while not stop.is_set():
            metrics.incr_failure(kind)
            metrics.incr_shed(kind)

    threads = [threading.Thread(target=writer, args=(k,), daemon=True)
               for k in ("crash", "deadline", "transient", "error")]
    for t in threads:
        t.start()
    try:
        for _ in range(200):
            snap = metrics.snapshot()["counters"]
            fails = sum(v for k, v in snap.items()
                        if k.startswith("failures_")
                        and k != "failures_total")
            sheds = sum(v for k, v in snap.items()
                        if k.startswith("shed_") and k != "shed_total")
            assert fails == snap.get("failures_total", 0)
            assert sheds == snap.get("shed_total", 0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5)


# -- cross-job proc cache reuse -----------------------------------------------

def test_full_jobs_reuse_proc_cache_across_schedulers(tmp_path, monkeypatch):
    """A second server process (fresh scheduler, same cache dir) running
    a *full* execution job must hit the per-procedure cache the first
    one filled — and produce a bit-identical artifact.  What a warm
    store buys a full job is pinned by counts: planning needs live
    ``LoopPlan``s, so every procedure is still planned, but each one's
    liveness context (the after-proc summary — trivially empty for the
    caller-less main, the caller-chain walk for everything else) is
    loaded instead of computed."""
    from repro.analysis.liveness import ArrayLiveness
    from repro.ir.callgraph import CallGraph
    from repro.obs import Tracer
    from repro.workloads import get
    computed = []
    compute = ArrayLiveness._compute_after_proc
    monkeypatch.setattr(
        ArrayLiveness, "_compute_after_proc",
        lambda self, name: computed.append(name) or compute(self, name))
    program = get("mdg").build()
    callgraph = CallGraph(program)
    called = {p for p in program.procedures if callgraph.sites_calling(p)}
    assert len(called) == len(program.procedures) - 1

    ref = execute_request(AnalysisRequest("mdg"))    # cache-less reference
    del computed[:]
    cold = ServiceMetrics()
    with BatchScheduler(ArtifactStore(tmp_path, metrics=cold),
                        metrics=cold, inline=True) as sched:
        job = sched.submit(AnalysisRequest("mdg"))
        assert sched.wait([job], timeout=120)
        first = sched.artifact(job)
    assert cold.counter("proc_cache_miss") > 0
    assert cold.counter("proc_cache_hit") == 0
    assert sorted(computed) == sorted(program.procedures)
    del computed[:]
    warm = ServiceMetrics()
    store = ArtifactStore(tmp_path, metrics=warm)
    store.clear()              # drop job artifacts; proc/ subtree remains
    with BatchScheduler(store, metrics=warm, inline=True,
                        tracer=Tracer()) as sched:
        job = sched.submit(AnalysisRequest("mdg"))
        assert sched.wait([job], timeout=120)
        second = sched.artifact(job)
        assert not job.cached                        # actually recomputed
        spans = sched.trace(job.id)
    reused = [s["tags"]["proc"] for s in spans if s["name"] == "incr.reuse"
              and s["tags"]["kind"] == "after"]
    assert sorted(reused) == sorted(program.procedures) and \
        called <= set(reused)
    assert computed == []
    assert warm.counter("proc_cache_hit") == len(program.procedures)
    assert canonical_json(first) == canonical_json(second) \
        == canonical_json(ref)


# -- shards, progress events and shedding over HTTP ---------------------------

def test_async_server_api_is_byte_compatible(server):
    status, out = _call(server, "GET", "/healthz")
    assert (status, out) == (200, {"ok": True})
    status, out = _call(server, "POST", "/jobs", {"workload": "ora"})
    assert status == 202
    job = out["job"]
    assert job["state"] == "done" and job["shard"] in (0, 1)
    status, out = _call(server, "GET", f"/jobs/{job['id']}")
    assert status == 200 and out["artifact_ready"]
    status, art = _call(server, "GET", f"/artifacts/{job['key']}")
    assert status == 200 and art["execution"]["speedup"] > 1.0
    status, out = _call(server, "GET", "/corpus")
    assert status == 200
    assert {"mdg", "hydro", "ora"} <= {w["name"] for w in out["workloads"]}
    status, out = _call(server, "GET", "/metrics")
    assert status == 200 and "cache_hit_rate" in out
    assert [s["shard"] for s in out["shards"]] == [0, 1]
    assert _call(server, "GET", "/jobs/job-999999")[0] == 404
    assert _call(server, "GET", "/no/such/route")[0] == 404
    status, out = _call(server, "POST", "/jobs", {"workload": "nope"})
    assert status == 400 and "unknown workload" in out["error"]


def test_async_server_events_snapshot_and_after(server):
    status, out = _call(server, "POST", "/jobs", {"workload": "track"})
    assert status == 202
    jid = out["job"]["id"]
    status, out = _call(server, "GET", f"/jobs/{jid}/events")
    assert status == 200 and out["finished"]
    names = [e["event"] for e in out["events"]]
    assert names[0] == "submitted" and names[-1] in ("done", "failed")
    seq = out["events"][1]["seq"]
    status, out = _call(server, "GET",
                        f"/jobs/{jid}/events?after={seq}")
    assert status == 200
    assert all(e["seq"] > seq for e in out["events"])


def test_async_server_streams_sse_events(server):
    import http.client
    status, out = _call(server, "POST", "/jobs", {"workload": "ora"})
    jid = out["job"]["id"]
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=30)
    try:
        conn.request("GET", f"/jobs/{jid}/events",
                     headers={"Accept": "text/event-stream"})
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "text/event-stream"
        body = resp.read().decode()
    finally:
        conn.close()
    frames = [json.loads(line[6:]) for line in body.splitlines()
              if line.startswith("data: ") and line != "data: {}"]
    names = [f["event"] for f in frames]
    assert names[0] == "submitted" and names[-1] == "done"
    assert [f["seq"] for f in frames] == \
        sorted(f["seq"] for f in frames)
    assert "event: end" in body


def test_async_server_sheds_with_429_and_retry_after():
    import http.client
    with AnalysisServer(inline=True, shards=2, max_queue=0) as srv:
        conn = http.client.HTTPConnection(srv.host, srv.port,
                                          timeout=30)
        try:
            conn.request("POST", "/jobs",
                         body=json.dumps({"workload": "ora"}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 429
            assert int(resp.getheader("Retry-After")) >= 1
            payload = json.loads(resp.read())
            assert payload["retry_after_s"] > 0
        finally:
            conn.close()
        assert srv.service.metrics.counter("shed_total") == 1


# -- the HTTP boundary --------------------------------------------------------

def _raw_exchange(server, payload: bytes, timeout: float = 30.0):
    """Send raw bytes on a fresh socket; return ``(status, headers,
    body)`` of the first response (a reset after a complete response is
    the server closing on unread input, not a failure)."""
    import socket
    data = b""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        while True:
            head, sep, rest = data.partition(b"\r\n\r\n")
            if sep:
                lines = head.decode("latin-1").split("\r\n")
                headers = {k.strip().lower(): v.strip() for k, _, v in
                           (line.partition(":") for line in lines[1:])}
                if len(rest) >= int(headers["content-length"]):
                    break
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                chunk = b""
            assert chunk, f"connection closed mid-response: {data!r}"
            data += chunk
    status = int(lines[0].split(" ", 2)[1])
    return status, headers, rest[:int(headers["content-length"])]


def _post_bytes(body: bytes, *extra_headers: str,
                length: object = None) -> bytes:
    head = ["POST /jobs HTTP/1.1", "Host: x",
            f"Content-Length: {len(body) if length is None else length}",
            *extra_headers]
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body


_DEEP = b'{"workload": "ora", "options": ' + b"[" * 200_000 + \
    b"]" * 200_000 + b"}"

_MALFORMED = {
    # name: (raw request bytes, expected status, connection closes)
    "deep-json": (_post_bytes(_DEEP), 400, False),
    "bad-length": (_post_bytes(b"{}", length="abc"), 400, True),
    "negative-length": (_post_bytes(b"{}", length=-5), 400, True),
    "chunked": (b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"12\r\n{\"workload\": \"ora\"}\r\n0\r\n\r\n", 411, True),
    "stalled-body": (_post_bytes(b'{"work', length=100), 408, True),
    "non-utf8": (_post_bytes(b'{"workload": "\xff\xfe"}'), 400, False),
    "oversize": (_post_bytes(b"", length=5 * 1024 * 1024), 413, True),
    "bad-method": (b"PUT /jobs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 0\r\n\r\n", 405, False),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_http_boundary_rejects_malformed_requests(server, monkeypatch,
                                                  case):
    """Every malformed request ends in a 4xx with a JSON error body —
    never a 5xx, an empty reply or a held connection — and the server
    keeps answering afterwards."""
    from repro.service import server as server_mod
    monkeypatch.setattr(server_mod, "_BODY_TIMEOUT_S", 0.3)
    payload, want, closes = _MALFORMED[case]
    errors_before = server.service.metrics.counter("http_conn_errors")
    status, headers, body = _raw_exchange(server, payload)
    assert status == want and 400 <= status < 500
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]
    assert (headers["connection"] == "close") == closes
    assert _call(server, "GET", "/healthz") == (200, {"ok": True})
    assert server.service.metrics.counter("http_conn_errors") == \
        errors_before


def test_idle_keep_alive_connection_outlives_the_body_timeout(
        server, monkeypatch):
    """The body timeout bounds a *declared body*, never the idle gap
    between two requests on one keep-alive connection."""
    import http.client
    import time
    from repro.service import server as server_mod
    monkeypatch.setattr(server_mod, "_BODY_TIMEOUT_S", 0.1)
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=30)
    try:
        socks = []
        for _ in range(2):
            conn.request("POST", "/jobs",
                         body=json.dumps({"workload": "ora"}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 202
            resp.read()
            socks.append(conn.sock)
            time.sleep(0.3)                   # idle past the body timeout
        assert socks[0] is socks[1]           # never reconnected
    finally:
        conn.close()
