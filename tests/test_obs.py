"""The observability layer: tracer core, exporters, and its contracts.

The three promises DESIGN.md makes for tracing are asserted here:

* **structure** — spans nest correctly (parent linkage, start ordering),
  survive the (de)serialization round-trip, and export to schema-valid
  Chrome ``trace_event`` JSON;
* **non-perturbation** — artifacts from traced runs are byte-identical
  to untraced runs across ≥5 corpus workloads, in-process and through
  the process pool;
* **near-zero disabled cost** — the NULL tracer allocates nothing per
  span and a phase's worth of disabled instrumentation is unmeasurable
  against the perf budget.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import (NULL_TRACER, PHASES, NullTracer, Tracer, activate,
                       get_tracer, phase_totals, render_tree, set_tracer,
                       span_index, to_chrome)
from repro.service import (AnalysisRequest, AnalysisServer, BatchScheduler,
                           ServiceMetrics, canonical_json, execute_request)
from repro.workloads import get

#: Small, fast corpus entries for the bit-identity sweep (≥5 workloads).
SMALL = ["ora", "track", "ear", "doduc", "dyfesm"]


# -- span mechanics ----------------------------------------------------------

def test_span_nesting_records_parent_linkage():
    tracer = Tracer()
    with tracer.span("outer", program="p") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                pass
        with tracer.span("sibling") as sibling:
            pass
    assert middle.parent_id == outer.span_id
    assert inner.parent_id == middle.span_id
    assert sibling.parent_id == outer.span_id
    assert outer.parent_id is None


def test_finished_spans_are_in_start_order():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    names = [s.name for s in tracer.finished_spans()]
    assert names == ["a", "b", "c"]      # start order, not finish order


def test_span_records_duration_and_tags():
    tracer = Tracer()
    with tracer.span("work", phase=1) as sp:
        time.sleep(0.01)
        sp.tag(items=3)
    done = tracer.finished_spans()[0]
    assert done.duration_s >= 0.009
    assert done.tags == {"phase": 1, "items": 3}


def test_span_dict_round_trip():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", k="v"):
            pass
    dicts = tracer.to_dicts()
    other = Tracer()
    other.adopt(dicts)
    again = other.to_dicts()
    for a, b in zip(dicts, again):
        assert a == b


def test_exception_inside_span_still_finishes_it():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    names = {s.name for s in tracer.finished_spans()}
    assert names == {"outer", "inner"}
    assert tracer.current() is None      # stack fully unwound


def test_activation_is_scoped_and_restores_previous():
    assert get_tracer() is NULL_TRACER
    outer, inner = Tracer(), Tracer()
    with activate(outer):
        assert get_tracer() is outer
        with activate(inner):
            assert get_tracer() is inner
        assert get_tracer() is outer
    assert get_tracer() is NULL_TRACER


def test_activation_is_thread_local():
    tracer = Tracer()
    seen = {}

    def probe():
        seen["other"] = get_tracer()

    with activate(tracer):
        t = threading.Thread(target=probe)
        t.start()
        t.join()
        assert get_tracer() is tracer
    assert seen["other"] is NULL_TRACER


def test_concurrent_threads_keep_independent_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2)
    errors = []

    def worker(name):
        try:
            with activate(tracer):
                with tracer.span(name) as sp:
                    barrier.wait(timeout=5)
                    assert tracer.current() is sp
        except Exception as exc:         # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(f"t{i}",))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert {s.name for s in tracer.finished_spans()} == {"t0", "t1"}


def test_export_context_parents_child_roots_onto_current_span():
    parent = Tracer()
    with parent.span("submit") as sp:
        ctx = parent.export_context()
    child = Tracer.from_context(ctx)
    assert child.trace_id == parent.trace_id
    with child.span("job"):
        pass
    job = child.finished_spans()[0]
    assert job.parent_id == sp.span_id


# -- the disabled fast path --------------------------------------------------

def test_null_tracer_is_allocation_free_and_silent():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled
    spans = {id(NULL_TRACER.span("a")), id(NULL_TRACER.span("b", k=1))}
    assert len(spans) == 1               # one shared no-op span object
    with NULL_TRACER.span("phase") as sp:
        sp.tag(ops=123)
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.to_dicts() == []
    assert NULL_TRACER.export_context() is None
    assert NullTracer.from_context(None) is NULL_TRACER


def test_disabled_tracing_overhead_smoke():
    """10k disabled phase-spans must cost well under the perf budget.

    This fast canary, with a deliberately generous bound, is the only
    check of tracing overhead; a real gate is ROADMAP item 2(c), open."""
    t0 = time.perf_counter()
    for _ in range(10_000):
        with get_tracer().span("phase") as sp:
            sp.tag(x=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"10k disabled spans took {elapsed:.3f}s"


# -- exporters ---------------------------------------------------------------

def _pipeline_trace(workload="ora", **options):
    tracer = Tracer()
    with activate(tracer):
        execute_request(AnalysisRequest(workload, options=options))
    return tracer


def test_chrome_export_schema_is_valid():
    tracer = _pipeline_trace()
    doc = to_chrome(tracer.to_dicts())
    # survives a JSON round trip, the format consumers require
    doc = json.loads(json.dumps(doc))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert complete and meta
    for e in complete:
        assert isinstance(e["ts"], int) and isinstance(e["dur"], int)
        assert e["dur"] >= 1
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert e["cat"] == "repro"
        assert "span_id" in e["args"]
    for e in meta:
        assert e["name"] in ("process_name", "thread_name")
    names = {e["name"] for e in complete}
    assert {"parse", "build", "instrument", "guru",
            "execute_request"} <= names
    assert names <= set(PHASES) | {"parallelize", "execute", "codegen",
                                   "parallel_exec", "snapshot", "slice"}


def test_chrome_export_names_shard_lanes():
    """Submit spans tagged with a shard id surface as named lanes in
    the Chrome export, so per-shard load reads off the timeline."""
    from repro.service import ArtifactStore
    tracer = Tracer()
    with BatchScheduler(ArtifactStore(None), shards=2, inline=True,
                        tracer=tracer) as sched:
        jobs = [sched.submit(AnalysisRequest(n))
                for n in ("ora", "track", "ear")]
        assert sched.wait(jobs, timeout=120)
        shards_hit = {j.shard for j in jobs}
    spans = tracer.to_dicts()
    tagged = {s["tags"]["shard"] for s in spans
              if s["name"] == "submit" and "shard" in (s["tags"] or {})}
    assert tagged == shards_hit
    doc = to_chrome(spans)
    lanes = {e["args"]["name"] for e in doc["traceEvents"]
             if e["name"] == "thread_name"}
    assert lanes and lanes <= {f"shard-{i}" for i in shards_hit}


def test_pipeline_spans_nest_under_execute_request():
    # slicing is demand-driven now: ask for the guru targets' slices
    tracer = _pipeline_trace("mdg", slice=["targets"])
    spans = tracer.to_dicts()
    idx = span_index(spans)
    roots = [s for s in spans if s["parent_id"] is None]
    assert [r["name"] for r in roots] == ["execute_request"]
    for s in spans:
        if s["parent_id"] is not None:
            assert s["parent_id"] in idx
    # mdg has Guru targets, so the slice phase must appear
    assert "slice" in {s["name"] for s in spans}
    # parse nests under build
    parse = next(s for s in spans if s["name"] == "parse")
    assert idx[parse["parent_id"]]["name"] == "build"
    # the static analysis is not one opaque span: on a cold store each
    # planned procedure has its own incr.cone child under parallelize
    cones = [s for s in spans if s["name"] == "incr.cone"]
    assert sorted(s["tags"]["proc"] for s in cones) == \
        sorted(get("mdg").build().procedures)
    assert {idx[s["parent_id"]]["name"] for s in cones} == {"parallelize"}
    # ... and says what it asked of Fourier-Motzkin: all of the
    # parallelize span's emptiness work happens inside the cones
    par = next(s for s in spans if s["name"] == "parallelize")
    for tag in ("fm_queries", "fm_hits", "fm_steps"):
        assert sum(s["tags"][tag] for s in cones) == par["tags"][tag]
    assert 0 < par["tags"]["fm_hits"] < par["tags"]["fm_queries"]
    assert par["tags"]["fm_steps"] > 0
    # the dynamic side is one instrumented run - one generated module,
    # one execution - that says what it carried and which path ran;
    # parallel_exec after it only prices the measured regions
    phases = [s["name"] for s in spans
              if idx.get(s["parent_id"], {}).get("name")
              == "execute_request"]
    assert phases[phases.index("parallelize"):][:4] == \
        ["parallelize", "instrument", "guru", "parallel_exec"]
    run = next(s for s in spans if s["name"] == "instrument")
    assert sorted(s["name"] for s in spans
                  if s["parent_id"] == run["span_id"]) == \
        ["codegen", "execute"]
    fused = "profile+dyndep+cost"
    assert run["tags"]["aspects"] == fused
    assert run["tags"]["engine_variant"] == f"transpiled/{fused}"
    assert {"ops", "loops", "carried_loops", "carried_total",
            "sampled_accesses", "skipped_accesses", "regions"} \
        <= set(run["tags"])
    pricing = next(s for s in spans if s["name"] == "parallel_exec")
    assert not [s for s in spans if s["parent_id"] == pricing["span_id"]]
    assert pricing["tags"]["engine_variant"] == f"transpiled/{fused}"
    assert "speedup" in pricing["tags"]


def test_render_tree_and_phase_totals():
    tracer = _pipeline_trace()
    spans = tracer.to_dicts()
    lines = render_tree(spans)
    assert len(lines) == len(spans)
    assert lines[0].startswith("execute_request")
    assert any("└─" in line for line in lines)
    totals = phase_totals(spans)
    assert totals["execute_request"]["count"] == 1
    # one instrumented run per job: one module generated, one execution
    assert totals["instrument"]["count"] == 1
    assert totals["codegen"]["count"] == totals["execute"]["count"] == 1
    # the root span covers every phase, so it dominates totals
    assert totals["execute_request"]["total_s"] >= \
        totals["parse"]["total_s"]


def test_render_tree_min_ms_filters():
    tracer = Tracer()
    with tracer.span("root"):
        pass
    assert render_tree(tracer.to_dicts(), min_ms=1e6) == []


# -- the non-perturbation contract -------------------------------------------

@pytest.mark.parametrize("workload", SMALL)
def test_traced_artifacts_bit_identical_to_untraced(workload):
    request = AnalysisRequest(workload)
    untraced = execute_request(request)
    tracer = Tracer()
    with activate(tracer):
        traced = execute_request(AnalysisRequest(workload))
    assert tracer.finished_spans(), "tracer saw no spans"
    assert canonical_json(traced) == canonical_json(untraced)


def test_pool_traced_artifacts_bit_identical_to_untraced():
    names = SMALL[:3]
    untraced = [execute_request(AnalysisRequest(n)) for n in names]
    tracer = Tracer()
    with BatchScheduler(workers=2, tracer=tracer) as scheduler:
        arts = scheduler.batch([AnalysisRequest(n) for n in names])
    assert [canonical_json(a) for a in arts] == \
        [canonical_json(u) for u in untraced]


# -- trace flow through the scheduler ----------------------------------------

def test_inline_scheduler_records_per_job_trace():
    metrics = ServiceMetrics()
    scheduler = BatchScheduler(inline=True, metrics=metrics,
                               tracer=Tracer())
    job = scheduler.submit(AnalysisRequest("ora"))
    assert job.state == "done"
    spans = scheduler.trace(job.id)
    assert spans is not None
    names = {s["name"] for s in spans}
    assert {"job", "execute_request", "instrument"} <= names
    # the job span parents onto the scheduler's submit span
    submit = next(s for s in scheduler.tracer.to_dicts()
                  if s["name"] == "submit")
    jobspan = next(s for s in spans if s["name"] == "job")
    assert jobspan["parent_id"] == submit["span_id"]
    # per-phase histograms were folded in
    hist = metrics.snapshot()["histograms"]
    assert "phase_execute_request" in hist
    assert hist["phase_execute_request"]["count"] == 1


def test_pool_scheduler_ships_spans_back_across_processes():
    tracer = Tracer()
    with BatchScheduler(workers=2, tracer=tracer) as scheduler:
        jobs = [scheduler.submit(AnalysisRequest(n))
                for n in ("ora", "track")]
        assert scheduler.wait(jobs, timeout=120)
        traces = [scheduler.trace(j.id) for j in jobs]
    import os
    parent_pid = os.getpid()
    for job, spans in zip(jobs, traces):
        assert job.state == "done"
        assert spans, f"no spans shipped back for {job.id}"
        pids = {s["pid"] for s in spans}
        assert parent_pid not in pids    # recorded inside the workers
    # adopted spans join the scheduler tracer's trace
    all_spans = tracer.to_dicts()
    assert {s["name"] for s in all_spans} >= {"submit", "job"}
    idx = span_index(all_spans)
    for s in all_spans:
        if s["name"] == "job":
            assert idx[s["parent_id"]]["name"] == "submit"


def test_untraced_scheduler_records_no_traces():
    scheduler = BatchScheduler(inline=True)   # NULL_TRACER default
    job = scheduler.submit(AnalysisRequest("ora"))
    assert job.state == "done"
    assert scheduler.trace(job.id) is None


def test_trace_store_is_bounded():
    scheduler = BatchScheduler(inline=True, tracer=Tracer(), max_traces=2)
    jobs = [scheduler.submit(AnalysisRequest("ora", options={"tag": i}))
            for i in range(4)]
    kept = [j.id for j in jobs if scheduler.trace(j.id) is not None]
    assert kept == [jobs[-2].id, jobs[-1].id]


# -- the HTTP surface --------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode())


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read().decode())


def test_trace_endpoint_serves_per_job_spans():
    with AnalysisServer(inline=True) as server:
        status, body = _post(server.url + "/jobs", {"workload": "ora"})
        assert status == 202
        job_id = body["job"]["id"]
        status, doc = _get(server.url + f"/trace/{job_id}")
        assert status == 200
        assert doc["job_id"] == job_id
        names = {s["name"] for s in doc["spans"]}
        assert {"job", "execute_request"} <= names
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/trace/job-999999")
        assert err.value.code == 404
        # histograms visible on /metrics
        status, snap = _get(server.url + "/metrics")
        assert any(k.startswith("phase_") for k in snap["histograms"])


def test_service_tracing_can_be_disabled():
    from repro.service.server import AnalysisService
    service = AnalysisService(inline=True, trace=False)
    try:
        job = service.scheduler.submit(AnalysisRequest("ora"))
        assert job.state == "done"
        assert service.scheduler.trace(job.id) is None
    finally:
        service.close()


# -- metrics histograms ------------------------------------------------------

def test_histogram_buckets_and_snapshot():
    metrics = ServiceMetrics()
    for v in (0.0001, 0.003, 0.003, 0.7, 100.0):
        metrics.observe_histogram("phase_x", v)
    hist = metrics.snapshot()["histograms"]["phase_x"]
    assert hist["count"] == 5
    assert hist["buckets"]["le_0.001"] == 1
    assert hist["buckets"]["le_0.005"] == 2
    assert hist["buckets"]["le_1"] == 1
    assert hist["buckets"]["inf"] == 1
    assert hist["sum_s"] == pytest.approx(100.7062, abs=1e-3)


def test_record_phases_folds_spans_into_histograms():
    metrics = ServiceMetrics()
    tracer = Tracer()
    with tracer.span("parse"):
        pass
    with tracer.span("instrument.dyndep"):
        pass
    metrics.record_phases(tracer.to_dicts())
    hist = metrics.snapshot()["histograms"]
    assert set(hist) == {"phase_parse", "phase_instrument.dyndep"}
    assert hist["phase_parse"]["count"] == 1


# -- hygiene -----------------------------------------------------------------

@pytest.fixture(autouse=True)
def _reset_active_tracer():
    yield
    set_tracer(None)
    assert get_tracer() is NULL_TRACER
