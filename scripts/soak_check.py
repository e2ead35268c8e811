#!/usr/bin/env python
"""Service soak gate: a 500-program generated batch through the scheduler.

Pushes ``--n`` synthetic workloads (the canonical pinned slice, so the
population covers every trait profile) through a real process-pool
:class:`BatchScheduler` with deliberate duplicate submissions, then
asserts the scale contracts the hand-built 27-workload corpus is too
small to exercise:

* every job completes; zero failures, zero worker crashes, and the
  circuit breaker never opens under sustained load (quiescence),
* in-flight dedupe fires at least once per duplicate seed, and
  re-submitting a finished request is served from the artifact store,
* the finished-job registry stays bounded by ``--max-jobs`` (GC),
* artifacts are **bit-stable**: the scheduler's pool-computed artifact
  for a sampled workload is byte-identical (canonical JSON) to an
  inline in-process recomputation.

Exit code 0 = all contracts hold.  ``--quick`` (CI gate 5) runs a
60-program slice on 2 workers; the full soak defaults to 500 programs
(override with ``--n`` or the ``REPRO_SYNTH_N`` environment knob).

``--http`` drives the same population through the HTTP server
(``--shards`` pool shards) instead of a bare scheduler: every submission goes over POST
``/jobs``, completion is observed by polling, and the shard placement,
dedupe, and retention contracts are asserted from ``/metrics`` and
``/jobs`` alone — the soak sees only what a real client sees.
"""

import argparse
import json
import os
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import (AnalysisRequest, ArtifactStore,  # noqa: E402
                           BatchScheduler, ServiceMetrics, canonical_json)
from repro.service.jobs import execute_request  # noqa: E402
from repro.workloads import synth  # noqa: E402

DUP_EVERY = 10          # every 10th program is submitted twice
PARITY_SAMPLE = 5       # artifacts recomputed inline for bit-stability


def check(ok: bool, label: str, detail: str = "") -> bool:
    mark = "ok  " if ok else "FAIL"
    print(f"  [{mark}] {label}" + (f"  ({detail})" if detail else ""))
    return ok


def call(base: str, method: str, path: str, body=None, timeout=120):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers={"Content-Type":
                                          "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_soak(args, names, submit_names, n_dupes, max_jobs) -> int:
    """The synth population through the HTTP server: the soak observes
    only what a real HTTP client can observe."""
    from repro.service import AnalysisServer

    ok = True
    tmp = None
    if args.cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-soak-")
        args.cache_dir = tmp.name
    t0 = time.perf_counter()
    with AnalysisServer(cache_dir=args.cache_dir, port=0,
                        shards=args.shards, workers=args.workers,
                        max_jobs=max_jobs) as server:
        base = server.url
        print(f"http soak: server up at {base} "
              f"({args.shards} shards, max_jobs={max_jobs}/shard)")
        jobs = []
        for name in submit_names:
            status, out = call(base, "POST", "/jobs",
                               {"workload": name})
            if status == 429:          # backpressure: honor the hint
                time.sleep(out.get("retry_after_s", 0.5))
                status, out = call(base, "POST", "/jobs",
                                   {"workload": name})
            if status != 202:
                print(f"  POST /jobs {name} -> {status}: {out}")
                ok = False
                continue
            jobs.append(out["job"])
        # poll every job to a terminal state, re-checking only
        # laggards (duplicate submissions share one job id)
        by_id = {j["id"]: j for j in jobs}
        deadline = time.time() + args.http_timeout
        pending = {jid for jid, j in by_id.items()
                   if j["state"] not in ("done", "failed")}
        while pending and time.time() < deadline:
            time.sleep(0.2)
            for jid in list(pending):
                status, out = call(base, "GET", f"/jobs/{jid}")
                if status == 200:
                    by_id[jid] = out["job"]
                    if out["job"]["state"] in ("done", "failed"):
                        pending.discard(jid)
                elif status == 404:
                    # the registry GC raced us: the job finished and
                    # was evicted between polls — its artifact is the
                    # durable proof of completion
                    key = by_id[jid]["key"]
                    if call(base, "GET", f"/artifacts/{key}")[0] == 200:
                        by_id[jid] = dict(by_id[jid], state="done")
                        pending.discard(jid)
        elapsed = time.perf_counter() - t0
        ok &= check(not pending, "every job reached a terminal state",
                    f"{len(pending)} still pending")
        jobs = [by_id[j["id"]] for j in jobs]
        states = {}
        for job in jobs:
            states[job["state"]] = states.get(job["state"], 0) + 1
        ok &= check(states.get("done", 0) == len(jobs),
                    "all jobs completed", f"states={states}")

        status, metrics = call(base, "GET", "/metrics")
        counters = metrics["counters"]
        ok &= check(counters.get("jobs_failed", 0) == 0,
                    "zero failed jobs")
        ok &= check(counters.get("worker_crashes", 0) == 0,
                    "zero worker crashes")
        dedup = (counters.get("jobs_deduped", 0)
                 + counters.get("jobs_served_cached", 0))
        ok &= check(dedup >= n_dupes,
                    "every duplicate deduped or served cached",
                    f"{dedup} hits for {n_dupes} duplicates")

        # shard placement: content keys spread the population; with a
        # population far larger than the shard count, every shard works
        shard_load = {}
        for job in jobs:
            shard_load[job["shard"]] = shard_load.get(job["shard"], 0) + 1
        ok &= check(len(shard_load) == args.shards,
                    "every shard took work", f"load={dict(sorted(shard_load.items()))}")
        stats = metrics.get("shards", [])
        ok &= check([s["shard"] for s in stats] ==
                    list(range(args.shards)),
                    "/metrics reports per-shard stats")
        ok &= check(all(s["queue_depth"] == 0 for s in stats),
                    "all shard queues drained")

        # retention: the registry a client sees stays bounded by the
        # per-shard cap (+1 slack per shard for in-flight sweeps)
        status, out = call(base, "GET", "/jobs")
        retained = len(out["jobs"])
        ok &= check(retained <= args.shards * (max_jobs + 1),
                    "finished-job registry bounded",
                    f"{retained} retained <= {args.shards}x({max_jobs}+1)")

        # cached resubmit of a finished request
        status, out = call(base, "POST", "/jobs",
                           {"workload": names[1]})
        ok &= check(status == 202 and out["job"]["cached"],
                    "finished request re-served from artifact store")

        # bit-stability through the whole HTTP + shard + pool stack
        stride = max(1, len(names) // PARITY_SAMPLE)
        sampled = names[::stride][:PARITY_SAMPLE]
        stable = 0
        for name in sampled:
            key = AnalysisRequest(name).key()
            status, served = call(base, "GET", f"/artifacts/{key}")
            inline = execute_request(AnalysisRequest(name))
            if status == 200 and \
                    canonical_json(served) == canonical_json(inline):
                stable += 1
        ok &= check(stable == len(sampled),
                    "artifacts bit-stable vs inline recomputation",
                    f"{stable}/{len(sampled)} byte-identical")

        errors = call(base, "GET", "/metrics")[1]["counters"] \
            .get("http_conn_errors", 0)
        ok &= check(errors == 0, "no connection handler died",
                    f"http_conn_errors={errors}")

    if tmp is not None:
        tmp.cleanup()
    rate = len(jobs) / elapsed if elapsed else 0.0
    print(f"http soak: {len(jobs)} submissions in {elapsed:.1f}s "
          f"({rate:.0f} jobs/s) across {args.shards} shards")
    if not ok:
        print("SOAK FAILED", file=sys.stderr)
        return 1
    print("http soak: all contracts hold")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int,
                    default=int(os.environ.get("REPRO_SYNTH_N", "500")),
                    help="generated programs in the batch (default: "
                         "REPRO_SYNTH_N or 500)")
    ap.add_argument("--workers", type=int, default=None,
                    help="process-pool size (default: scheduler choice)")
    ap.add_argument("--max-jobs", type=int, default=None,
                    help="finished-job retention cap (default: n // 2, "
                         "so GC must fire)")
    ap.add_argument("--cache-dir",
                    help="artifact store directory (default: a fresh "
                         "temp dir — the memory-only store's LRU is "
                         "smaller than a 500-program population)")
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: 60 programs, 2 workers")
    ap.add_argument("--http", action="store_true",
                    help="drive the population through the HTTP server "
                         "instead of a bare scheduler")
    ap.add_argument("--shards", type=int, default=2,
                    help="server shards in --http mode (default: 2)")
    ap.add_argument("--http-timeout", type=float, default=600.0,
                    help="seconds for the whole --http population to "
                         "finish (default: 600)")
    args = ap.parse_args(argv)
    if args.quick:
        args.n = min(args.n, 60)
        args.workers = args.workers or 2
    max_jobs = args.max_jobs or max(8, args.n // 2)

    names = synth.pinned_slice(args.n)
    submit_names = []
    for i, name in enumerate(names):
        submit_names.append(name)
        if i % DUP_EVERY == 0:
            submit_names.append(name)     # in-flight duplicate
    n_dupes = len(submit_names) - len(names)

    if args.http:
        return http_soak(args, names, submit_names, n_dupes, max_jobs)

    print(f"soak: {len(names)} programs (+{n_dupes} duplicate "
          f"submissions), max_jobs={max_jobs}, "
          f"workers={args.workers or 'auto'}")
    metrics = ServiceMetrics()
    tmp = None
    if args.cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-soak-")
        args.cache_dir = tmp.name
    store = ArtifactStore(args.cache_dir, metrics=metrics)
    ok = True
    t0 = time.perf_counter()
    with BatchScheduler(store, metrics=metrics, workers=args.workers,
                        max_jobs=max_jobs) as sched:
        jobs = [sched.submit(AnalysisRequest(n)) for n in submit_names]
        sched.wait(jobs)
        states = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        snap = metrics.snapshot()
        counters = snap["counters"]
        elapsed = time.perf_counter() - t0

        ok &= check(states.get("done", 0) == len(jobs),
                    "all jobs completed", f"states={states}")
        ok &= check(counters.get("jobs_failed", 0) == 0, "zero failed jobs")
        ok &= check(counters.get("worker_crashes", 0) == 0,
                    "zero worker crashes")
        ok &= check(counters.get("breaker_opened", 0) == 0,
                    "circuit breaker quiescent")
        dedup = (counters.get("jobs_deduped", 0)
                 + counters.get("jobs_served_cached", 0))
        ok &= check(dedup >= n_dupes,
                    "every duplicate deduped or served cached",
                    f"{dedup} hits for {n_dupes} duplicates")

        # GC bound: submissions ran through _gc_finished_locked; one
        # more flush submit after everything finished forces a final
        # sweep, after which only max_jobs finished jobs may remain
        # (+1 for the flush job itself).
        flush = sched.submit(AnalysisRequest(names[0]))
        sched.wait([flush])
        retained = len(sched.jobs())
        ok &= check(retained <= max_jobs + 1,
                    "finished-job registry bounded",
                    f"{retained} retained <= {max_jobs}+1")
        evicted = metrics.snapshot()["counters"].get("jobs_evicted", 0)
        ok &= check(evicted > 0 or len(jobs) <= max_jobs,
                    "GC evicted past the cap", f"{evicted} evicted")

        # cached resubmit of a finished request
        pre = metrics.snapshot()["counters"].get(
            "jobs_served_cached", 0)
        again = sched.submit(AnalysisRequest(names[1]))
        sched.wait([again])
        post = metrics.snapshot()["counters"].get(
            "jobs_served_cached", 0)
        ok &= check(again.cached and post == pre + 1,
                    "finished request re-served from artifact store")

        # bit-stability: pool-computed artifacts == inline recomputation
        stride = max(1, len(names) // PARITY_SAMPLE)
        sampled = names[::stride][:PARITY_SAMPLE]
        stable = 0
        for name in sampled:
            req = AnalysisRequest(name)
            pooled = store.get(req.key())
            inline = execute_request(AnalysisRequest(name))
            if pooled is not None and \
                    canonical_json(pooled) == canonical_json(inline):
                stable += 1
        ok &= check(stable == len(sampled),
                    "artifacts bit-stable vs inline recomputation",
                    f"{stable}/{len(sampled)} byte-identical")

    if tmp is not None:
        tmp.cleanup()
    rate = len(jobs) / elapsed if elapsed else 0.0
    print(f"soak: {len(jobs)} submissions in {elapsed:.1f}s "
          f"({rate:.0f} jobs/s); "
          f"hit-rate {snap.get('cache_hit_rate', 0.0):.0%}")
    if not ok:
        print("SOAK FAILED", file=sys.stderr)
        return 1
    print("soak: all contracts hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
