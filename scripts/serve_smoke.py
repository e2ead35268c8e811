#!/usr/bin/env python
"""End-to-end smoke test for the analysis service (CI gate).

Starts the HTTP server (2 shards) on an ephemeral port, submits a
corpus job, polls it to completion, streams its progress events over
SSE, fetches the artifact, re-submits to prove the cache serves the
repeat, checks ``/metrics`` consistency — then spawns a **second
server process** on the same cache directory and storms both with the
same cold key to prove cross-process single-flight: the artifact is
computed exactly once, and both servers hand back bit-identical
bytes.  Exits non-zero on any failure::

    PYTHONPATH=src python scripts/serve_smoke.py [--workload ora]

With ``--inject SPEC`` the script runs the *fault-injected* smoke
instead: the server is started with a seeded chaos plan, several jobs
are pushed through it (crashes are retried, the service must keep
answering), a deliberately hung job must be killed by its deadline
with reason exactly ``"deadline exceeded"``, and a zero-capacity
server must shed new work deterministically with 429 + Retry-After::

    PYTHONPATH=src python scripts/serve_smoke.py --inject "crash=0.5,seed=1"
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# a peer server process for the single-flight storm: same cache dir,
# own pid, own pools — only the claim files coordinate the two
CHILD_SERVER = """\
import sys
from repro.service import AnalysisServer
srv = AnalysisServer(cache_dir=sys.argv[1], shards=2)
srv.start()
print(srv.url, flush=True)
sys.stdin.read()                  # parent closes stdin to stop us
srv.stop()
"""


def call(base: str, method: str, path: str, body=None, timeout=60):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers={"Content-Type":
                                          "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def fail(message: str) -> "NoReturn":
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def poll(base: str, job: dict, timeout: float) -> dict:
    deadline = time.time() + timeout
    while job["state"] not in ("done", "failed"):
        expect(time.time() < deadline, f"job {job['id']} timed out")
        time.sleep(0.2)
        status, out = call(base, "GET", f"/jobs/{job['id']}")
        expect(status == 200, f"GET /jobs/{job['id']} -> {status}")
        job = out["job"]
    return job


def read_sse(base: str, job_id: str, timeout: float):
    """GET /jobs/<id>/events with an SSE accept header; return the
    status, content type, and full stream body."""
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/events",
                     headers={"Accept": "text/event-stream"})
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), \
            resp.read().decode()
    finally:
        conn.close()


def fault_smoke(args) -> int:
    """The chaos gate: seeded fault injection + deadline enforcement."""
    from repro.service import AnalysisServer

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        with AnalysisServer(cache_dir=str(Path(tmp) / "cache"),
                            port=0, shards=2,
                            inject=args.inject) as server:
            base = server.url
            print(f"server up at {base} [inject {args.inject!r}]")

            # a burst of distinct jobs through the chaos plan: every
            # injected fault is a recoverable one-shot, so all must
            # finish "done" (crashes retried, transients retried)
            jobs = []
            for i in range(4):
                status, out = call(base, "POST", "/jobs",
                                   {"workload": args.workload,
                                    "options": {"salt": str(i)}})
                expect(status == 202, f"POST /jobs -> {status}: {out}")
                jobs.append(out["job"])
            for job in jobs:
                job = poll(base, job, args.timeout)
                expect(job["state"] == "done",
                       f"chaos job {job['id']} -> {job['state']}: "
                       f"{job.get('error')}")
            print(f"{len(jobs)} jobs survived the chaos plan")

            # a deliberately hung job must die at its deadline
            marker = Path(tmp) / "hang-marker"
            status, out = call(base, "POST", "/jobs", {
                "workload": args.workload,
                "options": {"fault": f"hang-once:{marker}:60",
                            "deadline_s": 1.5}})
            expect(status == 202, f"POST hang job -> {status}")
            hung = poll(base, out["job"], args.timeout)
            expect(hung["state"] == "failed",
                   f"hung job ended {hung['state']}")
            expect(hung["error"] == "deadline exceeded",
                   f"wrong deadline reason: {hung['error']!r}")
            print(f"deadline enforced: {hung['id']} failed "
                  f"with {hung['error']!r}")

            # the service is still alive and telling the story
            status, health = call(base, "GET", "/healthz")
            expect(status == 200 and health.get("ok"),
                   "service unhealthy after chaos")
            status, metrics = call(base, "GET", "/metrics")
            counters = metrics["counters"]
            expect(counters.get("jobs_deadline_exceeded", 0) >= 1,
                   f"deadline not counted: {counters}")
            expect(counters.get("failures_deadline", 0) >= 1,
                   f"failure taxonomy missing: {counters}")
            interesting = {k: v for k, v in sorted(counters.items())
                           if k.startswith(("faults", "failures", "pool",
                                            "jobs", "worker"))}
            print(f"metrics ok: {interesting}")

        # deterministic shedding: a zero-capacity server must 429 every
        # piece of new work, with a Retry-After hint and shed counters
        with AnalysisServer(cache_dir=str(Path(tmp) / "cache"),
                            port=0, shards=1, inline=True,
                            max_queue=0) as shed_srv:
            req = urllib.request.Request(
                shed_srv.url + "/jobs",
                data=json.dumps({"workload": args.workload,
                                 "options": {"salt": "shed"}}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(req, timeout=30):
                    fail("full queue did not shed new work")
            except urllib.error.HTTPError as exc:
                expect(exc.code == 429,
                       f"full queue -> {exc.code}, want 429")
                expect(int(exc.headers.get("Retry-After", "0")) >= 1,
                       "429 without a Retry-After hint")
                payload = json.loads(exc.read())
                expect(payload.get("retry_after_s", 0) > 0,
                       f"no retry_after_s in body: {payload}")
            status, metrics = call(shed_srv.url, "GET", "/metrics")
            counters = metrics["counters"]
            expect(counters.get("shed_total", 0) == 1
                   and counters.get("shed_queue_full", 0) == 1,
                   f"shed taxonomy wrong: {counters}")
            print(f"shedding ok: 429 + Retry-After, "
                  f"shed_queue_full={counters['shed_queue_full']}")

    print("FAULT SMOKE OK")
    return 0


def single_flight_storm(base: str, cache_dir: str, workload: str,
                        timeout: float) -> None:
    """Spawn a second server *process* on the same cache directory and
    hit both with the same cold key: the claim protocol must make
    exactly one of them compute, and both must serve identical bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    child = subprocess.Popen([sys.executable, "-c", CHILD_SERVER,
                              cache_dir],
                             stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, env=env, text=True)
    try:
        peer = child.stdout.readline().strip()
        expect(peer.startswith("http"),
               f"child server failed to start: {peer!r}")
        print(f"peer server up at {peer} (same cache dir)")
        body = {"workload": workload,
                "options": {"salt": "single-flight"}}
        pre = call(base, "GET", "/metrics")[1]["counters"] \
            .get("artifacts_computed", 0)
        status1, out1 = call(base, "POST", "/jobs", body)
        status2, out2 = call(peer, "POST", "/jobs", body)
        expect(status1 == 202 and status2 == 202,
               f"storm POSTs -> {status1}/{status2}")
        job1 = poll(base, out1["job"], timeout)
        job2 = poll(peer, out2["job"], timeout)
        expect(job1["state"] == "done" and job2["state"] == "done",
               f"storm jobs -> {job1['state']}/{job2['state']}")
        expect(job1["key"] == job2["key"], "storm keys diverged")
        art1 = call(base, "GET", f"/artifacts/{job1['key']}")[1]
        art2 = call(peer, "GET", f"/artifacts/{job2['key']}")[1]
        expect(art1 == art2, "servers returned different artifacts")
        post = call(base, "GET", "/metrics")[1]["counters"] \
            .get("artifacts_computed", 0)
        peer_computed = call(peer, "GET", "/metrics")[1]["counters"] \
            .get("artifacts_computed", 0)
        computed = (post - pre) + peer_computed
        expect(computed == 1,
               f"same-key storm computed {computed} times, want 1")
        print(f"single-flight ok: two processes, one computation, "
              f"bit-identical artifacts")
    finally:
        child.stdin.close()
        child.wait(timeout=30)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="ora",
                    help="corpus entry to analyze (default: ora)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="seconds to wait for the job")
    ap.add_argument("--inject", metavar="SPEC",
                    help="run the fault-injected smoke with this seeded "
                         "chaos plan (e.g. 'crash=0.5,seed=1')")
    args = ap.parse_args(argv)

    if args.inject:
        return fault_smoke(args)

    from repro.service import AnalysisServer

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        with AnalysisServer(cache_dir=cache_dir, port=0,
                            shards=2) as server:
            base = server.url
            print(f"server up at {base} (cache {cache_dir}, 2 shards)")

            status, health = call(base, "GET", "/healthz")
            expect(status == 200 and health.get("ok"), "healthz not ok")

            status, corpus = call(base, "GET", "/corpus")
            expect(status == 200, f"/corpus -> {status}")
            names = {w["name"] for w in corpus["workloads"]}
            expect(args.workload in names,
                   f"{args.workload!r} missing from /corpus")

            # submit and poll to completion
            status, out = call(base, "POST", "/jobs",
                               {"workload": args.workload})
            expect(status == 202, f"POST /jobs -> {status}: {out}")
            job = poll(base, out["job"], args.timeout)
            expect(job["state"] == "done",
                   f"job failed: {job.get('error')}")
            print(f"job {job['id']} done in "
                  f"{job['finished_at'] - job['created_at']:.2f}s "
                  f"(attempts={job['attempts']}, shard={job['shard']})")

            # progress events: JSON snapshot and the SSE stream agree
            status, out = call(base, "GET", f"/jobs/{job['id']}/events")
            expect(status == 200 and out["finished"],
                   f"GET events -> {status}: {out}")
            names = [e["event"] for e in out["events"]]
            expect(names[0] == "submitted" and names[-1] == "done",
                   f"event sequence wrong: {names}")
            status, ctype, stream = read_sse(base, job["id"],
                                             args.timeout)
            expect(status == 200 and ctype == "text/event-stream",
                   f"SSE -> {status} {ctype}")
            expect("event: end" in stream, "SSE stream never ended")
            frames = sum(1 for line in stream.splitlines()
                         if line.startswith("data: "))
            expect(frames >= len(names),
                   f"SSE dropped events: {frames} < {len(names)}")
            print(f"events ok: {names} (SSE {frames} frames)")

            status, artifact = call(base, "GET",
                                    f"/artifacts/{job['key']}")
            expect(status == 200, f"GET /artifacts -> {status}")
            speedup = artifact["execution"]["speedup"]
            expect(speedup >= 1.0, f"nonsense speedup {speedup}")
            print(f"artifact ok: speedup {speedup:.2f}x, "
                  f"{len(artifact['plan'])} loop plans")

            # the repeat must be served from the warm cache
            status, out = call(base, "POST", "/jobs",
                               {"workload": args.workload})
            expect(status == 202 and out["job"]["cached"],
                   "repeat submission was not cache-served")

            status, metrics = call(base, "GET", "/metrics")
            expect(status == 200, f"/metrics -> {status}")
            counters = metrics["counters"]
            expect(counters.get("jobs_completed", 0) >= 1,
                   f"no completed jobs in metrics: {counters}")
            expect(counters.get("cache_hits", 0) >= 1,
                   f"no cache hits in metrics: {counters}")
            expect(metrics["cache_hit_rate"] > 0.0, "zero cache hit-rate")
            print(f"metrics ok: {counters}; "
                  f"hit-rate {metrics['cache_hit_rate']:.0%}")

            # a transpiled-engine job, then a warm repeat (distinct
            # salt dodges the artifact cache) that must skip codegen
            status, out = call(base, "POST", "/jobs",
                               {"workload": args.workload,
                                "options": {"engine": "transpiled",
                                            "salt": "cg1"}})
            expect(status == 202, f"POST transpiled job -> {status}")
            tjob = poll(base, out["job"], args.timeout)
            expect(tjob["state"] == "done",
                   f"transpiled job failed: {tjob.get('error')}")
            status, metrics = call(base, "GET", "/metrics")
            counters = metrics["counters"]
            expect(counters.get("codegen_cache_miss", 0) >= 1,
                   f"transpiled job did not codegen: {counters}")
            status, out = call(base, "POST", "/jobs",
                               {"workload": args.workload,
                                "options": {"engine": "transpiled",
                                            "salt": "cg2"}})
            expect(status == 202, f"POST transpiled repeat -> {status}")
            tjob = poll(base, out["job"], args.timeout)
            expect(tjob["state"] == "done",
                   f"transpiled repeat failed: {tjob.get('error')}")
            status, metrics = call(base, "GET", "/metrics")
            counters = metrics["counters"]
            expect(counters.get("codegen_cache_hit", 0) >= 1,
                   f"warm transpiled repeat re-ran codegen: {counters}")
            print(f"transpiled jobs ok: codegen "
                  f"miss={counters['codegen_cache_miss']} "
                  f"hit={counters['codegen_cache_hit']}")

            # error paths stay errors
            expect(call(base, "POST", "/jobs",
                        {"workload": "nope"})[0] == 400,
                   "unknown workload did not 400")
            expect(call(base, "GET", "/no/route")[0] == 404,
                   "unknown route did not 404")

            # the tentpole contract: two server processes, one cache
            # dir, one cold key — exactly one computation
            single_flight_storm(base, cache_dir, args.workload,
                                args.timeout)

            # every request above was answered: no connection handler
            # died on an unexpected exception
            errors = call(base, "GET", "/metrics")[1]["counters"] \
                .get("http_conn_errors", 0)
            expect(errors == 0, f"http_conn_errors = {errors}, want 0")

    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
