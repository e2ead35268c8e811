"""Concurrency gates for the service front end.

* **Warm throughput** — requests/second of :data:`CLIENTS` concurrent
  keep-alive clients hammering cache-warm ``POST /jobs`` on the default
  server shape (:data:`SHARDS` shards); ``scripts/perf_check.py`` fails
  a >20% drop against ``BENCH_service.json``.  (End-to-end warm HTTP
  throughput under a realistic mix is ``http-mixed/ops_per_s`` in
  ``BENCHMARK.json``.)
* **Cold storm single-flight** — :data:`STORM_CLIENTS` clients split
  across **two separate server processes** sharing one cache directory
  all request the same cold key; the claim protocol must make exactly
  one process compute the artifact, and every client must receive
  byte-identical artifact responses.

Run standalone to measure and record ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_perf_service.py [--quick]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.service import AnalysisServer

SHARDS = 2              #: ``repro serve``'s default shard count
CLIENTS = 16            #: concurrent clients for the warm throughput gate
STORM_CLIENTS = 64      #: clients in the cold same-key storm
WARM_WORKLOADS = ["ora", "track", "ear", "doduc"]
BASELINE_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_service.json"

# a server process for the storm: same cache dir as its sibling, own
# pid and pools — only the disk claim files coordinate the two
_CHILD_SERVER = """\
import sys
from repro.service import AnalysisServer
srv = AnalysisServer(cache_dir=sys.argv[1], shards=2, inline=True)
srv.start()
print(srv.url, flush=True)
sys.stdin.read()
srv.stop()
"""


def _post(conn: http.client.HTTPConnection, body: bytes):
    conn.request("POST", "/jobs", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp, resp.read()


def _hammer(host: str, port: int, n_requests: int,
            bodies: List[bytes], finished: List) -> None:
    """One client: ``n_requests`` warm POSTs over one keep-alive
    connection; appends to ``finished`` only if every one was a 202."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for i in range(n_requests):
            resp, data = _post(conn, bodies[i % len(bodies)])
            assert resp.status == 202, (resp.status, data)
        finished.append(True)
    finally:
        conn.close()


def _warm_throughput(server, n_requests: int) -> Dict:
    """Requests/second for CLIENTS concurrent warm clients."""
    bodies = [json.dumps({"workload": w}).encode()
              for w in WARM_WORKLOADS]
    # prewarm every key so the hammer only ever hits the cache
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=120)
    for body in bodies:
        resp, data = _post(conn, body)
        assert resp.status == 202, (resp.status, data)
    conn.close()

    finished: List = []
    threads = [threading.Thread(target=_hammer,
                                args=(server.host, server.port,
                                      n_requests, bodies, finished))
               for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    assert len(finished) == CLIENTS, "a warm client died"
    total = CLIENTS * n_requests
    return {"requests": total, "seconds": round(seconds, 3),
            "requests_per_sec": round(total / seconds, 1)}


def _storm_client(base: str, body: bytes, out: List, i: int) -> None:
    host, port = base.split("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        resp, data = _post(conn, body)
        assert resp.status == 202, (resp.status, data)
        job = json.loads(data)["job"]
        deadline = time.time() + 120
        while job["state"] not in ("done", "failed"):
            assert time.time() < deadline, "storm job timed out"
            time.sleep(0.05)
            conn.request("GET", f"/jobs/{job['id']}")
            resp = conn.getresponse()
            job = json.loads(resp.read())["job"]
        assert job["state"] == "done", job
        conn.request("GET", f"/artifacts/{job['key']}")
        resp = conn.getresponse()
        artifact_bytes = resp.read()
        assert resp.status == 200
        out[i] = artifact_bytes
    finally:
        conn.close()


def _cold_storm(workload: str) -> Dict:
    """STORM_CLIENTS same-key clients against two server processes on
    one cache dir: exactly one computation, identical bytes for all."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="repro-storm-") as cache:
        children = [subprocess.Popen([sys.executable, "-c",
                                      _CHILD_SERVER, cache],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     env=env, text=True)
                    for _ in range(2)]
        try:
            bases = [c.stdout.readline().strip() for c in children]
            assert all(b.startswith("http") for b in bases), bases
            body = json.dumps({"workload": workload,
                               "options": {"salt": "storm"}}).encode()
            responses: List = [None] * STORM_CLIENTS
            threads = [threading.Thread(
                target=_storm_client,
                args=(bases[i % 2], body, responses, i))
                for i in range(STORM_CLIENTS)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            seconds = time.perf_counter() - t0
            assert all(r is not None for r in responses), \
                "storm client died"
            distinct = {bytes(r) for r in responses}
            assert len(distinct) == 1, \
                f"{len(distinct)} distinct artifact responses"
            computed = 0
            for base in bases:
                host, port = base.split("//", 1)[1].rsplit(":", 1)
                conn = http.client.HTTPConnection(host, int(port),
                                                  timeout=30)
                conn.request("GET", "/metrics")
                counters = json.loads(
                    conn.getresponse().read())["counters"]
                conn.close()
                computed += counters.get("artifacts_computed", 0)
            assert computed == 1, \
                f"storm computed the key {computed} times, want 1"
        finally:
            for child in children:
                child.stdin.close()
                child.wait(timeout=30)
    return {"clients": STORM_CLIENTS, "server_processes": 2,
            "seconds": round(seconds, 3), "computations": computed,
            "bit_identical": True}


def run_bench(n_requests: int = 100,
              storm_workload: str = "ora") -> Dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache:
        with AnalysisServer(cache_dir=cache, inline=True,
                            shards=SHARDS) as server:
            warm = _warm_throughput(server, n_requests)

    storm = _cold_storm(storm_workload)

    return {
        "benchmark": "service concurrency gates",
        "units": "warm POST /jobs requests per second",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "clients": CLIENTS,
        "requests_per_client": n_requests,
        "shards": SHARDS,
        "warm": warm,
        "cold_storm": storm,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer warm requests per client (CI mode)")
    ap.add_argument("--no-write", action="store_true",
                    help="don't record BENCH_service.json")
    args = ap.parse_args(argv)
    result = run_bench(n_requests=30 if args.quick else 100)
    print(json.dumps(result, indent=2))
    if not args.no_write:
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
