"""``http-mixed``: the same job through the front door.

The default server (``python -m repro.cli serve``: asyncio front end, two
key-sharded pools) is started in its own process group on a scratch
cache directory.  Two closed-loop clients — an Explorer user waits for
each reply — each hold one keep-alive connection and, per op, post a
job, poll it every 5 ms until it is terminal, and fetch its artifact.
Most posts are store hits, so the service layer (front end, scheduler,
store, pool dispatch) does most of the work.

Client hygiene: every op has a 30 s budget and a failure of any kind
counts against it; the SSE stream is never used to wait (its
end-of-stream does not reach EOF on this tree); the whole process group
is killed on every exit path, because terminating ``repro serve`` alone
leaves its pool workers running.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Set, Tuple

import cold
import common
import layers
import stats
import workloads
from common import OP_TIMEOUT_S, Sample
from repro.service.artifacts import canonical_json
from repro.service.jobs import AnalysisRequest, execute_request
from repro.workloads.synth import from_name, parse_name
from repro.workloads.synth.generator import generate

#: at most this many client threads, one connection each (sized for 2 cores)
MAX_CLIENTS = 2
POLL_S = 0.005
#: computed names staged in-process by the traced run
TRACED_NAMES = 48
_JSON = {"Content-Type": "application/json"}
_TICK = os.sysconf("SC_CLK_TCK")


class Op(NamedTuple):
    name: str
    ok: bool
    hit: bool              # served from the store (the post said so)
    seconds: float         # post sent -> artifact received
    post_s: float = 0.0
    wait_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    digest: str = ""       # sha256 of the artifact body
    body: bytes = b""      # kept for sampled ops only
    error: str = ""


class OpFailed(Exception):
    pass


# -- the server process group --------------------------------------------------

class Server:
    """``repro.cli serve`` in its own session, so one ``killpg`` takes
    the front end and its forked pool workers down together."""

    def __init__(self, scratch):
        self.cache_dir = scratch / f"cache-{time.monotonic_ns()}"
        self._log_path = scratch / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir)],
            env=common.child_env(), cwd=str(common.ROOT),
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout: float = 30.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        address = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if address is None:
                text = self._log_path.read_text(errors="replace")
                marker = "listening on http://"
                if marker in text:
                    hostport = text.split(marker, 1)[1].split()[0]
                    host, _, port = hostport.rpartition(":")
                    address = (host, int(port))
            if address is not None:
                try:
                    if fetch(*address, "/healthz", timeout=2)[0] == 200:
                        return address
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not come up: "
                           + self._log_path.read_text(errors="replace"))

    def pids(self) -> List[int]:
        """Live processes of the server's group (front end + workers)."""
        out = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    if os.getpgid(int(entry)) == self.proc.pid:
                        out.append(int(entry))
                except OSError:
                    pass
        return out

    def cpu_seconds(self) -> float:
        """utime + stime over the process tree (reaped children included)."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rpartition(")")[2].split()
            except OSError:
                continue
            total += sum(int(fields[i]) for i in (11, 12, 13, 14))
        return total / _TICK

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the process tree."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024.0

    def metrics(self) -> Dict:
        status, body = fetch(self.host, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Kill the whole group and wait until every member has ended."""
        self._log.close()
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                self.proc.poll()                 # reap the leader
                if not self.pids():
                    return
                time.sleep(0.02)


def get(conn: http.client.HTTPConnection, path: str) -> Tuple[int, bytes]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read()


def fetch(host: str, port: int, path: str,
          timeout: float = OP_TIMEOUT_S) -> Tuple[int, bytes]:
    """One GET on a connection of its own."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        return get(conn, path)
    finally:
        conn.close()


# -- the clients -----------------------------------------------------------------

def _one_op(conn: http.client.HTTPConnection, name: str, keep: bool) -> Op:
    t0 = time.perf_counter()
    deadline = t0 + OP_TIMEOUT_S
    conn.request("POST", "/jobs", headers=_JSON,
                 body=json.dumps({"workload": name}))
    resp = conn.getresponse()
    data = resp.read()
    t1 = time.perf_counter()
    if resp.status != 202:
        raise OpFailed(f"POST /jobs -> {resp.status}")
    job = json.loads(data)["job"]
    hit = bool(job["cached"])
    polls = 0
    while job["state"] not in ("done", "failed"):
        if time.perf_counter() > deadline:
            raise OpFailed("timed out waiting for the job")
        time.sleep(POLL_S)
        status, data = get(conn, f"/jobs/{job['id']}")
        if status != 200:
            raise OpFailed(f"GET /jobs/<id> -> {status}")
        job = json.loads(data)["job"]
        polls += 1
    t2 = time.perf_counter()
    if job["state"] != "done":
        raise OpFailed(f"job failed: {job['error']}")
    status, body = get(conn, f"/artifacts/{job['key']}")
    t3 = time.perf_counter()
    if status != 200:
        raise OpFailed(f"GET /artifacts/<key> -> {status}")
    if t3 > deadline:
        raise OpFailed("timed out")
    return Op(name, True, hit, t3 - t0, t1 - t0, t2 - t1, t3 - t2, polls,
              hashlib.sha256(body).hexdigest(), body if keep else b"")


def _client(host: str, port: int, names: List[str], keep: Set[int],
            start: threading.Barrier, out: List[Op]) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=OP_TIMEOUT_S)
    start.wait()
    for i, name in enumerate(names):
        t0 = time.perf_counter()
        try:
            out.append(_one_op(conn, name, i in keep))
        except (OpFailed, OSError, http.client.HTTPException,
                ValueError, KeyError) as exc:
            out.append(Op(name, False, False, time.perf_counter() - t0,
                          error=f"{type(exc).__name__}: {exc}"))
            conn.close()     # reconnects on the next request
    conn.close()


def drive(host: str, port: int, posts: List[List[str]],
          keep: List[Set[int]]) -> Tuple[List[List[Op]], float]:
    """Run one closed-loop client thread per list in ``posts``; returns
    each client's ops and the wall from common start to last finish."""
    start = threading.Barrier(len(posts) + 1)
    results: List[List[Op]] = [[] for _ in posts]
    threads = [threading.Thread(target=_client, name=f"client-{c}",
                                args=(host, port, names, keep[c], start,
                                      results[c]))
               for c, names in enumerate(posts)]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return results, time.perf_counter() - t0


# -- the workload ------------------------------------------------------------------

def run(cfg) -> Dict:
    clients = min(os.cpu_count() or 1, MAX_CLIENTS)
    posts = workloads.http_ops(cfg.seed, cfg.seconds, clients, cfg.smoke)
    rng = random.Random(f"http-mixed:sample:{cfg.seed}")
    keep = [set(rng.sample(range(len(names)),
                           max(1, len(names) // workloads.HTTP_SAMPLE_EVERY)))
            for names in posts]
    with common.scratch_dir("http-") as scratch:
        servers: List[Server] = []

        def setup() -> Server:
            for earlier in servers:
                earlier.stop()               # idempotent
            servers.append(Server(scratch))
            return servers[-1]

        try:
            server, setup_s = common.median_setup(setup)
            cpu0 = server.cpu_seconds()
            results, wall = drive(server.host, server.port, posts, keep)
            cpu_s = server.cpu_seconds() - cpu0
            rss_mb = server.peak_rss_mb()
            snapshot = server.metrics() if cfg.trace else None
        finally:
            for server in servers:
                server.stop()

    ops = [op for client in results for op in client]
    samples = [Sample("hit" if op.hit else "miss", op.seconds, op.ok)
               for op in ops]
    for op in ops:
        if not op.ok:
            print(f"op failed: {op.name}: {op.error}")
    wrong, checked = _check(ops)
    out = {"ops_digest": workloads.ops_digest(posts), "setup_s": setup_s,
           "samples": samples, "wrong": wrong, "checked": checked,
           "rows": common.rows(samples)}
    good = [op for op in ops if op.ok]
    if cfg.trace:
        out.update(_traced(cfg, good, wall, cpu_s, snapshot))
        return out
    out["metrics"] = common.end_to_end(samples, setup_s=setup_s,
                                       busy_s=wall, rss_mb=rss_mb)
    p95 = stats.percentile([op.seconds for op in good], 95)
    out["extra"] = {"clients": clients, "wall_s": wall,
                    "hit_share": sum(op.hit for op in good) / len(good)
                    if good else 0.0,
                    "p95_ms": None if p95 is None else p95 * 1e3}
    return out


def _check(ops: List[Op]) -> Tuple[List[str], int]:
    """Every fetch of one name must return the same bytes; each sampled
    artifact must equal an in-process job on the same name, whose
    outputs must equal the generator's tree-oracle reference."""
    wrong: List[str] = []
    digests: Dict[str, str] = {}
    reference: Dict[str, str] = {}
    checked = 0
    for op in ops:
        if not op.ok:
            continue
        checked += 1
        if digests.setdefault(op.name, op.digest) != op.digest:
            wrong.append(f"{op.name}: artifact bytes differ between fetches")
        if not op.body:
            continue
        if op.name not in reference:
            artifact = execute_request(AnalysisRequest(op.name))
            oracle = from_name(op.name).manifest["reference"]["outputs"]
            if artifact["execution"]["outputs"] != oracle:
                wrong.append(f"{op.name}: outputs differ from the "
                             "tree-oracle reference")
            reference[op.name] = canonical_json(artifact)
        if canonical_json(json.loads(op.body)) != reference[op.name]:
            wrong.append(f"{op.name}: served artifact differs from an "
                         "in-process job")
    return wrong, checked


def _traced(cfg, good: List[Op], wall: float, cpu_s: float,
            snapshot: Dict) -> Dict:
    counters = snapshot["counters"]
    misses = [op for op in good if not op.hit]
    metrics: Dict[str, float] = {
        "service.post_ms": stats.median([op.post_s for op in good]) * 1e3,
        "service.wait_ms": stats.median([op.wait_s for op in misses]) * 1e3,
        "service.fetch_ms": stats.median([op.fetch_s for op in good]) * 1e3,
        "service.polls_per_miss":
            sum(op.polls for op in misses) / len(misses),
        "service.hit_share": (len(good) - len(misses)) / len(good),
        "service.cpu_per_job_ms": cpu_s / len(good) * 1e3,
        "service.retries": counters.get("jobs_retried", 0),
    }
    for name in ("cache_hits", "cache_misses", "artifacts_computed",
                 "jobs_deduped", "proc_cache_hit", "shed_total"):
        metrics[f"service.{name}"] = counters.get(name, 0)

    # where a computed job's time goes, measured in-process on a seeded
    # sample of the names the server had to compute
    computed = sorted({op.name for op in misses})
    sample = random.Random(f"http-mixed:traced:{cfg.seed}").sample(
        computed, min(TRACED_NAMES, len(computed)))
    generate_s = []
    for name in sample:
        t0 = time.perf_counter()
        generate(*parse_name(name))
        generate_s.append(time.perf_counter() - t0)
        from_name(name)      # memoised: the staged jobs must not pay it again
    log = layers.SpanLog()
    with common.scratch_dir("http-staged-") as scratch:
        staged = cold.staged_programs(log, sample, scratch, options={})
    metrics.update(staged["metrics"])
    inproc = [g + staged["walls"][name]
              for g, name in zip(generate_s, sample)]
    metrics["workloads.synth_generate_s"] = sum(generate_s)
    metrics["service.inproc_miss_ms"] = stats.median(inproc) * 1e3
    metrics["service.overhead_ms"] = \
        stats.median([op.seconds for op in misses]) * 1e3 \
        - metrics["service.inproc_miss_ms"]
    request = cold.cold_request(sample[0], {})
    metrics.update(layers.profile_fold(lambda: execute_request(request)))
    return {"metrics": metrics, "spans": log.spans,
            "extra": {"wall_s": wall, "staged_names": len(sample),
                      "timers": snapshot.get("timers", {})}}
