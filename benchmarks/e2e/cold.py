"""``cold-static`` and ``cold-exec``: cold full-pipeline jobs, in-process.

One op is what the paper's user waits for — parallelize, profile, rank,
slice, tell me what it buys — as one ``execute_request`` with every
process cache the program owns emptied first (through its public reset
functions only).  The two workloads run the same call over different
programs: on ``cold-static`` the static analysis does almost all the
work, on ``cold-exec`` the three instrumented executions do.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

import checks
import common
import layers
import stats
import workloads
from common import Sample
from repro.analysis.incremental import set_proc_store
from repro.obs import Tracer, activate
from repro.runtime import reset_codegen_cache
from repro.service.artifacts import ArtifactStore, canonical_json
from repro.service.jobs import AnalysisRequest, execute_request

#: program profiled under cProfile in the traced run
PROFILED = {"cold-static": "wave5", "cold-exec": "mdg"}

_WARMUP_SOURCE = """
      PROGRAM warm
      DIMENSION a(8)
      DO 10 i = 1, 8
        a(i) = i * 2.0
10    CONTINUE
      PRINT *, a(3)
      END
"""


#: the cold workloads' job: the full pipeline plus the Guru targets' slices
FULL_JOB = {"slice": ["targets"]}


def cold_request(name: str, options: Dict = FULL_JOB) -> AnalysisRequest:
    """The job, with every cache the program owns emptied first."""
    reset_codegen_cache()
    return AnalysisRequest(name, options=options)


def cold_job(name: str, options: Dict = FULL_JOB) -> Tuple[float, Dict]:
    """One cold job: (wall seconds, artifact)."""
    request = cold_request(name, options)
    return common.timed(lambda: execute_request(request))


def _setup(programs: List[str], expected_dir) -> Dict:
    set_proc_store(None)
    # lazy imports and first-call initialisation are set-up, not a job
    execute_request(AnalysisRequest(source=_WARMUP_SOURCE,
                                    program_name="warm", options=FULL_JOB))
    return {"oracle": {p: checks.tree_oracle_outputs(p) for p in programs},
            "expected": {p: checks.load_expected(p, expected_dir)
                         for p in programs}}


def run(cfg) -> Dict:
    ops = workloads.cold_ops(cfg.workload, cfg.seed, cfg.seconds, cfg.smoke)
    programs = sorted(set(ops))
    state, setup_s = common.median_setup(
        lambda: _setup(programs, cfg.expected_dir))
    out = {"ops_digest": workloads.ops_digest(ops), "setup_s": setup_s}
    if cfg.trace:
        out.update(_traced(cfg, programs, state))
        return out

    samples: List[Sample] = []
    seen: Dict[str, bytes] = {}
    wrong: List[str] = []
    checked = 0
    for name in ops:
        try:
            seconds, artifact = cold_job(name)
        except Exception as exc:                     # noqa: BLE001
            print(f"op failed: {name}: {type(exc).__name__}: {exc}")
            samples.append(Sample(name, 0.0, False))
            continue
        samples.append(Sample(name, seconds, True))
        # checks are outside the timed region
        checked += 1
        data = canonical_json(artifact).encode()
        if seen.setdefault(name, data) != data:
            wrong.append(f"{name}: artifact bytes differ between repeats")
        else:
            wrong.extend(checks.check_full_artifact(
                name, artifact, state["oracle"][name],
                state["expected"][name]))
    out.update({
        "samples": samples, "wrong": wrong, "checked": checked,
        "metrics": common.end_to_end(samples, setup_s=setup_s,
                                     rss_mb=common.peak_rss_mb()),
        "rows": common.rows(samples),
    })
    return out


# -- traced run ----------------------------------------------------------------

def _trace_overhead(name: str, repeats: int = 3) -> float:
    """Job wall under an active ``obs.Tracer`` over the wall without
    one, minus 1, alternating the two so drift cancels."""
    plain, traced = [], []
    for _ in range(repeats):
        plain.append(cold_job(name)[0])
        with activate(Tracer()):
            traced.append(cold_job(name)[0])
    return stats.median(traced) / stats.median(plain) - 1.0


def staged_programs(log: layers.SpanLog, programs: List[str], scratch,
                    options: Dict = FULL_JOB) -> Dict:
    """For each program: one untraced reference job, the same job staged
    under spans, and the artifact through a store on ``scratch``.
    Returns the summed ``metrics``, the per-program ``rows``, and the
    reference jobs' ``walls`` and ``artifacts``."""
    store = ArtifactStore(str(scratch / "artifacts"))
    totals: Dict[str, float] = {}
    rows: Dict[str, Dict] = {}
    walls: Dict[str, float] = {}
    artifacts: Dict[str, Dict] = {}
    for name in programs:
        walls[name], artifact = cold_job(name, options)
        artifacts[name] = artifact
        request = cold_request(name, options)
        gc.collect()                     # as the reference job had
        row = layers.staged_job(log, name, request)
        key = request.key()
        with log.span("service.store_put_s", name):
            store.put(key, artifact)
        store = ArtifactStore(str(scratch / "artifacts"))   # drop the LRU
        with log.span("service.store_get_s", name):
            fetched = store.get(key)
        row["service.artifact_bytes"] = len(canonical_json(fetched))
        for span_name in layers.STAGES + ("lang.parse_s",
                                          "service.store_put_s",
                                          "service.store_get_s"):
            row[span_name] = log.seconds(span_name, name)
        row["service.residual_s"] = \
            walls[name] - layers.staged_seconds(log, name)
        row["job_s"] = walls[name]
        rows[name] = row
        for metric, value in row.items():
            totals[metric] = totals.get(metric, 0.0) + value
    ops = totals.pop("runtime.ops")
    totals.pop("job_s")
    totals["runtime.profile_ops_per_s"] = ops / totals["runtime.profile_s"]
    totals["runtime.dyndep_ops_per_s"] = ops / totals["runtime.dyndep_s"]
    return {"metrics": totals, "rows": rows, "walls": walls,
            "artifacts": artifacts}


def _traced(cfg, programs: List[str], state: Dict) -> Dict:
    log = layers.SpanLog()
    with common.scratch_dir("cold-") as scratch:
        staged = staged_programs(log, programs, scratch)
    metrics, walls = staged["metrics"], staged["walls"]
    wrong: List[str] = []
    for name, artifact in staged["artifacts"].items():
        wrong.extend(checks.check_full_artifact(
            name, artifact, state["oracle"][name], state["expected"][name]))
    fastest = min(walls, key=walls.get)
    metrics["obs.trace_overhead_share"] = _trace_overhead(fastest)
    profiled = PROFILED[cfg.workload]
    if profiled not in programs:                     # smoke sizes
        profiled = fastest
    request = cold_request(profiled)
    metrics.update(layers.profile_fold(lambda: execute_request(request)))
    return {"metrics": metrics, "detail_rows": staged["rows"],
            "rows": {p: {"job_s": row["job_s"],
                         "staged_s": layers.staged_seconds(log, p),
                         "service.residual_s": row["service.residual_s"]}
                     for p, row in staged["rows"].items()},
            "spans": log.spans,
            "samples": [Sample(p, walls[p], True) for p in programs],
            "wrong": wrong, "checked": len(programs)}
