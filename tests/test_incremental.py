"""Incremental per-procedure analysis: bit-parity, cone invalidation,
and the timing/ID correctness fixes that ride along.

The contract under test (ISSUE: incremental cone cache):

* a warm re-analysis served from the ``proc/`` cache is **bit-identical**
  to a cold full recompute — provenance lives only in spans/metrics;
* an edit to one procedure recomputes **exactly** its dependency cone
  (``incr.cone`` spans) and reuses everything else (``incr.reuse``);
* slices are demand-driven and keyed by the *down*-cone only.
"""

import gc
import json
import threading
import time

import pytest

from repro.analysis.incremental import (ConeIndex, IncrementalAnalyzer,
                                        IncrementalKeys,
                                        proc_source_segments,
                                        set_proc_store)
from repro.ir import build_program
from repro.lang.parser import reset_parse_cache
from repro.obs import Tracer, activate
from repro.runtime.transpile import reset_codegen_cache
from repro.service.artifacts import ArtifactStore, canonical_json
from repro.service.jobs import (AnalysisRequest, Job, execute_request,
                                validate_options)
from repro.workloads import ALL, get


@pytest.fixture(autouse=True)
def _no_global_proc_store():
    """Tests wire stores explicitly; never leak one across tests."""
    set_proc_store(None)
    yield
    set_proc_store(None)


def _analyze(source, name, store, slice_names=()):
    program = build_program(source, name)
    analyzer = IncrementalAnalyzer(program, source, store=store)
    return analyzer.analysis_artifact(slice_names=slice_names)


def _comment_edit(source, program, victim, comment="C edited"):
    """Insert ``comment`` at the top of ``victim``: a content change
    with identical semantics (every ⟨R,E,W,M⟩ summary stays bit-equal)."""
    at = program.procedures[victim].source_lines.start
    lines = source.splitlines()
    return "\n".join(lines[:at] + [comment] + lines[at:])


def _traced_analyze(source, name, store, slice_names=()):
    tracer = Tracer()
    with activate(tracer):
        artifact = _analyze(source, name, store, slice_names)
    spans = tracer.to_dicts()
    recomputed = {s["tags"]["proc"] for s in spans
                  if s["name"] == "incr.cone"
                  and s["tags"].get("kind") == "plan"}
    reused = {s["tags"]["proc"] for s in spans
              if s["name"] == "incr.reuse"
              and s["tags"].get("kind") == "plan"}
    return artifact, recomputed, reused


# -- whole-corpus bit parity --------------------------------------------------

def test_corpus_warm_analysis_is_bit_identical_to_cold(tmp_path):
    """Every corpus workload: a warm run (100% cache hits) must produce
    byte-for-byte the same artifact as the cold run that filled the
    cache — the canonical-JSON encodings are compared, which is exactly
    what the disk store persists."""
    for name in sorted(ALL):
        w = get(name)
        store = ArtifactStore(str(tmp_path / name))
        cold = _analyze(w.source, w.name, store)
        warm, recomputed, reused = _traced_analyze(w.source, w.name, store)
        assert canonical_json(cold) == canonical_json(warm), name
        assert recomputed == set(), f"{name}: warm run recomputed"
        assert reused == set(build_program(w.source, w.name).procedures)


@pytest.mark.parametrize("workload", ["mdg", "adm", "tomcatv", "trfd"])
def test_analysis_plan_matches_full_pipeline_plan(workload):
    """The demand-driven (lazy) analyzer must reach the very same
    verdicts as the eager full pipeline — the ``plan`` sections of the
    analysis-only artifact and the full job artifact are identical."""
    w = get(workload)
    incr = _analyze(w.source, w.name, ArtifactStore(None))
    full = execute_request(AnalysisRequest(workload))
    assert canonical_json(incr["plan"]) == canonical_json(full["plan"])


def test_comment_edit_recomputes_only_the_cone(tmp_path):
    """Inserting a comment into one procedure (content change, same
    semantics) recomputes exactly the procedures whose plan *value* key
    changed and still lands on a bit-identical artifact vs. a cold run.

    A comment edit leaves every ⟨R,E,W,M⟩ summary bit-identical, so the
    value-keyed second cache level re-anchors the rows of every
    procedure that only sees the victim through its *down*-cone (callee
    summaries are value-hashed); what still recomputes is the victim
    itself plus procedures with the victim in their *after*-cone — the
    liveness context is keyed by continuation sources.  A hot re-run
    of the edited source then recomputes nothing."""
    for name in ("mdg", "trfd", "ocean", "hydro", "hydro2d"):
        w = get(name)
        program = build_program(w.source, w.name)
        store = ArtifactStore(str(tmp_path / name))
        _analyze(w.source, w.name, store)

        victim = list(program.procedures)[-1]
        edited = _comment_edit(w.source, program, victim)
        edited_program = build_program(edited, w.name)

        old_keys = IncrementalKeys(program, w.source)
        new_keys = IncrementalKeys(edited_program, edited)
        stale = {p for p in edited_program.procedures
                 if old_keys.plan_key(p) != new_keys.plan_key(p)}
        assert victim in stale

        expected = {p for p in edited_program.procedures
                    if p == victim or victim in new_keys.cones.after(p)}
        assert expected <= stale    # value level never widens a miss

        warm, recomputed, reused = _traced_analyze(edited, w.name, store)
        assert recomputed == expected, name
        assert reused == set(edited_program.procedures) - expected

        cold = _analyze(edited, w.name,
                        ArtifactStore(str(tmp_path / f"{name}-cold")))
        assert canonical_json(warm) == canonical_json(cold), name

        hot, recomputed, _ = _traced_analyze(edited, w.name, store)
        assert recomputed == set(), name
        assert canonical_json(hot) == canonical_json(cold), name


@pytest.mark.parametrize("name,victim", [
    ("mdg", "initia"), ("flo88", "initw"), ("hydro2d", "start2d")])
def test_warm_and_hot_reanalysis_are_10x_the_cold_pipeline(
        tmp_path, name, victim):
    """What the user waits for after an edit: the first re-analysis
    after a comment edit to ``victim`` (warm) and a re-analysis of
    unchanged source (hot) are each at least 10x faster than the cold
    full pipeline (a whole job, codegen and parse memos emptied).  Each
    of 5 rounds times the cold job, a new comment edit and its hot
    re-run back to back, alternating whether the cold job runs first;
    the median round's ratios must hold, so a drift in host speed moves
    both sides.  The warm artifact is byte-identical to a cold one."""
    def timed(fn, *args):
        gc.collect()                 # each run pays for its own garbage
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out

    def cold_job():
        reset_codegen_cache()
        reset_parse_cache()
        return timed(execute_request, AnalysisRequest(name))[0]

    w = get(name)
    program = build_program(w.source, name)
    store = ArtifactStore(str(tmp_path))
    _analyze(w.source, name, store)
    warm_x, hot_x = [], []
    for i in range(5):
        full_s = cold_job() if i % 2 == 0 else None
        edited = _comment_edit(w.source, program, victim, f"C edit {i}")
        warm_s, warm = timed(_analyze, edited, name, store)
        hot_s = timed(_analyze, edited, name, store)[0]
        full_s = full_s or cold_job()
        warm_x.append(full_s / warm_s)
        hot_x.append(full_s / hot_s)
    cold = _analyze(edited, name, ArtifactStore(None))
    assert canonical_json(warm) == canonical_json(cold)
    warm_x, hot_x = sorted(warm_x)[2], sorted(hot_x)[2]     # medians
    assert hot_x >= 10.0, hot_x
    assert warm_x >= 10.0, warm_x


# -- the cache-invalidation matrix --------------------------------------------

MATRIX_SRC = """      PROGRAM matrix
      COMMON /shared/ a(100), b(100), nsz
      nsz = 50
      CALL first
      CALL second
      CALL tail
      PRINT *, a(1), b(1)
      END

      SUBROUTINE first
      COMMON /shared/ a(100), b(100), nsz
      COMMON /aux/ w(100)
      DO 10 i = 1, nsz
        a(i) = i * 2.0
        w(i) = i * 0.5
10    CONTINUE
      END

      SUBROUTINE second
      COMMON /shared/ a(100), b(100), nsz
      COMMON /aux/ w(100)
      CALL leaf
      DO 20 i = 1, nsz
        b(i) = a(i) + w(i) * 0.25
20    CONTINUE
      END

      SUBROUTINE leaf
      COMMON /shared/ a(100), b(100), nsz
      DO 30 i = 1, nsz
        a(i) = a(i) * 0.5
30    CONTINUE
      END

      SUBROUTINE tail
      COMMON /shared/ a(100), b(100), nsz
      DO 40 i = 1, nsz
        b(i) = b(i) + a(i)
40    CONTINUE
      END
"""


def _matrix_case(tmp_path, tag, edited, expected_recompute):
    store = ArtifactStore(str(tmp_path / tag))
    _analyze(MATRIX_SRC, "matrix", store)
    warm, recomputed, reused = _traced_analyze(edited, "matrix", store)
    all_procs = set(build_program(edited, "matrix").procedures)
    assert recomputed == expected_recompute, tag
    assert reused == all_procs - expected_recompute, tag
    cold = _analyze(edited, "matrix",
                    ArtifactStore(str(tmp_path / f"{tag}-cold")))
    assert canonical_json(warm) == canonical_json(cold), tag


def test_matrix_cone_geometry():
    """The fixture's cones, spelled out: ``first`` is called first (so
    everything runs after it → wide after-cone), ``tail`` is called last
    (narrow cone — the survivor in every matrix case)."""
    cones = ConeIndex(build_program(MATRIX_SRC, "matrix"))
    assert cones.cone("tail") == ("matrix", "tail")
    assert cones.cone("second") == ("leaf", "matrix", "second", "tail")
    assert cones.cone("first") == ("first", "leaf", "matrix", "second",
                                   "tail")


def test_matrix_edit_procedure_body_region_neutral(tmp_path):
    """Changing a multiplier constant in ``first`` leaves its ⟨R,E,W,M⟩
    summary bit-identical (regions describe *which* elements are
    touched, not the values).  The value-keyed second cache level
    therefore re-anchors every caller's rows — only ``first`` itself
    re-plans."""
    edited = MATRIX_SRC.replace("a(i) = i * 2.0", "a(i) = i * 3.0")
    _matrix_case(tmp_path, "body", edited, {"first"})


def test_matrix_edit_procedure_body_region_changing(tmp_path):
    """Shrinking ``first``'s loop bound changes its write *region*, so
    the summary value hash changes and every procedure with ``first``
    in its down-cone (main) re-plans.  ``second``/``leaf``/``tail`` run
    after it — their liveness environments are unaffected, cache
    hits."""
    edited = MATRIX_SRC.replace("DO 10 i = 1, nsz",
                                "DO 10 i = 2, nsz")
    _matrix_case(tmp_path, "body-region", edited, {"matrix", "first"})


def test_matrix_edit_callee_signature(tmp_path):
    """Giving ``leaf`` a formal parameter edits two segments (callee +
    call site in ``second``); every cone containing either recomputes.
    ``tail``'s cone contains neither — cache hit."""
    edited = (MATRIX_SRC
              .replace("SUBROUTINE leaf", "SUBROUTINE leaf(m)")
              .replace("CALL leaf", "CALL leaf(2)")
              .replace("a(i) = a(i) * 0.5", "a(i) = a(i) * 0.5 * m"))
    _matrix_case(tmp_path, "sig", edited,
                 {"matrix", "first", "second", "leaf"})


def test_matrix_edit_common_declaration(tmp_path):
    """Splitting ``first``'s view of ``/aux/`` changes the block's
    layout signature.  ``second`` and ``leaf`` must recompute even
    though *no source hash in their cones changed* — ``/aux/`` is
    declared by a cone member, and COMMON signatures are program-wide.
    ``tail`` has no ``/aux/`` declarer in its cone — cache hit."""
    edited = MATRIX_SRC.replace(
        "COMMON /aux/ w(100)\n      DO 10",
        "COMMON /aux/ w(60), v(40)\n      DO 10")
    old_keys = IncrementalKeys(build_program(MATRIX_SRC, "matrix"),
                               MATRIX_SRC)
    new_keys = IncrementalKeys(build_program(edited, "matrix"), edited)
    # the proof that the COMMON term matters: second's cone hashes are
    # untouched by this edit, yet its plan key changes
    assert all(old_keys.hashes[q] == new_keys.hashes[q]
               for q in old_keys.cones.cone("second"))
    assert old_keys.plan_key("second") != new_keys.plan_key("second")
    _matrix_case(tmp_path, "common", edited,
                 {"matrix", "first", "second", "leaf"})


# -- demand-driven slicing -----------------------------------------------------

def test_slice_cache_survives_edits_outside_the_down_cone(tmp_path):
    """A slice from a use inside ``leaf`` never crosses upward past the
    exposed formals, so its cache key covers ``down(leaf) = {leaf}``
    only: editing ``tail`` must leave the slice entry warm."""
    store = ArtifactStore(str(tmp_path / "slices"))
    program = build_program(MATRIX_SRC, "matrix")
    loop = next(l.name for l in program.procedures["leaf"].loops())
    first = _analyze(MATRIX_SRC, "matrix", store, slice_names=[loop])

    edited = MATRIX_SRC.replace("b(i) = b(i) + a(i)",
                                "b(i) = b(i) + a(i) * 2.0")
    tracer = Tracer()
    with activate(tracer):
        second = _analyze(edited, "matrix", store, slice_names=[loop])
    reuse = [s for s in tracer.to_dicts() if s["name"] == "incr.reuse"
             and s["tags"].get("kind") == "slice"]
    assert len(reuse) == 1 and reuse[0]["tags"]["proc"] == "leaf"
    assert first["slices"] == second["slices"]


def test_slice_at_session_api():
    from repro.explorer.session import ExplorerSession
    w = get("mdg")
    session = ExplorerSession(build_program(w.source, w.name))
    session.run_automatic()
    slices = session.slice_at("interf/1000")
    assert slices and all(ds.program_slice.statements for ds in slices)
    with pytest.raises(ValueError, match="unknown loop"):
        session.slice_at("nonesuch/1")


def test_service_slice_option_and_analysis_only():
    w_opts = validate_options({"slice": "interf/1000",
                               "analysis_only": True})
    assert w_opts["slice"] == ["interf/1000"]
    full = execute_request(AnalysisRequest(
        "mdg", options={"slice": ["interf/1000"]}))
    assert "interf/1000" in full["slices"]
    assert full["slices"]["interf/1000"]          # rl is dependent
    only = execute_request(AnalysisRequest(
        "mdg", options={"analysis_only": True, "slice": ["interf/1000"]}))
    assert canonical_json(only["plan"]) == canonical_json(full["plan"])
    assert canonical_json(only["slices"]) == canonical_json(full["slices"])
    assert "execution" not in only and "profiles" not in only


def test_service_option_validation():
    with pytest.raises(ValueError, match="analysis_only"):
        validate_options({"analysis_only": True, "assertions": True})
    with pytest.raises(ValueError, match="slice"):
        validate_options({"slice": [f"l{i}" for i in range(17)]})
    with pytest.raises(ValueError, match="slice"):
        validate_options({"slice": 7})
    with pytest.raises(ValueError, match="use_reductions must be a boolean"):
        validate_options({"use_reductions": "no"})
    with pytest.raises(ValueError, match="liveness_variant.*'one_bit'"):
        validate_options({"liveness_variant": "onebit"})
    assert validate_options({"use_reductions": 0,
                             "liveness_variant": "one_bit"}) == \
        {"use_reductions": False, "liveness_variant": "one_bit"}
    with pytest.raises(ValueError, match="Guru"):
        execute_request(AnalysisRequest(
            "mdg", options={"analysis_only": True, "slice": ["targets"]}))


# -- one driver: full jobs and analysis_only jobs agree ------------------------

@pytest.mark.parametrize("workload,options", [
    ("embar", {"use_reductions": False}),
    ("mdg", {"liveness_variant": "one_bit"}),
    ("flo88", {"liveness_variant": "flow_insensitive"}),
    ("hydro", {}),
    ("hydro2d", {}),
])
def test_full_job_plans_with_its_options_and_cannot_poison_proc_store(
        tmp_path, workload, options):
    """A full job plans with the analysis options it records (it used to
    receive ``use_liveness`` only and plan the rest with the defaults),
    so its rows — written into ``proc/`` under the option-bearing key —
    are the rows a cold ``analysis_only`` job computes: the follow-up
    ``analysis_only`` job is served entirely from the store and is
    byte-equal to a store-less cold one.  With default options this is
    the cross-path case: every procedure's rows are store hits."""
    static = AnalysisRequest(workload,
                             options=dict(options, analysis_only=True))
    cold = execute_request(static)                   # no store registered
    if options:
        default = execute_request(AnalysisRequest(
            workload, options={"analysis_only": True}))
        assert cold["plan"] != default["plan"]       # the option matters
    set_proc_store(ArtifactStore(str(tmp_path)))
    full = execute_request(AnalysisRequest(workload, options=options))
    assert canonical_json(full["plan"]) == canonical_json(cold["plan"])
    tracer = Tracer()
    with activate(tracer):
        warm = execute_request(static)
    spans = tracer.to_dicts()
    assert [s["tags"]["proc"] for s in spans
            if s["name"] == "incr.cone"] == []
    assert {s["tags"]["proc"] for s in spans if s["name"] == "incr.reuse"
            and s["tags"].get("kind") == "plan"} == \
        set(get(workload).build().procedures)
    assert canonical_json(warm) == canonical_json(cold)


# -- source segmentation --------------------------------------------------------

def test_proc_source_segments_cover_the_file():
    program = build_program(MATRIX_SRC, "matrix")
    segments = proc_source_segments(MATRIX_SRC, program)
    assert set(segments) == set(program.procedures)
    assert "\n".join(segments[p.name] for p in sorted(
        program.procedures.values(),
        key=lambda p: p.source_lines.start)) == MATRIX_SRC.rstrip("\n")


# -- satellite: monotonic job durations -----------------------------------------

def test_job_duration_survives_wall_clock_step(monkeypatch):
    """``duration_s`` comes from a monotonic pair: a backwards NTP step
    between start and finish must not produce a negative duration."""
    job = Job(AnalysisRequest("trfd"), key="k")
    wall = iter([1000.0, 900.0])           # clock steps back 100s
    monkeypatch.setattr("repro.service.jobs.time.time",
                        lambda: next(wall))
    job.mark_running()
    job.mark_done()
    assert job.finished_at - job.started_at < 0     # wall pair is wrong
    assert job.duration_s is not None and 0 <= job.duration_s < 5.0
    assert job.to_dict()["duration_s"] == job.duration_s


def test_job_duration_none_until_finished():
    job = Job(AnalysisRequest("trfd"), key="k")
    assert job.duration_s is None
    job.mark_running()
    assert job.duration_s is None
    job.mark_done()
    assert job.duration_s >= 0


# -- satellite: span-id uniqueness -----------------------------------------------

def test_span_ids_unique_across_10k_rapid_spans():
    """Span ids must never collide, even for spans opened faster than
    the clock ticks and across threads (the old scheme mixed a pid with
    a millisecond timestamp)."""
    tracer = Tracer()
    ids = []
    lock = threading.Lock()

    def burst(n):
        local = []
        with activate(tracer):
            for _ in range(n):
                with tracer.span("s") as sp:
                    local.append(sp.span_id)
        with lock:
            ids.extend(local)

    threads = [threading.Thread(target=burst, args=(1250,))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == 10_000
    assert len(set(ids)) == 10_000


def test_trace_ids_unique_for_rapid_tracers():
    ids = {Tracer().trace_id for _ in range(2000)}
    assert len(ids) == 2000


# -- satellite: artifact-store read/put race --------------------------------------

def test_store_get_never_caches_entry_overwritten_mid_read(tmp_path):
    """A disk read that races a concurrent ``put`` of the same key must
    not leave the *old* artifact in the memory LRU: the racing reader
    may return either version, but every later ``get`` sees the new
    one.  Deterministic replay: the read is intercepted at the stale
    window and a put is injected before the reader re-locks."""
    store = ArtifactStore(str(tmp_path))
    store.put("k" * 64, {"v": 1})
    store.clear_memory()

    real_read = store._read_disk

    def racing_read(key):
        stale = real_read(key)
        store.put(key, {"v": 2})        # lands inside the read window
        return stale

    store._read_disk = racing_read
    first = store.get("k" * 64)
    store._read_disk = real_read
    assert first == {"v": 2}            # memory already superseded it
    assert store.get("k" * 64) == {"v": 2}
    store.clear_memory()
    assert store.get("k" * 64) == {"v": 2}


def test_store_quarantined_key_not_refilled_with_stale_value(tmp_path):
    """Quarantine-then-rewrite: a reader that loaded bytes *before* the
    corruption was quarantined and rewritten must not resurrect them."""
    key = "q" * 64
    store = ArtifactStore(str(tmp_path))
    store.put(key, {"v": "old"})
    store.clear_memory()
    real_read = store._read_disk

    def racing_read(k):
        stale = real_read(k)
        store.corrupt_on_disk(k)        # out-of-band corruption + bump
        store.put(k, {"v": "new"})      # operator rewrites the key
        return stale

    store._read_disk = racing_read
    store.get(key)
    store._read_disk = real_read
    assert store.get(key) == {"v": "new"}


def test_store_concurrent_puts_same_key_keep_file_valid(tmp_path):
    """Hammer one key from many threads: unique tmp names mean no two
    writers ever interleave into one file — the survivor is always one
    complete, schema-valid artifact."""
    store = ArtifactStore(str(tmp_path))
    key = "c" * 64
    errors = []

    def writer(v):
        try:
            for i in range(50):
                store.put(key, {"v": v, "i": i})
        except Exception as exc:        # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(v,))
               for v in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    store.clear_memory()
    got = store.get(key)
    assert got is not None and got["v"] in range(8) and got["i"] == 49
    leftovers = list(store.root.glob("*/*.tmp"))
    assert leftovers == []
