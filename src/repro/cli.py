"""Command-line interface: ``python -m repro <command> <file.f> ...``.

Commands mirror the Explorer workflow on mini-Fortran source files:

* ``run``         — execute the program, print its output,
* ``parallelize`` — run the automatic parallelizer, print per-loop plans
  and the annotated source,
* ``explore``     — the full Explorer session: profile, dynamic
  dependences, Guru strategy, codeview, simulated speedup,
* ``profile``     — the Loop Profile Analyzer: per-loop inclusive op
  counts, invocation counts and coverage (reports which execution
  engine ran on stderr),
* ``dyndep``      — the Dynamic Dependence Analyzer: loop-carried flow
  dependences observed in one instrumented execution (reports which
  execution engine ran on stderr),
* ``slice``       — slice a variable's uses inside a loop,
* ``advise``      — memory-performance advisories,
* ``compile``     — transpile to a self-contained Python module,
* ``batch``       — run many workloads through the cached process-pool
  scheduler (``repro batch`` = the full corpus),
* ``serve``       — the multi-client analysis service over HTTP,
* ``trace``       — run the full pipeline under the tracer and print the
  span tree (or export Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto).

Workload names from the corpus (e.g. ``mdg``) may be given instead of a
file path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .explorer import ExplorerSession
from .ir import build_program
from .ir.program import Program
from .parallelize import Parallelizer, annotate_source
from .parallelize.memory_advisor import advise, report_lines
from .runtime import (ENGINE_NAMES, MACHINES, engine_label,
                      execute_parallel, run_program)
from .viz import Codeview, render_slice


def _load(target: str):
    """A (program, inputs, assertions) triple from a path or corpus name
    (eager, lazy, and ``synth/s<seed>-<profile>`` names all resolve)."""
    import os
    from .workloads import get
    try:
        w = get(target)
    except (KeyError, ValueError) as exc:
        if os.path.exists(target):
            with open(target) as fh:
                text = fh.read()
            return build_program(text, target), [], []
        raise SystemExit(f"{target!r} is neither a file nor a corpus "
                         f"workload; {exc.args[0]}")
    return w.build(), w.inputs, w.user_assertions


def _load_source(target: str):
    """A (source, program name) pair — the incremental analyzer hashes
    raw text, so it needs the source itself, not a built Program."""
    import os
    from .workloads import get
    try:
        w = get(target)
    except (KeyError, ValueError):
        if os.path.exists(target):
            with open(target) as fh:
                return fh.read(), target
        raise SystemExit(f"{target!r} is neither a file nor a corpus "
                         f"workload")
    return w.source, w.name


def _machine(name: str):
    try:
        return MACHINES[name]
    except KeyError:
        raise SystemExit(f"unknown machine {name!r}; "
                         f"choose from {sorted(MACHINES)}")


def cmd_run(args) -> int:
    program, inputs, _ = _load(args.target)
    if args.inputs:
        inputs = [float(x) for x in args.inputs]
    interp = run_program(program, inputs, engine=args.engine)
    for value in interp.outputs:
        print(value)
    print(f"[{interp.ops} ops; engine: {engine_label(interp)}]",
          file=sys.stderr)
    return 0


def cmd_parallelize(args) -> int:
    program, inputs, assertions = _load(args.target)
    plan = Parallelizer(program,
                        assertions=assertions if args.assertions else [],
                        use_reductions=not args.no_reductions,
                        use_liveness=not args.no_liveness).plan()
    for loop in program.all_loops():
        lp = plan.plan_for(loop)
        tag = "PARALLEL" if lp.parallel else "sequential"
        print(f"{loop.name}: {tag}")
        for vp in lp.vars.values():
            line = f"    {vp.display_name}: {vp.status}"
            if vp.reason:
                line += f"  ({vp.reason})"
            print(line)
    if args.annotate:
        print("\n--- annotated source ---")
        print(annotate_source(program, plan))
    return 0


def cmd_analyze(args) -> int:
    from .analysis.incremental import (IncrementalAnalyzer,
                                       proc_cache_stats, set_proc_store)
    from .service.artifacts import ArtifactStore
    source, name = _load_source(args.target)
    if args.cache_dir:
        set_proc_store(ArtifactStore(args.cache_dir))
    program = build_program(source, name)
    analyzer = IncrementalAnalyzer(program, source)
    before = proc_cache_stats()
    artifact = analyzer.analysis_artifact(slice_names=args.slice or ())
    after = proc_cache_stats()
    for loop_name, row in artifact["plan"].items():
        tag = "PARALLEL" if row["parallel"] else "sequential"
        print(f"{loop_name}: {tag}")
        if args.verbose:
            for var, vp in row["vars"].items():
                line = f"    {var}: {vp['status']}"
                if vp["reason"]:
                    line += f"  ({vp['reason']})"
                print(line)
    for query, per_var in artifact["slices"].items():
        print(f"slice {query}:")
        for var, counts in per_var.items():
            print(f"    {var}: program={counts['program']} "
                  f"control={counts['control']} "
                  f"cr={counts['program_cr']}/{counts['control_cr']} "
                  f"ar={counts['program_ar']}/{counts['control_ar']}")
    hits = after["hit"] - before["hit"]
    misses = after["miss"] - before["miss"]
    # entries span all three cache levels (plan rows, summaries,
    # liveness contexts), so they exceed the procedure count
    print(f"[{len(artifact['procs'])} procedures; proc-cache "
          f"{hits} hits / {misses} misses]", file=sys.stderr)
    return 0


def cmd_explore(args) -> int:
    program, inputs, assertions = _load(args.target)
    machine = _machine(args.machine)
    session = ExplorerSession(program, inputs=inputs, machine=machine,
                              use_liveness=not args.no_liveness)
    result = session.run_automatic()
    print("== automatic parallelization ==")
    for line in session.summary_lines():
        print(line)
    print("\n== Parallelization Guru ==")
    for line in session.guru.strategy_lines():
        print(line)
    if args.codeview:
        targets = session.guru.targets()
        focus = targets[0].loop if targets else None
        print("\n== codeview ==")
        view = Codeview(program, session.plan)
        print(view.render(focus=focus))
        print(view.legend())
    if assertions and args.assertions:
        print("\n== applying workload assertions ==")
        outcomes, result = session.apply_assertions(assertions)
        for o in outcomes:
            status = "accepted" if o.accepted else "REJECTED"
            print(f"{o.assertion}: {status}")
            for w in o.warnings:
                print(f"  warning: {w}")
        for line in session.summary_lines():
            print(line)
    return 0


def cmd_profile(args) -> int:
    from .runtime.profiler import profile_program
    program, inputs, _ = _load(args.target)
    if args.inputs:
        inputs = [float(x) for x in args.inputs]
    machine = _machine(args.machine)
    profiler = profile_program(program, inputs, engine=args.engine)
    loops = sorted(profiler.executed_loops(),
                   key=lambda p: -p.total_ops)
    print(f"{'loop':<18s} {'total ops':>12s} {'inv':>6s} {'iters':>9s} "
          f"{'coverage':>9s} {'grain ms':>9s}")
    for prof in loops:
        print(f"{prof.name:<18s} {prof.total_ops:>12d} "
              f"{prof.invocations:>6d} {prof.iterations:>9d} "
              f"{profiler.coverage_of(prof.loop):>8.1%} "
              f"{profiler.granularity_ms(prof.loop, machine):>9.3f}")
    print(f"[{profiler.total_ops} ops; engine: "
          f"{engine_label(profiler.interpreter)}]", file=sys.stderr)
    return 0


def cmd_dyndep(args) -> int:
    from .runtime.dyndep import analyze_dependences, reduction_stmt_ids
    program, inputs, _ = _load(args.target)
    if args.inputs:
        inputs = [float(x) for x in args.inputs]
    skip = set() if args.keep_reductions else reduction_stmt_ids(program)
    analyzer = analyze_dependences(program, inputs, skip_stmt_ids=skip,
                                   sample_stride=args.stride,
                                   engine=args.engine)
    loops = {loop.stmt_id: loop for loop in program.all_loops()}
    for loop in program.all_loops():
        count = analyzer.carried.get(loop.stmt_id, 0)
        if not count:
            continue
        vars_ = sorted(name for (lid, name) in analyzer.carried_by_var
                       if lid == loop.stmt_id)
        print(f"{loop.name}: {count} loop-carried flow dependence(s) "
              f"on {', '.join(vars_)}")
        for wline, rline in analyzer.witnesses.get(loop.stmt_id, []):
            print(f"    write line {wline} -> read line {rline}")
    clean = [loop.name for sid, loop in loops.items()
             if sid not in analyzer.carried]
    if clean:
        print(f"no carried dependences observed: {', '.join(clean)}")
    print(f"[sampled {analyzer.sampled_accesses} accesses, skipped "
          f"{analyzer.skipped_accesses}; engine: "
          f"{engine_label(analyzer.interpreter)}]", file=sys.stderr)
    return 0


def cmd_slice(args) -> int:
    from .ir.statements import AssignStmt
    from .ir.expressions import ArrayRef, VarRef
    from .slicing import Slicer
    program, _, _ = _load(args.target)
    loop = program.loop(args.loop)
    proc = program.procedures[loop.proc_name]
    symbol = proc.symbols.lookup(args.variable.lower())
    if symbol is None:
        raise SystemExit(f"no variable {args.variable!r} in "
                         f"{loop.proc_name}")
    slicer = Slicer(program)
    stmt = None
    for s in loop.body.walk():
        for expr in s.sub_expressions():
            for node in expr.walk():
                if isinstance(node, (VarRef, ArrayRef)) and \
                        node.symbol is symbol:
                    stmt = s
                    break
    if stmt is None:
        raise SystemExit(f"{args.variable} is not read inside {args.loop}")
    res = slicer.slice_of_use(
        stmt, symbol, kind=args.kind,
        array_restricted=args.array_restricted,
        region_loop=loop if args.region_restricted else None)
    print(render_slice(program, res, around_loop=loop))
    return 0


def cmd_compile(args) -> int:
    from .runtime.transpile import transpile_to_python
    program, _, _ = _load(args.target)
    text = transpile_to_python(program)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_batch(args) -> int:
    import json
    import time
    from .service import (AnalysisRequest, ArtifactStore, BatchScheduler,
                          ServiceMetrics, canonical_json)
    from .workloads import ALL, get
    names = args.names or sorted(ALL)
    try:
        for name in names:
            get(name)
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc.args[0]))
    options = {"engine": args.engine, "machine": args.machine,
               "use_liveness": not args.no_liveness,
               "assertions": args.assertions}
    requests = [AnalysisRequest(name, options=options) for name in names]
    metrics = ServiceMetrics()
    store = ArtifactStore(args.cache_dir, metrics=metrics)
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer
        tracer = Tracer()
    t0 = time.perf_counter()
    with BatchScheduler(store, metrics=metrics, workers=args.workers,
                        inline=args.sequential,
                        tracer=tracer) as scheduler:
        jobs = [scheduler.submit(r) for r in requests]
        scheduler.wait(jobs)
        artifacts = [scheduler.artifact(j) for j in jobs]
    elapsed = time.perf_counter() - t0
    failed = 0
    if args.json:
        print(canonical_json({n: a for n, a in zip(names, artifacts)}))
    for name, job, artifact in zip(names, jobs, artifacts):
        # Exit status keys on the job *state*, not on artifact presence:
        # a done job whose artifact was evicted from a memory-only store
        # is not a failure, while a failed job must be nonzero even if a
        # stale artifact exists under the same key.
        if job.state == "failed":
            failed += 1
            print(f"{name:14s} FAILED  {job.error}", file=sys.stderr)
        elif artifact is None:
            print(f"{name:14s} done (artifact evicted from cache; rerun "
                  f"with --cache-dir to keep it)", file=sys.stderr)
        elif not args.json:
            ex = artifact["execution"]
            tag = "cached" if job.cached else "computed"
            print(f"{name:14s} {tag:8s} speedup {ex['speedup']:5.2f}x  "
                  f"coverage {ex['coverage']:6.1%}  "
                  f"key {job.key[:12]}")
    if tracer is not None:
        from .obs import to_chrome
        with open(args.trace, "w") as fh:
            json.dump(to_chrome(tracer.to_dicts()), fh)
        print(f"[trace: {len(tracer.finished_spans())} spans -> "
              f"{args.trace}]", file=sys.stderr)
    snap = metrics.snapshot()
    print(f"[{len(names)} jobs in {elapsed:.2f}s; cache hit-rate "
          f"{snap['cache_hit_rate']:.0%}]", file=sys.stderr)
    return 1 if failed else 0


def cmd_serve(args) -> int:
    import threading
    from .service import AnalysisServer
    server = AnalysisServer(
        cache_dir=args.cache_dir, workers=args.workers,
        host=args.host, port=args.port, quiet=not args.verbose,
        inject=args.inject, default_deadline_s=args.default_deadline,
        max_jobs=args.max_jobs, max_queue=args.max_queue,
        allow_faults=(True if args.allow_faults else None),
        shards=args.shards)
    if args.inject:
        print(f"[chaos] fault injection active: {args.inject}", flush=True)
    elif args.allow_faults:
        print("[chaos] per-request fault directives allowed", flush=True)
    # The server binds inside its event loop; start the loop in a
    # background thread so the bound URL (port 0 included) is printable
    # before blocking.
    server.start()
    print(f"analysis service listening on {server.url} "
          f"({args.shards} shards)", flush=True)
    print("  POST /jobs {\"workload\": \"mdg\"}   GET /jobs/<id>")
    print("  GET /jobs/<id>/events  (progress; SSE with "
          "Accept: text/event-stream)")
    print("  GET /artifacts/<key>   GET /corpus   GET /metrics")
    print("  GET /trace/<job_id>    (per-job span trace)", flush=True)
    try:
        threading.Event().wait()          # serve from the started thread
    except KeyboardInterrupt:
        print("\nshutting down")
        server.stop()
    return 0


def cmd_trace(args) -> int:
    import json
    from .obs import (Tracer, activate, phase_totals, render_tree,
                      to_chrome)
    from .service import AnalysisRequest
    from .service.jobs import execute_request
    # slicing is demand-driven now; ask for the guru targets' slices so
    # the trace exercises the full phase taxonomy
    options = {"engine": args.engine, "machine": args.machine,
               "slice": ["targets"]}
    target = args.target
    import os
    from .workloads import ALL
    if target in ALL:
        request = AnalysisRequest(target, options=options)
    elif os.path.exists(target):
        with open(target) as fh:
            request = AnalysisRequest(source=fh.read(),
                                      program_name=target,
                                      inputs=[], options=options)
    else:
        raise SystemExit(
            f"{target!r} is neither a file nor a corpus workload; "
            f"workloads: {', '.join(sorted(ALL))}")
    tracer = Tracer()
    with activate(tracer):
        execute_request(request)
    spans = tracer.to_dicts()
    if args.export == "chrome":
        payload = json.dumps(to_chrome(spans))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
            print(f"wrote {len(spans)} spans to {args.output} "
                  f"(open in chrome://tracing or Perfetto)",
                  file=sys.stderr)
        else:
            print(payload)
        return 0
    for line in render_tree(spans, min_ms=args.min_ms):
        print(line)
    print("\n-- phase totals --")
    totals = phase_totals(spans)
    width = max(len(n) for n in totals)
    for name, agg in sorted(totals.items(),
                            key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:<{width}s}  x{agg['count']:<3d} "
              f"total {agg['total_s'] * 1e3:9.2f} ms  "
              f"max {agg['max_s'] * 1e3:8.2f} ms")
    return 0


def cmd_synth(args) -> int:
    import json
    from .workloads import synth
    if args.list_profiles:
        for prof in synth.PROFILES:
            print(f"{prof:10s} {synth.SPECS[prof].description}")
        return 0
    if args.slice is not None:
        for name in synth.pinned_slice(args.slice):
            print(name)
        return 0
    w = synth.generate(args.seed, args.profile)
    if args.manifest:
        print(json.dumps(w.manifest, indent=2, sort_keys=True))
    else:
        print(w.source)
        print(f"[{w.name}: {w.manifest['plan']['parallel_count']}/"
              f"{w.manifest['plan']['loop_count']} loops parallel; "
              f"reference {w.manifest['reference']['ops']} ops; "
              f"sha256 {w.manifest['source_sha256'][:12]}]",
              file=sys.stderr)
    return 0


def cmd_synthstats(args) -> int:
    from .workloads.synth.stats import render_table, trait_table
    profiles = args.profiles or ()
    rows = trait_table(seeds_per_profile=args.seeds, profiles=profiles)
    print(render_table(rows))
    total = sum(r[2] for r in rows)
    print(f"[{sum(r[1] for r in rows)} generated programs, {total} "
          f"loops classified]", file=sys.stderr)
    return 0


def cmd_advise(args) -> int:
    program, _, assertions = _load(args.target)
    plan = Parallelizer(program, assertions=assertions).plan()
    for line in report_lines(advise(program, plan)):
        print(line)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _engine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", default=ENGINE_NAMES[0],
                   choices=ENGINE_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUIF Explorer reproduction - interactive and "
                    "interprocedural parallelization of mini-Fortran")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a program")
    p.add_argument("target")
    p.add_argument("--inputs", nargs="*", help="values for READ statements")
    _engine_flag(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("parallelize", help="automatic parallelization plan")
    p.add_argument("target")
    p.add_argument("--annotate", action="store_true",
                   help="print the directive-annotated source")
    p.add_argument("--assertions", action="store_true",
                   help="apply the workload's user assertions")
    p.add_argument("--no-reductions", action="store_true")
    p.add_argument("--no-liveness", action="store_true")
    p.set_defaults(func=cmd_parallelize)

    p = sub.add_parser("analyze", help="incremental static analysis "
                       "served from the per-procedure cone cache")
    p.add_argument("target")
    p.add_argument("--cache-dir", default=None,
                   help="persistent proc/ cache root (warm runs reuse "
                   "every unchanged dependency cone)")
    p.add_argument("--slice", action="append", metavar="LOOP[@VAR]",
                   help="demand slice query point (repeatable)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="per-variable verdicts")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("explore", help="full Explorer session")
    p.add_argument("target")
    p.add_argument("--machine", default="alphaserver",
                   choices=sorted(MACHINES))
    p.add_argument("--codeview", action="store_true")
    p.add_argument("--assertions", action="store_true")
    p.add_argument("--no-liveness", action="store_true")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("profile", help="per-loop execution profile")
    p.add_argument("target")
    p.add_argument("--inputs", nargs="*", help="values for READ statements")
    _engine_flag(p)
    p.add_argument("--machine", default="alphaserver",
                   choices=sorted(MACHINES))
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("dyndep", help="dynamic loop-carried dependences")
    p.add_argument("target")
    p.add_argument("--inputs", nargs="*", help="values for READ statements")
    _engine_flag(p)
    p.add_argument("--stride", type=int, default=1,
                   help="iteration sampling stride (section 2.5.2 "
                        "batch skipping; default: 1 = sample everything)")
    p.add_argument("--keep-reductions", action="store_true",
                   help="instrument compiler-recognized reduction "
                        "updates too (default: skipped)")
    p.set_defaults(func=cmd_dyndep)

    p = sub.add_parser("slice", help="slice a variable's use in a loop")
    p.add_argument("target")
    p.add_argument("loop", help="loop name, e.g. interf/1000")
    p.add_argument("variable")
    p.add_argument("--kind", default="program",
                   choices=["program", "data"])
    p.add_argument("--array-restricted", action="store_true")
    p.add_argument("--region-restricted", action="store_true")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("advise", help="memory-performance advisories")
    p.add_argument("target")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("compile", help="transpile to a Python module")
    p.add_argument("target")
    p.add_argument("-o", "--output", help="write to a file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("batch", help="analyze corpus workloads through "
                                     "the cached batch scheduler")
    p.add_argument("names", nargs="*",
                   help="workload names (default: the full corpus)")
    p.add_argument("--cache-dir", help="artifact store directory "
                                       "(default: in-memory only)")
    p.add_argument("--workers", type=int, help="process-pool size")
    p.add_argument("--sequential", action="store_true",
                   help="run inline in this process (no pool)")
    _engine_flag(p)
    p.add_argument("--machine", default="alphaserver",
                   choices=sorted(MACHINES))
    p.add_argument("--assertions", action="store_true",
                   help="apply each workload's user assertions")
    p.add_argument("--no-liveness", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print the artifacts as canonical JSON")
    p.add_argument("--trace", metavar="FILE",
                   help="record spans for the whole batch and write "
                        "Chrome trace_event JSON to FILE")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("trace", help="run the pipeline under the tracer "
                                     "and print the span tree")
    p.add_argument("target", help="corpus workload name or source file")
    p.add_argument("--export", choices=["chrome"],
                   help="emit Chrome trace_event JSON instead of a tree")
    p.add_argument("-o", "--output", help="write the export to a file")
    p.add_argument("--min-ms", type=float, default=0.0,
                   help="hide tree spans shorter than this (default: 0)")
    _engine_flag(p)
    p.add_argument("--machine", default="alphaserver",
                   choices=sorted(MACHINES))
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("synth", help="generate a seeded synthetic "
                                     "workload (print source or trait "
                                     "manifest)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="mix",
                   help="trait profile (see --list-profiles)")
    p.add_argument("--manifest", action="store_true",
                   help="print the trait manifest JSON instead of source")
    p.add_argument("--list-profiles", action="store_true",
                   help="list trait profiles and exit")
    p.add_argument("--slice", type=int, metavar="N",
                   help="print the first N names of the canonical "
                        "pinned corpus slice and exit")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synthstats", help="trait-coverage table: which "
                       "analysis wins per trait profile over a generated "
                       "corpus slice (machine-made Fig. 6.2 extension)")
    p.add_argument("--seeds", type=int, default=4,
                   help="seeds per profile (default 4)")
    p.add_argument("--profiles", nargs="*",
                   help="restrict to these profiles (default: all)")
    p.set_defaults(func=cmd_synthstats)

    p = sub.add_parser("serve", help="serve the analysis API over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077)
    p.add_argument("--cache-dir", help="artifact store directory")
    p.add_argument("--workers", type=int, help="process-pool size")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.add_argument("--inject", metavar="SPEC",
                   help="seeded fault-injection plan, e.g. "
                        "'crash=0.2,hang=0.05,seed=7' (chaos testing; "
                        "also allows per-request fault directives)")
    p.add_argument("--allow-faults", action="store_true",
                   help="accept options.fault chaos directives on POST "
                        "/jobs without a chaos plan (default: rejected "
                        "with 400 unless --inject is active)")
    p.add_argument("--default-deadline", type=float, metavar="SECONDS",
                   help="per-job wall-time deadline applied when a "
                        "request sets no deadline_s option")
    p.add_argument("--max-jobs", type=int, default=1024,
                   help="finished-job retention cap (oldest evicted)")
    p.add_argument("--shards", type=_positive_int, default=2,
                   help="worker pools sharded by artifact content key "
                        "(>= 1; default 2)")
    p.add_argument("--max-queue", type=int, metavar="M",
                   help="per-shard admission cap on in-flight jobs; "
                        "excess new work is shed with 429 + Retry-After "
                        "(default: unbounded)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
