#!/usr/bin/env bash
# The one-command CI gate: everything a change must pass before merging.
#
#   bash scripts/ci_check.sh
#
# Runs, in order:
#   1. the tier-1 pytest suite (correctness, soundness fuzzing,
#      service determinism, observability contracts),
#   2. the performance gates (ops/sec vs the committed
#      BENCH_engine.json and BENCH_incremental.json baselines; also
#      enforces the transpiled engine's 20x-over-tree contract on mdg
#      and warm incremental re-analysis's 10x-over-cold-pipeline
#      contract with bit parity),
#   3. the end-to-end HTTP service smoke test (submit / poll /
#      artifact / cache-repeat / metrics),
#   4. the fault-injected serve smoke (seeded worker crashes retried,
#      hung job killed by its deadline, service stays healthy),
#   5. the generated-corpus gates: a pinned 50-seed synth parity slice
#      (engine/simulated-run bit-parity + plan oracle + determinism +
#      lazy registration) and the quick service soak (dedupe, GC bounds,
#      breaker quiescence, bit-stable artifacts).  REPRO_SYNTH_N is the
#      scale knob — the tier-1 default is 200; soak runs use 500+
#      (e.g. `REPRO_SYNTH_N=500 python scripts/soak_check.py`),
#   6. the incremental-analysis gate (a one-procedure edit on the
#      deepest call graphs invalidates exactly its dependency cone,
#      with warm/cold bit parity and a no-op hot re-run; and an
#      analysis-only run after a full job into an empty store is all
#      hits, bit-identical to cold — the two job kinds share one driver),
#   7. the service concurrency gates: the BENCH_service.json contracts
#      (warm POST /jobs throughput at 16 clients within 20% of its
#      baseline; a cold 64-client same-key storm across two server
#      processes computes its artifact exactly once with bit-identical
#      responses) plus the quick HTTP soak driving the synth population
#      through the server (no failed job, no dead connection handler).
#
# Any failure stops the script with a nonzero exit.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== [1/7] tier-1 test suite =="
python -m pytest -x -q

echo "== [2/7] performance gates (engine + incremental) =="
python scripts/perf_check.py --only engine
python scripts/perf_check.py --only incremental

echo "== [3/7] service smoke test =="
python scripts/serve_smoke.py

echo "== [4/7] fault-injected service smoke =="
python scripts/serve_smoke.py --inject "crash=0.5,seed=1"

echo "== [5/7] generated-corpus gates (synth parity slice + quick soak) =="
REPRO_SYNTH_N=50 python -m pytest tests/test_synth_corpus.py -q
python scripts/soak_check.py --quick

echo "== [6/7] incremental-analysis gate (cone invalidation + parity + full-job/analysis cross-path) =="
python scripts/incr_check.py

echo "== [7/7] service concurrency gates (warm throughput + single-flight storm + HTTP soak) =="
python scripts/perf_check.py --only service
python scripts/soak_check.py --quick --http

echo "== ci_check: all gates passed =="
