#!/usr/bin/env bash
# The one-command CI gate: everything a change must pass before merging.
#
#   bash scripts/ci_check.sh
#
# Runs, in order:
#   1. the tier-1 pytest suite (correctness, soundness fuzzing,
#      service determinism, observability contracts, and the
#      host-independent speed contracts: transpiled >= 20x tree on
#      mdg, warm-edit and hot re-analysis >= 10x the cold job, a
#      64-client two-process cold storm computing exactly once),
#   2. the end-to-end benchmark harness's own tests: a smoke run of
#      all four BENCHMARK.json workloads with every answer checked,
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
#   6. the quick HTTP soak driving the synth population through the
#      server (no failed job, no dead connection handler).
#
# No gate reads a committed timing baseline: speed is judged by
# `benchmarks/e2e/run.py` + `compare.py` against the parent commit on
# the same host.
#
# Any failure stops the script with a nonzero exit.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== [1/6] tier-1 test suite =="
python -m pytest -x -q

echo "== [2/6] end-to-end benchmark harness (smoke run of every workload) =="
python -m pytest benchmarks/e2e -q

echo "== [3/6] service smoke test =="
python scripts/serve_smoke.py

echo "== [4/6] fault-injected service smoke =="
python scripts/serve_smoke.py --inject "crash=0.5,seed=1"

echo "== [5/6] generated-corpus gates (synth parity slice + quick soak) =="
REPRO_SYNTH_N=50 python -m pytest tests/test_synth_corpus.py -q
python scripts/soak_check.py --quick

echo "== [6/6] HTTP soak =="
python scripts/soak_check.py --quick --http

echo "== ci_check: all gates passed =="
