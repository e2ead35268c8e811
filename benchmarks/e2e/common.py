"""What every workload shares: locating the program under test, scratch
space inside the checkout, the host record, and the reduction of timed
samples to the end-to-end metrics."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch root: the benchmark reads and writes only inside its checkout
TMP_ROOT = ROOT / ".bench_tmp"

#: An op slower than this counts as failed (and so misses every latency
#: figure), whether it errored, was refused, or simply took too long.
OP_TIMEOUT_S = 30.0


def require_repro() -> None:
    """Put the program under test on ``sys.path``; exit (non-zero, no
    result line) when the checkout does not hold it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e benchmark: no program under test at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A temp dir under the checkout, removed on every exit path."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()         # only succeeds once the last user left


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not itself a git repo
    (a parent repository's sha would be a lie)."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def host_record(seed: int) -> Dict:
    """Every quoted number carries the host it was measured on."""
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": git_sha(),
            "seed": seed}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Sample(NamedTuple):
    """One timed op.  ``group`` is its class (the program, or hit/miss);
    ``detail`` further splits rows in the record (e.g. the edit victim)."""
    group: str
    seconds: float
    ok: bool
    detail: str = ""


def completed(samples: List[Sample]) -> List[Sample]:
    """The ops that neither failed nor overran their budget."""
    return [s for s in samples if s.ok and s.seconds <= OP_TIMEOUT_S]


def count_failed(samples: List[Sample]) -> int:
    return len(samples) - len(completed(samples))


def timed(fn):
    """(wall seconds, result) of one call, garbage collected first so
    the op is not charged for its predecessors' litter."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def end_to_end(samples: List[Sample], *, setup_s: float, rss_mb: float,
               busy_s: Optional[float] = None) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    ``busy_s`` is the time the ops kept the user waiting: by default the
    sum of the op latencies (a sequential workload); a concurrent one
    passes the wall of its client threads.  Failed ops have no latency
    figure and do not count as completed work.
    """
    good = completed(samples)
    out = {"setup_s": setup_s, "peak_rss_mb": rss_mb}
    if not good:
        return out
    if busy_s is None:
        busy_s = sum(s.seconds for s in samples)
    by_group: Dict[str, List[float]] = {}
    for s in good:
        by_group.setdefault(s.group, []).append(s.seconds)
    medians = [stats.median(v) for v in by_group.values()]
    out["job_ms"] = stats.geomean(medians) * 1e3
    out["p50_ms"] = stats.median([s.seconds for s in good]) * 1e3
    out["slow_ms"] = max(medians) * 1e3
    out["ops_per_s"] = len(good) / busy_s
    return out


def rows(samples: List[Sample], by_detail: bool = False) -> Dict[str, Dict]:
    """Per-class rows (median, quartiles, n) of the completed ops."""
    groups: Dict[str, List[float]] = {}
    for s in completed(samples):
        key = f"{s.group}:{s.detail}" if by_detail else s.group
        groups.setdefault(key, []).append(s.seconds)
    return {key: stats.summary(v) for key, v in sorted(groups.items())}


def median_setup(setup):
    """Run ``setup`` (which must be repeatable: each call builds fresh
    state) and return (state of the last call, median seconds).  Three
    calls, unless the first shows set-up is long enough (> 2 s) that one
    reading is already steady and two more would eat the run's budget."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
        if times[0] > 2.0:
            break
    return state, stats.median(times)
