"""The harness's own tests, at ``--smoke`` sizes (well under a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They guard the contract with the driver (names, the final JSON line),
the reporting rules (percentiles, failure and wrong-answer counting) and
the clean-up duties (no server process or scratch directory survives).
"""

import json
import os
import re
import shutil
import socket
import subprocess
import sys

import pytest

import common

common.require_repro()

import compare          # noqa: E402
import stats            # noqa: E402
import workloads        # noqa: E402
from run import Config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN = str(common.HERE / "run.py")
SPEC = common.load_spec()


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _serve_processes():
    """Command lines of live ``repro.cli serve`` processes started from
    this checkout's scratch root."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().decode(errors="replace")
        except OSError:
            continue
        if "repro.cli\0serve" in cmdline and str(common.TMP_ROOT) in cmdline:
            found.append(cmdline.replace("\0", " "))
    return found


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == workloads.NOMINAL_SECONDS
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert not [p.name for p in common.HERE.glob("bench_*.py")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_final_line_matches_spec(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    # the clean-up duties, checked after the last run of each workload
    assert not _serve_processes()
    assert not common.TMP_ROOT.exists()


def test_same_seed_same_load():
    for workload in ("cold-static", "cold-exec"):
        assert workloads.cold_ops(workload, 3, 20) == \
            workloads.cold_ops(workload, 3, 20)
    digest = [workloads.ops_digest(workloads.http_ops(seed, 20, 2))
              for seed in (3, 3, 4)]
    assert digest[0] == digest[1] != digest[2]
    edits = [workloads.ops_digest([op.key() for op in
                                   workloads.edit_ops(seed, 20, smoke=True)])
             for seed in (3, 3, 4)]
    assert edits[0] == edits[1] != edits[2]


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 91) is None
    assert stats.percentile(values[:99], 90) is None
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.median(list(range(19))) == 9      # the median always is


def test_closed_port_fails_every_op():
    import httpmix
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    posts = workloads.http_ops(5, 1, 2, smoke=True)
    results, _wall = httpmix.drive("127.0.0.1", port, posts,
                                   [set() for _ in posts])
    samples = [common.Sample("miss", op.seconds, op.ok)
               for client in results for op in client]
    assert len(samples) == sum(len(p) for p in posts)
    assert common.count_failed(samples) == len(samples)    # failed share 1
    assert "job_ms" not in common.end_to_end(samples, setup_s=1.0,
                                             busy_s=1.0, rss_mb=1.0)


def test_tampered_expected_file_is_a_wrong_answer(tmp_path):
    import cold
    expected = tmp_path / "expected"
    shutil.copytree(common.EXPECTED, expected)
    path = expected / "wave5.json"
    data = json.loads(path.read_text())
    data["total_ops"] += 1
    path.write_text(json.dumps(data))
    result = cold.run(Config("cold-static", 5, 1, False, smoke=True,
                             expected_dir=expected))
    assert result["checked"] == 2
    assert len(result["wrong"]) == 2                       # wrong share 1
    assert "total_ops" in result["wrong"][0]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.05 for v in steady],
                           "lower", 0.10) == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady],
                           "higher", 0.10) == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # every run of B beats every run of A: resolved despite the spread
    assert compare.verdict(steady, [v / 4 for v in noisy],
                           "lower", 0.10) == "ok"
