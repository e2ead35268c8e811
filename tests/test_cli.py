"""The command-line interface."""

import pytest

from repro.cli import main


def test_run_workload(capsys):
    assert main(["run", "ora"]) == 0
    out = capsys.readouterr().out
    assert out.strip(), "ora prints its integrals"


def test_run_file(tmp_path, capsys):
    f = tmp_path / "p.f"
    f.write_text("""
      PROGRAM t
      PRINT *, 2.0 + 3.0
      END
""")
    assert main(["run", str(f)]) == 0
    assert "5.0" in capsys.readouterr().out


def test_run_with_inputs(tmp_path, capsys):
    f = tmp_path / "p.f"
    f.write_text("""
      PROGRAM t
      READ *, x
      PRINT *, x * 2.0
      END
""")
    assert main(["run", str(f), "--inputs", "21"]) == 0
    assert "42.0" in capsys.readouterr().out


def test_parallelize_output(capsys):
    assert main(["parallelize", "embar", "--annotate"]) == 0
    out = capsys.readouterr().out
    assert "embar/100: PARALLEL" in out
    assert "REDUCTION(+:" in out


def test_parallelize_ablation_flags(capsys):
    assert main(["parallelize", "embar", "--no-reductions"]) == 0
    out = capsys.readouterr().out
    assert "embar/100: sequential" in out


def test_explore_session(capsys):
    assert main(["explore", "mdg", "--assertions", "--codeview"]) == 0
    out = capsys.readouterr().out
    assert "Parallelization Guru" in out
    assert "interf/1000" in out
    assert "accepted" in out
    assert "legend" in out


def test_profile_command_reports_engine(capsys):
    assert main(["profile", "mdg"]) == 0
    cap = capsys.readouterr()
    assert "interf/1000" in cap.out
    assert "coverage" in cap.out
    assert "engine: transpiled/profile" in cap.err


def test_profile_command_tree_engine(capsys):
    assert main(["profile", "ora", "--engine", "tree"]) == 0
    assert "engine: tree" in capsys.readouterr().err


def test_dyndep_command_reports_engine_and_deps(capsys):
    assert main(["dyndep", "hydro"]) == 0
    cap = capsys.readouterr()
    assert "loop-carried flow dependence" in cap.out
    assert "write line" in cap.out
    assert "engine: transpiled/dyndep" in cap.err
    assert "sampled" in cap.err


def test_dyndep_command_stride_and_tree(capsys):
    assert main(["dyndep", "mdg", "--engine", "tree", "--stride", "2"]) == 0
    cap = capsys.readouterr()
    assert "engine: tree" in cap.err
    assert "skipped" in cap.err


def test_slice_command(capsys):
    assert main(["slice", "mdg", "interf/1000", "rl",
                 "--region-restricted"]) == 0
    out = capsys.readouterr().out
    assert "slice:" in out
    assert "interf" in out


def test_advise_command(capsys):
    assert main(["advise", "hydro"]) == 0
    out = capsys.readouterr().out
    assert "advisor" in out or "[" in out


def test_unknown_machine_rejected():
    with pytest.raises(SystemExit):
        main(["explore", "ora", "--machine", "cray"])


def test_unknown_variable_rejected():
    with pytest.raises(SystemExit):
        main(["slice", "mdg", "interf/1000", "nosuchvar"])


def test_compile_command(tmp_path, capsys):
    out_file = tmp_path / "ora.py"
    assert main(["compile", "ora", "-o", str(out_file)]) == 0
    ns = {}
    exec(compile(out_file.read_text(), str(out_file), "exec"), ns)
    result = ns["run"]([])
    assert result and isinstance(result[0], float)


def test_unknown_target_lists_workloads(capsys):
    """`repro run nosuch.f` must explain itself, not FileNotFoundError."""
    with pytest.raises(SystemExit) as err:
        main(["run", "no-such-file.f"])
    assert "mdg" in str(err.value)
    assert "neither a file nor a corpus workload" in str(err.value)


def test_batch_command_sequential(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["batch", "ora", "track", "--sequential",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "ora" in out and "computed" in out and "speedup" in out
    # second run over the same cache dir is served from disk
    assert main(["batch", "ora", "track", "--sequential",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "computed" not in out


def test_batch_command_unknown_name():
    with pytest.raises(SystemExit) as err:
        main(["batch", "nope"])
    assert "unknown workload" in str(err.value)


def test_batch_command_json(capsys):
    import json
    assert main(["batch", "ora", "--sequential", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["ora"]["execution"]["speedup"] > 1.0


def test_batch_exit_code_nonzero_on_job_failure(capsys, monkeypatch):
    """Regression: a failed job must surface as a nonzero exit and a
    FAILED line naming the error, while surviving jobs still report."""
    from repro.service import jobs as jobs_mod
    real = jobs_mod.execute_request

    def flaky(request):
        if request.describe() == "track":
            raise RuntimeError("injected analysis failure")
        return real(request)

    monkeypatch.setattr("repro.service.scheduler.execute_request", flaky)
    rc = main(["batch", "ora", "track", "--sequential"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert "injected analysis failure" in captured.err
    assert "ora" in captured.out and "speedup" in captured.out


def test_batch_failure_keyed_on_job_state_not_artifact(capsys,
                                                       monkeypatch):
    """Regression for the exit-code bug: a *done* job whose artifact was
    merely evicted from the memory-only LRU must not flip the exit code
    to failure (that conflated cache pressure with analysis errors)."""
    from repro.service.artifacts import ArtifactStore
    real_init = ArtifactStore.__init__

    def tiny_lru(self, root=None, *, memory_capacity=128, **kw):
        real_init(self, root, memory_capacity=1, **kw)

    monkeypatch.setattr(ArtifactStore, "__init__", tiny_lru)
    rc = main(["batch", "ora", "track", "--sequential"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "FAILED" not in captured.err
    assert "evicted" in captured.err          # reported, but not fatal


def test_batch_trace_writes_chrome_json(tmp_path, capsys):
    import json
    trace_file = tmp_path / "batch.json"
    assert main(["batch", "ora", "--sequential",
                 "--trace", str(trace_file)]) == 0
    doc = json.loads(trace_file.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert {"submit", "job", "execute_request"} <= names
    assert "spans" in capsys.readouterr().err


def test_trace_command_tree_and_chrome(tmp_path, capsys):
    import json
    assert main(["trace", "ora"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("execute_request")
    assert "phase totals" in out
    assert "instrument " in out and "guru" in out
    assert "aspects=profile+dyndep+cost" in out
    out_file = tmp_path / "trace.json"
    assert main(["trace", "mdg", "--export", "chrome",
                 "-o", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert {"parse", "build", "instrument", "guru", "parallel_exec",
            "slice"} <= names


def test_trace_command_unknown_target():
    with pytest.raises(SystemExit) as err:
        main(["trace", "no-such-file.f"])
    assert "neither a file nor a corpus workload" in str(err.value)
