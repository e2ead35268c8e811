"""The generated-workload corpus factory (repro.workloads.synth).

Three contracts under test:

1. **Determinism** — ``generate(seed, profile)`` is a pure function of
   its arguments and ``GENERATOR_VERSION``: identical source text, trait
   manifest, and reference outputs in-process, across calls, and across
   a spawn-started subprocess (the service pool's start method).
2. **4-way parity at corpus scale** — over the pinned tier-1 slice
   (``REPRO_SYNTH_N`` programs, default 200; CI pins 50; soak runs use
   500+), every program produces bit-identical outputs and op counts on
   the tree oracle, the transpiled engine and the simulated-multiprocessor
   run (whose region measurements must also equal the oracle's); the
   default plan passes the plan oracle; and the tree run
   reproduces the manifest's self-computed reference exactly.
3. **Lazy registration** — ``import repro.workloads`` neither imports
   the synth package nor generates anything; synth names resolve through
   ``workloads.get`` on demand; ``register_lazy`` materializes once.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import regions_state
from repro.ir import build_program
from repro.parallelize import Parallelizer
from repro.runtime import ALPHASERVER_8400, ParallelExecutor, run_program
from repro.runtime.plan_oracle import check_plan
from repro.workloads import synth
from repro.workloads.synth import generator as synth_generator

SLICE_N = int(os.environ.get("REPRO_SYNTH_N", "200"))
SLICE = synth.pinned_slice(SLICE_N)


def _subprocess_env():
    """The repro import path for a fresh interpreter, wherever pytest
    was launched from."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
    return env


# -- naming and the pinned slice ----------------------------------------------

def test_name_round_trip():
    for profile in synth.PROFILES:
        name = synth.synth_name(123, profile)
        assert name == f"synth/s123-{profile}"
        assert synth.parse_name(name) == (123, profile)
        assert synth.is_synth_name(name)


@pytest.mark.parametrize("bad", [
    "mdg", "synth/x1-mix", "synth/s1", "synth/s1-nosuch",
    "synth/sx-mix", "synth/s1-",
])
def test_bad_names_rejected(bad):
    with pytest.raises(ValueError):
        synth.parse_name(bad)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        synth.synth_name(1, "nosuch")
    with pytest.raises(ValueError):
        synth.generate(1, "nosuch")


def test_pinned_slice_is_prefix_stable():
    """Scaling REPRO_SYNTH_N only appends: the CI 50-slice is a strict
    prefix of the default 200-slice is a prefix of any soak slice."""
    s50, s200, s500 = (synth.pinned_slice(n) for n in (50, 200, 500))
    assert s200[:50] == s50
    assert s500[:200] == s200
    assert len(set(s500)) == 500
    # every profile appears in even the smallest CI slice
    profiles = {synth.parse_name(n)[1] for n in s50}
    assert profiles == set(synth.PROFILES)


# -- determinism --------------------------------------------------------------

def test_generation_is_deterministic_in_process():
    a = synth_generator.generate(77, "mix")   # uncached path
    b = synth_generator.generate(77, "mix")
    assert a is not b
    assert a.source == b.source
    assert a.manifest == b.manifest
    assert json.dumps(a.manifest, sort_keys=True) == \
        json.dumps(b.manifest, sort_keys=True)


def test_manifest_json_round_trips():
    m = synth.generate(5, "red-sp").manifest
    assert json.loads(json.dumps(m)) == m
    assert m["source_sha256"] == \
        __import__("hashlib").sha256(
            synth.generate(5, "red-sp").source.encode()).hexdigest()


_SPAWN_PROBE = """
import json, sys
from repro.workloads import synth
w = synth.generate({seed}, {profile!r})
print(json.dumps({{"source": w.source, "manifest": w.manifest}}))
"""


def test_generation_is_deterministic_across_spawn():
    """Same seed + profile => byte-identical source and manifest in a
    fresh interpreter (what a spawn-started pool worker sees)."""
    here = synth.generate(9, "mix")
    out = subprocess.run(
        [sys.executable, "-c",
         _SPAWN_PROBE.format(seed=9, profile="mix")],
        capture_output=True, text=True, check=True,
        env=_subprocess_env())
    remote = json.loads(out.stdout)
    assert remote["source"] == here.source
    assert remote["manifest"] == here.manifest


def test_generate_is_lru_cached():
    a = synth.generate(31, "deep")
    assert synth.generate(31, "deep") is a


# -- trait contracts ----------------------------------------------------------

@pytest.mark.parametrize("profile", synth.PROFILES)
def test_plan_floor_holds(profile):
    """Every profile's manifest promises a minimum automatically-proven
    parallel loop count; the recorded plan census must honor it."""
    for seed in range(6):
        m = synth.generate(seed, profile).manifest
        assert m["plan"]["parallel_count"] >= \
            m["plan"]["expected_parallel_min"], (profile, seed, m["plan"])
        assert sorted(m["plan"]["parallel_loops"]) == \
            m["plan"]["parallel_loops"]


def test_priv_profile_exercises_liveness_decision():
    """The priv profile must emit all three privatization stories:
    dead temp (-> private), live-out temp (-> private_final, the
    liveness-driven finalization), and a conditional-write block."""
    seen = {}
    for seed in range(24):
        w = synth.generate(seed, "priv")
        variant = w.manifest["traits"]["priv"]["variant"]
        prog = w.build()
        plan = Parallelizer(prog).plan()
        loop = prog.all_loops()[-1]
        lp = plan.plan_for(loop)
        statuses = {vp.display_name: vp.status for vp in lp.vars.values()}
        if variant == "blocked":
            assert not lp.parallel
        else:
            assert lp.parallel
            want = "private" if variant == "dead" else "private_final"
            assert statuses["s0"] == want, (seed, variant, statuses)
        seen[variant] = seen.get(variant, 0) + 1
    assert set(seen) == {"dead", "liveout", "blocked"}, seen


def test_ind_profile_pins_distance_one_chains():
    for seed in range(6):
        m = synth.generate(seed, "ind").manifest
        assert m["traits"]["indirect_chain"]["distance"] == 1


def test_mix_profile_draws_varied_sections():
    drawn = set()
    for seed in range(16):
        m = synth.generate(seed, "mix").manifest
        assert 2 <= len(m["sections"]) <= 4
        drawn.update(m["sections"])
    assert len(drawn) >= 5, drawn


# -- 4-way engine parity over the pinned slice --------------------------------

@pytest.mark.parametrize("name", SLICE)
def test_four_way_parity(name):
    """tree == transpiled == simulated run, outputs and op counts; the
    tree run matches the manifest's generation-time reference
    bit-exactly, the simulated run's region measurements match the cost
    observer on the oracle, and the plan oracle finds no conflict, no
    poisoned read and the tree run's outputs (relative 1e-9) and ops
    (less the arms of guarded min/max updates)."""
    w = synth.from_name(name)
    ref = w.manifest["reference"]
    tree = run_program(build_program(w.source, w.name), engine="tree")
    assert [float(v) for v in tree.outputs] == ref["outputs"], name
    assert tree.ops == ref["ops"], name
    tp = build_program(w.source, w.name)
    trans = run_program(tp, engine="transpiled")
    assert tree.outputs == trans.outputs, name
    assert tree.ops == trans.ops, name
    plan = Parallelizer(tp).plan()
    sims = {e: ParallelExecutor(tp, plan, ALPHASERVER_8400,
                                engine=e).measure()
            for e in ("tree", "transpiled")}
    assert sims["transpiled"].interp.label == "transpiled/cost", name
    assert regions_state(sims["transpiled"])[1:] == \
        (trans.ops, trans.outputs), name
    assert regions_state(sims["transpiled"]) == \
        regions_state(sims["tree"]), name
    assert sims["transpiled"].account(8).par_ops == \
        sims["tree"].account(8).par_ops, name
    check = check_plan(tp, plan, reference=tree)
    assert check.clean, (name, check.error, check.conflicts[:8])


# -- lazy registration --------------------------------------------------------

_IMPORT_PROBE = """
import sys
import repro.workloads as W
synth_loaded = [m for m in sys.modules if "workloads.synth" in m]
assert not synth_loaded, f"importing repro.workloads pulled {synth_loaded}"
assert "hypothesis" not in sys.modules
n_eager = len(W.ALL)
w = W.get("synth/s0-red-sc")
assert w.name == "synth/s0-red-sc"
assert any("workloads.synth" in m for m in sys.modules)
assert len(W.ALL) == n_eager, "synth resolution must not mutate ALL"
print(n_eager)
"""


def test_import_is_lazy_and_side_effect_free():
    """``import repro.workloads`` must not import the synth package (or
    hypothesis), and resolving a synth name afterwards must not grow the
    eager registry."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.strip()) == 27  # the hand-built corpus size


def test_register_lazy_materializes_once():
    from repro.workloads import corpus
    from repro.workloads.base import Workload
    calls = []

    def factory():
        calls.append(1)
        return Workload("lazy/probe", "probe", "      PROGRAM p\n"
                        "      PRINT *, 1.0\n      END")

    corpus.register_lazy("lazy/probe", factory)
    try:
        a = corpus.get("lazy/probe")
        b = corpus.get("lazy/probe")
        assert a is b
        assert calls == [1]
        with pytest.raises(ValueError):
            corpus.register_lazy("mdg", factory)  # eager name collision
    finally:
        corpus._LAZY.pop("lazy/probe", None)
        corpus._MATERIALIZED.pop("lazy/probe", None)


def test_get_error_mentions_synth_scheme():
    from repro.workloads import get
    with pytest.raises(KeyError) as exc:
        get("nosuch")
    assert "synth/s<seed>-<profile>" in str(exc.value)


def test_get_resolves_synth_names_for_cli_and_service():
    from repro.workloads import get
    w = get("synth/s2-alias")
    assert w.manifest["profile"] == "alias"
    assert "synth" in w.tags and "alias" in w.tags
