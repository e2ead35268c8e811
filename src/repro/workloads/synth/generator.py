"""Seed-keyed, trait-controlled mini-Fortran program generation.

Each generated program is assembled from *sections* — small loop nests
with a known analysis story (statically parallel stencil, sequential
recurrence, scalar/array/sparse/guarded-min-max reductions per Ch. 6,
privatization with a liveness decision, indirect-indexing chains,
call-containing loops, formal-array sweeps, conditionally-reached inner
drivers, split-COMMON aliasing).  A :class:`SynthSpec` profile fixes the
section mix; the seed fixes every remaining decision through one
``random.Random`` stream.

Determinism contract: ``generate(seed, profile)`` is a pure function of
``(seed, profile, GENERATOR_VERSION)`` — identical source text, trait
manifest, and tree-oracle reference outputs in any process on any host
(spawn-safe; no ``hash()``, no wall clock, no filesystem).  The manifest
is plain JSON and round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..base import Workload
from .emit import Chooser, RandomChooser

#: Bump when the grammar changes: the version participates in the RNG
#: stream key, so regenerated corpora never silently mix grammars.
GENERATOR_VERSION = 1

#: Budget for the generation-time tree-oracle reference run.
REFERENCE_MAX_OPS = 2_000_000

NAME_PREFIX = "synth/"


@dataclass(frozen=True)
class SynthSpec:
    """One trait profile: which sections a program draws, and the floor
    on how many of its loops the automatic parallelizer must prove
    parallel (recorded in the manifest, asserted by the corpus tests)."""

    profile: str
    sections: Tuple[str, ...]
    min_parallel: int = 1
    description: str = ""


#: The trait-profile registry.  ``synth/s<seed>-<profile>`` names resolve
#: against these tags; ``mix`` draws its section set from the seed.
SPECS: Dict[str, SynthSpec] = {
    s.profile: s for s in (
        SynthSpec("mix", ("auto",), 2,
                  "seed-drawn mixture of 2-4 trait sections"),
        SynthSpec("deep", ("deepnest", "stencil"), 2,
                  "depth-2/3 loop nests over 2-D arrays"),
        SynthSpec("red-sc", ("red_scalar", "stencil"), 2,
                  "scalar sum/product reductions (Ch. 6 table)"),
        SynthSpec("red-arr", ("red_array",), 1,
                  "regular array reduction (su2cor shape)"),
        SynthSpec("red-sp", ("red_sparse",), 1,
                  "sparse-indexed reduction (bdna scatter shape)"),
        SynthSpec("red-mm", ("red_minmax",), 1,
                  "guarded IF-min/max reduction (plan-parallel, "
                  "par_backend-rejected)"),
        SynthSpec("alias", ("alias_split",), 1,
                  "COMMON aliasing through split layouts"),
        SynthSpec("ind", ("indirect_chain", "stencil"), 1,
                  "distance-1 indirect-indexing dependence chain "
                  "(dyndep fodder)"),
        SynthSpec("priv", ("priv",), 1,
                  "privatization with a liveness decision "
                  "(dead / live-out / blocked)"),
        SynthSpec("call", ("call_loop",), 1,
                  "parallel loop containing a CALL (offload-rejected)"),
        SynthSpec("formal", ("formal_sweep",), 1,
                  "subroutine DOALL writing its formal array "
                  "(offload-rejected)"),
        SynthSpec("conddrv", ("cond_driver",), 1,
                  "conditionally reached inner loop driver "
                  "(offload-rejected)"),
    )
}

#: Section pool the ``mix`` profile draws from (traits that compose
#: without fighting over scalars or index arrays are listed once each).
_MIX_POOL = ("stencil", "seqchain", "deepnest", "red_scalar",
             "red_array", "red_sparse", "red_minmax", "priv",
             "indirect_chain")

#: Sections whose loops the planner always proves parallel; ``mix``
#: draws its first section here so its min_parallel=2 floor (init loop
#: plus one section) holds for every seed.
_MIX_PARALLEL_POOL = ("stencil", "deepnest", "red_scalar", "red_array",
                      "red_sparse", "red_minmax")


def profile_names() -> List[str]:
    return sorted(SPECS)


def synth_name(seed: int, profile: str) -> str:
    if profile not in SPECS:
        raise ValueError(f"unknown synth profile {profile!r}; choose "
                         f"from {profile_names()}")
    return f"{NAME_PREFIX}s{int(seed)}-{profile}"


def parse_name(name: str) -> Tuple[int, str]:
    """``synth/s<seed>-<profile>`` → ``(seed, profile)``; raises
    :class:`ValueError` on anything else."""
    if not name.startswith(NAME_PREFIX):
        raise ValueError(f"{name!r} is not a synth workload name "
                         f"(expected {NAME_PREFIX}s<seed>-<profile>)")
    rest = name[len(NAME_PREFIX):]
    if not rest.startswith("s"):
        raise ValueError(f"bad synth name {name!r}: expected "
                         f"{NAME_PREFIX}s<seed>-<profile>")
    head, sep, profile = rest[1:].partition("-")
    if not sep or not head.isdigit():
        raise ValueError(f"bad synth name {name!r}: expected "
                         f"{NAME_PREFIX}s<seed>-<profile>")
    if profile not in SPECS:
        raise ValueError(f"unknown synth profile {profile!r} in "
                         f"{name!r}; choose from {profile_names()}")
    return int(head), profile


class SynthWorkload(Workload):
    """A generated corpus entry: a :class:`Workload` plus its trait
    manifest (seed, drawn traits, source hash, tree-oracle reference,
    plan census)."""

    def __init__(self, name: str, description: str, source: str, *,
                 manifest: Dict, spec: SynthSpec, tags=()):
        super().__init__(name, description, source, tags=tags)
        self._manifest = manifest
        self.spec = spec

    @property
    def manifest(self) -> Dict:
        """The trait manifest.  Its ``reference`` (a tree-oracle run) and
        ``plan`` (a full parallelizer pass) sections cost as much as an
        analysis job, so they are computed on first access: resolving a
        name to its source — all the service does with a synth name —
        must not run the analysis."""
        manifest = self._manifest
        if "reference" not in manifest:
            from ...ir import build_program
            from ...parallelize import Parallelizer
            from ...runtime import run_program

            ref = run_program(build_program(self.source, self.name),
                              max_ops=REFERENCE_MAX_OPS, engine="tree")
            manifest["reference"] = {
                "outputs": [float(v) for v in ref.outputs],
                "ops": int(ref.ops)}
            plan_prog = build_program(self.source, self.name)
            plan = Parallelizer(plan_prog).plan()
            parallel = sorted(loop.name for loop in plan.parallel_loops())
            manifest["plan"] = {
                "parallel_loops": parallel,
                "parallel_count": len(parallel),
                "loop_count": len(plan_prog.all_loops()),
                "expected_parallel_min": self.spec.min_parallel,
            }
        return manifest

    def __repr__(self):
        return f"SynthWorkload({self.name})"


# -- program assembly ---------------------------------------------------------

class _Assembler:
    """Collects declarations, body lines, subroutines, and the PRINT
    digest while sections are emitted, then renders one program unit."""

    def __init__(self, prog_name: str):
        self.prog_name = prog_name
        self.commons: List[str] = []         # extra COMMON declarations
        self.body: List[str] = []
        self.subs: List[str] = []
        self.digest: List[str] = []
        self.traits: Dict[str, object] = {}
        self._label = 90

    def label(self) -> int:
        self._label += 10
        return self._label

    def common(self, decl: str) -> None:
        if decl not in self.commons:
            self.commons.append(decl)

    def render(self) -> str:
        lines = [f"      PROGRAM {self.prog_name}",
                 "      COMMON /st/ s0, s1, s2, s3",
                 "      COMMON /wa/ a(64), b(64), c(64)"]
        lines += [f"      {d}" for d in self.commons]
        lines += self.body
        for k in range(0, len(self.digest), 4):
            chunk = ", ".join(self.digest[k:k + 4])
            lines.append(f"      PRINT *, {chunk}")
        lines.append("      END")
        for sub in self.subs:
            lines.append(sub)
        return "\n".join(lines)


def _emit_init(asm: _Assembler, ch: Chooser) -> None:
    fa = ch.choice(["0.5", "0.25", "0.75"])
    fb = ch.choice(["0.125", "0.0625"])
    cb = ch.choice(["17.0", "23.0", "29.0"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 1, 64",
        f"        a(i) = i * {fa}",
        f"        b(i) = {cb} - i * {fb}",
        "        c(i) = 0.0",
        f"{lbl}    CONTINUE",
        "      s0 = 0.0",
        "      s1 = 1.0",
        "      s2 = 1.0",
    ]
    asm.traits["init"] = {"fa": fa, "fb": fb, "cb": cb}


def _sec_stencil(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(20, 40)
    f = ch.choice(["0.5", "0.25", "2.0"])
    g = ch.choice(["0.125", "1.5"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 2, {n}",
        f"        c(i) = a(i-1) * {f} + b(i+1) * {g}",
        f"{lbl}    CONTINUE",
    ]
    asm.digest.append("c(3)")
    asm.traits["stencil"] = {"n": n, "f": f, "g": g}


def _sec_seqchain(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(16, 32)
    f = ch.choice(["0.25", "0.5"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 2, {n}",
        f"        a(i) = a(i-1) + b(i) * {f}",
        f"{lbl}    CONTINUE",
    ]
    asm.digest.append(f"a({n})")
    asm.traits["seqchain"] = {"n": n, "f": f}


def _sec_deepnest(asm: _Assembler, ch: Chooser) -> None:
    asm.common("COMMON /g2/ d(20,20), e(20,20)")
    depth = ch.randint(2, 3)
    m = ch.randint(12, 18)
    accumulate = ch.boolean()
    l_init = asm.label()
    asm.body += [
        f"      DO {l_init} j = 1, 20",
        f"      DO {l_init} i = 1, 20",
        "        d(i,j) = i * 0.1 + j",
        "        e(i,j) = 0.0",
        f"{l_init}  CONTINUE",
    ]
    l_out = asm.label()
    l_mid = asm.label()
    pad = ""
    if depth == 3:
        l_k = asm.label()
        asm.body.append(f"      DO {l_k} k = 1, 3")
        pad = "  "
    stmt = ("e(i,j) = e(i,j) + d(i,j) * 0.5" if accumulate
            else "e(i,j) = d(i,j) * 0.5 + 1.0")
    if depth == 3:
        stmt = ("e(i,j) = e(i,j) + d(i,j) * k" if accumulate
                else "e(i,j) = d(i,j) * k + 1.0")
    asm.body += [
        f"      {pad}DO {l_out} j = 2, {m}",
        f"      {pad}  DO {l_mid} i = 2, {m}",
        f"      {pad}    {stmt}",
        f"{l_mid}  {pad}  CONTINUE",
        f"{l_out}  {pad}CONTINUE",
    ]
    if depth == 3:
        asm.body.append(f"{l_k}    CONTINUE")
    asm.digest.append("e(3,4)")
    asm.traits["deepnest"] = {"depth": depth, "m": m,
                              "accumulate": accumulate}


def _sec_red_scalar(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(20, 40)
    kinds = ["sum"] if not ch.boolean() else ["sum", "prod"]
    lbl = asm.label()
    lines = [f"      DO {lbl} i = 1, {n}"]
    if "sum" in kinds:
        lines.append(f"        s1 = s1 + a(i) * b(i)")
        asm.digest.append("s1")
    if "prod" in kinds:
        lines.append(f"        s2 = s2 * (1.0 + a(i) * 0.001)")
        asm.digest.append("s2")
    lines.append(f"{lbl}    CONTINUE")
    asm.body += lines
    asm.traits["red_scalar"] = {"n": n, "kinds": kinds}


def _sec_red_array(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 40)
    k = ch.randint(4, 8)
    lbl_o = asm.label()
    lbl_i = asm.label()
    asm.body += [
        f"      DO {lbl_o} i = 1, {n - k}",
        f"        DO {lbl_i} j = 1, {k}",
        "          c(j) = c(j) + a(i) * b(i+j)",
        f"{lbl_i}    CONTINUE",
        f"{lbl_o}  CONTINUE",
    ]
    asm.digest += ["c(1)", f"c({k})"]
    asm.traits["red_array"] = {"n": n, "k": k}


def _emit_idx_init(asm: _Assembler, ch: Chooser, span: int) -> str:
    asm.common("COMMON /ix/ idx(64)")
    m = ch.choice([3, 5, 7, 11])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 1, 64",
        f"        idx(i) = mod(i * {m}, {span}) + 1",
        f"{lbl}    CONTINUE",
    ]
    return str(m)


def _sec_red_sparse(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    span = ch.randint(12, 24)
    m = _emit_idx_init(asm, ch, span)
    f = ch.choice(["0.5", "0.25"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 1, {n}",
        f"        c(idx(i)) = c(idx(i)) + a(i) * {f}",
        f"{lbl}    CONTINUE",
    ]
    asm.digest += ["c(2)", "c(5)"]
    asm.traits["red_sparse"] = {"n": n, "span": span, "mult": m, "f": f}


def _sec_red_minmax(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    kind = ch.choice(["max", "min"])
    lbl = asm.label()
    if kind == "max":
        asm.body.append("      s3 = 0.0")
        guard = f"IF (a(i) .GT. s3) s3 = a(i)"
    else:
        asm.body.append("      s3 = 1000000.0")
        guard = f"IF (b(i) .LT. s3) s3 = b(i)"
    asm.body += [
        f"      DO {lbl} i = 1, {n}",
        f"        {guard}",
        f"{lbl}    CONTINUE",
    ]
    asm.digest.append("s3")
    asm.traits["red_minmax"] = {"n": n, "kind": kind}


def _sec_indirect_chain(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    span = ch.randint(16, 40)
    m = _emit_idx_init(asm, ch, span)
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 2, {n}",
        "        a(idx(i)) = a(idx(i-1)) + 1.0",
        f"{lbl}    CONTINUE",
    ]
    asm.digest += ["a(2)", "a(7)"]
    # distance-1 chain: the documented §2.5.2 sampling-window contract
    # keeps adjacent iteration pairs, so dyndep must observe this at
    # any stride (the recall tests key on this trait fact)
    asm.traits["indirect_chain"] = {"n": n, "span": span, "mult": m,
                                    "distance": 1}


def _sec_priv(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(20, 40)
    variant = ch.choice(["dead", "liveout", "blocked"])
    lbl = asm.label()
    if variant == "blocked":
        thr = ch.choice(["4.0", "7.0"])
        asm.body += [
            f"      DO {lbl} i = 1, {n}",
            f"        IF (a(i) .GT. {thr}) THEN",
            "          s0 = a(i) * 2.0",
            "        ENDIF",
            "        c(i) = s0 + 1.0",
            f"{lbl}    CONTINUE",
        ]
    else:
        asm.body += [
            f"      DO {lbl} i = 1, {n}",
            "        s0 = a(i) * 2.0",
            "        c(i) = s0 + s0 * 0.5",
            f"{lbl}    CONTINUE",
        ]
    asm.digest.append("c(3)")
    if variant == "liveout":
        asm.digest.append("s0")
    asm.traits["priv"] = {"n": n, "variant": variant}


def _sec_call_loop(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    f = ch.choice(["2.0", "1.5"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 1, {n}",
        "        CALL upd(i)",
        f"{lbl}    CONTINUE",
    ]
    asm.subs.append("\n".join([
        "",
        "      SUBROUTINE upd(k)",
        "      COMMON /wa/ a(64), b(64), c(64)",
        f"      c(k) = a(k) * {f} + b(k)",
        "      END",
    ]))
    asm.digest.append("c(4)")
    asm.traits["call_loop"] = {"n": n, "f": f}


def _sec_formal_sweep(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    f = ch.choice(["1.5", "0.5"])
    asm.body.append(f"      CALL sweep(c, {n})")
    asm.subs.append("\n".join([
        "",
        "      SUBROUTINE sweep(q, m)",
        "      DIMENSION q(*)",
        "      COMMON /wa/ a(64), b(64), c(64)",
        "      DO 100 i = 1, m",
        f"        q(i) = a(i) * {f} + 1.0",
        "100   CONTINUE",
        "      END",
    ]))
    asm.digest.append("c(6)")
    asm.traits["formal_sweep"] = {"n": n, "f": f}


def _sec_cond_driver(asm: _Assembler, ch: Chooser) -> None:
    n = ch.randint(24, 48)
    thr = ch.choice(["6.0", "9.0"])
    inner = ch.randint(3, 5)
    lbl_o = asm.label()
    lbl_i = asm.label()
    asm.body += [
        f"      DO {lbl_o} i = 1, {n}",
        f"        IF (a(i) .GT. {thr}) THEN",
        f"          DO {lbl_i} j = 1, {inner}",
        "            c(i) = c(i) + a(i) * j",
        f"{lbl_i}      CONTINUE",
        "        ENDIF",
        f"{lbl_o}  CONTINUE",
    ]
    asm.digest.append("c(8)")
    asm.traits["cond_driver"] = {"n": n, "thr": thr, "inner": inner}


def _sec_alias_split(asm: _Assembler, ch: Chooser) -> None:
    asm.common("COMMON /gr/ g(64)")
    f = ch.choice(["1.0", "2.0"])
    h = ch.choice(["0.5", "0.25"])
    lbl = asm.label()
    asm.body += [
        f"      DO {lbl} i = 1, 64",
        "        g(i) = i * 0.5",
        f"{lbl}    CONTINUE",
        "      CALL halves",
    ]
    asm.subs.append("\n".join([
        "",
        "      SUBROUTINE halves",
        "      COMMON /gr/ gl(32), gh(32)",
        "      DO 100 i = 1, 32",
        f"        gl(i) = gl(i) + {f}",
        f"        gh(i) = gh(i) * {h}",
        "100   CONTINUE",
        "      END",
    ]))
    asm.digest += ["g(3)", "g(40)"]
    asm.traits["alias_split"] = {"f": f, "h": h}


_SECTIONS: Dict[str, Callable[[_Assembler, Chooser], None]] = {
    "stencil": _sec_stencil,
    "seqchain": _sec_seqchain,
    "deepnest": _sec_deepnest,
    "red_scalar": _sec_red_scalar,
    "red_array": _sec_red_array,
    "red_sparse": _sec_red_sparse,
    "red_minmax": _sec_red_minmax,
    "indirect_chain": _sec_indirect_chain,
    "priv": _sec_priv,
    "call_loop": _sec_call_loop,
    "formal_sweep": _sec_formal_sweep,
    "cond_driver": _sec_cond_driver,
    "alias_split": _sec_alias_split,
}


def _sample_without_replacement(ch: Chooser, pool: Tuple[str, ...],
                                k: int) -> List[str]:
    remaining = list(pool)
    out = []
    for _ in range(min(k, len(remaining))):
        pick = ch.choice(remaining)
        remaining.remove(pick)
        out.append(pick)
    return out


def build_source(seed: int, profile: str) -> Tuple[str, Dict]:
    """Render the program text and the *pre-reference* part of the
    manifest (everything derivable without executing the program)."""
    spec = SPECS[profile]
    rng = random.Random(f"repro-synth/v{GENERATOR_VERSION}/"
                        f"{profile}/{seed}")
    ch = RandomChooser(rng)
    asm = _Assembler(f"sy{seed}")
    _emit_init(asm, ch)
    if spec.sections == ("auto",):
        first = ch.choice(_MIX_PARALLEL_POOL)
        rest_pool = tuple(s for s in _MIX_POOL if s != first)
        sections = [first] + _sample_without_replacement(
            ch, rest_pool, ch.randint(1, 3))
    else:
        sections = list(spec.sections)
    for name in sections:
        _SECTIONS[name](asm, ch)
    source = asm.render()
    manifest = {
        "name": synth_name(seed, profile),
        "seed": seed,
        "profile": profile,
        "generator": GENERATOR_VERSION,
        "sections": sections,
        "traits": asm.traits,
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
    }
    return source, manifest


def generate(seed: int, profile: str) -> SynthWorkload:
    """Generate one corpus entry: source + manifest (whose tree-oracle
    reference outputs and automatic-plan census fill in on first
    access, see :attr:`SynthWorkload.manifest`)."""
    if profile not in SPECS:
        raise ValueError(f"unknown synth profile {profile!r}; choose "
                         f"from {profile_names()}")
    source, manifest = build_source(seed, profile)
    spec = SPECS[profile]
    return SynthWorkload(
        manifest["name"],
        f"generated workload (profile {profile}, seed {seed}): "
        f"{spec.description}",
        source, manifest=manifest, spec=spec,
        tags=("synth", profile))
