"""Seeded load generators for the end-to-end benchmark.

Everything a workload feeds the program is drawn here from ``--seed``:
program order, the edit sequence, the synth population's popularity
ranking and the Zipf draws.  The program under test only ever receives
the generated inputs; :func:`ops_digest` fingerprints an op list so two
runs with one seed are provably the same load.

Why these programs (measured on this tree, 2 cores, Python 3.11 — see
README.md for the full phase shares):

* ``cold-static`` — ``hydro`` and ``wave5`` are the only corpus programs
  whose cold job is >=85 % static analysis (hydro 93 %, wave5 88 %).
* ``cold-exec`` — on these seven, the three instrumented runs (profile,
  dyndep, simulated parallel run) are 73-95 % of a cold job.
* ``edit-loop`` — five multi-procedure programs; the victim procedure is
  drawn uniformly, replacing the hand-picked leaf victims of
  ``BENCH_incremental.json``.
* ``http-mixed`` — Zipf(0.9) over 480 small generated programs gives
  mostly store hits with a steady trickle of computed jobs, so the
  service layer does most of the work.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

#: ``--seconds`` for which the repeat counts below were sized; other
#: values scale them linearly (never below one op per class).
NOMINAL_SECONDS = 20

WORKLOADS = ("cold-static", "cold-exec", "edit-loop", "http-mixed")

#: program -> cold jobs per run at NOMINAL_SECONDS
COLD_REPS = {
    "cold-static": {"hydro": 1, "wave5": 8},
    "cold-exec": {name: 3 for name in ("flo88", "mdg", "nasa7", "tomcatv",
                                       "su2cor", "appbt", "mgrid")},
}
SMOKE_COLD_REPS = {
    "cold-static": {"wave5": 2},
    "cold-exec": {"su2cor": 2, "mgrid": 2},
}

EDIT_PROGRAMS = ("mdg", "hydro2d", "arc3d", "wave5", "flo88")
SMOKE_EDIT_PROGRAMS = ("mdg", "wave5")
#: each pass edits every procedure of every program once (28 ops)
EDIT_PASSES = 2
EDIT_KINDS = ("comment", "duplicate")
#: every Nth edit op is also recomputed cold and compared byte for byte
EDIT_COLD_EVERY = 8

SYNTH_SEEDS = 30
SMOKE_SYNTH_SEEDS = 2
ZIPF_S = 0.9
HTTP_JOBS_PER_CLIENT = 800
SMOKE_HTTP_JOBS_PER_CLIENT = 30
#: one in this many fetched artifacts is recomputed in-process
HTTP_SAMPLE_EVERY = 20


def scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def ops_digest(ops: Sequence) -> str:
    """sha256 of an op list (tuples/strings/numbers, canonically encoded)."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- cold jobs ---------------------------------------------------------------

def cold_ops(workload: str, seed: int, seconds: float,
             smoke: bool = False) -> List[str]:
    """Program names, one per cold job, in seeded order."""
    reps = (SMOKE_COLD_REPS if smoke else COLD_REPS)[workload]
    ops = [name for name, n in sorted(reps.items())
           for _ in range(n if smoke else scaled(n, seconds))]
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


# -- edit loop ---------------------------------------------------------------

class EditOp(NamedTuple):
    program: str
    victim: str       # procedure the edit lands in
    kind: str         # one of EDIT_KINDS
    line: int         # 1-based line of the *current* source the edit follows
    loop: str         # loop whose slices the re-analysis asks for
    source: str       # full program text after the edit

    def key(self) -> List:
        """What identifies the op in the digest (the source follows)."""
        return [self.program, self.victim, self.kind, self.line, self.loop]


def edit_ops(seed: int, seconds: float, smoke: bool = False) -> List[EditOp]:
    """A cumulative edit session: each op edits the program text the
    previous op on that program left behind, so no source repeats.

    An edit is (program, victim procedure, kind): ``comment`` inserts a
    comment line at the top of the victim, ``duplicate`` repeats one of
    its unlabelled assignment statements.  A duplicate that does not
    build is redrawn here, in set-up (a victim with nothing to duplicate
    gets a comment), so every op the timed loop issues is valid.
    """
    from repro.ir import build_program
    from repro.lang import FrontEndError
    from repro.workloads import get

    rng = random.Random(f"edit-loop:{seed}")
    names = SMOKE_EDIT_PROGRAMS if smoke else EDIT_PROGRAMS
    passes = 1 if smoke else scaled(EDIT_PASSES, seconds)
    sources: Dict[str, str] = {n: get(n).source for n in names}
    programs = {n: build_program(sources[n], n) for n in names}
    loops = {n: programs[n].loop_names() for n in names}

    # Stratified uniform draw: in each pass every procedure of every
    # program is the victim once, and a procedure's edits alternate
    # between the kinds.  Only the order, the first kind and the lines
    # are left to chance, so every seed loads the analysis with the same
    # mix of cone sizes and the same growth of the programs.
    draws: List[Tuple[str, str, str]] = []
    for name in names:
        for victim in sorted(programs[name].procedures):
            first = rng.randrange(len(EDIT_KINDS))
            draws.extend(
                (name, victim, EDIT_KINDS[(first + p) % len(EDIT_KINDS)])
                for p in range(passes))
    rng.shuffle(draws)

    ops: List[EditOp] = []
    for name, victim, kind in draws:
        for kind, line, text in _candidate_edits(
                rng, sources[name], programs[name], victim, kind, len(ops)):
            try:
                rebuilt = build_program(text, name)
            except FrontEndError:
                continue
            if rebuilt.loop_names() == loops[name]:
                break
        sources[name], programs[name] = text, rebuilt
        ops.append(EditOp(name, victim, kind, line,
                          rng.choice(loops[name]), text))
    return ops


def _candidate_edits(rng: random.Random, source: str, program, victim: str,
                     kind: str, tag: int) -> Iterator[Tuple[str, int, str]]:
    """(kind, line, edited text) candidates for one draw, to be tried in
    order: for ``duplicate``, each unlabelled assignment of the victim in
    seeded order; last (and for ``comment``, only) the comment, which
    always builds."""
    from repro.ir.statements import AssignStmt
    proc = program.procedures[victim]
    lines = source.splitlines()

    def insert(line: int, new: str) -> str:
        return "\n".join(lines[:line] + [new] + lines[line:]) + "\n"

    if kind == "duplicate":
        assignments = sorted({s.line for s in proc.statements()
                              if isinstance(s, AssignStmt)
                              and s.label is None})
        rng.shuffle(assignments)
        for line in assignments:
            yield "duplicate", line, insert(line, lines[line - 1])
    line = proc.source_lines.start
    yield "comment", line, insert(line, f"C e2e edit {tag}")


# -- HTTP mix ----------------------------------------------------------------

def synth_population(seed: int, smoke: bool = False) -> List[str]:
    """The ``synth/s<k>-<profile>`` names, shuffled by ``seed``: position
    is popularity rank.  The programs themselves are fixed (synth seeds
    0..N-1 x every profile) so the computed work is comparable between
    seeds; which of them are popular is what the seed decides."""
    from repro.workloads.synth import PROFILES, synth_name
    n = SMOKE_SYNTH_SEEDS if smoke else SYNTH_SEEDS
    names = [synth_name(k, profile) for k in range(n) for profile in PROFILES]
    random.Random(f"http-mixed:population:{seed}").shuffle(names)
    return names


def http_ops(seed: int, seconds: float, clients: int,
             smoke: bool = False) -> List[List[str]]:
    """Per client thread, the workload names it posts.

    Popularity is Zipf(s) over the seeded ranking, drawn by systematic
    sampling (evenly spaced quantiles of the distribution, then a seeded
    shuffle): every seed posts each *rank* the same number of times, so
    the share of posts that can be served from the store is a property
    of the workload and not of the draw.  Which program holds which rank,
    and the order of the posts, is what the seed decides.
    """
    population = synth_population(seed, smoke)
    per_client = (SMOKE_HTTP_JOBS_PER_CLIENT if smoke
                  else scaled(HTTP_JOBS_PER_CLIENT, seconds))
    total = clients * per_client
    cumulative = list(itertools.accumulate(
        rank ** -ZIPF_S for rank in range(1, len(population) + 1)))
    posts = [population[bisect.bisect_left(
                 cumulative, (i + 0.5) / total * cumulative[-1])]
             for i in range(total)]
    random.Random(f"http-mixed:posts:{seed}").shuffle(posts)
    return [posts[c::clients] for c in range(clients)]
