"""Parallel codegen: per-loop worker kernels + dispatch sites.

Extends :mod:`repro.runtime.transpile` — the kernel emitter and the
orchestrator emitter are subclasses of the sequential ``_ProcEmitter``
/ ``_ModuleEmitter``, so expression lowering, op batching, CSE and the
inner-loop drivers are shared line for line.  Three pieces:

* :func:`analyze_offloads` decides, per ``LoopPlan.parallel`` loop,
  whether a worker kernel can reproduce the sequential semantics
  bit-exactly (see the conservative checklist in ``_try_offload``), and
  computes the data-movement contract (env scalars, privatized groups,
  masked local arrays, reduction specs),
* ``_KernelEmitter`` emits ``_k<J>(_rng, _env, _cm, _mo, _ro)`` — the
  body of loop ``J`` over an arbitrary iteration-space chunk, with
  privatized-group copies, write masks, and an append-only reduction
  log in place of in-place reduction updates,
* ``_ParProcEmitter`` emits each procedure with a *dispatch site* at
  every offloadable loop: after the (op-charged) bound evaluation the
  generated code asks the runtime ``_par.go(J, n)`` and either hands
  the range to ``_par.run(...)`` or falls through to the unchanged
  sequential drivers — so any dispatch decision preserves outputs,
  COMMONs and op counts exactly.

The generated module also embeds ``_PAR_META`` (a pure literal), so a
module re-loaded from cache carries everything the runner needs without
re-running the analysis.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ...analysis.access import location_key
from ...ir.expressions import (ArrayRef, BinaryOp, Expression, Intrinsic,
                               VarRef)
from ...ir.program import Procedure, Program
from ...ir.statements import (AssignStmt, CallStmt, CycleStmt, ExitStmt,
                              IfStmt, IoStmt, LoopStmt, NoopStmt,
                              ReturnStmt, Statement, StopStmt)
from ...ir.symbols import INT, Symbol
from ...parallelize.plan import (INDUCTION, PARALLEL, PRIVATE,
                                 PRIVATE_FINAL, PRIVATE_USER, REDUCTION,
                                 LoopPlan, ProgramPlan, VarPlan)
from ..transpile import (CODEGEN_VERSION, TranspileUnsupported,
                         VARIANT_PLAIN, _Arr, _bind_runtime,
                         _buffer_backed, _const_index, _ModuleEmitter,
                         _PREAMBLE, _ProcEmitter, loop_table)

__all__ = [
    "Offload", "ParallelModule", "analyze_offloads",
    "load_parallel_module", "transpile_parallel",
]


# ---------------------------------------------------------------------------
# offload analysis
# ---------------------------------------------------------------------------

class _Reject(Exception):
    """Internal: this loop stays sequential (reason in args[0])."""


class Offload:
    """Everything codegen and the runner need about one offloaded loop."""

    __slots__ = (
        "loop", "proc", "J", "kname",
        "env",          # sorted plain-scalar names shipped to the kernel
        "fin",          # sorted plain-scalar names whose finals ship back
        "fs",           # fin minus reduction scalars (last-chunk finals)
        "red_scalars",  # {name: rid} plain local scalar reductions
        "arrays",       # merge specs, in kernel _pa order (dict literals)
        "ro",           # shipped local arrays: [{"name","sym","copy","mask_arr"}]
        "mrg",          # local-array names in the dispatch _mrg tuple
        "red",          # {rid: replay spec dict}
        "red_stmts",    # {stmt_id: (rid, op, pos, other_expr)}
        "blocks",       # sorted common-block names touched by the kernel
        "cs_ro",        # read-only common scalars (syms)
        "cm_masked",    # [(sym, arr_index)] privatized common members
        "ca_direct",    # common arrays written directly (syms)
        "cm_red",       # reduction-target common syms (scalars + arrays)
        "la_red",       # reduction-target local arrays: [(sym, mrg_index)]
        "ca_ro",        # read-only common arrays (syms)
    )


def _refs_group(e: Expression, group_ids) -> bool:
    return any(isinstance(x, (VarRef, ArrayRef)) and id(x.symbol) in group_ids
               for x in e.walk())


def _exprs_equal(a: Expression, b: Expression) -> bool:
    from ...analysis.reduction import exprs_equal
    return exprs_equal(a, b)


def _has_boolop(e: Expression) -> bool:
    return any(isinstance(x, BinaryOp) and x.op in ("and", "or")
               for x in e.walk())


def _match_reduction_chain(stmt: AssignStmt, group_ids
                           ) -> Optional[List[Tuple[str, str, Expression]]]:
    """Match update chains the log-replay merge can reproduce
    bit-exactly: a spine of ``+``/``*``/``-``/``min``/``max`` nodes with
    the target read at the deep end, e.g. ``t = ((t + e1) + e2) - e3``.
    Returns the steps outside-in as ``[(op, pos, operand), ...]`` —
    applying them in order to the accumulator performs literally the
    same operations in the same order as one sequential evaluation
    (``pos`` records which side the accumulator sat on; IEEE min/max
    and ``+``/``-`` are position-sensitive for NaNs and signed zeros).
    Operands must not reference the reduction location, ``-`` only
    accepts the accumulator on the left, and the target's indices must
    be free of short-circuit operators (their walrus op-charges would
    fire twice sequentially — RHS read plus store — but once in the
    kernel's logged-offset form)."""
    target = stmt.target
    if isinstance(target, ArrayRef):
        for idx in target.indices:
            if _refs_group(idx, group_ids) or _has_boolop(idx):
                return None

    def peel(v: Expression):
        if _exprs_equal(v, target):
            return []
        if isinstance(v, BinaryOp) and v.op in ("+", "*"):
            if _refs_group(v.left, group_ids) \
                    and not _refs_group(v.right, group_ids):
                sub = peel(v.left)
                return None if sub is None \
                    else sub + [(v.op, "l", v.right)]
            if _refs_group(v.right, group_ids) \
                    and not _refs_group(v.left, group_ids):
                sub = peel(v.right)
                return None if sub is None \
                    else sub + [(v.op, "r", v.left)]
            return None
        if isinstance(v, BinaryOp) and v.op == "-":
            if _refs_group(v.left, group_ids) \
                    and not _refs_group(v.right, group_ids):
                sub = peel(v.left)
                return None if sub is None \
                    else sub + [("-", "l", v.right)]
            return None
        if isinstance(v, Intrinsic) and v.name in ("min", "max") \
                and len(v.args) == 2:
            a0, a1 = v.args
            if _refs_group(a0, group_ids) \
                    and not _refs_group(a1, group_ids):
                sub = peel(a0)
                return None if sub is None \
                    else sub + [(v.name, "l", a1)]
            if _refs_group(a1, group_ids) \
                    and not _refs_group(a0, group_ids):
                sub = peel(a1)
                return None if sub is None \
                    else sub + [(v.name, "r", a0)]
            return None
        return None

    steps = peel(stmt.value)
    return steps or None


def _const_shape(sym: Symbol) -> Optional[Tuple[List[int], List[int], int]]:
    """(lows, strides, size) as ints, or None when any extent is not a
    compile-time constant."""
    lows: List[int] = []
    extents: List[int] = []
    for d in sym.dims:
        lo = _const_index(d.low)
        if lo is None or d.high is None:
            return None
        hi = _const_index(d.high)
        if hi is None:
            return None
        lows.append(lo)
        extents.append(hi - lo + 1)
    strides: List[int] = []
    acc = 1
    for ext in extents:
        strides.append(acc)
        acc *= ext
    return lows, strides, acc


def _vp_for(lp: LoopPlan, proc: Procedure, sym: Symbol) -> Optional[VarPlan]:
    """The loop plan's classification for ``sym``'s location.  Common
    locations may have been refined into member groups ``("cm", block,
    gidx)`` — resolve by symbol identity across the block's entries."""
    if sym.is_common:
        block = sym.common_block
        for key, vp in lp.vars.items():
            if key[0] == "cm" and key[1] == block and sym in vp.symbols:
                return vp
        return lp.vars.get(("cm", block))
    return lp.vars.get(location_key(sym))


def _loop_trips(loop: LoopStmt) -> Optional[int]:
    """Constant trip count, or None when any bound is non-constant."""
    lo = _const_index(loop.low)
    hi = _const_index(loop.high)
    if lo is None or hi is None:
        return None
    st = 1
    if loop.step is not None:
        st = _const_index(loop.step)
        if st is None or st == 0:
            return None
    if st > 0:
        return max(0, (hi - lo) // st + 1)
    return max(0, (lo - hi) // (-st) + 1)


def _always_reached(stmt: Statement, region: LoopStmt) -> bool:
    """True when ``stmt`` executes on *every* iteration of ``region``:
    its ancestor chain inside the region holds only loops with provably
    non-empty constant ranges (an IF, or a possibly zero-trip loop,
    means a chunk's last iteration might skip it)."""
    cur = stmt.parent
    while cur is not None and cur is not region:
        if not isinstance(cur, LoopStmt):
            return False
        trips = _loop_trips(cur)
        if trips is None or trips < 1:
            return False
        cur = cur.parent
    return cur is region


def _try_offload(program: Program, proc: Procedure, loop: LoopStmt,
                 lp: LoopPlan) -> Offload:
    """Build the offload contract for one parallel loop, or raise
    :class:`_Reject` when the kernel/merge protocol cannot reproduce
    sequential semantics bit-exactly."""
    own = loop.index
    if own.is_array:
        raise _Reject("array loop index")
    region = list(loop.body.walk())

    # structural rejections (I/O and early exits are plan blockers
    # already — rechecked here so the kernel can trust its input)
    for s in region:
        if isinstance(s, CallStmt):
            raise _Reject("loop contains a call")
        if isinstance(s, IoStmt):
            raise _Reject("loop performs I/O")
        if isinstance(s, (ExitStmt, StopStmt, ReturnStmt)):
            raise _Reject("loop may exit early")

    # CYCLE must resolve to a loop inside the region (incl. the region
    # driver itself); a label crossing out would unwind the kernel
    def check_cycles(body, labels):
        for s in body.statements:
            if isinstance(s, CycleStmt):
                if s.target_label is not None and \
                        s.target_label not in labels:
                    raise _Reject("CYCLE targets an enclosing loop")
            elif isinstance(s, LoopStmt):
                check_cycles(s.body, labels | {s.term_label})
            elif isinstance(s, IfStmt):
                for _, arm in s.arms:
                    check_cycles(arm, labels)
                if s.else_block is not None:
                    check_cycles(s.else_block, labels)
    check_cycles(loop.body, {loop.term_label})

    if any(vp.status == INDUCTION for vp in lp.vars.values()):
        raise _Reject("loop carries an induction variable")

    # -- access census ------------------------------------------------------
    inner_loops = [s for s in region if isinstance(s, LoopStmt)
                   and s is not loop]
    inner_idx = {id(s.index): s.index for s in inner_loops
                 if not (_buffer_backed(s.index) or s.index.is_const
                         or s.index.is_array)}

    read_plain: Dict[int, Symbol] = {}
    common_syms: Dict[int, Symbol] = {}
    local_arrays: Dict[int, Symbol] = {}
    written_arr: Dict[int, Symbol] = {}
    written_cs: Dict[int, Symbol] = {}
    written_plain: Dict[int, Symbol] = {}
    red_stmt_of: Dict[int, AssignStmt] = {}

    def see_expr(e: Expression) -> None:
        for x in e.walk():
            if isinstance(x, VarRef):
                sym = x.symbol
                if sym.is_const or sym.is_array:
                    continue
                if _buffer_backed(sym):
                    common_syms[id(sym)] = sym
                else:
                    read_plain[id(sym)] = sym
            elif isinstance(x, ArrayRef):
                sym = x.symbol
                if sym.is_formal:
                    raise _Reject(f"formal array {sym.name} in loop")
                if sym.is_common:
                    common_syms[id(sym)] = sym
                else:
                    local_arrays[id(sym)] = sym

    for s in region:
        for e in s.sub_expressions():
            see_expr(e)
        if isinstance(s, AssignStmt):
            t = s.target
            if isinstance(t, ArrayRef):
                sym = t.symbol
                if sym.is_formal:
                    raise _Reject(f"formal array {sym.name} written")
                written_arr[id(sym)] = sym
                if sym.is_common:
                    common_syms[id(sym)] = sym
                else:
                    local_arrays[id(sym)] = sym
            elif isinstance(t, VarRef):
                sym = t.symbol
                if sym.is_array:
                    raise _Reject(f"assignment to array name {sym.name}")
                if sym.is_const:
                    continue
                if _buffer_backed(sym):
                    written_cs[id(sym)] = sym
                    common_syms[id(sym)] = sym
                elif sym is not own:
                    if id(sym) in inner_idx:
                        raise _Reject(
                            f"inner loop index {sym.name} assigned")
                    written_plain[id(sym)] = sym

    # inner plain indices: only referenced inside their own loops'
    # subtrees, and every driving loop reached on every iteration —
    # that pins the index's post-region value to the last chunk's
    shadowed = dict(inner_idx)
    for inner in inner_loops:
        iid = id(inner.index)
        if iid in shadowed:
            in_subtree = set()
            for drv in inner_loops:
                if drv.index is inner.index:
                    if not _always_reached(drv, loop):
                        raise _Reject(
                            f"index {inner.index.name}: driving loop "
                            f"conditionally reached")
                    in_subtree.update(id(x) for x in drv.body.walk())
            # driving loops are NOT skipped: their own bound
            # expressions reading the index (``do j = j+1, n``) carry
            # state across chunks and must reject the offload
            for s in region:
                if id(s) in in_subtree:
                    continue
                for e in s.sub_expressions():
                    for x in e.walk():
                        if isinstance(x, VarRef) \
                                and x.symbol is inner.index:
                            raise _Reject(
                                f"index {inner.index.name} read outside "
                                f"its loop")
            del shadowed[iid]

    # -- per-location roles --------------------------------------------------
    off = Offload()
    off.loop, off.proc = loop, proc
    off.arrays = []
    off.ro = []
    off.mrg = []
    off.red = {}
    off.red_stmts = {}
    off.red_scalars = {}
    off.cs_ro = []
    off.cm_masked = []
    off.ca_direct = []
    off.cm_red = []
    off.la_red = []
    off.ca_ro = []

    rid_next = [0]
    red_groups: List[Tuple[VarPlan, frozenset]] = []

    def red_group_ids(sym: Symbol, vp: VarPlan) -> frozenset:
        for g_vp, g_ids in red_groups:
            if g_vp is vp:
                return g_ids
        g_ids = frozenset(id(s) for s in vp.symbols) | {id(sym)}
        red_groups.append((vp, g_ids))
        return g_ids

    # written plain scalars: trust the plan's privatization statuses
    # (they guarantee no exposed cross-iteration reads); reductions go
    # through the log, everything else ships last-chunk finals
    red_plain: Dict[int, Symbol] = {}
    for sid, sym in written_plain.items():
        vp = _vp_for(lp, proc, sym)
        if vp is None:
            raise _Reject(f"scalar {sym.name}: unclassified")
        if vp.status == REDUCTION:
            red_plain[sid] = sym
        elif vp.status not in (PRIVATE, PRIVATE_FINAL, PRIVATE_USER):
            raise _Reject(f"scalar {sym.name}: status {vp.status}")

    # written common locations: group-privatize (masked span copies),
    # write through (parallel arrays), or log (reductions)
    seen_groups: Dict[int, int] = {}      # id(vp) -> arrays index
    for sid, sym in list(written_cs.items()) + [
            (i, s) for i, s in written_arr.items() if s.is_common]:
        vp = _vp_for(lp, proc, sym)
        if vp is None:
            raise _Reject(f"common {sym.name}: unclassified")
        if vp.status == REDUCTION:
            continue
        if sym.is_array and vp.status == PARALLEL:
            off.ca_direct.append(sym)
            continue
        if vp.status not in (PRIVATE, PRIVATE_FINAL, PRIVATE_USER):
            raise _Reject(f"common {sym.name}: status {vp.status}")
        if id(vp) in seen_groups:
            continue
        # privatize the whole member group as one span so aliasing
        # (EQUIVALENCE-style overlap) behaves as in shared memory
        members = [s for s in common_syms.values()
                   if s in vp.symbols or s is sym]
        lo = min(s.common_offset for s in members)
        hi = max(s.common_offset + (s.constant_size() or 1)
                 for s in members)
        k = len(off.arrays)
        seen_groups[id(vp)] = k
        off.arrays.append({"kind": "ca", "block": sym.common_block,
                           "base": lo, "size": hi - lo})
        for m in members:
            off.cm_masked.append((m, k))

    masked_ids = {id(m) for m, _ in off.cm_masked}

    # local arrays: ship contents; written ones get masked copies
    red_local: Dict[int, Symbol] = {}
    for sid, sym in sorted(local_arrays.items(),
                           key=lambda kv: kv[1].name):
        if _const_shape(sym) is None:
            raise _Reject(f"local array {sym.name}: non-constant shape")
        if sid not in written_arr:
            off.ro.append({"name": sym.name, "sym": sym, "copy": False,
                           "mask_arr": None})
            continue
        vp = _vp_for(lp, proc, sym)
        if vp is None:
            raise _Reject(f"local array {sym.name}: unclassified")
        if vp.status == REDUCTION:
            red_local[sid] = sym
            continue
        if vp.status not in (PARALLEL, PRIVATE, PRIVATE_FINAL,
                             PRIVATE_USER):
            raise _Reject(f"local array {sym.name}: status {vp.status}")
        k = len(off.arrays)
        off.arrays.append({"kind": "la", "name": sym.name,
                           "mrg": len(off.mrg),
                           "size": _const_shape(sym)[2]})
        off.mrg.append(sym.name)
        off.ro.append({"name": sym.name, "sym": sym, "copy": True,
                       "mask_arr": k})

    for sid, sym in sorted(red_local.items(), key=lambda kv: kv[1].name):
        off.la_red.append((sym, len(off.mrg)))
        off.mrg.append(sym.name)

    # reduction statements: every touch of a REDUCTION location must be
    # a matched ``t = t op e`` update; the kernel logs (rid, [off,] val)
    # and the runner replays the log in chunk-execution order
    all_red_syms: Dict[int, Symbol] = dict(red_plain)
    all_red_syms.update(red_local)
    for sid, sym in common_syms.items():
        vp = _vp_for(lp, proc, sym)
        if vp is not None and vp.status == REDUCTION:
            all_red_syms[sid] = sym

    group_ids_all = set(all_red_syms)
    la_red_index = {id(s): k for s, k in off.la_red}
    for s in region:
        if isinstance(s, AssignStmt):
            t = s.target
            tsym = t.symbol if isinstance(t, (VarRef, ArrayRef)) else None
            if tsym is not None and id(tsym) in group_ids_all:
                vp = _vp_for(lp, proc, tsym)
                g_ids = red_group_ids(tsym, vp)
                if _has_boolop(s.value):
                    raise _Reject(
                        f"reduction on {tsym.name}: short-circuit "
                        f"operator in update")
                m = _match_reduction_chain(s, g_ids | {id(tsym)})
                if m is None:
                    raise _Reject(
                        f"reduction on {tsym.name}: unsupported shape")
                operands = [e for _op, _pos, e in m]
                if any(_refs_group(e, group_ids_all) for e in operands):
                    raise _Reject(
                        f"reduction on {tsym.name}: reads another "
                        f"reduction location")
                if isinstance(t, ArrayRef) and any(
                        _refs_group(idx, group_ids_all)
                        for idx in t.indices):
                    raise _Reject(
                        f"reduction on {tsym.name}: index reads a "
                        f"reduction location")
                rid = rid_next[0]
                rid_next[0] += 1
                if tsym.is_common and tsym.is_array:
                    spec = {"kind": "ca", "block": tsym.common_block}
                elif tsym.is_common:
                    spec = {"kind": "cs", "block": tsym.common_block,
                            "off": tsym.common_offset}
                elif tsym.is_array:
                    spec = {"kind": "la",
                            "mrg": la_red_index[id(tsym)]}
                else:
                    spec = {"kind": "ls", "name": tsym.name,
                            "coerce": "i" if tsym.type == INT else "f"}
                spec["steps"] = [(op_, pos_) for op_, pos_, _e in m]
                off.red[rid] = spec
                off.red_stmts[s.stmt_id] = (rid, operands)
                if spec["kind"] == "ls":
                    off.red_scalars[tsym.name] = rid
                # the other-side expression and the target indices may
                # not read any reduction location (checked above); the
                # single allowed group reference is the target read
                continue
        # any other statement may not touch a reduction location
        for e in s.sub_expressions():
            if s.stmt_id in off.red_stmts:
                continue
            for x in e.walk():
                if isinstance(x, (VarRef, ArrayRef)) \
                        and id(x.symbol) in group_ids_all:
                    raise _Reject(
                        f"reduction location {x.symbol.name} read "
                        f"outside its update")

    # reduction-status locations that never got a matched statement are
    # fine (no touches at all); but a write outside a matched statement
    # was already rejected above, and masked/direct writes to REDUCTION
    # locations were routed here by status

    # classify remaining common accesses (read-only / log metas)
    for sid, sym in sorted(common_syms.items(),
                           key=lambda kv: (kv[1].common_block,
                                           kv[1].common_offset,
                                           kv[1].name)):
        if sid in masked_ids:
            continue
        if sid in all_red_syms:
            off.cm_red.append(sym)
            continue
        if sym.is_array:
            if sym in off.ca_direct:
                continue
            off.ca_ro.append(sym)
        else:
            off.cs_ro.append(sym)

    # -- shipping lists ------------------------------------------------------
    env_names = {sym.name for sym in read_plain.values()
                 if sym is not own}
    env_names |= {sym.name for sym in written_plain.values()}
    off.env = sorted(env_names)
    fin = {sym.name for sym in written_plain.values()}
    fin |= {s.index.name for s in inner_loops
            if id(s.index) in inner_idx}
    off.fin = sorted(fin)
    off.fs = [n for n in off.fin if n not in off.red_scalars]
    off.blocks = sorted({s.common_block for s in common_syms.values()})
    return off


def analyze_offloads(program: Program, plan: ProgramPlan
                     ) -> Tuple[List[Offload], Dict[str, str]]:
    """All offloadable loops (in ``loop_table`` order, ``J`` assigned
    sequentially) plus a ``{loop name: reason}`` map for the parallel
    loops that stay sequential-only."""
    offloads: List[Offload] = []
    rejects: Dict[str, str] = {}
    proc_of = {}
    for pname, proc in program.procedures.items():
        for s in proc.body.walk():
            proc_of[s.stmt_id] = proc
    for loop in loop_table(program):
        lp = plan.loops.get(loop.stmt_id)
        if lp is None or not lp.parallel:
            continue
        proc = proc_of[loop.stmt_id]
        try:
            off = _try_offload(program, proc, loop, lp)
        except _Reject as e:
            rejects[loop.name or f"#{loop.stmt_id}"] = e.args[0]
            continue
        off.J = len(offloads)
        off.kname = f"_k{off.J}"
        offloads.append(off)
    return offloads, rejects


# ---------------------------------------------------------------------------
# kernel emitter
# ---------------------------------------------------------------------------

class _KernelEmitter(_ProcEmitter):
    """Emits one loop's worker kernel.  Inherits the sequential
    expression/statement lowering; overrides stores to privatized
    locations (masked) and reduction updates (logged)."""

    def __init__(self, mod: "_ParModuleEmitter", proc: Procedure,
                 off: Offload):
        super().__init__(mod, proc)
        self.off = off
        self.masked: Dict[int, int] = {}     # id(sym) -> arrays index
        self.red_stmts = off.red_stmts

    def emit(self) -> List[str]:
        off = self.off
        loop = off.loop
        self.w(f"def {off.kname}(_rng, _env, _cm, _mo, _ro):")
        self._ind += 1
        self.w("_o = 0")
        if off.env:
            names = ", ".join(f"v_{n}" for n in off.env)
            if len(off.env) == 1:
                names += ","
            self.w(f"({names}) = _env")
        for blk in off.blocks:
            self.w(f"_c_{blk} = _cm[{blk!r}]")

        # privatized common groups: span copies seeded from the shared
        # state (reads of never-written cells see dispatch-time values)
        for k, spec in enumerate(off.arrays):
            if spec["kind"] != "ca":
                continue
            b, base, size = spec["block"], spec["base"], spec["size"]
            self.w(f"_pg{k} = list(_c_{b}[{base}:{base + size}])")
            self.w(f"_pgm{k} = [False] * {size}")

        # local arrays: read-only bind, written ones copy + mask
        for j, r in enumerate(off.ro):
            if r["copy"]:
                k = r["mask_arr"]
                self.w(f"buf_{r['name']} = list(_ro[{j}])")
                self.w(f"_pgm{k} = [False] * {off.arrays[k]['size']}")
            else:
                self.w(f"buf_{r['name']} = _ro[{j}]")
        self.w("_rl = []")

        self._register_metas()

        # -- region driver (mirrors _emit_loop_body minus head/fix) ---------
        stmts = list(loop.body.walk())
        need_cycle = any(isinstance(x, CycleStmt) for x in stmts)
        seed_iter = not any(isinstance(x, CycleStmt) for x in stmts)
        precharge = all(isinstance(x, (AssignStmt, IoStmt, NoopStmt))
                        for x in loop.body.statements)
        sym = loop.index
        shadow = _buffer_backed(sym) or sym.is_const
        mirror = shadow or self._index_written(loop)
        iv = "_i0" if mirror else f"v_{sym.name}"
        written = self._written_vars(loop.body)
        if not shadow:
            written = written | {sym.name}
        self._scopes.append([len(self.lines), self._ind, written, {}])
        if precharge:
            for s in loop.body.statements:
                self.stmt(s)
            body_lines = self._pending
            body_n = self._pending_n
            self._pending = []
            self._pending_n = 0
            if self._cse is not None:
                self._cse = {}
            self.w(f"_o += {body_n + 1} * len(_rng)")
            self.w("if _o > _mo:")
            self.w("    _bud(_o, _mo)")
            self.w(f"for {iv} in _rng:")
            self._ind += 1
            if mirror and not shadow:
                self.w(f"v_{sym.name} = {iv}")
            if body_lines:
                for line in body_lines:
                    self.w(line)
            elif not (mirror and not shadow):
                self.w("pass")
            self._ind -= 1
        else:
            self.w(f"for {iv} in _rng:")
            self._ind += 1
            if mirror and not shadow:
                self.w(f"v_{sym.name} = {iv}")
            if seed_iter:
                self._pending_n += 1
            if need_cycle:
                self.w("try:")
                self._ind += 1
                self.block(loop.body)
                self._ind -= 1
                self.w("except _Cycle as _cy:")
                self.w("    if _cy.label is not None and "
                       f"_cy.label != {loop.term_label!r}:")
                self.w("        raise")
            else:
                self.block(loop.body)
            if not seed_iter:
                self.w("_o += 1")
            self._ind -= 1
        self._scopes.pop()

        # -- returns --------------------------------------------------------
        fs_t = "()"
        if off.fs:
            fs_t = "(" + ", ".join(f"v_{n}" for n in off.fs)
            fs_t += (",)" if len(off.fs) == 1 else ")")
        pa_items = []
        for k, spec in enumerate(off.arrays):
            buf = f"_pg{k}" if spec["kind"] == "ca" \
                else f"buf_{spec['name']}"
            pa_items.append(f"[(_j, {buf}[_j]) for _j in "
                            f"range({spec['size']}) if _pgm{k}[_j]]")
        pa_t = "()"
        if pa_items:
            pa_t = "(" + ", ".join(pa_items)
            pa_t += (",)" if len(pa_items) == 1 else ")")
        self.w(f"return _o, {fs_t}, {pa_t}, _rl")
        self._ind -= 1
        return self.lines

    def _register_metas(self) -> None:
        """Bind every accessed buffer-backed / array symbol to kernel
        storage: shared views, privatized span copies, or shipped local
        buffers.  All shapes are compile-time constants (the analysis
        rejected everything else)."""
        off = self.off
        for sym in off.cs_ro:
            self.arrays[id(sym)] = _Arr(f"_c_{sym.common_block}",
                                        sym.common_offset, [1], [1],
                                        False, sym.name)
        for sym, k in off.cm_masked:
            self.masked[id(sym)] = k
            base = sym.common_offset - off.arrays[k]["base"]
            if sym.is_array:
                lows, strides, _ = _const_shape(sym)
            else:
                lows, strides = [1], [1]
            self.arrays[id(sym)] = _Arr(f"_pg{k}", base, lows, strides,
                                        False, sym.name)
        for sym in off.ca_direct + off.ca_ro:
            lows, strides, _ = _const_shape(sym)
            self.arrays[id(sym)] = _Arr(f"_c_{sym.common_block}",
                                        sym.common_offset, lows, strides,
                                        False, sym.name)
        for sym in off.cm_red:
            if sym.is_array:
                lows, strides, _ = _const_shape(sym)
            else:
                lows, strides = [1], [1]
            # offsets in the log are absolute within the block view;
            # the buffer itself is never subscripted (log-only)
            self.arrays[id(sym)] = _Arr(f"_c_{sym.common_block}",
                                        sym.common_offset, lows, strides,
                                        False, sym.name)
        for r in self.off.ro:
            sym = r["sym"]
            lows, strides, _ = _const_shape(sym)
            self.arrays[id(sym)] = _Arr(f"buf_{sym.name}", 0, lows,
                                        strides, False, sym.name)
            if r["mask_arr"] is not None:
                self.masked[id(sym)] = r["mask_arr"]
        for sym, _k in off.la_red:
            lows, strides, _ = _const_shape(sym)
            self.arrays[id(sym)] = _Arr(f"_noread_{sym.name}", 0, lows,
                                        strides, False, sym.name)

    # -- overrides -----------------------------------------------------------
    def assign(self, s: AssignStmt) -> Tuple[List[str], int]:
        red = self.red_stmts.get(s.stmt_id)
        if red is not None:
            rid, operands = red
            texts = []
            en = 0
            for e in operands:
                et, n_e = self.expr(e)
                texts.append(et)
                en += n_e
            vals_t = "(" + ", ".join(texts) \
                + ("," if len(texts) == 1 else "") + ")"
            t = s.target
            if isinstance(t, ArrayRef):
                meta = self.arrays[id(t.symbol)]
                off_t, on = self.offset(meta, t.indices)
                tn = self.tmp("_x")
                # static count mirrors the sequential update: store(1)
                # + rhs(chain ops + target-read(1 + idx) + operands)
                # + store idx
                n = 1 + (len(operands) + (1 + on) + en) + on
                return [f"{tn} = {off_t}",
                        f"_rl.append(({rid}, {tn}, {vals_t}))"], n
            n = 1 + (len(operands) + 1 + en)
            return [f"_rl.append(({rid}, {vals_t}))"], n
        t = s.target
        if isinstance(t, ArrayRef) and id(t.symbol) in self.masked:
            k = self.masked[id(t.symbol)]
            meta = self.arrays[id(t.symbol)]
            vtype = self.etype(s.value)
            vt, vn = self.expr(s.value)
            off_t, on = self.offset(meta, t.indices)
            val = vt if vtype == "f" else f"float({vt})"
            tn = self.tmp("_x")
            self._invalidate_store(meta, None)
            return [f"{tn} = {off_t}", f"{meta.buf}[{tn}] = {val}",
                    f"_pgm{k}[{tn}] = True"], 1 + vn + on
        if isinstance(t, VarRef) and id(t.symbol) in self.masked:
            k = self.masked[id(t.symbol)]
            meta = self.arrays[id(t.symbol)]
            vtype = self.etype(s.value)
            vt, vn = self.expr(s.value)
            val = vt if vtype == "f" else f"float({vt})"
            self._invalidate_store(meta, None)
            return [f"{meta.buf}[{meta.base}] = {val}",
                    f"_pgm{k}[{meta.base}] = True"], 1 + vn
        return super().assign(s)

    def io(self, s):
        raise TranspileUnsupported("I/O inside a parallel kernel")

    def emit_call(self, call):
        raise TranspileUnsupported("call inside a parallel kernel")


# ---------------------------------------------------------------------------
# orchestrator emitters
# ---------------------------------------------------------------------------

def _tuple_text(items: List[str]) -> str:
    if not items:
        return "()"
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _ParProcEmitter(_ProcEmitter):
    """Sequential procedure emitter plus a dispatch site at every
    offloadable loop.  The head (bound evaluation, op charges, range
    construction) is shared; the dispatched branch replicates exactly
    the loop's externally visible post-state (index fixup, finals,
    op total via ``_s[0]``)."""

    def emit_loop(self, loop: LoopStmt) -> None:
        head = self._emit_loop_head(loop)
        off = self.mod.offloads.get(loop.stmt_id)
        if off is None:
            self._emit_loop_body(loop, head)
            return
        rng = head.rng
        env_t = _tuple_text([f"v_{n}" for n in off.env])
        mrg_t = _tuple_text([f"buf_{n}" for n in off.mrg])
        ro_t = _tuple_text([f"buf_{r['name']}" for r in off.ro])
        self.w(f"if _par.go({off.J}, len({rng})):")
        self._ind += 1
        self.w("_s[0] = _o")
        self.w(f"_fin = _par.run({off.J}, {rng}, _s, _mo, {env_t}, "
               f"{mrg_t}, {ro_t})")
        self.w("_o = _s[0]")
        if off.fin:
            targets = ", ".join(f"v_{n}" for n in off.fin)
            if len(off.fin) == 1:
                targets += ","
            self.w(f"({targets}) = _fin")
        if not head.shadow:
            if head.step_const == 1:
                self.w(f"v_{loop.index.name} = {head.lo_t} + len({rng})")
            else:
                self.w(f"v_{loop.index.name} = {head.lo_t} + "
                       f"len({rng}) * {head.st_t}")
        self._ind -= 1
        self.w("else:")
        self._ind += 1
        self._emit_loop_body(loop, head)
        self._ind -= 1
        self.mod.kernel_lines.append(
            _KernelEmitter(self.mod, self.proc, off).emit())


def _meta_literal(offloads: List[Offload]) -> str:
    meta = {}
    for off in offloads:
        meta[off.J] = {
            "kernel": off.kname,
            "loop": off.loop.name or f"#{off.loop.stmt_id}",
            "proc": off.proc.name,
            "env": list(off.env),
            "fin": list(off.fin),
            "fs": list(off.fs),
            "arrays": [
                {k: v for k, v in spec.items() if k != "name"}
                if spec["kind"] == "ca" else
                {"kind": "la", "mrg": spec["mrg"], "size": spec["size"]}
                for spec in off.arrays],
            "red": {rid: dict(spec) for rid, spec in off.red.items()},
        }
    return repr(meta)


class _ParModuleEmitter(_ModuleEmitter):
    """Whole-program emitter for the parallel backend: plain-variant
    procedures with dispatch sites, kernels appended after, and the
    ``_PAR_META`` literal.  No module-level ``run()`` — the runner
    drives ``p_<main>`` directly with shared-memory COMMON views and a
    live ``_par`` handle."""

    def __init__(self, program: Program, offloads: List[Offload]):
        super().__init__(program, VARIANT_PLAIN, ())
        self.extra_args = ", _par"
        self.offloads = {o.loop.stmt_id: o for o in offloads}
        self.offload_list = offloads
        self.kernel_lines: List[List[str]] = []

    def emit(self) -> str:
        program = self.program
        parts = [
            f'"""Parallel-backend module for {program.name!r} '
            f'(codegen v{CODEGEN_VERSION}).\n'
            'Generated by repro.runtime.par_backend - do not edit."""',
            "",
            _PREAMBLE,
            f"\n_NLOOPS = {len(self.loop_index)}\n",
        ]
        for name in sorted(program.procedures):
            emitter = _ParProcEmitter(self, program.procedures[name])
            parts.append("\n")
            parts.extend(emitter.emit())
        for lines in self.kernel_lines:
            parts.append("\n")
            parts.extend(lines)
        parts.append("\n_PAR_META = " + _meta_literal(self.offload_list))
        return "\n".join(parts) + "\n"


def transpile_parallel(program: Program, plan: ProgramPlan
                       ) -> Tuple[str, List[Offload], Dict[str, str]]:
    """Generate the parallel-backend module source.  Returns
    ``(source, offloads, rejects)``; raises
    :class:`TranspileUnsupported` when the program itself cannot be
    transpiled (same contract as the sequential generator)."""
    offloads, rejects = analyze_offloads(program, plan)
    source = _ParModuleEmitter(program, offloads).emit()
    return source, offloads, rejects


# ---------------------------------------------------------------------------
# module cache
# ---------------------------------------------------------------------------

class ParallelModule:
    """One generated parallel module: orchestrator namespace (runtime
    error types bound), raw source (shipped verbatim to workers, where
    the self-contained shims stay in place), and the dispatch metadata
    the runner merges with."""

    __slots__ = ("source", "namespace", "meta", "rejects", "key")

    def __init__(self, source: str, namespace: Dict, meta: Dict,
                 rejects: Dict[str, str], key: str):
        self.source = source
        self.namespace = namespace
        self.meta = meta
        self.rejects = rejects
        self.key = key

    @property
    def n_offloads(self) -> int:
        return len(self.meta)


def _plan_signature(plan: ProgramPlan) -> str:
    items = []
    for stmt_id in sorted(plan.loops):
        lp = plan.loops[stmt_id]
        vars_sig = sorted(
            (repr(key), vp.status, ",".join(sorted(vp.reduction_ops)))
            for key, vp in lp.vars.items())
        items.append((stmt_id, lp.parallel, tuple(lp.blockers),
                      tuple(vars_sig)))
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


_par_memo: Dict[tuple, ParallelModule] = {}


def load_parallel_module(program: Program, plan: ProgramPlan
                         ) -> ParallelModule:
    """Generated parallel module for ``(program, plan)``, memoized on
    (source hash, plan signature, codegen version)."""
    src = program.source_text or ""
    key = None
    if src and not program.transformed:
        digest = hashlib.sha256(src.encode("utf-8")).hexdigest()
        key = (digest, _plan_signature(plan), CODEGEN_VERSION)
        cached = _par_memo.get(key)
        if cached is not None:
            return cached
    source, offloads, rejects = transpile_parallel(program, plan)
    ns: Dict = {}
    exec(compile(source, f"<par:{program.name}>", "exec"), ns)
    _bind_runtime(ns)
    meta = ns["_PAR_META"]
    mod = ParallelModule(source, ns, meta, rejects,
                         hashlib.sha256(source.encode("utf-8"))
                         .hexdigest())
    if key is not None:
        if len(_par_memo) > 64:
            _par_memo.clear()
        _par_memo[key] = mod
    return mod
