"""Transpiled execution engine: IR -> plain Python source.

The fast execution substrate.  Where the tree-walking
:class:`~repro.runtime.interpreter.Interpreter` is the semantic oracle,
this module *generates Python source* — the paper's §4.5 endgame of
handing generated code to a real compiler, with CPython's bytecode
compiler standing in for the native one.

The contract is bit-determinism against the oracle:

* identical printed outputs, COMMON memory, and **op counts** (ops are
  charged in per-block batches, so only the point where an exhausted
  budget trips may differ by a few ops),
* identical :class:`OpsBudgetExceeded` type and message on exhaustion,
* codegen-time instrumentation aspects — the paper's §2.5 "instrumented
  executables the compiler emits": ``profile`` loop drivers emit their
  own op-delta accounting, ``dyndep`` shadow-memory updates —
  stride-sampling window included — are generated directly into the
  Python, and ``cost`` emits the simulated-multiprocessor run's region
  accounting (see "cost aspect" below), alone or together in one module,
  each keeping its observer's state bit-identical to the oracle's.

Op accounting in generated code uses a function-local counter ``_o``
synchronized through a shared cell ``_s[0]`` at call boundaries (callers
publish before a call, callees start from the cell, and ``finally``
blocks max-merge on every unwind), so the budget check on the hot path
is a compare of two local integers.

Cost aspect.  The parallel executor prices *outermost parallel
regions*; which loops are parallel comes from the plan, so it is a
run-time argument (``_pf``, dense loop-index flags) and one generated
module serves every plan of a program.  Memory accesses are counted the
way ops are — a second local counter ``_a`` (cell ``_s[2]``) charged in
the same per-block batches — and each batch marks the buffers it
touches in ``_cs.tb`` (name -> bytes).  Per-event code exists only at
region enter / iteration / exit and at stores inside reduction
statements.

Generated modules are cached twice: an in-process LRU of exec'd
namespaces keyed by (program source hash, variant, skip-set signature,
codegen version), and an optional persistent
:class:`~repro.service.artifacts.ArtifactStore` layer (see
:func:`set_codegen_store`) holding the generated source so repeat
service jobs skip codegen entirely.

Programs or observer configurations the generator cannot express
(unknown operators/intrinsics, duplicate / stale / subclassed observers)
make :class:`TranspiledEngine` run the tree oracle instead — same
results, ``engine_label`` reports ``"tree"`` and the ``execute`` span
carries the reason.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.expressions import (ArrayRef, BinaryOp, Const, Expression,
                              Intrinsic, StrConst, UnaryOp, VarRef)
from ..ir.program import Procedure, Program
from ..ir.statements import (AssignStmt, Block, CallStmt, CycleStmt,
                             ExitStmt, IfStmt, IoStmt, LoopStmt, NoopStmt,
                             ReturnStmt, Statement, StopStmt)
from ..ir.symbols import INT, Symbol
from .interpreter import Interpreter, RuntimeErrorInProgram, budget_error
from .values import Buffer

__all__ = [
    "CODEGEN_VERSION", "TranspileUnsupported", "TranspiledEngine",
    "VARIANT_COST", "VARIANT_DYNDEP", "VARIANT_PLAIN", "VARIANT_PROFILE",
    "codegen_cache_stats", "compile_program", "loop_table",
    "reset_codegen_cache", "set_codegen_store", "transpile_to_python",
]

#: Bumped whenever generated-code layout or semantics change: cached
#: modules (in-process and persistent) then miss instead of being reused.
CODEGEN_VERSION = 3

#: A variant is ``plain`` or instrumentation aspects joined by ``+`` in
#: canonical order (``profile+dyndep+cost``): ``transpiled/<variant>``.
VARIANT_PLAIN = "plain"
VARIANT_PROFILE = "profile"
VARIANT_DYNDEP = "dyndep"
VARIANT_COST = "cost"
_ASPECTS = (VARIANT_PROFILE, VARIANT_DYNDEP, VARIANT_COST)
#: What each aspect appends to every generated procedure's signature.
_EXTRA_ARGS = {VARIANT_PROFILE: ", _pt, _pv, _pi, _pn, _po",
               VARIANT_DYNDEP: ", _dd", VARIANT_COST: ", _pf, _cs"}

_DEFAULT_MAX_OPS = 500_000_000


class TranspileUnsupported(ValueError):
    """The generator cannot express this program/construct; the engine
    falls back to the tree oracle."""


def _buffer_backed(sym: Symbol) -> bool:
    return sym.is_common and not sym.is_array


def loop_table(program: Program) -> List[LoopStmt]:
    """Every loop of ``program`` in deterministic order (procedures by
    name, statements pre-order).  Generated code refers to loops by
    their dense index in this table, so identical sources produce
    identical generated text regardless of parse-time statement ids."""
    out: List[LoopStmt] = []
    for name in sorted(program.procedures):
        for s in program.procedures[name].body.walk():
            if isinstance(s, LoopStmt):
                out.append(s)
    return out


def _skip_signature(program: Program, skip_ids) -> Tuple[int, ...]:
    """Canonical (parse-order-independent) form of a dyndep skip set,
    used in cache keys: dense pre-order statement indices."""
    if not skip_ids:
        return ()
    skip = frozenset(skip_ids)
    dense: List[int] = []
    i = 0
    for name in sorted(program.procedures):
        for s in program.procedures[name].body.walk():
            if s.stmt_id in skip:
                dense.append(i)
            i += 1
    return tuple(dense)


# ---------------------------------------------------------------------------
# generated-module preamble
# ---------------------------------------------------------------------------
# Self-contained: the emitted source runs standalone (the ``repro
# compile`` CLI, the plain-Python contract in the tests).  When the
# engine drives a module it rebinds ``_Err`` / ``_bud`` post-exec to the
# runtime's real exception types so error and budget semantics unify
# across all three engines.

_PREAMBLE = '''\
import math as _m


class _Err(Exception):
    pass


class _Budget(_Err):
    pass


class _Stop(Exception):
    pass


class _Exit(Exception):
    pass


class _Cycle(Exception):
    def __init__(self, label):
        self.label = label


def _bud(o, mo):
    raise _Budget("operation budget exceeded (max_ops=%d)" % (mo,))


def _idiv(a, b):
    q = abs(a) // abs(b)
    return int(q if (a >= 0) == (b >= 0) else -q)


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise _Err("integer division by zero")
        return _idiv(a, b)
    return a / b


def _sign(a, b):
    return abs(a) if b >= 0 else -abs(a)


def _pop(q):
    if not q:
        raise _Err("READ past end of inputs")
    return q.pop(0)
'''

# Dyndep-variant extras: the state object plus the read/write helpers
# called at every instrumented access site.  ``_wr`` takes the value
# *before* the offset so Python's left-to-right argument evaluation
# reproduces the oracle's event order (value reads, then subscript
# reads, then the write).  ``stack`` holds mutable activation cells
# ``[dense loop id, invocation, iteration]``; a cell's iteration field
# is severed to ``None`` on loop exit, so a shadow snapshot referencing
# a dead (or re-entered) loop invocation compares as inactive — exactly
# the oracle's (loop, invocation) matching.
_DD_PREAMBLE = '''\


class _DD(object):
    __slots__ = ("window", "stack", "inv", "snap", "flag", "shadow",
                 "bufs", "names", "sampled", "skipped", "carried",
                 "by_var", "wit", "maxw")

    def __init__(self, window, maxw):
        self.window = window
        self.stack = []
        self.inv = {}
        self.snap = ()
        self.flag = True
        self.shadow = {}
        self.bufs = {}
        self.names = {}
        self.sampled = 0
        self.skipped = 0
        self.carried = {}
        self.by_var = {}
        self.wit = {}
        self.maxw = maxw

    def rec(self, lid, bname, wline, rline):
        c = self.carried
        c[lid] = c.get(lid, 0) + 1
        bv = self.by_var
        k = (lid, bname)
        bv[k] = bv.get(k, 0) + 1
        pairs = self.wit.setdefault(lid, [])
        p = (wline, rline)
        if p not in pairs and len(pairs) < self.maxw:
            pairs.append(p)


def _rd(dd, b, i, rline):
    if dd.flag:
        dd.sampled += 1
        sh = dd.shadow.get(id(b))
        if sh is not None:
            ent = sh[i]
            if ent is not None:
                sw = ent[0]
                if sw is not dd.snap:
                    for cell, wit in sw:
                        cur = cell[2]
                        if cur is not None and cur != wit:
                            dd.rec(cell[0], dd.names[id(b)],
                                   ent[1], rline)
    else:
        dd.skipped += 1
    return b[i]


def _wr(dd, b, v, i, wline):
    if dd.flag:
        dd.sampled += 1
        bid = id(b)
        sh = dd.shadow.get(bid)
        if sh is None:
            sh = [None] * len(b)
            dd.shadow[bid] = sh
            dd.bufs[bid] = b
        snap = dd.snap
        if snap is None:
            snap = tuple((c, c[2]) for c in dd.stack)
            dd.snap = snap
        sh[i] = (snap, wline)
    else:
        dd.skipped += 1
    b[i] = float(v)
'''

_BINOPS = {"+": "+", "-": "-", "*": "*", "**": "**",
           "<": "<", "<=": "<=", ">": ">", ">=": ">=",
           "==": "==", "/=": "!="}

_ONE_ARG = {"abs": "abs", "sqrt": "_m.sqrt", "exp": "_m.exp",
            "log": "_m.log", "sin": "_m.sin", "cos": "_m.cos",
            "float": "float", "int": "int"}


class _Arr:
    """Codegen-time metadata for one array (or buffer-backed scalar).

    ``lows`` / ``strides`` entries are ints (constant-folded) or names
    of prologue temporaries; formal arrays instead defer everything to
    the runtime 4-tuple ``(buffer, base, lows, strides)`` they were
    passed — the oracle binds the *caller's* view to array formals, so
    the callee's declared shape never enters the picture.

    ``key`` / ``nbytes`` (cost variant only) are the source texts of the
    backing buffer's name and byte size, as the footprint records them."""

    __slots__ = ("buf", "base", "lows", "strides", "formal", "name",
                 "key", "nbytes")

    def __init__(self, buf, base, lows, strides, formal, name):
        self.buf = buf
        self.base = base
        self.lows = lows
        self.strides = strides
        self.formal = formal
        self.name = name
        self.key = self.nbytes = None

    def low(self, k: int):
        if self.formal:
            return f"lo_{self.name}[{k}]"
        return self.lows[k]

    def stride(self, k: int):
        if self.formal:
            # ArrayView strides always start at 1
            return 1 if k == 0 else f"st_{self.name}[{k}]"
        return self.strides[k]

    def whole(self) -> str:
        """Argument text passing this array whole to an array formal."""
        if self.formal:
            return (f"(buf_{self.name}, off_{self.name}, "
                    f"lo_{self.name}, st_{self.name})")
        lows = ", ".join(str(v) for v in self.lows)
        sts = ", ".join(str(v) for v in self.strides)
        sep = "," if len(self.lows) == 1 else ""
        return f"({self.buf}, {self.base}, ({lows}{sep}), ({sts}{sep}))"


def _lit(value) -> str:
    """Source literal for a constant; negatives are parenthesized so
    the text embeds safely in any operator context."""
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _const_index(e: Expression) -> Optional[int]:
    if isinstance(e, Const) and isinstance(e.value, int) \
            and not isinstance(e.value, bool):
        return e.value
    if isinstance(e, VarRef) and e.symbol.is_const \
            and isinstance(e.symbol.const_value, int) \
            and not isinstance(e.symbol.const_value, bool):
        return e.symbol.const_value
    return None


def _has_shallow_exit(block: Block) -> bool:
    """EXIT statements not enclosed in a deeper loop (those are the ones
    whose _Exit reaches *this* loop)."""
    for stmt in block.statements:
        if isinstance(stmt, ExitStmt):
            return True
        if isinstance(stmt, LoopStmt):
            continue                      # inner loop catches its own _Exit
        for child in stmt.children_blocks():
            if _has_shallow_exit(child):
                return True
    return False


class _ProcEmitter:
    """Emits one procedure as a Python function: per-block op batching,
    range-driven loop drivers, and the shared-cell call protocol."""

    def __init__(self, mod: "_ModuleEmitter", proc: Procedure):
        self.mod = mod
        self.program = mod.program
        self.proc = proc
        self.dyn = VARIANT_DYNDEP in mod.aspects
        self.profile = VARIANT_PROFILE in mod.aspects
        self.cost = VARIANT_COST in mod.aspects
        self.is_main = proc.name == mod.program.main
        self.lines: List[str] = []
        self._ind = 0
        self._n = 0
        self._pending: List[str] = []
        self._pending_n = 0
        self._pending_ev: List[_Arr] = []       # cost: the batch's accesses
        self._red = False                       # cost: in a reduction stmt?
        self._keyed: set = set()                # cost: formals needing keys
        self.arrays: Dict[int, _Arr] = {}      # id(sym) -> metadata
        self._site = False                      # dyndep: instrument here?
        self._line = 0                          # dyndep: witness line
        # loop scopes for invariant hoisting: [pos, indent, written, cache]
        self._scopes: List[list] = []
        # batch-scope load/store CSE: (bufname, offtext) -> value temp.
        # Off for dyndep — every access must raise its shadow event.
        self._cse: Optional[Dict] = None if self.dyn else {}
        # CSE pre-lines go through self._pending; only statements that
        # batch (assign/io) may use it — conditions, bounds and call
        # arguments must compile to self-contained text
        self._batch = False
        # symbols the loop driver writes raw ints into (no type
        # coercion, mirroring the oracle's frame.scalars[index] = i)
        self._loop_syms = frozenset(
            id(s.index) for s in proc.body.walk()
            if isinstance(s, LoopStmt))

    # -- infrastructure ------------------------------------------------------
    def w(self, text: str) -> None:
        self.lines.append("    " * self._ind + text)

    def tmp(self, prefix: str = "_t") -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def set_site(self, stmt: Optional[Statement]) -> None:
        """Resolve dyndep instrumentation for accesses attributed to
        ``stmt`` (the compile-time mirror of the oracle's
        ``current_stmt``; skip-set statements compile to uninstrumented
        accesses, bypassing even the sampling counters, exactly like
        the oracle's early return)."""
        if not self.dyn:
            return
        if stmt is not None and stmt.stmt_id in self.mod.skip:
            self._site, self._line = False, 0
        else:
            self._site = True
            self._line = stmt.line if stmt is not None else 0

    def charge(self, n: int) -> None:
        """One batched budget charge-and-check."""
        self.w(f"_o += {n}")
        self.w("if _o > _mo:")
        self.w("    _bud(_o, _mo)")

    def flush(self) -> None:
        if self._pending_n:
            self.charge(self._pending_n)
            self.touch(self._pending_ev)
            for line in self._pending:
                self.w(line)
        self._pending = []
        self._pending_n = 0
        self._pending_ev = []
        if self._cse is not None:
            self._cse = {}

    # -- cost variant: access accounting -------------------------------------
    def reads(self, e: Expression, out: List[_Arr]) -> List[_Arr]:
        """Append the buffer of every read event ``e`` raises
        unconditionally, mirroring the oracle's ``on_read`` sites
        (short-circuit right operands charge themselves on reach)."""
        if isinstance(e, VarRef):
            if not e.symbol.is_const and _buffer_backed(e.symbol):
                out.append(self.arrays[id(e.symbol)])
        elif isinstance(e, ArrayRef):
            for ix in e.indices:
                self.reads(ix, out)
            meta = self.arrays.get(id(e.symbol))
            if meta is not None:
                out.append(meta)
        elif isinstance(e, BinaryOp):
            self.reads(e.left, out)
            if e.op not in ("and", "or"):
                self.reads(e.right, out)
        elif isinstance(e, UnaryOp):
            self.reads(e.operand, out)
        elif isinstance(e, Intrinsic):
            for a in e.args:
                self.reads(a, out)
        return out

    def events(self, exprs: Sequence[Expression]) -> List[_Arr]:
        """The read events of evaluating ``exprs`` (cost variant; the
        other variants account for none)."""
        out: List[_Arr] = []
        if self.cost:
            for e in exprs:
                self.reads(e, out)
        return out

    def _key(self, meta: _Arr) -> str:
        """``meta``'s buffer-name text; an array formal's is resolved in
        the prologue, for just the formals that ask here."""
        if meta.formal:
            self._keyed.add(meta.name)
        return meta.key

    def _marks(self, events: List[_Arr]) -> List[Tuple[str, str]]:
        """Distinct (name text, byte-size text) of the buffers touched."""
        return list(dict.fromkeys((self._key(m), m.nbytes)
                                  for m in events))

    def touch(self, events: List[_Arr]) -> None:
        """Charge ``len(events)`` accesses and mark their buffers, the
        batched equivalent of one ``on_read``/``on_write`` per event."""
        if events:
            self.w(f"_a += {len(events)}")
            for key, nbytes in self._marks(events):
                self.w(f"_tb[{key}] = {nbytes}")

    def _stmt_events(self, s: Statement) -> List[_Arr]:
        """Every access an assignment / IO statement raises: value and
        subscript reads plus one write per buffer-backed target."""
        if isinstance(s, AssignStmt):
            out, targets = self.events((s.value,)), (s.target,)
        elif s.kind == "print":
            return self.events(s.items)
        else:
            out, targets = [], s.items
        for t in targets:
            if isinstance(t, ArrayRef):
                out += self.events(t.indices)
            if isinstance(t, ArrayRef) or _buffer_backed(t.symbol):
                out.append(self.arrays[id(t.symbol)])
        return out

    def _red_store(self, meta: _Arr, offtext: str, val: str) -> List[str]:
        """Store inside a reduction statement (cost variant): the one
        place a write needs per-event code — the region counts the
        update and the distinct cells it touches."""
        self._invalidate_store(meta, None)
        v, k = self.tmp(), self.tmp()
        return [f"{v} = {val}", f"{k} = {offtext}",
                f"{meta.buf}[{k}] = {v}", f"_cs.rw({self._key(meta)}, {k})"]

    def _dd_store(self, meta: _Arr, off, val: str) -> List[str]:
        """Instrumented store (dyndep aspect); inside a reduction
        statement the cost aspect's region counts the same update."""
        if not self._red:
            return [f"_wr(_dd, {meta.buf}, {val}, {off}, {self._line})"]
        k = self.tmp()
        return [f"_wr(_dd, {meta.buf}, {val}, ({k} := {off}), {self._line})",
                f"_cs.rw({self._key(meta)}, {k})"]

    # -- static analysis -----------------------------------------------------
    def etype(self, e: Expression) -> str:
        """Runtime type of ``e``'s value: ``'f'`` (definitely Python
        float), ``'i'`` (definitely int), ``'?'`` (unknown / bool).
        Sound because every store site coerces: REAL locals and buffer
        elements always hold floats, INT locals always ints.  Formals
        are ``'?'`` — binding is raw, so a float can hide in an INT
        formal until its first (coercing) store."""
        import numpy as np
        if isinstance(e, Const):
            v = e.value
            if isinstance(v, bool):
                return "?"
            if isinstance(v, float):
                return "f"
            if isinstance(v, (int, np.integer)):
                return "i"
            return "?"
        if isinstance(e, VarRef):
            sym = e.symbol
            if sym.is_const:
                v = sym.const_value
                if isinstance(v, bool):
                    return "?"
                return "f" if isinstance(v, float) else (
                    "i" if isinstance(v, (int, np.integer)) else "?")
            if _buffer_backed(sym):
                return "f"
            if sym.is_array:
                return "i"                       # bare ref reads as 0
            if getattr(sym, "storage", None) != "local":
                return "?"
            if sym.type == INT:
                return "i"
            # a REAL used as a loop index holds raw driver ints
            return "?" if id(sym) in self._loop_syms else "f"
        if isinstance(e, ArrayRef):
            return "f"
        if isinstance(e, BinaryOp):
            lt, rt = self.etype(e.left), self.etype(e.right)
            if e.op in ("+", "-", "*"):
                if "f" in (lt, rt):
                    return "f"
                return "i" if lt == rt == "i" else "?"
            if e.op == "/":
                if "f" in (lt, rt):
                    return "f"
                return "i" if lt == rt == "i" else "?"
            if e.op == "**":
                return "f" if "f" in (lt, rt) else "?"
            return "?"                           # comparisons, and/or
        if isinstance(e, UnaryOp):
            return self.etype(e.operand) if e.op == "-" else "?"
        if isinstance(e, Intrinsic):
            n = e.name
            if n in ("sqrt", "exp", "log", "sin", "cos", "float"):
                return "f"
            if n == "int":
                return "i"
            if n in ("abs", "min", "max", "mod"):
                ts = {self.etype(a) for a in e.args}
                return ts.pop() if len(ts) == 1 else "?"
            if n == "sign" and e.args:
                return self.etype(e.args[0])
        return "?"

    def _expr_vars(self, e: Expression):
        """(referenced plain-local names, pure?) — pure means no buffer
        reads, no raising ops, no short-circuit charging: safe to
        evaluate early, repeatedly, or not at all."""
        if isinstance(e, Const):
            return frozenset(), True
        if isinstance(e, VarRef):
            sym = e.symbol
            if sym.is_const or sym.is_array:
                return frozenset(), True
            if _buffer_backed(sym):
                return frozenset(), False
            return frozenset((sym.name,)), True
        if isinstance(e, BinaryOp):
            if e.op not in ("+", "-", "*"):
                return frozenset(), False
            lv, lp = self._expr_vars(e.left)
            rv, rp = self._expr_vars(e.right)
            return lv | rv, lp and rp
        if isinstance(e, UnaryOp) and e.op == "-":
            return self._expr_vars(e.operand)
        if isinstance(e, Intrinsic) and e.name in ("int", "float", "abs"):
            vs, pure = frozenset(), True
            for a in e.args:
                av, ap = self._expr_vars(a)
                vs, pure = vs | av, pure and ap
            return vs, pure
        return frozenset(), False

    def _written_vars(self, block: Block) -> frozenset:
        """Plain-local names the block (transitively) may write: assign
        targets, READ items, call copy-back args, loop indices."""
        out = set()

        def local(sym):
            if not (sym.is_const or sym.is_array or _buffer_backed(sym)):
                out.add(sym.name)

        for s in block.walk():
            if isinstance(s, AssignStmt) and isinstance(s.target, VarRef):
                local(s.target.symbol)
            elif isinstance(s, IoStmt) and s.kind == "read":
                for item in s.items:
                    if isinstance(item, VarRef):
                        local(item.symbol)
            elif isinstance(s, CallStmt):
                for a in s.args:
                    if isinstance(a, VarRef):
                        local(a.symbol)
            elif isinstance(s, LoopStmt):
                local(s.index)
        return frozenset(out)

    def _hoist(self, text: str, vars_: frozenset) -> str:
        """Loop-invariant code motion for a pure offset term: emit
        ``temp = text`` at the outermost enclosing loop none of whose
        (transitively) written variables feed the term; returns the temp
        (or ``text`` unchanged when no loop qualifies)."""
        target = None
        for scope in self._scopes:               # outermost first
            if not (vars_ & scope[2]):
                target = scope
                break
        if target is None:
            return text
        cached = target[3].get(text)
        if cached is not None:
            return cached
        name = self.tmp("_h")
        line = "    " * target[1] + f"{name} = {text}"
        pos = target[0]
        self.lines.insert(pos, line)
        for scope in self._scopes:
            if scope[0] >= pos:
                scope[0] += 1
        target[3][text] = name
        return name

    def _load(self, bufname: str, offtext: str) -> str:
        """Batch-scope CSE of element loads: repeated reads of the same
        (buffer, offset-text) within one straight-line batch reuse one
        temp; a store to the same slot forwards its value.  Ops are
        charged statically, so reuse never changes op accounting."""
        plain = f"{bufname}[{offtext}]"
        if self._cse is None or not self._batch or "_o :=" in offtext:
            return plain
        key = (bufname, offtext)
        cached = self._cse.get(key)
        if cached is not None:
            return cached
        name = self.tmp()
        self._pending.append(f"{name} = {plain}")
        self._cse[key] = name
        return name

    def _store_cse(self, meta: _Arr, offtext: str, valtext: str,
                   vtype: str) -> List[str]:
        """Emit a coerced store through the CSE layer: the stored value
        lands in a temp (forwarded to later same-slot reads) and every
        possibly-aliasing cached load is dropped."""
        val = valtext if vtype == "f" else f"float({valtext})"
        if self._red:
            return self._red_store(meta, offtext, val)
        plain = [f"{meta.buf}[{offtext}] = {val}"]
        if self._cse is None or not self._batch or "_o :=" in offtext:
            self._invalidate_store(meta, None)
            return plain
        name = self.tmp()
        self._invalidate_store(meta, (meta.buf, offtext))
        self._cse[(meta.buf, offtext)] = name
        return [f"{name} = {val}", f"{meta.buf}[{offtext}] = {name}"]

    def _invalidate_store(self, meta: _Arr, keep) -> None:
        """Drop CSE entries a store through ``meta`` may alias: same
        buffer at any other offset text, plus — since array formals can
        alias each other and any common block — everything formal-backed
        when storing anywhere, and commons when storing via a formal."""
        if self._cse is None:
            return
        via_formal = meta.formal
        for key in list(self._cse):
            bufname, _ = key
            if key == keep:
                continue
            if bufname == meta.buf \
                    or bufname.startswith("buf_") and self._is_formal(bufname) \
                    or (via_formal and bufname.startswith("_c_")):
                del self._cse[key]

    def _is_formal(self, bufname: str) -> bool:
        name = bufname[4:]
        for f in self.proc.formals:
            if f.is_array and f.name == name:
                return True
        return False

    def _invalidate_scalar(self, name: str) -> None:
        """A scalar assign changes the meaning of any cached offset text
        that mentions it."""
        if not self._cse:
            return
        import re
        pat = re.compile(rf"\bv_{re.escape(name)}\b")
        for key in list(self._cse):
            if pat.search(key[1]):
                del self._cse[key]

    # -- expressions ---------------------------------------------------------
    def expr(self, e: Expression) -> Tuple[str, int]:
        """(source text, static op count) — one op per node like the
        oracle's ``_eval``; short-circuit right branches are charged
        dynamically (via walrus on ``_o``)."""
        if isinstance(e, Const):
            return _lit(e.value), 1
        if isinstance(e, StrConst):
            return repr(e.value), 1
        if isinstance(e, VarRef):
            sym = e.symbol
            if sym.is_const:
                return _lit(sym.const_value), 1
            if _buffer_backed(sym):
                meta = self.arrays[id(sym)]
                if self._site:
                    return (f"_rd(_dd, {meta.buf}, {meta.base}, "
                            f"{self._line})"), 1
                return self._load(meta.buf, str(meta.base)), 1
            if sym.is_array:
                # the oracle resolves a bare VarRef of an array symbol
                # via frame.scalars.get(sym, 0) -> always 0
                return "0", 1
            return f"v_{sym.name}", 1
        if isinstance(e, ArrayRef):
            meta = self.arrays.get(id(e.symbol))
            if meta is None:
                raise TranspileUnsupported(
                    f"cannot transpile array ref {e.symbol.name}")
            off, n = self.offset(meta, e.indices)
            if self._site:
                return f"_rd(_dd, {meta.buf}, {off}, {self._line})", 1 + n
            return self._load(meta.buf, off), 1 + n
        if isinstance(e, BinaryOp):
            lt, ln = self.expr(e.left)
            rt, rn = self.expr(e.right)
            if e.op in ("and", "or"):
                reach = [f"(_o := _o + {rn})"]
                events = self.events((e.right,))
                if events:
                    reach.append(f"(_a := _a + {len(events)})")
                    reach += [f"_tb.__setitem__({key}, {nbytes})"
                              for key, nbytes in self._marks(events)]
                return (f"(bool({lt}) {e.op} ({', '.join(reach)}, "
                        f"bool({rt}))[{len(reach)}])"), 1 + ln
            if e.op == "/":
                return f"_div({lt}, {rt})", 1 + ln + rn
            op = _BINOPS.get(e.op)
            if op is None:
                raise TranspileUnsupported(
                    f"cannot transpile operator {e.op!r}")
            return f"({lt} {op} {rt})", 1 + ln + rn
        if isinstance(e, UnaryOp):
            t, n = self.expr(e.operand)
            if e.op == "-":
                return f"(-{t})", 1 + n
            if e.op == "not":
                return f"(not bool({t}))", 1 + n
            raise TranspileUnsupported(f"cannot transpile unary {e.op!r}")
        if isinstance(e, Intrinsic):
            return self.intrinsic(e)
        raise TranspileUnsupported(f"cannot transpile {e!r}")

    def intrinsic(self, e: Intrinsic) -> Tuple[str, int]:
        comp = [self.expr(a) for a in e.args]
        n = 1 + sum(m for _, m in comp)
        texts = [t for t, _ in comp]
        name = e.name
        if name in ("min", "max"):
            if not texts:
                raise TranspileUnsupported(f"{name} with no arguments")
            if len(texts) == 1:
                return texts[0], n
            return f"{name}({', '.join(texts)})", n
        if name == "mod":
            if len(texts) != 2:
                raise TranspileUnsupported("mod arity")
            return f"({texts[0]} % {texts[1]})", n
        if name == "sign":
            if len(texts) != 2:
                raise TranspileUnsupported("sign arity")
            return f"_sign({texts[0]}, {texts[1]})", n
        fn = _ONE_ARG.get(name)
        if fn is None or len(texts) != 1:
            raise TranspileUnsupported(
                f"cannot transpile intrinsic {name!r}")
        return f"{fn}({texts[0]})", n

    def index(self, e: Expression) -> Tuple[str, int]:
        t, n = self.expr(e)
        if self.etype(e) == "i":
            return t, n                    # int() of an int is identity
        return f"int({t})", n

    def offset(self, meta: _Arr, indices: Sequence[Expression]
               ) -> Tuple[str, int]:
        """Flat-offset text mirroring ``ArrayView.flat_index`` over the
        array's (possibly runtime) lows/strides, with constant folding
        of literal indices against constant shape metadata and
        loop-invariant terms hoisted out of enclosing loops."""
        const = meta.base if isinstance(meta.base, int) else 0
        terms: List[str] = []
        if not isinstance(meta.base, int):
            terms.append(str(meta.base))
        n = 0
        for k, e in enumerate(indices):
            it, m = self.index(e)
            n += m
            lo = meta.low(k)
            st = meta.stride(k)
            iv = _const_index(e)
            if iv is not None and isinstance(lo, int) \
                    and isinstance(st, int):
                const += (iv - lo) * st
                continue
            if isinstance(lo, int):
                if lo == 0:
                    base = it
                elif lo > 0:
                    base = f"({it} - {lo})"
                else:
                    base = f"({it} + {-lo})"
            else:
                base = f"({it} - {lo})"
            term = base if st == 1 else f"{base} * {st}"
            if self._scopes and term != it:
                vars_, pure = self._expr_vars(e)
                if pure:
                    term = self._hoist(term, vars_)
            terms.append(term)
        if not terms:
            return str(const), n
        text = " + ".join(terms)
        if const:
            text = f"{const} + {text}" if const > 0 else \
                f"{text} - {-const}"
        return text, n

    # -- statements ----------------------------------------------------------
    def block(self, b: Block) -> None:
        mark = len(self.lines)
        for s in b.statements:
            self.stmt(s)
        self.flush()
        if len(self.lines) == mark:
            self.w("pass")

    def stmt(self, s: Statement) -> None:
        if isinstance(s, (AssignStmt, IoStmt)):
            self.set_site(s)
            self._red = self.cost and s.stmt_id in self.mod.red_stmts
            self._batch = True
            lines, n = self.assign(s) if isinstance(s, AssignStmt) \
                else self.io(s)
            self._batch = False
            self._pending.extend(lines)
            self._pending_n += n
            if self.cost:
                self._pending_ev += self._stmt_events(s)
            return
        if isinstance(s, NoopStmt):
            self._pending_n += 1
            return
        self.flush()
        if isinstance(s, IfStmt):
            self.emit_if(s)
        elif isinstance(s, LoopStmt):
            self.emit_loop(s)
        elif isinstance(s, CallStmt):
            self.emit_call(s)
        elif isinstance(s, CycleStmt):
            self.charge(1)
            self.w(f"raise _Cycle({s.target_label!r})")
        elif isinstance(s, ExitStmt):
            self.charge(1)
            self.w("raise _Exit()")
        elif isinstance(s, ReturnStmt):
            self.charge(1)
            self.w("return")
        elif isinstance(s, StopStmt):
            self.charge(1)
            self.w("raise _Stop()")
        else:
            raise TranspileUnsupported(f"cannot transpile {s!r}")

    def assign(self, s: AssignStmt) -> Tuple[List[str], int]:
        vtype = self.etype(s.value)
        vt, vn = self.expr(s.value)
        t = s.target
        if isinstance(t, VarRef):
            sym = t.symbol
            if _buffer_backed(sym):
                meta = self.arrays[id(sym)]
                if self._site:
                    return self._dd_store(meta, meta.base, vt), 1 + vn
                return self._store_cse(meta, str(meta.base), vt,
                                       vtype), 1 + vn
            if sym.is_array:
                raise TranspileUnsupported(
                    f"assignment to array name {sym.name}")
            want = "i" if sym.type == INT else "f"
            coerce = "int" if sym.type == INT else "float"
            val = vt if vtype == want else f"{coerce}({vt})"
            if sym.is_const:
                # the oracle stores into frame.scalars where the const
                # shadows it forever: evaluate + coerce, visible nowhere
                return [f"{self.tmp()} = {val}"], 1 + vn
            self._invalidate_scalar(sym.name)
            return [f"v_{sym.name} = {val}"], 1 + vn
        if isinstance(t, ArrayRef):
            meta = self.arrays.get(id(t.symbol))
            if meta is None:
                raise TranspileUnsupported(
                    f"cannot transpile store to {t.symbol.name}")
            off, on = self.offset(meta, t.indices)
            if self._site:
                return self._dd_store(meta, off, vt), 1 + vn + on
            # RHS text precedes the target subscript in the emitted
            # store - oracle value-then-index order
            return self._store_cse(meta, off, vt, vtype), 1 + vn + on
        raise TranspileUnsupported(f"invalid store target {t!r}")

    def io(self, s: IoStmt) -> Tuple[List[str], int]:
        if s.kind == "print":
            lines = []
            n = 1
            for item in s.items:
                t, m = self.expr(item)
                n += m
                lines.append(f"_out.append({t})")
            return lines, n
        lines = []
        n = 1
        for item in s.items:
            if isinstance(item, VarRef):
                sym = item.symbol
                if _buffer_backed(sym):
                    meta = self.arrays[id(sym)]
                    if self._site:
                        lines += self._dd_store(meta, meta.base, "_pop(_in)")
                    else:
                        lines.extend(self._store_cse(
                            meta, str(meta.base), "_pop(_in)", "?"))
                    continue
                if sym.is_array:
                    raise TranspileUnsupported(
                        f"READ into array name {sym.name}")
                coerce = "int" if sym.type == INT else "float"
                target = self.tmp() if sym.is_const else f"v_{sym.name}"
                if not sym.is_const:
                    self._invalidate_scalar(sym.name)
                lines.append(f"{target} = {coerce}(_pop(_in))")
                continue
            if isinstance(item, ArrayRef):
                meta = self.arrays.get(id(item.symbol))
                if meta is None:
                    raise TranspileUnsupported(
                        f"READ into {item.symbol.name}")
                off, on = self.offset(meta, item.indices)
                n += on
                if self._site:
                    lines += self._dd_store(meta, off, "_pop(_in)")
                else:
                    lines.extend(self._store_cse(meta, off,
                                                 "_pop(_in)", "?"))
                continue
            raise TranspileUnsupported(f"invalid READ target {item!r}")
        return lines, n

    def emit_if(self, s: IfStmt) -> None:
        self.set_site(s)
        arms = []
        for cond, body in s.arms:
            self.set_site(s)        # bodies move the site; conds don't
            ct, cn = self.expr(cond)
            arms.append((ct, cn, body, self.events((cond,))))
        self.charge(1 + arms[0][1])
        self.touch(arms[0][3])

        def emit_arm(i: int) -> None:
            ct, _, body, _ = arms[i]
            self.w(f"if {ct}:")
            self._ind += 1
            self.block(body)
            self._ind -= 1
            rest = i + 1 < len(arms)
            if rest or s.else_block is not None:
                self.w("else:")
                self._ind += 1
                if rest:
                    # later arm conditions charge on reach, no check
                    self.w(f"_o += {arms[i + 1][1]}")
                    self.touch(arms[i + 1][3])
                    emit_arm(i + 1)
                else:
                    self.block(s.else_block)
                self._ind -= 1

        emit_arm(0)

    # -- loops ---------------------------------------------------------------
    def _index_written(self, loop: LoopStmt) -> bool:
        """Static test: can the loop body write the index variable?  If
        not, the generated loop drives ``v_<index>`` directly (no mirror
        counter, no per-iteration store)."""
        sym = loop.index
        for s in loop.body.walk():
            if isinstance(s, AssignStmt) and isinstance(s.target, VarRef) \
                    and s.target.symbol is sym:
                return True
            if isinstance(s, IoStmt) and s.kind == "read":
                for item in s.items:
                    if isinstance(item, VarRef) and item.symbol is sym:
                        return True
            if isinstance(s, CallStmt):
                for a in s.args:
                    if isinstance(a, VarRef) and a.symbol is sym:
                        return True
            if isinstance(s, LoopStmt) and s.index is sym:
                return True
        return False

    def _bound(self, e: Expression, prefix: str) -> str:
        """Loop bound: a literal when constant, otherwise an ``int()``-
        coerced temp evaluated once."""
        iv = _const_index(e)
        if iv is not None:
            return _lit(iv)
        t, _ = self.index(e)
        name = self.tmp(prefix)
        self.w(f"{name} = {t}")
        return name

    def emit_loop(self, loop: LoopStmt) -> None:
        """Charge the loop head, evaluate bounds into temps, then emit
        the ``range``-driven body with each aspect's bookkeeping."""
        self.set_site(loop)
        stmts = list(loop.body.walk())
        has_call = any(isinstance(x, CallStmt) for x in stmts)
        need_cycle = has_call or any(isinstance(x, CycleStmt)
                                     for x in stmts)
        need_exit = has_call or _has_shallow_exit(loop.body)
        # the per-iteration +1 folds into the body's first batch charge
        # only when no unwind can skip it (the oracle drops it on
        # EXIT/STOP/RETURN and on a CYCLE crossing to an outer loop)
        seed_iter = not any(
            isinstance(x, (CallStmt, ExitStmt, StopStmt, ReturnStmt,
                           CycleStmt)) for x in stmts)
        # straight-line bodies under the plain variant hoist the whole
        # per-iteration charge out of the loop: one precomputed
        # (batch + 1) * trips charge, zero accounting inside
        precharge = (not self.profile and not self.dyn and not self.cost
                     and all(isinstance(x, (AssignStmt, IoStmt, NoopStmt))
                             for x in loop.body.statements))

        sym = loop.index
        if sym.is_array:
            raise TranspileUnsupported(
                f"array symbol {sym.name} as loop index")
        # buffer-backed / const indices: the oracle's index store lands
        # in frame.scalars where reads never see it -> invisible mirror
        shadow = _buffer_backed(sym) or sym.is_const
        mirror = shadow or self._index_written(loop)

        def bound_n(e) -> int:
            return 1 if _const_index(e) is not None else self.expr(e)[1]

        head_n = 1 + bound_n(loop.low) + bound_n(loop.high)
        if loop.step is not None:
            head_n += bound_n(loop.step)
        self.charge(head_n)
        self.touch(self.events([e for e in (loop.low, loop.high, loop.step)
                                if e is not None]))

        lo_t = self._bound(loop.low, "_lo")
        hi_t = self._bound(loop.high, "_hi")
        step_const: Optional[int] = 1
        st_t = "1"
        if loop.step is not None:
            step_const = _const_index(loop.step)
            if step_const is not None:
                st_t = _lit(step_const)
            else:
                st_t = self._bound(loop.step, "_st")
                self.w(f"if {st_t} == 0:")
                self.w(f"    raise _Err({('zero step in ' + loop.name)!r})")
        if step_const == 0:
            self.w(f"raise _Err({('zero step in ' + loop.name)!r})")

        rng = self.tmp("_rng")
        if step_const is None:
            self.w(f"{rng} = range({lo_t}, {hi_t} + "
                   f"(1 if {st_t} > 0 else -1), {st_t})")
        elif step_const == 1:
            self.w(f"{rng} = range({lo_t}, {hi_t} + 1)")
        elif step_const > 0:
            self.w(f"{rng} = range({lo_t}, {hi_t} + 1, {st_t})")
        else:
            self.w(f"{rng} = range({lo_t}, {hi_t} - 1, {st_t})")

        L = None
        if self.profile or self.dyn or self.cost:
            L = self.mod.loop_index[loop.stmt_id]
        if self.profile:
            en = self.tmp("_en")
            it_acc = self.tmp("_it")
            self.w(f"{en} = _o")
        if self.dyn:
            cell = self.tmp("_e")
            self.w(f"_v = _dd.inv.get({L}, 0) + 1")
            self.w(f"_dd.inv[{L}] = _v")
            self.w(f"{cell} = [{L}, _v, 0]")
            self.w(f"_dd.stack.append({cell})")
            self.w("_dd.snap = None")
            self.w("if _w:")
            self.w("    _dd.flag = True")
        if self.cost:
            # an outermost parallel loop opens a region; ``ic`` collects
            # the op count at each of its iteration starts
            ic = self.tmp("_ic")
            self.w(f"{ic} = _cs.enter({L}, _o, _a) "
                   f"if _pf[{L}] and _cs.on is None else None")
        iv = self.tmp("_i") if mirror else f"v_{sym.name}"
        self.w(f"{iv} = {lo_t}")
        if self.profile:
            self.w(f"{it_acc} = 0")
            # first-touch registration: an iterating loop registers at
            # its first iteration (before any inner loop does); zero-trip
            # loops register in the exit finally below
            self.w(f"if {rng} and not _pn[{L}]:")
            self.w(f"    _pn[{L}] = True")
            self.w(f"    _po.append({L})")

        # on normal completion the oracle's index sits one past the last
        # iteration; a Python for leaves the final value, so fix up from
        # the O(1) range length (unwinds skip this, keeping the
        # current-iteration value exactly like the while form did)
        if step_const == 1:
            fix = f"{iv} = {lo_t} + len({rng})"
        else:
            fix = f"{iv} = {lo_t} + len({rng}) * {st_t}"

        # loop-invariant hoist scope: offset terms none of whose inputs
        # the body writes migrate to this position
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
            self.w(f"_o += {body_n + 1} * len({rng})")
            self.w("if _o > _mo:")
            self.w("    _bud(_o, _mo)")
            self.w(f"for {iv} in {rng}:")
            self._ind += 1
            if mirror and not shadow:
                self.w(f"v_{sym.name} = {iv}")
            if body_lines:
                for line in body_lines:
                    self.w(line)
            elif not (mirror and not shadow):
                self.w("pass")
            self._ind -= 1
            self.w(fix)
            if mirror and not shadow:
                self.w(f"v_{sym.name} = {iv}")
            self._scopes.pop()
            return

        fenced = need_exit or self.profile or self.dyn or self.cost \
            or mirror
        if fenced:
            self.w("try:")
            self._ind += 1
        self.w(f"for {iv} in {rng}:")
        self._ind += 1
        if mirror and not shadow:
            self.w(f"v_{sym.name} = {iv}")
        if self.profile:
            self.w(f"{it_acc} += 1")
        if self.cost:
            self.w(f"if {ic} is not None:")
            self.w(f"    {ic}.append(_o)")
        if self.dyn:
            itv = self.tmp("_c")
            self.w(f"{itv} = {cell}[2] + 1")
            self.w(f"{cell}[2] = {itv}")
            self.w("_dd.snap = None")
            self.w("if _w:")
            self.w(f"    _dd.flag = ({itv} % _w) < 2")
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
        self.w(fix)
        self._scopes.pop()
        if fenced:
            self._ind -= 1
            if need_exit:
                self.w("except _Exit:")
                self.w("    pass")
            self.w("finally:")
            self._ind += 1
            emitted = False
            if mirror and not shadow:
                self.w(f"v_{sym.name} = {iv}")
                emitted = True
            if self.profile:
                # call-site finallys already max-merged _s[0] into _o on
                # any unwind path, so _o is current here
                self.w(f"if not _pn[{L}]:")
                self.w(f"    _pn[{L}] = True")
                self.w(f"    _po.append({L})")
                self.w(f"_pt[{L}] += _o - {en}")
                self.w(f"_pv[{L}] += 1")
                self.w(f"_pi[{L}] += {it_acc}")
                emitted = True
            if self.dyn:
                self.w("_dd.stack.pop()")
                self.w(f"{cell}[2] = None")
                self.w("_dd.snap = None")
                self.w("if _w:")
                self.w("    _dd.flag = ((_dd.stack[-1][2] % _w) < 2) "
                       "if _dd.stack else True")
                emitted = True
            if self.cost:
                self.w(f"if {ic} is not None:")
                self.w(f"    _cs.exit({ic}, _o, _a)")
                emitted = True
            if not emitted:
                self.w("pass")
            self._ind -= 1

    # -- calls ---------------------------------------------------------------
    def emit_call(self, call: CallStmt) -> None:
        callee = self.program.procedures.get(call.callee)
        if callee is None:
            raise TranspileUnsupported(
                f"call to unknown procedure {call.callee}")
        self.set_site(call)
        args: List[Tuple[str, bool]] = []     # (text, hoist to temp?)
        cbs: List[str] = []
        args_n = 0
        cb_n = 0
        arg_ev: List[_Arr] = []      # cost: accesses of argument evaluation
        cb_ev: List[_Arr] = []       # cost: ... of copy-out subscripts
        for pos, (actual, formal) in enumerate(zip(call.args,
                                                   callee.formals)):
            if isinstance(actual, ArrayRef):
                meta = self.arrays.get(id(actual.symbol))
                if meta is None:
                    raise TranspileUnsupported(
                        f"unbound array {actual.symbol.name}")
                if actual.indices:
                    off, on = self.offset(meta, actual.indices)
                    args_n += on
                    arg_ev += self.events(actual.indices)
                    if formal.is_array:
                        # sequence association: a 1-D open view rooted
                        # at the element (ArrayView.subview_at)
                        args.append((f"({meta.buf}, {off}, (1,), (1,))",
                                     True))
                    else:
                        # scalar formal bound to an array element:
                        # copy-in/copy-out; the loads/stores themselves
                        # have no observer events (oracle view.load /
                        # view.store), only the index expressions do
                        args.append((f"{meta.buf}[{off}]", True))
                        cb_off, cb_on = self.offset(meta, actual.indices)
                        cb_n += cb_on
                        cb_ev += self.events(actual.indices)
                        cbs.append(f"{meta.buf}[{cb_off}] = "
                                   f"float(_r[{pos}])")
                else:
                    args.append((meta.whole(), False))
                continue
            if isinstance(actual, VarRef) and not formal.is_array:
                sym = actual.symbol
                if sym.is_const or sym.is_array:
                    # oracle: frame.scalars.get(sym, 0) -> 0, and the
                    # copy-out lands where the real storage shadows it
                    args.append(("0", False))
                elif _buffer_backed(sym):
                    # COMMON scalar: copy-in/copy-out through its buffer
                    # cell, event-free like an array-element actual
                    meta = self.arrays[id(sym)]
                    cell = f"{meta.buf}[{meta.base}]"
                    args.append((cell, True))
                    cbs.append(f"{cell} = float(_r[{pos}])")
                else:
                    coerce = "int" if sym.type == INT else "float"
                    args.append((f"v_{sym.name}", False))
                    cbs.append(f"v_{sym.name} = {coerce}(_r[{pos}])")
                continue
            if formal.is_array:
                # the oracle would bind a scalar and raise "array formal
                # not bound" at frame setup — degenerate, not mirrored
                raise TranspileUnsupported(
                    f"non-array actual for array formal {formal.name} "
                    f"of {call.callee}")
            t, n = self.expr(actual)
            args_n += n
            arg_ev += self.events((actual,))
            args.append((t, True))
        for pos in range(len(call.args), len(callee.formals)):
            args.append(("None" if callee.formals[pos].is_array else "0",
                         False))

        self.charge(1)
        if args_n:
            self.w(f"_o += {args_n}")
        self.touch(arg_ev)
        final = []
        for text, hoist in args:
            if hoist:
                # side-effecting argument expressions (charges via
                # walrus, dyndep events) must run before _s[0] publishes
                name = self.tmp("_a")
                self.w(f"{name} = {text}")
                final.append(name)
            else:
                final.append(text)
        self.w("_s[0] = _o")
        if self.cost:
            self.w("_s[2] = _a")
        arglist = ", ".join(final + ["_cm", "_out", "_in", "_s", "_mo"])
        self.w("try:")
        self.w(f"    p_{call.callee}({arglist}{self.mod.extra_args})")
        self.w("finally:")
        self._ind += 1
        # max-merge so caught unwinds (CYCLE/EXIT crossing the call)
        # leave the local counter in sync with the shared cell
        self.w("if _s[0] > _o:")
        self.w("    _o = _s[0]")
        if self.cost:
            self.w("if _s[2] > _a:")
            self.w("    _a = _s[2]")
        if cbs:
            # _s[1] stays None when the callee died during frame setup;
            # the oracle skips copy-out (and its charge) in that case
            self.w("_r = _s[1]")
            self.w("if _r is not None:")
            self._ind += 1
            if cb_n:
                self.w(f"_o += {cb_n}")
            self.touch(cb_ev)
            for line in cbs:
                self.w(line)
            self._ind -= 1
        self._ind -= 1

    # -- procedure -----------------------------------------------------------
    def emit(self) -> List[str]:
        proc = self.proc
        params = [(f"a_{f.name}" if f.is_array else f"v_{f.name}")
                  for f in proc.formals]
        params += ["_cm", "_out", "_in", "_s", "_mo"]
        sig = ", ".join(params) + self.mod.extra_args
        self.w(f"def p_{proc.name}({sig}):")
        self._ind += 1
        self.w("_o = _s[0]")
        self.w("_s[1] = None")
        if self.cost:
            self.w("_a = _s[2]")
            self.w("_tb = _cs.tb")
        self.w("try:")
        self._ind += 1

        # formal arrays: unpack the caller's view 4-tuple; the unbound
        # check (for call sites that under-pass) mirrors frame setup
        for pos, f in enumerate(proc.formals):
            if not f.is_array:
                continue
            if self.mod.may_underpass(proc.name, pos):
                msg = f"array formal {f.name} of {proc.name} not bound"
                self.w(f"if a_{f.name} is None:")
                self.w(f"    raise _Err({msg!r})")
            self.w(f"buf_{f.name}, off_{f.name}, lo_{f.name}, "
                   f"st_{f.name} = a_{f.name}")
            meta = self.arrays[id(f)] = _Arr(
                f"buf_{f.name}", f"off_{f.name}", None, None, True, f.name)
            meta.key, meta.nbytes = f"_k_{f.name}", f"_z_{f.name}"
        keys_at = len(self.lines)

        # common blocks: hoist each flat list once per frame
        hoisted = set()
        common_arrays = []
        for block_name in proc.common_blocks:
            if block_name not in hoisted:
                hoisted.add(block_name)
                self.w(f"_c_{block_name} = _cm[{block_name!r}]")
            view = self.program.commons[block_name].views[proc.name]
            for sym in view.symbols:
                if sym.is_array:
                    common_arrays.append((block_name, sym))
                else:
                    self._bind_common(sym, block_name, [1], [1])

        # local scalars first: frame slots default to 0, and dimension
        # expressions may (degenerately) read them
        local_arrays = []
        for sym in proc.symbols:
            if sym.is_const or sym.is_formal or sym.is_common \
                    or id(sym) in self.arrays:
                continue
            if sym.is_array:
                local_arrays.append(sym)
            elif sym.type == INT or id(sym) in self._loop_syms:
                self.w(f"v_{sym.name} = 0")
            else:
                # float seed keeps the 'f' inference sound (== 0, so
                # printed read-before-write values still compare equal)
                self.w(f"v_{sym.name} = 0.0")

        # frame-setup op charge: statically summed dimension-expression
        # costs, charged before any dimension runs (no budget check)
        bounds = [b for sym in [s for _, s in common_arrays] + local_arrays
                  for d in sym.dims for b in (d.low, d.high)
                  if b is not None]
        setup = sum(self.expr(b)[1] for b in bounds)
        if setup:
            self.w(f"_o += {setup}")
        self.touch(self.events(bounds))

        # dimension expressions are dyndep-instrumented like any other
        # read (the oracle evaluates them in ``_make_frame``), line 0
        if self.dyn:
            self._site, self._line = True, 0

        for block_name, sym in common_arrays:
            lows, strides, _ = self._emit_shape(sym, local=False)
            self._bind_common(sym, block_name, lows, strides)
        for sym in local_arrays:
            meta = self.arrays[id(sym)] = _Arr(f"buf_{sym.name}", 0, [1],
                                               [1], False, sym.name)
            meta.key = repr(f"{proc.name}::{sym.name}")
            if any(d.high is None for d in sym.dims):
                msg = f"local array {sym.name} has assumed size"
                self.w(f"raise _Err({msg!r})")
                # codegen must still complete for the (unreachable) body
                continue
            meta.lows, meta.strides, size = self._emit_shape(sym, local=True)
            meta.nbytes = str(size * 8) if isinstance(size, int) \
                else f"{size} * 8"
            # array formals resolve their backing buffer's name by id
            if self.dyn:
                self.w(f"_dd.names[id(buf_{sym.name})] = {meta.key}")
            if self.cost:
                self.w(f"_cs.nm[id(buf_{sym.name})] = {meta.key}")
        if not self.is_main:
            self.w("_o += 5")
        if self.dyn:
            self.w("_w = _dd.window")

        self.w("try:")
        self._ind += 1
        self.block(proc.body)
        self._ind -= 1
        # cost: resolve the backing buffer's name and size, once per
        # frame, for just the array formals this body accesses
        for name in sorted(self._keyed, reverse=True):
            self.lines.insert(keys_at, "    " * self._ind +
                              f"_z_{name} = len(buf_{name}) * 8")
            self.lines.insert(keys_at, "    " * self._ind +
                              f"_k_{name} = _cs.nm[id(buf_{name})]")
        self.w("finally:")
        self._ind += 1
        # copy-out source for the caller: final scalar-formal values.
        # Runs on every unwind once frame setup succeeded (the oracle
        # performs copy-outs even when the body raised).
        formals_t = ", ".join(
            ("None" if f.is_array else f"v_{f.name}")
            for f in proc.formals)
        if len(proc.formals) == 1:
            formals_t += ","
        self.w(f"_s[1] = ({formals_t})")
        self._ind -= 2
        self.w("finally:")
        self._ind += 1
        self.w("if _o > _s[0]:")
        self.w("    _s[0] = _o")
        if self.cost:
            self.w("if _a > _s[2]:")
            self.w("    _s[2] = _a")
        self._ind -= 2
        return self.lines

    def _bind_common(self, sym: Symbol, block_name: str, lows: List,
                     strides: List) -> None:
        meta = self.arrays[id(sym)] = _Arr(
            f"_c_{block_name}", sym.common_offset, lows, strides, False,
            sym.name)
        meta.key = repr(f"/{block_name}/")
        meta.nbytes = str(self.program.commons[block_name].size * 8)

    def _emit_shape(self, sym: Symbol, local: bool
                    ) -> Tuple[List, List, object]:
        """Evaluate one array's declared shape at frame time (lows,
        strides, element count and — for locals — the backing list),
        folding constant dimensions into codegen-time ints."""
        lows: List = []
        extents: List = []
        for d in sym.dims:
            lo = _const_index(d.low)
            if lo is None:
                t, _ = self.index(d.low)
                lo = self.tmp("_d")
                self.w(f"{lo} = {t}")
            if d.high is None:
                lows.append(lo)
                extents.append(None)
                continue
            hi = _const_index(d.high)
            if hi is None:
                t, _ = self.index(d.high)
                hi = self.tmp("_d")
                self.w(f"{hi} = {t}")
            if isinstance(lo, int) and isinstance(hi, int):
                extents.append(hi - lo + 1)
            else:
                ext = self.tmp("_d")
                self.w(f"{ext} = {hi} - {lo} + 1")
                extents.append(ext)
            lows.append(lo)
        strides: List = []
        acc: object = 1
        for ext in extents:
            strides.append(acc)
            if ext is None:
                continue
            if isinstance(acc, int) and isinstance(ext, int):
                acc = acc * ext
            else:
                nxt = self.tmp("_d")
                self.w(f"{nxt} = {acc} * {ext}")
                acc = nxt
        if local:
            self.w(f"buf_{sym.name} = [0.0] * {acc}")
        return lows, strides, acc


class _ModuleEmitter:
    """Emits one whole program for one set of instrumentation aspects."""

    def __init__(self, program: Program, variant: str, skip_ids=()):
        # canonical spellings only: the label is a cache key
        self.aspects = aspects = (() if variant == VARIANT_PLAIN
                                  else tuple(variant.split("+")))
        if aspects != tuple(a for a in _ASPECTS if a in aspects):
            raise TranspileUnsupported(f"unknown variant {variant!r}")
        if program.main is None:
            raise ValueError("program has no PROGRAM unit")
        self.program = program
        self.variant = variant
        self.skip = frozenset(skip_ids or ())
        self.loop_index = {loop.stmt_id: i
                           for i, loop in enumerate(loop_table(program))}
        self.extra_args = "".join(_EXTRA_ARGS[a] for a in self.aspects)
        if VARIANT_COST in self.aspects:
            # a function of the program alone, like everything else the
            # module bakes in: the plan's parallel set arrives as ``_pf``
            from .dyndep import reduction_stmt_ids
            self.red_stmts = reduction_stmt_ids(program)
        # minimum positional arity seen per callee: array formals at or
        # past it need the unbound-None guard
        self._min_args: Dict[str, int] = {}
        for proc in program.procedures.values():
            for s in proc.body.walk():
                if isinstance(s, CallStmt):
                    prev = self._min_args.get(s.callee)
                    if prev is None or len(s.args) < prev:
                        self._min_args[s.callee] = len(s.args)

    def may_underpass(self, proc_name: str, pos: int) -> bool:
        least = self._min_args.get(proc_name)
        return least is not None and least <= pos

    def emit(self) -> str:
        program = self.program
        parts = [
            f'"""Transpiled from {program.name!r} '
            f'(variant={self.variant}, codegen v{CODEGEN_VERSION}).\n'
            'Generated by repro.runtime.transpile - do not edit."""',
            "",
            _PREAMBLE,
        ]
        if VARIANT_DYNDEP in self.aspects:
            parts.append(_DD_PREAMBLE)
        parts.append(f"\n_NLOOPS = {len(self.loop_index)}\n")
        for name in sorted(program.procedures):
            emitter = _ProcEmitter(self, program.procedures[name])
            parts.append("\n")
            parts.extend(emitter.emit())
        if self.variant == VARIANT_PLAIN:
            commons = ", ".join(
                f"{name!r}: [0.0] * {block.size}"
                for name, block in program.commons.items())
            parts.extend([
                "\n",
                f"def run(inputs=(), max_ops={_DEFAULT_MAX_OPS}):",
                f"    _cm = {{{commons}}}",
                "    _out = []",
                "    _in = list(inputs)",
                "    _s = [0, None]",
                "    try:",
                f"        p_{program.main}(_cm, _out, _in, _s, max_ops)",
                "    except _Stop:",
                "        pass",
                "    return _out",
            ])
        return "\n".join(parts) + "\n"


def transpile_to_python(program: Program, variant: str = VARIANT_PLAIN,
                        skip_stmt_ids=()) -> str:
    """Generate a self-contained Python module for ``program``.

    ``variant`` names the instrumentation baked into the source
    (:data:`VARIANT_PLAIN`, or any of :data:`VARIANT_PROFILE` /
    :data:`VARIANT_DYNDEP` / :data:`VARIANT_COST` joined by ``+``);
    ``skip_stmt_ids`` is the dyndep reduction/induction skip set,
    compiled to accesses that aspect does not see.  Raises
    :class:`TranspileUnsupported` for programs the
    generator cannot express (the engine falls back to the oracle)."""
    return _ModuleEmitter(program, variant, skip_stmt_ids).emit()


# ---------------------------------------------------------------------------
# module cache
# ---------------------------------------------------------------------------

class TranspiledModule:
    """One generated module, exec'd and engine-ready."""

    __slots__ = ("source", "namespace", "nloops")

    def __init__(self, source: str, namespace: Dict, nloops: int):
        self.source = source
        self.namespace = namespace
        self.nloops = nloops


_UNSUPPORTED = object()          # negative-cache sentinel

#: One interactive session's worth of modules: two programs (before and
#: after an edit) x the variants it asks for (``plain``, the fused
#: ``profile+dyndep+cost``, ``cost`` alone after a re-plan) and one to
#: spare.  Repeated ``apply_assertions`` re-plans hit it; across service
#: jobs identical requests are served by the artifact store, never from
#: here.
_MEMO_CAP = 8
_lock = threading.Lock()
_memo: "OrderedDict[tuple, object]" = OrderedDict()
_counters = {"hit": 0, "miss": 0}
_codegen_store = None


def set_codegen_store(store) -> None:
    """Install a persistent cache (an
    :class:`~repro.service.artifacts.ArtifactStore`) for generated
    module source.  Keys combine the program source hash, variant, skip
    signature, and :data:`CODEGEN_VERSION`, so a stale entry can never
    be served.  Pass ``None`` to disable."""
    global _codegen_store
    with _lock:
        _codegen_store = store


def codegen_cache_stats() -> Dict[str, int]:
    """Monotonic counters: ``hit`` (codegen skipped — in-process memo
    or persistent store) and ``miss`` (source freshly generated)."""
    with _lock:
        return dict(_counters)


def reset_codegen_cache() -> None:
    """Drop the in-process memo and zero the counters (for tests)."""
    with _lock:
        _memo.clear()
        _counters["hit"] = 0
        _counters["miss"] = 0


def _raise_budget(ops, mo):
    raise budget_error(ops, mo)


def _exec_module(source: str, program: Program) -> TranspiledModule:
    ns: Dict = {}
    exec(compile(source, f"<transpiled:{program.name}>", "exec"), ns)
    # swap the module's self-contained error/budget shims for the
    # runtime's real types so both engines raise identically
    ns["_Err"] = RuntimeErrorInProgram
    ns["_bud"] = _raise_budget
    return TranspiledModule(source, ns, int(ns.get("_NLOOPS", 0)))


def _cache_key(program: Program, variant: str,
               skip_ids) -> Optional[tuple]:
    src = program.source_text or ""
    if not src or program.transformed:
        return None                      # no stable identity: no caching
    digest = hashlib.sha256(src.encode("utf-8")).hexdigest()
    return (digest, variant, _skip_signature(program, skip_ids),
            CODEGEN_VERSION)


def _store_key(key: tuple) -> str:
    from ..service.artifacts import canonical_json
    payload = canonical_json({"src": key[0], "variant": key[1],
                              "skip": list(key[2]), "codegen": key[3]})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _remember(key: tuple, value) -> None:
    with _lock:
        _memo[key] = value
        _memo.move_to_end(key)
        while len(_memo) > _MEMO_CAP:
            _memo.popitem(last=False)


def load_module(program: Program, variant: str = VARIANT_PLAIN,
                skip_ids=()) -> TranspiledModule:
    """Generated module for ``(program, variant, skip set)`` via the
    in-process memo, then the persistent store, then fresh codegen."""
    key = _cache_key(program, variant, skip_ids)
    if key is not None:
        with _lock:
            cached = _memo.get(key)
            if cached is not None:
                _memo.move_to_end(key)
                _counters["hit"] += 1
            store = _codegen_store
        if cached is _UNSUPPORTED:
            raise TranspileUnsupported(
                f"cannot transpile {program.name} (cached verdict)")
        if cached is not None:
            return cached
        if store is not None:
            art = store.get(_store_key(key))
            if art is not None and isinstance(art.get("source"), str):
                mod = _exec_module(art["source"], program)
                with _lock:
                    _counters["hit"] += 1
                _remember(key, mod)
                return mod
    with _lock:
        _counters["miss"] += 1
    try:
        source = transpile_to_python(program, variant, skip_ids)
    except TranspileUnsupported:
        if key is not None:
            _remember(key, _UNSUPPORTED)
        raise
    mod = _exec_module(source, program)
    if key is not None:
        _remember(key, mod)
        with _lock:
            store = _codegen_store
        if store is not None:
            store.put(_store_key(key), {"source": source})
    return mod


def compile_program(program: Program):
    """Transpile (once) and return the module-level ``run(inputs,
    max_ops)`` callable.  Memoized on the program's source hash: repeat
    calls for an unchanged program skip codegen and re-``exec``."""
    return load_module(program, VARIANT_PLAIN).namespace["run"]


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class _CostRun:
    """Run-time state of one ``cost``-variant execution (``_cs`` in the
    generated code): the open region, the touched-buffer marks, the
    buffer-name registry for array formals, and the closed regions."""

    __slots__ = ("on", "tb", "nm", "regions", "_en", "_a0", "_red", "_rt")

    def __init__(self):
        self.on: Optional[int] = None        # dense id of the open region
        self.tb: Dict[str, int] = {}         # buffer name -> bytes
        self.nm: Dict[int, str] = {}         # id(backing list) -> name
        self.regions: List[tuple] = []

    def enter(self, lid: int, ops: int, accesses: int) -> List[int]:
        self.on, self._en, self._a0 = lid, ops, accesses
        self.tb.clear()
        self._red, self._rt = 0, set()
        return []

    def rw(self, key: str, offset: int) -> None:
        """A store inside a reduction statement."""
        if self.on is not None:
            self._red += 1
            self._rt.add((key, offset))

    def exit(self, starts: List[int], ops: int, accesses: int) -> None:
        costs = [b - a for a, b in zip(starts, starts[1:] + [ops])]
        self.regions.append((self.on, ops - self._en, costs, dict(self.tb),
                             accesses - self._a0, self._red, self._rt))
        self.on = None


class TranspiledEngine:
    """Drop-in engine running generated Python.  Same constructor and
    public attributes as :class:`Interpreter`; observer support is
    narrower by design — at most one fresh observer of each exact type
    a codegen aspect reproduces (``LoopProfiler``,
    ``DynamicDependenceAnalyzer``, ``ParallelExecutor``).
    Everything else runs on the tree oracle through the
    ``Observer`` protocol; ``label`` then reads ``"tree"`` and
    ``fallback`` says why."""

    __slots__ = ("program", "inputs", "observers", "_ops", "max_ops",
                 "outputs", "_current_stmt", "commons", "label",
                 "fallback", "_delegate")

    def __init__(self, program: Program, inputs: Sequence[float] = (),
                 observers: Sequence = (),
                 max_ops: int = _DEFAULT_MAX_OPS):
        self.program = program
        self.inputs = list(inputs)
        self.observers = list(observers)
        self._delegate = None
        self.ops = 0
        self.max_ops = max_ops
        self.outputs: List = []
        self.current_stmt: Optional[Statement] = None
        self.commons: Dict[str, Buffer] = {}
        self.label: Optional[str] = None
        self.fallback: Optional[str] = None
        for name, block in program.commons.items():
            self.commons[name] = Buffer(f"/{name}/", block.size)

    # Observers attached to *this* engine read ``.ops`` /
    # ``.current_stmt`` mid-run (the profiler computes per-loop op
    # deltas from them), so during a fallback these must be live views
    # of the delegate, not stale snapshots mirrored after the fact.
    @property
    def ops(self) -> int:
        d = self._delegate
        return d.ops if d is not None else self._ops

    @ops.setter
    def ops(self, value: int) -> None:
        self._ops = value

    @property
    def current_stmt(self):
        d = self._delegate
        return d.current_stmt if d is not None else self._current_stmt

    @current_stmt.setter
    def current_stmt(self, value) -> None:
        self._current_stmt = value

    def _select(self):
        """``(variant, {aspect: observer}, None)`` or ``(None, None, why)``.

        An aspect reproduces one observer of the *exact* type (a
        subclass may override behaviour) that is *fresh* — state from
        an earlier run must keep accumulating through the callbacks."""
        from .dyndep import DynamicDependenceAnalyzer
        from .parallel_exec import ParallelExecutor
        from .profiler import LoopProfiler
        found: Dict[str, object] = {}
        for obs in self.observers:
            t = type(obs)
            if t is LoopProfiler:
                aspect, used = VARIANT_PROFILE, obs.profiles or obs._stack
            elif t is DynamicDependenceAnalyzer:
                aspect = VARIANT_DYNDEP
                used = (obs.carried or obs.carried_by_var or obs.witnesses
                        or obs._last_write or obs._stack or obs._invocations
                        or obs.sampled_accesses or obs.skipped_accesses)
            elif t is ParallelExecutor:
                aspect, used = VARIANT_COST, obs.regions or obs._active
            else:
                return None, None, "observer-type"
            if aspect in found:
                return None, None, "multiple-observers"
            if used:
                return None, None, "stale-observer"
            found[aspect] = obs
        variant = "+".join(a for a in _ASPECTS if a in found)
        return variant or VARIANT_PLAIN, found, None

    def run(self) -> "TranspiledEngine":
        from ..obs import get_tracer
        if self.program.main is None:
            raise ValueError("program has no PROGRAM unit")
        variant, found, reason = self._select()
        if variant is None:
            return self._run_fallback(reason)
        dyn = found.get(VARIANT_DYNDEP)
        skip = dyn.skip_stmt_ids if dyn is not None else ()
        tracer = get_tracer()
        before = codegen_cache_stats()["miss"]
        try:
            with tracer.span("codegen", engine="transpiled",
                             variant=variant) as cg:
                mod = load_module(self.program, variant, skip)
                cg.tag(cached=codegen_cache_stats()["miss"] == before)
        except TranspileUnsupported as exc:
            return self._run_fallback(f"unsupported:{exc}")
        self.label = f"transpiled/{variant}"
        with tracer.span("execute", engine="transpiled",
                         program=self.program.name) as sp:
            self._execute(mod, found)
            sp.tag(ops=self.ops, variant=variant)
        return self

    def _run_fallback(self, reason: str) -> "TranspiledEngine":
        """Observer configuration or program shape the generator can't
        express: delegate to the tree oracle and mirror its results, so
        callers — profilers, the parallel executor, sessions — keep
        seeing one engine object."""
        delegate = Interpreter(self.program, self.inputs, self.observers,
                               self.max_ops)
        delegate.fallback = self.fallback = reason
        self._delegate = delegate
        try:
            delegate.run()
        finally:
            self._delegate = None
            self.ops = delegate.ops
            self.outputs = delegate.outputs
            self.commons = delegate.commons
            self.current_stmt = delegate.current_stmt
            self.label = delegate.label
        return self

    # -- execution -----------------------------------------------------------
    def _execute(self, mod: TranspiledModule, found: Dict) -> None:
        ns = mod.namespace
        program = self.program
        cm = {name: [0.0] * block.size
              for name, block in program.commons.items()}
        out: List = []
        inp = list(self.inputs)
        s: List = [0, None, 0]           # ops, copy-out tuple, accesses
        prof, dyn, cost = (found.get(a) for a in _ASPECTS)
        extra: List = []                 # in _EXTRA_ARGS order
        if prof is not None:
            nl = mod.nloops
            counts = ([0] * nl, [0] * nl, [0] * nl, [False] * nl, [])
            extra += counts
        if dyn is not None:
            from .dyndep import _MAX_WITNESSES
            stride = max(1, int(dyn.sample_stride))
            dd = ns["_DD"](0 if stride == 1 else 2 * stride,
                           _MAX_WITNESSES)
            for name, lst in cm.items():
                dd.names[id(lst)] = f"/{name}/"
            extra.append(dd)
        if cost is not None:
            regions = _CostRun()
            for name, lst in cm.items():
                regions.nm[id(lst)] = f"/{name}/"
            parallel = cost._parallel_ids
            extra += [[loop.stmt_id in parallel
                       for loop in loop_table(program)], regions]
        entry = ns[f"p_{program.main}"]
        stop = ns["_Stop"]
        try:
            try:
                entry(cm, out, inp, s, self.max_ops, *extra)
            except stop:
                pass
        finally:
            # deliver results even on abnormal unwinds (budget aborts,
            # program errors) — oracle observers hold partial data too
            self.ops = s[0]
            self.outputs = out
            for name, buf in self.commons.items():
                buf.data[:] = cm[name]
            if prof is not None:
                self._fill_profile(prof, counts)
            if dyn is not None:
                self._fill_dyndep(dyn, dd)
            if cost is not None:
                self._fill_cost(cost, regions)

    def _fill_cost(self, obs, run: _CostRun) -> None:
        from .parallel_exec import RegionStats
        loops = loop_table(self.program)
        for (lid, seq_ops, costs, buffers, accesses, red,
             touched) in run.regions:
            region = RegionStats(loops[lid], seq_ops)
            region.iter_costs = costs
            region.buffers = buffers
            region.accesses = accesses
            region.red_updates = red
            region.red_touched = touched
            obs.regions.append(region)

    def _fill_profile(self, obs, state) -> None:
        from .profiler import LoopProfile
        total, inv, iters, _seen, order = state
        loops = loop_table(self.program)
        profiles = obs.profiles
        for i in order:
            loop = loops[i]
            prof = profiles.get(loop.stmt_id)
            if prof is None:
                prof = LoopProfile(loop)
                profiles[loop.stmt_id] = prof
            prof.total_ops += total[i]
            prof.invocations += inv[i]
            prof.iterations += iters[i]

    def _fill_dyndep(self, obs, dd) -> None:
        sid = [loop.stmt_id for loop in loop_table(self.program)]
        obs.sampled_accesses += dd.sampled
        obs.skipped_accesses += dd.skipped
        for lid, n in dd.carried.items():
            key = sid[lid]
            obs.carried[key] = obs.carried.get(key, 0) + n
        for (lid, bname), n in dd.by_var.items():
            vkey = (sid[lid], bname)
            obs.carried_by_var[vkey] = \
                obs.carried_by_var.get(vkey, 0) + n
        maxw = dd.maxw
        for lid, pairs in dd.wit.items():
            dst = obs.witnesses.setdefault(sid[lid], [])
            for pair in pairs:
                if pair not in dst and len(dst) < maxw:
                    dst.append(pair)
        # the shadow stays behind: every loop has exited and
        # ``_invocations`` carries on, so no later activation matches it
        obs._invocations.update(
            {sid[lid]: n for lid, n in dd.inv.items()})
