"""Data decomposition support: COMMON-block live-range splitting
(paper section 5.5).

"A common block variable in the Fortran program may have different shapes.
The aliases among different shapes often result in false interferences.
Liveness analysis can eliminate such interference and allow the data
decomposition algorithm to obtain better results.  Specifically, we use
the liveness information to split up the Fortran common block variable
into disjoint variables."

Detection (the paper's criterion): the live ranges of two overlapping
members are disjoint if no code region writes into their overlap and
leaves that data live at the region's end.  When every overlapping pair of
a block is splittable, the block's views can be separated into per-shape
blocks; the transform below rewrites the IR accordingly (each view gets
its own storage), which shrinks the runtime footprint of loops touching
only one live range — the mechanism for the Fig 5-10 speedups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.access import LocKey
from ..analysis.liveness import ArrayLiveness, LivenessResult
from ..analysis.region_analysis import ArrayDataFlow
from ..ir.program import Program
from ..ir.symbols import CommonBlock, CommonView, Symbol
from ..poly import Constraint, LinExpr, Section, System, dim


class SplitReport:
    def __init__(self):
        # block -> list of (member_a, member_b) pairs proven disjoint
        self.splittable_pairs: Dict[str, List[Tuple[str, str]]] = {}
        self.split_blocks: List[str] = []

    def total_splits(self) -> int:
        return len(self.split_blocks)


def _member_span(sym: Symbol) -> Section:
    lo = sym.common_offset
    hi = lo + (sym.constant_size() or 1) - 1
    v = LinExpr.var(dim(0))
    return Section([System([Constraint.ge(v, LinExpr.constant(lo)),
                            Constraint.le(v, LinExpr.constant(hi))])])


def view_signature(program: Program, sym: Symbol) -> Tuple:
    """The shape signature of the COMMON view ``sym`` belongs to — procs
    declaring identical member layouts share a signature (and a live
    range, if the analysis proves the ranges disjoint)."""
    view = program.commons[sym.common_block].views[sym.proc_name]
    return tuple((m.name, m.common_offset, m.constant_size())
                 for m in view.symbols)


def attributed_key_fn(program: Program):
    """A location-key function that keeps each view of a COMMON block as a
    separate abstract location, attributing every access to the shape it
    went through."""
    def key_fn(sym: Symbol):
        from ..analysis.access import location_key
        if sym.is_common:
            return ("cm", sym.common_block, view_signature(program, sym))
        return location_key(sym)
    return key_fn


def find_splittable_blocks(program: Program,
                           dataflow: Optional[ArrayDataFlow] = None,
                           liveness: Optional[LivenessResult] = None
                           ) -> SplitReport:
    """Identify COMMON blocks whose differently-shaped views have provably
    disjoint live ranges (the paper's section 5.5 criterion).

    Runs a *view-attributed* data-flow + liveness pass: each view is its
    own location, so "data written through view A is exposed to a read
    through view B after region r" is a direct sections query:
    ``W_A(r) ∩ E_B(after r) ∩ overlap``.  Any such flow, in either
    direction, forbids the split.  (The passed-in dataflow/liveness are
    ignored; the attributed pass is built here.)"""
    from ..analysis.liveness import ArrayLiveness
    adf = ArrayDataFlow(program, key_fn=attributed_key_fn(program))
    alv = ArrayLiveness(adf, "full")
    report = SplitReport()
    for bname, block in program.commons.items():
        pairs = [(a, b) for a, b in block.overlapping_pairs()
                 if _shapes_differ(a, b)]
        if not pairs:
            continue
        ok_pairs: List[Tuple[str, str]] = []
        all_ok = True
        checked = set()
        for a, b in pairs:
            sig_pair = frozenset((view_signature(program, a),
                                  view_signature(program, b)))
            if sig_pair in checked:
                continue
            checked.add(sig_pair)
            overlap = _member_span(a).intersect(_member_span(b))
            key_a = ("cm", bname, view_signature(program, a))
            key_b = ("cm", bname, view_signature(program, b))
            if _cross_flow(adf, alv, key_a, key_b, overlap) or \
                    _cross_flow(adf, alv, key_b, key_a, overlap):
                all_ok = False
            else:
                ok_pairs.append((f"{a.proc_name}::{a.name}",
                                 f"{b.proc_name}::{b.name}"))
        if ok_pairs:
            report.splittable_pairs[bname] = ok_pairs
        if all_ok and ok_pairs:
            report.split_blocks.append(bname)
    return report


def _shapes_differ(a: Symbol, b: Symbol) -> bool:
    if a.rank != b.rank:
        return True
    for da, db in zip(a.dims, b.dims):
        if da.constant_extent() != db.constant_extent():
            return True
    return False


def _cross_flow(dataflow: ArrayDataFlow, liveness, key_a, key_b,
                overlap: Section) -> bool:
    """Is data written through view A in some loop region still exposed to
    view-B reads after that region (within the storage overlap)?"""
    for loop_id, loop_sum in dataflow.loop_summary.items():
        vs_a = loop_sum.vars.get(key_a)
        if vs_a is None or not vs_a.writes_anything():
            continue
        after = liveness.result.exposed_after.get(loop_id)
        if after is None:
            continue
        exposed_b = after.get(key_b).exposed
        if exposed_b.is_empty():
            continue
        written = vs_a.may_write.union(vs_a.reduction_region())
        if not written.intersect(exposed_b).intersect(overlap).is_empty():
            return True
    return False


def split_common_blocks(program: Program, blocks: List[str]) -> None:
    """Give each procedure view of the named blocks its own storage by
    renaming the block per view shape.  Views with identical member
    layouts keep sharing (they are the same live range)."""
    for bname in blocks:
        block = program.commons.get(bname)
        if block is None:
            continue
        groups: Dict[Tuple, List[CommonView]] = {}
        for view in block.views.values():
            sig = tuple((s.name, s.constant_size()) for s in view.symbols)
            groups.setdefault(sig, []).append(view)
        if len(groups) <= 1:
            continue
        program.transformed = True
        del program.commons[bname]
        for k, (sig, views) in enumerate(sorted(groups.items(),
                                                key=lambda kv: kv[0])):
            new_name = f"{bname}_{k}"
            new_block = CommonBlock(new_name)
            for view in views:
                for sym in view.symbols:
                    sym.common_block = new_name
                new_block.add_view(view)
                proc = program.procedures[view.proc_name]
                proc.common_blocks[:] = [new_name if b == bname else b
                                         for b in proc.common_blocks]
            program.commons[new_name] = new_block


def split_pass(program: Program) -> SplitReport:
    """Analyze + split in one call; re-analyze the program afterwards."""
    report = find_splittable_blocks(program)
    split_common_blocks(program, report.split_blocks)
    return report
