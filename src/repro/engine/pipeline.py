"""Fused scan pipelines with morsel-driven parallelism (DESIGN.md S51).

The operator-at-a-time path in :mod:`repro.engine.executor` materializes
a full intermediate :class:`~repro.planner.expressions.Frame` between
scan, filter, project and partial-aggregate for every block — every read
column (predicate-only columns included) is gathered through the
selection mask before the payload projection throws most of it away.

A :class:`FusedPipeline` compiles one scan task into a single pass per
column batch:

* the SmartIndex / B+ tree probe runs once per block on the driving
  thread (it is block-granular by construction);
* each needed column chunk is decoded exactly once and sliced per
  morsel — no per-operator copies;
* selection stays a lazy mask until the gather step, which touches only
  the *payload* columns of *matching* rows (one ``flatnonzero`` per
  morsel instead of one boolean-mask pass per read column);
* partial-aggregate accumulators are updated in place through the
  existing reduceat kernels and merged with the existing
  :meth:`~repro.engine.aggregates.GroupedPartial.merge` path.

The driver splits the block's row range into ~64K-row morsels and runs
them on a shared :class:`~concurrent.futures.ThreadPoolExecutor` (numpy
comparison/gather kernels release the GIL; ``CONTAINS`` predicates run
a Python-level substring loop and stay GIL-bound — see docs/API.md).
Pool size comes from ``LeafConfig.worker_threads`` (0 = ``os.cpu_count()``).

Byte-identity contract (enforced by the differential suite): with the
flag on, every :class:`~repro.engine.executor.TaskResult` — rows, bytes,
partial states *and* the cost-accounting report driving the simulated
clock — is identical to the unfused path.  Two mechanisms guarantee it:

1. Morsel-local partial aggregation is used only when every aggregate
   merges without floating-point reassociation (``COUNT`` always;
   ``SUM``/``MIN``/``MAX`` over integer arguments).  Float ``SUM`` /
   ``AVG`` sum in morsel order, which differs from one whole-block
   ``reduceat`` in the last ulps — those plans (and anything with joins
   or a post-join filter) instead concatenate the gathered morsels in
   block-row order and run the single-pass tail, which is the unfused
   code operating on a bit-identical frame.
2. Cost accounting is computed centrally from whole-block row counts
   with the exact formulas of the unfused path, never accumulated from
   per-morsel execution, so simulated-clock charges cannot drift.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.schema import DataType
from repro.engine import executor as _exec
from repro.engine.aggregates import GroupedPartial, partial_aggregate
from repro.engine.executor import (
    BTreeProvider,
    TaskExecutionReport,
    TaskResult,
)
from repro.engine.operators import apply_filter, prefix_columns
from repro.errors import ExecutionError
from repro.index.smartindex import SmartIndexManager
from repro.planner.cost import (
    OPS_PER_COMPARISON,
    OPS_PER_CONTAINS,
    OPS_PER_DECODE,
    atom_saved_seconds,
)
from repro.planner.expressions import Frame, evaluate
from repro.planner.physical import PhysicalPlan, ScanTask
from repro.sql.ast import BinaryOperator, Star

#: Default morsel granularity; ~64K rows keeps per-morsel numpy calls
#: well past their fixed-overhead knee while leaving enough morsels per
#: block for the pool to balance.
DEFAULT_MORSEL_ROWS = 64 * 1024

_pools_lock = threading.Lock()
_pools: Dict[int, ThreadPoolExecutor] = {}


def resolve_worker_threads(configured: int = 0) -> int:
    """Effective pool size: ``configured`` if positive, else ``os.cpu_count()``."""
    if configured and configured > 0:
        return int(configured)
    return os.cpu_count() or 1


def worker_pool(threads: int) -> ThreadPoolExecutor:
    """The shared morsel pool for ``threads`` workers (lazily created).

    Pools are module-level and reused across leaves and queries: leaf
    servers are simulation objects, and giving each its own OS threads
    would leak a pool per simulated node.
    """
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="feisu-morsel"
            )
            _pools[threads] = pool
        return pool


def merge_exact_aggregation(plan: PhysicalPlan) -> bool:
    """True when morsel-local partials merge to bit-identical finals.

    Joins and post-join filters force the single-pass tail (their
    charges and row order are whole-block notions); float ``SUM`` and
    every ``AVG`` reassociate additions across morsels.
    """
    if not plan.is_aggregate or plan.has_joins or plan.post_filter is not None:
        return False
    analyzed = plan.analyzed
    for agg in analyzed.aggregates:
        if agg.func == "COUNT":
            continue
        if agg.func not in ("SUM", "MIN", "MAX"):
            return False
        if isinstance(agg.argument, Star):
            return False
        try:
            if analyzed.type_of(agg.argument) is not DataType.INT64:
                return False
        except Exception:  # noqa: BLE001 - untyped expression: stay safe
            return False
    return True


class FusedPipeline:
    """One scan task compiled to a fused, morsel-parallel block pass.

    Lifecycle: :meth:`compile` probes the index, prices the I/O and
    predicate work, and plans the morsel ranges; :meth:`run` decodes the
    columns once, executes the morsels (on the worker pool when it has
    more than one thread and more than one morsel), feeds the SmartIndex
    from the assembled full-block atom masks on the driving thread, and
    finishes with either the merge path or the single-pass tail.
    """

    def __init__(
        self,
        task: ScanTask,
        plan: PhysicalPlan,
        block: Block,
        index_manager: Optional[SmartIndexManager],
        now: float,
    ):
        self.task = task
        self.plan = plan
        self.block = block
        self.index_manager = index_manager
        self.now = now
        self.report = TaskExecutionReport(
            task_id=task.task_id,
            rows_in_block=block.num_rows,
            scale_factor=block.scale_factor,
        )
        self.payload_columns: List[str] = list(plan.payload_columns)
        self.mask: Optional[np.ndarray] = None
        self.missing: List = []
        self.residuals: List = []
        self.read_columns: List[str] = []
        #: Fully decoded arrays — only the columns that actually need
        #: materializing (see :meth:`_decode`).
        self.columns: Dict[str, np.ndarray] = {}
        #: ``(uniques, codes)`` for dictionary-encoded columns served
        #: without materializing: predicates evaluate on the unique set
        #: (:attr:`_missing_dict_masks`), gathers go through the codes.
        self._dict: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: Zero-copy views of plain-encoded numeric columns.
        self._views: Dict[str, np.ndarray] = {}
        #: Per-atom full-block masks of atoms over dictionary columns,
        #: answered on the unique set (:func:`~repro.engine.executor.
        #: dictionary_atom_mask`); None for every other atom.
        self._missing_dict_masks: List[List[Optional[np.ndarray]]] = []
        self._residual_dict_masks: List[List[Optional[np.ndarray]]] = []
        self.morsels: List[Tuple[int, int]] = []
        self._cands: List[np.ndarray] = []
        #: Full-block per-atom masks assembled from disjoint morsel
        #: slices (thread-safe by construction), inserted once per block
        #: on the driving thread in the unfused path's insert order.
        self._atom_buffers: List[List[np.ndarray]] = []
        self._residual_buffers: List[List[np.ndarray]] = []
        self._empty_shortcut = False

    # -- compile ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        task: ScanTask,
        plan: PhysicalPlan,
        block: Block,
        index_manager: Optional[SmartIndexManager] = None,
        btree_provider: Optional[BTreeProvider] = None,
        now: float = 0.0,
        span=None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> "FusedPipeline":
        pipe = cls(task, plan, block, index_manager, now)
        report = pipe.report
        mask, missing, residuals = _exec._filter_mask(
            task, plan.scan_cnf, block, index_manager, btree_provider, now, report,
            span=span,
        )
        pipe.mask, pipe.missing, pipe.residuals = mask, list(missing), list(residuals)
        if report.index_full_cover and mask is not None and not mask.any():
            pipe._empty_shortcut = True
            return pipe
        pipe.read_columns = (
            pipe.payload_columns if report.index_full_cover else list(task.columns)
        )
        if pipe.read_columns:
            if residuals:
                io_bytes, decode_ops = _exec._semantic_read_costs(
                    block, pipe.read_columns, residuals, missing, pipe.payload_columns
                )
                report.io_bytes += io_bytes
                report.cpu_ops += decode_ops
            else:
                report.io_bytes += block.column_bytes(pipe.read_columns)
                report.cpu_ops += OPS_PER_DECODE * block.num_rows * len(pipe.read_columns)
            report.io_seeks += 1
        # Whole-block predicate charges, same formulas as the unfused path.
        for clause in pipe.missing:
            for atom in clause.atoms:
                ops = (
                    OPS_PER_CONTAINS
                    if atom.op is BinaryOperator.CONTAINS
                    else OPS_PER_COMPARISON
                )
                report.cpu_ops += ops * block.num_rows
            report.cpu_ops += 2.0 * block.num_rows * len(clause.residuals)
        for r in pipe.residuals:
            cand = r.mask.to_bool_array()
            pipe._cands.append(cand)
            n_cand = int(np.count_nonzero(cand))
            for atom in r.clause.atoms:
                ops = (
                    OPS_PER_CONTAINS
                    if atom.op is BinaryOperator.CONTAINS
                    else OPS_PER_COMPARISON
                )
                report.cpu_ops += ops * n_cand
        if index_manager is not None:
            pipe._atom_buffers = [
                [np.zeros(block.num_rows, dtype=np.bool_) for _ in clause.atoms]
                for clause in pipe.missing
            ]
            pipe._residual_buffers = [
                [np.zeros(block.num_rows, dtype=np.bool_) for _ in r.clause.atoms]
                for r in pipe.residuals
            ]
        n = block.num_rows
        step = max(1, int(morsel_rows))
        pipe.morsels = [(lo, min(lo + step, n)) for lo in range(0, n, step)] or [(0, 0)]
        return pipe

    # -- morsel kernel ----------------------------------------------------

    def _atom_mask(
        self, atom, dict_mask: Optional[np.ndarray], lo: int, hi: int,
        idx: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate one atom over rows ``[lo, hi)`` (or a subset ``idx``
        of that range).  Dictionary-encoded columns slice the block mask
        precomputed on the unique set instead of touching values."""
        if dict_mask is not None:
            sel = dict_mask[lo:hi]
            return sel if idx is None else sel[idx]
        arr = self.columns.get(atom.column)
        if arr is None:
            arr = self._views[atom.column]
        sel = arr[lo:hi]
        return np.asarray(
            atom.evaluate(sel if idx is None else sel[idx]), dtype=np.bool_
        )

    def _gather(self, c: str, rows: np.ndarray) -> np.ndarray:
        """Materialize column ``c`` at ``rows`` only (fancy indexing
        always copies, so the result is a fresh writable array)."""
        parts = self._dict.get(c)
        if parts is not None:
            uniques, codes = parts
            return uniques[codes[rows]]
        arr = self.columns.get(c)
        if arr is None:
            arr = self._views[c]
        return arr[rows]

    def _slice_col(self, c: str, lo: int, hi: int) -> np.ndarray:
        """Materialize the full ``[lo, hi)`` range of column ``c``."""
        parts = self._dict.get(c)
        if parts is not None:
            uniques, codes = parts
            return uniques[codes[lo:hi]]
        arr = self.columns.get(c)
        if arr is not None:
            return arr[lo:hi]
        return np.array(self._views[c][lo:hi])  # writable, off the ro view

    def _run_morsel(self, m: int, exact: bool):
        """Filter + gather (+ optionally aggregate) rows ``[lo, hi)``.

        Returns ``(matched_rows, frame_or_None, partial_or_None)``.
        Touches only preallocated buffers at this morsel's disjoint
        slice, decoded arrays / code views (read-only) and morsel-local
        temporaries — safe under the worker pool without locks.
        """
        lo, hi = self.morsels[m]
        n = hi - lo
        combined = self.mask[lo:hi] if self.mask is not None else None
        for ci, clause in enumerate(self.missing):
            clause_mask: Optional[np.ndarray] = None
            for ai, atom in enumerate(clause.atoms):
                atom_mask = self._atom_mask(atom, self._missing_dict_masks[ci][ai], lo, hi)
                if self._atom_buffers:
                    self._atom_buffers[ci][ai][lo:hi] = atom_mask
                clause_mask = (
                    atom_mask if clause_mask is None else (clause_mask | atom_mask)
                )
            for residual in clause.residuals:
                # Opaque expression: needs real values for every column it
                # might touch — _decode fully materialized them for this case.
                frame = Frame({c: arr[lo:hi] for c, arr in self.columns.items()}, n)
                res_mask = evaluate(residual, frame).astype(np.bool_)
                clause_mask = (
                    res_mask if clause_mask is None else (clause_mask | res_mask)
                )
            if clause_mask is None:
                raise ExecutionError("clause with neither atoms nor residuals")
            combined = (
                clause_mask if combined is None else (combined & clause_mask)
            )
        for ri, r in enumerate(self.residuals):
            cand = self._cands[ri][lo:hi]
            idx = np.flatnonzero(cand)
            clause_sub = np.zeros(len(idx), dtype=np.bool_)
            for ai, atom in enumerate(r.clause.atoms):
                sub = self._atom_mask(atom, self._residual_dict_masks[ri][ai], lo, hi, idx)
                if self._residual_buffers:
                    self._residual_buffers[ri][ai][lo + idx] = sub
                clause_sub |= sub
            clause_full = np.zeros(n, dtype=np.bool_)
            clause_full[idx] = clause_sub
            combined = clause_full if combined is None else (combined & clause_full)
        # Lazy selection ends here: gather payload columns of matched rows.
        if combined is None:
            gathered = {c: self._slice_col(c, lo, hi) for c in self.payload_columns}
            count = n
        else:
            rows = np.flatnonzero(combined) + lo
            gathered = {c: self._gather(c, rows) for c in self.payload_columns}
            count = int(len(rows))
        out = Frame(gathered, count)
        if exact:
            return count, None, self._morsel_partial(out)
        return count, out, None

    def _morsel_partial(self, frame: Frame) -> GroupedPartial:
        analyzed = self.plan.analyzed
        resolve = _exec._resolver_for(analyzed, frame, False)
        key_arrays = [evaluate(k, frame, resolve) for k in analyzed.group_keys]
        agg_arrays: List[Optional[np.ndarray]] = [
            None if isinstance(a.argument, Star) else evaluate(a.argument, frame, resolve)
            for a in analyzed.aggregates
        ]
        return partial_aggregate(
            key_arrays, [a.func for a in analyzed.aggregates], agg_arrays, frame.num_rows
        )

    # -- driver -----------------------------------------------------------

    def _decode(self, pool: Optional[ThreadPoolExecutor]) -> None:
        """Open every read column exactly once, materializing as little
        as possible.

        Dictionary-encoded columns stay as ``(uniques, codes)``: each
        predicate atom is answered on the unique set and mapped through
        the codes (here, once per block), and payload gathers go
        ``uniques[codes[rows]]``.  Plain-encoded numeric columns stay as
        zero-copy views.  Only columns an opaque residual expression
        might touch — or ones in codecs without selective access — pay
        the full ``decode()`` the unfused path pays for every column.
        """
        need_full: List[str] = []
        has_residual_exprs = any(clause.residuals for clause in self.missing)
        for c in self.read_columns:
            chunk = self.block.chunks[c]
            if has_residual_exprs:
                need_full.append(c)
                continue
            parts = chunk.dictionary_parts()
            if parts is not None:
                self._dict[c] = parts
                continue
            view = chunk.plain_view()
            if view is not None:
                self._views[c] = view
                continue
            need_full.append(c)
        if pool is not None and len(need_full) > 1:
            futures = [(c, pool.submit(self.block.column, c)) for c in need_full]
            self.columns = {c: f.result() for c, f in futures}
        else:
            self.columns = {c: self.block.column(c) for c in need_full}
        for masks, clauses in (
            (self._missing_dict_masks, [cl.atoms for cl in self.missing]),
            (self._residual_dict_masks, [r.clause.atoms for r in self.residuals]),
        ):
            for atoms in clauses:
                masks.append([
                    _exec.dictionary_atom_mask(self._dict[a.column], a)
                    if a.column in self._dict
                    else None
                    for a in atoms
                ])

    def _insert_index_entries(self) -> None:
        """Feed the SmartIndex once per block, in the unfused insert order."""
        mgr = self.index_manager
        if mgr is None:
            return
        block_id = self.task.block.block_id
        for ci, clause in enumerate(self.missing):
            for ai, atom in enumerate(clause.atoms):
                buf = self._atom_buffers[ci][ai]
                if mgr.semantic:
                    mgr.insert(
                        block_id, atom, buf, self.now,
                        saved_s=atom_saved_seconds(self.task.block, atom),
                    )
                else:
                    mgr.insert(block_id, atom, buf, self.now)
        for ri, r in enumerate(self.residuals):
            for ai, atom in enumerate(r.clause.atoms):
                mgr.insert(
                    block_id, atom, self._residual_buffers[ri][ai], self.now,
                    saved_s=atom_saved_seconds(self.task.block, atom),
                )

    def run(
        self,
        broadcast_frames: Optional[Dict[str, Frame]] = None,
        worker_threads: int = 0,
    ) -> TaskResult:
        task, plan, report = self.task, self.plan, self.report
        analyzed = plan.analyzed
        t0 = time.perf_counter()
        threads = resolve_worker_threads(worker_threads)
        report.fused = True
        report.workers = threads
        if self._empty_shortcut:
            report.morsels = 0
            frame = Frame(
                {
                    c: np.empty(0, dtype=_exec._np_dtype(analyzed, task, c))
                    for c in self.payload_columns
                },
                0,
            )
            report.rows_matched = 0
            report.morsel_wall_s = time.perf_counter() - t0
            return self._finish_single_pass(frame, broadcast_frames)

        report.morsels = len(self.morsels)
        pool = (
            worker_pool(threads)
            if threads > 1 and len(self.morsels) > 1
            else None
        )
        self._decode(pool)
        exact = merge_exact_aggregation(plan)
        indices = range(len(self.morsels))
        if pool is not None:
            outs = list(pool.map(lambda m: self._run_morsel(m, exact), indices))
        else:
            outs = [self._run_morsel(m, exact) for m in indices]
        self._insert_index_entries()
        report.rows_matched = sum(count for count, _f, _p in outs)
        report.morsel_wall_s = time.perf_counter() - t0

        if exact:
            merged = GroupedPartial(
                len(analyzed.group_keys), [a.func for a in analyzed.aggregates]
            )
            for _count, _frame, partial in outs:
                merged.merge(partial)
            if not analyzed.group_keys and not merged.groups:
                merged.state_for(())
            report.cpu_ops += 2.0 * report.rows_matched * max(
                1, len(analyzed.aggregates)
            )
            return TaskResult(task.task_id, partial=merged, report=report)

        frame = Frame.concat([f for _c, f, _p in outs])
        return self._finish_single_pass(frame, broadcast_frames)

    def _finish_single_pass(
        self, frame: Frame, broadcast_frames: Optional[Dict[str, Frame]]
    ) -> TaskResult:
        """The unfused tail (joins, post-filter, aggregate/project) over
        the gathered frame — bit-identical rows in, bit-identical
        result and charges out."""
        task, plan, report = self.task, self.plan, self.report
        analyzed = plan.analyzed
        qualified = plan.has_joins
        if qualified:
            frame = prefix_columns(frame, task.binding)
            frame = _exec._apply_broadcast_joins(
                frame, plan, broadcast_frames or {}, report
            )
        if plan.post_filter is not None and frame.num_rows > 0:
            resolve = _exec._resolver_for(analyzed, frame, qualified)
            post_mask = evaluate(plan.post_filter, frame, resolve).astype(np.bool_)
            report.cpu_ops += 2.0 * frame.num_rows
            frame = apply_filter(frame, post_mask)
        if plan.is_aggregate:
            partial = _exec._partial_aggregate(frame, plan, qualified, report)
            return TaskResult(task.task_id, partial=partial, report=report)
        output_frame = _exec._project_task_frame(frame, plan, qualified)
        if analyzed.query.limit is not None:
            output_frame = _exec._push_down_limit(output_frame, plan, qualified)
        return TaskResult(task.task_id, frame=output_frame, report=report)


def execute_fused_scan_task(
    task: ScanTask,
    plan: PhysicalPlan,
    block: Block,
    broadcast_frames: Optional[Dict[str, Frame]] = None,
    index_manager: Optional[SmartIndexManager] = None,
    btree_provider: Optional[BTreeProvider] = None,
    now: float = 0.0,
    span=None,
    worker_threads: int = 0,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
) -> TaskResult:
    """Drop-in fused replacement for
    :func:`repro.engine.executor.execute_scan_task` — same signature plus
    the pool/morsel knobs, same :class:`TaskResult` bytes and charges."""
    pipe = FusedPipeline.compile(
        task, plan, block,
        index_manager=index_manager,
        btree_provider=btree_provider,
        now=now,
        span=span,
        morsel_rows=morsel_rows,
    )
    return pipe.run(broadcast_frames, worker_threads=worker_threads)
