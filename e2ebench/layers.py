"""Per-layer wall-clock attribution from outside the program.

:class:`LayerTimer` wraps public functions of each module with a timer
that calls straight through (re-raising whatever the callee raises) and
books the call's *self* time — its duration minus the time spent in
other wrapped calls beneath it — to a named layer.  Each thread keeps its
own call stack, so work the fused pipeline hands to its morsel pool is
booked on the pool thread and never subtracted from an unrelated parent.

Where a consumer bound a function with ``from module import name``, the
consumer module's name is patched as well as the defining module's.
Wrappers are installed only for a traced run and removed afterwards.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> ``(module or class path, attribute, consumers)``; a
#: consumer is a module that imported the attribute by name.
_SQL_CONSUMERS = ("repro.client.client", "repro.cluster.master", "repro.gateway.gateway")
_FUNCTION_LAYERS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sql.parse": [("repro.sql.parser", "parse", _SQL_CONSUMERS)],
    "sql.analyze": [("repro.sql.analyzer", "analyze", _SQL_CONSUMERS)],
    "planner.plan": [
        ("repro.planner.physical", "build_plan", ("repro.cluster.master", "repro.gateway.gateway")),
    ],
    "client.preflight": [("repro.client.client:FeisuClient", "_guarded_preflight", ())],
    "cluster.admit": [("repro.cluster.master:Master", "admit", ())],
    "cluster.place": [("repro.cluster.scheduler:JobScheduler", "place", ())],
    "gateway.self": [
        ("repro.gateway.gateway:SQLGateway", "_submit", ()),
        ("repro.gateway.gateway:SQLGateway", "_pump", ()),
        ("repro.gateway.gateway:SQLGateway", "_emit", ()),
        ("repro.gateway.gateway:SQLGateway", "_on_job_done", ()),
        ("repro.gateway.driver", "build_report", ()),
    ],
    "sim.loop": [("repro.sim.events:Simulator", "step", ())],
    # Generator bodies of simulated processes: master task flow, leaf
    # task execution, daemons — everything a process step runs that no
    # narrower layer claims.
    "sim.process": [("repro.sim.events:Process", "_step", ())],
    "columnar.block_parse": [("repro.columnar.block:Block", "from_bytes", ())],
    "storage.read": [
        ("repro.storage.base:StorageSystem", "read", ()),
        ("repro.storage.layouts:LayoutDaemon", "payload_for", ()),
    ],
    "index.probe": [
        ("repro.index.smartindex:SmartIndexManager", "cover", ()),
        ("repro.index.smartindex:SmartIndexManager", "cover_semantic", ()),
    ],
    "index.insert": [("repro.index.smartindex:SmartIndexManager", "insert", ())],
    "engine.scan": [
        ("repro.engine.executor", "execute_scan_task", ("repro.cluster.node",)),
        ("repro.engine.pipeline", "execute_fused_scan_task", ()),
    ],
    "engine.aggregate": [
        (
            "repro.engine.aggregates",
            "partial_aggregate",
            ("repro.engine.executor", "repro.engine.pipeline"),
        ),
    ],
    "engine.join": [("repro.engine.operators", "join", ("repro.engine.executor",))],
    "engine.finalize": [("repro.engine.executor", "finalize", ("repro.cluster.master",))],
}

#: Codec methods; booked to ``columnar.string_decode`` when they return
#: strings and to ``columnar.decode`` otherwise.
_DECODE_METHODS = [
    ("repro.columnar.encoding:PlainEncoding", "decode"),
    ("repro.columnar.encoding:RunLengthEncoding", "decode"),
    ("repro.columnar.encoding:DictionaryEncoding", "decode"),
    ("repro.columnar.encoding:DictionaryEncoding", "decode_parts"),
    ("repro.columnar.encoding:DeltaEncoding", "decode"),
    ("repro.columnar.encoding:BitPackedEncoding", "decode"),
]

#: Every timed layer, in report order.
TIME_LAYERS = [
    "client.preflight",
    "sql.parse",
    "sql.analyze",
    "planner.plan",
    "gateway.self",
    "cluster.admit",
    "cluster.place",
    "sim.loop",
    "sim.process",
    "storage.read",
    "columnar.block_parse",
    "columnar.decode",
    "columnar.string_decode",
    "index.probe",
    "index.insert",
    "engine.scan",
    "engine.join",
    "engine.aggregate",
    "engine.finalize",
]


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _is_string_result(result) -> bool:
    arr = result[0] if isinstance(result, tuple) else result
    return getattr(arr, "dtype", None) == object


class LayerTimer:
    """Self-time and call counts per layer, summed over threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[list, Dict[str, float], Dict[str, float]]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- bookkeeping ------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float), defaultdict(float))
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _wrap(self, fn: Callable, layer, counter=None) -> Callable:
        """``layer`` is a name or a function of the result giving one;
        ``counter(counts, result)`` adds result-derived counts."""
        state_of = self._state

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, self_s, counts = state_of()
            stack.append(0.0)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                name = layer if isinstance(layer, str) else layer(result)
                child = stack.pop()
                self_s[name] += elapsed - child
                counts[name] += 1
                if stack:
                    stack[-1] += elapsed
                if counter is not None and result is not None:
                    counter(counts, result)

        return timed

    def _patch(self, owner, attr: str, layer, counter=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, counter))
        else:
            new = self._wrap(raw, layer, counter)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    # -- install / remove -------------------------------------------------

    def install(self) -> "LayerTimer":
        from repro.cluster.jobs import JobOptions

        for layer, targets in _FUNCTION_LAYERS.items():
            for path, attr, consumers in targets:
                counter = _COUNTERS.get(layer)
                self._patch(_resolve(path), attr, layer, counter)
                for consumer in consumers:
                    module = _resolve(consumer)
                    if getattr(module, attr, None) is not None:
                        self._patch(module, attr, layer, counter)
        decode_layer = lambda r: (  # noqa: E731
            "columnar.string_decode" if _is_string_result(r) else "columnar.decode"
        )
        for path, attr in _DECODE_METHODS:
            self._patch(_resolve(path), attr, decode_layer)
        # Rows decoded: counted once per column chunk materialized.
        chunk = _resolve("repro.columnar.block:ColumnChunk")
        self._patch(chunk, "decode", "columnar.decode", _count_rows)
        # Gateway sessions submit without options; give traced runs spans.
        session_cls = _resolve("repro.gateway.session:GatewaySession")
        submit = session_cls.__dict__["submit"]

        @functools.wraps(submit)
        def traced_submit(session, sql, options=None, timeout_s=None):
            return submit(session, sql, options or JobOptions(trace=True), timeout_s)

        self._patches.append((session_cls, "submit", submit))
        session_cls.submit = traced_submit
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds by layer, counts by key)`` over all threads."""
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        with self._lock:
            for _stack, s, c in self._threads:
                for k, v in list(s.items()):
                    self_s[k] += v
                for k, v in list(c.items()):
                    counts[k] += v
        return self_s, counts


def _count_rows(counts, result) -> None:
    counts["rows_decoded"] += len(result)


def _count_read(counts, result) -> None:
    if isinstance(result, tuple):
        # LayoutDaemon.payload_for: a base payload was already counted by
        # the StorageSystem.read beneath it; count served variants only.
        payload, layout = result
        counts["layout_reads"] += 1
        if layout is None:
            return
        counts["variant_reads"] += 1
        result = payload
    counts["bytes_read"] += len(result)


def _count_result(counts, result) -> None:
    counts["result_bytes"] += sum(
        getattr(col, "nbytes", 0) for col in result.frame.columns.values()
    )


_COUNTERS: Dict[str, Optional[Callable]] = {
    "storage.read": _count_read,
    "engine.finalize": _count_result,
}
