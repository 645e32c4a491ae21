"""Storage-served blocks: zero-copy parses shared by every reader.

A stored payload is parsed once (:meth:`StorageSystem.block`); chunk
payloads are ``memoryview`` slices of the stored bytes, and the chunks of
that shared parse memoize their decodes as read-only arrays.  Private
parses (``Block.from_bytes``, ``load_block``) still decode afresh.  Also
covered here: the bounded job registry, sessions closed by
``run_sessions``, and the single wire-size computation per task result.
"""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig
from repro.cluster.jobs import JobOptions, JobStatus
from repro.cluster.metrics import collect_metrics
from repro.columnar.block import Block
from repro.columnar.encoding import (
    BitPackedEncoding,
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
)
from repro.columnar.schema import DataType, Schema
from repro.cluster.node import LeafConfig
from repro.engine.executor import TaskExecutionReport, TaskResult
from repro.gateway import GatewayConfig, TenantPolicy, run_sessions
from repro.planner.expressions import Frame
from repro.storage.loader import load_block
from repro.workload.generator import MultiTenantConfig, multi_tenant_sessions
from tests.conftest import CLICKS_SCHEMA, make_clicks_columns


def _strings(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _embedded(payload: bytes) -> memoryview:
    """``payload`` as a slice in the middle of a larger buffer, the way a
    parsed block's chunk payload sits inside the stored bytes."""
    return memoryview(b"\xffhead" + payload + b"tail\x00")[5 : 5 + len(payload)]


_STRINGS = _strings(["", "\x00", "a\x00", "", "é", "日本", "a\x00", "\U0001F600", "plain"])
_ASCII = _strings(["", "a", "\x00", "bb\x00", "a", ""])

_CASES = [
    (PlainEncoding(), _STRINGS),
    (PlainEncoding(), _ASCII),
    (RunLengthEncoding(), _STRINGS),
    (DictionaryEncoding(), _STRINGS),
    (DictionaryEncoding(), _ASCII),
    (PlainEncoding(), np.array([3, -1, 2**40], dtype=np.int64)),
    (PlainEncoding(), np.array([0.5, -2.25], dtype=np.float64)),
    (RunLengthEncoding(), np.array([7, 7, 7, 1, 1], dtype=np.int64)),
    (DictionaryEncoding(), np.array([5, 1, 5, 5, 1], dtype=np.int64)),
    (DeltaEncoding(), np.array([10, 11, 12, 20, 2**62], dtype=np.int64)),
    (DeltaEncoding(), np.array([], dtype=np.int64)),
    (BitPackedEncoding(), np.array([True, False, True, True, False, False, True, False, True])),
]


@pytest.mark.parametrize("codec,arr", _CASES, ids=lambda c: getattr(c, "name", None))
def test_every_codec_round_trips_from_a_memoryview(codec, arr):
    payload = codec.encode(arr)
    out = codec.decode(_embedded(payload), len(arr))
    assert out.tolist() == arr.tolist()
    assert out.dtype == arr.dtype
    if hasattr(codec, "decode_parts"):
        uniques, codes = codec.decode_parts(_embedded(payload), len(arr))
        assert uniques[codes].tolist() == arr.tolist()
    if hasattr(codec, "decode_view"):
        view = codec.decode_view(_embedded(payload), len(arr))
        assert view is None if arr.dtype == object else view.tolist() == arr.tolist()


def _block() -> Block:
    columns = make_clicks_columns(300, seed=3)
    return Block.from_arrays("T.b0", CLICKS_SCHEMA, columns)


def test_parse_slices_chunk_payloads_without_copying():
    stored = _block().to_bytes()
    block = Block.from_bytes(stored)
    for chunk in block.chunks.values():
        assert isinstance(chunk.payload, memoryview)
        assert chunk.payload.obj is stored
    assert block.to_bytes() == stored


# -- shared storage-served blocks -------------------------------------------------


@pytest.fixture()
def cluster():
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    cluster.load_table(
        "T", CLICKS_SCHEMA, make_clicks_columns(3000, seed=11), storage="storage-a", block_rows=1000
    )
    return cluster


def _stored(cluster, index=0):
    ref = cluster.catalog.get("T").blocks[index]
    system, inner = cluster.router.resolve(ref.path)
    return system, inner


def _served(system, inner):
    return system.block(inner, system.read(inner))


def test_storage_serves_one_parse_with_read_only_memoized_decodes(cluster):
    system, inner = _stored(cluster)
    block = _served(system, inner)
    assert _served(system, inner) is block
    c1 = block.chunks["c1"]
    first = c1.decode()
    assert c1.decode() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = -1
    url = block.chunks["url"]
    parts = url.dictionary_parts()
    assert parts is not None and url.dictionary_parts() is parts
    assert not any(a.flags.writeable for a in parts)
    ranks = url.dictionary_ranks()
    assert url.dictionary_ranks() is ranks and not ranks.flags.writeable
    uniques = parts[0]
    assert np.argsort(uniques[np.argsort(ranks)], kind="stable").tolist() == list(
        range(len(uniques))
    )


def test_concurrent_first_decodes_publish_one_array_per_chunk():
    """Fused-pipeline pool threads may miss on the same chunk at once:
    every thread must still get the one published array."""
    stored = _block().to_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            block = Block.from_bytes(stored, shared=True)
            url, c1 = block.chunks["url"], block.chunks["c1"]

            def read(_i):
                return (c1.decode(), url.decode(), url.dictionary_parts(), url.dictionary_ranks())

            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = [f.result(timeout=30) for f in [pool.submit(read, i) for i in range(32)]]
            for got in zip(*seen):
                assert all(value is got[0] for value in got)
    finally:
        sys.setswitchinterval(interval)


def test_private_parses_decode_fresh_writable_arrays(cluster):
    system, inner = _stored(cluster)
    payload = system.read(inner)
    ref = cluster.catalog.get("T").blocks[0]
    cred = cluster.create_user("reader", admin=True)
    for block in (Block.from_bytes(payload), load_block(cluster.router, ref, cred=cred)):
        assert block is not _served(system, inner)
        for name in ("c1", "url"):
            chunk = block.chunks[name]
            a, b = chunk.decode(), chunk.decode()
            assert a is not b and a.flags.writeable
            a[0] = a[1]  # the caller's to modify
        parts = block.chunks["url"].dictionary_parts()
        assert parts is not None and block.chunks["url"].dictionary_parts() is not parts


def test_bytes_not_stored_at_the_path_parse_privately(cluster):
    system, inner = _stored(cluster)
    copy = bytes(bytearray(system.read(inner)))
    block = system.block(inner, copy)
    assert system.block(inner, copy) is not block
    assert block.chunks["c1"].decode() is not block.chunks["c1"].decode()


def _released(parse: "weakref.ref") -> bool:
    """Whether nothing (the storage system included) holds the parse."""
    gc.collect()
    return parse() is None


def test_write_and_delete_drop_the_parse(cluster):
    system, inner = _stored(cluster)
    old = weakref.ref(_served(system, inner))
    system.write(inner, _block().to_bytes())
    assert _released(old)
    rewritten = _served(system, inner)
    assert rewritten.num_rows == 300 and _served(system, inner) is rewritten
    old = weakref.ref(rewritten)
    del rewritten
    system.delete(inner)
    assert _released(old)
    system.write(inner, _block().to_bytes())
    assert _served(system, inner).num_rows == 300


def test_variant_publish_and_retract_drop_the_parse(cluster):
    system, inner = _stored(cluster)
    node = system.locations(inner)[0]
    base = _served(system, inner)

    def variant():
        return system.block(inner, system.read_replica(inner, node))

    system.set_replica_variant(inner, node, _block().to_bytes())
    first = variant()
    assert first is not base and first.num_rows == 300 and variant() is first
    old = weakref.ref(first)
    del first
    system.set_replica_variant(inner, node, _block().to_bytes())
    assert _released(old)
    old = weakref.ref(variant())
    system.clear_replica_variant(inner, node)
    assert _released(old)
    assert system.read_replica(inner, node) is system.read(inner)
    assert variant() is base


def test_repeated_scans_parse_each_stored_block_once(cluster, monkeypatch):
    calls = []
    parse = Block.from_bytes.__func__

    def counting(cls, payload, shared=False):
        calls.append(shared)
        return parse(cls, payload, shared)

    monkeypatch.setattr(Block, "from_bytes", classmethod(counting))
    sql = "SELECT c2, COUNT(*) FROM T WHERE c1 < 40 GROUP BY c2 ORDER BY c2"
    first = cluster.query(sql)
    parsed = len(calls)
    assert parsed >= 3 and all(calls)
    again = cluster.query(sql)
    assert len(calls) == parsed
    assert again.rows() == first.rows()


@pytest.mark.parametrize("fused", [False, True])
def test_results_never_alias_cached_arrays(fused):
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(enable_fused_pipelines=fused),
        )
    )
    cluster.load_table(
        "T", CLICKS_SCHEMA, make_clicks_columns(3000, seed=11), storage="storage-a", block_rows=1000
    )
    for sql in (
        "SELECT c1, clicks, url FROM T",
        "SELECT c1, url FROM T WHERE c2 = 3",
        "SELECT url, COUNT(*) FROM T GROUP BY url ORDER BY url",
    ):
        result = cluster.query(sql)
        expected = result.rows()
        for column in result.frame.columns.values():
            column[:] = column[len(column) - 1]
        assert cluster.query(sql).rows() == expected


# -- bounded job registry -----------------------------------------------------------


def test_job_registry_keeps_only_unfinished_jobs(cluster):
    manager = cluster.master.job_manager
    jobs = []
    for i in range(12):
        kind = i % 4
        if kind == 0:
            options = JobOptions()
        elif kind == 1:
            options = JobOptions(max_time_s=1e-6, min_processed_ratio=1.0)
        elif kind == 2:
            options = JobOptions(spill_threshold_bytes=0)
        else:
            options = None
        job, done = cluster.submit(f"SELECT c1, url FROM T WHERE c2 = {i % 10}", options=options)
        if kind == 3:
            assert cluster.master.cancel(job.job_id)
        cluster.sim.run_until_complete(done)
        jobs.append(job)
        assert len(manager.jobs) == 0
    pending, _done = cluster.submit("SELECT COUNT(*) FROM T")
    assert list(manager.jobs) == [pending.job_id]
    metrics = collect_metrics(cluster)
    statuses = [j.status for j in jobs]
    # A job cancelled before its first step stays cancelled.
    assert all(j.status is JobStatus.FAILED for j in jobs[3::4])
    assert metrics.jobs_total == len(jobs) + 1
    assert metrics.jobs_succeeded == statuses.count(JobStatus.SUCCEEDED) == 6
    assert metrics.jobs_timed_out == statuses.count(JobStatus.TIMED_OUT) == 3
    assert metrics.jobs_failed == statuses.count(JobStatus.FAILED) == 3
    assert metrics.results_spilled == sum(j.stats.results_spilled for j in jobs) > 0
    cluster.sim.run_until_complete(_done)
    assert not manager.jobs and collect_metrics(cluster).jobs_succeeded == 7


# -- gateway sessions ----------------------------------------------------------------


def test_run_sessions_leaves_no_session_registered():
    cfg = GatewayConfig(total_slots=2, default_policy=TenantPolicy(max_concurrent=2, max_queued=512))
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, gateway=cfg)
    )
    schema = Schema.of(c1=DataType.INT64, c2=DataType.INT64)
    rng = np.random.default_rng(5)
    cluster.load_table(
        "T", schema, {"c1": rng.integers(0, 100, 2000), "c2": rng.integers(0, 10, 2000)},
        block_rows=500,
    )
    traces = multi_tenant_sessions(
        "T",
        schema,
        MultiTenantConfig(num_tenants=2, num_sessions=12, queries_per_session=2.0, seed=3),
        value_ranges={"c1": (0, 100), "c2": (0, 10)},
    )
    for user in sorted({t.user for t in traces}):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    report = run_sessions(cluster.gateway, traces, limit_s=1e6)
    assert report.sessions == 12 and report.completed == report.submitted > 0
    assert cluster.gateway.sessions == {}
    assert collect_metrics(cluster).gateway_sessions_open == 0
    assert len(cluster.gateway.queries) == report.submitted
    assert all(q.terminal for q in cluster.gateway.queries.values())


# -- result wire size ------------------------------------------------------------------


def test_payload_bytes_matches_the_per_value_definition():
    urls = _strings(["", "é", "a\x00", "http://x.example.com/p1"])
    frame = Frame({"n": np.arange(4, dtype=np.int64), "url": urls}, 4)
    report = TaskExecutionReport(task_id="t0", scale_factor=250.0)
    result = TaskResult("t0", frame=frame, report=report)
    expected = 64 + 4 * 8 + sum(len(str(x)) + 8 for x in urls)
    assert result.payload_bytes() == expected
    assert result.modeled_payload_bytes(expected) == expected * 250.0
    assert TaskResult("t1", report=report).modeled_payload_bytes(64) == 64.0
