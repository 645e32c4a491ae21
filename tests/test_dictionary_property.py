"""Dictionary-code execution: codec round trips, predicates answered on
the unique set, GROUP BY on code ranks, and the default executor's
string scan path against the fused pipeline and the reference oracle.

Hypothesis drives random string columns that include ``''``, NUL,
trailing NUL and non-ASCII text, plus the single-unique and all-unique
extremes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.block import Block, ChunkStats, ColumnChunk
from repro.columnar.bloom import BloomFilter
from repro.columnar.encoding import (
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
)
from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.engine.aggregates import partial_aggregate
from repro.engine.executor import (
    ScanColumns,
    dictionary_atom_mask,
    execute_scan_task,
    finalize,
)
from repro.engine.pipeline import execute_fused_scan_task
from repro.planner.cnf import AtomicPredicate
from repro.planner.physical import build_plan
from repro.sim.netmodel import TopologySpec
from repro.sql.analyzer import analyze
from repro.sql.ast import BinaryOperator
from repro.sql.parser import parse
from repro.storage.loader import load_block, store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS
from tests._oracle import _row_dicts, compare_rows, reference_execute

settings.register_profile("dictionary", deadline=None, max_examples=60)
settings.load_profile("dictionary")

_ALPHABET = st.sampled_from(["a", "b", "z", "\x00", "é", "日", "\U0001F600", "/", "1"])
_WORDS = st.text(alphabet=_ALPHABET, max_size=5)


@st.composite
def string_columns(draw, min_size=0):
    """Object arrays of str: random, single-unique or all-unique."""
    shape = draw(st.sampled_from(["random", "single", "all_unique"]))
    n = draw(st.integers(min_size, 40))
    if shape == "single":
        values = [draw(_WORDS)] * n
    elif shape == "all_unique":
        values = draw(st.lists(_WORDS, min_size=n, max_size=n, unique=True))
    else:
        pool = draw(st.lists(_WORDS, min_size=1, max_size=8))
        values = [draw(st.sampled_from(pool)) for _ in range(n)]
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _dictionary_block(arrays):
    """A block whose (string) columns are all dictionary-encoded."""
    n = len(next(iter(arrays.values())))
    codec = DictionaryEncoding()
    chunks = {
        name: ColumnChunk(name, DataType.STRING, codec.tag, codec.encode(arr), ChunkStats(), n)
        for name, arr in arrays.items()
    }
    schema = Schema.of(**{name: DataType.STRING for name in arrays})
    return Block("t.b0", schema, chunks, n)


# -- codecs ------------------------------------------------------------------


@given(string_columns(), st.binary(max_size=3), st.binary(max_size=3))
def test_string_round_trip_is_exact_under_every_codec(arr, before, after):
    for codec in (PlainEncoding(), RunLengthEncoding(), DictionaryEncoding()):
        payload = codec.encode(arr)
        # A parsed chunk's payload is a zero-copy slice of the stored block.
        view = memoryview(before + payload + after)[len(before) : len(before) + len(payload)]
        for buf in (payload, view):
            out = codec.decode(buf, len(arr))
            assert out.dtype == object
            assert out.tolist() == arr.tolist(), codec.name
            assert all(type(v) is str for v in out)
            if hasattr(codec, "decode_parts"):
                uniques, codes = codec.decode_parts(buf, len(arr))
                assert uniques[codes].tolist() == arr.tolist()


@given(string_columns())
def test_shared_parse_matches_a_private_one_read_only(arr):
    stored = Block.from_arrays("t.b0", Schema.of(s=DataType.STRING), {"s": arr}).to_bytes()
    shared = Block.from_bytes(stored, shared=True).chunks["s"]
    private = Block.from_bytes(stored).chunks["s"]
    assert shared.decode().tolist() == private.decode().tolist() == arr.tolist()
    assert shared.decode() is shared.decode() and not shared.decode().flags.writeable
    assert private.decode() is not private.decode()
    if private.dictionary_parts() is not None:
        assert shared.dictionary_ranks().tolist() == private.dictionary_ranks().tolist()
        assert not shared.dictionary_ranks().flags.writeable


@given(string_columns())
def test_dictionary_uniques_keep_first_appearance_order(arr):
    uniques, codes = DictionaryEncoding().decode_parts(
        DictionaryEncoding().encode(arr), len(arr)
    )
    assert uniques.tolist() == list(dict.fromkeys(arr.tolist()))
    assert uniques[codes].tolist() == arr.tolist()


@given(st.lists(_WORDS, max_size=60))
def test_bloom_bulk_update_matches_per_item_add(values):
    one, bulk = BloomFilter(len(values) or 1), BloomFilter(len(values) or 1)
    for v in values:
        one.add(v)
    bulk.update(values)
    assert bulk.to_bytes() == one.to_bytes()
    assert bulk.count == one.count
    assert all(bulk.might_contain(v) for v in values)


def test_string_chunk_stats_from_one_pass():
    arr = np.array(["b", "a\x00", "é", "a", "b", ""], dtype=object)
    stats = ColumnChunk.from_array("s", DataType.STRING, arr).stats
    assert (stats.min_value, stats.max_value, stats.distinct_estimate) == ("", "é", 5)
    assert all(stats.bloom.might_contain(v) for v in arr)


# -- predicates on the unique set ------------------------------------------------

_OPS = [
    (BinaryOperator.CONTAINS, False),
    (BinaryOperator.CONTAINS, True),
    (BinaryOperator.EQ, False),
    (BinaryOperator.NE, False),
    (BinaryOperator.LT, False),
    (BinaryOperator.LE, False),
    (BinaryOperator.GT, False),
    (BinaryOperator.GE, False),
]


@given(string_columns(), _WORDS, st.sampled_from(_OPS), st.data())
def test_dictionary_atom_mask_matches_decoded_evaluation(arr, literal, op, data):
    atom = AtomicPredicate("s", op[0], literal, negated=op[1])
    parts = DictionaryEncoding().decode_parts(DictionaryEncoding().encode(arr), len(arr))
    got = dictionary_atom_mask(parts, atom)
    assert got.dtype == np.bool_
    assert got.tolist() == np.asarray(atom.evaluate(arr), dtype=np.bool_).tolist()
    # A row subset (the candidate-rows path) answers on the subset.
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(arr), max_size=len(arr))))
    uniques, codes = parts
    sub = dictionary_atom_mask((uniques, codes[rows]), atom)
    assert sub.tolist() == np.asarray(atom.evaluate(arr[rows]), dtype=np.bool_).tolist()


def test_dictionary_atom_mask_falls_back_when_not_elementwise():
    class Scalar:
        column, op = "s", BinaryOperator.EQ

        def evaluate(self, values):
            return np.bool_(False) if len(values) == 2 else np.ones(len(values), bool)

    uniques = np.array(["x", "y"], dtype=object)
    codes = np.array([0, 1, 1, 0, 1], dtype=np.uint32)
    assert dictionary_atom_mask((uniques, codes), Scalar()).tolist() == [True] * 5


# -- GROUP BY on code ranks ------------------------------------------------------


def _states(partial):
    return {
        key: [(type(s).__name__, tuple(getattr(s, a) for a in s.__slots__)) for s in states]
        for key, states in partial.groups.items()
    }


def _assert_same_partial(a, b):
    assert list(a.groups) == list(b.groups)
    assert _states(a) == _states(b)
    assert a.rows_scanned == b.rows_scanned


_FUNCS = ["COUNT", "SUM", "MIN", "MAX", "AVG"]


@given(string_columns(min_size=1), st.data())
def test_rank_group_by_equals_string_group_by(arr, data):
    n = len(arr)
    ints = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    # Sixteenths keep float sums exact in any order.
    vals = np.array(data.draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))) / 16.0
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=hi - lo, max_size=hi - lo)))
    mask = data.draw(st.sampled_from([None, keep]))
    block = _dictionary_block({"s": arr})
    cols = ScanColumns(block, ["s"], lo, hi)
    frame = cols.gather(["s"], mask)
    ranks = cols.ranks(["s"], mask)["s"]
    sel = np.arange(lo, hi) if mask is None else np.arange(lo, hi)[mask]
    assert frame.column("s").tolist() == arr[sel].tolist()
    m = len(sel)
    i_sel, v_sel = ints[sel], vals[sel]
    agg_arrays = [None, v_sel, i_sel, i_sel, v_sel]
    for keys, codes in (
        ([frame.column("s")], [ranks]),
        ([frame.column("s"), i_sel], [ranks, None]),
        ([i_sel, frame.column("s")], [None, ranks]),
    ):
        want = partial_aggregate(keys, _FUNCS, agg_arrays, m)
        got = partial_aggregate(keys, _FUNCS, agg_arrays, m, key_codes=codes)
        _assert_same_partial(got, want)


# -- execute_scan_task differential on a string table -------------------------------

N = 3000
_URLS = np.array([f"http://s{i % 7}.example/p{i % 13}" for i in range(91)], dtype=object)
_TERMS = np.array(["", "nul\x00", "tail\x00", "é", "日本", "q1", "q2 x"], dtype=object)


@pytest.fixture(scope="module")
def string_env():
    nodes = TopologySpec(1, 1, 4).addresses()
    hdfs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(hdfs, default=True)
    catalog = Catalog()
    rng = np.random.default_rng(12)
    columns = {
        "url": _URLS[rng.integers(0, len(_URLS), N)],
        "term": _TERMS[rng.integers(0, len(_TERMS), N)],
        "device": np.array(["desk", "mob"], dtype=object)[rng.integers(0, 2, N)],
        "clicks": rng.integers(0, 50, N).astype(np.int64),
        "dwell": rng.integers(0, 160, N) / 16.0,
    }
    schema = Schema.of(
        url=DataType.STRING,
        term=DataType.STRING,
        device=DataType.STRING,
        clicks=DataType.INT64,
        dwell=DataType.FLOAT64,
    )
    store_table("S", schema, columns, router, hdfs, block_rows=1000, catalog=catalog)
    return router, catalog, columns


STRING_QUERIES = [
    "SELECT url, COUNT(*) FROM S GROUP BY url",
    "SELECT term, SUM(clicks), MIN(dwell), MAX(clicks) FROM S WHERE url CONTAINS 's3' GROUP BY term",
    "SELECT device, term, COUNT(*), AVG(dwell) FROM S WHERE term != 'q1' GROUP BY device, term",
    "SELECT clicks, url, COUNT(*) FROM S WHERE clicks < 5 GROUP BY clicks, url",
    "SELECT url, COUNT(*) FROM S WHERE NOT url CONTAINS 'p1' AND term >= 'q' GROUP BY url",
    "SELECT term, COUNT(*) FROM S WHERE term = 'é' OR term < 'nul' GROUP BY term",
    "SELECT url, term FROM S WHERE term <= 'q1' AND url > 'http://s5' ORDER BY url LIMIT 9",
    "SELECT COUNT(*) FROM S WHERE device CONTAINS 'mo' OR LENGTH(url) > 22",
    "SELECT LOWER(device), COUNT(*) FROM S GROUP BY LOWER(device)",
]


@pytest.mark.parametrize("sql", STRING_QUERIES)
def test_string_scan_matches_fused_and_oracle(string_env, sql):
    router, catalog, columns = string_env
    plan = build_plan(analyze(parse(sql), catalog))
    blocks = [load_block(router, task.block) for task in plan.tasks]
    assert any(b.chunks["url"].dictionary_parts() is not None for b in blocks)
    unfused = [execute_scan_task(t, plan, b) for t, b in zip(plan.tasks, blocks)]
    fused = [execute_fused_scan_task(t, plan, b, morsel_rows=256) for t, b in zip(plan.tasks, blocks)]
    for u, f in zip(unfused, fused):
        for field in ("io_bytes", "io_seeks", "cpu_ops", "rows_matched", "rows_in_block"):
            assert getattr(u.report, field) == getattr(f.report, field), field
    got = finalize(plan, unfused).rows()
    assert got == finalize(plan, fused).rows()
    # Adaptive row slices: two slices per block answer the same query.
    sliced = []
    for task, block in zip(plan.tasks, blocks):
        mid = block.num_rows // 3
        for lo, hi in ((0, mid), (mid, block.num_rows)):
            part = dataclasses.replace(task, row_slice=(lo, hi))
            sliced.append(execute_scan_task(part, plan, block))
    if plan.is_aggregate:
        assert finalize(plan, sliced).rows() == got
    expected = reference_execute(sql, _row_dicts(columns))
    if "ORDER BY" not in sql:
        got, expected = sorted(got, key=repr), sorted(expected, key=repr)
    assert compare_rows(got, expected) is None
