"""Independent answers for the benchmark's query shapes.

The benchmark only issues a few query shapes (see ``workloads``)::

    SELECT <cols | agg(col) | COUNT(*)>[, ...] FROM T1
        [JOIN D ON T1.province = D.province]
        [WHERE (atom) AND (atom) ...] [GROUP BY key]

with atoms ``col OP int`` or ``col CONTAINS 'needle'``.  This module
answers them straight from the generated numpy columns, sharing no code
with the engine beyond the column arrays themselves, and compares
results as unordered row multisets with a float tolerance.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_QUERY = re.compile(
    r"^SELECT (?P<items>.+?) FROM (?P<table>\w+)"
    r"(?: JOIN (?P<dim>\w+) ON (?P<lkey>[\w.]+) = (?P<rkey>[\w.]+))?"
    r"(?: WHERE (?P<where>.+?))?"
    r"(?: GROUP BY (?P<group>[\w.]+))?$"
)
_ATOM = re.compile(r"^\((?P<col>[\w.]+) (?P<op>CONTAINS|>=|<=|=|>|<) (?P<val>'[^']*'|-?\d+)\)$")
_AGG = re.compile(r"^(?P<func>COUNT|SUM|AVG|MIN|MAX)\((?P<arg>\*|[\w.]+)\)$")

#: Relative/absolute tolerance for floating-point answers.
RTOL = 1e-9
ATOL = 1e-6


def _bare(name: str) -> str:
    return name.split(".", 1)[1] if "." in name else name


class Reference:
    """Row-multiset answers over the benchmark's generated tables."""

    def __init__(
        self,
        tables: Dict[str, Dict[str, np.ndarray]],
        strings: Optional[Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]]] = None,
    ):
        """``strings`` optionally gives string columns as the distinct
        ``(values, codes)`` they were generated from (``values[codes]``
        is the column); other columns are factorized on first use."""
        self.tables = tables
        self._masks: Dict[Tuple[str, str], np.ndarray] = {}
        self._uniques: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = {
            (table, col): pair
            for table, cols in (strings or {}).items()
            for col, pair in cols.items()
        }
        self._answers: Dict[str, List[np.ndarray]] = {}
        #: Integer aggregates over zero rows answered 0 instead of NULL.
        self.int_nulls = 0

    def _unique(self, table: str, col: str):
        key = (table, col)
        if key not in self._uniques:
            self._uniques[key] = np.unique(self.tables[table][col], return_inverse=True)
        return self._uniques[key]

    def _atom(self, table: str, text: str) -> np.ndarray:
        key = (table, text)
        if key in self._masks:
            return self._masks[key]
        m = _ATOM.match(text)
        if m is None:
            raise ValueError(f"unsupported predicate {text!r}")
        col, op, val = _bare(m["col"]), m["op"], m["val"]
        if op == "CONTAINS":
            uniques, inverse = self._unique(table, col)
            needle = val[1:-1]
            mask = np.array([needle in u for u in uniques], dtype=bool)[inverse]
        else:
            data = self.tables[table][col]
            v = int(val)
            mask = {
                "=": data == v,
                ">": data > v,
                "<": data < v,
                ">=": data >= v,
                "<=": data <= v,
            }[op]
        self._masks[key] = mask
        return mask

    def answer(self, sql: str) -> List[np.ndarray]:
        """The expected output columns of ``sql``, in SELECT order."""
        answer = self._answers.get(sql)
        if answer is None:
            answer = self._evaluate(sql)
            if _rows(answer) <= LARGE_ROWS:  # projections are cheap to redo
                self._answers[sql] = answer
        return answer

    def _evaluate(self, sql: str) -> List[np.ndarray]:
        m = _QUERY.match(sql)
        if m is None:
            raise ValueError(f"unsupported query shape {sql!r}")
        table = m["table"]
        cols = self.tables[table]
        n = len(next(iter(cols.values())))
        mask = np.ones(n, dtype=bool)
        if m["where"]:
            for atom in m["where"].split(" AND "):
                mask &= self._atom(table, atom)
        view = dict(cols)
        #: String columns of ``view`` as ``(distinct values, row codes)``.
        coded = {c: self._uniques[table, c] for c in cols if (table, c) in self._uniques}
        if m["dim"]:
            dim = self.tables[m["dim"]]
            lkey, rkey = _bare(m["lkey"]), _bare(m["rkey"])
            index = {k: i for i, k in enumerate(dim[rkey])}
            uniques, inverse = self._unique(table, lkey)
            rows = np.array([index.get(u, -1) for u in uniques])[inverse]
            mask &= rows >= 0
            rows = np.maximum(rows, 0)
            for name, values in dim.items():
                qualified = f"{m['dim']}.{name}"
                view[qualified] = values[rows]
                distinct, dim_codes = np.unique(values, return_inverse=True)
                coded[qualified] = (distinct, dim_codes[rows])
        items = [s.strip() for s in m["items"].split(", ")]
        aggs = [_AGG.match(item) for item in items]
        if not any(aggs):
            return [self._column(view, item)[mask] for item in items]
        return self._aggregate(view, coded, mask, items, aggs, m["group"])

    @staticmethod
    def _column(view: Dict[str, np.ndarray], name: str):
        return view[name] if name in view else view[_bare(name)]

    def _aggregate(self, view, coded, mask, items, aggs, group: Optional[str]):
        if group is None:
            inverse = np.zeros(int(mask.sum()), dtype=np.int64)
            keys = None
            ngroups = 1
        else:
            values, codes = self._column(coded, group)
            present, inverse = np.unique(codes[mask], return_inverse=True)
            keys = values[present]
            ngroups = len(keys)
        counts = np.bincount(inverse, minlength=ngroups)
        out: List[np.ndarray] = []
        for item, agg in zip(items, aggs):
            if agg is None:
                out.append(keys)
                continue
            func, arg = agg["func"], agg["arg"]
            if func == "COUNT":
                out.append(counts.astype(np.float64))
                continue
            values = self._column(view, arg)[mask]
            if func in ("SUM", "AVG"):
                sums = np.bincount(inverse, weights=values.astype(np.float64), minlength=ngroups)
                col = sums if func == "SUM" else sums / np.maximum(counts, 1)
            else:
                col = np.full(ngroups, np.inf if func == "MIN" else -np.inf)
                ufunc = np.minimum if func == "MIN" else np.maximum
                ufunc.at(col, inverse, values.astype(np.float64))
            nulls = counts == 0
            if nulls.any() and func != "AVG" and values.dtype.kind in "iu":
                # The engine has no NULL for integer columns: an integer
                # SUM/MIN/MAX over zero rows comes back as 0, not NULL.
                # Accept that, but count it so it stays visible.
                self.int_nulls += int(nulls.sum())
                col = np.where(nulls, 0.0, col)
            else:
                col = np.where(nulls, np.nan, col)
            out.append(col)
        return out


# -- comparison -----------------------------------------------------------------

#: Results with more rows than this are projections (raw column values,
#: nothing computed), compared exactly through sorted row fingerprints;
#: smaller ones are compared row by row with the float tolerance.
LARGE_ROWS = 5_000
_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _normalize(col: np.ndarray) -> np.ndarray:
    """Strings stay objects; everything else becomes float64 with NULL
    (``None``) as NaN."""
    col = np.asarray(col)
    if col.dtype == object:
        if all(isinstance(v, str) for v in col):
            return col
        return np.array([np.nan if v is None else float(v) for v in col], dtype=np.float64)
    return col.astype(np.float64)


def canonical(columns: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Columns re-ordered into one canonical row order (unordered results)."""
    cols = [_normalize(c) for c in columns]
    if not cols or len(cols[0]) <= 1:
        return cols
    keys = [np.unique(c, return_inverse=True)[1] if c.dtype == object else c for c in cols]
    order = np.lexsort(keys[::-1])
    return [c[order] for c in cols]


def fingerprints(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted 64-bit row fingerprints: equal multisets of rows give equal
    arrays.  Strings hash through CRC-32, so the value is stable across
    processes."""
    fp = np.zeros(len(columns[0]), dtype=np.uint64)
    for j, c in enumerate(columns):
        c = _normalize(c)
        if c.dtype == object:
            uniques, inverse = np.unique(c, return_inverse=True)
            bits = np.array([zlib.crc32(u.encode()) for u in uniques], dtype=np.uint64)[inverse]
        else:
            bits = (c + 0.0).view(np.uint64)  # + 0.0 folds -0.0 into 0.0
        fp = (fp ^ bits) * _MIX[j % len(_MIX)] + np.uint64(j + 1)
    return np.sort(fp)


def _rows(columns: Sequence[np.ndarray]) -> int:
    return len(columns[0]) if len(columns) else 0


def mismatch(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> Optional[str]:
    """None when ``got`` equals ``want`` as row multisets, else a reason."""
    if len(got) != len(want):
        return f"{len(got)} columns, expected {len(want)}"
    if _rows(got) != _rows(want):
        return f"{_rows(got)} rows, expected {_rows(want)}"
    if _rows(got) > LARGE_ROWS:
        if not np.array_equal(fingerprints(got), fingerprints(want)):
            return "row values differ"
        return None
    for i, (x, y) in enumerate(zip(canonical(got), canonical(want))):
        if (x.dtype == object) != (y.dtype == object):
            return f"column {i}: type differs"
        if x.dtype == object:
            if not np.array_equal(x, y):
                return f"column {i}: values differ"
        elif not np.allclose(x, y, rtol=RTOL, atol=ATOL, equal_nan=True):
            return f"column {i}: values differ"
    return None


def digest_update(h: "hashlib._Hash", columns: Sequence[np.ndarray]) -> None:
    """Fold one result into a running answer digest (row order ignored;
    computed floats rounded to 6 decimals)."""
    if _rows(columns) > LARGE_ROWS:
        h.update(fingerprints(columns).tobytes())
    else:
        for c in canonical(columns):
            if c.dtype == object:
                h.update("\x1f".join(c).encode())
            else:
                h.update(np.round(c, 6).tobytes())
            h.update(b"\x1e")
    h.update(b"\x1d")
