"""Column encodings: plain, run-length, dictionary, bit-packed.

Feisu "organizes data sets into partitions using a compression-friendly
columnar format" (§I).  Each column chunk in a block is stored under one
of these encodings; :func:`choose_encoding` picks the cheapest one for an
array, which is the "compression-friendly" property the paper relies on.

All codecs are self-describing round-trippers::

    payload = codec.encode(array)
    array2  = codec.decode(payload, len(array))
    assert (array == array2).all()

Strings travel as UTF-8 with an offsets vector; numerics as little-endian
numpy buffers.  Every ``decode`` accepts any bytes-like payload, including
a ``memoryview`` slice of a stored block (:meth:`Block.from_bytes` parses
without copying chunk payloads).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.columnar.schema import DataType
from repro.errors import StorageError

_U32 = "<I"
_U32_SIZE = 4
#: Bytes covering a plain numeric chunk's ``n<dtype>\x00`` header.
_DTYPE_HEAD = 32


def _pack_strings(values: Sequence[str]) -> bytes:
    """Offsets + concatenated UTF-8 payload."""
    blobs = [v.encode("utf-8") for v in values]
    out = [struct.pack(_U32, len(blobs))]
    offset = 0
    for b in blobs:
        offset += len(b)
        out.append(struct.pack(_U32, offset))
    out.extend(blobs)
    return b"".join(out)


def _unpack_strings(payload: bytes) -> np.ndarray:
    (count,) = struct.unpack_from(_U32, payload, 0)
    data_start = _U32_SIZE * (count + 1)
    ends = np.frombuffer(payload, dtype="<u4", count=count, offset=_U32_SIZE).tolist()
    starts = [0] + ends[:-1]
    # ``payload`` may be a memoryview of a stored block (zero-copy parse);
    # the string bytes are copied once here to be decoded.
    data = bytes(payload[data_start:])
    if data.isascii():
        # One decode, then str slices: ASCII byte offsets are char offsets.
        text = data.decode("ascii")
        values = [text[a:b] for a, b in zip(starts, ends)]
    else:
        values = [data[a:b].decode("utf-8") for a, b in zip(starts, ends)]
    arr = np.empty(count, dtype=object)
    arr[:] = values
    return arr


def _is_string(array: np.ndarray) -> bool:
    return array.dtype == object


class Encoding:
    """Base codec.  Subclasses set :attr:`tag` (one byte on the wire)."""

    tag: int = -1
    name: str = "base"

    def encode(self, array: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        raise NotImplementedError

    def encoded_size(self, array: np.ndarray) -> int:
        """Size estimate used by :func:`choose_encoding` (exact here)."""
        return len(self.encode(array))


class PlainEncoding(Encoding):
    """Raw little-endian buffer (strings: offsets + UTF-8)."""

    tag = 0
    name = "plain"

    def encode(self, array: np.ndarray) -> bytes:
        if _is_string(array):
            return b"s" + _pack_strings(list(array))
        return b"n" + array.dtype.str.encode() + b"\x00" + array.tobytes()

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        view = self.decode_view(payload, count)
        if view is None:
            return _unpack_strings(payload[1:])
        return view.copy()  # decouple from the payload buffer

    def decode_view(self, payload: bytes, count: int) -> Optional[np.ndarray]:
        """Zero-copy read-only view of a numeric chunk (None for strings).

        Lets the fused pipeline gather a handful of matching payload rows
        without materializing (and copying) the whole column first; any
        fancy-indexed gather off the view is a fresh writable array.
        ``frombuffer`` with an explicit offset avoids slicing (copying)
        the multi-megabyte payload just to skip the tiny header.
        """
        head = bytes(payload[:_DTYPE_HEAD])
        if head[:1] == b"s":
            return None
        sep = head.index(b"\x00", 1)
        dtype = np.dtype(head[1:sep].decode())
        return np.frombuffer(payload, dtype=dtype, count=count, offset=sep + 1)


class RunLengthEncoding(Encoding):
    """(run_length, value) pairs — wins on sorted or low-churn columns."""

    tag = 1
    name = "rle"

    def encode(self, array: np.ndarray) -> bytes:
        values, lengths = run_length_split(array)
        plain = PlainEncoding()
        vbytes = plain.encode(values)
        lbytes = np.asarray(lengths, dtype=np.uint32).tobytes()
        return struct.pack(_U32, len(lengths)) + struct.pack(_U32, len(vbytes)) + vbytes + lbytes

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        nruns, vlen = struct.unpack_from(_U32 + "I", payload, 0)
        vbytes = payload[8 : 8 + vlen]
        lengths = np.frombuffer(payload[8 + vlen :], dtype=np.uint32, count=nruns)
        values = PlainEncoding().decode(vbytes, nruns)
        return np.repeat(values, lengths)


class DictionaryEncoding(Encoding):
    """Distinct values + integer codes — wins on low-cardinality columns."""

    tag = 2
    name = "dictionary"

    def encode(self, array: np.ndarray) -> bytes:
        if _is_string(array):
            # Python-level uniquing in first-appearance order: numpy's
            # fixed-width unicode arrays silently strip trailing NULs, and
            # ``np.unique`` on object arrays sorts Python strings (slower).
            mapping: dict = {}
            codes = np.fromiter(
                (mapping.setdefault(v, len(mapping)) for v in array),
                dtype=np.uint32,
                count=len(array),
            )
            uarr = np.empty(len(mapping), dtype=object)
            uarr[:] = list(mapping)
        else:
            uarr, codes = np.unique(array, return_inverse=True)
        plain = PlainEncoding()
        ubytes = plain.encode(uarr)
        cbytes = np.asarray(codes, dtype=np.uint32).tobytes()
        return (
            struct.pack(_U32, len(uarr)) + struct.pack(_U32, len(ubytes)) + ubytes + cbytes
        )

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        uarr, codes = self.decode_parts(payload, count)
        return uarr[codes]

    def decode_parts(self, payload: bytes, count: int) -> "Tuple[np.ndarray, np.ndarray]":
        """``(uniques, codes)`` without materializing the full column.

        ``decode()`` is exactly ``uniques[codes]``, so an elementwise
        predicate can be answered on the (tiny) unique set and mapped
        through the codes, and a selective gather of rows ``r`` is
        ``uniques[codes[r]]`` — the fused pipeline's decode-avoidance
        path.  ``codes`` is a read-only view over the payload buffer
        (no multi-megabyte byte-slice copy).
        """
        nuniq, ulen = struct.unpack_from(_U32 + "I", payload, 0)
        uarr = PlainEncoding().decode(payload[8 : 8 + ulen], nuniq)
        codes = np.frombuffer(payload, dtype=np.uint32, count=count, offset=8 + ulen)
        return uarr, codes


class DeltaEncoding(Encoding):
    """First value + run-length-encoded deltas — wins on sorted or
    near-arithmetic integer columns (timestamps, sequence ids).

    Deltas use wrapping int64 arithmetic, so the cumulative-sum decode is
    exact even when differences overflow (modular inverse).
    """

    tag = 4
    name = "delta"

    def encode(self, array: np.ndarray) -> bytes:
        if not np.issubdtype(array.dtype, np.integer):
            raise StorageError("delta encoding requires an integer array")
        if len(array) == 0:
            return struct.pack("<q", 0) + RunLengthEncoding().encode(array)
        with np.errstate(over="ignore"):
            deltas = np.diff(array.astype(np.int64))
        first = struct.pack("<q", int(array[0]))
        return first + RunLengthEncoding().encode(deltas)

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        (first,) = struct.unpack_from("<q", payload, 0)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        deltas = RunLengthEncoding().decode(payload[8:], count - 1)
        out = np.empty(count, dtype=np.int64)
        out[0] = first
        if count > 1:
            with np.errstate(over="ignore"):
                np.cumsum(deltas, out=out[1:])
                out[1:] += first
        return out


class BitPackedEncoding(Encoding):
    """One bit per value — for BOOL columns (and SmartIndex vectors)."""

    tag = 3
    name = "bitpacked"

    def encode(self, array: np.ndarray) -> bytes:
        if array.dtype != np.bool_:
            raise StorageError("bit-packing requires a boolean array")
        return np.packbits(array).tobytes()

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)
        return bits.astype(np.bool_)


_CODECS: Dict[int, Encoding] = {
    c.tag: c
    for c in (
        PlainEncoding(),
        RunLengthEncoding(),
        DictionaryEncoding(),
        BitPackedEncoding(),
        DeltaEncoding(),
    )
}


def codec_by_tag(tag: int) -> Encoding:
    try:
        return _CODECS[tag]
    except KeyError:
        raise StorageError(f"unknown encoding tag {tag}") from None


def run_length_split(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split an array into (run values, run lengths)."""
    n = len(array)
    if n == 0:
        return array[:0], np.empty(0, dtype=np.uint32)
    if _is_string(array):
        change = np.ones(n, dtype=bool)
        change[1:] = array[1:] != array[:-1]
    else:
        change = np.concatenate(([True], array[1:] != array[:-1]))
    starts = np.flatnonzero(change)
    lengths = np.diff(np.concatenate((starts, [n]))).astype(np.uint32)
    return array[starts], lengths


def choose_encoding(array: np.ndarray, dtype: DataType) -> Encoding:
    """Pick the smallest applicable codec for the array.

    Booleans always bit-pack.  For other types we compare plain size
    against cheap analytic estimates of RLE and dictionary sizes, so we
    avoid actually encoding three times.
    """
    if dtype is DataType.BOOL:
        return _CODECS[BitPackedEncoding.tag]
    n = len(array)
    if n == 0:
        return _CODECS[PlainEncoding.tag]
    values, lengths = run_length_split(array)
    nruns = len(values)
    if dtype is DataType.STRING:
        avg = sum(len(str(v)) for v in array[: min(n, 64)]) / min(n, 64) + _U32_SIZE
        plain_size = n * avg
        uniq = len(set(array[: min(n, 4096)].tolist()))
        dict_size = uniq * avg + n * 4
        rle_size = nruns * avg + nruns * 4
    else:
        item = array.dtype.itemsize
        plain_size = n * item
        uniq = len(np.unique(array[: min(n, 4096)]))
        dict_size = uniq * item + n * 4
        rle_size = nruns * item + nruns * 4
    candidates = [
        (plain_size, PlainEncoding.tag),
        (dict_size, DictionaryEncoding.tag),
        (rle_size, RunLengthEncoding.tag),
    ]
    if dtype is DataType.INT64 and n > 1:
        with np.errstate(over="ignore"):
            deltas = np.diff(array.astype(np.int64))
        _dv, dlen = run_length_split(deltas)
        delta_size = 8 + len(_dv) * array.dtype.itemsize + len(dlen) * 4
        candidates.append((delta_size, DeltaEncoding.tag))
    best = min(candidates)
    return _CODECS[best[1]]
