"""A compact Bloom filter.

The SmartIndex record format (Fig 6) carries a ``bloom`` field next to
the ``range`` statistics; block-level chunk statistics use the same
structure to prune equality and CONTAINS-candidate lookups without
touching the data.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

from repro.errors import StorageError


class BloomFilter:
    """Standard k-hash Bloom filter over arbitrary hashable values.

    Hashes are derived from blake2b digests so membership is stable
    across processes and runs (``hash()`` is salted per-process).
    """

    __slots__ = ("bits", "num_hashes", "num_bits", "count")

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < false_positive_rate < 1.0:
            raise StorageError("false positive rate must be in (0, 1)")
        num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
        self.num_bits = num_bits
        self.num_hashes = max(1, round(num_bits / expected_items * math.log(2)))
        self.bits = np.zeros((num_bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    def _positions(self, value: object) -> Iterable[int]:
        digest = _digest(value)
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, value: object) -> None:
        for pos in self._positions(value):
            self.bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def update(self, values: Iterable[object]) -> None:
        """Bulk :meth:`add`: every bit position first, then one scatter.

        ``(h1 + i*h2) mod m`` is computed as ``(h1 mod m + i*(h2 mod m))
        mod m`` so the uint64 arithmetic cannot overflow.
        """
        digests = b"".join(map(_digest, values))
        if not digests:
            return
        halves = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        m = np.uint64(self.num_bits)
        h1 = halves[:, 0] % m
        h2 = (halves[:, 1] | np.uint64(1)) % m
        steps = np.arange(self.num_hashes, dtype=np.uint64)
        positions = (h1[:, None] + steps[None, :] * h2[:, None]) % m
        hit = np.zeros(len(self.bits) * 8, dtype=np.bool_)
        hit[positions.ravel()] = True
        self.bits |= np.packbits(hit, bitorder="little")
        self.count += len(halves)

    def might_contain(self, value: object) -> bool:
        return all(self.bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(value))

    def size_bytes(self) -> int:
        return int(self.bits.nbytes)

    def to_bytes(self) -> bytes:
        header = self.num_bits.to_bytes(4, "little") + self.num_hashes.to_bytes(2, "little")
        return header + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        bf = cls.__new__(cls)
        bf.num_bits = int.from_bytes(payload[:4], "little")
        bf.num_hashes = int.from_bytes(payload[4:6], "little")
        bf.bits = np.frombuffer(payload[6:], dtype=np.uint8).copy()
        bf.count = 0
        return bf


def _digest(value: object) -> bytes:
    """Process-stable 16-byte hash of ``repr(value)``."""
    return hashlib.blake2b(repr(value).encode("utf-8"), digest_size=16).digest()
