"""Arithmetic helpers and a bounded memo used across the library."""

from __future__ import annotations

import collections
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` to the inclusive range ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo if value < lo else hi if value > hi else value


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Return ``log2(n)`` for a positive power of two ``n``."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` (a :class:`pathlib.Path`) through a temp
    file in the same directory and a rename: readers see the old content
    or the new, never a torn file.  The temp file is removed on *any*
    failure — an attempt on a full disk must not leave it fuller — and the
    error propagates (callers decide whether the write was best-effort).
    """
    import os
    import tempfile  # here, not at the top: every kernel run imports repro.util

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class LruMemo(Generic[K, V]):
    """A map that keeps its ``limit`` most recently used entries."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit
        self._items: collections.OrderedDict[K, V] = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: K) -> Optional[V]:
        """The value stored under ``key`` (now the most recent), or None."""
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        self._items[key] = value
        self._items.move_to_end(key)
        if len(self._items) > self.limit:
            self._items.popitem(last=False)

    def drop(self, key: K) -> None:
        self._items.pop(key, None)
