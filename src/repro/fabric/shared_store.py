"""Content-addressed report store shared by every node of the fabric.

The store *is* a :class:`~repro.harness.cache.ReportCache` mounted at a
path every worker and the coordinator can reach (same host directory, or
a network mount for a real multi-host fleet).  Because entries are keyed
by the content hash of the full run configuration
(:func:`~repro.harness.cache.spec_key`) and every run is bit-for-bit
deterministic, there are no write conflicts to resolve: two workers
racing to publish the same key write byte-identical documents, and the
cache's tmp-file + rename writes make either one a valid entry.

What this wrapper adds on top of the raw cache:

- **digest re-verification on cross-node reads** — the cache already
  re-derives each report's digest on ``get`` and drops mismatches; the
  store surfaces a *verified* fetch that additionally checks the digest
  a remote node claimed, so a corrupt or truncated entry produced by
  another machine can never be served as that node's result;
- **counters** — hits / misses / verification failures, merged into the
  coordinator's registry so ``repro fabric status`` shows fleet-wide
  store effectiveness.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Union

from repro.harness.cache import CacheEntry, ReportCache
from repro.service.protocol import ERR_INTERNAL, ServiceError
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = ["SharedReportStore"]


class SharedReportStore:
    """A :class:`ReportCache` plus the fabric's verification contract."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.cache = ReportCache(self.root, self.metrics)

    def get(self, key: str) -> Optional[CacheEntry]:
        """A digest-self-consistent entry, or ``None`` (counted) on miss.

        ``ReportCache.get`` already re-derives the report digest and
        drops any entry that does not reproduce it, so a hit here is safe
        to serve no matter which node wrote the file.
        """
        entry = self.cache.get(key)
        if entry is None:
            self.metrics.counter("fabric.store_misses").inc()
        else:
            self.metrics.counter("fabric.store_hits").inc()
        return entry

    def fetch_verified(self, key: str, expect_digest: str) -> CacheEntry:
        """A cross-node read: the entry must carry the digest the owning
        worker reported, else the read fails loudly instead of silently
        serving a different (even if internally consistent) report."""
        entry = self.cache.get(key)
        if entry is None:
            self.metrics.counter("fabric.store_misses").inc()
            raise ServiceError(
                ERR_INTERNAL,
                f"shared store has no entry for key {key[:16]}…",
                details={"key": key},
            )
        if entry.digest != expect_digest:
            self.metrics.counter("fabric.store_verify_failures").inc()
            raise ServiceError(
                ERR_INTERNAL,
                "shared-store entry does not match the digest its worker "
                f"reported ({entry.digest[:12]} != {expect_digest[:12]})",
                details={"key": key, "stored": entry.digest, "expected": expect_digest},
            )
        self.metrics.counter("fabric.store_hits").inc()
        return entry

    def publish(self, key: str, entry: CacheEntry) -> None:
        """Write one completed run (used by in-process fabrics; worker
        daemons normally publish through their own cache handle)."""
        self.cache.put(key, entry.report, entry.wall_s)

    def info(self) -> dict:
        return self.cache.info()
