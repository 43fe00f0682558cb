"""The cluster's approximate-result cache: one logical cache, N owners.

A degraded answer computed on shard 0 must serve a later identical
request routed anywhere — otherwise sharding would multiply the energy
spent producing approximations by the shard count.  The cluster gets
this with *ownership*, not replication: every ``(kernel, args-digest)``
has exactly one owning partition, chosen by the same consistent hash
the job router uses (:func:`repro.cluster.hashring.cache_key`), and all
shards read **through** to the owner.

* :class:`ShardedResultCache` — the cluster-level object: one
  :class:`~repro.serve.cache.ApproxResultCache` partition per shard,
  each behind its own lock (cross-shard read-throughs are the only
  contended path, and they contend per-partition, never globally).
* :class:`CacheView` — the per-shard facade handed to each shard's
  :class:`~repro.serve.TaskService` as its ``cache``.  It
  duck-types ``ApproxResultCache`` (``get`` / ``get_degraded`` /
  ``put`` / ``stats``), so the serve layer's admission and settle paths
  run unchanged; routing happens underneath.

Shard death: :meth:`ShardedResultCache.mark_dead` removes the shard
from the cache ring and forgets its partition (a dead shard's memory is
gone).  Keys it owned remap to clockwise successors — which have never
seen them — so the next lookup misses and the job **recomputes** rather
than erroring; an expected ``1/n`` of the working set pays that price,
the rest keeps hitting (``tests/cluster/test_cluster_cache.py``).
"""

from __future__ import annotations

import threading

from ..runtime.errors import ConfigError
from ..serve.cache import ApproxResultCache, CacheEntry, CacheStats, _ratio_key
from .hashring import HashRing, cache_key

__all__ = ["ShardedResultCache", "CacheView"]


class ShardedResultCache:
    """One logical result cache partitioned across serve shards."""

    def __init__(
        self,
        shards,
        *,
        capacity_per_shard: int = 128,
        replicas: int | None = None,
        metrics=None,
    ) -> None:
        shard_list = list(shards)
        if not shard_list:
            raise ConfigError("sharded cache needs at least one shard")
        ring_kwargs = {} if replicas is None else {"replicas": replicas}
        self.ring = HashRing(shard_list, **ring_kwargs)
        # One registry across partitions: the counters are per-thread
        # sharded, so all partitions incrementing the same series from
        # their worker threads merges cleanly on read.
        self._partitions: dict = {
            shard: ApproxResultCache(capacity_per_shard, metrics=metrics)
            for shard in shard_list
        }
        self._locks: dict = {
            shard: threading.Lock() for shard in shard_list
        }
        #: Shards removed by :meth:`mark_dead` (reporting only — the
        #: ring no longer routes to them).
        self.dead: set = set()
        #: Lookups that had to recompute because their old owner died
        #: and the successor had not seen the key yet show up as plain
        #: misses; this counts explicit mark_dead events instead.
        self.deaths = 0

    # -- membership ------------------------------------------------------
    @property
    def shards(self) -> list:
        return self.ring.shards

    def mark_dead(self, shard) -> None:
        """Shard death: drop its partition, remap its arcs (see module
        docstring).  Lookups that land on the successors simply miss."""
        self.ring.remove(shard)  # raises ConfigError if not a member
        if len(self.ring) == 0:
            # Put the shard back: a cluster cache with no owners can
            # serve nothing, which the caller surely did not mean.
            self.ring.add(shard)
            raise ConfigError(
                "cannot mark the last live cache shard dead"
            )
        with self._locks[shard]:
            self._partitions[shard].clear()
        self.dead.add(shard)
        self.deaths += 1

    def owner(self, kernel: str, digest: str):
        """The live shard owning ``(kernel, digest)``."""
        return self.ring.lookup(cache_key(kernel, digest))

    # -- routed operations ----------------------------------------------
    def get(
        self, kernel: str, digest: str, ratio: float
    ) -> CacheEntry | None:
        shard = self.owner(kernel, digest)
        with self._locks[shard]:
            return self._partitions[shard].get(kernel, digest, ratio)

    def get_degraded(
        self,
        kernel: str,
        digest: str,
        max_ratio: float,
        min_ratio: float = 0.0,
    ) -> CacheEntry | None:
        shard = self.owner(kernel, digest)
        with self._locks[shard]:
            return self._partitions[shard].get_degraded(
                kernel, digest, max_ratio, min_ratio
            )

    def put(
        self,
        kernel: str,
        digest: str,
        ratio: float,
        output,
        quality: float | None = None,
        energy_j: float = 0.0,
    ) -> CacheEntry:
        shard = self.owner(kernel, digest)
        with self._locks[shard]:
            return self._partitions[shard].put(
                kernel, digest, ratio, output,
                quality=quality, energy_j=energy_j,
            )

    # -- views and reporting ---------------------------------------------
    def view(self, shard) -> "CacheView":
        """The facade shard ``shard``'s TaskService uses as its cache."""
        if shard not in self._partitions:
            raise ConfigError(f"unknown cache shard {shard!r}")
        return CacheView(self, shard)

    def partition(self, shard) -> ApproxResultCache:
        """Direct partition access (tests and debugging)."""
        return self._partitions[shard]

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions.values())

    @property
    def stats(self) -> CacheStats:
        """Aggregate over partitions (traffic that *landed*, wherever
        it originated)."""
        total = CacheStats()
        for partition in self._partitions.values():
            s = partition.stats
            total.hits += s.hits
            total.degraded_hits += s.degraded_hits
            total.misses += s.misses
            total.evictions += s.evictions
            total.puts += s.puts
        return total

    def to_dict(self) -> dict:
        return {
            "shards": [str(s) for s in self.shards],
            "dead": sorted(str(s) for s in self.dead),
            "entries": len(self),
            "stats": self.stats.to_dict(),
            "per_shard": {
                str(shard): {
                    "entries": len(partition),
                    **partition.stats.to_dict(),
                }
                for shard, partition in sorted(
                    self._partitions.items(), key=lambda kv: str(kv[0])
                )
                if shard not in self.dead
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedResultCache {len(self.ring)} shards "
            f"{len(self)} entries>"
        )


class CacheView:
    """Per-shard facade over the cluster cache (see module docstring).

    Keeps its own :class:`~repro.serve.cache.CacheStats` counting the
    traffic *this shard originated* — that is what the shard's
    ``TaskService.stats()`` reports — while the underlying partitions
    count the traffic that landed on them.
    """

    def __init__(self, cluster: ShardedResultCache, shard) -> None:
        self.cluster = cluster
        self.shard = shard
        self.stats = CacheStats()
        #: Read-throughs answered by a partition this shard does not
        #: own — the cross-shard traffic the probe reports.
        self.remote_hits = 0

    def _count(
        self, kernel: str, digest: str, entry, max_ratio: float
    ) -> None:
        if entry is None:
            self.stats.misses += 1
            return
        if entry.ratio >= _ratio_key(max_ratio):
            self.stats.hits += 1
        else:
            self.stats.degraded_hits += 1
        if self.cluster.owner(kernel, digest) != self.shard:
            self.remote_hits += 1

    # -- the ApproxResultCache duck type ---------------------------------
    def get(
        self, kernel: str, digest: str, ratio: float
    ) -> CacheEntry | None:
        entry = self.cluster.get(kernel, digest, ratio)
        self._count(kernel, digest, entry, ratio)
        return entry

    def get_degraded(
        self,
        kernel: str,
        digest: str,
        max_ratio: float,
        min_ratio: float = 0.0,
    ) -> CacheEntry | None:
        entry = self.cluster.get_degraded(
            kernel, digest, max_ratio, min_ratio
        )
        self._count(kernel, digest, entry, max_ratio)
        return entry

    def put(
        self,
        kernel: str,
        digest: str,
        ratio: float,
        output,
        quality: float | None = None,
        energy_j: float = 0.0,
    ) -> CacheEntry:
        self.stats.puts += 1
        return self.cluster.put(
            kernel, digest, ratio, output,
            quality=quality, energy_j=energy_j,
        )

    def __len__(self) -> int:
        return len(self.cluster)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CacheView shard={self.shard!r}>"
