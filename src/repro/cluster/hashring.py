"""Consistent hashing: stable job/cache placement across serve shards.

The cluster routes every job — and owns every cache entry — by position
on a consistent-hash ring.  Each shard contributes ``replicas`` virtual
nodes; a key is served by the first virtual node clockwise from its hash
point.  Two properties make this the right router for a sharded service:

* **Stability** — the hash is content-derived (SHA-1 of the key bytes),
  never Python's salted ``hash()``, so the same key lands on the same
  shard in every process, on every host, across restarts.  That is what
  lets a frontend, a bench probe and a test agree on placement without
  talking to each other.
* **Bounded remapping** — adding or removing one shard remaps only the
  keys whose clockwise successor changed: an expected ``1/n`` of the key
  space, not all of it.  A shard joining (or dying) therefore invalidates
  one shard's worth of cache locality, not the whole cluster's
  (``tests/cluster/test_hashring.py`` pins the bound).

Placement keys: jobs route by ``(tenant, kernel, args-digest)`` so a
tenant's identical work coalesces in one shard's admission rounds; cache
entries are owned by ``(kernel, args-digest)`` — tenant-independent, so
a degraded answer computed for one tenant serves every tenant's
read-through lookups (see :mod:`repro.cluster.cache`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from ..runtime.errors import ConfigError

__all__ = ["stable_hash", "job_key", "cache_key", "HashRing"]

#: Virtual nodes per shard.  128 keeps the max/mean load skew of a
#: handful of shards low enough that near-linear scaling survives
#: routing (``tests/cluster/test_cluster_figure.py`` checks the end
#: result).
DEFAULT_REPLICAS = 128


def stable_hash(key: str) -> int:
    """64-bit content hash of ``key`` — identical on every host.

    Python's builtin ``hash`` is salted per process
    (``PYTHONHASHSEED``); routing on it would shuffle the cluster every
    restart and unglue the cache from its owners.
    """
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def job_key(tenant: str, kernel: str, digest: str) -> str:
    """Ring key of one job: identical work of one tenant co-locates."""
    return f"{tenant}\x1f{kernel}\x1f{digest}"


def cache_key(kernel: str, digest: str) -> str:
    """Ring key of one cache entry: tenant-independent ownership."""
    return f"{kernel}\x1f{digest}"


class HashRing:
    """A consistent-hash ring over shard identifiers.

    >>> ring = HashRing(range(4))
    >>> owner = ring.lookup(job_key("acme", "sobel", "ab12"))  # stable
    >>> ring.remove(owner)        # only that shard's keys remap
    """

    def __init__(
        self,
        shards: Iterable[int | str] = (),
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ConfigError(
                f"ring replicas must be >= 1, got {replicas}"
            )
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, int | str] = {}
        self._shards: set[int | str] = set()
        for shard in shards:
            self.add(shard)

    # -- membership ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: int | str) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> list[int | str]:
        """Current members, sorted for deterministic iteration."""
        return sorted(self._shards, key=str)

    def add(self, shard: int | str) -> None:
        """Join one shard (``replicas`` virtual nodes)."""
        if shard in self._shards:
            raise ConfigError(f"shard {shard!r} is already on the ring")
        self._shards.add(shard)
        for r in range(self.replicas):
            point = stable_hash(f"{shard}\x1f#{r}")
            # SHA-1 collisions across distinct vnode labels are
            # astronomically unlikely; first-writer-wins keeps the ring
            # deterministic if one ever occurs.
            if point not in self._owners:
                self._owners[point] = shard
                bisect.insort(self._points, point)

    def remove(self, shard: int | str) -> None:
        """Leave (shard death): its arcs fall to clockwise successors."""
        if shard not in self._shards:
            raise ConfigError(f"shard {shard!r} is not on the ring")
        self._shards.discard(shard)
        self._points = [
            p for p in self._points if self._owners[p] != shard
        ]
        self._owners = {
            p: s for p, s in self._owners.items() if s != shard
        }

    # -- lookup ----------------------------------------------------------
    def lookup(self, key: str) -> int | str:
        """The shard owning ``key`` (first vnode clockwise)."""
        if not self._points:
            raise ConfigError("lookup on an empty hash ring")
        point = stable_hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past 12 o'clock
        return self._owners[self._points[index]]

    def spread(self, keys: Iterable[str]) -> dict[int | str, int]:
        """Keys per shard — load-balance introspection for tests."""
        counts: dict[int | str, int] = {s: 0 for s in self._shards}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HashRing {len(self._shards)} shards x "
            f"{self.replicas} replicas>"
        )
