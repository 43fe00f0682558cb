"""``repro.cluster`` — the sharded multi-worker serving layer.

One :class:`~repro.cluster.service.ClusterService` runs N serve shards
(each a full :class:`~repro.serve.TaskService`), routes jobs by
consistent hash (:mod:`repro.cluster.hashring`), shares one logical
approximate-result cache (:mod:`repro.cluster.cache`) and enforces
cluster-wide lifetime energy budgets through chunked quota leases
(:mod:`repro.cluster.ledger`).  ``fig-cluster``
(:mod:`repro.cluster.figure`) is the acceptance figure; the
``serve_cluster`` bench probe gates the scaling and ledger-parity
claims in CI.
"""

from .cache import CacheView, ShardedResultCache
from .figure import ClusterFigData, fig_cluster
from .hashring import HashRing, cache_key, job_key, stable_hash
from .ledger import EnergyLedger, LedgerAccount, LedgerLease
from .service import ClusterService, ClusterSpec, ShardWorker

__all__ = [
    "HashRing",
    "stable_hash",
    "job_key",
    "cache_key",
    "EnergyLedger",
    "LedgerAccount",
    "LedgerLease",
    "ShardedResultCache",
    "CacheView",
    "ClusterSpec",
    "ShardWorker",
    "ClusterService",
    "ClusterFigData",
    "fig_cluster",
]
