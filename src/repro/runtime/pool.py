"""Shared process pools: one warm executor instead of pool-per-cell.

Spinning up a ``ProcessPoolExecutor`` costs fork/spawn plus management-
thread setup — milliseconds to hundreds of milliseconds per pool.  Both
heavy users of process pools in this library used to pay that price per
*unit of work*: every :class:`~repro.runtime.process_engine
.ProcessPoolEngine` built (and tore down) a private pool per run, so an
:class:`~repro.experiment.ExperimentSpec` sweep over process-engine
cells created one pool per cell; and every ``repro.run(parallel=N)``
call created a fresh fan-out pool.

This module keeps one long-lived executor per distinct
``(max_workers, start_method)`` configuration and hands it out to every
caller.  Pools are created lazily, never shut down between uses (the
interpreter's ``concurrent.futures`` atexit hook joins them at exit),
and evicted when broken so the next request gets a fresh one
(``tests/runtime/test_pool_reuse.py`` pins the reuse).
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "PoolKey",
    "shared_process_pool",
    "discard_shared_pool",
    "shutdown_shared_pools",
]

#: Identity of one shared pool: ``(max_workers, start_method, tag)``.
#: The ``tag`` partitions otherwise-identical configurations into
#: distinct warm pools — the serve cluster tags one pool per shard so
#: shard parallelism is process parallelism, not N shards contending
#: for one executor's workers.
PoolKey = tuple[int, str | None, str | None]

_pools: dict[PoolKey, ProcessPoolExecutor] = {}
_lock = threading.Lock()


def _make_pool(key: PoolKey) -> ProcessPoolExecutor:
    max_workers, start_method, _tag = key
    ctx = None
    if start_method is not None:
        import multiprocessing

        ctx = multiprocessing.get_context(start_method)
    return ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx)


def shared_process_pool(
    max_workers: int,
    start_method: str | None = None,
    tag: str | None = None,
) -> ProcessPoolExecutor:
    """The shared executor for ``(max_workers, start_method, tag)``.

    Created lazily on first request and reused by every subsequent
    caller with the same configuration.  Callers must *not* shut the
    returned executor down — use :func:`discard_shared_pool` (broken
    pool) or :func:`shutdown_shared_pools` (tests/teardown) instead.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    key: PoolKey = (max_workers, start_method, tag)
    with _lock:
        pool = _pools.get(key)
        if pool is None:
            pool = _pools[key] = _make_pool(key)
        return pool


def discard_shared_pool(
    max_workers: int,
    start_method: str | None = None,
    tag: str | None = None,
) -> None:
    """Drop (and shut down) one shared pool, e.g. after it broke.

    The next :func:`shared_process_pool` call for the same key builds a
    fresh executor.  A key that was never created is a no-op.
    """
    with _lock:
        pool = _pools.pop((max_workers, start_method, tag), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down and forget every shared pool (tests / explicit cleanup)."""
    with _lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)
