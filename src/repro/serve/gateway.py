"""The gateways: two front doors over any :class:`ServiceProtocol`.

* :class:`LocalGateway` — synchronous in-process front end (tests,
  benches, figures).
* :class:`ServeServer` — an asyncio JSON-lines-over-TCP gateway
  (``python -m repro.harness serve``); see :mod:`repro.serve.client`
  for the matching clients.

Both accept a single-node :class:`~repro.serve.TaskService` or a
sharded :class:`~repro.cluster.ClusterService` alike, and both check
the contract once, at construction.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..obs import start_span
from ..runtime.errors import ConfigError
from .contract import ServiceProtocol
from .jobs import JobReport, JobRequest
from .service import TaskService

__all__ = ["LocalGateway", "ServeServer"]

#: Longest request line the TCP gateway frames (asyncio's own default
#: stream limit, spelled out so the error frame can name it).
MAX_LINE_BYTES = 2**16


def _service_or_default(
    service: ServiceProtocol | None, kwargs: dict
) -> ServiceProtocol:
    """The service a gateway fronts: the one given — which must
    implement the whole contract — or a fresh :class:`TaskService`
    built from ``kwargs`` (which mean nothing beside a given one)."""
    if service is None:
        return TaskService(**kwargs)
    if kwargs:
        raise TypeError(
            f"unexpected keyword arguments {sorted(kwargs)}: service "
            "keywords only build the default TaskService"
        )
    if not isinstance(service, ServiceProtocol):
        raise ConfigError(
            f"{type(service).__name__} does not implement "
            "ServiceProtocol (see repro.serve.contract for the members)"
        )
    return service


class LocalGateway:
    """Synchronous in-process facade over any :class:`ServiceProtocol`.

    The test/bench front end: submit jobs, drain rounds, get reports —
    no sockets, no event loop.  Works identically over a single-node
    :class:`TaskService` and a sharded
    :class:`~repro.cluster.service.ClusterService`.
    """

    def __init__(
        self, service: ServiceProtocol | None = None, **kwargs
    ) -> None:
        self.service = _service_or_default(service, kwargs)

    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job (completed immediately when cache/rejection
        answers it; otherwise finished by the next :meth:`drain`)."""
        return self.service.submit(request)

    def submit_anytime(
        self, request: JobRequest | dict, *, on_round=None
    ) -> JobReport:
        """Run one anytime job to completion (see
        :meth:`TaskService.submit_anytime`)."""
        return self.service.submit_anytime(request, on_round=on_round)

    def drain(self) -> int:
        """Run execution rounds until the queue is empty."""
        rounds = 0
        while self.service.pending_jobs:
            self.service.flush()
            rounds += 1
        return rounds

    def submit_many(
        self, requests: list[JobRequest | dict]
    ) -> list[JobReport]:
        """Submit a stream of jobs and run it to completion."""
        reports = [self.service.submit(r) for r in requests]
        self.drain()
        return reports

    def stats(self) -> dict:
        return self.service.stats()

    def close(self):
        return self.service.close()

    def __enter__(self) -> "LocalGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class ServeServer:
    """Asyncio JSON-lines-over-TCP gateway around any
    :class:`ServiceProtocol` (a :class:`TaskService` by default).

    Protocol: one JSON object per line.

    * ``{"op": "submit", "tenant": ..., "kernel": ..., "args": {...},
      "ratio": 0.8}`` → ``{"ok": true, "job": {...}}`` once the job
      settles (cache/rejection immediately; executed jobs after their
      round).
    * ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}``
    * ``{"op": "metrics"}`` → ``{"ok": true, "metrics": {...}}`` (the
      registry's stable-JSON snapshot); ``{"op": "metrics", "format":
      "prometheus"}`` → ``{"ok": true, "text": "..."}`` in Prometheus
      text exposition format.  Scrapes run on the worker thread, so
      they are serialized against rounds and reconcile with reports.
    * ``{"op": "ping"}`` → ``{"ok": true, "pong": true}``

    All service state is touched from a single worker thread (the
    scheduler is not thread-safe); the event loop only parses frames
    and parks submitters on futures.

    Rounds are work-conserving: a round starts the moment a job is
    queued and the service thread is free — there is no timer and no
    batching knob.  Batches form by themselves, group-commit style,
    from whatever was submitted while the previous round ran, so a
    lone job pays no wait and a burst still shares rounds.

    A request line longer than :data:`MAX_LINE_BYTES` (64 KiB) is
    answered with one error frame and the connection is closed.
    """

    def __init__(
        self,
        service: ServiceProtocol | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ) -> None:
        self.service = _service_or_default(service, service_kwargs)
        self.host = host
        self.port = port
        self._server = None
        self._flusher = None
        self._executor = None
        self._futures: dict[str, Any] = {}
        self._wake = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._flusher = asyncio.ensure_future(self._flush_loop())
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        # Waiters still parked on queued jobs get an error frame, not a
        # connection that silently hangs until their socket timeout.
        self._fail_pending(RuntimeError("serve gateway shut down"))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _fail_pending(self, exc: BaseException) -> None:
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(exc)

    async def _call(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _round_sync(self) -> tuple[list[JobReport], bool]:
        """Worker-thread round: its reports, and whether jobs are still
        queued behind it (``max_batch`` caps a round).  Like
        :meth:`_submit_sync`, the snapshot is taken here because the
        event loop must not read service state."""
        reports = self.service.flush()
        return reports, self.service.pending_jobs > 0

    async def _flush_loop(self) -> None:
        while True:
            await self._wake.wait()
            # Clear before the round: a job queued while it runs sets
            # the event again and gets the next round.  Submits hop
            # through the same one-thread executor, so every job
            # submitted while a round runs is queued before the next
            # one starts — that is where batches come from.
            self._wake.clear()
            try:
                reports, more = await self._call(self._round_sync)
            except Exception as exc:
                # A failing round (e.g. a broken process pool) must
                # not kill the flusher silently and wedge every
                # waiter: fail the parked submitters — their
                # dispatch coroutines turn this into error frames —
                # and keep serving.
                self._fail_pending(exc)
                continue
            if more:
                self._wake.set()
            for report in reports:
                future = self._futures.pop(report.job_id, None)
                if future is not None and not future.done():
                    future.set_result(report)

    # -- connection handling ----------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline() raises ValueError for a line over the
                    # stream limit, after discarding part of it: the
                    # rest of the stream cannot be re-framed, so answer
                    # once and hang up.
                    await self._send(
                        writer,
                        {
                            "ok": False,
                            "error": "request line exceeds "
                            f"{MAX_LINE_BYTES} bytes",
                        },
                    )
                    break
                if not line:
                    break
                await self._send(writer, await self._dispatch(line))
        finally:
            writer.close()

    @staticmethod
    async def _send(writer, response: dict) -> None:
        writer.write((json.dumps(response) + "\n").encode("utf-8"))
        await writer.drain()

    def _submit_sync(self, request: JobRequest) -> tuple[JobReport, bool]:
        """Worker-thread submit returning a queued-ness snapshot.

        The snapshot is taken on the service thread, where it is
        serialized against flush rounds — the event loop must never
        read ``report.status`` while a round may be mutating it.
        Anytime-shaped requests run their rounds right here on the
        service thread and come back settled (never queued).
        """
        if request.anytime:
            return self.service.submit_anytime(request), False
        report = self.service.submit(request)
        return report, report.status == "queued"

    async def _dispatch(self, line: bytes) -> dict:
        try:
            message = json.loads(line)
            op = message.get("op", "submit")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                stats = await self._call(self.service.stats)
                return {"ok": True, "stats": stats}
            if op == "metrics":
                fmt = message.get("format", "json")
                as_text = fmt in ("prometheus", "text")
                body = await self._call(
                    self.service.metrics_text
                    if as_text
                    else self.service.metrics_snapshot
                )
                return {"ok": True, ("text" if as_text else "metrics"): body}
            if op != "submit":
                return {"ok": False, "error": f"unknown op {op!r}"}
            payload = {
                k: v for k, v in message.items() if k != "op"
            }
            request = JobRequest.from_dict(payload)
            if request.job_id in self._futures:
                return {
                    "ok": False,
                    "error": f"job id {request.job_id!r} is already "
                    "in flight on this gateway",
                }
            # The gateway is the outermost instrumented layer: a
            # request arriving without a trace gets its root span here,
            # covering the full wire-to-settled wall time of the op.
            recorder = self.service.span_recorder
            gspan = None
            if recorder is not None and request.trace_id is None:
                gspan = start_span(
                    "gateway.request",
                    tenant=request.tenant,
                    job=request.job_id,
                    op="submit",
                )
                request.trace_id = gspan.trace_id
                request.parent_span = gspan.span_id
            # Register the waiter *before* the service sees the job:
            # the flusher may settle the round (and try to resolve the
            # future) before this coroutine gets scheduled again.
            future = asyncio.get_running_loop().create_future()
            self._futures[request.job_id] = future
            try:
                report, queued = await self._call(
                    self._submit_sync, request
                )
                if queued:
                    self._wake.set()
                    report = await future
                else:
                    self._futures.pop(request.job_id, None)
            except BaseException:
                self._futures.pop(request.job_id, None)
                raise
            if gspan is not None:
                gspan.end(
                    recorder, status=report.status, code=report.code
                )
            return {"ok": report.ok, "job": report.to_dict()}
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
