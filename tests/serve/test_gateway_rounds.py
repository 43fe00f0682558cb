"""``ServeServer`` rounds are work-conserving: no timer, no knob.

Driven against a fake :class:`ServiceProtocol` whose ``flush`` can be
held on an event, so every ordering below is forced, not timed: there
is no sleep and no wall-clock reading in this file (the ``TIMEOUT`` on
each wait only turns a hang into a failure).
"""

import asyncio
import json
import threading

import pytest

from repro.serve import JobReport, ServeServer, TaskService

TIMEOUT = 30


class GatedService:
    """Queues on ``submit``; ``flush`` settles the whole queue as one
    round — after waiting for ``gate`` when one is installed, and by
    raising when ``explode`` is set."""

    metrics = None
    span_recorder = None

    def __init__(self) -> None:
        self._queue: list[JobReport] = []
        #: Job ids of every settled round, in order.
        self.round_log: list[list[str]] = []
        self.gate: threading.Event | None = None
        self.in_round = threading.Event()
        self.explode = False

    def submit(self, request) -> JobReport:
        report = JobReport(
            job_id=request.job_id,
            tenant=request.tenant,
            kernel=request.kernel,
        )
        self._queue.append(report)
        return report

    def flush(self) -> list[JobReport]:
        batch, self._queue = self._queue, []
        if not batch:
            return []
        self.in_round.set()
        if self.gate is not None:
            assert self.gate.wait(TIMEOUT)
        if self.explode:
            self.explode = False
            raise RuntimeError("round exploded")
        for report in batch:
            report.status, report.code = "executed", 200
        self.round_log.append([r.job_id for r in batch])
        return batch

    @property
    def pending_jobs(self) -> int:
        return len(self._queue)

    @property
    def rounds(self) -> int:
        return len(self.round_log)

    def submit_anytime(self, request, *, on_round=None):
        raise NotImplementedError

    def stats(self) -> dict:
        return {}

    def collect(self) -> None:
        pass

    def metrics_snapshot(self) -> dict:
        return {}

    def metrics_text(self) -> str:
        return ""

    def close(self) -> None:
        pass


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    async def send(self, job_id: str) -> None:
        frame = {"tenant": "t", "kernel": "k", "job_id": job_id}
        self.writer.write(json.dumps(frame).encode() + b"\n")
        await self.writer.drain()

    async def reply(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), TIMEOUT)
        return json.loads(line)


def _serve(scenario):
    """Run ``scenario(service, server, connect)`` against a live
    gateway on this test's own event loop."""

    async def main():
        service = GatedService()
        server = ServeServer(service)
        host, port = await server.start()
        connections = []

        async def connect() -> _Connection:
            conn = _Connection(*await asyncio.open_connection(host, port))
            connections.append(conn)
            return conn

        try:
            return await scenario(service, server, connect)
        finally:
            if service.gate is not None:
                service.gate.set()
            for conn in connections:
                conn.writer.close()
            await server.close()

    return asyncio.run(main())


async def _hold_round_one(service, server, connect, parked: int):
    """Round 1 (job ``r1``) held inside ``flush``, and ``parked`` more
    jobs submitted from their own connections behind it."""
    service.gate = threading.Event()
    first = await connect()
    await first.send("r1")
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, service.in_round.wait, TIMEOUT)
    others = [await connect() for _ in range(parked)]
    for i, conn in enumerate(others):
        await conn.send(f"p{i}")

    async def all_parked():
        # A waiter is registered in the same event-loop step that
        # queues its submit behind the held round, so this count is
        # the number of jobs the gateway has taken in.
        while len(server._futures) < parked + 1:
            await asyncio.sleep(0)

    await asyncio.wait_for(all_parked(), TIMEOUT)
    return first, others


class TestWorkConservingRounds:
    def test_lone_job_needs_no_timer(self, monkeypatch):
        def no_sleep(*args, **kwargs):
            raise AssertionError("the gateway slept")

        async def scenario(service, server, connect):
            monkeypatch.setattr(asyncio, "sleep", no_sleep)
            conn = await connect()
            await conn.send("lone")
            return await conn.reply(), service.round_log

        reply, round_log = _serve(scenario)
        assert reply["ok"] and reply["job"]["status"] == "executed"
        assert round_log == [["lone"]]

    def test_jobs_submitted_during_a_round_share_the_next(self):
        async def scenario(service, server, connect):
            first, others = await _hold_round_one(
                service, server, connect, parked=3
            )
            service.gate.set()
            replies = [await c.reply() for c in [first, *others]]
            return replies, service.round_log

        replies, round_log = _serve(scenario)
        assert [r["job"]["job_id"] for r in replies] == [
            "r1", "p0", "p1", "p2",
        ]
        assert all(r["ok"] for r in replies)
        assert len(round_log) == 2
        assert round_log[0] == ["r1"]
        assert sorted(round_log[1]) == ["p0", "p1", "p2"]

    def test_failed_round_fails_every_waiter_then_serves_on(self):
        async def scenario(service, server, connect):
            first, others = await _hold_round_one(
                service, server, connect, parked=2
            )
            service.explode = True
            service.gate.set()
            failed = [await c.reply() for c in [first, *others]]
            await first.send("next")
            return failed, await first.reply()

        failed, served = _serve(scenario)
        assert [f["ok"] for f in failed] == [False] * 3
        assert all("round exploded" in f["error"] for f in failed)
        assert served["ok"] and served["job"]["job_id"] == "next"


class TestNoBatchKnob:
    def test_batch_window_is_a_type_error(self):
        with pytest.raises(TypeError, match="batch_window_s"):
            ServeServer(GatedService(), batch_window_s=0.002)
        with pytest.raises(TypeError, match="batch_window_s"):
            ServeServer(batch_window_s=0.002)

    def test_service_keywords_still_build_the_default_service(self):
        server = ServeServer(max_batch=3)
        assert isinstance(server.service, TaskService)
        assert server.service.max_batch == 3
        server.service.close()
