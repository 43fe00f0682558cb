"""The asyncio JSON-lines gateway and its sync/async clients."""

import asyncio
import json
import threading

import pytest

from repro.config import RuntimeConfig
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    ServeClientError,
    ServeServer,
    TaskService,
)


@pytest.fixture()
def gateway():
    """A live TCP gateway on an ephemeral port, torn down after."""
    service = TaskService(
        RuntimeConfig(policy="gtb-max", n_workers=4),
        tenants=(
            "standard:name='t1'",
            "free:name='t2',budget_j=0.0004",
        ),
        max_batch=4,
    )
    server = ServeServer(service)
    loop = asyncio.new_event_loop()

    def pump() -> None:
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    host, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(30)
    try:
        yield host, port, service, loop
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        service.close()


class TestSyncClient:
    def test_ping(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            assert client.ping()

    def test_submit_executes_and_reports(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            job = client.submit(
                "t1", "mc-pi", {"blocks": 6, "samples": 400}, ratio=0.9
            )
            assert job["status"] == "executed"
            assert job["code"] == 200
            assert job["result"] == pytest.approx(3.14, abs=0.4)
            assert job["wall_latency_s"] > 0

    def test_budget_shedding_over_the_wire(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            outcomes = [
                client.submit("t2", "sobel", {"size": 32})["status"]
                for _ in range(4)
            ]
            assert outcomes[0] == "executed"
            # The tiny budget forces cache/shedding afterwards.
            assert set(outcomes[1:]) <= {
                "cached", "cached-degraded", "rejected-budget"
            }

    def test_rejection_is_not_a_transport_error(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            job = client.submit("nobody", "sobel")
            assert job["status"] == "rejected-unknown-tenant"
            assert job["code"] == 404

    def test_stats(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            client.submit("t1", "sobel", {"size": 32})
            stats = client.stats()
            assert set(stats["tenants"]) == {"t1", "t2"}
            assert stats["rounds"] >= 1
            assert "cache" in stats

    def test_connect_refused_raises_client_error(self):
        with pytest.raises(ServeClientError, match="connect"):
            ServeClient("127.0.0.1", 1, timeout_s=0.5)

    def test_malformed_op_reports_error(self, gateway):
        host, port, _, _ = gateway
        client = ServeClient(host, port)
        try:
            response = client._roundtrip({"op": "explode"})
            assert response["ok"] is False
            assert "unknown op" in response["error"]
            with pytest.raises(ServeClientError, match="gateway error"):
                client.submit("t1", "sobel", ratio=7.0)  # invalid ratio
        finally:
            client.close()


class TestAsyncClient:
    def test_async_submit_and_stats(self, gateway):
        host, port, _, loop = gateway

        async def drive():
            async with AsyncServeClient(host, port) as client:
                assert await client.ping()
                job = await client.submit(
                    "t1", "sobel", {"size": 32}, ratio=1.0
                )
                stats = await client.stats()
                return job, stats

        job, stats = asyncio.run_coroutine_threadsafe(
            drive(), loop
        ).result(60)
        assert job["status"] in ("executed", "cached")
        assert job["code"] == 200
        assert stats["tenants"]["t1"]["executed"] >= 1


class TestWireProtocol:
    def test_concurrent_submissions_batch_into_rounds(self, gateway):
        host, port, service, loop = gateway

        async def burst():
            clients = []
            for _ in range(3):
                c = AsyncServeClient(host, port)
                await c.connect()
                clients.append(c)
            jobs = await asyncio.gather(
                *(
                    c.submit(
                        "t1", "sobel", {"size": 32, "seed": i}
                    )
                    for i, c in enumerate(clients)
                )
            )
            for c in clients:
                await c.close()
            return jobs

        jobs = asyncio.run_coroutine_threadsafe(burst(), loop).result(60)
        assert all(j["code"] == 200 for j in jobs)
        assert {j["status"] for j in jobs} <= {"executed", "coalesced"}

    def test_raw_frame_is_json_line(self, gateway):
        import socket

        host, port, _, _ = gateway
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            line = sock.makefile("rb").readline()
        assert json.loads(line) == {"ok": True, "pong": True}

    def test_oversized_line_gets_one_error_frame_then_close(self, gateway):
        import socket

        from repro.serve.gateway import MAX_LINE_BYTES

        host, port, _, _ = gateway
        frame = b'{"op": "ping", "pad": "%s"}\n' % (b"x" * MAX_LINE_BYTES)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(frame)
            stream = sock.makefile("rb")
            reply = json.loads(stream.readline())
            assert reply["ok"] is False
            assert str(MAX_LINE_BYTES) in reply["error"]
            # The stream cannot be re-framed: the gateway hangs up
            # (a reset, when it closed with our tail still unread).
            try:
                assert stream.readline() == b""
            except ConnectionResetError:
                pass
        # ... and only that connection: the gateway keeps serving.
        with ServeClient(host, port) as client:
            assert client.ping()


class TestJobShapesOverWire:
    def test_streaming_frames_over_tcp(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            jobs = [
                client.submit(
                    "t1",
                    "sobel",
                    {"size": 24, "seed": 100 + i},
                    stream="cam0",
                )
                for i in range(3)
            ]
            assert [j["frame"] for j in jobs] == [0, 1, 2]
            assert all(j["stream"] == "cam0" for j in jobs)
            assert all(j["code"] == 200 for j in jobs)
            stats = client.stats()
            assert stats["streams"]["t1/cam0"]["next_frame"] == 3

    def test_out_of_order_frame_is_409_over_tcp(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            client.submit(
                "t1", "sobel", {"size": 24, "seed": 1},
                stream="cam1", frame=0,
            )
            bad = client.submit(
                "t1", "sobel", {"size": 24, "seed": 2},
                stream="cam1", frame=5,
            )
            assert bad["status"] == "rejected-out-of-order"
            assert bad["code"] == 409

    def test_anytime_job_over_tcp(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            job = client.submit(
                "t1",
                "jacobi",
                {"n": 64, "chunk": 8, "seed": 3},
                ratio=1.0,
                rounds=4,
            )
            assert job["status"] == "executed"
            assert job["rounds_run"] == 4
            q = job["round_quality"]
            assert len(q) == 4
            assert all(
                q[i + 1] <= q[i] + 1e-6 for i in range(len(q) - 1)
            )

    def test_anytime_deadline_over_tcp(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            job = client.submit(
                "t1",
                "jacobi",
                {"n": 64, "chunk": 8, "seed": 3},
                rounds=10,
                deadline_s=1e-9,
            )
            assert job["status"] == "executed"
            assert job["rounds_run"] < 10
            assert "deadline" in job["detail"]

    def test_anytime_on_batch_kernel_is_400_over_tcp(self, gateway):
        host, port, _, _ = gateway
        with ServeClient(host, port) as client:
            job = client.submit("t1", "sobel", {"size": 24}, rounds=3)
            assert job["status"] == "rejected-not-anytime"
            assert job["code"] == 400
