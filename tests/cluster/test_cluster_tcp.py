"""The JSON-lines TCP gateway fronting a whole cluster."""

import asyncio
import threading

import pytest

from repro.cluster import ClusterService, ClusterSpec
from repro.config import RuntimeConfig
from repro.serve import ServeClient, ServeServer


@pytest.fixture()
def cluster_gateway():
    """A live TCP gateway over a 3-shard cluster, torn down after."""
    service = ClusterService(
        RuntimeConfig(policy="gtb-max", n_workers=4),
        tenants=(
            "standard:name='t1'",
            "free:name='t2',budget_j=0.0004",
        ),
        cluster=ClusterSpec(shards=3),
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
        yield host, port, service
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        service.close()


class TestClusterOverTcp:
    def test_ping_and_submit(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            assert client.ping()
            job = client.submit(
                "t1", "mc-pi", {"blocks": 6, "samples": 400}, ratio=0.9
            )
            assert job["status"] == "executed"
            assert job["code"] == 200
            assert job["result"] == pytest.approx(3.14, abs=0.4)

    def test_stream_spreads_across_shards(self, cluster_gateway):
        host, port, service = cluster_gateway
        with ServeClient(host, port) as client:
            for seed in range(18):
                job = client.submit(
                    "t1", "mc-pi",
                    {"blocks": 4, "samples": 300, "seed": seed},
                )
                assert job["code"] == 200
        busy = [
            w.index
            for w in service.shards
            if w.service.tenants["t1"].executed > 0
        ]
        assert len(busy) > 1

    def test_stats_carry_the_cluster_digest(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            client.submit("t1", "sobel", {"size": 32})
            stats = client.stats()
            assert stats["cluster"]["shards"] == 3
            assert len(stats["per_shard"]) == 3
            assert "ledger" in stats

    def test_budget_shedding_over_the_wire(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            outcomes = [
                client.submit(
                    "t2", "sobel", {"size": 32, "seed": s % 2}
                )["status"]
                for s in range(6)
            ]
        assert outcomes[0] == "executed"
        assert set(outcomes) <= {
            "executed", "cached", "cached-degraded", "rejected-budget"
        }
        assert set(outcomes) != {"executed"}
