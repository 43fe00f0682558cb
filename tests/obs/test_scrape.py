"""Live scraping: the TCP ``metrics`` verb reconciles with ``stats``."""

import asyncio
import threading

import pytest

from repro.cluster import ClusterService
from repro.config import RuntimeConfig
from repro.obs import set_obs_enabled
from repro.runtime.errors import SchedulerError
from repro.serve import ServeClient, ServeServer, TaskService


@pytest.fixture()
def cluster_gateway():
    """A live TCP gateway over a 3-shard cluster."""
    service = ClusterService(
        RuntimeConfig(policy="gtb-max", n_workers=4),
        tenants=(
            "standard:name='acme'",
            "free:name='hobby',budget_j=0.004,max_pending=1024",
        ),
        cluster=3,
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


def _value(metrics: dict, family: str, **labels) -> float:
    for s in metrics.get(family, {}).get("series", []):
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            return s.get("value", s.get("count", 0.0))
    return 0.0


class TestScrapeReconciles:
    def test_energy_jobs_cache_and_leases(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            for i in range(9):
                job = client.submit(
                    "acme", "sobel", {"size": 24, "seed": i}
                )
                assert job["code"] == 200
            for i in range(3):
                client.submit("hobby", "mc-pi", {"blocks": 4, "seed": i})
            stats = client.stats()
            metrics = client.metrics()

        # Per-tenant energy counters reconcile with the stats digest
        # (the acceptance bar: parity within 2%).
        for tenant in ("acme", "hobby"):
            spent = stats["tenants"][tenant]["spent_j"]
            counted = _value(
                metrics, "repro_tenant_energy_joules_total", tenant=tenant
            )
            assert counted == pytest.approx(spent, rel=0.02, abs=1e-12)

        # Job counters cover every submission.
        total_jobs = sum(
            s["value"]
            for s in metrics["repro_jobs_total"]["series"]
        )
        assert total_jobs == 12

        # Cache lookups were counted (9 sobel submits share a digest
        # per seed; at minimum the misses must show up).
        lookups = sum(
            s["value"]
            for s in metrics["repro_cache_lookups_total"]["series"]
        )
        assert lookups > 0

        # Ledger leases appear per tenant x shard on a 3-shard cluster.
        leases = metrics["repro_ledger_lease_remaining_joules"]["series"]
        assert {s["labels"]["tenant"] for s in leases} >= {"hobby"}

        # Scheduler counters flowed through the shards.
        assert (
            _value(metrics, "repro_sched_tasks_spawned_total") > 0
        )

    def test_prometheus_format_over_the_wire(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            client.submit("acme", "sobel", {"size": 24})
            text = client.metrics(format="prometheus")
        assert isinstance(text, str)
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{tenant="acme"' in text

    def test_latency_histogram_counts_successes(self, cluster_gateway):
        host, port, _ = cluster_gateway
        with ServeClient(host, port) as client:
            for i in range(4):
                client.submit("acme", "sobel", {"size": 24, "seed": 50 + i})
            metrics = client.metrics()
        series = metrics["repro_job_latency_seconds"]["series"]
        total = sum(s["count"] for s in series)
        assert total == 4


class TestDisabledTelemetry:
    def test_service_without_telemetry_refuses_scrapes(self):
        prev = set_obs_enabled(False)
        try:
            service = TaskService(
                RuntimeConfig(policy="gtb-max", n_workers=4),
                tenants=("standard:name='acme'",),
            )
        finally:
            set_obs_enabled(prev)
        try:
            assert service.metrics is None
            assert service.span_recorder is None
            with pytest.raises(SchedulerError, match="REPRO_OBS"):
                service.metrics_snapshot()
            with pytest.raises(SchedulerError, match="REPRO_OBS"):
                service.metrics_text()
        finally:
            service.close()

    def test_cluster_without_telemetry_refuses_scrapes(self):
        prev = set_obs_enabled(False)
        try:
            service = ClusterService(
                RuntimeConfig(policy="gtb-max", n_workers=4),
                tenants=("standard:name='acme'",),
                cluster=2,
            )
        finally:
            set_obs_enabled(prev)
        try:
            with pytest.raises(SchedulerError, match="REPRO_OBS"):
                service.metrics_snapshot()
        finally:
            service.close()
