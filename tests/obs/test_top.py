"""The ``top`` frame renderer: a pure function over scrape payloads."""

import io

from repro.obs import render_top

STATS = {
    "engine": "threaded",
    "rounds": 7,
    "pending_jobs": 2,
    "engine_time_s": 0.1234,
    "tenants": {
        "acme": {
            "tenant": "acme",
            "tier": "standard",
            "budget_j": 0.5,
            "spent_j": 0.25,
            "over_budget": False,
            "ratio": 0.8,
            "executed": 10,
            "cached": 3,
            "cached_degraded": 1,
            "coalesced": 2,
            "rejected": 0,
        },
        "bee": {
            "tenant": "bee",
            "tier": "premium",
            "budget_j": None,
            "spent_j": 0.75,
            "over_budget": False,
            "ratio": 1.0,
            "executed": 5,
            "cached": 0,
            "cached_degraded": 0,
            "coalesced": 0,
            "rejected": 0,
        },
        "hobby": {
            "tenant": "hobby",
            "tier": "free",
            "budget_j": 0.001,
            "spent_j": 0.002,
            "over_budget": True,
            "ratio": 0.5,
            "executed": 1,
            "cached": 0,
            "cached_degraded": 0,
            "coalesced": 0,
            "rejected": 9,
        },
    },
    "cache": {
        "hits": 3,
        "degraded_hits": 1,
        "misses": 11,
        "hit_rate": 0.267,
        "puts": 11,
        "evictions": 0,
    },
    "streams": {
        "acme/cam0": {
            "tenant": "acme",
            "stream": "cam0",
            "next_frame": 4,
            "inflight": 1,
            "degraded": 2,
            "rejected": 0,
        }
    },
}

METRICS = {
    "repro_governor_ratio": {
        "series": [{"labels": {"scope": "acme"}, "value": 0.8}]
    },
    "repro_governor_dvfs_factor": {
        "series": [{"labels": {"scope": "acme"}, "value": 0.9}]
    },
    "repro_governor_ticks_total": {
        "series": [{"labels": {"scope": "acme"}, "value": 12}]
    },
    "repro_ledger_lease_remaining_joules": {
        "series": [
            {"labels": {"tenant": "acme", "shard": "0"}, "value": 0.01},
            {"labels": {"tenant": "acme", "shard": "1"}, "value": 0.02},
        ]
    },
    "repro_stream_inflight": {
        "series": [
            {"labels": {"tenant": "acme", "stream": "cam0"}, "value": 3}
        ]
    },
}


class TestRenderTop:
    def test_single_service_header_and_tenants(self):
        frame = render_top(STATS)
        assert "1 service" in frame
        assert "engine=threaded" in frame
        assert "round 7" in frame
        assert "2 pending" in frame
        for tenant in ("acme", "bee", "hobby"):
            assert tenant in frame

    def test_budget_bar_unmetered_and_over(self):
        frame = render_top(STATS)
        assert "unmetered" in frame  # bee has no budget
        assert "OVER" in frame  # hobby is over budget
        # acme's half-used budget renders a half-filled bar.
        assert "[########........]" in frame

    def test_cache_row(self):
        frame = render_top(STATS)
        assert "3 hits + 1 degraded / 11 misses" in frame
        assert "11 puts" in frame

    def test_governor_ledger_and_streams_need_metrics(self):
        bare = render_top(STATS)
        assert "governors:" not in bare
        assert "ledger leases" not in bare
        full = render_top(STATS, METRICS)
        assert "ratio=0.80" in full
        assert "dvfs=0.90" in full
        assert "ticks=12" in full
        assert "ledger leases" in full
        assert "s0=" in full and "s1=" in full
        # The inflight gauge overrides the stats fallback.
        assert "3 in flight" in full

    def test_stream_fallback_without_metrics(self):
        frame = render_top(STATS)
        assert "acme/cam0: frame 4, 1 in flight" in frame

    def test_cluster_shape(self):
        stats = dict(STATS)
        stats["cluster"] = {"shards": 3}
        stats["per_shard"] = [
            {
                "shard": 0,
                "pending_jobs": 1,
                "rounds": 3,
                "engine_time_s": 0.05,
                "data_plane": {
                    "bytes_referenced": 4096,
                    "bytes_copied_in": 128,
                    "bytes_copied_out": 64,
                    "bytes_pickled": 32,
                    "bytes_not_copied_frac": 0.95,
                },
            },
            {
                "shard": 1,
                "pending_jobs": 0,
                "rounds": 4,
                "engine_time_s": 0.06,
            },
        ]
        frame = render_top(stats)
        assert "3 shards" in frame
        assert "shard 0: 1 pending, 3 rounds" in frame
        assert "shard 1: 0 pending, 4 rounds" in frame
        assert "4096 B by reference" in frame
        assert "zero-copy 95%" in frame

    def test_joule_formatting_spans_magnitudes(self):
        stats = {
            "engine": "simulated",
            "tenants": {
                "micro": {"tier": "free", "budget_j": None, "spent_j": 2e-6},
                "milli": {"tier": "free", "budget_j": None, "spent_j": 0.002},
                "whole": {"tier": "free", "budget_j": None, "spent_j": 1.5},
            },
            "cache": {},
        }
        frame = render_top(stats)
        assert "2.0 uJ" in frame
        assert "2.00 mJ" in frame
        assert "1.50 J" in frame


class TestRunTop:
    def test_bounded_iterations_against_live_gateway(self):
        """run_top with iterations=N scrapes a real gateway N times."""
        import asyncio
        import threading

        from repro.config import RuntimeConfig
        from repro.obs import run_top
        from repro.serve import ServeServer, TaskService

        service = TaskService(
            RuntimeConfig(policy="gtb-max", n_workers=4),
            tenants=("standard:name='acme'",),
        )
        server = ServeServer(service)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=lambda: (asyncio.set_event_loop(loop), loop.run_forever()),
            daemon=True,
        )
        thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop
        ).result(30)
        out = io.StringIO()
        try:
            rc = run_top(host, port, interval_s=0.0, iterations=2, out=out)
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            service.close()
        assert rc == 0
        frames = out.getvalue()
        assert frames.count("repro.serve 1 service") == 2
        assert "acme" in frames
