"""Soak: 500 mixed-shape jobs over live TCP against a 3-shard faulty
cluster — zero wrong answers, bounded tail latency, ledger parity.

The ISSUE 9 acceptance run: batch, streaming, and anytime traffic from
multiple tenants interleaved through one JSON-lines gateway whose
shards all run the deterministic omission-fault engine.  Everything the
PR claims has to hold at once here: frames stay ordered and are never
dropped, anytime curves come back well-formed, faults degrade rather
than corrupt, and cluster-wide energy accounting stays within 2%.
"""

import asyncio
import math
import threading

import pytest

from repro.cluster import ClusterService, ClusterSpec
from repro.config import RuntimeConfig
from repro.serve import ServeClient, ServeServer
from repro.serve.figure import percentile

N_JOBS = 500
FAULTY_ENGINE = "faulty:fault_rate=0.05,protect_threshold=0.7,seed=11"
LEDGER_PARITY = 0.02


@pytest.fixture(scope="module")
def soak_gateway():
    """A live TCP gateway over a 3-shard faulty cluster."""
    service = ClusterService(
        RuntimeConfig(
            policy="gtb-max", n_workers=4, engine=FAULTY_ENGINE
        ),
        tenants=(
            "standard:name='acme'",
            "premium:name='vip'",
            "free:name='hobby',budget_j=0.02,max_pending=1024",
        ),
        cluster=ClusterSpec(shards=3),
        max_batch=8,
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


def _mixed_job(client: ServeClient, i: int) -> dict:
    """One job of the soak mix: ~60% batch, ~30% streaming, ~10%
    anytime, spread over three tenants and four kernels."""
    tenant = ("acme", "vip", "hobby")[i % 3]
    shape = i % 10
    if shape < 6:  # batch
        if i % 2 == 0:
            return client.submit(
                tenant,
                "mc-pi",
                {"blocks": 4, "samples": 200, "seed": i % 11},
                ratio=0.8,
            )
        return client.submit(
            tenant,
            "sobel",
            {"size": 24, "seed": i % 13},
            ratio=0.8,
        )
    if shape < 9:  # streaming: per-tenant camera lanes
        return client.submit(
            tenant,
            "sobel",
            {"size": 24, "seed": i},
            ratio=0.9,
            stream=f"cam-{tenant}",
        )
    # anytime
    return client.submit(
        tenant,
        "jacobi",
        {"n": 32, "chunk": 8, "seed": i % 7},
        ratio=1.0,
        rounds=3,
    )


@pytest.mark.slow
def test_soak_500_mixed_jobs(soak_gateway):
    host, port, service = soak_gateway
    jobs: list[dict] = []
    with ServeClient(host, port, timeout_s=300.0) as client:
        assert client.ping()
        for i in range(N_JOBS):
            jobs.append(_mixed_job(client, i))
        stats = client.stats()

    assert len(jobs) == N_JOBS

    # -- zero wrong answers -------------------------------------------
    # Shedding (429) is legal under a tiny budget; transport errors,
    # server errors, and ordering violations are not.
    assert all(j["code"] in (200, 429) for j in jobs), {
        j["code"] for j in jobs
    }
    for j in jobs:
        if j["status"] == "executed" and "result" in j:
            if j["kernel"] == "mc-pi" and j["result"] is not None:
                assert math.isfinite(j["result"])
                assert abs(j["result"] - math.pi) < 0.8
        if j.get("quality") is not None:
            assert 0.0 <= j["quality"] < 1.0

    # -- streaming held its contract ----------------------------------
    stream_jobs = [j for j in jobs if j.get("stream")]
    assert stream_jobs, "the mix produced no stream frames"
    by_stream: dict[tuple, list] = {}
    for j in stream_jobs:
        by_stream.setdefault((j["tenant"], j["stream"]), []).append(j)
    for frames in by_stream.values():
        served = [f["frame"] for f in frames if f["code"] == 200]
        # In-order admission: the served frame indices are strictly
        # increasing (the gateway is one synchronous connection).
        assert served == sorted(served)
        assert len(set(served)) == len(served)
        # Degrade-not-drop: no stream frame was budget-rejected.
        assert all(
            f["status"] != "rejected-budget" for f in frames
        )

    # -- anytime curves came back well-formed -------------------------
    anytime_jobs = [j for j in jobs if j.get("rounds_run")]
    assert anytime_jobs, "the mix produced no anytime jobs"
    for j in anytime_jobs:
        assert 1 <= j["rounds_run"] <= 3
        q = j["round_quality"]
        assert len(q) == j["rounds_run"]
        assert all(
            q[i + 1] <= q[i] + 1e-6 for i in range(len(q) - 1)
        )

    # -- faults fired, load was served --------------------------------
    faults = sum(
        len(w.service.scheduler.engine.fault_log.records)
        for w in service.shards
    )
    assert faults > 0
    served = [j for j in jobs if j["code"] == 200]
    assert len(served) >= N_JOBS // 2

    # -- bounded tail latency -----------------------------------------
    p95 = percentile(
        [j["wall_latency_s"] for j in served], 0.95
    )
    assert p95 < 5.0, f"p95 wall latency {p95:.3f}s"

    # -- cluster-wide ledger parity -----------------------------------
    summary = service.tenant_summary("hobby")
    spent = summary["spent_j"]
    settled = summary["ledger_settled_j"]
    top = max(spent, settled)
    parity = abs(spent - settled) / top if top > 0 else 0.0
    assert parity <= LEDGER_PARITY, (
        f"ledger parity {parity:.2%}: shards {spent} J vs "
        f"ledger {settled} J"
    )

    # The gateway's digest agrees the cluster did real work.
    assert stats["cluster"]["shards"] == 3
    assert sum(s["rounds"] for s in stats["per_shard"]) > 0
