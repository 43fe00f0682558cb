"""TaskService end-to-end: shared-engine multiplexing, correct
outputs, per-job reports, coalescing, chrome-trace tagging, and
backend-agnosticism."""

import json

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.serve import (
    JobRequest,
    LocalGateway,
    TaskService,
    get_servable,
)


def _cfg(engine: str = "simulated", workers: int = 8) -> RuntimeConfig:
    return RuntimeConfig(
        policy="gtb-max", n_workers=workers, engine=engine
    )


class TestJobExecution:
    def test_accurate_sobel_job_matches_reference(self):
        kernel = get_servable("sobel")
        args = {"size": 32, "seed": 5}
        with LocalGateway(
            config=_cfg(), tenants=("premium:name='t'",)
        ) as gw:
            report = gw.submit_many(
                [JobRequest(tenant="t", kernel="sobel", args=args)]
            )[0]
            assert report.status == "executed"
            assert report.ratio_served == 1.0
            assert report.quality == 0.0  # bit-identical to reference
            np.testing.assert_array_equal(
                report.output, kernel.reference(args)
            )
            assert report.accurate == report.tasks_total == 30
            assert report.energy_j > 0
            assert report.latency_s > 0

    def test_ratio_honored_exactly_per_job_group(self):
        with LocalGateway(
            config=_cfg(), tenants=("free:name='t'",)
        ) as gw:
            report = gw.submit_many(
                [
                    JobRequest(
                        tenant="t", kernel="sobel",
                        args={"size": 32}, ratio=0.5,
                    )
                ]
            )[0]
            # GTB Max-Buffer: exactly ceil(0.5 * 30) accurate tasks.
            assert report.accurate == 15
            assert report.approximate == 15
            assert report.quality > 0

    def test_mc_pi_drop_mode(self):
        with LocalGateway(
            config=_cfg(), tenants=("free:name='t'",)
        ) as gw:
            report = gw.submit_many(
                [
                    JobRequest(
                        tenant="t", kernel="mc-pi",
                        args={"blocks": 10, "samples": 500},
                        ratio=0.6,
                    )
                ]
            )[0]
            assert report.dropped == 4  # no approxfun -> dropped
            assert report.accurate == 6
            assert report.output == pytest.approx(3.14, abs=0.2)

    def test_jobs_report_schema_on_wire(self):
        with LocalGateway(tenants=("standard:name='t'",)) as gw:
            report = gw.submit_many(
                [
                    JobRequest(
                        tenant="t", kernel="mc-pi",
                        args={"blocks": 4, "samples": 64},
                    )
                ]
            )[0]
            wire = report.to_dict()
            json.dumps(wire)  # must be JSON-clean
            assert wire["status"] == "executed"
            assert isinstance(wire["result"], float)  # scalar rides along
            assert "output" not in wire


class TestMultiplexing:
    def test_rounds_batch_across_tenants(self):
        service = TaskService(
            _cfg(), tenants=("standard:name='a'", "standard:name='b'"),
            max_batch=4,
        )
        with service:
            for i in range(4):
                service.submit(
                    JobRequest(
                        tenant="a" if i % 2 == 0 else "b",
                        kernel="sobel",
                        args={"size": 32, "seed": i},
                    )
                )
            reports = service.flush()
            assert len(reports) == 4
            assert service.rounds == 1
            # One group per job on the one shared scheduler.
            labels = [
                g.name for g in service.scheduler.groups
                if "/" in g.name
            ]
            assert len(labels) == 4
            assert {lbl.split("/")[0] for lbl in labels} == {"a", "b"}

    def test_identical_in_round_jobs_coalesce(self):
        service = TaskService(
            _cfg(), tenants=("standard:name='t'",), max_batch=4
        )
        with service:
            jobs = [
                service.submit(
                    JobRequest(
                        tenant="t", kernel="sobel", args={"size": 32}
                    )
                )
                for _ in range(3)
            ]
            service.flush()
            statuses = sorted(j.status for j in jobs)
            assert statuses == ["coalesced", "coalesced", "executed"]
            leader = next(j for j in jobs if j.status == "executed")
            for j in jobs:
                if j.status == "coalesced":
                    assert j.energy_j == 0.0
                    assert j.quality == leader.quality
                    np.testing.assert_array_equal(
                        j.output, leader.output
                    )
            # Only the leader was billed.
            assert service.tenants["t"].spent_j == pytest.approx(
                leader.energy_j
            )

    def test_close_returns_canonical_run_report(self):
        gw = LocalGateway(tenants=("standard:name='t'",))
        gw.submit_many(
            [JobRequest(tenant="t", kernel="sobel", args={"size": 32})]
        )
        report = gw.close()
        assert report is not None
        assert report.tasks_total == 30
        # Idempotent close.
        assert gw.close() is report

    def test_submit_after_close_raises(self):
        from repro.runtime.errors import SchedulerError

        gw = LocalGateway(tenants=("standard:name='t'",))
        gw.close()
        with pytest.raises(SchedulerError, match="closed"):
            gw.submit(JobRequest(tenant="t", kernel="sobel"))


class TestTraceTagging:
    def test_chrome_trace_carries_tenant_and_job_ids(self, tmp_path):
        service = TaskService(_cfg(), tenants=("standard:name='t'",))
        with service:
            report = service.submit(
                JobRequest(tenant="t", kernel="sobel", args={"size": 32})
            )
            service.flush()
            path = service.write_trace(tmp_path / "serve_trace.json")
        data = json.loads(path.read_text())
        tagged = [
            e for e in data["traceEvents"]
            if e.get("args", {}).get("job") == report.job_id
        ]
        assert tagged, "no events tagged with the job id"
        for event in tagged:
            assert event["args"]["tenant"] == "t"
            assert event["args"]["kernel"] == "sobel"
            assert "tenant:t" in event["cat"]


@pytest.mark.parametrize("engine", ["simulated", "threaded"])
class TestBackends:
    def test_service_serves_on_backend(self, engine):
        with LocalGateway(
            config=_cfg(engine=engine, workers=4),
            tenants=("standard:name='t'",),
        ) as gw:
            reports = gw.submit_many(
                [
                    JobRequest(
                        tenant="t", kernel="sobel",
                        args={"size": 32, "seed": i},
                    )
                    for i in range(3)
                ]
            )
            kernel = get_servable("sobel")
            for i, report in enumerate(reports):
                assert report.status == "executed"
                np.testing.assert_array_equal(
                    report.output,
                    kernel.reference({"size": 32, "seed": i}),
                )


#: Every member of the contract; the first group are properties.
PROTOCOL_PROPERTIES = ("pending_jobs", "rounds", "metrics", "span_recorder")
PROTOCOL_METHODS = (
    "submit", "submit_anytime", "flush", "stats", "collect",
    "metrics_snapshot", "metrics_text", "close",
)


def _fake_service(missing: str | None = None):
    """An object with every protocol member except ``missing``."""
    members = {
        name: property(lambda self: None) for name in PROTOCOL_PROPERTIES
    }
    members.update(
        (name, lambda self, *args, **kwargs: None)
        for name in PROTOCOL_METHODS
    )
    members.pop(missing, None)
    return type("FakeService", (), members)()


class TestServiceProtocol:
    """The explicit service contract — the *whole* surface the gateways
    touch.  Both service implementations satisfy it, and gateways
    validate it up front instead of duck-typing."""

    def _assert_full_contract(self, service):
        from repro.serve import ServiceProtocol

        assert isinstance(service, ServiceProtocol)
        for name in PROTOCOL_PROPERTIES:
            assert isinstance(getattr(type(service), name), property)
        for name in PROTOCOL_METHODS:
            assert callable(getattr(service, name))

    def test_task_service_implements_protocol(self):
        svc = TaskService(_cfg(), tenants=("standard:name='t'",))
        self._assert_full_contract(svc)
        svc.close()

    def test_cluster_service_implements_protocol(self):
        from repro.cluster.service import ClusterService

        cs = ClusterService(_cfg(workers=2), cluster=2)
        self._assert_full_contract(cs)
        cs.close()

    def test_protocol_has_no_member_the_tests_do_not_know(self):
        from repro.serve import ServiceProtocol

        declared = {
            name
            for name in vars(ServiceProtocol)
            if not name.startswith("_")
        }
        assert declared == set(PROTOCOL_PROPERTIES + PROTOCOL_METHODS)

    def test_gateways_reject_non_services(self):
        from repro.runtime.errors import ConfigError
        from repro.serve import ServeServer

        with pytest.raises(ConfigError, match="ServiceProtocol"):
            LocalGateway(object())
        with pytest.raises(ConfigError, match="ServiceProtocol"):
            ServeServer(service=object())

    @pytest.mark.parametrize(
        "missing", ["submit_anytime", "metrics_snapshot"]
    )
    def test_gateways_reject_partial_services(self, missing):
        """No optional capabilities: one missing member is a refusal,
        the same object with it present is accepted."""
        from repro.runtime.errors import ConfigError
        from repro.serve import ServeServer

        partial = _fake_service(missing)
        with pytest.raises(ConfigError, match="ServiceProtocol"):
            LocalGateway(partial)
        with pytest.raises(ConfigError, match="ServiceProtocol"):
            ServeServer(service=partial)
        full = _fake_service()
        assert LocalGateway(full).service is full
        assert ServeServer(service=full).service is full

    def test_gateway_accepts_any_protocol_service(self):
        from repro.cluster.service import ClusterService

        cs = ClusterService(_cfg(workers=2), cluster=2)
        with LocalGateway(cs) as gw:
            report = gw.submit_many(
                [
                    JobRequest(
                        tenant="standard",
                        kernel="mc-pi",
                        args={"blocks": 4, "samples": 64},
                    )
                ]
            )[0]
            assert report.status == "executed"
