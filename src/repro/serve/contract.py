"""The service contract and the base both implementations share.

:class:`ServiceProtocol` is the whole surface a gateway may touch;
:class:`ServiceBase` owns what :class:`~repro.serve.TaskService` and
:class:`~repro.cluster.ClusterService` would otherwise each spell out:
the telemetry scrape, tenant-roster resolution, the kernel lookup
cache, request coercion and the context-manager lifecycle.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from ..obs import MetricsRegistry, SpanRecorder, obs_enabled
from ..registry import resolve
from ..runtime.errors import ConfigError, SchedulerError
from .jobs import JobReport, JobRequest
from .kernels import ServableKernel, get_servable
from .tenants import TenantSpec, make_standard_tenant

__all__ = ["ServiceProtocol", "ServiceBase"]


@runtime_checkable
class ServiceProtocol(Protocol):
    """The structural contract every task service front-end implements.

    Both the single-node :class:`~repro.serve.TaskService` and the
    sharded :class:`~repro.cluster.ClusterService` satisfy this
    protocol, and the gateways (:class:`~repro.serve.LocalGateway`,
    :class:`~repro.serve.ServeServer`) are typed against it rather
    than duck-typing a concrete service — swapping a node for a
    cluster behind a gateway is a constructor-argument change.

    The gateways rely on **every** member below and on nothing else:
    there is no ``getattr`` probing for optional capabilities, so an
    object missing any of them is refused at gateway construction.

    The protocol is ``runtime_checkable`` so wiring code can validate
    a service object up front (``isinstance(svc, ServiceProtocol)``);
    as with all runtime-checkable protocols, the check sees member
    *presence*, not signatures.
    """

    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job; returns its :class:`JobReport`.

        Cache-served and rejected jobs come back complete; an admitted
        job comes back ``status="queued"`` and the *same object* is
        filled in by the round that executes it (see :meth:`flush`).
        """

    def submit_anytime(
        self, request: JobRequest | dict, *, on_round: Any = None
    ) -> JobReport:
        """Run one anytime job to its deadline; returns it settled."""

    def flush(self) -> list[JobReport]:
        """Execute one admission round; returns its settled reports
        (empty when nothing was queued)."""

    @property
    def pending_jobs(self) -> int:
        """Jobs admitted but not yet settled."""

    @property
    def rounds(self) -> int:
        """Admission rounds executed so far."""

    def stats(self) -> dict[str, Any]:
        """Service-level counters (schema owned by the implementation)."""

    def collect(self) -> None:
        """Refresh collect-on-scrape gauges from live service state."""

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The metrics registry (``None``: telemetry off)."""

    @property
    def span_recorder(self) -> SpanRecorder | None:
        """The span sink (``None``: telemetry off)."""

    def metrics_snapshot(self) -> dict:
        """Refresh gauges; the registry's stable-JSON snapshot."""

    def metrics_text(self) -> str:
        """Refresh gauges; Prometheus text exposition."""

    def close(self) -> Any:
        """Settle outstanding work and release resources (idempotent)."""


def _resolve_tenant(spec: Any) -> TenantSpec:
    tenant = resolve("tenant", spec)
    if not isinstance(tenant, TenantSpec):
        raise ConfigError(
            f"tenant spec {spec!r} resolved to "
            f"{type(tenant).__name__}, not a TenantSpec"
        )
    return tenant


class ServiceBase:
    """What every :class:`ServiceProtocol` implementation shares.

    Subclasses implement the rest of the protocol (``submit`` …
    ``close``) and keep ``_rounds`` / ``_closed`` current.
    """

    #: How error messages name this kind of service.
    _kind = "service"

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
    ) -> None:
        # Telemetry plane: when observability is on (the default — see
        # repro.obs), the service owns a private registry and span
        # recorder unless the caller injects shared ones (the cluster
        # shares one pair across every shard).  A private registry is
        # what makes a scrape reconcile exactly with THIS service's run.
        if obs_enabled():
            if metrics is None:
                metrics = MetricsRegistry()
            if spans is None:
                spans = SpanRecorder()
        self._metrics = metrics
        self._spans = spans
        self._kernels: dict[str, ServableKernel] = {}
        self._rounds = 0
        self._closed = False

    # -- construction helpers ---------------------------------------------
    @staticmethod
    def _tenant_roster(config, tenants) -> list[TenantSpec]:
        """``config.tenants`` plus ``tenants`` (specs or instances) as
        one duplicate-free roster; a single unmetered ``"standard"``
        tenant when both are empty."""
        specs = list(config.build_tenants())
        for extra in tenants:
            specs.append(
                extra
                if isinstance(extra, TenantSpec)
                else _resolve_tenant(extra)
            )
        if not specs:
            specs = [make_standard_tenant()]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        return specs

    def _kernel(self, name: str) -> ServableKernel:
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = get_servable(name)
        return kernel

    def _coerce(self, request: JobRequest | dict) -> JobRequest:
        """The front of every entry point: refuse a closed service,
        accept a wire dict in place of a :class:`JobRequest`."""
        self._check_open()
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        return request

    def _check_open(self) -> None:
        if self._closed:
            raise SchedulerError(f"{self._kind} is closed")

    # -- telemetry ----------------------------------------------------------
    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The metrics registry (``None``: telemetry off)."""
        return self._metrics

    @property
    def span_recorder(self) -> SpanRecorder | None:
        """The span sink (``None``: telemetry off)."""
        return self._spans

    def _scrape(self) -> MetricsRegistry:
        if self._metrics is None:
            raise SchedulerError(
                "telemetry is disabled on this service (REPRO_OBS=0)"
            )
        self.collect()
        return self._metrics

    def metrics_snapshot(self) -> dict:
        """Refresh gauges and return the stable-JSON registry snapshot
        (the gateway's ``metrics`` op)."""
        return self._scrape().to_dict()

    def metrics_text(self) -> str:
        """Refresh gauges and return Prometheus text exposition."""
        return self._scrape().to_prometheus()

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
