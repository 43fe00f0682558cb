"""``repro.serve`` — async, multi-tenant significance-aware serving.

The serving subsystem: a long-lived :class:`TaskService` multiplexing
every tenant's jobs onto one shared execution engine, per-tenant
admission control and energy budgets (:mod:`repro.serve.tenants`), an
approximate-result cache that degrades answers instead of shedding them
(:mod:`repro.serve.cache`), servable kernels
(:mod:`repro.serve.kernels`), a JSON-lines TCP gateway
(:class:`ServeServer`) with sync/async clients
(:mod:`repro.serve.client`), and the two-tenant isolation figure
(:func:`repro.serve.figure.fig_serve`).

Module map of the service itself::

    jobs       JobRequest / JobReport / StreamState / RoundResult
    contract   ServiceProtocol (the whole contract) + ServiceBase
    admission  one rejection ladder, stream lanes, tenant queues
    rounds     one group executor: flush, settle, the anytime driver
    service    TaskService = admission + rounds;  gateway: the front doors

Importing this package registers the ``"tenant"`` and ``"servable"``
registry families.
"""

from .cache import ApproxResultCache, CacheEntry, CacheStats
from .client import AsyncServeClient, ServeClient, ServeClientError
from .contract import ServiceProtocol
from .gateway import LocalGateway, ServeServer
from .jobs import (
    STREAM_MIN_RATIO,
    STREAM_WINDOW,
    JobReport,
    JobRequest,
    RoundResult,
    StreamState,
)
from .kernels import (
    AnytimeServable,
    FluidanimateServable,
    MonteCarloPiServable,
    ServableKernel,
    SobelServable,
    TaskPlan,
    get_servable,
    servable_names,
)
from .service import DEFAULT_SERVE_CONFIG, TaskService
from .tenants import TenantSpec, TenantState

__all__ = [
    "ServiceProtocol",
    "TaskService",
    "LocalGateway",
    "ServeServer",
    "JobRequest",
    "JobReport",
    "RoundResult",
    "StreamState",
    "DEFAULT_SERVE_CONFIG",
    "STREAM_WINDOW",
    "STREAM_MIN_RATIO",
    "TenantSpec",
    "TenantState",
    "ApproxResultCache",
    "CacheEntry",
    "CacheStats",
    "ServableKernel",
    "AnytimeServable",
    "SobelServable",
    "MonteCarloPiServable",
    "FluidanimateServable",
    "TaskPlan",
    "get_servable",
    "servable_names",
    "ServeClient",
    "AsyncServeClient",
    "ServeClientError",
]
