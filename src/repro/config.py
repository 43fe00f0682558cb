"""Declarative runtime configuration: one frozen value object per run.

:class:`RuntimeConfig` captures everything :class:`~repro.runtime
.scheduler.Scheduler` needs — policy, worker count, machine model, cost
model, engine — as plain data.  Components are given either as registry
spec strings (``"gtb:buffer_size=16"``, ``"threaded"``; see
:mod:`repro.registry`) or as programmatic instances; spec-only configs
round-trip losslessly through :meth:`to_dict` / :meth:`from_dict`, which
is what makes :class:`~repro.experiment.ExperimentSpec` sweeps
serializable and process-parallelizable.

    >>> cfg = RuntimeConfig(policy="gtb:buffer_size=16", n_workers=8)
    >>> RuntimeConfig.from_dict(cfg.to_dict()) == cfg
    True
    >>> Scheduler(cfg)          # or Runtime(cfg), or Scheduler(policy=...)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from .registry import parse_spec, registry_for, resolve
from .runtime.errors import ConfigError, RegistryError

__all__ = ["RuntimeConfig", "component_name"]

#: Engine registry names that execute task bodies in worker processes
#: (the only backends where the data plane choice matters).
_PROCESS_ENGINES = frozenset({"process", "procpool", "processes"})

#: Valid data-plane specs: plane name -> allowed option validators.
_DATA_PLANES: dict[str, dict[str, Callable[[Any], bool]]] = {
    "pickle": {},
    "shm": {
        "min_bytes": lambda v: isinstance(v, int)
        and not isinstance(v, bool)
        and v >= 0,
    },
}


def _normalize_data_plane(value: Any) -> str:
    """Validate a ``data_plane`` value down to its canonical spec string.

    Unknown plane names and unknown/ill-typed options are rejected at
    config construction — the field is a deliberate API surface, not a
    kwargs pass-through.
    """
    if not isinstance(value, str):
        raise ConfigError(
            "data_plane must be a spec string "
            f"('pickle', 'shm', 'shm:min_bytes=8192'), got {value!r}"
        )
    try:
        name, options = parse_spec(value)
    except RegistryError as exc:
        raise ConfigError(f"invalid data_plane spec: {exc}") from exc
    if name not in _DATA_PLANES:
        raise ConfigError(
            f"unknown data plane {name!r}; "
            f"known: {sorted(_DATA_PLANES)}"
        )
    validators = _DATA_PLANES[name]
    for key, val in options.items():
        if key not in validators:
            raise ConfigError(
                f"unknown data_plane option {key!r} for {name!r}; "
                f"known: {sorted(validators) or 'none'}"
            )
        if not validators[key](val):
            raise ConfigError(
                f"invalid data_plane option {key}={val!r} for {name!r}"
            )
    return value


#: Valid compile-tier specs: tier name -> allowed option validators.
_COMPILE_TIERS: dict[str, dict[str, Callable[[Any], bool]]] = {
    "off": {},
    "specialize": {
        "cache_size": lambda v: isinstance(v, int)
        and not isinstance(v, bool)
        and v >= 1,
        "profile": lambda v: isinstance(v, bool),
        "chunks": lambda v: isinstance(v, int)
        and not isinstance(v, bool)
        and v >= 1,
    },
}


def _normalize_compile(value: Any) -> str:
    """Validate a ``compile`` value down to its canonical spec string."""
    if not isinstance(value, str):
        raise ConfigError(
            "compile must be a spec string ('off', 'specialize', "
            f"'specialize:cache_size=64'), got {value!r}"
        )
    try:
        name, options = parse_spec(value)
    except RegistryError as exc:
        raise ConfigError(f"invalid compile spec: {exc}") from exc
    if name not in _COMPILE_TIERS:
        raise ConfigError(
            f"unknown compile tier {name!r}; "
            f"known: {sorted(_COMPILE_TIERS)}"
        )
    validators = _COMPILE_TIERS[name]
    for key, val in options.items():
        if key not in validators:
            raise ConfigError(
                f"unknown compile option {key!r} for {name!r}; "
                f"known: {sorted(validators) or 'none'}"
            )
        if not validators[key](val):
            raise ConfigError(
                f"invalid compile option {key}={val!r} for {name!r}"
            )
    return value


def component_name(value: Any, default: str) -> str:
    """Display name of a config component: the spec string itself,
    ``describe()`` on instances that have it, else the type name."""
    if value is None:
        return default
    if isinstance(value, str):
        return value
    describe = getattr(value, "describe", None)
    return describe() if callable(describe) else type(value).__name__


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen description of one runtime instantiation.

    Parameters
    ----------
    policy:
        Significance policy spec or :class:`~repro.runtime.policies.base
        .Policy` instance.  Default: the significance-agnostic baseline.
    n_workers:
        Worker cores; the paper's evaluation uses 16.
    machine:
        Machine model spec/instance.  ``None`` (default) and spec
        strings are resized to ``n_workers`` cores; explicit instances
        are used as-is.
    cost_model:
        Task-duration strategy spec/instance (default ``"hybrid"``).
    engine:
        Execution backend spec/instance: ``"simulated"`` (default),
        ``"threaded"``, ``"process"`` (task bodies in a process
        pool), or ``"sequential"``.
    governor:
        Optional online energy controller spec/instance
        (``"governor:budget_j=1.2,interval=0.001"``); ``None``
        (default) runs open-loop.  See
        :class:`~repro.tuning.governor.EnergyBudgetGovernor`.
    tenants:
        Optional tuple of tenant specs for the serving layer
        (``("premium:name='alice'", "free:name='bob',budget_j=2.0")``;
        the ``"tenant"`` registry family, see
        :mod:`repro.serve.tenants`).  Ignored by :class:`Scheduler`;
        consumed by :class:`~repro.serve.TaskService` so one
        serializable config describes a whole multi-tenant service.
    cluster:
        Optional serve-cluster shape for the sharded serving layer: a
        ``"cluster:shards=4"`` spec string (the ``"cluster"`` registry
        family, see :mod:`repro.cluster.service`), a bare shard count
        (normalized to the spec string), or a programmatic
        :class:`~repro.cluster.service.ClusterSpec`.  Ignored by
        :class:`Scheduler`; consumed by
        :class:`~repro.cluster.service.ClusterService`.
    data_plane:
        How ndarray payloads cross the parent/worker boundary on
        multi-process engines: ``None`` (default — the engine spec
        decides, pickling unless it says ``shm=true``), ``"pickle"``
        (force pickling), or ``"shm"`` /
        ``"shm:min_bytes=8192"`` (zero-copy
        :class:`~repro.runtime.memory.SharedArrayPool` references for
        arrays of at least ``min_bytes`` bytes).  Validated at
        construction — unknown plane names or options raise
        :class:`ConfigError` — and applied by :meth:`build_engine` to
        the process-family engines; in-process engines (simulated,
        threaded) share memory natively and ignore it.
    compile:
        The compile tier: ``"off"`` (default — tasks run through the
        interpreted per-task significance branch) or ``"specialize"`` /
        ``"specialize:cache_size=64,profile=true,chunks=16"`` (the
        :class:`~repro.compiler.specialize.KernelSpecializer`:
        constant-fold the significance decision per ``(ratio, dvfs)``
        spec, inline the chosen variant into branch-free chunk loops,
        cache compiled bodies LRU).  Validated at construction;
        consumed by :class:`~repro.runtime.scheduler.Scheduler`
        (``spawn_specialized``) and requested at admission by
        :class:`~repro.serve.TaskService`.
    """

    policy: Any = "accurate"
    n_workers: int = 16
    machine: Any = None
    cost_model: Any = "hybrid"
    engine: Any = "simulated"
    governor: Any = None
    tenants: Any = None
    cluster: Any = None
    data_plane: Any = None
    compile: Any = "off"

    def __post_init__(self) -> None:
        if not isinstance(self.n_workers, int) or self.n_workers < 1:
            raise ConfigError(
                f"n_workers must be an int >= 1, got {self.n_workers!r}"
            )
        if self.tenants is not None:
            if isinstance(self.tenants, (str, bytes)) or not hasattr(
                self.tenants, "__iter__"
            ):
                raise ConfigError(
                    "tenants must be an iterable of tenant specs "
                    f"(or None), got {self.tenants!r}"
                )
            object.__setattr__(self, "tenants", tuple(self.tenants))
            for spec in self.tenants:
                if isinstance(spec, str):
                    try:
                        parse_spec(spec)
                    except RegistryError as exc:
                        raise ConfigError(
                            f"invalid tenant spec: {exc}"
                        ) from exc
        if isinstance(self.cluster, bool):
            raise ConfigError(
                f"cluster must be a spec string, a shard count or a "
                f"ClusterSpec, got {self.cluster!r}"
            )
        if isinstance(self.cluster, int):
            # Normalize the shard-count sugar to a spec string so the
            # config stays serializable.
            object.__setattr__(
                self, "cluster", f"cluster:shards={self.cluster}"
            )
        if isinstance(self.cluster, str):
            # Spec-parse only: the "cluster" registry family registers
            # lazily in repro.cluster.service (see build_cluster).
            try:
                parse_spec(self.cluster)
            except RegistryError as exc:
                raise ConfigError(
                    f"invalid cluster spec: {exc}"
                ) from exc
        if self.data_plane is not None:
            object.__setattr__(
                self,
                "data_plane",
                _normalize_data_plane(self.data_plane),
            )
        if self.compile is None:
            object.__setattr__(self, "compile", "off")
        if isinstance(self.compile, str):
            object.__setattr__(
                self, "compile", _normalize_compile(self.compile)
            )
        elif not hasattr(self.compile, "specialize_plan"):
            # Not a spec string and not a specializer instance: reject
            # with the spec-string message.
            _normalize_compile(self.compile)
        # Fail fast on unparseable/unknown spec strings: a config is a
        # value object and should be invalid at construction, not at
        # scheduler start.
        for kind, value in (
            ("policy", self.policy),
            ("machine", self.machine),
            ("cost-model", self.cost_model),
            ("engine", self.engine),
            ("governor", self.governor),
        ):
            if isinstance(value, str):
                try:
                    name, _ = parse_spec(value)
                    registry_for(kind).factory(name)
                except RegistryError as exc:
                    raise ConfigError(f"invalid {kind} spec: {exc}") from exc

    # -- derivation ------------------------------------------------------
    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form; requires every component to be a spec string.

        Programmatic instances cannot be serialized — pass registry
        specs (``policy="gtb:buffer_size=16"``) where round-tripping
        matters (JSON configs, process-parallel sweeps).
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tenants":
                if value is not None and not all(
                    isinstance(t, str) for t in value
                ):
                    raise ConfigError(
                        "RuntimeConfig.tenants holds programmatic "
                        "instances; only tenant spec strings serialize"
                    )
                out[f.name] = None if value is None else list(value)
                continue
            if f.name != "n_workers" and not (
                value is None or isinstance(value, str)
            ):
                raise ConfigError(
                    f"RuntimeConfig.{f.name} holds a programmatic "
                    f"{type(value).__name__} instance; only registry "
                    "spec strings serialize"
                )
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RuntimeConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RuntimeConfig keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)

    # -- component builders ----------------------------------------------
    def build_policy(self):
        """A fresh policy instance (specs) or the given one (instances)."""
        return resolve("policy", self.policy)

    def build_machine(self):
        """The machine model, sized to ``n_workers`` unless given as an
        explicit instance."""
        if self.machine is None:
            from .energy.machine_model import XEON_E5_2650

            return XEON_E5_2650.with_workers(self.n_workers)
        machine = resolve("machine", self.machine)
        if isinstance(self.machine, str):
            machine = machine.with_workers(self.n_workers)
        return machine

    def build_cost_model(self):
        return resolve("cost-model", self.cost_model)

    def build_governor(self):
        """A fresh governor instance, or ``None`` for open-loop runs."""
        if self.governor is None:
            return None
        return resolve("governor", self.governor)

    def build_tenants(self) -> tuple:
        """Fresh tenant specs for the serving layer (empty when unset).

        Resolution is lazy: the ``"tenant"`` registry family lives in
        :mod:`repro.serve.tenants`, which is imported on first use so a
        bare ``repro.config`` import stays serve-free.
        """
        if self.tenants is None:
            return ()
        from .serve import tenants as _tenants  # noqa: F401 (registers)

        return tuple(resolve("tenant", t) for t in self.tenants)

    def build_cluster(self):
        """A fresh cluster shape, or ``None`` when unset.

        Resolution is lazy like :meth:`build_tenants`: the
        ``"cluster"`` registry family lives in
        :mod:`repro.cluster.service`, imported on first use.
        """
        if self.cluster is None:
            return None
        from .cluster.service import _resolve_cluster

        return _resolve_cluster(self.cluster)

    def build_compile(self):
        """A fresh compile-tier specializer, or ``None`` for ``"off"``.

        Resolution is lazy like :meth:`build_tenants`: the
        ``"compile"`` registry family lives in
        :mod:`repro.compiler.specialize`, imported on first use so a
        bare ``repro.config`` import stays compiler-free.
        """
        if not isinstance(self.compile, str):
            return self.compile  # programmatic specializer instance
        name, _ = parse_spec(self.compile)
        if name == "off":
            return None
        from .compiler import specialize as _specialize  # noqa: F401

        return resolve("compile", self.compile)

    def build_engine(
        self,
        machine,
        cost_model,
        policy,
        on_task_finished: Callable,
        stall_handler: Callable | None = None,
    ):
        """The execution engine, wired to the scheduler's callbacks.

        Engines need live callbacks, so unlike the other components they
        are always built here rather than by :func:`~repro.registry
        .resolve`.
        """
        if not isinstance(self.engine, str):
            return self.engine
        name, kwargs = parse_spec(self.engine)
        if self.data_plane is not None and name in _PROCESS_ENGINES:
            # The data_plane field is the deliberate API; explicit
            # engine-spec options (``"process:shm=true"``) still win.
            plane, options = parse_spec(self.data_plane)
            kwargs.setdefault("shm", plane == "shm")
            if "min_bytes" in options:
                kwargs.setdefault("shm_min_bytes", options["min_bytes"])
        factory = registry_for("engine").factory(name)
        return factory(
            self.n_workers,
            machine,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
            **kwargs,
        )

    # -- description -----------------------------------------------------
    def describe(self) -> str:
        """Compact human-readable summary for tables and logs."""
        text = (
            f"policy={component_name(self.policy, 'accurate')} "
            f"workers={self.n_workers} "
            f"engine={component_name(self.engine, 'simulated')}"
        )
        if self.governor is not None:
            text += f" governor={component_name(self.governor, 'none')}"
        if self.tenants:
            text += f" tenants={len(self.tenants)}"
        if self.cluster is not None:
            text += f" cluster={component_name(self.cluster, 'none')}"
        if self.data_plane is not None:
            text += f" data_plane={component_name(self.data_plane, 'none')}"
        if not (isinstance(self.compile, str) and self.compile == "off"):
            text += f" compile={component_name(self.compile, 'off')}"
        return text
