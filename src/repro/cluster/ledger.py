"""The cluster energy ledger: lifetime tenant budgets without a global lock.

A single :class:`~repro.serve.TaskService` enforces a tenant's
lifetime Joule budget trivially — one counter, one thread.  A sharded
cluster cannot put that counter behind a per-job lock without serializing
exactly the path sharding is supposed to parallelize.  The EXCESS line of
work this repo draws on (D2.3 power/energy models for *concurrent* data
structures, D2.4 energy-efficient communication abstractions) prescribes
the alternative implemented here: a shared account that shards draw from
in **chunked leases**, so the common path is shard-local arithmetic and
the shared structure is touched only once per lease.

Protocol
--------
* The ledger keeps one :class:`LedgerAccount` per budgeted tenant:
  ``budget_j`` (lifetime), ``granted_j`` (sum of all lease grants) and
  ``settled_j`` (sum of all reported spends).
* Each shard holds one :class:`LedgerLease` per budgeted tenant.  The
  hot path — billing an executed job — is :meth:`LedgerLease.draw`:
  two float adds on shard-local state, no lock.
* Between admission rounds the shard calls :meth:`LedgerLease.ensure`,
  which refills from the ledger (one short critical section) only when
  the local headroom has dropped below ``low_water`` of a chunk.
* :meth:`EnergyLedger.settle` folds a lease's drawn-but-unreported
  Joules into the account; the cluster settles after every round, so
  ``spent_j`` lags reality by at most one round.
* A tenant is cut off when its lease is dry **and** the ledger has no
  headroom left — i.e. within one lease chunk of the true budget, never
  one job late per shard (``tests/cluster/test_ledger.py`` pins the
  overshoot bound).

Because the energy a job *will* cost is only known after it runs, a
lease may overdraw by at most one job; the overdraw is settled against
the account and eats into the next grant, so lifetime accounting stays
exact: after :meth:`EnergyLedger.reclaim`, ``spent_j`` equals the sum of
every shard's measured spend to the float.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..runtime.errors import ConfigError

__all__ = ["LedgerAccount", "LedgerLease", "EnergyLedger"]

#: Default lease chunk, as a fraction of the tenant's lifetime budget.
#: 1/16th keeps the worst-case cluster overshoot (one in-flight chunk
#: per shard) far inside the serve layer's accounting noise while still
#: touching the ledger lock only ~16 times per budget lifetime per
#: shard.
DEFAULT_CHUNK_FRAC = 1.0 / 16.0

#: Refill threshold: top the lease up once local headroom falls below
#: this fraction of a chunk.
LOW_WATER_FRAC = 0.5


@dataclass
class LedgerAccount:
    """Cluster-wide energy account of one tenant."""

    tenant: str
    budget_j: float
    #: Joules handed out as leases (monotone).
    granted_j: float = 0.0
    #: Joules reported back as actually spent (monotone).
    settled_j: float = 0.0
    #: Grants returned unspent by :meth:`EnergyLedger.reclaim`.
    reclaimed_j: float = 0.0

    @property
    def headroom_j(self) -> float:
        """Joules still grantable: budget minus outstanding grants."""
        return self.budget_j - self.granted_j + self.reclaimed_j

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "budget_j": self.budget_j,
            "granted_j": self.granted_j,
            "settled_j": self.settled_j,
            "reclaimed_j": self.reclaimed_j,
            "headroom_j": self.headroom_j,
        }


@dataclass
class LedgerLease:
    """One shard's local allowance of one tenant's cluster budget.

    ``draw``/``remaining_j`` are touched only by the owning shard's
    worker thread; ``granted_j`` moves only inside the ledger's critical
    section (called from that same thread), so the hot path needs no
    lock of its own.
    """

    tenant: str
    shard: int
    ledger: "EnergyLedger" = field(repr=False)
    chunk_j: float = 0.0
    #: Cumulative grants to this lease (monotone).
    granted_j: float = 0.0
    #: Joules drawn locally against the grants (may overdraw by at most
    #: the last job billed — energy is measured after execution).
    used_j: float = 0.0
    #: Portion of ``used_j`` already folded into the account.
    settled_j: float = 0.0

    @property
    def remaining_j(self) -> float:
        return self.granted_j - self.used_j

    def draw(self, energy_j: float) -> None:
        """Bill one executed job — shard-local, lock-free."""
        self.used_j += energy_j

    def ensure(self) -> bool:
        """Refill if low; returns whether the tenant may keep executing.

        ``False`` means cut off: the lease is dry and the ledger granted
        nothing — the shard should stop admitting fresh execution for
        this tenant (cache and rejection paths stay open).
        """
        if self.remaining_j < LOW_WATER_FRAC * self.chunk_j:
            self.ledger.refill(self)
        return self.remaining_j > 0.0

    @property
    def steer_target_j(self) -> float:
        """The budget a shard's governor should steer toward.

        Quota already granted to this shard plus everything the cluster
        account could still grant.  Optimistic early — several shards
        briefly count the same headroom — but the optimism decays to
        zero as grants drain the account, so by the time a budget binds
        every governor is solving against its true local quota.  (The
        pessimistic alternative, steering against the current chunk
        alone, would over-degrade the first rounds of every run however
        generous the lifetime budget.)
        """
        return self.granted_j + self.ledger.headroom_j(self.tenant)

    @property
    def exhausted(self) -> bool:
        """Read-only cut-off predicate (no refill side effect)."""
        return (
            self.remaining_j <= 0.0
            and self.ledger.headroom_j(self.tenant) <= 0.0
        )

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "shard": self.shard,
            "granted_j": self.granted_j,
            "used_j": self.used_j,
            "remaining_j": self.remaining_j,
        }


class EnergyLedger:
    """Cluster-level store of tenant energy accounts (see module doc)."""

    def __init__(self) -> None:
        self._accounts: dict[str, LedgerAccount] = {}
        self._leases: list[LedgerLease] = []
        self._lock = threading.Lock()
        # Telemetry handles; None until bind_metrics wires a registry.
        self._m_grants = None
        self._m_granted_j = None
        self._m_settled_j = None

    def bind_metrics(self, registry) -> None:
        """Wire grant/settle telemetry into a metrics registry."""
        self._m_grants = registry.counter(
            "repro_ledger_grants_total",
            "Lease refills that granted any quota.",
            labels=("tenant",),
        )
        self._m_granted_j = registry.counter(
            "repro_ledger_granted_joules_total",
            "Joules granted to shard leases.",
            labels=("tenant",),
        )
        self._m_settled_j = registry.counter(
            "repro_ledger_settled_joules_total",
            "Joules settled back into tenant accounts.",
            labels=("tenant",),
        )

    # -- accounts --------------------------------------------------------
    def open_account(
        self, tenant: str, budget_j: float
    ) -> LedgerAccount:
        if budget_j <= 0:
            raise ConfigError(
                f"ledger budget must be > 0 J, got {budget_j}"
            )
        with self._lock:
            if tenant in self._accounts:
                raise ConfigError(
                    f"ledger account {tenant!r} already exists"
                )
            account = self._accounts[tenant] = LedgerAccount(
                tenant=tenant, budget_j=budget_j
            )
            return account

    def account(self, tenant: str) -> LedgerAccount:
        try:
            return self._accounts[tenant]
        except KeyError:
            raise ConfigError(
                f"no ledger account for tenant {tenant!r}"
            ) from None

    @property
    def tenants(self) -> list[str]:
        return sorted(self._accounts)

    def headroom_j(self, tenant: str) -> float:
        # A bare read of two floats — GIL-atomic enough for the
        # read-only `exhausted` predicate; admission-critical paths go
        # through refill(), which holds the lock.
        return self.account(tenant).headroom_j

    # -- the lease protocol ----------------------------------------------
    def lease(
        self, tenant: str, shard: int, chunk_j: float | None = None
    ) -> LedgerLease:
        """Open one shard's lease on a tenant account (initially empty;
        the first :meth:`LedgerLease.ensure` pulls the first chunk)."""
        account = self.account(tenant)
        if chunk_j is None:
            chunk_j = DEFAULT_CHUNK_FRAC * account.budget_j
        if chunk_j <= 0:
            raise ConfigError(
                f"lease chunk must be > 0 J, got {chunk_j}"
            )
        lease = LedgerLease(
            tenant=tenant, shard=shard, ledger=self, chunk_j=chunk_j
        )
        with self._lock:
            self._leases.append(lease)
        return lease

    def refill(self, lease: LedgerLease) -> float:
        """Grant up to one chunk; returns the Joules actually granted.

        Settles the lease's unreported spend first, so an overdraw eats
        into this grant instead of inflating the account's headroom.
        """
        with self._lock:
            self._settle_locked(lease)
            account = self.account(lease.tenant)
            shortfall = lease.chunk_j - lease.remaining_j
            grant = max(0.0, min(shortfall, account.headroom_j))
            if grant > 0.0:
                lease.granted_j += grant
                account.granted_j += grant
                if self._m_grants is not None:
                    self._m_grants.labels(lease.tenant).inc()
                    self._m_granted_j.labels(lease.tenant).inc(grant)
            return grant

    def settle(self, lease: LedgerLease) -> float:
        """Fold the lease's unreported spend into the account."""
        with self._lock:
            return self._settle_locked(lease)

    def _settle_locked(self, lease: LedgerLease) -> float:
        # Snapshot once: draws from the shard thread that race this
        # settle are simply picked up by the next one.
        used = lease.used_j
        delta = used - lease.settled_j
        if delta:
            lease.settled_j = used
            self.account(lease.tenant).settled_j += delta
            if self._m_settled_j is not None and delta > 0:
                self._m_settled_j.labels(lease.tenant).inc(delta)
        return delta

    def settle_all(self) -> None:
        with self._lock:
            for lease in self._leases:
                self._settle_locked(lease)

    def reclaim(self) -> None:
        """End of run: settle everything and return unspent grants.

        After this, every account's ``settled_j`` equals the sum of its
        shards' measured spends and ``headroom_j`` reflects only Joules
        truly spent — the invariant the 2 % cluster-parity gate checks.
        """
        with self._lock:
            for lease in self._leases:
                self._settle_locked(lease)
                unspent = lease.granted_j - lease.used_j
                if unspent > 0.0:
                    self.account(lease.tenant).reclaimed_j += unspent
                    # The lease keeps its books (granted stays monotone)
                    # but can no longer cover new draws for free:
                    # mark the reclaimed portion as used so remaining_j
                    # drops to zero.
                    lease.used_j += unspent
                    lease.settled_j += unspent

    # -- reporting -------------------------------------------------------
    def spent_j(self, tenant: str) -> float:
        return self.account(tenant).settled_j

    def to_dict(self) -> dict:
        return {
            "accounts": {
                name: acct.to_dict()
                for name, acct in sorted(self._accounts.items())
            },
            "leases": [
                lease.to_dict()
                for lease in sorted(
                    self._leases, key=lambda l: (l.tenant, l.shard)
                )
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EnergyLedger {len(self._accounts)} accounts>"
