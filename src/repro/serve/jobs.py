"""The job model: what crosses the service boundary.

:class:`JobRequest` goes in, :class:`JobReport` comes out; streams and
anytime jobs add :class:`StreamState` (one admission lane) and
:class:`RoundResult` (one refinement round's snapshot).  Plain data —
nothing here touches a scheduler, a tenant table or a socket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from ..runtime.errors import ConfigError

__all__ = [
    "JobRequest",
    "JobReport",
    "RoundResult",
    "StreamState",
    "STREAM_WINDOW",
    "STREAM_MIN_RATIO",
]

#: Per-stream admission window: frames admitted but not yet executed.
#: A producer that outruns the service by more than a window's worth
#: of frames is pushed back (429) instead of ballooning the queue —
#: backpressure preserves frame order (the frame is *not* consumed, so
#: the producer retries the same index).
STREAM_WINDOW = 32

#: Floor of the served ratio for an over-budget stream frame.  Streams
#: degrade instead of dropping frames, but a D-mode kernel at ratio 0
#: would drop every task and return an empty answer — the stream
#: contract guarantees at least this much accurate work per frame.
STREAM_MIN_RATIO = 0.1

_job_ids = itertools.count(1)


@dataclass
class JobRequest:
    """One job submission: a kernel, its args, and a quality request.

    Three job shapes share this envelope:

    * **batch** (the default) — one kernel invocation, one answer.
    * **streaming** — ``stream`` names an ordered frame sequence; the
      optional ``frame`` index must match the stream's next expected
      frame (omitted = "the next one").  Frames are admitted through a
      per-stream window and degrade in ratio under budget pressure
      instead of being dropped.
    * **anytime** — ``rounds > 1`` (or a ``deadline_s``) asks an
      anytime-capable kernel to iterate, reporting improving quality
      after every round; the client takes the current answer when its
      deadline hits (see :meth:`TaskService.submit_anytime`).
    """

    tenant: str
    kernel: str
    args: dict | None = None
    #: Requested accurate-task ratio (the Table 1 knob, per job).
    ratio: float = 1.0
    job_id: str = field(default_factory=lambda: f"j{next(_job_ids)}")
    #: Streaming: the frame sequence this job belongs to.
    stream: str | None = None
    #: Streaming: explicit frame index (must be the stream's next).
    frame: int | None = None
    #: Anytime: refinement rounds to run (1 = plain batch job).
    rounds: int = 1
    #: Anytime: stop after this much engine time, keeping the current
    #: answer — the "take what you have" deadline.
    deadline_s: float | None = None
    #: Observability: the distributed trace this job belongs to and the
    #: caller's span to parent under.  ``None`` (the default) lets the
    #: first instrumented layer mint a fresh trace; gateways and the
    #: cluster router fill both in as the request crosses layers (see
    #: :mod:`repro.obs.spans`).
    trace_id: str | None = None
    parent_span: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(
                f"job ratio must be in [0, 1], got {self.ratio}"
            )
        if self.args is not None and not isinstance(self.args, dict):
            raise ConfigError(
                f"job args must be a dict or None, got {self.args!r}"
            )
        if self.stream is not None and (
            not isinstance(self.stream, str) or not self.stream
        ):
            raise ConfigError(
                f"job stream must be a non-empty string, "
                f"got {self.stream!r}"
            )
        if self.frame is not None:
            if self.stream is None:
                raise ConfigError("job frame requires a stream")
            if (
                not isinstance(self.frame, int)
                or isinstance(self.frame, bool)
                or self.frame < 0
            ):
                raise ConfigError(
                    f"job frame must be an int >= 0, got {self.frame!r}"
                )
        if (
            not isinstance(self.rounds, int)
            or isinstance(self.rounds, bool)
            or self.rounds < 1
        ):
            raise ConfigError(
                f"job rounds must be an int >= 1, got {self.rounds!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigError(
                f"job deadline_s must be > 0, got {self.deadline_s!r}"
            )
        for attr in ("trace_id", "parent_span"):
            value = getattr(self, attr)
            if value is not None and (
                not isinstance(value, str) or not value
            ):
                raise ConfigError(
                    f"job {attr} must be a non-empty string or None, "
                    f"got {value!r}"
                )
        if self.stream is not None and self.anytime:
            raise ConfigError(
                "a job is streaming or anytime, not both "
                f"(stream={self.stream!r}, rounds={self.rounds}, "
                f"deadline_s={self.deadline_s!r})"
            )

    @property
    def anytime(self) -> bool:
        """Whether this request asks for the anytime/iterative shape."""
        return self.rounds > 1 or self.deadline_s is not None

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        known = {
            "tenant", "kernel", "args", "ratio", "job_id",
            "stream", "frame", "rounds", "deadline_s",
            "trace_id", "parent_span",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown JobRequest keys {sorted(unknown)}"
            )
        missing = {"tenant", "kernel"} - set(data)
        if missing:
            raise ConfigError(
                f"JobRequest needs {sorted(missing)}"
            )
        return cls(**data)


@dataclass
class JobReport:
    """Per-job outcome: the service's answer envelope.

    ``status`` is one of ``executed``, ``cached``, ``cached-degraded``,
    ``coalesced`` (identical in-round work, served from its leader's
    execution), ``queued`` (transient), or a ``rejected-*`` reason;
    ``code``
    mirrors it HTTP-style (200 served, 429 shed, 404 unknown).
    ``latency_s`` is measured on the engine's own timeline (virtual
    seconds on simulated backends — deterministic), ``wall_latency_s``
    on the host clock.
    """

    job_id: str
    tenant: str
    kernel: str
    status: str = "queued"
    code: int = 0
    ratio_requested: float = 1.0
    ratio_served: float | None = None
    quality: float | None = None
    energy_j: float = 0.0
    latency_s: float = 0.0
    wall_latency_s: float = 0.0
    tasks_total: int = 0
    accurate: int = 0
    approximate: int = 0
    dropped: int = 0
    detail: str = ""
    output: Any = field(default=None, repr=False)
    #: Streaming: stream name / frame index this report answers.
    stream: str | None = None
    frame: int | None = None
    #: Anytime: rounds actually run and the per-round quality curve.
    rounds_run: int = 0
    round_quality: list = field(default_factory=list)
    #: Observability: the trace/span this job was served under (``None``
    #: when telemetry is off) — clients join these against the span log.
    trace_id: str | None = None
    span_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 200

    @property
    def served_from_cache(self) -> bool:
        return self.status in ("cached", "cached-degraded")

    def to_dict(self) -> dict:
        """Wire form: everything but the output payload (scalar outputs
        ride along as ``result``)."""
        out = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kernel": self.kernel,
            "status": self.status,
            "code": self.code,
            "ratio_requested": self.ratio_requested,
            "ratio_served": self.ratio_served,
            "quality": self.quality,
            "energy_j": self.energy_j,
            "latency_s": self.latency_s,
            "wall_latency_s": self.wall_latency_s,
            "tasks_total": self.tasks_total,
            "accurate": self.accurate,
            "approximate": self.approximate,
            "dropped": self.dropped,
            "detail": self.detail,
        }
        if self.stream is not None:
            out["stream"] = self.stream
            out["frame"] = self.frame
        if self.rounds_run:
            out["rounds_run"] = self.rounds_run
            out["round_quality"] = list(self.round_quality)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        if isinstance(self.output, (int, float, str, bool)):
            out["result"] = self.output
        return out


@dataclass
class StreamState:
    """Live admission state of one ``(tenant, stream)`` frame sequence.

    Streams get their own admission lane: frame occupancy counts
    against a per-stream window (:data:`STREAM_WINDOW`), not the
    tenant's batch queue cap, and a budget-throttled tenant's frames
    are *degraded* in served ratio — down to the tenant's floor, never
    below :data:`STREAM_MIN_RATIO` — instead of being rejected.
    """

    tenant: str
    stream: str
    max_inflight: int = STREAM_WINDOW
    #: Next expected frame index (frames must arrive in order).
    next_frame: int = 0
    #: Frames admitted but not yet executed (the window universe).
    inflight: int = 0
    #: Lifetime counters for stats and the scenario figures.
    frames: int = 0
    degraded: int = 0
    rejected: int = 0

    def summary(self) -> dict:
        return {
            "tenant": self.tenant,
            "stream": self.stream,
            "next_frame": self.next_frame,
            "inflight": self.inflight,
            "frames": self.frames,
            "degraded": self.degraded,
            "rejected": self.rejected,
        }


@dataclass
class RoundResult:
    """One anytime round's snapshot, handed to the round callback.

    The callback may return ``False`` to take the current answer and
    stop iterating — the "early take" that makes the job *anytime*.
    """

    round: int
    output: Any = field(repr=False)
    quality: float | None
    energy_j: float
    elapsed_s: float
    ratio: float

