"""Clients for the JSON-lines serve gateway.

:class:`ServeClient` is a small blocking-socket client (scripts, CI
smoke, examples); :class:`AsyncServeClient` is its asyncio twin for
callers already living in an event loop.  Both speak the one-JSON-
object-per-line protocol of :class:`~repro.serve.ServeServer`
and raise :class:`ServeClientError` on transport or protocol errors —
*rejections are not errors*: a 429/404 outcome comes back as a normal
job dict with its ``status``/``code`` fields set.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from ..runtime.errors import ReproError

__all__ = ["ServeClientError", "ServeClient", "AsyncServeClient"]


class ServeClientError(ReproError):
    """Transport/protocol failure talking to a serve gateway."""


def _submit_message(
    tenant: str,
    kernel: str,
    args: dict | None,
    ratio: float,
    stream: str | None = None,
    frame: int | None = None,
    rounds: int | None = None,
    deadline_s: float | None = None,
) -> dict:
    message: dict[str, Any] = {
        "op": "submit",
        "tenant": tenant,
        "kernel": kernel,
        "ratio": ratio,
    }
    if args is not None:
        message["args"] = args
    if stream is not None:
        message["stream"] = stream
    if frame is not None:
        message["frame"] = frame
    if rounds is not None:
        message["rounds"] = rounds
    if deadline_s is not None:
        message["deadline_s"] = deadline_s
    return message


def _unwrap(response: dict, key: str) -> dict:
    if "error" in response:
        raise ServeClientError(f"gateway error: {response['error']}")
    if key not in response:
        raise ServeClientError(
            f"malformed gateway response (no {key!r}): {response}"
        )
    return response[key]


class ServeClient:
    """Blocking JSON-lines client for one gateway connection."""

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout_s
            )
        except OSError as exc:
            raise ServeClientError(
                f"cannot connect to serve gateway at {host}:{port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")

    # -- framing ---------------------------------------------------------
    def _roundtrip(self, message: dict) -> dict:
        try:
            self._file.write(json.dumps(message).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServeClientError(f"gateway I/O failed: {exc}") from exc
        if not line:
            raise ServeClientError("gateway closed the connection")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeClientError(
                f"malformed gateway frame: {line[:200]!r}"
            ) from exc

    # -- operations ------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def submit(
        self,
        tenant: str,
        kernel: str,
        args: dict | None = None,
        ratio: float = 1.0,
        *,
        stream: str | None = None,
        frame: int | None = None,
        rounds: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """Submit one job and block until its report comes back.

        ``stream``/``frame`` select the streaming shape (ordered frame
        sequences, degrade-not-drop under pressure); ``rounds`` /
        ``deadline_s`` select the anytime shape (the report carries
        ``rounds_run`` and the per-round ``round_quality`` curve).
        """
        return _unwrap(
            self._roundtrip(
                _submit_message(
                    tenant, kernel, args, ratio,
                    stream=stream, frame=frame,
                    rounds=rounds, deadline_s=deadline_s,
                )
            ),
            "job",
        )

    def stats(self) -> dict:
        return _unwrap(self._roundtrip({"op": "stats"}), "stats")

    def metrics(self, format: str = "json"):
        """Scrape the gateway's metrics registry.

        ``format="json"`` (default) returns the stable-JSON snapshot
        as a dict; ``format="prometheus"`` (or ``"text"``) returns the
        Prometheus text exposition as a string.
        """
        message: dict[str, Any] = {"op": "metrics"}
        as_text = format in ("prometheus", "text")
        if as_text:
            message["format"] = format
        return _unwrap(
            self._roundtrip(message), "text" if as_text else "metrics"
        )

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class AsyncServeClient:
    """Asyncio JSON-lines client (one connection, sequential frames)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def connect(self) -> "AsyncServeClient":
        import asyncio

        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ServeClientError(
                f"cannot connect to serve gateway at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        return self

    async def _roundtrip(self, message: dict) -> dict:
        if self._writer is None:
            await self.connect()
        self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServeClientError("gateway closed the connection")
        return json.loads(line)

    async def ping(self) -> bool:
        return bool((await self._roundtrip({"op": "ping"})).get("pong"))

    async def submit(
        self,
        tenant: str,
        kernel: str,
        args: dict | None = None,
        ratio: float = 1.0,
        *,
        stream: str | None = None,
        frame: int | None = None,
        rounds: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        return _unwrap(
            await self._roundtrip(
                _submit_message(
                    tenant, kernel, args, ratio,
                    stream=stream, frame=frame,
                    rounds=rounds, deadline_s=deadline_s,
                )
            ),
            "job",
        )

    async def stats(self) -> dict:
        return _unwrap(await self._roundtrip({"op": "stats"}), "stats")

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:  # pragma: no cover - teardown race
                pass
            self._writer = self._reader = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
