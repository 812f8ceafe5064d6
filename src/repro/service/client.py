"""The small blocking client for the service front end.

One :class:`ServiceClient` holds one connection and issues framed JSON
requests sequentially (open several clients for concurrency).  A failed
request raises :class:`RemoteServiceError`, which re-exposes the
server's structured error — class name, taxonomy, ``retryable`` and
``retry_after`` — so callers branch on fields, not message strings.

Two robustness layers live here rather than in every caller:

* **transport** — the socket timeout applies to connect, send, and
  receive, so a silently dead peer surfaces as a typed, *retryable*
  :class:`~repro.errors.TruncatedStreamError` instead of a hang, as does
  a peer that hangs up or resets mid-exchange (only a refused connect
  stays a ``ConnectionError``); any transport failure closes the socket,
  and the next request reconnects (every service op is idempotent —
  content-addressed compilation — so a resend after an ambiguous failure
  is safe);
* **retry** — ``request(..., retries=N)`` (or a client-wide default)
  retries retryable structured errors and transport errors with
  jittered exponential backoff, honoring the server's ``retry_after``
  hint as a floor.  The budget exhausted, the last error propagates
  unchanged, so callers (the CLI's exit 75, the cluster router) still
  see the structured failure.
"""

from __future__ import annotations

import base64
import socket
import time
import zlib
from random import Random
from typing import Any, Dict, List, Optional

from ..errors import DecodeError, ServiceError, TruncatedStreamError
from . import protocol

__all__ = ["RemoteServiceError", "ServiceClient"]


class RemoteServiceError(ServiceError):
    """A structured error reply from the server.

    ``error_type`` is the server-side exception class name (e.g.
    ``"DeadlineExceededError"``, ``"CorruptStreamError"``), ``taxonomy``
    the family (``service`` / ``decode`` / ``compile`` / ``internal``).
    """

    def __init__(self, error: Dict[str, Any]) -> None:
        super().__init__(error.get("message", "service error"))
        self.error_type = str(error.get("type", "unknown"))
        self.taxonomy = str(error.get("taxonomy", "unknown"))
        self.retryable = bool(error.get("retryable", False))
        self.retry_after = error.get("retry_after")

    def __str__(self) -> str:
        hint = " (retryable)" if self.retryable else ""
        return f"{self.error_type}: {super().__str__()}{hint}"


#: Transport-level failures worth a reconnect-and-retry: the peer died,
#: the connection dropped mid-frame, or the reply bytes were mangled.
_TRANSPORT_ERRORS = (DecodeError, ConnectionError, OSError)


class ServiceClient:
    """Blocking, single-connection client; usable as a context manager.

    ``retries`` sets the default retry budget for every request issued
    through this client (``request`` can override per call); ``rng``
    seeds the backoff jitter for deterministic tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7117,
                 timeout: float = 30.0, retries: int = 0,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 rng: Optional[Random] = None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_base <= 0 or backoff_max < backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_max")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._rng = rng if rng is not None else Random()
        self._sock: Optional[socket.socket] = None
        self._next_id = 0

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    # -- request plumbing --------------------------------------------------

    def request(self, op: str, retries: Optional[int] = None,
                **fields: Any) -> Dict[str, Any]:
        """Send one request; return the reply's ``result`` object.

        Raises :class:`RemoteServiceError` on a structured error reply
        and :class:`repro.errors.DecodeError` when the transport itself
        misbehaves (corrupt reply frame, connection cut mid-reply, send
        or receive timed out).  ``retries`` (default: the client-wide
        budget) re-sends after retryable structured errors and after any
        transport error, sleeping a jittered exponential backoff — never
        less than the server's ``retry_after`` hint — between attempts.
        """
        budget = self.retries if retries is None else retries
        if budget < 0:
            raise ValueError("retries must be >= 0")
        attempt = 0
        while True:
            try:
                return self._request_once(op, fields)
            except RemoteServiceError as exc:
                if not exc.retryable or attempt >= budget:
                    raise
                delay = self._backoff(attempt, exc.retry_after)
            except _TRANSPORT_ERRORS:
                # _request_once already closed the socket; the next
                # attempt reconnects.  Every op is idempotent, so a
                # resend after an ambiguous failure cannot double-apply.
                if attempt >= budget:
                    raise
                delay = self._backoff(attempt, None)
            attempt += 1
            time.sleep(delay)

    def _request_once(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        assert self._sock is not None
        self._next_id += 1
        message = {"id": self._next_id, "op": op}
        message.update({k: v for k, v in fields.items() if v is not None})
        try:
            self._sock.sendall(protocol.encode_message(message))
            payload = protocol.read_frame_sync(self._sock)
        except socket.timeout as exc:
            # A dead-but-undetected peer: surface as a typed transport
            # error instead of letting callers hang on retry logic.
            self.close()
            raise TruncatedStreamError(
                f"timed out awaiting a reply to {op!r} after "
                f"{self.timeout}s") from exc
        except DecodeError:
            # Corrupt reply: the stream can no longer be trusted, so the
            # socket must not serve the next request.  close() forces a
            # clean reconnect.
            self.close()
            raise
        except OSError as exc:
            # The peer reset the connection (RST) or the pipe broke
            # mid-exchange: the same truncated exchange as a clean EOF,
            # so it surfaces in the typed taxonomy, not as a raw OSError.
            self.close()
            raise TruncatedStreamError(
                f"connection lost awaiting a reply to {op!r}: "
                f"{type(exc).__name__}: {exc}") from exc
        if payload is None:
            # The server closed instead of replying: surface as a
            # truncated exchange so retry logic can treat it uniformly.
            self.close()
            raise TruncatedStreamError(
                f"connection closed before a reply to {op!r}")
        reply = protocol.decode_message(payload)
        if reply.get("ok"):
            return reply.get("result", {})
        raise RemoteServiceError(reply.get("error", {}))

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        """Full-jitter exponential backoff, floored at the server hint."""
        cap = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay = self._rng.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return min(delay, self.backoff_max)

    # -- convenience ops ---------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def ready(self) -> Dict[str, Any]:
        return self.request("ready")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def sleep(self, seconds: float,
              deadline: Optional[float] = None,
              name: Optional[str] = None) -> Dict[str, Any]:
        return self.request("sleep", seconds=seconds, deadline=deadline,
                            name=name)

    def compile(self, source: str, name: str = "<client>",
                stages: Optional[List[str]] = None,
                deadline: Optional[float] = None) -> Dict[str, Any]:
        return self.request("compile", source=source, name=name,
                            stages=stages, deadline=deadline)

    def wire(self, source: str, name: str = "<client>",
             deadline: Optional[float] = None) -> bytes:
        result = self.request("wire", source=source, name=name,
                              deadline=deadline)
        return base64.b64decode(result["blob_b64"])

    def brisc(self, source: str, name: str = "<client>",
              deadline: Optional[float] = None) -> bytes:
        result = self.request("brisc", source=source, name=name,
                              deadline=deadline)
        return base64.b64decode(result["blob_b64"])

    def verify(self, blob: bytes,
               deadline: Optional[float] = None,
               function: Optional[str] = None) -> Dict[str, Any]:
        return self.request(
            "verify", blob_b64=base64.b64encode(blob).decode("ascii"),
            deadline=deadline, function=function)

    # -- cache federation --------------------------------------------------

    def cache_peek(self, key: str) -> Optional[int]:
        """Size of the peer's warm-store entry for ``key``, or ``None``."""
        result = self.request("cache_peek", key=key)
        return int(result["bytes"]) if result.get("present") else None

    def cache_pull(self, key: str) -> Optional[bytes]:
        """The peer's serialized artifact for ``key``, CRC-verified on
        arrival; ``None`` when absent.  A CRC mismatch (bytes damaged in
        flight) raises :class:`~repro.errors.CorruptStreamError`."""
        result = self.request("cache_pull", key=key)
        if not result.get("present"):
            return None
        blob = base64.b64decode(result["blob_b64"])
        want = int(result.get("crc32", -1))
        got = zlib.crc32(blob)
        if got != want:
            from ..errors import CorruptStreamError

            raise CorruptStreamError(
                f"cache_pull of {key[:12]}… failed its CRC: stored "
                f"{want:#010x}, computed {got:#010x}")
        return blob

    # -- demand paging -----------------------------------------------------

    def _materialize(self, result: Dict[str, Any]) -> Dict[str, Any]:
        """Decode the reply's segments and rebuild the sparse container.

        ``result["blob"]`` becomes a container of the advertised total
        size with only the fetched ranges filled in — decodable for the
        requested function/span, zero everywhere else.
        """
        from ..container import assemble_sparse

        segments = [(int(seg["offset"]), base64.b64decode(seg["b64"]))
                    for seg in result.get("segments", [])]
        result["blob"] = assemble_sparse(int(result["total_bytes"]), segments)
        return result

    def fetch_function(self, source: str, function: str,
                       name: str = "<client>", format: str = "wire",
                       chunk_bytes: Optional[int] = None,
                       deadline: Optional[float] = None) -> Dict[str, Any]:
        """Fetch only the byte ranges covering one function."""
        return self._materialize(self.request(
            "fetch_function", source=source, name=name, function=function,
            format=format, chunk_bytes=chunk_bytes, deadline=deadline))

    def fetch_range(self, source: str, start: int, length: int,
                    name: str = "<client>", format: str = "wire",
                    chunk_bytes: Optional[int] = None,
                    deadline: Optional[float] = None) -> Dict[str, Any]:
        """Fetch the byte ranges covering a decoded-address-space span."""
        return self._materialize(self.request(
            "fetch_range", source=source, name=name, start=start,
            length=length, format=format, chunk_bytes=chunk_bytes,
            deadline=deadline))
