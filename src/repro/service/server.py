"""The resilient asyncio front end over the compression pipeline.

One :class:`CompressionService` owns one shared
:class:`~repro.pipeline.Toolchain` (its tiered cache is the warm store)
and serves framed JSON requests (see :mod:`repro.service.protocol`).
The robustness layer, in the order a request meets it:

1. **Framing** — a corrupt frame earns a structured
   :class:`~repro.errors.DecodeError` reply; the connection survives
   whenever the stream is still in sync (CRC mismatch, bad JSON), and is
   closed when it cannot be (bad magic, forged length, peer vanished).
2. **Circuit breaker** — per unit name; repeated failures or timeouts
   open it, rejecting further requests for that unit with a retryable
   :class:`~repro.errors.CircuitOpenError` until it half-opens.
3. **Admission** — a bounded queue in front of a concurrency-limited
   worker pool; when the queue is full the request is shed immediately
   with a retryable :class:`~repro.errors.OverloadedError`.
4. **Deadline** — counts from admission (queue wait included); when it
   elapses the reply is a typed
   :class:`~repro.errors.DeadlineExceededError` and the in-flight
   pipeline work is cooperatively cancelled between stages.
5. **Drain** — graceful shutdown stops accepting, lets in-flight
   requests finish (force-cancelling them only after
   ``drain_timeout``), flushes and optionally prunes the warm store,
   then closes every connection.

Liveness (``ping``) and readiness (``ready``) probes plus the ``stats``
op bypass admission entirely — a saturated server must still answer its
health checks.
"""

from __future__ import annotations

import asyncio
import base64
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..errors import (
    CancelledWorkError, CircuitOpenError, CompileError, CorruptStreamError,
    DeadlineExceededError, DecodeError, OverloadedError, ReproError,
    TruncatedStreamError,
)
from ..pipeline import Toolchain
from . import protocol

__all__ = [
    "BackgroundService", "CircuitBreaker", "CompressionService",
    "ServiceConfig", "WORK_OPS", "CONTROL_OPS",
]

#: Ops that run pipeline work and pass through the full robustness layer.
WORK_OPS = frozenset({"compile", "wire", "brisc", "verify", "sleep",
                      "fetch_range", "fetch_function"})

#: The demand-paging ops: serve byte ranges of seekable (v3) containers
#: framed from the warm store's flat artifacts.
_FETCH_OPS = frozenset({"fetch_range", "fetch_function"})

#: Framed containers kept for fetches (the memory cache's default
#: capacity).
_CONTAINER_CAPACITY = 512

#: Ops answered inline on the event loop, bypassing admission — probes
#: and control must work even when the worker pool is saturated.
CONTROL_OPS = frozenset({"ping", "ready", "stats", "shutdown"})


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one service instance; every bound has a safe default."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0: pick an ephemeral port
    max_concurrency: int = 4           # pipeline work running at once
    max_queue: int = 16                # admitted-but-waiting requests
    default_deadline: float = 30.0     # when the request names none
    max_deadline: float = 300.0        # ceiling on client-chosen deadlines
    idle_timeout: float = 300.0        # reap connections stalled this long
    shed_retry_after: float = 0.05     # hint sent with load-shed replies
    breaker_threshold: int = 5         # consecutive failures to trip
    breaker_reset: float = 5.0         # seconds until half-open
    drain_timeout: float = 10.0        # grace for in-flight work at drain
    max_sleep: float = 60.0            # bound on the sleep diagnostic op
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    cache_max_bytes: Optional[int] = None  # prune the disk store at drain

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        for name in ("default_deadline", "max_deadline", "idle_timeout",
                     "breaker_reset", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")


class CircuitBreaker:
    """Per-unit failure gate: closed → open → half-open → closed.

    ``threshold`` consecutive failures open the breaker; after
    ``reset_seconds`` it half-opens and admits exactly one probe, whose
    outcome closes or re-opens it.  Only touched from the event loop, so
    no locking.
    """

    def __init__(self, threshold: int, reset_seconds: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False

    def admit(self, unit: str) -> None:
        """Raise :class:`CircuitOpenError` unless a request may proceed."""
        if self.state == "open":
            remaining = self.reset_seconds - (self._clock() - self._opened_at)
            if remaining > 0:
                raise CircuitOpenError(
                    f"circuit for unit {unit!r} is open after "
                    f"{self.failures} consecutive failures",
                    retry_after=remaining)
            self.state = "half-open"
        if self.state == "half-open":
            if self._probing:
                raise CircuitOpenError(
                    f"circuit for unit {unit!r} is half-open with a probe "
                    f"in flight", retry_after=self.reset_seconds)
            self._probing = True

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        self._probing = False
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self._opened_at = self._clock()

    def snapshot(self) -> Dict[str, Any]:
        return {"state": self.state, "failures": self.failures}


class _Metrics:
    """Per-request outcome/latency counters; event-loop-thread only."""

    def __init__(self) -> None:
        self.requests = 0
        self.by_op: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.latency_count = 0
        self.latency_seconds = 0.0
        self.latency_max = 0.0
        self.bad_frames = 0
        self.connections_opened = 0
        self.connections_closed = 0
        self.bytes_served = 0
        self.range_ops: Dict[str, Dict[str, int]] = {}

    def note(self, op: str, outcome: str, seconds: float) -> None:
        self.requests += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.latency_count += 1
        self.latency_seconds += seconds
        self.latency_max = max(self.latency_max, seconds)

    def note_range(self, op: str, hit: bool, transferred: int) -> None:
        """Account one served range: warm-store hit/miss + bytes moved."""
        counters = self.range_ops.setdefault(op, {"hits": 0, "misses": 0})
        counters["hits" if hit else "misses"] += 1
        self.bytes_served += transferred

    def snapshot(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "by_op": dict(self.by_op),
            "outcomes": dict(self.outcomes),
            "latency": {
                "count": self.latency_count,
                "seconds": self.latency_seconds,
                "max_seconds": self.latency_max,
            },
            "bad_frames": self.bad_frames,
            "connections": {
                "opened": self.connections_opened,
                "closed": self.connections_closed,
            },
            "bytes_served": self.bytes_served,
            "range_ops": {op: dict(c) for op, c in self.range_ops.items()},
        }


def _outcome_of(exc: Optional[BaseException]) -> str:
    if exc is None:
        return "ok"
    if isinstance(exc, ReproError):
        return type(exc).outcome
    return "internal_error"


class CompressionService:
    """One server instance; see the module docstring for the layers."""

    def __init__(self, toolchain: Optional[Toolchain] = None,
                 config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.toolchain = toolchain or Toolchain()
        self.metrics = _Metrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._work_sem: Optional[asyncio.Semaphore] = None
        self._stopped: Optional[asyncio.Event] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-service")
        self._breakers: Dict[str, CircuitBreaker] = {}
        # A flat artifact's key and a chunk size fix a v3 container's
        # bytes: keep each framed container with its parsed block index,
        # in an LRU of the memory cache's default size.  Fetches run on
        # the worker threads, hence the lock.
        self._containers: "OrderedDict[Any, Any]" = OrderedDict()
        self._containers_lock = threading.Lock()
        self._writers: set = set()
        self._cancel_events: set = set()
        self._waiting = 0
        self._active = 0
        self._replying = 0
        self._draining = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._work_sem = asyncio.Semaphore(self.config.max_concurrency)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self._started = True

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def run(self, ready: Optional[Callable[["CompressionService"],
                                                 None]] = None) -> None:
        """Start, announce via ``ready``, and serve until drained."""
        await self.start()
        if ready is not None:
            ready(self)
        await self.wait_stopped()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, flush
        the warm store, close connections.  Idempotent."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            # close() stops accepting immediately.  wait_closed() is NOT
            # awaited here: on Python >= 3.12.1 it waits for existing
            # connection handlers to finish, and handlers blocked on a
            # read only finish once drain closes their writers below.
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while ((self._active or self._waiting or self._replying)
               and loop.time() < deadline):
            await asyncio.sleep(0.005)
        if self._active or self._waiting or self._replying:
            # Out of grace: cooperatively cancel what is still running.
            for event in list(self._cancel_events):
                event.set()
            grace = loop.time() + 1.0
            while (self._active or self._replying) and loop.time() < grace:
                await asyncio.sleep(0.005)
        self.toolchain.cache.flush()
        if self.config.cache_max_bytes is not None:
            disk = getattr(self.toolchain.cache, "disk", None)
            if disk is not None:
                disk.prune(self.config.cache_max_bytes)
        self._executor.shutdown(wait=False)
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=5.0)
            except asyncio.TimeoutError:
                pass  # a wedged handler must not block process exit
        self._stopped.set()

    def _request_shutdown(self) -> None:
        """Schedule a drain from sync context (signal handler, op)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.shutdown()))

    # -- connection loop ---------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> Optional[bytes]:
        return await protocol.read_frame_async(reader,
                                               self.config.max_frame_bytes)

    async def _send(self, writer: asyncio.StreamWriter,
                    reply: Dict[str, Any]) -> None:
        writer.write(protocol.encode_message(reply))
        await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        self.metrics.connections_opened += 1
        try:
            while True:
                try:
                    payload = await asyncio.wait_for(
                        self._read_frame(reader),
                        timeout=self.config.idle_timeout)
                except asyncio.TimeoutError:
                    break  # stalled peer: reap the connection
                except TruncatedStreamError:
                    self.metrics.bad_frames += 1
                    break  # peer vanished mid-frame; nobody to reply to
                except DecodeError as exc:
                    # Corrupt frame: reply with the typed error.  Keep
                    # the connection only if the stream is still in sync.
                    self.metrics.bad_frames += 1
                    await self._send(writer, {
                        "id": None, "ok": False,
                        "error": protocol.error_payload(exc)})
                    if protocol.recoverable(exc):
                        continue
                    break
                if payload is None:
                    break  # clean EOF
                try:
                    message = protocol.decode_message(payload)
                except DecodeError as exc:
                    # Frame consumed in full, so framing survives bad JSON.
                    self.metrics.bad_frames += 1
                    await self._send(writer, {
                        "id": None, "ok": False,
                        "error": protocol.error_payload(exc)})
                    continue
                # The counter keeps drain from closing this writer in the
                # gap between the worker finishing (active hits 0) and the
                # reply actually reaching the wire — the drain poll can win
                # that race otherwise, because its wake-up runs through to
                # writer.close() without yielding.
                self._replying += 1
                try:
                    await self._send(writer, await self._dispatch(message))
                finally:
                    self._replying -= 1
                if self._draining:
                    break  # reply delivered; drain closes the connection
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer went away while we were talking to it
        finally:
            self._writers.discard(writer)
            self.metrics.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- request dispatch --------------------------------------------------

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        req_id = message.get("id")
        op = message.get("op")
        t0 = time.monotonic()
        error: Optional[BaseException] = None
        try:
            if op in CONTROL_OPS:
                result = self._control(op)
            elif op in WORK_OPS:
                result = await self._run_work(op, message)
            else:
                raise CorruptStreamError(
                    f"unknown op {op!r} (work: {sorted(WORK_OPS)}, "
                    f"control: {sorted(CONTROL_OPS)})")
        except Exception as exc:  # every failure becomes a typed reply
            error = exc
            reply = {"id": req_id, "ok": False,
                     "error": protocol.error_payload(exc)}
        else:
            reply = {"id": req_id, "ok": True, "result": result}
        self.metrics.note(str(op), _outcome_of(error),
                          time.monotonic() - t0)
        return reply

    def _control(self, op: str) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "ready":
            return {
                "ready": self._started and not self._draining,
                "draining": self._draining,
                "inflight": self._active,
                "queued": self._waiting,
            }
        if op == "stats":
            service = self.metrics.snapshot()
            service["inflight"] = self._active
            service["queued"] = self._waiting
            service["breakers"] = {
                unit: breaker.snapshot()
                for unit, breaker in self._breakers.items()
            }
            return {"service": service, "toolchain": self.toolchain.stats()}
        # shutdown: acknowledge first; the drain task runs after the
        # reply is on the wire.
        self._request_shutdown()
        return {"draining": True}

    def _breaker_for(self, unit: str) -> CircuitBreaker:
        breaker = self._breakers.get(unit)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker_threshold,
                                     self.config.breaker_reset)
            self._breakers[unit] = breaker
        return breaker

    def _deadline_of(self, message: Dict[str, Any]) -> float:
        deadline = message.get("deadline", self.config.default_deadline)
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            raise CorruptStreamError(
                f"deadline must be a positive number, got {deadline!r}")
        return min(float(deadline), self.config.max_deadline)

    async def _run_work(self, op: str, message: Dict[str, Any]) -> Any:
        if self._draining:
            raise OverloadedError("server is draining",
                                  retry_after=self.config.shed_retry_after)
        unit = str(message.get("name") or f"<{op}>")
        deadline = self._deadline_of(message)
        breaker = self._breaker_for(unit)
        breaker.admit(unit)
        try:
            result = await self._admit_and_execute(op, message, unit,
                                                   deadline)
        except (DeadlineExceededError, CompileError):
            # Unit-health signals: repeated timeouts or compile failures
            # trip the breaker.  Decode errors (the client's blob was bad)
            # and shedding (we never ran) deliberately do not.
            breaker.record_failure()
            raise
        breaker.record_success()
        if op in _FETCH_OPS and isinstance(result, dict):
            # Range accounting happens here, on the event loop (the
            # metrics object is loop-thread-only by contract).
            self.metrics.note_range(op, bool(result.get("cache_hit")),
                                    int(result.get("transferred", 0)))
        return result

    async def _admit_and_execute(self, op: str, message: Dict[str, Any],
                                 unit: str, deadline: float) -> Any:
        assert self._loop is not None and self._work_sem is not None
        if (self._active + self._waiting
                >= self.config.max_concurrency + self.config.max_queue):
            raise OverloadedError(
                f"admission queue full ({self._waiting} waiting, "
                f"{self._active} running)",
                retry_after=self.config.shed_retry_after)
        admitted_at = self._loop.time()
        self._waiting += 1
        try:
            await self._work_sem.acquire()
        finally:
            self._waiting -= 1
        self._active += 1
        cancel = threading.Event()
        self._cancel_events.add(cancel)
        future = self._loop.run_in_executor(
            self._executor, self._execute, op, message, cancel)

        def _release(done: asyncio.Future) -> None:
            self._active -= 1
            self._work_sem.release()
            self._cancel_events.discard(cancel)
            if not done.cancelled():
                done.exception()  # retrieve abandoned failures: no warning

        future.add_done_callback(_release)
        remaining = deadline - (self._loop.time() - admitted_at)
        if remaining <= 0:
            cancel.set()
            raise DeadlineExceededError(
                f"{op} of {unit!r} spent its whole {deadline:.3f}s deadline "
                f"queued")
        try:
            return await asyncio.wait_for(asyncio.shield(future),
                                          timeout=remaining)
        except asyncio.TimeoutError:
            cancel.set()  # stop pipeline work between stages
            raise DeadlineExceededError(
                f"{op} of {unit!r} exceeded its {deadline:.3f}s deadline"
            ) from None

    # -- work execution (worker threads) -----------------------------------

    def _execute(self, op: str, message: Dict[str, Any],
                 cancel: threading.Event) -> Any:
        if op == "sleep":
            return self._op_sleep(message, cancel)
        if op == "verify":
            return self._op_verify(message)
        if op in _FETCH_OPS:
            return self._op_fetch(op, message, cancel)
        return self._op_compile(op, message, cancel)

    def _op_sleep(self, message: Dict[str, Any],
                  cancel: threading.Event) -> Dict[str, Any]:
        """Diagnostic op: hold a worker slot for ``seconds``.

        Exists to probe deadlines, backpressure, and drain against a live
        server (the chaos harness and the smoke tests use it) without
        needing a conveniently slow compile unit.
        """
        seconds = message.get("seconds", 0.1)
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise CorruptStreamError(
                f"sleep seconds must be a non-negative number, "
                f"got {seconds!r}")
        seconds = min(float(seconds), self.config.max_sleep)
        if cancel.wait(seconds):
            raise CancelledWorkError(f"sleep cancelled after deadline/drain "
                                     f"({seconds:.3f}s requested)")
        return {"slept": seconds}

    def _op_verify(self, message: Dict[str, Any]) -> Dict[str, Any]:
        from ..container import verify

        blob = protocol.decode_b64(message.get("blob_b64"), "verify blob_b64")
        function = message.get("function")
        if function is not None and not isinstance(function, str):
            raise CorruptStreamError(
                f"verify function must be a name, got {function!r}")
        return {"detail": verify(blob, function), "bytes": len(blob)}

    def _op_fetch(self, op: str, message: Dict[str, Any],
                  cancel: threading.Event) -> Dict[str, Any]:
        """Serve byte ranges of a seekable container from the warm store.

        The unit's flat artifact (the IR module for ``wire``, the BRISC
        image for ``brisc``) is compiled, or found cached, under the
        service's own config, then framed as a v3 container at the
        request's chunk size.  The container and its block index are kept
        per flat artifact key and chunk size (``cache_hit``: the bytes
        served were already framed).  The index gives the minimal ranges
        covering the request, and only those bytes go back to the client,
        never the whole blob.
        """
        from .. import container, wire
        from ..brisc.encode import repack_v3

        source = message.get("source")
        if not isinstance(source, str):
            raise CorruptStreamError(f"{op} request missing source text")
        name = str(message.get("name") or "<request>")
        fmt = message.get("format", "wire")
        if fmt not in ("wire", "brisc"):
            raise CorruptStreamError(
                f"fetch format must be 'wire' or 'brisc', got {fmt!r}")
        chunk_bytes = message.get("chunk_bytes")
        if chunk_bytes is None:
            chunk_bytes = container.DEFAULT_CHUNK_BYTES
        elif not isinstance(chunk_bytes, int) or chunk_bytes < 1:
            raise CorruptStreamError(
                f"chunk_bytes must be a positive integer, got {chunk_bytes!r}")
        stage = "lower" if fmt == "wire" else "brisc"
        result = self.toolchain.compile(source, name=name, stages=(stage,),
                                        cancel=cancel.is_set)
        key = (result.artifacts[stage].key, chunk_bytes)
        with self._containers_lock:
            framed = self._containers.get(key)
            if framed is not None:
                self._containers.move_to_end(key)
        cache_hit = framed is not None
        if not cache_hit:
            if fmt == "wire":
                blob = wire.encode_module_v3(result.module,
                                             chunk_bytes=chunk_bytes)
            else:
                blob = repack_v3(result.brisc.image.blob, chunk_bytes)
            framed = blob, container.container_index(blob)
            with self._containers_lock:
                self._containers[key] = framed
                if len(self._containers) > _CONTAINER_CAPACITY:
                    self._containers.popitem(last=False)
        blob, index = framed

        reply: Dict[str, Any] = {"unit": name, "format": fmt,
                                 "total_bytes": len(blob),
                                 "cache_hit": cache_hit}
        function = message.get("function")
        if op == "fetch_function" or function is not None:
            if not isinstance(function, str):
                raise CorruptStreamError(
                    f"{op} request missing the function name")
            record = index.function(function)
            ranges = index.ranges_for_function(function)
            reply.update(function=function,
                         span_start=record.span_start,
                         span_length=record.span_length,
                         chunks=[record.chunk])
        else:
            start = message.get("start")
            length = message.get("length")
            for label, value in (("start", start), ("length", length)):
                if not isinstance(value, int) or value < 0:
                    raise CorruptStreamError(
                        f"fetch_range {label} must be a non-negative "
                        f"integer, got {value!r}")
            ranges = index.ranges_for_span(start, length)
            reply.update(
                span_start=start, span_length=length,
                chunks=sorted({f.chunk for f in
                               index.functions_in_span(start, length)}))
        reply["segments"] = [
            {"offset": offset,
             "b64": base64.b64encode(blob[offset:offset + length])
                          .decode("ascii")}
            for offset, length in ranges
        ]
        reply["transferred"] = sum(length for _, length in ranges)
        return reply

    def _op_compile(self, op: str, message: Dict[str, Any],
                    cancel: threading.Event) -> Dict[str, Any]:
        source = message.get("source")
        if not isinstance(source, str):
            raise CorruptStreamError(f"{op} request missing source text")
        name = str(message.get("name") or "<request>")
        if op == "wire":
            stages: Any = ("wire",)
        elif op == "brisc":
            stages = ("brisc",)
        else:
            stages = message.get("stages")
            if stages is not None:
                if (not isinstance(stages, list)
                        or not all(isinstance(s, str) for s in stages)):
                    raise CorruptStreamError(
                        f"stages must be a list of names, got {stages!r}")
                stages = tuple(stages)
        try:
            result = self.toolchain.compile(source, name=name, stages=stages,
                                            cancel=cancel.is_set)
        except KeyError as exc:  # unknown stage name in the request
            raise CorruptStreamError(str(exc)) from exc
        if op == "wire":
            blob = result.wire_blob
            return {"unit": name, "size": len(blob),
                    "blob_b64": base64.b64encode(blob).decode("ascii")}
        if op == "brisc":
            compressed = result.brisc
            return {"unit": name, "size": compressed.size,
                    "patterns": compressed.image.pattern_count,
                    "blob_b64": base64.b64encode(
                        compressed.image.blob).decode("ascii")}
        return {
            "unit": name,
            "sizes": result.sizes(),
            "stages": {
                a.stage: {"cached": a.from_cache, "size": a.size,
                          "seconds": a.seconds}
                for a in result.artifacts.values()
            },
        }


class BackgroundService:
    """Run a :class:`CompressionService` on a dedicated event-loop thread.

    The embedding entry point (tests, the chaos harness, notebooks): the
    caller's thread stays free, and ``stop()`` performs the same graceful
    drain as SIGTERM.  Use as a context manager.
    """

    def __init__(self, service: Optional[CompressionService] = None) -> None:
        self.service = service or CompressionService()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def host(self) -> str:
        return self.service.config.host

    def start(self, timeout: float = 10.0) -> "BackgroundService":
        def main() -> None:
            try:
                asyncio.run(self.service.run(
                    ready=lambda _svc: self._ready.set()))
            except BaseException as exc:  # surface startup/run failures
                self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(target=main, daemon=True,
                                        name="repro-service-loop")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start within "
                               f"{timeout}s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        return self

    def stop(self, timeout: float = 15.0) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        self.service._request_shutdown()
        self._thread.join(timeout)
