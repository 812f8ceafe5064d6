"""Service front-end tests: protocol, robustness layer, chaos, drain.

Covers the acceptance criteria of the resilient-service change:

* a request exceeding its deadline returns a typed error while
  concurrent requests complete (and the worker slot is reclaimed);
* a corrupt frame yields a structured ``DecodeError``-taxonomy reply
  without killing the connection loop (asserted both with a hand-placed
  bit flip and through the :func:`repro.faults.chaos_probe` harness);
* queue overflow sheds load with a retryable error carrying a
  ``retry_after`` hint;
* SIGTERM drains in-flight requests and the server process exits 0;
* the per-unit circuit breaker trips after repeated failures and
  half-opens on a timer;
* the client retries retryable and transport failures with jittered
  backoff, and an exhausted budget propagates the error unchanged.
"""

import hashlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from random import Random

import pytest

from repro import errors
from repro.corpus import generate_program_source
from repro.errors import (
    CircuitOpenError, CorruptStreamError, ResourceLimitError,
    TruncatedStreamError, UnsupportedFormatError,
)
from repro.faults import CHAOS_SCENARIOS, apply_mutation, chaos_probe
from repro.pipeline import Toolchain
from repro.service import (
    BackgroundService, CompressionService, RemoteServiceError,
    ServiceClient, ServiceConfig,
)
from repro.service import protocol
from repro.service.server import CircuitBreaker, _outcome_of

from .test_pipeline import REGISTER_PRESSURE

HELLO = """
int sq(int x) { return x * x; }
int main(void) { print_int(sq(7)); putchar('\\n'); return 0; }
"""

BAD = "int main(void) { return undeclared; }"

#: A superscript two is a Unicode digit but not a C one.
NOT_A_DIGIT = "int main(void) { int x = \u00b2; return 0; }"

#: Nested one level past the parser's limit on parenthesised expressions.
TOO_DEEP = "int main(void) { return " + "(" * 64 + "1" + ")" * 64 + "; }"

SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_service(**overrides):
    defaults = dict(port=0, idle_timeout=2.0, drain_timeout=5.0,
                    shed_retry_after=0.05)
    defaults.update(overrides)
    return BackgroundService(CompressionService(
        config=ServiceConfig(**defaults)))


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# frame protocol
# ---------------------------------------------------------------------------


def _deliver(raw: bytes) -> socket.socket:
    """A socket with ``raw`` already queued on it, reader side returned."""
    left, right = socket.socketpair()
    left.sendall(raw)
    left.close()
    right.settimeout(2.0)
    return right


def test_frame_round_trip():
    message = {"id": 1, "op": "ping", "payload": "x" * 200}
    sock = _deliver(protocol.encode_message(message))
    assert protocol.decode_message(protocol.read_frame_sync(sock)) == message
    assert protocol.read_frame_sync(sock) is None  # clean EOF
    sock.close()


def test_frame_crc_detects_any_payload_bit_flip():
    frame = bytearray(protocol.encode_message({"id": 2, "op": "ping"}))
    frame[12] ^= 0x10  # inside the payload
    sock = _deliver(bytes(frame))
    with pytest.raises(CorruptStreamError):
        protocol.read_frame_sync(sock)
    sock.close()


def test_frame_bad_magic_is_unsupported():
    frame = bytearray(protocol.encode_message({"id": 3, "op": "ping"}))
    frame[0] = 0x00
    sock = _deliver(bytes(frame))
    with pytest.raises(UnsupportedFormatError):
        protocol.read_frame_sync(sock)
    sock.close()


def test_frame_forged_length_hits_resource_limit():
    header = struct.pack(">4sI", protocol.MAGIC, 0xFFFFFFFF)
    sock = _deliver(header)
    with pytest.raises(ResourceLimitError):
        protocol.read_frame_sync(sock)
    sock.close()


def test_frame_truncation_is_typed():
    frame = protocol.encode_message({"id": 4, "op": "ping"})
    sock = _deliver(frame[: len(frame) // 2])
    with pytest.raises(TruncatedStreamError):
        protocol.read_frame_sync(sock)
    sock.close()


def test_recoverable_classification():
    assert protocol.recoverable(CorruptStreamError("crc"))
    assert not protocol.recoverable(TruncatedStreamError("eof"))
    assert not protocol.recoverable(UnsupportedFormatError("magic"))
    assert not protocol.recoverable(ResourceLimitError("length"))


def test_error_payload_carries_retry_hints():
    from repro.errors import OverloadedError

    payload = protocol.error_payload(OverloadedError("full",
                                                     retry_after=0.25))
    assert payload["type"] == "OverloadedError"
    assert payload["taxonomy"] == "service"
    assert payload["retryable"] is True
    assert payload["retry_after"] == 0.25
    decode = protocol.error_payload(CorruptStreamError("bad"))
    assert decode["taxonomy"] == "decode" and not decode["retryable"]


#: What the service makes of each class in ``repro.errors``: the reply's
#: taxonomy, the metrics outcome, and the reply's retryable flag.
CLASSIFICATION = {
    "ReproError": ("internal", "internal_error", False),
    "DecodeError": ("decode", "decode_error", False),
    "CorruptStreamError": ("decode", "decode_error", False),
    "TruncatedStreamError": ("decode", "decode_error", False),
    "UnsupportedFormatError": ("decode", "decode_error", False),
    "ResourceLimitError": ("decode", "decode_error", False),
    "ServiceError": ("service", "service_error", False),
    "DeadlineExceededError": ("service", "deadline", False),
    "OverloadedError": ("service", "shed", True),
    "CircuitOpenError": ("service", "breaker_open", True),
    "CancelledWorkError": ("service", "cancelled", True),
    "CompileError": ("compile", "compile_error", False),
    "CodegenError": ("compile", "compile_error", False),
    "VMError": ("run", "run_error", False),
}


def test_every_error_class_is_classified_by_its_attributes():
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert set(classes) == set(CLASSIFICATION)
    cases = [(classes[name]("boom"), row)
             for name, row in CLASSIFICATION.items()]
    cases.append((RuntimeError("boom"), ("internal", "internal_error", False)))
    for exc, row in cases:
        payload = protocol.error_payload(exc)
        got = (payload["taxonomy"], _outcome_of(exc), payload["retryable"])
        assert got == row, type(exc).__name__


# ---------------------------------------------------------------------------
# circuit breaker (unit)
# ---------------------------------------------------------------------------


def test_circuit_breaker_state_machine():
    clock = [0.0]
    breaker = CircuitBreaker(2, 5.0, clock=lambda: clock[0])
    breaker.admit("u")
    breaker.record_failure()
    breaker.record_failure()  # trips
    assert breaker.state == "open"
    with pytest.raises(CircuitOpenError) as exc_info:
        breaker.admit("u")
    assert exc_info.value.retryable and exc_info.value.retry_after > 0
    clock[0] = 5.1
    breaker.admit("u")  # half-open: one probe allowed
    assert breaker.state == "half-open"
    with pytest.raises(CircuitOpenError):
        breaker.admit("u")  # concurrent second probe rejected
    breaker.record_success()
    assert breaker.state == "closed"
    breaker.admit("u")


def test_circuit_breaker_reopens_on_failed_probe():
    clock = [0.0]
    breaker = CircuitBreaker(1, 2.0, clock=lambda: clock[0])
    breaker.record_failure()
    assert breaker.state == "open"
    clock[0] = 2.5
    breaker.admit("u")
    breaker.record_failure()  # probe failed: straight back to open
    assert breaker.state == "open"
    with pytest.raises(CircuitOpenError):
        breaker.admit("u")


# ---------------------------------------------------------------------------
# live server: round trips
# ---------------------------------------------------------------------------


def test_ping_ready_compile_round_trip():
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            assert client.ping() == {"pong": True}
            ready = client.ready()
            assert ready["ready"] and not ready["draining"]
            result = client.compile(HELLO, name="hello.c")
            assert result["unit"] == "hello.c"
            assert result["sizes"]["wire"] > 0
            assert result["sizes"]["brisc"] > 0
            # Second compile of the same unit is served from the shared
            # toolchain's cache.
            again = client.compile(HELLO, name="hello.c")
            assert all(s["cached"] for s in again["stages"].values())
            stats = client.stats()
            assert stats["service"]["outcomes"]["ok"] >= 4
            assert stats["toolchain"]["cache"]["hits"] > 0


def test_wire_blob_round_trips_through_verify():
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            blob = client.wire(HELLO, name="hello.c")
            assert blob[:3] == b"WIR"
            result = client.verify(blob)
            assert "wire module" in result["detail"]


def test_compile_error_is_structured_compile_taxonomy():
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            # An undeclared name, nesting past the parser's limit, and a
            # back-end failure (out of double scratch registers).
            for name, source, error_type in (
                    ("bad.c", BAD, "CompileError"),
                    ("deep.c", TOO_DEEP, "CompileError"),
                    ("regs.c", REGISTER_PRESSURE, "CodegenError")):
                with pytest.raises(RemoteServiceError) as exc_info:
                    client.compile(source, name=name)
                assert exc_info.value.error_type == error_type
                assert exc_info.value.taxonomy == "compile"
                assert not exc_info.value.retryable
                assert client.ping() == {"pong": True}  # connection survives
            service = client.stats()["service"]
            assert service["outcomes"]["compile_error"] == 3
            assert service["breakers"]["regs.c"]["failures"] == 1


def test_non_c_digit_is_a_compile_error():
    """A Unicode digit used to leak a raw ValueError from the lexer."""
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            with pytest.raises(RemoteServiceError) as exc_info:
                client.compile(NOT_A_DIGIT, name="digit.c")
            assert exc_info.value.error_type == "CompileError"
            assert "digit.c:1:26: unexpected character" in str(exc_info.value)
            assert client.ping() == {"pong": True}


@pytest.mark.parametrize("op", ["frobnicate", "cache_peek", "cache_pull"])
def test_unknown_op_is_structured_not_fatal(op):
    """Unknown ops, including the removed cache ops a stale peer might
    still send, get a structured reply on a live connection."""
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            with pytest.raises(RemoteServiceError) as exc_info:
                client.request(op, key="00" * 32)
            assert exc_info.value.error_type == "CorruptStreamError"
            assert client.ping() == {"pong": True}


def test_corrupt_container_verify_is_typed_and_survivable():
    """A corrupt *container* inside a valid frame: the decoder's typed
    error comes back as a structured reply, and the loop lives on."""
    with make_service() as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            blob = client.wire(HELLO, name="hello.c")
            mutated = apply_mutation(blob, "bit_flip", Random(7))
            assert mutated != blob
            with pytest.raises(RemoteServiceError) as exc_info:
                client.verify(mutated)
            assert exc_info.value.taxonomy == "decode"
            assert client.ping() == {"pong": True}


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


def test_deadline_exceeded_while_concurrent_requests_complete():
    with make_service(max_concurrency=4) as bg:
        box = {}

        def slow():
            with ServiceClient(port=bg.port, timeout=20.0) as client:
                try:
                    client.sleep(30.0, deadline=0.4, name="slow-unit")
                except RemoteServiceError as exc:
                    box["slow"] = exc

        worker = threading.Thread(target=slow)
        worker.start()
        with ServiceClient(port=bg.port, timeout=20.0) as client:
            # Concurrent request completes while the slow one times out.
            result = client.compile(HELLO, name="hello.c")
            assert result["sizes"]["vm"] > 0
            worker.join(10.0)
            error = box["slow"]
            assert error.error_type == "DeadlineExceededError"
            assert error.taxonomy == "service"
            # The deadline *cancelled* the pipeline work: the worker slot
            # is reclaimed long before the requested 30s sleep.
            assert wait_until(
                lambda: client.stats()["service"]["inflight"] == 0,
                timeout=3.0)
            outcomes = client.stats()["service"]["outcomes"]
            assert outcomes["deadline"] == 1 and outcomes["ok"] >= 1


def test_deadline_cancels_compile_between_stages():
    """A compile that cannot finish in time raises the typed error and
    leaves already-finished stages cached for the retry."""
    with make_service(max_concurrency=2) as bg:
        with ServiceClient(port=bg.port, timeout=20.0) as client:
            with pytest.raises(RemoteServiceError) as exc_info:
                # Deadline far below any full-pipeline compile.
                client.compile(HELLO, name="tight.c", deadline=0.001)
            assert exc_info.value.error_type == "DeadlineExceededError"
            # Retry with a sane deadline succeeds (cached prefix helps).
            result = client.compile(HELLO, name="tight.c", deadline=30.0)
            assert result["sizes"]["vm"] > 0


# ---------------------------------------------------------------------------
# corrupt frames against the live connection loop
# ---------------------------------------------------------------------------


def test_corrupt_frame_structured_reply_connection_survives():
    with make_service() as bg:
        sock = socket.create_connection(("127.0.0.1", bg.port), timeout=5.0)
        try:
            # First a clean round-trip...
            sock.sendall(protocol.encode_message({"id": 1, "op": "ping"}))
            reply = protocol.decode_message(protocol.read_frame_sync(sock))
            assert reply["ok"]
            # ...then a frame with one payload bit flipped: CRC trips.
            frame = bytearray(
                protocol.encode_message({"id": 2, "op": "ping"}))
            frame[10] ^= 0x01
            sock.sendall(bytes(frame))
            reply = protocol.decode_message(protocol.read_frame_sync(sock))
            assert reply["ok"] is False
            assert reply["error"]["taxonomy"] == "decode"
            assert reply["error"]["type"] == "CorruptStreamError"
            # The frame was consumed in full, so the same connection
            # keeps serving.
            sock.sendall(protocol.encode_message({"id": 3, "op": "ping"}))
            reply = protocol.decode_message(protocol.read_frame_sync(sock))
            assert reply["ok"] and reply["result"]["pong"]
        finally:
            sock.close()


def test_chaos_probe_full_sweep_holds_the_contract():
    with make_service() as bg:
        report = chaos_probe("127.0.0.1", bg.port, rounds=10, seed=1997,
                             timeout=5.0, stall_seconds=0.05)
        assert report.ok, [f.detail for f in report.failures]
        assert report.counts["alive_after"] == 10
        assert report.counts["connection_survived"] >= 1
        # rounds=10 cycles every scenario at least once
        assert report.rounds >= len(CHAOS_SCENARIOS)
        # The server kept count of what was thrown at it.
        with ServiceClient(port=bg.port, timeout=5.0) as client:
            assert client.stats()["service"]["bad_frames"] >= 4


def test_chaos_probe_rejects_unknown_scenarios():
    with pytest.raises(ValueError):
        chaos_probe("127.0.0.1", 1, scenarios=("no-such-scenario",))


# ---------------------------------------------------------------------------
# backpressure and load shedding
# ---------------------------------------------------------------------------


def test_queue_overflow_sheds_load_with_retryable_error():
    # idle_timeout above hold_seconds: the probe connection sits idle
    # while the held requests run, and must not be reaped meanwhile.
    with make_service(max_concurrency=1, max_queue=1,
                      idle_timeout=30.0) as bg:
        results = {}

        # Long enough that the slot is still held when the shed request
        # lands, even on a loaded machine running the whole suite.
        hold_seconds = 3.0

        def occupy(tag):
            with ServiceClient(port=bg.port, timeout=20.0) as client:
                results[tag] = client.sleep(hold_seconds, deadline=15.0,
                                            name=tag)

        with ServiceClient(port=bg.port, timeout=20.0) as probe:
            first = threading.Thread(target=occupy, args=("hold",))
            first.start()
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] == 1)
            second = threading.Thread(target=occupy, args=("queued",))
            second.start()
            assert wait_until(
                lambda: probe.stats()["service"]["queued"] == 1)
            # Slot busy, queue full: the third request is shed at once.
            with pytest.raises(RemoteServiceError) as exc_info:
                probe.sleep(1.0, name="shed")
            error = exc_info.value
            assert error.error_type == "OverloadedError"
            assert error.retryable is True
            assert error.retry_after > 0
            first.join(15.0)
            second.join(15.0)
            # The admitted requests were unaffected by the shedding.
            assert results["hold"]["slept"] == hold_seconds
            assert results["queued"]["slept"] == hold_seconds
            assert probe.stats()["service"]["outcomes"]["shed"] == 1


# ---------------------------------------------------------------------------
# per-unit circuit breaker
# ---------------------------------------------------------------------------


def test_circuit_breaker_trips_and_half_opens_on_live_server():
    with make_service(breaker_threshold=2, breaker_reset=0.3) as bg:
        with ServiceClient(port=bg.port, timeout=10.0) as client:
            for _ in range(2):
                with pytest.raises(RemoteServiceError) as exc_info:
                    client.compile(BAD, name="flaky.c")
                assert exc_info.value.taxonomy == "compile"
            # Breaker open: rejected without running, retryable.
            with pytest.raises(RemoteServiceError) as exc_info:
                client.compile(BAD, name="flaky.c")
            error = exc_info.value
            assert error.error_type == "CircuitOpenError"
            assert error.retryable and error.retry_after > 0
            breakers = client.stats()["service"]["breakers"]
            assert breakers["flaky.c"]["state"] == "open"
            # Other units are unaffected — the breaker is per unit.
            assert client.compile(HELLO, name="fine.c")["sizes"]["vm"] > 0
            # After the reset window the breaker half-opens; a successful
            # probe closes it.
            time.sleep(0.35)
            assert client.compile(HELLO, name="flaky.c")["sizes"]["vm"] > 0
            breakers = client.stats()["service"]["breakers"]
            assert breakers["flaky.c"]["state"] == "closed"


def test_breaker_half_open_admits_exactly_one_probe_under_concurrency():
    """While the half-open probe is in flight, concurrent requests for
    the unit are rejected with a retryable ``CircuitOpenError`` — the
    probe result alone decides whether the circuit closes."""
    with make_service(breaker_threshold=1, breaker_reset=0.3,
                      max_concurrency=4) as bg:
        with ServiceClient(port=bg.port, timeout=15.0) as client:
            # One deadline blowout trips the threshold-1 breaker.
            with pytest.raises(RemoteServiceError) as exc_info:
                client.sleep(1.0, deadline=0.05, name="probe.c")
            assert exc_info.value.error_type == "DeadlineExceededError"
            assert client.stats()["service"]["breakers"]["probe.c"][
                "state"] == "open"
            time.sleep(0.35)  # reset window elapses -> half-open

            box = {}

            def slow_probe():
                try:
                    with ServiceClient(port=bg.port, timeout=15.0) as probe:
                        box["reply"] = probe.sleep(0.6, deadline=10.0,
                                                   name="probe.c")
                except Exception as exc:
                    box["error"] = exc

            worker = threading.Thread(target=slow_probe)
            worker.start()
            assert wait_until(
                lambda: client.stats()["service"]["inflight"] >= 1,
                timeout=10.0)
            # The probe slot is taken: a concurrent request is rejected
            # without running, with the retryable half-open error.
            with pytest.raises(RemoteServiceError) as exc_info:
                client.sleep(0.01, deadline=5.0, name="probe.c")
            error = exc_info.value
            assert error.error_type == "CircuitOpenError"
            assert error.retryable and error.retry_after > 0
            assert "probe in flight" in str(error)
            worker.join(15.0)
            assert "error" not in box, repr(box.get("error"))
            assert box["reply"]["slept"] == 0.6
            # The successful probe closed the circuit for everyone.
            assert client.stats()["service"]["breakers"]["probe.c"][
                "state"] == "closed"
            assert client.sleep(0.01, deadline=5.0,
                                name="probe.c")["slept"] == 0.01


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_shutdown_op_drains_and_reports():
    bg = make_service()
    bg.start()
    with ServiceClient(port=bg.port, timeout=10.0) as client:
        assert client.compile(HELLO, name="hello.c")["sizes"]["vm"] > 0
        assert client.shutdown() == {"draining": True}
    assert wait_until(lambda: not bg._thread.is_alive(), timeout=10.0)
    bg.stop()  # idempotent


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
def test_sigterm_drains_inflight_requests_and_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--concurrency", "2", "--drain-timeout", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        # Interpreter startup may emit stray lines before the banner.
        for _ in range(20):
            line = proc.stdout.readline()
            if "listening on" in line:
                break
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        box = {}

        def inflight():
            try:
                with ServiceClient(port=port, timeout=20.0) as client:
                    box["reply"] = client.sleep(1.0, deadline=15.0,
                                                name="inflight")
            except Exception as exc:  # surfaced via the assert below
                box["error"] = exc

        worker = threading.Thread(target=inflight)
        worker.start()
        with ServiceClient(port=port, timeout=10.0) as probe:
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] >= 1,
                timeout=10.0)
        proc.send_signal(signal.SIGTERM)
        worker.join(20.0)
        assert not worker.is_alive(), "in-flight request never finished"
        # The in-flight request was drained, not dropped: its reply
        # arrived after SIGTERM.
        assert "error" not in box, repr(box.get("error"))
        assert box["reply"]["slept"] == 1.0
        assert proc.wait(timeout=15.0) == 0
        assert "drained cleanly" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
def test_sigterm_drains_a_fetch_range_reply_in_flight():
    """SIGTERM while a ``fetch_range`` request is queued behind the one
    worker slot: the drain must still produce the full demand-paged
    reply — segments, total size, transfer accounting — then exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--concurrency", "1", "--drain-timeout", "15"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        for _ in range(20):
            line = proc.stdout.readline()
            if "listening on" in line:
                break
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        box = {}

        def hold():
            try:
                with ServiceClient(port=port, timeout=30.0) as client:
                    box["hold"] = client.sleep(0.8, deadline=15.0,
                                               name="hold")
            except Exception as exc:
                box["hold_error"] = exc

        def fetch():
            try:
                with ServiceClient(port=port, timeout=30.0) as client:
                    box["fetch"] = client.fetch_range(
                        HELLO, 0, 64, name="drain.c", deadline=15.0)
            except Exception as exc:
                box["fetch_error"] = exc

        holder = threading.Thread(target=hold)
        holder.start()
        with ServiceClient(port=port, timeout=10.0) as probe:
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] >= 1,
                timeout=10.0)
        fetcher = threading.Thread(target=fetch)
        fetcher.start()
        with ServiceClient(port=port, timeout=10.0) as probe:
            assert wait_until(
                lambda: (lambda s: s["inflight"] + s["queued"])(
                    probe.stats()["service"]) >= 2,
                timeout=10.0)
        proc.send_signal(signal.SIGTERM)
        holder.join(25.0)
        fetcher.join(25.0)
        assert "hold_error" not in box, repr(box.get("hold_error"))
        assert "fetch_error" not in box, repr(box.get("fetch_error"))
        result = box["fetch"]
        assert result["total_bytes"] > 0
        assert 0 < result["transferred"] <= result["total_bytes"]
        assert len(result["blob"]) == result["total_bytes"]
        assert proc.wait(timeout=20.0) == 0
        assert "drained cleanly" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# CLI client
# ---------------------------------------------------------------------------


def test_client_cli_ping_and_compile(tmp_path, capsys):
    from repro.__main__ import main

    source = tmp_path / "hello.c"
    source.write_text(HELLO)
    with make_service() as bg:
        assert main(["client", "--port", str(bg.port), "ping"]) == 0
        assert json.loads(capsys.readouterr().out)["pong"] is True
        assert main(["client", "--port", str(bg.port), "compile",
                     str(source)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sizes"]["vm"] > 0
        out_path = tmp_path / "hello.wire"
        assert main(["client", "--port", str(bg.port), "wire",
                     str(source), "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.read_bytes()[:3] == b"WIR"
        assert main(["client", "--port", str(bg.port), "verify",
                     str(out_path)]) == 0
        assert "wire module" in json.loads(capsys.readouterr().out)["detail"]


def test_client_cli_retryable_error_exits_tempfail(capsys):
    from repro.__main__ import main

    with make_service(max_concurrency=1, max_queue=0) as bg:

        def occupy():
            with ServiceClient(port=bg.port, timeout=20.0) as client:
                client.sleep(1.0, deadline=15.0, name="hold")

        worker = threading.Thread(target=occupy)
        worker.start()
        with ServiceClient(port=bg.port, timeout=10.0) as probe:
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] == 1)
        # Queue bound is 0: any work request is shed -> EX_TEMPFAIL.
        rc = main(["client", "--port", str(bg.port), "compile", "/dev/null"])
        worker.join(10.0)
    capsys.readouterr()
    assert rc == 75


def test_chaos_cli_against_live_server(capsys):
    from repro.__main__ import main

    with make_service() as bg:
        assert main(["chaos", "--port", str(bg.port), "--rounds", "5",
                     "--seed", "7", "--stall-seconds", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "chaos rounds" in out and "OK" in out


# ---------------------------------------------------------------------------
# demand paging: fetch_function / fetch_range / stats accounting
# ---------------------------------------------------------------------------

MULTI = """
int sq(int x) { return x * x; }
int cube(int x) { return x * x * x; }
int main(void) { print_int(sq(7)); putchar('\\n'); return 0; }
"""


#: A 13-function generated unit: several chunks at the default size.
GEN12 = generate_program_source(functions=12, seed=3)

#: sha256 over GEN12's fetch replies (see test_fetch_replies_are_pinned).
FETCH_DIGESTS = {
    ("wire", None):
        "058335fbec996e7932fd19493881924b6750d2f0f7dc220ce60ad068f8fd2e15",
    ("wire", 64):
        "a40f2f52dbbf11d57aaac23bb48ace1080493299944b5ef9cfb514e6cfa8fc58",
    ("brisc", None):
        "20d74a6e04370d07b4fcd5965d7870f0cc3b192256e2f42988044be7ca97fa5f",
    ("brisc", 64):
        "b717684058b4e840388f1bb861736fa1f69a3988bd7a88f5a729dc9e5e62b4f7",
}


class TestFetchOps:
    def test_fetch_function_transfers_fewer_bytes(self):
        from repro.wire import decode_function

        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                result = client.fetch_function(
                    MULTI, "sq", name="multi.c", chunk_bytes=64)
        assert result["format"] == "wire"
        assert 0 < result["transferred"] < result["total_bytes"]
        assert result["chunks"]
        # The sparse blob really decodes the requested function.
        fn = decode_function(result["blob"], "sq")
        assert fn.name == "sq"

    def test_fetch_range_round_trip(self):
        from repro.wire import decode_range

        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                result = client.fetch_range(
                    MULTI, 4, 32, name="multi.c", chunk_bytes=64)
        assert result["transferred"] <= result["total_bytes"]
        # The sparse blob serves the span the full container would.
        assert decode_range(result["blob"], 4, 32)

    def test_fetch_brisc_format(self):
        from repro.brisc.encode import decode_function

        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                result = client.fetch_function(
                    MULTI, "cube", name="multi.c", format="brisc",
                    chunk_bytes=64)
        assert result["format"] == "brisc"
        fn = decode_function(result["blob"], "cube")
        assert fn.name == "cube"

    def test_unknown_function_is_typed_and_final(self):
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                with pytest.raises(RemoteServiceError) as info:
                    client.fetch_function(MULTI, "nope", name="multi.c")
        assert info.value.taxonomy == "decode"
        assert info.value.error_type == "CorruptStreamError"
        assert not info.value.retryable

    def test_bad_range_args_are_typed(self):
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                with pytest.raises(RemoteServiceError) as info:
                    client.fetch_range(MULTI, -3, 10, name="multi.c")
        assert info.value.taxonomy == "decode"

    def test_stats_count_bytes_served_and_hits(self):
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                first = client.fetch_function(
                    MULTI, "sq", name="multi.c", chunk_bytes=64)
                second = client.fetch_function(
                    MULTI, "sq", name="multi.c", chunk_bytes=64)
                stats = client.stats()["service"]
        assert not first["cache_hit"]
        assert second["cache_hit"]  # warm store: no recompilation
        assert stats["bytes_served"] == \
            first["transferred"] + second["transferred"]
        counters = stats["range_ops"]["fetch_function"]
        assert counters["misses"] == 1 and counters["hits"] == 1

    def test_fetch_hit_reuses_the_parsed_index(self, monkeypatch):
        """A blob's block index is parsed once, not per request; the
        replies stay the same."""
        import repro.container

        calls = []
        parse = repro.container.container_index

        def counting(blob, *args, **kwargs):
            calls.append(len(blob))
            return parse(blob, *args, **kwargs)

        monkeypatch.setattr(repro.container, "container_index", counting)
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                first, second = (client.fetch_function(
                    MULTI, "sq", name="multi.c", chunk_bytes=64)
                    for _ in range(2))
        assert len(calls) == 1
        assert second["cache_hit"]
        del first["cache_hit"], second["cache_hit"]
        assert first == second

    def test_brisc_fetch_repacks_the_built_image(self, monkeypatch):
        """A BRISC fetch frames the image a ``brisc`` request built, at
        any chunk size: no dictionary build runs again."""
        import repro.brisc

        builds = []
        build = repro.brisc.build_dictionary

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(repro.brisc, "build_dictionary", counting)
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                client.brisc(MULTI, name="multi.c")
                for chunk_bytes in (None, 64):
                    fetched = client.fetch_function(
                        MULTI, "cube", name="multi.c", format="brisc",
                        chunk_bytes=chunk_bytes)
                    assert not fetched["cache_hit"]
        assert len(builds) == 1

    @pytest.mark.parametrize("fmt, chunk_bytes", list(FETCH_DIGESTS),
                             ids=lambda v: str(v or "default"))
    def test_fetch_replies_are_pinned(self, fmt, chunk_bytes):
        """Every function's reply and one range's serve the bytes, sizes
        and chunks pinned when v3 containers were compiled as stage
        artifacts."""
        module = Toolchain().compile(GEN12, name="gen12",
                                     stages=("lower",)).module
        requests = [("fetch_function", {"function": fn.name})
                    for fn in module.functions]
        requests.append(("fetch_range", {"start": 40, "length": 900}))
        digest = hashlib.sha256()
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                for op, fields in requests:
                    reply = client.request(
                        op, source=GEN12, name="gen12", format=fmt,
                        chunk_bytes=chunk_bytes, **fields)
                    digest.update(json.dumps(
                        [reply["segments"], reply["total_bytes"],
                         reply["chunks"]]).encode())
        assert digest.hexdigest() == FETCH_DIGESTS[fmt, chunk_bytes]

    def test_verify_function_accepts_sparse_blob(self):
        with make_service() as bg:
            with ServiceClient(port=bg.port, timeout=30.0) as client:
                fetched = client.fetch_function(
                    MULTI, "sq", name="multi.c", chunk_bytes=64)
                report = client.verify(fetched["blob"], function="sq")
        assert "sq" in report["detail"]

    def test_fetch_cli_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "multi.c"
        source.write_text(MULTI)
        out = tmp_path / "sq.wir"
        with make_service() as bg:
            rc = main(["fetch", "--port", str(bg.port), "--function", "sq",
                       "--chunk-bytes", "64", str(source), "-o", str(out)])
        assert rc == 0
        assert "transferred" in capsys.readouterr().out
        assert main(["verify", str(out), "--function", "sq"]) == 0
        capsys.readouterr()

    def test_fetch_cli_rejects_ambiguous_request(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "multi.c"
        source.write_text(MULTI)
        assert main(["fetch", "--port", "1", str(source)]) == 2
        assert main(["fetch", "--port", "1", "--function", "sq",
                     "--start", "0", "--length", "4", str(source)]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# malformed replies from a forged server
# ---------------------------------------------------------------------------


def _one_shot_server(result):
    """A listener that answers one request with ``{"ok": true, "result":
    result}``, whatever was asked.  Returns (port, thread, listener)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)

    def answer():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(5.0)
            request = protocol.decode_message(protocol.read_frame_sync(conn))
            conn.sendall(protocol.encode_message(
                {"id": request["id"], "ok": True, "result": result}))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread, listener


_SEGMENT = {"offset": 0, "b64": "AAAAAA=="}  # 4 zero bytes

MALFORMED_REPLIES = {
    "segment-past-total": ("fetch", {"total_bytes": 2, "segments": [_SEGMENT]},
                           CorruptStreamError),
    "huge-total": ("fetch", {"total_bytes": 2 ** 40, "segments": []},
                   ResourceLimitError),
    "negative-total": ("fetch", {"total_bytes": -1, "segments": []},
                       CorruptStreamError),
    "missing-total": ("fetch", {"segments": [_SEGMENT]}, CorruptStreamError),
    "string-offset": ("fetch", {"total_bytes": 8, "segments": [
        {"offset": "0", "b64": "AAAAAA=="}]}, CorruptStreamError),
    "segments-not-a-list": ("fetch", {"total_bytes": 8, "segments": "AAAA"},
                            CorruptStreamError),
    "segment-not-base64": ("fetch", {"total_bytes": 8, "segments": [
        {"offset": 0, "b64": "!!"}]}, CorruptStreamError),
    "wire-missing-blob": ("wire", {}, CorruptStreamError),
    "wire-not-base64": ("wire", {"blob_b64": "W!I!R!2"}, CorruptStreamError),
    "brisc-blob-not-a-string": ("brisc", {"blob_b64": 7}, CorruptStreamError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
def test_malformed_replies_raise_typed_errors(case):
    """A reply the server could never have sent surfaces as a typed
    ``repro.errors`` exception, never as a raw Python error or garbage."""
    op, result, expected = MALFORMED_REPLIES[case]
    port, thread, listener = _one_shot_server(result)
    try:
        with ServiceClient(port=port, timeout=5.0) as client:
            with pytest.raises(expected):
                if op == "fetch":
                    client.fetch_function(HELLO, "sq")
                else:
                    getattr(client, op)(HELLO)
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# client auto-retry
# ---------------------------------------------------------------------------


def test_client_retries_shed_requests_until_capacity_frees():
    with make_service(max_concurrency=1, max_queue=0,
                      shed_retry_after=0.05) as bg:
        def occupy():
            with ServiceClient(port=bg.port, timeout=20.0) as holder:
                holder.sleep(0.6, deadline=15.0, name="hold")

        worker = threading.Thread(target=occupy)
        worker.start()
        with ServiceClient(port=bg.port, timeout=10.0) as probe:
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] == 1)
        with ServiceClient(port=bg.port, timeout=15.0, retries=20,
                           rng=Random(7)) as client:
            # Budget large enough to outlast the occupier: succeeds.
            assert client.compile(HELLO, name="patient.c")["sizes"]["vm"] > 0
        worker.join(10.0)


def test_client_retry_budget_exhaustion_propagates_the_error():
    with make_service(max_concurrency=1, max_queue=0,
                      shed_retry_after=0.02) as bg:
        def occupy():
            with ServiceClient(port=bg.port, timeout=20.0) as holder:
                holder.sleep(1.0, deadline=15.0, name="hold")

        worker = threading.Thread(target=occupy)
        worker.start()
        with ServiceClient(port=bg.port, timeout=10.0) as probe:
            assert wait_until(
                lambda: probe.stats()["service"]["inflight"] == 1)
        with ServiceClient(port=bg.port, timeout=10.0, rng=Random(7)) as c:
            with pytest.raises(RemoteServiceError) as exc_info:
                c.request("compile", retries=2, source=HELLO,
                          name="impatient.c")
            assert exc_info.value.error_type == "OverloadedError"
            assert exc_info.value.retryable  # exit-75 contract intact
        worker.join(10.0)


def test_client_backoff_honors_retry_after_floor_and_cap():
    client = ServiceClient(backoff_base=0.01, backoff_max=0.5,
                           rng=Random(0))
    for attempt in range(8):
        delay = client._backoff(attempt, None)  # noqa: SLF001
        assert 0.0 <= delay <= 0.5
    assert client._backoff(0, 0.2) >= 0.2  # noqa: SLF001
    assert client._backoff(9, 99.0) == 0.5  # noqa: SLF001 - capped
    with pytest.raises(ValueError):
        ServiceClient(retries=-1)
    with pytest.raises(ValueError):
        ServiceClient(backoff_base=0.0)


def test_client_reconnects_through_an_idle_reaped_connection():
    with make_service(idle_timeout=0.3) as bg:
        with ServiceClient(port=bg.port, timeout=10.0,
                           rng=Random(3)) as client:
            assert client.ping()["pong"]
            time.sleep(0.8)  # server reaps the idle connection
            # Without a budget the dead socket is a hard transport error;
            # with one, the client reconnects and the request succeeds.
            assert client.request("ping", retries=1)["pong"]


# ---------------------------------------------------------------------------
# client retry budget under transport failure
# ---------------------------------------------------------------------------


def _assert_transport_failures_consume_the_retry_budget(hang_up):
    """Run a listener that accepts and immediately ``hang_up``s every
    connection; each attempt must burn one retry and surface as a typed
    :class:`TruncatedStreamError`, so a hard transport failure can
    neither retry forever nor leak a raw ``OSError``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)  # so the thread notices ``stop`` promptly
    port = listener.getsockname()[1]
    accepts = []
    stop = threading.Event()

    def slam_door():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            accepts.append(1)
            hang_up(conn)

    thread = threading.Thread(target=slam_door, daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=port, timeout=2.0, retries=2,
                               backoff_base=0.001, backoff_max=0.002,
                               rng=Random(7))
        with pytest.raises(TruncatedStreamError):
            client.ping()
        client.close()
        assert len(accepts) == 3  # the first attempt + 2 retries

        # With no budget the first transport failure is final.
        accepts.clear()
        client = ServiceClient(port=port, timeout=2.0, retries=0)
        with pytest.raises(TruncatedStreamError):
            client.ping()
        client.close()
        assert len(accepts) == 1
    finally:
        stop.set()
        thread.join(timeout=2.0)
        listener.close()
    assert not thread.is_alive()


def test_transport_failures_consume_the_retry_budget():
    """Clean hang-up: the client reads EOF where a reply should be.  The
    listener half-closes and drains until the client hangs up, because a
    plain ``close`` with the request still unread would send an RST."""
    def clean_eof(conn):
        try:
            conn.settimeout(5.0)
            conn.shutdown(socket.SHUT_WR)
            while conn.recv(4096):
                pass
        except OSError:
            pass
        finally:
            conn.close()

    _assert_transport_failures_consume_the_retry_budget(clean_eof)


def test_connection_resets_consume_the_retry_budget():
    """Abortive hang-up: ``SO_LINGER`` (1, 0) makes ``close`` send an RST
    in place of a reply, so the client's receive fails with
    ``ConnectionResetError``, which must surface typed, like the EOF.
    The listener waits for the request first, so the reset always lands
    on the reply read and never races the client's connect."""
    def reset(conn):
        try:
            conn.settimeout(5.0)
            conn.recv(4096)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        except OSError:
            pass
        finally:
            conn.close()

    _assert_transport_failures_consume_the_retry_budget(reset)
