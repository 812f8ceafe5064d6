"""Deterministic fault injection for the decode path.

The robustness contract of this reproduction is simple to state: feed any
decoder any bytes, and it either returns the exact artifact it was given
(the mutation hit dead space or cancelled out) or raises a typed
:class:`~repro.errors.DecodeError` — promptly.  No ``IndexError`` leaking
out of a slice, no silent wrong answer, no unbounded loop chewing on a
forged length field.

This module is the harness that checks the contract.  It mutates a known
good container with a small family of byte-level faults — single bit
flips, truncations, byte deletions, duplications, and adjacent swaps (the
classic transmission/storage error shapes) — and classifies what the
decoder does with each mutant:

``intact``
    decoded successfully to a value canonically equal to the original;
``detected``
    raised a :class:`DecodeError` subclass — the desired outcome;
``unchanged``
    the mutation produced the identical blob (e.g. swapping equal bytes);
``untyped``
    raised anything *outside* the taxonomy — a contract violation;
``wrong_answer``
    decoded "successfully" to a different value — silent corruption;
``hang``
    did not return within the deadline.

All randomness comes from a seeded :class:`random.Random`, so a failing
mutation index reproduces exactly; there is no wall-clock randomness
anywhere.  The CLI front end lives in ``python -m repro fuzz``.

The second harness here is *chaos mode* (:func:`chaos_probe`): the same
philosophy aimed at a **live service front end** (:mod:`repro.service`)
instead of an in-process decoder.  It opens raw sockets against a
running server and injects the transport-level failure shapes — corrupt
frames, garbage bytes, mid-frame disconnects, stalls, forged length
fields — asserting after every injection that the server (a) answered
with a structured typed error where the protocol allows one, and (b) is
still alive and serving (a clean ping round-trip succeeds).  The CLI
front end is ``python -m repro chaos``.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DecodeError

__all__ = [
    "CHAOS_SCENARIOS",
    "MUTATION_KINDS",
    "ChaosFailure",
    "ChaosReport",
    "apply_mutation",
    "chaos_probe",
    "FuzzFailure",
    "FuzzReport",
    "corrupt_chunk",
    "fuzz_chunked_container",
    "fuzz_decoder",
]

MUTATION_KINDS = ("bit_flip", "truncate", "delete", "duplicate", "swap")

FAILURE_OUTCOMES = ("untyped", "wrong_answer", "hang")


def apply_mutation(blob: bytes, kind: str, rng: Random) -> bytes:
    """Apply one ``kind`` of fault to ``blob`` at a position drawn from
    ``rng``; pure function of its inputs."""
    if kind not in MUTATION_KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}")
    if not blob:
        return blob
    if kind == "bit_flip":
        i = rng.randrange(len(blob))
        return blob[:i] + bytes([blob[i] ^ (1 << rng.randrange(8))]) + blob[i + 1:]
    if kind == "truncate":
        return blob[: rng.randrange(len(blob))]
    if kind == "delete":
        i = rng.randrange(len(blob))
        return blob[:i] + blob[i + 1:]
    if kind == "duplicate":
        i = rng.randrange(len(blob))
        return blob[: i + 1] + blob[i : i + 1] + blob[i + 1:]
    # swap two adjacent bytes
    if len(blob) < 2:
        return blob
    i = rng.randrange(len(blob) - 1)
    return blob[:i] + blob[i + 1 : i + 2] + blob[i : i + 1] + blob[i + 2:]


@dataclass(frozen=True)
class FuzzFailure:
    """One contract-violating mutation, with enough detail to replay it."""

    target: str
    kind: str
    index: int        # mutation ordinal: re-runs reproduce it exactly
    outcome: str      # "untyped" | "wrong_answer" | "hang"
    detail: str


@dataclass
class FuzzReport:
    """Outcome histogram of one fuzzing run against one container."""

    target: str
    seed: int
    mutations: int
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = ", ".join(
            f"{name}={self.counts.get(name, 0)}"
            for name in (("intact", "detected", "unchanged", "isolated")
                         + FAILURE_OUTCOMES)
            if self.counts.get(name, 0)
        )
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (f"{self.target}: {self.mutations} mutations "
                f"(seed {self.seed}): {parts} -> {status}")


def _call_with_deadline(
    decode: Callable[[bytes], object], blob: bytes, deadline: float
) -> Tuple[str, object]:
    """Run ``decode(blob)`` on a watchdog thread.

    Returns ("value", result), ("error", exception), or ("hang", None).
    A hung decode leaks its (daemon) thread — acceptable for a test
    harness, and the only way to keep the sweep moving without signals.
    """
    box: Dict[str, object] = {}

    def run() -> None:
        try:
            box["value"] = decode(blob)
        except BaseException as exc:  # noqa: BLE001 - classified by caller
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(deadline)
    if worker.is_alive():
        return "hang", None
    if "error" in box:
        return "error", box["error"]
    return "value", box["value"]


def fuzz_decoder(
    blob: bytes,
    decode: Callable[[bytes], object],
    *,
    target: str = "container",
    mutations: int = 500,
    seed: int = 0,
    deadline: float = 10.0,
    kinds: Sequence[str] = MUTATION_KINDS,
    canonical: Optional[Callable[[object], object]] = None,
) -> FuzzReport:
    """Sweep ``mutations`` seeded faults over ``blob`` through ``decode``.

    ``decode`` must decode the *unmutated* blob successfully; its result
    (projected through ``canonical`` when given — use this when decoded
    objects need normalization before ``==`` is meaningful) is the
    reference against which surviving mutants are compared.  Mutation
    kinds are cycled round-robin so every kind gets ~equal coverage.
    """
    if mutations < 1:
        raise ValueError("mutations must be positive")
    if not kinds:
        raise ValueError("at least one mutation kind required")
    project = canonical if canonical is not None else (lambda value: value)
    reference = project(decode(bytes(blob)))
    rng = Random(seed)
    report = FuzzReport(target=target, seed=seed, mutations=mutations)

    def bump(outcome: str) -> None:
        report.counts[outcome] = report.counts.get(outcome, 0) + 1

    for index in range(mutations):
        kind = kinds[index % len(kinds)]
        mutated = apply_mutation(bytes(blob), kind, rng)
        if mutated == blob:
            bump("unchanged")
            continue
        status, payload = _call_with_deadline(decode, mutated, deadline)
        if status == "hang":
            bump("hang")
            report.failures.append(FuzzFailure(
                target, kind, index, "hang",
                f"no result within {deadline}s"))
        elif status == "error":
            if isinstance(payload, DecodeError):
                bump("detected")
            else:
                bump("untyped")
                report.failures.append(FuzzFailure(
                    target, kind, index, "untyped",
                    f"{type(payload).__name__}: {payload}"))
        else:
            try:
                same = project(payload) == reference
            except Exception as exc:  # canonicalization itself blew up
                same = False
                bump("untyped")
                report.failures.append(FuzzFailure(
                    target, kind, index, "untyped",
                    f"canonicalization failed: {type(exc).__name__}: {exc}"))
                continue
            if same:
                bump("intact")
            else:
                bump("wrong_answer")
                report.failures.append(FuzzFailure(
                    target, kind, index, "wrong_answer",
                    "decode succeeded with a different artifact"))
    return report


# ---------------------------------------------------------------------------
# Chunked containers: corruption isolation
# ---------------------------------------------------------------------------


def corrupt_chunk(blob: bytes, chunk_id: int, rng: Random) -> bytes:
    """Flip one bit strictly inside chunk ``chunk_id`` of a v3 container.

    The position is drawn from ``rng``; the chunk's CRC is left alone, so
    a correct decoder must detect the damage.  Raises ``ValueError`` for
    an empty or out-of-range chunk.
    """
    from .container import container_index

    index = container_index(bytes(blob))
    if not 0 <= chunk_id < len(index.chunks):
        raise ValueError(f"no chunk {chunk_id} "
                         f"(container has {len(index.chunks)})")
    chunk = index.chunks[chunk_id]
    if chunk.length == 0:
        raise ValueError(f"chunk {chunk_id} is empty")
    i = chunk.offset + rng.randrange(chunk.length)
    return (blob[:i] + bytes([blob[i] ^ (1 << rng.randrange(8))])
            + blob[i + 1:])


def fuzz_chunked_container(
    blob: bytes,
    *,
    target: str = "container",
    rounds: int = 0,
    seed: int = 0,
    deadline: float = 10.0,
) -> FuzzReport:
    """Check the *isolation* contract of a seekable (v3) container.

    Each round corrupts one bit inside one chunk (cycling over the
    chunks), then reads every function's span through the partial
    decoder.  The contract:

    * reads of functions in the corrupted chunk raise a typed
      :class:`DecodeError` (``detected``) — never a wrong answer, never
      an untyped exception;
    * reads of functions in *other* chunks return bytes identical to the
      pristine container's (``isolated``) — corruption must not leak
      across chunk boundaries.

    ``rounds`` defaults to two sweeps over the chunk list.
    """
    from .container import container_index, decode_range_bytes

    index = container_index(bytes(blob))
    chunks = [c for c in index.chunks if c.length > 0]
    if not chunks:
        raise ValueError(f"{target}: no non-empty chunks to corrupt")
    if rounds < 1:
        rounds = 2 * len(chunks)
    reference = {
        fn.name: decode_range_bytes(bytes(blob), fn.span_start,
                                    fn.span_length)
        for fn in index.functions
    }
    rng = Random(seed)
    report = FuzzReport(target=target, seed=seed, mutations=rounds)

    def bump(outcome: str) -> None:
        report.counts[outcome] = report.counts.get(outcome, 0) + 1

    for index_ in range(rounds):
        chunk = chunks[index_ % len(chunks)]
        mutated = corrupt_chunk(bytes(blob), chunk.index, rng)
        for fn in index.functions:
            reader = (lambda b, s=fn.span_start, n=fn.span_length:
                      decode_range_bytes(b, s, n))
            status, payload = _call_with_deadline(reader, mutated, deadline)
            hit = fn.chunk == chunk.index
            label = f"chunk {chunk.index} -> read {fn.name!r}"
            if status == "hang":
                bump("hang")
                report.failures.append(FuzzFailure(
                    target, "chunk_corrupt", index_, "hang",
                    f"{label}: no result within {deadline}s"))
            elif status == "error":
                if not isinstance(payload, DecodeError):
                    bump("untyped")
                    report.failures.append(FuzzFailure(
                        target, "chunk_corrupt", index_, "untyped",
                        f"{label}: {type(payload).__name__}: {payload}"))
                elif hit:
                    bump("detected")
                else:
                    bump("untyped")
                    report.failures.append(FuzzFailure(
                        target, "chunk_corrupt", index_, "untyped",
                        f"{label}: corruption leaked across chunks: "
                        f"{type(payload).__name__}: {payload}"))
            else:
                if payload == reference[fn.name]:
                    if hit:
                        # A flip the chunk CRC failed to catch would be a
                        # detector bug even though the bytes came out
                        # right; CRC32 catches all single-bit errors.
                        bump("wrong_answer")
                        report.failures.append(FuzzFailure(
                            target, "chunk_corrupt", index_, "wrong_answer",
                            f"{label}: corrupted chunk decoded without "
                            f"a CRC error"))
                    else:
                        bump("isolated")
                else:
                    bump("wrong_answer")
                    report.failures.append(FuzzFailure(
                        target, "chunk_corrupt", index_, "wrong_answer",
                        f"{label}: decode succeeded with different bytes"))
    return report


# ---------------------------------------------------------------------------
# Chaos mode: fault injection against a live service front end
# ---------------------------------------------------------------------------

CHAOS_SCENARIOS = (
    "corrupt_frame",        # valid framing, flipped payload bit (CRC trips)
    "garbage",              # random bytes that are not a frame at all
    "truncate_disconnect",  # a frame cut off mid-send, then hang up
    "stall",                # a partial frame held open, then hang up
    "oversize_length",      # a header promising an absurd payload length
)


@dataclass(frozen=True)
class ChaosFailure:
    """One robustness-contract violation observed against the server."""

    scenario: str
    index: int      # round ordinal: re-runs with the seed reproduce it
    detail: str


@dataclass
class ChaosReport:
    """Outcome of one chaos run against one live server."""

    host: str
    port: int
    seed: int
    rounds: int
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = ", ".join(f"{name}={count}"
                          for name, count in sorted(self.counts.items()))
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (f"{self.host}:{self.port}: {self.rounds} chaos rounds "
                f"(seed {self.seed}): {parts} -> {status}")


def _chaos_message(message: dict) -> bytes:
    from .service import protocol

    return protocol.encode_message(message)


def _chaos_read_reply(sock: socket.socket) -> Optional[dict]:
    """One framed reply, or ``None`` when the server closed instead."""
    from .service import protocol

    try:
        payload = protocol.read_frame_sync(sock)
    except DecodeError:
        return None
    if payload is None:
        return None
    return protocol.decode_message(payload)


def _chaos_ping(host: str, port: int, timeout: float,
                sock: Optional[socket.socket] = None) -> Tuple[bool, str]:
    """A clean ping round-trip; on ``sock`` when given, else a fresh
    connection.  Returns (alive, detail)."""
    own = sock is None
    try:
        if own:
            sock = socket.create_connection((host, port), timeout=timeout)
        assert sock is not None
        sock.sendall(_chaos_message({"id": 0, "op": "ping"}))
        reply = _chaos_read_reply(sock)
    except OSError as exc:
        return False, f"ping failed: {type(exc).__name__}: {exc}"
    finally:
        if own and sock is not None:
            sock.close()
    if reply is None:
        return False, "ping got no reply (connection closed)"
    if not reply.get("ok") or not reply.get("result", {}).get("pong"):
        return False, f"ping got unexpected reply {reply!r}"
    return True, "pong"


def chaos_probe(
    host: str,
    port: int,
    *,
    rounds: int = 15,
    seed: int = 0,
    timeout: float = 5.0,
    stall_seconds: float = 0.2,
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
) -> ChaosReport:
    """Inject ``rounds`` transport faults into a live server.

    Scenarios cycle round-robin (like fuzz mutation kinds).  The contract
    checked per round:

    * ``corrupt_frame`` — the server must reply with a structured
      decode-taxonomy error **on the same connection**, and that
      connection must still serve a clean ping afterwards (the frame was
      consumed in full, so the stream is in sync);
    * ``garbage`` / ``oversize_length`` — the server must send a
      structured error reply and may then close (the stream cannot be
      resynchronized);
    * ``truncate_disconnect`` / ``stall`` — no reply owed; the
      connection just dies or dawdles;
    * after **every** round, a fresh-connection ping must succeed — no
      injected fault may take the server down.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if not scenarios:
        raise ValueError("at least one scenario required")
    unknown = set(scenarios) - set(CHAOS_SCENARIOS)
    if unknown:
        raise ValueError(f"unknown chaos scenarios {sorted(unknown)}")
    rng = Random(seed)
    report = ChaosReport(host=host, port=port, seed=seed, rounds=rounds)

    def bump(outcome: str) -> None:
        report.counts[outcome] = report.counts.get(outcome, 0) + 1

    def fail(scenario: str, index: int, detail: str) -> None:
        bump("violation")
        report.failures.append(ChaosFailure(scenario, index, detail))

    for index in range(rounds):
        scenario = scenarios[index % len(scenarios)]
        frame = _chaos_message({"id": index + 1, "op": "ping"})
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            fail(scenario, index, f"could not connect: {exc}")
            break
        try:
            if scenario == "corrupt_frame":
                # Flip one bit inside the payload: length and magic stay
                # valid, the CRC trips, and the stream stays in sync.
                payload_at = 8 + rng.randrange(len(frame) - 12)
                bad = (frame[:payload_at]
                       + bytes([frame[payload_at] ^ (1 << rng.randrange(8))])
                       + frame[payload_at + 1:])
                sock.sendall(bad)
                reply = _chaos_read_reply(sock)
                if reply is None:
                    fail(scenario, index,
                         "no structured reply to a corrupt frame")
                elif (reply.get("ok")
                      or reply.get("error", {}).get("taxonomy") != "decode"):
                    fail(scenario, index,
                         f"expected a decode-taxonomy error, got {reply!r}")
                else:
                    bump("structured_reply")
                    alive, detail = _chaos_ping(host, port, timeout,
                                                sock=sock)
                    if not alive:
                        fail(scenario, index,
                             f"connection did not survive the corrupt "
                             f"frame: {detail}")
                    else:
                        bump("connection_survived")
            elif scenario == "garbage":
                blob = bytes([0x00]) + bytes(
                    rng.getrandbits(8) for _ in range(rng.randrange(15, 63)))
                sock.sendall(blob)
                reply = _chaos_read_reply(sock)
                if reply is None or reply.get("ok"):
                    fail(scenario, index,
                         f"expected a structured error reply, got {reply!r}")
                else:
                    bump("structured_reply")
            elif scenario == "oversize_length":
                from .service import protocol

                header = struct.pack(">4sI", protocol.MAGIC, 0xFFFFFFFF)
                sock.sendall(header)
                reply = _chaos_read_reply(sock)
                if reply is None or reply.get("ok"):
                    fail(scenario, index,
                         f"expected a structured error reply, got {reply!r}")
                elif reply.get("error", {}).get("type") \
                        != "ResourceLimitError":
                    fail(scenario, index,
                         f"expected ResourceLimitError, got {reply!r}")
                else:
                    bump("structured_reply")
            elif scenario == "truncate_disconnect":
                cut = rng.randrange(1, len(frame))
                sock.sendall(frame[:cut])
                bump("disconnected")
            else:  # stall
                cut = rng.randrange(1, len(frame))
                sock.sendall(frame[:cut])
                time.sleep(stall_seconds)
                bump("stalled")
        except OSError as exc:
            # The server may slam the connection mid-scenario; that is
            # within contract for everything but corrupt_frame (handled
            # above via its reply checks).
            bump("connection_reset")
            if scenario == "corrupt_frame":
                fail(scenario, index,
                     f"connection error instead of a structured reply: "
                     f"{exc}")
        finally:
            sock.close()
        alive, detail = _chaos_ping(host, port, timeout)
        if alive:
            bump("alive_after")
        else:
            fail(scenario, index, f"server not alive after {scenario}: "
                                  f"{detail}")
    return report
