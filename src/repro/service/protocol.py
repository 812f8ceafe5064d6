"""The service wire protocol: length-prefixed, CRC-framed JSON messages.

One frame::

    +------+----------+---------------------+----------+
    | RSV1 | length u32 | payload (JSON, utf-8) | crc32 u32 |
    +------+----------+---------------------+----------+

``length`` counts payload bytes only; ``crc32`` covers the payload.  Both
integers are big-endian.  The framing deliberately mirrors the artifact
containers (WIR2/BRI2): a flipped bit anywhere in the payload fails the
CRC and surfaces as a typed :class:`~repro.errors.CorruptStreamError`
instead of a JSON parse crash or — worse — a silently wrong request.

Error classification drives the server's connection policy:

* :class:`CorruptStreamError` (bad CRC, undecodable JSON) — the frame was
  fully consumed, so the stream is still in sync: reply with a structured
  error and keep the connection;
* :class:`UnsupportedFormatError` (wrong magic) and
  :class:`ResourceLimitError` (length field beyond the frame bound) — the
  stream cannot be resynchronized: reply, then close;
* :class:`TruncatedStreamError` — the peer vanished mid-frame: close.

``error_payload`` turns any exception into the structured reply dict: a
:class:`~repro.errors.ReproError` names its own family, and carries
``retryable`` / ``retry_after`` so clients can act without parsing
message strings.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import zlib
from typing import Any, Dict, Optional

from ..errors import (
    CorruptStreamError, ReproError, ResourceLimitError, TruncatedStreamError,
    UnsupportedFormatError, decode_guard,
)

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "decode_b64",
    "decode_message",
    "encode_frame",
    "encode_message",
    "error_payload",
    "read_frame_async",
    "read_frame_sync",
    "recoverable",
]

MAGIC = b"RSV1"

#: Ceiling on one frame's payload.  Far above any real request (sources
#: are kilobytes, container blobs megabytes) while keeping a forged
#: length field from ballooning server memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">4sI")
_TRAILER = struct.Struct(">I")


def encode_frame(payload: bytes, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap ``payload`` in the magic + length + CRC32 frame."""
    if len(payload) > max_frame:
        raise ResourceLimitError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame bound")
    return (_HEADER.pack(MAGIC, len(payload)) + payload
            + _TRAILER.pack(zlib.crc32(payload)))


def check_frame(header: bytes, max_frame: int = MAX_FRAME_BYTES) -> int:
    """Validate a frame header, returning the payload length."""
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise UnsupportedFormatError(
            f"bad frame magic {magic!r} (want {MAGIC!r})")
    if length > max_frame:
        raise ResourceLimitError(
            f"frame promises {length} bytes, above the {max_frame}-byte "
            f"frame bound")
    return length


def check_payload(payload: bytes, trailer: bytes) -> bytes:
    """Verify the CRC trailer over ``payload``."""
    (want,) = _TRAILER.unpack(trailer)
    got = zlib.crc32(payload)
    if got != want:
        raise CorruptStreamError(
            f"frame CRC mismatch: stored {want:#010x}, computed {got:#010x}")
    return payload


def encode_message(message: Dict[str, Any]) -> bytes:
    """Frame one JSON message."""
    return encode_frame(json.dumps(message, sort_keys=True).encode("utf-8"))


def decode_message(payload: bytes) -> Dict[str, Any]:
    """Parse a verified frame payload into a message dict."""
    with decode_guard("service message"):
        message = json.loads(payload.decode("utf-8"))
        if not isinstance(message, dict):
            raise CorruptStreamError(
                f"service message must be an object, got "
                f"{type(message).__name__}")
        return message


def decode_b64(value: Any, what: str) -> bytes:
    """Strictly decode a message's base64 field; a missing, non-string or
    non-base64 value raises :class:`CorruptStreamError`."""
    if not isinstance(value, str):
        raise CorruptStreamError(
            f"{what} must be a base64 string, got {type(value).__name__}")
    try:
        return base64.b64decode(value.encode("ascii"), validate=True)
    except ValueError as exc:  # binascii.Error, UnicodeEncodeError
        raise CorruptStreamError(f"{what} is not base64: {exc}") from exc


def recoverable(exc: Exception) -> bool:
    """True when the connection's framing survived ``exc`` — the frame
    was consumed in full, so the server may reply and keep reading."""
    if isinstance(exc, (TruncatedStreamError, UnsupportedFormatError,
                        ResourceLimitError)):
        return False
    return isinstance(exc, CorruptStreamError)


# ---------------------------------------------------------------------------
# Blocking reader (client side and chaos harness)
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        try:
            chunk = sock.recv(n - len(chunks))
        except socket.timeout as exc:
            raise TruncatedStreamError(
                f"timed out awaiting {what} ({len(chunks)}/{n} bytes)"
            ) from exc
        if not chunk:
            raise TruncatedStreamError(
                f"connection closed awaiting {what} ({len(chunks)}/{n} bytes)")
        chunks.extend(chunk)
    return bytes(chunks)


def read_frame_sync(
    sock: socket.socket, max_frame: int = MAX_FRAME_BYTES
) -> Optional[bytes]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    try:
        first = sock.recv(1)
    except socket.timeout as exc:
        raise TruncatedStreamError("timed out awaiting a frame") from exc
    if not first:
        return None
    header = first + _recv_exact(sock, _HEADER.size - 1, "frame header")
    length = check_frame(header, max_frame)
    payload = _recv_exact(sock, length, "frame payload")
    trailer = _recv_exact(sock, _TRAILER.size, "frame CRC")
    return check_payload(payload, trailer)


# ---------------------------------------------------------------------------
# Async reader (server connection loop)
# ---------------------------------------------------------------------------


async def read_frame_async(reader, max_frame: int = MAX_FRAME_BYTES
                           ) -> Optional[bytes]:
    """Read one frame from an :class:`asyncio.StreamReader`; ``None`` on
    clean EOF between frames, typed errors for everything else."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedStreamError(
            f"connection closed {len(exc.partial)} bytes into a frame "
            f"header") from exc
    length = check_frame(header, max_frame)
    try:
        rest = await reader.readexactly(length + _TRAILER.size)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedStreamError(
            f"connection closed mid-frame ({len(exc.partial)}/"
            f"{length + _TRAILER.size} bytes)") from exc
    return check_payload(rest[:length], rest[length:])


# ---------------------------------------------------------------------------
# Structured error replies
# ---------------------------------------------------------------------------


def error_payload(exc: Exception) -> Dict[str, Any]:
    """The structured ``error`` object for a failed request.

    ``type`` is the exception class name, ``taxonomy`` its class's family
    (``internal`` outside :class:`~repro.errors.ReproError`), and
    ``retryable`` / ``retry_after`` carry the error's retry hints.
    """
    typed = isinstance(exc, ReproError)
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "taxonomy": type(exc).taxonomy if typed else "internal",
        "message": str(exc),
        "retryable": typed and exc.retryable,
    }
    if typed and exc.retry_after is not None:
        payload["retry_after"] = exc.retry_after
    return payload
