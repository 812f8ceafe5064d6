"""Container support shared by the wire and BRISC formats.

The format-specific function tables and chunk payloads live with their
formats (:mod:`repro.wire.format`, :mod:`repro.brisc.encode`); this
package holds everything else about a v3 container — the chunk packer,
the framing, the block index and the span reader (see
:mod:`repro.container.chunking`) — plus format-dispatching front doors
(:func:`container_index`, :func:`decode_range_bytes`, :func:`verify`)
that branch on the blob's magic so callers like the service and CLI
don't care which format they hold.  :mod:`repro.container.data` is the
global-data section every version of both formats carries.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ResourceLimits, UnsupportedFormatError
from .chunking import (
    DEFAULT_CHUNK_BYTES, ChunkRecord, ContainerIndex, FunctionRecord,
    assemble_sparse, chunk_payload, pack_chunks, read_header, read_index,
    read_span, write_container,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ChunkRecord",
    "ContainerIndex",
    "FunctionRecord",
    "assemble_sparse",
    "chunk_payload",
    "container_index",
    "container_kind",
    "decode_range_bytes",
    "pack_chunks",
    "read_header",
    "read_index",
    "read_span",
    "verify",
    "write_container",
]


def container_kind(blob: bytes) -> str:
    """``"wire"`` or ``"brisc"``, by magic; typed error otherwise."""
    if blob[:3] == b"WIR":
        return "wire"
    if blob[:3] == b"BRI":
        return "brisc"
    raise UnsupportedFormatError(
        f"unrecognized container magic {blob[:4]!r}")


def _format(blob: bytes):
    """The format module that decodes ``blob``."""
    if container_kind(blob) == "wire":
        from ..wire import format as wire_format

        return wire_format
    from ..brisc import encode as brisc_encode

    return brisc_encode


def container_index(blob: bytes,
                    limits: Optional[ResourceLimits] = None) -> ContainerIndex:
    """Parse the block index of a seekable container (either format)."""
    return _format(blob).container_index(blob, limits)


def decode_range_bytes(blob: bytes, start: int, length: int,
                       limits: Optional[ResourceLimits] = None) -> bytes:
    """``decode_range`` for either format (see the format modules)."""
    return _format(blob).decode_range(blob, start, length, limits)


def verify(blob: bytes, function: Optional[str] = None) -> str:
    """Integrity-check a container of either format; returns a one-line
    description of what decoded.

    With ``function`` only the chunks covering that function are read,
    so a sparse container from ``fetch`` verifies.  Failures raise the
    decoders' typed :class:`~repro.errors.DecodeError` subclasses.
    """
    fmt = _format(blob)
    label = "wire" if container_kind(blob) == "wire" else "BRISC"
    if function is not None:
        fn = fmt.decode_function(blob, function)
        return f"{label} function {fn.name!r}"
    if label == "wire":
        return f"wire module {fmt.decode_module(blob).name!r}"
    return f"BRISC image, {len(fmt.decode_image(blob).functions)} functions"
