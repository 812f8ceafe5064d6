"""The toolchain's one error root, its four families, and decoder limits.

The paper's representations exist to be *shipped*: wire blobs stream over
28.8k modems, BRISC images demand-page from disk and JIT on arrival.  A
receiver therefore decodes, compiles and runs input it does not control,
and every failure the toolchain raises on purpose is a
:class:`ReproError`, never a leaked ``struct.error``, ``IndexError`` or a
silent wrong answer.  Each family names itself in a ``taxonomy`` class
attribute: :class:`DecodeError` (``decode``), :class:`ServiceError`
(``service``), :class:`CompileError` (``compile``, including the back
end's :class:`CodegenError`) and :class:`VMError` (``run``); anything
outside the root is ``internal``.  ``outcome`` is the service metrics'
label and ``retryable`` / ``retry_after`` a client's hints, so the
service and the CLI read attributes instead of re-classifying.

Compatibility: the concrete decode classes double-inherit from the
built-in exception a pre-taxonomy caller would have seen (``ValueError``
for malformed content, ``EOFError`` for exhausted buffers), the same trick
the stdlib uses for ``json.JSONDecodeError(ValueError)`` — existing
``except ValueError`` / ``except EOFError`` call sites keep working while
new code catches :class:`DecodeError` alone.

:class:`ResourceLimits` bounds what a decoder will allocate on behalf of a
blob (stream counts, symbol counts, decoded bytes), so a forged length
field raises :class:`ResourceLimitError` instead of ballooning memory.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # repro.cfront imports this module
    from .cfront.errors import Location

__all__ = [
    "ReproError",
    "DecodeError",
    "CorruptStreamError",
    "TruncatedStreamError",
    "UnsupportedFormatError",
    "ResourceLimitError",
    "ResourceLimits",
    "DEFAULT_LIMITS",
    "decode_guard",
    "ServiceError",
    "DeadlineExceededError",
    "OverloadedError",
    "CircuitOpenError",
    "CancelledWorkError",
    "CompileError",
    "CodegenError",
    "VMError",
]


class ReproError(Exception):
    """Root of every failure the toolchain raises on purpose.

    ``retryable`` tells a client whether re-sending the same request later
    can succeed; ``retry_after`` (seconds, optional) is the server's hint
    for how long to wait first.  The root itself names no family.
    """

    taxonomy = "internal"
    outcome = "internal_error"
    retryable = False
    retry_after: Optional[float] = None


class DecodeError(ReproError):
    """The decode family: anything a decoder raises because of the *input
    bytes* (rather than a bug or an environmental failure)."""

    taxonomy = "decode"
    outcome = "decode_error"


class CorruptStreamError(DecodeError, ValueError):
    """The input is structurally invalid: a CRC mismatch, an impossible
    count, an out-of-range index, an invalid Huffman code..."""


class TruncatedStreamError(CorruptStreamError, EOFError):
    """The input ends before the structure it promised (a cut-off
    download); a special case of corruption worth distinguishing because
    streaming callers may retry with more data."""


class UnsupportedFormatError(DecodeError, ValueError):
    """The container is recognizably *not for this decoder*: wrong magic
    or a format version newer than we speak."""


class ResourceLimitError(DecodeError, ValueError):
    """Decoding would exceed the configured resource budget; raised before
    the offending allocation happens."""


@dataclass(frozen=True)
class ResourceLimits:
    """Ceilings a decoder enforces against attacker-controlled counts.

    The defaults are an order of magnitude above anything the benchmark
    corpus produces, so real artifacts never trip them, while a forged
    32-bit count fails fast instead of allocating gigabytes.
    """

    max_streams: int = 4096          # entries in a multi-stream container
    max_symbols: int = 1 << 24       # symbols per entropy-coded stream
    max_alphabet: int = 1 << 20      # Huffman code-length table entries
    max_decoded_bytes: int = 1 << 28 # total bytes a container may expand to
    max_name_bytes: int = 1 << 16    # any single name/string field
    max_patterns: int = 1 << 20      # dictionary entries in a BRISC image
    max_functions: int = 1 << 18     # functions per module/image

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 1:
                raise ValueError(f"{name} must be positive")

    def check(self, what: str, value: int, bound: int) -> None:
        """Raise :class:`ResourceLimitError` when ``value`` exceeds ``bound``."""
        if value > bound:
            raise ResourceLimitError(
                f"{what} {value} exceeds the limit of {bound}")


DEFAULT_LIMITS = ResourceLimits()


class ServiceError(ReproError):
    """The service family: the long-lived front end (:mod:`repro.service`)
    refused or abandoned a request."""

    taxonomy = "service"
    outcome = "service_error"


class DeadlineExceededError(ServiceError):
    """The request's deadline elapsed before the pipeline finished; the
    in-flight work was cancelled.  Not retryable as-is — the same request
    with the same deadline will most likely time out again."""

    outcome = "deadline"


class OverloadedError(ServiceError):
    """Load shedding: the admission queue was full, so the request was
    rejected *before* consuming pipeline resources.  Always retryable."""

    outcome = "shed"
    retryable = True

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ServiceError):
    """The per-unit circuit breaker is open after repeated failures;
    the request was rejected without running.  Retryable once the breaker
    half-opens (``retry_after`` seconds)."""

    outcome = "breaker_open"
    retryable = True

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CancelledWorkError(ServiceError):
    """Cooperative cancellation fired between pipeline stages — the
    request's deadline passed or the server began draining while the
    unit was still compiling.  Retryable: finished stages stay cached,
    so a retry resumes where the cancelled attempt stopped."""

    outcome = "cancelled"
    retryable = True


class CompileError(ReproError):
    """The compile family: the source cannot be compiled.  The front end
    raises it for lexical, syntactic and semantic errors, at the source
    ``location`` when one is known; the back end raises its subclass."""

    taxonomy = "compile"
    outcome = "compile_error"

    def __init__(self, message: str,
                 location: Optional["Location"] = None) -> None:
        self.message = message
        self.location = location
        prefix = f"{location}: " if location else ""
        super().__init__(f"{prefix}{message}")


class CodegenError(CompileError):
    """The back end cannot translate a tree (e.g. register pressure)."""


class VMError(ReproError):
    """The run family: any runtime fault (bad memory access, bad opcode,
    step overrun) of the VM or of BRISC interpreted in place."""

    taxonomy = "run"
    outcome = "run_error"


# Exceptions a decode boundary converts into the typed taxonomy.  TypeError
# and arithmetic errors are included deliberately: a malformed blob can
# steer well-typed reader code into any of these, and the contract is that
# *no* untyped exception escapes a decoder.
_UNTYPED = (
    ValueError, KeyError, IndexError, TypeError, OverflowError,
    ZeroDivisionError, UnicodeDecodeError, struct.error,
)


@contextmanager
def decode_guard(what: str = "container"):
    """Convert stray exceptions at a decode boundary into typed errors.

    Targeted bounds checks inside the readers produce the precise error;
    this guard is the backstop that upholds the "only ``DecodeError``
    escapes a decoder" contract even for paths those checks miss.
    ``DecodeError`` passes through untouched.
    """
    try:
        yield
    except DecodeError:
        raise
    except EOFError as exc:
        raise TruncatedStreamError(f"truncated {what}: {exc}") from exc
    except _UNTYPED as exc:
        raise CorruptStreamError(
            f"corrupt {what}: {type(exc).__name__}: {exc}") from exc
