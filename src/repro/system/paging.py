"""Paging/working-set model: the paper's memory-bottleneck scenario.

The introduction's motivating measurements: "we have seen the CPU idle for
most of the time during paging, so compressing pages can increase total
performance even though the CPU must decompress or interpret the page
contents.  Another profile shows that many functions are called just once,
so reduced paging could pay for their interpretation overhead."

The model: a program has N code pages; a fraction of its functions is
cold (touched once).  Total time = CPU execution time + page-fault stalls.
Storing code compressed shrinks the number of pages to fault in; the price
is an interpretation multiplier on the instructions executed from
compressed pages.  :func:`paging_run` computes both sides so benchmarks
can locate the crossover the paper claims.

The fetch unit need not be a uniform ``PAGE_SIZE`` guess: the seekable v3
containers (:mod:`repro.container`) demand-fetch whole *chunks*, whose
sizes a :class:`~repro.container.ContainerIndex` reports exactly.  Pass
those measured sizes as ``native_chunks``/``compressed_chunks`` and each
fault costs one service time plus the chunk's transfer time, so the model
runs on the distribution the container actually ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["PagingConfig", "PagingResult", "chunk_faults", "paging_run",
           "working_set_pages"]

PAGE_SIZE = 4096


@dataclass
class PagingConfig:
    """Machine and workload parameters for the model."""

    page_size: int = PAGE_SIZE
    fault_seconds: float = 0.010       # disk page-fault service time (HDD era)
    cpu_seconds_per_instr: float = 1e-8
    interp_slowdown: float = 12.0      # the paper's measured BRISC penalty
    cold_fraction: float = 0.6         # fraction of code executed only once
    transfer_bytes_per_second: float = 4_000_000.0  # HDD-era streaming rate


@dataclass
class PagingResult:
    """Time breakdown for one storage strategy."""

    strategy: str
    pages_faulted: int
    fault_seconds: float
    cpu_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.fault_seconds + self.cpu_seconds


def working_set_pages(code_bytes: int, page_size: int = PAGE_SIZE) -> int:
    """Pages needed to hold ``code_bytes`` of code."""
    return (code_bytes + page_size - 1) // page_size


def chunk_faults(chunks: Sequence[int],
                 config: PagingConfig = PagingConfig()) -> Tuple[int, float]:
    """(faults, stall seconds) to demand-fetch every chunk in ``chunks``.

    Each chunk is one fault: a fixed service time (seek/interrupt) plus
    its bytes at the device's streaming rate — so many small chunks pay
    in seeks, few large ones in transfer, exactly the trade-off the chunk
    cap of :func:`~repro.container.pack_chunks` sets.
    """
    for size in chunks:
        if size < 0:
            raise ValueError(f"chunk sizes must be >= 0, got {size}")
    stall = (len(chunks) * config.fault_seconds
             + sum(chunks) / config.transfer_bytes_per_second)
    return len(chunks), stall


def _faults(code_bytes: int, chunks: Optional[Sequence[int]],
            config: PagingConfig) -> Tuple[int, float]:
    """One strategy's fault count and stall time.

    With a measured chunk list, fetch units are the chunks themselves;
    without one, fall back to the uniform-page approximation (flat
    service time per page, as the original model assumed).
    """
    if chunks is not None:
        return chunk_faults(chunks, config)
    pages = working_set_pages(code_bytes, config.page_size)
    return pages, pages * config.fault_seconds


def _split_chunks(chunks: Sequence[int],
                  hot_fraction: float) -> Tuple[list, list]:
    """(hot prefix, cold suffix) splitting at ``hot_fraction`` of bytes.

    The model assumes a placement that lays hot chunks first, so the
    prefix is the hot working set.
    """
    target = sum(chunks) * hot_fraction
    acc = 0.0
    for i, size in enumerate(chunks):
        if acc >= target:
            return list(chunks[:i]), list(chunks[i:])
        acc += size
    return list(chunks), []


def paging_run(
    native_bytes: int,
    compressed_bytes: int,
    instructions_executed: int,
    config: PagingConfig = PagingConfig(),
    native_chunks: Optional[Sequence[int]] = None,
    compressed_chunks: Optional[Sequence[int]] = None,
) -> Dict[str, PagingResult]:
    """Model one cold-start run under three storage strategies.

    * ``native``: all pages faulted in as native code; CPU runs at 1x.
    * ``compressed-interpreted``: compressed pages faulted; every
      instruction pays the interpretation slowdown.
    * ``hybrid``: hot code (executed more than once) is kept native; the
      cold fraction stays compressed and is interpreted in place — the
      paper's "many functions are called just once" design point.

    ``native_chunks``/``compressed_chunks`` replace the uniform-page
    guess with a measured fetch-unit distribution (e.g. the chunk
    lengths of a v3 container index); either may be omitted to keep the
    page approximation for that side.
    """
    cpu_native = instructions_executed * config.cpu_seconds_per_instr
    native_faults, native_stall = _faults(
        native_bytes, native_chunks, config)
    compressed_faults, compressed_stall = _faults(
        compressed_bytes, compressed_chunks, config)

    results: Dict[str, PagingResult] = {}
    results["native"] = PagingResult(
        strategy="native",
        pages_faulted=native_faults,
        fault_seconds=native_stall,
        cpu_seconds=cpu_native,
    )
    results["compressed-interpreted"] = PagingResult(
        strategy="compressed-interpreted",
        pages_faulted=compressed_faults,
        fault_seconds=compressed_stall,
        cpu_seconds=cpu_native * config.interp_slowdown,
    )
    # Hybrid: cold code stays compressed (and contributes its compressed
    # fetch units + interpreted execution); hot code is native.  Cold
    # code executes only once, so its instruction share is far below its
    # byte share; approximate its dynamic share as cold_fraction * 5% of
    # executed instructions.
    cold = config.cold_fraction
    if native_chunks is not None:
        hot_native, _ = _split_chunks(native_chunks, 1 - cold)
        hot_faults, hot_stall = chunk_faults(hot_native, config)
    else:
        hot_faults, hot_stall = _faults(
            int(native_bytes * (1 - cold)), None, config)
    if compressed_chunks is not None:
        _, cold_compressed = _split_chunks(compressed_chunks, 1 - cold)
        cold_faults, cold_stall = chunk_faults(cold_compressed, config)
    else:
        cold_faults, cold_stall = _faults(
            int(compressed_bytes * cold), None, config)
    cold_dynamic_share = cold * 0.05
    cpu_hybrid = cpu_native * (
        (1 - cold_dynamic_share) + cold_dynamic_share * config.interp_slowdown
    )
    results["hybrid"] = PagingResult(
        strategy="hybrid",
        pages_faulted=hot_faults + cold_faults,
        fault_seconds=hot_stall + cold_stall,
        cpu_seconds=cpu_hybrid,
    )
    return results
