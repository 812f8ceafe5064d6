"""The Toolchain facade: staged compilation, caching, batch parallelism.

``Toolchain().compile(source)`` replaces the ad-hoc
``lower_unit(compile_to_ast(...))`` + ``generate_program(...)`` chains
that every entry point used to re-wire by hand.  Artifacts are
content-addressed (SHA-256 chained over source, unit name, stage name,
and stage configuration), so recompiling an unchanged unit is a cache
hit at every stage.  ``compile_many`` fans a corpus out over a process
pool with deterministic result ordering and per-unit error isolation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..cfront import CompileError
from ..errors import CancelledWorkError
from .artifacts import Artifact, BatchItem, CompilationResult
from .cache import ArtifactCache, DiskCache, MemoryCache, TieredCache
from .config import PipelineConfig
from .stages import STAGES, resolve_stages

__all__ = ["SCHEMA_VERSION", "BuilderStats", "StageStats", "Toolchain"]

#: Bump to invalidate every cached artifact (on-disk entries included)
#: whenever a stage's output format changes incompatibly.
SCHEMA_VERSION = "2"  # "2": wire/BRISC containers grew version+CRC framing

#: Failures that mean "this host cannot run a process pool at all"
#: (sandboxes without semaphores, missing _multiprocessing, ...).
_POOL_UNAVAILABLE = (OSError, PermissionError, ImportError)


@dataclass
class StageStats:
    """Per-stage accounting across a toolchain's lifetime.

    ``replays`` counts the subset of ``runs`` served by the incremental
    delta compiler (:mod:`repro.pipeline.incremental`) instead of the
    cold stage; ``hit_rate`` is cache hits over total requests.
    """

    runs: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    bytes_out: int = 0
    replays: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.runs + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"runs": self.runs, "cache_hits": self.cache_hits,
                "seconds": self.seconds, "bytes": self.bytes_out,
                "replays": self.replays,
                "hit_rate": round(self.hit_rate, 6)}


@dataclass
class BuilderStats:
    """BRISC dictionary-builder accounting across a toolchain's lifetime.

    Aggregated from the per-pass counters the brisc stage records in its
    artifact meta (cache hits contribute nothing — no build ran).
    """

    builds: int = 0
    passes: int = 0
    candidates: int = 0
    admitted: int = 0
    seconds: float = 0.0

    def note(self, meta: Dict[str, Any]) -> None:
        pass_rows = meta.get("builder_passes")
        if pass_rows is None:  # artifact predates the per-pass counters
            return
        self.builds += 1
        self.passes += len(pass_rows)
        self.candidates += sum(p["candidates"] for p in pass_rows)
        self.admitted += sum(p["admitted"] for p in pass_rows)
        self.seconds += meta.get("builder_seconds", 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {"builds": self.builds, "passes": self.passes,
                "candidates": self.candidates, "admitted": self.admitted,
                "seconds": self.seconds}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Toolchain:
    """Compiles translation units through the staged pipeline.

    ``disk_cache=True`` (or a ``cache_dir``) layers an on-disk backend
    under the in-memory LRU so artifacts survive the process; a custom
    ``cache`` overrides both.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        cache: Optional[ArtifactCache] = None,
        disk_cache: bool = False,
        cache_dir=None,
        capacity: int = 512,
    ) -> None:
        self.config = config or PipelineConfig()
        if cache is None:
            memory = MemoryCache(capacity)
            if disk_cache or cache_dir is not None:
                cache = TieredCache(memory, DiskCache(cache_dir))
            else:
                cache = memory
        self.cache = cache
        self._stats: Dict[str, StageStats] = {
            s.name: StageStats() for s in STAGES
        }
        self._builder_stats = BuilderStats()
        # Stats mutation happens on whichever thread runs the compile —
        # the service front end shares one toolchain across concurrent
        # request threads, so every counter update takes this lock.
        self._stats_lock = threading.Lock()

    # -- single-unit compilation ------------------------------------------

    def stage_keys(
        self,
        source: str,
        name: str = "<input>",
        stages: Optional[Sequence[str]] = None,
        config: Optional[PipelineConfig] = None,
    ) -> Dict[str, str]:
        """The content-addressed cache keys :meth:`compile` would use for
        ``source``, without compiling anything."""
        config = config or self.config
        base_key = _digest(f"{SCHEMA_VERSION}|{name}|{source}")
        keys: Dict[str, str] = {}
        for stage in resolve_stages(stages):
            parent = (base_key if stage.requires is None
                      else keys[stage.requires])
            keys[stage.name] = _digest(
                f"{parent}|{stage.name}|{stage.config_fragment(config)}")
        return keys

    def compile(
        self,
        source: str,
        name: str = "<input>",
        stages: Optional[Sequence[str]] = None,
        config: Optional[PipelineConfig] = None,
        cancel: Optional[Callable[[], bool]] = None,
        prev: Optional[CompilationResult] = None,
    ) -> CompilationResult:
        """Run ``source`` through the selected stages (all by default).

        Upstream dependencies of a requested stage run (or hit cache)
        automatically.  Raises :class:`repro.cfront.CompileError` on
        front-end errors, and on a source nested too deeply for a stage's
        recursion.

        ``cancel``, when given, is polled before each stage; once it
        returns true the compile raises
        :class:`repro.errors.CancelledWorkError` instead of starting the
        next stage.  This is how the service front end makes a deadline
        actually stop pipeline work instead of merely abandoning the
        thread (already-finished stages stay cached, so a retry resumes
        where the cancelled attempt left off).

        ``prev`` — a previous :class:`CompilationResult` for the same
        unit — switches cache misses to **delta mode**: per-function
        stage outputs are derived from the previous build wherever the
        function's lowered code is unchanged, and fall back to the cold
        stage elsewhere (see :mod:`repro.pipeline.incremental`).  Cache
        keys are unchanged, so delta-derived artifacts are
        interchangeable with cold ones.
        """
        config = config or self.config
        selected = resolve_stages(stages)
        keys = self.stage_keys(source, name, stages, config)
        delta = None
        if prev is not None:
            from .incremental import DeltaCompiler

            delta = DeltaCompiler(prev, config)
        artifacts: Dict[str, Artifact] = {}
        for stage in selected:
            if cancel is not None and cancel():
                raise CancelledWorkError(
                    f"compile of {name!r} cancelled before stage "
                    f"{stage.name!r}")
            key = keys[stage.name]
            stats = self._stats[stage.name]
            cached = self.cache.get(key)
            if cached is not None:
                with self._stats_lock:
                    stats.cache_hits += 1
                artifacts[stage.name] = replace(cached, from_cache=True)
                continue
            upstream = (source if stage.requires is None
                        else artifacts[stage.requires].payload)
            t0 = time.perf_counter()
            try:
                derived = (delta.derive(stage, upstream, name, config)
                           if delta is not None else None)
                if derived is not None:
                    payload, size, meta = derived
                else:
                    payload, size, meta = stage.run(upstream, name, config)
            except RecursionError:
                # The recursive stages walk one frame per nesting level.
                raise CompileError(f"{name}: source nests too deeply for "
                                   f"the {stage.name} stage") from None
            dt = time.perf_counter() - t0
            artifact = Artifact(stage=stage.name, unit=name, key=key,
                                payload=payload, size=size, seconds=dt,
                                meta=meta)
            with self._stats_lock:
                stats.runs += 1
                stats.seconds += dt
                stats.bytes_out += size
                if derived is not None:
                    stats.replays += 1
                if stage.name == "brisc":
                    self._builder_stats.note(meta)
            self.cache.put(key, artifact)
            artifacts[stage.name] = artifact
        return CompilationResult(unit=name, source=source,
                                 artifacts=artifacts, config=config)

    # -- batch compilation ------------------------------------------------

    def compile_many(
        self,
        units: Iterable[Tuple[str, str]],
        workers: Optional[int] = None,
        stages: Optional[Sequence[str]] = None,
        config: Optional[PipelineConfig] = None,
        timeout: Optional[float] = None,
    ) -> List[BatchItem]:
        """Compile ``(name, source)`` units, optionally in parallel.

        Results come back in input order regardless of completion order.
        A unit that fails with :class:`CompileError` yields a
        :class:`BatchItem` carrying the error; the rest of the batch is
        unaffected.  ``workers`` <= 1 (or ``None``) compiles serially;
        higher values use a :class:`ProcessPoolExecutor`, falling back to
        serial execution where process pools are unavailable.  Worker
        artifacts are folded back into this toolchain's cache and stats.

        Resilience: ``timeout`` bounds the seconds one unit may take in a
        worker — an overdue unit becomes an error item (``error_type``
        ``"Timeout"``) instead of stalling the batch.  If the pool dies
        underneath the batch (a worker killed by the OS), the unfinished
        units get one fresh pool; after a second death they finish on the
        serial path, which cannot enforce ``timeout``.
        """
        unit_list = [(str(name), source) for name, source in units]
        if workers is not None and workers > 1 and unit_list:
            try:
                return self._compile_parallel(unit_list, workers, stages,
                                              config, timeout)
            except _POOL_UNAVAILABLE:
                pass  # no process support (sandbox, missing semaphores)
        return [self._serial_item(i, name, source, stages, config)
                for i, (name, source) in enumerate(unit_list)]

    def _serial_item(self, index, name, source, stages, config) -> BatchItem:
        t0 = time.perf_counter()
        try:
            result = self.compile(source, name=name, stages=stages,
                                  config=config)
            return BatchItem(index=index, unit=name, result=result,
                             seconds=time.perf_counter() - t0)
        except CompileError as exc:
            return BatchItem(index=index, unit=name, error=str(exc),
                             error_type=type(exc).__name__,
                             seconds=time.perf_counter() - t0)

    def _compile_parallel(self, unit_list, workers, stages, config,
                          timeout) -> List[BatchItem]:
        config = config or self.config
        stage_names = tuple(stages) if stages is not None else None
        items: Dict[int, BatchItem] = {}
        pending = list(enumerate(unit_list))
        # First pool, plus one fresh pool after a transient worker death or
        # a timed-out (possibly wedged) worker.
        for _ in range(2):
            if not pending:
                break
            pending = self._pool_pass(pending, workers, stage_names, config,
                                      timeout, items)
        for index, (name, source) in pending:  # degraded: finish serially
            items[index] = self._serial_item(index, name, source, stage_names,
                                             config)
        return [items[index] for index in sorted(items)]

    def _pool_pass(self, pending, workers, stage_names, config, timeout,
                   items) -> List[Tuple[int, Tuple[str, str]]]:
        """Run one pool over ``pending`` units, recording finished items.

        Returns the units still owed a result because the pool broke or a
        unit timed out (the timed-out unit itself is recorded as an error
        and not returned — its worker may be wedged for good).
        """
        remaining = dict(pending)
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                index: pool.submit(_compile_worker, name, source, config,
                                   stage_names)
                for index, (name, source) in pending
            }
            for index, (name, _) in pending:
                try:
                    outcome = futures[index].result(timeout=timeout)
                except FutureTimeout:
                    items[index] = BatchItem(
                        index=index, unit=name,
                        error=f"unit exceeded the {timeout}s timeout",
                        error_type="Timeout", seconds=float(timeout))
                    del remaining[index]
                    return sorted(remaining.items())
                except BrokenProcessPool:
                    return sorted(remaining.items())
                self._fold_outcome(index, name, outcome, items)
                del remaining[index]
        except BrokenProcessPool:  # died during submission
            return sorted(remaining.items())
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return []

    def _fold_outcome(self, index, name, outcome, items) -> None:
        """Record one worker outcome, folding artifacts into our cache."""
        if outcome[0] == "ok":
            _, result, worker_stats, seconds = outcome
            for artifact in result.artifacts.values():
                if artifact.stage == "brisc" and not artifact.from_cache:
                    with self._stats_lock:
                        self._builder_stats.note(artifact.meta)
                self.cache.put(artifact.key, artifact)
            with self._stats_lock:
                for stage_name, stat in worker_stats.items():
                    mine = self._stats.setdefault(stage_name, StageStats())
                    mine.runs += stat["runs"]
                    mine.cache_hits += stat["cache_hits"]
                    mine.seconds += stat["seconds"]
                    mine.bytes_out += stat["bytes"]
                    mine.replays += stat.get("replays", 0)
            items[index] = BatchItem(index=index, unit=name, result=result,
                                     seconds=seconds)
        else:
            _, error_type, message, seconds = outcome
            items[index] = BatchItem(index=index, unit=name, error=message,
                                     error_type=error_type, seconds=seconds)

    # -- stats ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Per-stage runs/hits/seconds/bytes plus cache hit counters, the
        BRISC builder's aggregated per-pass accounting, and cross-stage
        totals (with the overall hit rate)."""
        with self._stats_lock:
            runs = sum(s.runs for s in self._stats.values())
            hits = sum(s.cache_hits for s in self._stats.values())
            return {
                "stages": {
                    name: s.as_dict() for name, s in self._stats.items()
                },
                "cache": self.cache.stats(),
                "brisc_builder": self._builder_stats.as_dict(),
                "totals": {
                    "runs": runs,
                    "cache_hits": hits,
                    "replays": sum(s.replays for s in self._stats.values()),
                    "seconds": sum(s.seconds for s in self._stats.values()),
                    "hit_rate": round(hits / (runs + hits), 6)
                                if runs + hits else 0.0,
                },
            }

    def reset_stats(self) -> None:
        with self._stats_lock:
            for name in self._stats:
                self._stats[name] = StageStats()
            self._builder_stats = BuilderStats()


def _compile_worker(name: str, source: str, config: PipelineConfig,
                    stage_names: Optional[Tuple[str, ...]]):
    """Process-pool entry: compile one unit in a fresh toolchain.

    Returns a picklable tagged tuple so a unit's ``CompileError`` never
    aborts the batch (exception classes with rich constructor arguments
    do not survive the pickle round-trip reliably).
    """
    toolchain = Toolchain(config=config)
    t0 = time.perf_counter()
    try:
        result = toolchain.compile(source, name=name, stages=stage_names)
    except CompileError as exc:
        return ("error", type(exc).__name__, str(exc),
                time.perf_counter() - t0)
    stage_stats = toolchain.stats()["stages"]
    return ("ok", result, stage_stats, time.perf_counter() - t0)
