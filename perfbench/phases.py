"""The four closed-loop phases every benchmark run executes.

Each phase runs in its own fresh process (``phase.py``): the BRISC
builder keeps process-global size caches (``brisc/pattern.py``) that
outlive a ``Toolchain``, so a reused process would time a pre-warmed
builder.  A phase prepares its inputs, runs a fixed, seed-determined
number of ops in one timed window, then checks the outputs outside that
window and outside the trace.

* ``cold-build``: one client compiles seeded generated units, each
  through all six stages on a fresh ``Toolchain`` and a cold builder;
  the BRISC builder does nearly all the work.
* ``edit-loop``: one client recompiles a journaled build after
  same-width literal edits with ``compile(prev=)`` — BRISC journal
  replay and function splicing instead of the greedy search.
* ``wire-serve``: a ``CompressionService`` in its own process answers
  ``wire`` and ``fetch_function`` requests from two connections; no
  BRISC work at all.
* ``run-image``: compiled samples and generated programs run on the
  VM, on BRISC in place with and without the decode cache, through the
  JIT, and are unpacked back to VM programs; no compilation.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR, GOLDEN, WORKLOADS, calibrate, calibration_sample,
    clear_builder_caches, draw_units, edit_literal, function_names,
    host_factor, iter_units, percentile, phase_rng, scaled,
)

#: edit-loop: "a few seeded units" are edited in turn, all of the
#: band's smallest size: edit time grows with the unit (the parse stage
#: reruns the whole unit), so mixed sizes would split the edit times into
#: one cluster per size and the median would jump between them.
EDIT_UNITS = 2
#: wire-serve: requests per nominal run, split over the two connections.
#: One request in MISS_EVERY of a connection is a unit the server has
#: never seen.  A miss costs 100-300 ms against 1-6 ms for a hit, so with
#: a 2 % miss share the slowest 2 % of requests are the misses and p99 is
#: about their median; 1000 requests leave 10 beyond p99.
REQUESTS = 1000
MISS_EVERY = 50
#: wire-serve traffic shape.  The repository holds no traffic data, so
#: these are assumptions: popularity over the warmed pool follows the
#: plain Zipf law (rank r drawn with weight 1/r) and half of the pool
#: requests are ``fetch_function``.  The pool, plus every miss of a run,
#: fits in the service's 512-entry memory cache, so every pool request
#: is a hit.
ZIPF_S = 1.0
FETCH_SHARE = 0.5
POOL = 6
#: wire-serve: between blocks, the service process and then the client
#: calibrate for this long each, about a tenth of a block.
SERVER_PAUSE_S = 0.05
#: run-image: "a few seeded generated programs", of the band's smallest
#: size, join the 14 samples.  Rounds over every program per pass in a
#: nominal run, so that each pass takes 1-3 s: a JIT compile takes about
#: 2 ms and an unpack 10 ms, against 10-500 ms for a run.  The two
#: samples above 500 k steps skip the uncached pass.
GENERATED_PROGRAMS = 2
PASS_ROUNDS = {"vm": 1, "interp": 1, "nocache": 1, "jit": 40, "unpack": 8}
NOCACHE_SKIP = frozenset({"life", "queens"})
MAX_STEPS = 5_000_000
#: Host calibration (``common.host_factor``).  The host this benchmark was
#: built on slows down in bursts of 0.5-2 s every few seconds, partly per
#: core, so samples are taken on the thread doing the work, close to each
#: op.  In the single-threaded phases a timer interrupts the work every
#: SAMPLE_PERIOD_S for one sample (its time is taken out of the op it
#: interrupts), and an op's host factor comes from every sample taken
#: from FACTOR_MARGIN_S before the op to FACTOR_MARGIN_S after it.
#: wire-serve runs its requests in blocks and calibrates in pauses of
#: SERVER_PAUSE_S between them.
SAMPLE_PERIOD_S = 0.05
FACTOR_MARGIN_S = 0.2
STARTUP_PAUSE_S = 0.05
#: run-image: unpacked programs at most this long are run on the VM as a
#: check; longer ones are checked by code-byte identity alone.
UNPACK_RUN_MAX_STEPS = 100_000


class Ctx:
    """One phase's seeded inputs, run length, op accounting and tracer."""

    def __init__(self, repro, phase: str, workload: str, seed: int,
                 seconds: float, tracer) -> None:
        self.repro = repro
        self.phase = phase
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.window_s = 0.0
        #: Seconds of the timed window spent calibrating.
        self.paused_s = 0.0
        #: ``(start, seconds)`` of every calibration sample.
        self.samples: List[tuple] = []
        #: The sample seconds of every pause, in order.
        self.pauses: List[List[float]] = []
        #: ``(start, seconds)`` of the samples taken inside ops.
        self.interrupts: List[tuple] = []
        self._lock = threading.Lock()

    def rng(self, salt: str = ""):
        return phase_rng(self.workload, self.phase, self.seed, salt)

    def count(self, nominal: int) -> int:
        return scaled(nominal, self.seconds)

    def pause(self, seconds: float) -> None:
        """Calibrate for ``seconds`` between ops, off the clock."""
        t0 = time.perf_counter()
        samples = calibrate(seconds)
        self.paused_s += time.perf_counter() - t0
        self.samples += samples
        self.pauses.append([d for _, d in samples])

    @contextlib.contextmanager
    def sampling(self, on: bool):
        """Around the timed window: when ``on``, an interval timer
        interrupts the op every SAMPLE_PERIOD_S and a calibration sample
        runs in its signal handler — on the op's own thread, so on the
        core the op runs on."""
        if not on:
            yield
            return
        taken: List[tuple] = []

        def sample(signum, frame) -> None:
            start = time.perf_counter()
            taken.append((start, calibration_sample()))

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not taken:  # a window shorter than one period
                taken = calibrate(0.0)
            self.samples += taken
            self.paused_s += sum(d for _, d in taken)
            self.interrupts = taken

    def op_time(self, t0: float, t1: float) -> tuple:
        """``(seconds, host factor)`` of the op timed from ``t0`` to
        ``t1``: the samples that interrupted it taken out of its time, and
        :func:`host_factor` of the samples near it."""
        inside = sum(min(s + d, t1) - s for s, d in self.interrupts
                     if t0 <= s < t1)
        near = [d for s, d in self.samples
                if t0 - FACTOR_MARGIN_S <= s <= t1 + FACTOR_MARGIN_S]
        return t1 - t0 - inside, host_factor(
            near or [d for _, d in self.samples])

    def op(self, index: int):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op_span(index)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# cold-build
# ---------------------------------------------------------------------------


class ColdBuild:
    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.built: List[tuple] = []

    def setup(self) -> None:
        ctx = self.ctx
        self.units = draw_units(ctx.repro, ctx.rng(), ctx.workload,
                                ctx.count(WORKLOADS[ctx.workload]["cold_units"]))

    def run(self) -> None:
        ctx = self.ctx
        for index, (name, source) in enumerate(self.units):
            clear_builder_caches(ctx.repro)
            ctx.attempt()
            with ctx.op(index):
                t0 = time.perf_counter()
                try:
                    result = ctx.repro.pipeline.Toolchain().compile(
                        source, name=name)
                except Exception as exc:  # a typed compile error fails the op
                    result = None
                    ctx.fail(f"{name}: {type(exc).__name__}: {exc}")
                t1 = time.perf_counter()
            self.built.append((name, source, result, t0, t1))

    def finish(self) -> Dict[str, Any]:
        ctx, repro = self.ctx, self.ctx.repro
        ok = [unit for unit in self.built if unit[2] is not None]
        kb = [len(src.encode()) / 1000 for _, src, _, _, _ in ok]
        timed = [ctx.op_time(t0, t1) for _, _, _, t0, t1 in ok]
        raw = [dt for dt, _ in timed]
        seconds = [dt * f for dt, f in timed]
        sparc, pentium = repro.native.SparcLike(), repro.native.PentiumLike()
        wire = native_sparc = brisc = native_pentium = 0
        passes = candidates = admitted = 0
        wire_ratios, brisc_ratios = [], []
        for name, _, result, _, _ in ok:
            w = result.artifact("wire").meta["code_size"]
            b = result.artifact("brisc").meta["code_segment"]
            ns = sparc.program_size(result.program)
            np_ = pentium.program_size(result.program)
            wire, native_sparc = wire + w, native_sparc + ns
            brisc, native_pentium = brisc + b, native_pentium + np_
            wire_ratios.append(w / ns)
            brisc_ratios.append(b / np_)
            rows = result.artifact("brisc").meta["builder_passes"]
            passes += len(rows)
            candidates += sum(r["candidates"] for r in rows)
            admitted += sum(r["admitted"] for r in rows)
            _check_representations(ctx, name, result)
        wire_ratio = _rate(wire, native_sparc)
        brisc_ratio = _rate(brisc, native_pentium)
        return {
            "ops": {"units": len(self.built)},
            "metrics": {"compile_kb_per_s": _rate(sum(kb), sum(seconds)),
                        "wire_ratio": wire_ratio, "brisc_ratio": brisc_ratio},
            "raw": {"compile_kb_per_s": _rate(sum(kb), sum(raw))},
            "samples": {"compile_kb_per_s": [k / s for k, s in
                                             zip(kb, seconds)],
                        "wire_ratio": wire_ratios,
                        "brisc_ratio": brisc_ratios},
            "counts": {"wire_ratio": wire_ratio, "brisc_ratio": brisc_ratio,
                       "brisc.build.passes": passes,
                       "brisc.build.candidates": candidates,
                       "brisc.build.admitted": admitted},
        }


def _check_representations(ctx: Ctx, name: str, result) -> None:
    """A compiled unit must run alike on the VM and on its BRISC image,
    and its wire form must regenerate the same VM code."""
    repro = ctx.repro
    try:
        ran = repro.vm.run_program(result.program, max_steps=MAX_STEPS)
        interp = repro.brisc.run_image(result.brisc.image.blob,
                                       max_steps=MAX_STEPS)
        regenerated = repro.codegen.generate_program(
            repro.wire.decode_module(result.wire_blob))
    except Exception as exc:
        ctx.fail(f"{name}: check raised {type(exc).__name__}: {exc}")
        return
    vm_code = repro.pipeline.vm_code_bytes
    if (ran.exit_code, ran.output) != (interp.exit_code, interp.output):
        ctx.fail(f"{name}: BRISC output differs from the VM")
    if vm_code(regenerated) != vm_code(result.program):
        ctx.fail(f"{name}: wire round trip changed the VM code")


# ---------------------------------------------------------------------------
# edit-loop
# ---------------------------------------------------------------------------


class EditLoop:
    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.edits: List[tuple] = []

    def setup(self) -> None:
        ctx, repro = self.ctx, self.ctx.repro
        config = repro.pipeline.PipelineConfig().with_journal()
        self.units = draw_units(repro, ctx.rng(), ctx.workload, EDIT_UNITS,
                                size=WORKLOADS[ctx.workload]["functions"][0])
        self.toolchain = repro.pipeline.Toolchain(config=config)
        self.prev = {name: self.toolchain.compile(src, name=name)
                     for name, src in self.units}
        self.current = dict(self.units)
        self.seen = set(self.current.values())
        self.edit_rng = ctx.rng("edits")
        self.total = ctx.count(WORKLOADS[ctx.workload]["edits"])

    def run(self) -> None:
        ctx = self.ctx
        for index in range(self.total):
            name = self.units[index % len(self.units)][0]
            source = edit_literal(self.edit_rng, self.current[name], self.seen)
            ctx.attempt()
            with ctx.op(index):
                t0 = time.perf_counter()
                try:
                    result = self.toolchain.compile(source, name=name,
                                                    prev=self.prev[name])
                except Exception as exc:
                    result = None
                    ctx.fail(f"{name}: {type(exc).__name__}: {exc}")
                t1 = time.perf_counter()
            if result is not None:
                self.prev[name], self.current[name] = result, source
                replayed = bool(result.artifact("brisc").meta.get("replayed"))
                self.edits.append((name, source, result.wire_blob,
                                   result.deflated, result.brisc.image.blob,
                                   t0, t1, replayed))

    def finish(self) -> Dict[str, Any]:
        ctx = self.ctx
        # Byte identity with a cold build of the edited source, on a
        # seeded sample of the edits.
        sample = ctx.rng("check").sample(range(len(self.edits)),
                                         min(1, len(self.edits)))
        for k in sorted(sample):
            name, source, wire, deflated, image, _, _, _ = self.edits[k]
            cold = ctx.repro.pipeline.Toolchain().compile(source, name=name)
            if (cold.wire_blob, cold.deflated, cold.brisc.image.blob) != (
                    wire, deflated, image):
                ctx.fail(f"edit {k} of {name}: artifacts differ from a "
                         f"cold build")
        timed = [ctx.op_time(e[5], e[6]) for e in self.edits]
        raw = [dt for dt, _ in timed]
        seconds = [dt * f for dt, f in timed]
        return {
            "ops": {"edits": self.total},
            "metrics": {
                "edit_s_p50": statistics.median(seconds) if seconds else 0.0,
                "edits_per_s": _rate(len(seconds), sum(seconds)),
            },
            "raw": {"edit_s_p50": statistics.median(raw) if raw else 0.0,
                    "edits_per_s": _rate(len(raw), sum(raw))},
            "samples": {"edit_s_p50": seconds,
                        "edits_per_s": [1 / s for s in seconds]},
            "counts": {"edits": len(self.edits),
                       "replayed": sum(1 for e in self.edits if e[7])},
        }


# ---------------------------------------------------------------------------
# wire-serve
# ---------------------------------------------------------------------------


class WireServe:
    def __init__(self, ctx: Ctx, out_dir: str) -> None:
        self.ctx = ctx
        self.out_dir = out_dir
        self.proc = None

    def setup(self) -> None:
        ctx, repro = self.ctx, self.ctx.repro
        from repro.service import ServiceClient

        pool = draw_units(repro, ctx.rng(), ctx.workload, POOL)
        functions = {name: function_names(src) for name, src in pool}
        ranked = list(pool)
        ctx.rng("rank").shuffle(ranked)
        weights = [1 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
        cmd = [sys.executable, os.path.join(BENCH_DIR, "server.py"),
               "--trace", "1" if ctx.tracer is not None else "0",
               "--out", self.out_dir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"service did not start: {line!r}")
        port = int(line.split()[1])
        self.clients = [ServiceClient(port=port, timeout=60.0)
                        for _ in range(2)]
        for name, src in pool:
            self.clients[0].wire(src, name=name)
            self.clients[0].fetch_function(src, functions[name][0], name=name)
        if ctx.tracer is not None:  # the service traces from here on
            os.kill(self.proc.pid, signal.SIGUSR1)
        self.before = self.clients[0].stats()["service"]
        per_conn = ctx.count(REQUESTS) // 2 or 1
        self.conns = [_Connection(ctx, c, self.clients[c], ranked, weights,
                                  functions, per_conn) for c in range(2)]

    def run(self) -> None:
        """Both connections in blocks of MISS_EVERY requests each (one miss
        per block), with a calibration pause before the first block and
        after each, when no request is in flight."""
        total = self.conns[0].total
        self.blocks: List[float] = []
        self._pause()
        for block, start in enumerate(range(0, total, MISS_EVERY)):
            stop = min(start + MISS_EVERY, total)
            t0 = time.perf_counter()
            threads = [threading.Thread(target=conn.run,
                                        args=(block, start, stop))
                       for conn in self.conns]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            self.blocks.append(time.perf_counter() - t0)
            self._pause()

    def _pause(self) -> None:
        """Calibrate in both processes, since a request's time is spent in
        both: first the service, for SERVER_PAUSE_S on a signal (the ping
        after it returns once the handler is done), then this process.
        One after the other, so calibration never loads both cores."""
        t0 = time.perf_counter()
        paused = self.ctx.paused_s
        os.kill(self.proc.pid, signal.SIGUSR2)
        self.clients[0].ping()
        self.ctx.pause(SERVER_PAUSE_S)
        self.ctx.paused_s = paused + time.perf_counter() - t0

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def finish(self) -> Dict[str, Any]:
        ctx, repro = self.ctx, self.ctx.repro
        after = self.clients[0].stats()["service"]
        self.clients[0].shutdown()
        for client in self.clients:
            client.close()
        out, _ = self.proc.communicate(timeout=60)
        lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        server = json.loads(lines[-1]) if lines else {}

        replies = [r for conn in self.conns for r in conn.wire_replies]
        for name, source, blob in ctx.rng("check").sample(
                replies, min(4, len(replies))):
            local = repro.pipeline.Toolchain().compile(source, name=name,
                                                       stages=("wire",))
            if local.wire_blob != blob:
                ctx.fail(f"{name}: served wire blob differs from a local "
                         f"compile")
        before_outcomes = self.before["outcomes"]
        outcomes = {k: v - before_outcomes.get(k, 0)
                    for k, v in after["outcomes"].items()}
        server_pauses = server.get("pauses", [])
        if len(server_pauses) != len(ctx.pauses):
            ctx.fail(f"service calibrated {len(server_pauses)} times, "
                     f"not {len(ctx.pauses)}")
            server_pauses = [[]] * len(ctx.pauses)
        factors = [host_factor(d for pause in ctx.pauses[k:k + 2]
                               + server_pauses[k:k + 2] for d in pause)
                   for k in range(len(self.blocks))]

        def latency(normalized):
            return [lat * 1000 * (factors[block] if normalized else 1.0)
                    for conn in self.conns for block, lat in conn.latencies]

        def metrics(normalized):
            ms = latency(normalized)
            seconds = sum(dt * (f if normalized else 1.0)
                          for dt, f in zip(self.blocks, factors))
            return {"req_per_s": _rate(len(ms), seconds),
                    "req_ms_p50": statistics.median(ms) if ms else 0.0,
                    "req_ms_p99": percentile(ms, 99) if ms else 0.0}

        ms = latency(True)
        p99 = percentile(ms, 99) if ms else 0.0
        return {
            "ops": {f"conn{c.index}": c.total for c in self.conns},
            "metrics": metrics(True),
            "raw": metrics(False),
            "samples": {"req_ms_p50": ms, "req_ms_p99": ms},
            "counts": {"requests": len(ms),
                       "beyond_p99": sum(1 for v in ms if v > p99)},
            "server": {
                "maxrss_mb": server.get("maxrss_mb", 0.0),
                "self_times": server.get("self_times", {}),
                "counts": server.get("counts", {}),
                "latency_s": (after["latency"]["seconds"]
                              - self.before["latency"]["seconds"]),
                "shed": outcomes.get("shed", 0),
                "errors": sum(v for k, v in outcomes.items()
                              if k not in ("ok", "shed")),
            },
            "layer_counts": {
                "container.transferred": sum(c.transferred
                                             for c in self.conns),
                "container.total": sum(c.container_bytes
                                       for c in self.conns)},
        }


class _Connection:
    """One closed-loop client connection with its own seeded request
    stream: Zipf picks over the warmed pool plus a steady trickle of
    never-seen units."""

    def __init__(self, ctx: Ctx, index: int, client, ranked, weights,
                 functions, total: int) -> None:
        self.ctx = ctx
        self.index = index
        self.client = client
        self.ranked = ranked
        self.weights = weights
        self.functions = functions
        self.total = total
        self.miss_at = MISS_EVERY - 1 - index * MISS_EVERY // 2
        self.rng = ctx.rng(f"conn{index}")
        self.fresh = iter_units(ctx.repro, ctx.rng(f"fresh{index}"),
                                ctx.workload)
        #: (block, seconds) per completed request
        self.latencies: List[tuple] = []
        self.wire_replies: List[tuple] = []
        self.transferred = 0
        self.container_bytes = 0

    def run(self, block: int, start: int, stop: int) -> None:
        for done in range(start, stop):
            # The two connections miss half a block apart, so their
            # misses do not contend for the service's one interpreter.
            if done % MISS_EVERY == self.miss_at:
                name, source = next(self.fresh)
                fetch = None
            else:
                name, source = self.rng.choices(self.ranked, self.weights)[0]
                fetch = (self.rng.choice(self.functions[name])
                         if self.rng.random() < FETCH_SHARE else None)
            self.ctx.attempt()
            with self.ctx.op(self.index * 1_000_000 + done):
                self._request(block, name, source, fetch)

    def _request(self, block: int, name: str, source: str,
                 fetch: Optional[str]) -> None:
        ctx = self.ctx
        try:
            t0 = time.perf_counter()
            if fetch is None:
                blob = self.client.wire(source, name=name)
            else:
                reply = self.client.fetch_function(source, fetch, name=name)
            self.latencies.append((block, time.perf_counter() - t0))
            if fetch is None:
                self.wire_replies.append((name, source, blob))
                return
            self.transferred += reply["transferred"]
            self.container_bytes += reply["total_bytes"]
            fn = ctx.repro.wire.decode_function(reply["blob"], fetch)
            if fn.name != fetch:
                ctx.fail(f"{name}: fetched {fn.name} for {fetch}")
        except Exception as exc:  # service error, timeout, bad container
            ctx.fail(f"{name}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# run-image
# ---------------------------------------------------------------------------


class _Program:
    def __init__(self, name, result, expected, code_size) -> None:
        self.name = name
        self.program = result.program
        self.wire_blob = result.wire_blob
        self.image = result.brisc.image.blob
        self.expected = expected
        self.code_size = code_size
        self.steps = None
        self.unpacked = None
        self.jit_bytes = None


class RunImage:
    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.work: Dict[str, List[float]] = {p: [] for p in PASS_ROUNDS}
        #: (start, end) of each program run, per pass
        self.spans: Dict[str, List[tuple]] = {p: [] for p in PASS_ROUNDS}

    def setup(self) -> None:
        ctx, repro = self.ctx, self.ctx.repro
        sources = [(name, repro.corpus.SAMPLES[name], GOLDEN[name])
                   for name in sorted(repro.corpus.SAMPLES)]
        sources += [(name, src, None) for name, src in draw_units(
            repro, ctx.rng(), ctx.workload, GENERATED_PROGRAMS,
            size=WORKLOADS[ctx.workload]["functions"][0])]
        batch = repro.pipeline.Toolchain().compile_many(
            [(name, src) for name, src, _ in sources], workers=2)
        self.programs = []
        for (name, _, expected), item in zip(sources, batch):
            if item.result is None:
                raise RuntimeError(f"{name}: {item.error}")
            prog = _Program(name, item.result, expected,
                            repro.vm.program_size(item.result.program))
            if expected is None:  # generated: the VM's output is the reference
                prog.expected = repro.vm.run_program(
                    prog.program, max_steps=MAX_STEPS).output
            self.programs.append(prog)
        order = list(self.programs)
        ctx.rng("order").shuffle(order)
        # Each pass cycles through the programs in a seeded order; a run
        # shorter than nominal stops part way through a round.
        self.runs, self.round = {}, {}
        for p, rounds in PASS_ROUNDS.items():
            cycle = [prog for prog in order
                     if p != "nocache" or prog.name not in NOCACHE_SKIP]
            self.runs[p] = [cycle[i % len(cycle)]
                            for i in range(ctx.count(rounds * len(cycle)))]
            self.round[p] = min(len(cycle), len(self.runs[p]))

    def run(self) -> None:
        ctx = self.ctx
        op = 0
        for pass_name, runs in self.runs.items():
            for prog in runs:
                ctx.attempt()
                with ctx.op(op):
                    try:
                        amount, span = _run_pass(ctx, pass_name, prog)
                    except Exception as exc:
                        ctx.fail(f"{pass_name} {prog.name}: "
                                 f"{type(exc).__name__}: {exc}")
                        amount = None
                op += 1
                if amount is not None:
                    self.work[pass_name].append(amount)
                    self.spans[pass_name].append(span)

    def finish(self) -> Dict[str, Any]:
        ctx = self.ctx
        _check_unpacked(ctx, self.programs)

        timed = {p: [ctx.op_time(*span) for span in spans]
                 for p, spans in self.spans.items()}

        def per_run(name, scale=1.0):
            return [w / (s * f) / scale
                    for w, (s, f) in zip(self.work[name], timed[name])
                    if s > 0]

        # All of a pass's work over all of its time.  Not the median over
        # program runs: per-run rates differ threefold between short and
        # long programs, so the median sits wherever the mix puts it, and
        # the shortest runs are the hardest to normalize.
        def rate(name, scale=1.0, normalized=True):
            seconds = sum(s * (f if normalized else 1.0)
                          for s, f in timed[name])
            return _rate(sum(self.work[name]), seconds) / scale

        metrics = {"vm_steps_per_s": ("vm", 1.0),
                   "interp_steps_per_s": ("interp", 1.0),
                   "interp_nocache_steps_per_s": ("nocache", 1.0),
                   "jit_mb_per_s": ("jit", 1e6),
                   "unpack_mb_per_s": ("unpack", 1e6)}

        return {
            "ops": {p: len(runs) for p, runs in self.runs.items()},
            "metrics": {name: rate(*how) for name, how in metrics.items()},
            "raw": {name: rate(*how, normalized=False)
                    for name, how in metrics.items()},
            "samples": {name: per_run(*how) for name, how in metrics.items()},
            "counts": {name: int(sum(self.work[p][:self.round[p]]))
                       for name, p in (("vm.steps", "vm"),
                                       ("brisc.interp.steps", "interp"))},
        }


def _run_pass(ctx: Ctx, pass_name: str, prog: _Program):
    """Run one program through one representation; returns the work done
    (steps or bytes) and the (start, end) of the timed part."""
    repro = ctx.repro
    t0 = time.perf_counter()
    if pass_name == "vm":
        result = repro.vm.run_program(prog.program, max_steps=MAX_STEPS)
    elif pass_name == "interp":
        result = repro.brisc.run_image(prog.image, max_steps=MAX_STEPS)
    elif pass_name == "nocache":
        result = repro.brisc.run_image(prog.image, max_steps=MAX_STEPS,
                                       cache_decoded=False)
    elif pass_name == "jit":
        native = repro.jit.jit_compile(prog.image).output_bytes
        t1 = time.perf_counter()
        if prog.jit_bytes is None:
            prog.jit_bytes = native
        elif native != prog.jit_bytes:
            ctx.fail(f"jit {prog.name}: output size changed between rounds")
        return native, (t0, t1)
    else:
        from_wire = repro.codegen.generate_program(
            repro.wire.decode_module(prog.wire_blob))
        from_brisc = repro.brisc.decompress(prog.image)
        t1 = time.perf_counter()
        if prog.unpacked is None:
            prog.unpacked = (from_wire, from_brisc)
        return 2 * prog.code_size, (t0, t1)
    t1 = time.perf_counter()
    if pass_name == "vm":
        prog.steps = result.steps
    if result.exit_code != 0 or result.output != prog.expected:
        ctx.fail(f"{pass_name} {prog.name}: output {result.output!r} "
                 f"!= {prog.expected!r}")
    return result.steps, (t0, t1)


def _check_unpacked(ctx: Ctx, programs: List[_Program]) -> None:
    """Both unpack paths must recover the VM code byte for byte, and the
    shorter programs must still print their expected output."""
    repro = ctx.repro
    vm_code = repro.pipeline.vm_code_bytes
    for prog in programs:
        if prog.unpacked is None:
            continue
        for label, program in zip(("wire", "brisc"), prog.unpacked):
            if vm_code(program) != vm_code(prog.program):
                ctx.fail(f"unpack {label} {prog.name}: VM code differs")
            elif prog.steps is not None and prog.steps <= UNPACK_RUN_MAX_STEPS:
                ran = repro.vm.run_program(program, max_steps=MAX_STEPS)
                if ran.output != prog.expected:
                    ctx.fail(f"unpack {label} {prog.name}: output differs")


def make_phase(name: str, ctx: Ctx, out_dir: str):
    if name == "cold-build":
        return ColdBuild(ctx)
    if name == "edit-loop":
        return EditLoop(ctx)
    if name == "wire-serve":
        return WireServe(ctx, out_dir)
    return RunImage(ctx)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
