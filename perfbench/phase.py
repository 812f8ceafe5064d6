"""Run one benchmark phase to completion in this (fresh) process.

    python3 perfbench/phase.py --phase cold-build --workload units-20-40 \\
        --seed 1 --seconds 24 --trace 0 --result out.json

The process starts a toolchain (import, and a first compile of the
warm-up program, which is outside every measured set), prepares the
phase's seeded inputs, runs the phase's fixed number of ops in one timed
window, checks the outputs and writes its result to ``--result``.
``--spawned-at`` is the launcher's wall clock when it started this
process; start-up time runs from it to the toolchain being ready.
Times and rates are reported host-normalized (``common.host_factor``),
with the values as measured under ``raw``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from common import (
    PHASES, WORKLOADS, calibrate, host_factor, load_repro, summary,
    warmup_source,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=PHASES, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    repro = load_repro()
    repro.pipeline.Toolchain().compile(warmup_source(repro), name="warmup")
    startup_s = time.time() - spawned_at

    import phases
    startup_factor = host_factor(
        d for _, d in calibrate(phases.STARTUP_PAUSE_S))
    from tracing import Tracer, install_layers, self_time_table

    out_dir = os.path.dirname(os.path.abspath(args.result))
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer, repro)
    ctx = phases.Ctx(repro, args.phase, args.workload, args.seed,
                     args.seconds, tracer)
    phase = phases.make_phase(args.phase, ctx, out_dir)
    try:
        t0 = time.perf_counter()
        phase.setup()
        prepare_s = time.perf_counter() - t0
        gc.collect()  # outside the timed window
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        with ctx.sampling(args.phase != "wire-serve"):
            phase.run()
        ctx.window_s = time.perf_counter() - t0 - ctx.paused_s
        if tracer is not None:
            tracer.active = False
        outcome = phase.finish()
    finally:
        if hasattr(phase, "close"):
            phase.close()
    result = {
        "phase": args.phase,
        "startup_s": startup_s,
        "startup_factor": startup_factor,
        "prepare_s": prepare_s,
        "window_s": ctx.window_s,
        "host_factor": host_factor(d for _, d in ctx.samples),
        "ops": outcome["ops"],
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "errors": ctx.errors,
        "maxrss_mb": phases.peak_rss_mb(),
        "metrics": outcome["metrics"],
        "raw": outcome.get("raw", {}),
        "samples": {name: summary(values)
                    for name, values in outcome["samples"].items()},
        "counts": outcome["counts"],
        "server": outcome.get("server"),
        "layer_counts": outcome.get("layer_counts", {}),
    }
    if tracer is not None:
        tracer.uninstall()
        result["self_times"] = tracer.self_times()
        result["trace_counts"] = tracer.counts
        tracer.write_chrome(os.path.join(out_dir, f"{args.phase}.trace.json"),
                            os.getpid(), args.phase)
        with open(os.path.join(out_dir, f"{args.phase}.selftime.txt"),
                  "w") as f:
            f.write(f"{args.phase} (benchmark process)\n")
            f.write(self_time_table(result["self_times"]))
            server = result["server"]
            if server and server.get("self_times"):
                f.write(f"\n{args.phase} (service process)\n")
                f.write(self_time_table(server["self_times"]))
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
