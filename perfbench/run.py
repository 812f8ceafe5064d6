"""The repo benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload units-20-40 --seed 1 --seconds 30 --trace 0

Every run executes the four phases (cold-build, edit-loop, wire-serve,
run-image; see ``phases.py``) one after another, each to completion in
a fresh process, each over a fixed number of seeded ops that
``--seconds`` scales (``common.scaled``).

With ``--trace 0`` the run prints every end-to-end metric.  With
``--trace 1`` it runs each phase untraced and then traced over the same
ops (``TRACE_SHARE`` of an untraced run's), prints every per-layer
metric, and writes a Chrome trace and a per-layer self-time table per
phase (the tracing overhead is the traced minus the untraced wall
time).  Each invocation writes a fresh result
record with provenance under ``perfbench/out/results/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import (
    BENCH_DIR, OUT_DIR, PHASES, WORKLOADS, provenance, require_program,
)

#: A whole invocation must finish within this many seconds.
DEADLINE_S = 175.0
#: A traced run runs every phase twice, untraced and traced, and tracing
#: slows the ops, so both passes run this share of the ops of an
#: untraced run, which keeps the traced run within the deadline.
TRACE_SHARE = 0.4

E2E_UNITS = {
    "compile_kb_per_s": "KB/s", "wire_ratio": "ratio", "brisc_ratio": "ratio",
    "edit_s_p50": "s", "edits_per_s": "1/s", "req_per_s": "1/s",
    "req_ms_p50": "ms", "req_ms_p99": "ms", "vm_steps_per_s": "steps/s",
    "interp_steps_per_s": "steps/s", "interp_nocache_steps_per_s": "steps/s",
    "jit_mb_per_s": "MB/s", "unpack_mb_per_s": "MB/s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_phase(phase: str, args, trace: int, run_dir: str,
              deadline: float) -> Dict[str, Any]:
    """One phase, run to completion in a fresh process."""
    result_path = os.path.join(
        run_dir, f"{phase}.{'traced' if trace else 'plain'}.json")
    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "phase.py"),
           "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", result_path,
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"phase {phase} exited with {proc.returncode}")
    with open(result_path) as f:
        return json.load(f)


def run_phases(args, run_dir: str, deadline: float):
    """Every phase untraced; with ``--trace 1`` each again, traced, over
    the same seeded ops, the overhead being the difference in wall time."""
    plain, traced = {}, {}
    for phase in PHASES:
        plain[phase] = run_phase(phase, args, 0, run_dir, deadline)
        if not args.trace:
            continue
        traced[phase] = run_phase(phase, args, 1, run_dir, deadline)
        overhead = traced[phase]["window_s"] - plain[phase]["window_s"]
        traced[phase]["overhead_s"] = overhead
        with open(os.path.join(run_dir, f"{phase}.selftime.txt"), "a") as f:
            f.write(f"\ntracing overhead (traced wall - untraced wall over "
                    f"the same ops): {overhead:.4f} s\n")
    return plain, traced


def end_to_end(results: Dict[str, Dict]):
    """The end-to-end metrics, host-normalized and as measured."""
    normalized: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    for result in results.values():
        normalized.update(result["metrics"])
        raw.update(result["metrics"])
        raw.update(result["raw"])
    # Each phase process starts a toolchain the same way: the median of
    # those start-ups is the run's set-up time.
    normalized["setup_s"] = statistics.median(
        r["startup_s"] * r["startup_factor"] for r in results.values())
    raw["setup_s"] = statistics.median(r["startup_s"]
                                       for r in results.values())
    rss = [r["maxrss_mb"] for r in results.values()]
    rss += [r["server"]["maxrss_mb"] for r in results.values()
            if r.get("server")]
    normalized["peak_rss_mb"] = raw["peak_rss_mb"] = max(rss)
    return normalized, raw


def per_layer(traced: Dict[str, Dict]) -> Dict[str, tuple]:
    """Per-layer metrics from the traced phases (client and service
    processes merged)."""
    agg: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}

    def merge(self_times, more_counts):
        for name, row in (self_times or {}).items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += row["calls"]
            a[1] += row["total_s"]
            a[2] += row["self_s"]
        for name, value in (more_counts or {}).items():
            counts[name] = counts.get(name, 0) + value

    for result in traced.values():
        merge(result.get("self_times"), result.get("trace_counts"))
        merge(None, result.get("layer_counts"))
        if result.get("server"):
            merge(result["server"].get("self_times"),
                  result["server"].get("counts"))

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    edits = traced["edit-loop"]["counts"]
    server = traced["wire-serve"]["server"] or {}
    return {
        "cfront.s": (self_s("cfront"), "s"),
        "cfront.kb_per_s": (ratio(counts.get("cfront.bytes", 0) / 1000,
                                  agg.get("cfront", [0, 0.0])[1]), "KB/s"),
        "ir.s": (self_s("ir"), "s"),
        "ir.nodes": (counts.get("ir.nodes", 0), "count"),
        "codegen.s": (self_s("codegen"), "s"),
        "codegen.instructions": (counts.get("codegen.instructions", 0),
                                 "count"),
        "wire.encode.s": (self_s("wire.encode"), "s"),
        "wire.decode.s": (self_s("wire.decode"), "s"),
        "wire.bytes": (counts.get("wire.bytes", 0), "bytes"),
        "compress.mtf.s": (self_s("compress.mtf"), "s"),
        "compress.huffman.s": (self_s("compress.huffman"), "s"),
        "compress.streams.s": (self_s("compress.streams"), "s"),
        "compress.deflate.s": (self_s("compress.deflate"), "s"),
        "brisc.slots.s": (self_s("brisc.slots"), "s"),
        "brisc.build.s": (self_s("brisc.build"), "s"),
        "brisc.build.passes": (counts.get("brisc.build.passes", 0), "count"),
        "brisc.build.candidates": (counts.get("brisc.build.candidates", 0),
                                   "count"),
        "brisc.build.admitted": (counts.get("brisc.build.admitted", 0),
                                 "count"),
        "brisc.cost.calls": (calls("brisc.cost"), "count"),
        "brisc.cost.s": (self_s("brisc.cost"), "s"),
        "native.calls": (counts.get("native.calls", 0), "count"),
        "brisc.encode.s": (self_s("brisc.encode"), "s"),
        "brisc.bytes": (counts.get("brisc.bytes", 0), "bytes"),
        "brisc.journal.s": (self_s("brisc.journal"), "s"),
        "brisc.journal.replay_ratio": (ratio(edits["replayed"],
                                             edits["edits"]), "ratio"),
        "pipeline.delta.s": (self_s("pipeline.delta"), "s"),
        "pipeline.delta.derived_ratio": (
            ratio(counts.get("pipeline.delta.derived", 0),
                  counts.get("pipeline.delta.attempts", 0)), "ratio"),
        "pipeline.compile.s": (self_s("pipeline.compile"), "s"),
        "pipeline.cache.s": (self_s("pipeline.cache"), "s"),
        "pipeline.cache.hit_ratio": (
            ratio(counts.get("pipeline.cache.hits", 0),
                  counts.get("pipeline.cache.gets", 0)), "ratio"),
        "service.client.s": (self_s("service.client"), "s"),
        "service.server.s": (server.get("latency_s", 0.0), "s"),
        "service.shed": (server.get("shed", 0), "count"),
        "service.errors": (server.get("errors", 0), "count"),
        "container.fetch_ratio": (
            ratio(counts.get("container.transferred", 0),
                  counts.get("container.total", 0)), "ratio"),
        "vm.s": (self_s("vm"), "s"),
        "vm.steps": (counts.get("vm.steps", 0), "count"),
        "brisc.interp.s": (self_s("brisc.interp"), "s"),
        "brisc.interp.steps": (counts.get("brisc.interp.steps", 0), "count"),
        "brisc.decode_slot.calls": (counts.get("brisc.decode_slot.calls", 0),
                                    "count"),
        "brisc.decode.s": (self_s("brisc.decode"), "s"),
        "jit.s": (self_s("jit"), "s"),
        "jit.bytes": (counts.get("jit.bytes", 0), "bytes"),
        "trace.unattributed_s": (self_s("op"), "s"),
        "trace.overhead_s": (sum(r["overhead_s"] for r in traced.values()),
                             "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    started = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    tag = f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(OUT_DIR, "runs", tag)
    os.makedirs(run_dir, exist_ok=True)

    plain, traced = run_phases(args, run_dir, time.monotonic() + DEADLINE_S)

    runs = list(plain.values()) + list(traced.values())
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    normalized, raw = end_to_end(plain)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer(traced).items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in normalized.items()}
    # Per-op samples as measured, before host normalization.
    samples = {}
    for result in plain.values():
        samples.update(result["samples"])
    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 args.trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in runs for e in r["errors"]],
        "metrics": {name: dict(m, raw=raw.get(name),
                               samples=samples.get(name))
                    for name, m in metrics.items()},
        "phases": {phase: {k: r[k] for k in (
            "startup_s", "startup_factor", "prepare_s", "window_s",
            "host_factor", "ops", "counts")}
                   for phase, r in plain.items()},
        "run_dir": os.path.relpath(run_dir, BENCH_DIR),
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{tag}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    for error in record["errors"]:
        sys.stderr.write(f"perfbench: failed: {error}\n")
    sys.stderr.write(f"perfbench: record {record_path}\n")
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
