"""Command-line interface: compile, run, compress, and inspect C programs.

Usage::

    python -m repro run prog.c                 # compile and execute
    python -m repro dump-ir prog.c             # lcc-style trees
    python -m repro dump-asm prog.c            # RISC VM assembly
    python -m repro sizes prog.c               # every representation's size
    python -m repro sizes prog.c --json        # machine-readable sizes
    python -m repro stats prog.c               # per-stage timing/size stats
    python -m repro wire prog.c -o prog.wire   # emit the wire format
    python -m repro brisc prog.c -o prog.brisc # emit a BRISC image
    python -m repro exec-brisc prog.brisc      # interpret an image in place
    python -m repro verify prog.wire           # integrity-check a container
    python -m repro fuzz --seed 1 --mutations 500   # fault-injection sweep
    python -m repro --disk-cache serve --port 7117  # long-lived service
    python -m repro client --port 7117 compile prog.c   # talk to it
    python -m repro fetch --port 7117 --function f prog.c -o f.wir
                                               # demand-page one function
    python -m repro verify f.wir --function f  # check a sparse container
    python -m repro chaos --port 7117          # fault-inject a live server
    python -m repro cache --prune --max-bytes 100000000  # bound the store

Every command compiles through :mod:`repro.pipeline`, so artifacts shared
between representations (parse, lower, codegen) are produced once per
invocation; ``--disk-cache`` persists them under ``~/.cache/repro/`` so
repeated invocations on unchanged sources skip recompilation entirely.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from .brisc import run_image
from .errors import ReproError
from .ir import dump_module
from .native import PentiumLike, SparcLike
from .pipeline import Toolchain, default_toolchain
from .vm import format_function, run_program


def _toolchain(args) -> Toolchain:
    if getattr(args, "disk_cache", False) or getattr(args, "cache_dir", None):
        return Toolchain(disk_cache=args.disk_cache, cache_dir=args.cache_dir)
    return default_toolchain()


def _source(path: str):
    """A C file's unit name and text.  The unit is named after the file's
    basename: the WIR2 container stores the name, so a blob must not
    depend on the directory the file is read from."""
    with open(path) as f:
        return os.path.basename(path), f.read()


def _compile(toolchain: Toolchain, path: str, **kwargs):
    name, source = _source(path)
    return toolchain.compile(source, name=name, **kwargs)


def cmd_run(args) -> int:
    res = _compile(_toolchain(args), args.file, stages=("codegen",))
    result = run_program(res.program, max_steps=args.max_steps)
    sys.stdout.write(result.output)
    if args.stats:
        print(f"\n[{result.steps} instructions executed]", file=sys.stderr)
    return result.exit_code


def cmd_dump_ir(args) -> int:
    res = _compile(_toolchain(args), args.file, stages=("lower",))
    print(dump_module(res.module))
    return 0


def cmd_dump_asm(args) -> int:
    res = _compile(_toolchain(args), args.file, stages=("codegen",))
    for fn in res.program.functions:
        print(format_function(fn))
        print()
    return 0


def cmd_sizes(args) -> int:
    res = _compile(_toolchain(args), args.file,
                   stages=("codegen", "wire", "brisc", "deflate"))
    program = res.program
    sizes = res.sizes()
    sparc = SparcLike().program_size(program)
    pentium = PentiumLike().program_size(program)
    brisc_meta = res.artifact("brisc").meta
    if args.json:
        payload = {
            "unit": res.unit,
            "sizes": {
                "sparc_native": sparc,
                "pentium_native": pentium,
                "vm": sizes["vm"],
                "deflate_vm": sizes["deflate_vm"],
                "wire": sizes["wire"],
                "wire_code": sizes["wire_code"],
                "brisc": sizes["brisc"],
                "brisc_code": sizes["brisc_code"],
            },
            "brisc_patterns": brisc_meta["patterns"],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"SPARC-like native   : {sparc:8d} B")
    print(f"Pentium-like native : {pentium:8d} B")
    print(f"VM binary encoding  : {sizes['vm']:8d} B")
    print(f"deflate(VM code)    : {sizes['deflate_vm']:8d} B")
    print(f"wire format (code)  : {sizes['wire_code']:8d} B")
    print(f"BRISC code segment  : {sizes['brisc_code']:8d} B"
          f"  ({brisc_meta['patterns']} patterns)")
    return 0


def cmd_stats(args) -> int:
    toolchain = _toolchain(args)
    res = _compile(toolchain, args.file)
    if args.json:
        print(json.dumps({
            "unit": res.unit,
            "stages": res.stage_rows(),
            "toolchain": toolchain.stats(),
        }, indent=2, sort_keys=True, default=str))
        return 0
    from .bench.tables import stage_stats_table

    print(stage_stats_table(res.stage_rows()))
    cache = toolchain.stats()["cache"]
    print(f"\ncache: {cache['hits']} hits, {cache['misses']} misses")
    return 0


def _names(text: str) -> List[str]:
    """The names of a comma-separated option value such as ``wc,gcc``."""
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_tables(args) -> int:
    # The bench measurement helpers compile through default_toolchain(),
    # which the top-level cache flags do not reach.
    if args.disk_cache or args.cache_dir:
        print("error: tables does not take --disk-cache/--cache-dir; set "
              "REPRO_DISK_CACHE=1 (and REPRO_CACHE_DIR) to persist its "
              "artifacts", file=sys.stderr)
        return 2
    from .bench import regen

    try:
        report = regen.regenerate_tables(
            units=None if args.units is None else _names(args.units),
            skip_interp=args.skip_interp)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    written = regen.write_results(report, args.results_dir)
    if args.write_experiments and regen.patch_experiments(report):
        written.append("EXPERIMENTS.md")
    for name in report:
        print(f"{name}: measured")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_wire(args) -> int:
    res = _compile(_toolchain(args), args.file, stages=("wire",))
    blob = res.wire_blob
    with open(args.output, "wb") as f:
        f.write(blob)
    print(f"wrote {len(blob)} bytes to {args.output}")
    return 0


def cmd_brisc(args) -> int:
    toolchain = _toolchain(args)
    config = toolchain.config.with_brisc(k=args.k)
    res = _compile(toolchain, args.file, stages=("brisc",), config=config)
    cp = res.brisc
    with open(args.output, "wb") as f:
        f.write(cp.image.blob)
    print(f"wrote {cp.size} bytes to {args.output} "
          f"(code segment {cp.image.code_segment_size}, "
          f"{cp.image.pattern_count} patterns)")
    return 0


def cmd_exec_brisc(args) -> int:
    with open(args.file, "rb") as f:
        blob = f.read()
    result = run_image(blob, max_steps=args.max_steps)
    sys.stdout.write(result.output)
    return result.exit_code


def cmd_verify(args) -> int:
    """Exit 0 for a clean container, 1 for corruption, 2 for unsupported.

    With ``--function NAME`` only the chunks covering that function are
    decoded, so sparse containers produced by ``fetch`` verify cleanly.
    """
    from .container import verify
    from .errors import DecodeError, UnsupportedFormatError

    with open(args.file, "rb") as f:
        blob = f.read()
    try:
        detail = verify(blob, getattr(args, "function", None) or None)
    except UnsupportedFormatError as exc:
        print(f"{args.file}: unsupported: {exc}", file=sys.stderr)
        return 2
    except DecodeError as exc:
        print(f"{args.file}: corrupt: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: OK ({detail}, {len(blob)} bytes)")
    return 0


def cmd_fuzz(args) -> int:
    """Fault-injection sweep over freshly built containers; exit 0 iff the
    decode contract held for every mutation.

    The ``wire3``/``brisc3`` formats fuzz the seekable chunked
    containers: the usual byte-level sweep through the full decoder,
    plus the isolation harness that corrupts one chunk at a time and
    asserts partial reads of *other* chunks stay byte-identical.
    """
    from .brisc import decode_image
    from .brisc.encode import repack_v3
    from .faults import fuzz_chunked_container, fuzz_decoder
    from .ir import dump_module
    from .wire import decode_module, encode_module_v3

    units = _names(args.units)
    formats = _names(args.formats)
    unknown = set(formats) - {"wire", "brisc", "wire3", "brisc3"}
    if unknown:
        print(f"error: unknown formats {sorted(unknown)}", file=sys.stderr)
        return 2
    if args.chunk_bytes < 1:
        print(f"error: --chunk-bytes must be >= 1, got {args.chunk_bytes}",
              file=sys.stderr)
        return 2
    from .corpus import get_sample, suite_source

    toolchain = _toolchain(args)
    # A seekable container is framed from the flat artifact: WIR3 from
    # the IR module, BRI3 by moving the BRISC image's code bytes.
    stages = tuple(sorted({"lower" if f == "wire3" else f.rstrip("3")
                           for f in formats}))
    reports = []
    for unit in units:
        try:
            source = suite_source(unit)
        except KeyError:
            try:
                source = get_sample(unit)
            except KeyError:
                print(f"error: unknown corpus unit {unit!r}", file=sys.stderr)
                return 2
        res = toolchain.compile(source, name=unit, stages=stages)
        blobs = {}
        if "wire" in formats:
            blobs["wire"] = res.wire_blob
        if "wire3" in formats:
            blobs["wire3"] = encode_module_v3(res.module,
                                              chunk_bytes=args.chunk_bytes)
        if "brisc" in formats:
            blobs["brisc"] = res.brisc.image.blob
        if "brisc3" in formats:
            blobs["brisc3"] = repack_v3(res.brisc.image.blob,
                                        args.chunk_bytes)
        for fmt, blob in blobs.items():
            wire = fmt.startswith("wire")
            reports.append(fuzz_decoder(
                blob, decode_module if wire else decode_image,
                target=f"{unit}.{fmt}", mutations=args.mutations,
                seed=args.seed, deadline=args.deadline,
                canonical=dump_module if wire else None))
            print(reports[-1].summary())
        for fmt in ("wire3", "brisc3"):
            if fmt in blobs:
                reports.append(fuzz_chunked_container(
                    blobs[fmt], target=f"{unit}.{fmt}[chunks]",
                    seed=args.seed, deadline=args.deadline))
                print(reports[-1].summary())
    failures = [f for r in reports for f in r.failures]
    for failure in failures:
        print(f"FAIL {failure.target} #{failure.index} ({failure.kind}): "
              f"{failure.outcome}: {failure.detail}", file=sys.stderr)
    total = sum(r.mutations for r in reports)
    print(f"{total} mutations across {len(reports)} containers: "
          f"{len(failures)} contract violations")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Run the resilient service front end until SIGTERM/SIGINT, then
    drain gracefully and exit 0."""
    import asyncio
    import signal

    from .service import CompressionService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.concurrency,
        max_queue=args.queue,
        default_deadline=args.deadline,
        idle_timeout=args.idle_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        drain_timeout=args.drain_timeout,
        cache_max_bytes=args.cache_max_bytes,
    )
    service = CompressionService(toolchain=_toolchain(args), config=config)

    async def amain() -> None:
        await service.start()
        loop = asyncio.get_running_loop()

        def drain() -> None:
            asyncio.ensure_future(service.shutdown())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, drain)
            except NotImplementedError:  # platforms without loop signals
                signal.signal(sig, lambda *_: service._request_shutdown())
        print(f"repro-service listening on {service.config.host}:"
              f"{service.port}", flush=True)
        await service.wait_stopped()
        print("repro-service drained cleanly", flush=True)

    asyncio.run(amain())
    return 0


def cmd_client(args) -> int:
    """One request against a running service; structured errors exit 1
    (or 75, EX_TEMPFAIL, when the server says the request is retryable).

    ``--retries N`` re-sends retryable failures with jittered backoff
    before giving up; a spent budget still exits 75 so callers can keep
    distinguishing "try later" from "broken request".
    """
    from .service import ServiceClient

    op = args.op
    try:
        with ServiceClient(args.host, args.port, timeout=args.timeout,
                           retries=args.retries) as client:
            if op in ("compile", "wire", "brisc"):
                if not args.file:
                    print(f"error: {op} needs a source file", file=sys.stderr)
                    return 2
                name, source = _source(args.file)
                if op == "compile":
                    result = client.compile(source, name=name,
                                            deadline=args.deadline)
                    print(json.dumps(result, indent=2, sort_keys=True))
                else:
                    blob = (client.wire if op == "wire" else client.brisc)(
                        source, name=name, deadline=args.deadline)
                    if args.output:
                        with open(args.output, "wb") as f:
                            f.write(blob)
                        print(f"wrote {len(blob)} bytes to {args.output}")
                    else:
                        print(f"received {len(blob)} bytes "
                              f"(use -o to write them)")
            elif op == "verify":
                if not args.file:
                    print("error: verify needs a container file",
                          file=sys.stderr)
                    return 2
                with open(args.file, "rb") as f:
                    blob = f.read()
                result = client.verify(blob, deadline=args.deadline)
                print(json.dumps(result, indent=2, sort_keys=True))
            else:  # ping / ready / stats / shutdown
                result = client.request(op, deadline=args.deadline)
                print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except ConnectionError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def cmd_fetch(args) -> int:
    """Demand-page part of a container from a running service.

    Sends ``fetch_function``/``fetch_range`` and reassembles the reply's
    segments into a sparse container: the advertised total size, with
    only the transferred ranges filled in.  ``--function`` fetches the
    chunks covering one function; ``--start``/``--length`` fetch a
    decoded-address-space span.  Exits like ``client``: structured
    errors exit 1 (75 when retryable).
    """
    from .service import ServiceClient

    if (args.function is None) == (args.start is None):
        print("error: fetch needs exactly one of --function or "
              "--start/--length", file=sys.stderr)
        return 2
    if args.start is not None and args.length is None:
        print("error: --start requires --length", file=sys.stderr)
        return 2
    name, source = _source(args.file)
    try:
        with ServiceClient(args.host, args.port,
                           timeout=args.timeout) as client:
            if args.function is not None:
                result = client.fetch_function(
                    source, args.function, name=name,
                    format=args.format, chunk_bytes=args.chunk_bytes,
                    deadline=args.deadline)
                where = (f"function {args.function!r} "
                         f"(chunk(s) {result['chunks']})")
            else:
                result = client.fetch_range(
                    source, args.start, args.length, name=name,
                    format=args.format, chunk_bytes=args.chunk_bytes,
                    deadline=args.deadline)
                where = (f"span [{args.start}, {args.start + args.length})"
                         f" (chunk(s) {result['chunks']})")
        blob = result["blob"]
        if args.output:
            with open(args.output, "wb") as f:
                f.write(blob)
        hit = "warm" if result.get("cache_hit") else "cold"
        print(f"{args.file}: {where}: transferred "
              f"{result['transferred']} of {result['total_bytes']} "
              f"container bytes ({hit} store)"
              + (f" -> {args.output}" if args.output else ""))
        return 0
    except ConnectionError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def cmd_chaos(args) -> int:
    """Chaos sweep against a live server; exit 0 iff the robustness
    contract held for every injected fault."""
    from .faults import chaos_probe

    report = chaos_probe(args.host, args.port, rounds=args.rounds,
                         seed=args.seed, timeout=args.timeout,
                         stall_seconds=args.stall_seconds)
    print(report.summary())
    for failure in report.failures:
        print(f"FAIL {failure.scenario} #{failure.index}: {failure.detail}",
              file=sys.stderr)
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    """Inspect — and with ``--prune`` bound — the on-disk artifact cache."""
    from .pipeline.cache import DiskCache

    cache = DiskCache(args.cache_dir)
    usage = cache.usage()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {usage['entries']}")
    print(f"bytes     : {usage['bytes']}")
    if args.prune:
        if args.max_bytes is None:
            print("error: --prune requires --max-bytes", file=sys.stderr)
            return 2
        result = cache.prune(args.max_bytes)
        print(f"pruned    : {result['removed_entries']} entries "
              f"({result['removed_bytes']} bytes) evicted, "
              f"{result['kept_entries']} entries "
              f"({result['kept_bytes']} bytes) kept")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Code Compression (PLDI 1997) reproduction toolchain",
    )
    parser.add_argument("--disk-cache", action="store_true",
                        help="persist pipeline artifacts under ~/.cache/repro")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (implies --disk-cache)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compile a C file and execute it")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=200_000_000)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("dump-ir", help="print the lcc-style trees")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dump_ir)

    p = sub.add_parser("dump-asm", help="print the RISC VM assembly")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dump_asm)

    p = sub.add_parser("sizes", help="compare representation sizes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable per-representation sizes")
    p.set_defaults(fn=cmd_sizes)

    p = sub.add_parser("stats", help="per-stage pipeline timing/size stats")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "tables", help="measure and regenerate the EXPERIMENTS.md tables")
    p.add_argument("--units", default=None,
                   help="comma-separated suite units to rebuild (default: "
                        "the full suite)")
    p.add_argument("--results-dir", default="benchmarks/results",
                   help="directory receiving table1.txt..table3.txt")
    p.add_argument("--skip-interp", action="store_true",
                   help="skip the slow BRISC interpreter-overhead run "
                        "(Table 2 'interp' column reads nan)")
    p.add_argument("--write-experiments", action="store_true",
                   help="also patch the marker-delimited block in "
                        "EXPERIMENTS.md")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("wire", help="emit the wire format")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_wire)

    p = sub.add_parser("brisc", help="compress to a BRISC image")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-k", type=int, default=20,
                   help="patterns admitted per pass (paper: 20)")
    p.set_defaults(fn=cmd_brisc)

    p = sub.add_parser("exec-brisc", help="interpret a BRISC image in place")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=200_000_000)
    p.set_defaults(fn=cmd_exec_brisc)

    p = sub.add_parser("verify",
                       help="integrity-check a wire or BRISC container")
    p.add_argument("file")
    p.add_argument("--function", default=None,
                   help="verify only the chunks covering this function "
                        "(works on sparse containers from `fetch`)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fuzz",
                       help="seeded fault-injection sweep over the decoders")
    p.add_argument("--seed", type=int, default=1997)
    p.add_argument("--mutations", type=int, default=500,
                   help="mutations per container (default 500)")
    p.add_argument("--deadline", type=float, default=10.0,
                   help="seconds a single decode may take (default 10)")
    p.add_argument("--units", default="wc",
                   help="comma-separated corpus units (default: wc)")
    p.add_argument("--formats", default="wire,brisc",
                   help="container kinds to fuzz: wire, brisc, and the "
                        "chunked wire3/brisc3 (default: wire,brisc)")
    p.add_argument("--chunk-bytes", type=int, default=512,
                   help="chunk size cap for the wire3/brisc3 formats "
                        "(default 512, small enough for several chunks)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve",
                       help="run the resilient service front end")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7117,
                   help="TCP port (0 picks an ephemeral one; default 7117)")
    p.add_argument("--concurrency", type=int, default=4,
                   help="pipeline requests running at once (default 4)")
    p.add_argument("--queue", type=int, default=16,
                   help="admitted-but-waiting bound before load shedding "
                        "(default 16)")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="default per-request deadline in seconds "
                        "(default 30)")
    p.add_argument("--idle-timeout", type=float, default=300.0,
                   help="reap connections idle/stalled this long "
                        "(default 300)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive unit failures that trip the circuit "
                        "breaker (default 5)")
    p.add_argument("--breaker-reset", type=float, default=5.0,
                   help="seconds until an open breaker half-opens "
                        "(default 5)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="grace for in-flight work at shutdown (default 10)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   help="prune the disk cache to this bound at drain")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("client",
                       help="send one request to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7117)
    p.add_argument("--timeout", type=float, default=30.0,
                   help="socket timeout in seconds (default 30)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline passed to the server")
    p.add_argument("--retries", type=int, default=0,
                   help="auto-retry budget for retryable/transport "
                        "failures (default 0: fail fast)")
    p.add_argument("op", choices=["ping", "ready", "stats", "shutdown",
                                  "compile", "wire", "brisc", "verify"])
    p.add_argument("file", nargs="?",
                   help="source file (compile/wire/brisc) or container "
                        "(verify)")
    p.add_argument("-o", "--output", default=None,
                   help="where wire/brisc write the received blob")
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser("fetch",
                       help="demand-page one function or byte span of a "
                            "container from a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7117)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--format", choices=["wire", "brisc"], default="wire",
                   help="container format to fetch from (default wire)")
    p.add_argument("--function", default=None,
                   help="fetch the chunks covering this function")
    p.add_argument("--start", type=int, default=None,
                   help="decoded-address-space span start (with --length)")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--chunk-bytes", type=int, default=None,
                   help="chunk size cap used when the server (re)builds "
                        "the seekable container")
    p.add_argument("file", help="C source file the service compiles "
                                "(or finds warm in its store)")
    p.add_argument("-o", "--output", default=None,
                   help="write the sparse container here")
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("chaos",
                       help="fault-inject a live service (corrupt frames, "
                            "stalls, disconnects)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7117)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--seed", type=int, default=1997)
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--stall-seconds", type=float, default=0.2)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("cache",
                       help="inspect or prune the on-disk artifact cache")
    p.add_argument("--prune", action="store_true",
                   help="evict oldest-mtime entries down to --max-bytes")
    p.add_argument("--max-bytes", type=int, default=None)
    p.set_defaults(fn=cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:  # 75 is EX_TEMPFAIL: try again later
        print(f"error: {exc}", file=sys.stderr)
        return 75 if exc.retryable else 1
    except BrokenPipeError:  # output piped into head etc.
        return 0
    except OSError as exc:  # unreadable input / unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
