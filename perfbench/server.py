"""The wire-serve phase's service process.

Starts a ``CompressionService`` on an ephemeral port, prints
``PORT <n>``, and serves until a client sends the ``shutdown`` op or its
launcher closes stdin.  On ``SIGUSR2`` it runs calibration samples for
``SERVER_PAUSE_S``.  With ``--trace 1`` it wraps the layer entry points
like the benchmark process does and records spans from the moment it
receives ``SIGUSR1``, so the clients' warm-up requests stay out of the
trace.  On exit it prints one JSON line: peak RSS, the calibration
samples of every pause and, when traced, the span aggregates.

    python3 perfbench/server.py --trace 0 --out perfbench/out/x
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading

from common import calibrate, load_repro
from phases import SERVER_PAUSE_S, peak_rss_mb
from tracing import Tracer, install_layers


def _shutdown_when_stdin_closes(port: int) -> None:
    """The launcher is gone once stdin closes: drain and exit rather than
    linger."""
    from repro.errors import DecodeError, ServiceError
    from repro.service import ServiceClient

    sys.stdin.read()
    try:
        with ServiceClient(port=port, timeout=10.0) as client:
            client.shutdown()
    except (OSError, DecodeError, ServiceError):
        pass  # already shut down


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    repro = load_repro()
    from repro.service import CompressionService

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer, repro)
        signal.signal(signal.SIGUSR1,
                      lambda *_: setattr(tracer, "active", True))
    # The client pauses between request blocks, with no request in
    # flight, and signals this process to calibrate meanwhile.
    pauses = []
    signal.signal(signal.SIGUSR2,
                  lambda *_: pauses.append(
                      [d for _, d in calibrate(SERVER_PAUSE_S)]))
    service = CompressionService()

    def ready(svc) -> None:
        print(f"PORT {svc.port}", flush=True)
        threading.Thread(target=_shutdown_when_stdin_closes,
                         args=(svc.port,), daemon=True).start()

    asyncio.run(service.run(ready=ready))
    report = {"maxrss_mb": peak_rss_mb(), "pauses": pauses}
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        report["self_times"] = tracer.self_times()
        report["counts"] = tracer.counts
        tracer.write_chrome(
            os.path.join(args.out, "wire-serve.server.trace.json"),
            os.getpid(), "wire-serve service")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
