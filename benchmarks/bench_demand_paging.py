"""Demand paging over seekable (v3) containers.

The tentpole claim: chunked containers let a client fetch *one function*
without shipping or decompressing the whole unit.  This bench measures
what that costs and what it buys:

* the seekability tax — v3 container size vs the flat v2 container,
  split into block-index and per-chunk CRC overhead;
* per-function fetch sizes (header + covering chunks) against the whole
  container, through a *live* service round-trip (``fetch_function``);
* the intro's paging and delivery models re-run on the measured chunk
  size distribution instead of the uniform ``PAGE_SIZE`` guess.
"""

import statistics

from conftest import save_table
from repro.bench import render_table
from repro.container import container_index
from repro.system import (
    LAN_10M, MODEM_28_8, PagingConfig, Representation, delivery_time,
    paging_run,
)

UNITS = ("wc", "lzss", "stackvm")
CHUNK_BYTES = 512   # wire chunks (decoded-image bytes)
BRISC_CHUNK_BYTES = 64  # BRISC code is ~6x denser; keep several chunks


def _modules(toolchain, units):
    for unit in units:
        from repro.corpus import get_sample

        res = toolchain.compile(get_sample(unit), name=unit,
                                stages=("lower", "brisc"))
        yield unit, res.module, res.brisc.image.blob


def test_seekability_tax_and_fetch_sizes(benchmark, results_dir, toolchain):
    """One-function fetches must transfer strictly fewer bytes than the
    whole unit; the index + CRC overhead buying that stays small."""
    from repro.brisc.encode import repack_v3
    from repro.wire import encode_module, encode_module_v3

    def measure():
        rows = []
        for unit, module, bri2 in _modules(toolchain, UNITS):
            v2 = encode_module(module)
            v3 = encode_module_v3(module, chunk_bytes=CHUNK_BYTES)
            bri3 = repack_v3(bri2, BRISC_CHUNK_BYTES)
            rows.append((unit, "wire", v2, v3))
            rows.append((unit, "brisc", bri2, bri3))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = []
    for unit, fmt, v2, v3 in rows:
        index = container_index(v3)
        fetches = [sum(n for _, n in index.ranges_for_function(fn.name))
                   for fn in index.functions]
        # The acceptance criterion: every one-function fetch moves
        # strictly fewer bytes than shipping the whole container.
        if len(index.chunks) > 1:
            for fetched in fetches:
                assert fetched < len(v3), (unit, fmt, fetched, len(v3))
        crc_bytes = 4 * (len(index.chunks) + 1)  # chunk CRCs + header CRC
        table.append([
            unit, fmt, str(len(v2)), str(len(v3)),
            f"{len(v3) / len(v2) - 1:+.1%}",
            str(index.header_bytes), str(crc_bytes),
            str(len(index.chunks)),
            str(min(fetches)),
            str(int(statistics.median(fetches))),
            f"{statistics.median(fetches) / len(v3):.0%}",
        ])
    text = render_table(
        ["unit", "format", "v2 B", "v3 B", "tax", "index B", "crc B",
         "chunks", "min fetch", "med fetch", "med/total"],
        table)
    save_table(results_dir, "demand_paging", text)


def test_live_fetch_round_trip(benchmark, results_dir):
    """A real server serves one function for fewer bytes than the unit."""
    from repro.corpus import get_sample
    from repro.service import (
        BackgroundService, CompressionService, ServiceClient, ServiceConfig,
    )
    from repro.wire import decode_function

    source = get_sample("wc")

    def measure():
        service = BackgroundService(CompressionService(
            config=ServiceConfig(port=0)))
        with service:
            with ServiceClient(port=service.port, timeout=60.0) as client:
                cold = client.fetch_function(
                    source, "main", name="wc", chunk_bytes=CHUNK_BYTES)
                warm = client.fetch_function(
                    source, "main", name="wc", chunk_bytes=CHUNK_BYTES)
                stats = client.stats()["service"]
        return cold, warm, stats

    cold, warm, stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert cold["transferred"] < cold["total_bytes"]
    assert warm["cache_hit"]
    assert decode_function(cold["blob"], "main").name == "main"
    counters = stats["range_ops"]["fetch_function"]
    text = render_table(
        ["round", "transferred", "total", "store"],
        [["cold", str(cold["transferred"]), str(cold["total_bytes"]),
          "miss"],
         ["warm", str(warm["transferred"]), str(warm["total_bytes"]),
          "hit"],
         ["bytes served", str(stats["bytes_served"]), "",
          f"{counters['hits']} hit / {counters['misses']} miss"]])
    save_table(results_dir, "demand_paging_service", text)


def test_models_on_measured_chunks(benchmark, results_dir, toolchain):
    """Paging and delivery arithmetic on the real chunk distribution."""
    from repro.brisc.encode import repack_v3
    from repro.native import PentiumLike

    def measure():
        from repro.corpus import get_sample

        res = toolchain.compile(get_sample("wc"), name="wc",
                                stages=("codegen", "brisc"))
        bri3 = repack_v3(res.brisc.image.blob, BRISC_CHUNK_BYTES)
        native = PentiumLike().program_size(res.program)
        return native, bri3

    native, bri3 = benchmark.pedantic(measure, rounds=1, iterations=1)
    index = container_index(bri3)
    chunks = [c.length for c in index.chunks]
    config = PagingConfig(fault_seconds=0.010)

    uniform = paging_run(native, len(bri3), 1_000_000, config)
    measured = paging_run(native, len(bri3), 1_000_000, config,
                          compressed_chunks=chunks)
    rows = []
    for strategy in uniform:
        rows.append([
            strategy,
            str(uniform[strategy].pages_faulted),
            f"{uniform[strategy].total_seconds:.4f}",
            str(measured[strategy].pages_faulted),
            f"{measured[strategy].total_seconds:.4f}",
        ])
    # Delivery: whole container vs the median one-function fetch.
    fetches = [sum(n for _, n in index.ranges_for_function(fn.name))
               for fn in index.functions]
    one = int(statistics.median(fetches))
    for link in (MODEM_28_8, LAN_10M):
        whole = delivery_time(Representation("whole", len(bri3)), link)
        part = delivery_time(Representation("one-function", one), link)
        rows.append([
            f"deliver/{link.name}",
            f"{len(bri3)} B", f"{whole.total_seconds:.3f}s",
            f"{one} B", f"{part.total_seconds:.3f}s",
        ])
        assert part.total_seconds <= whole.total_seconds
    text = render_table(
        ["strategy", "uniform faults", "uniform s",
         "measured chunks", "measured s"], rows)
    save_table(results_dir, "demand_paging_models", text)
