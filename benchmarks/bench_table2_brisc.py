"""Table 2 — BRISC results (paper section "Results", K=20).

The paper's table reports, per benchmark and relative to Visual C++ 5.0
Pentium executables: BRISC size (≈ gzip size), JIT code-generation speed
(2.5 MB/s of produced Pentium code on a 120 MHz Pentium), JIT runtime
(within 1.08x of native including compile time), and interpreted runtime
(a typical 12x penalty).

Absolute numbers are not reproducible on a Python-hosted VM (the repro
band for this paper flags interpretation/JIT speeds as unfaithful); the
shape checks below assert the relations that *are* substrate-independent:
sizes ≪ native, JIT throughput ≫ interpretation throughput, interpretation
meaningfully slower than direct execution, and JIT runtime close to 1x.
"""

import pytest

from repro.bench import brisc_row, compressed_suite
from repro.bench.measure import interp_overhead
from repro.brisc import run_image
from repro.jit import jit_compile

SUITE = ["wc", "lcc"]


@pytest.mark.parametrize("name", SUITE)
def test_jit_throughput(benchmark, name):
    """JIT MB/s of produced native code (the paper's 2.5 MB/s metric)."""
    cp = compressed_suite(name)
    result = benchmark(lambda: jit_compile(cp.image.blob))
    benchmark.extra_info["mb_per_second"] = result.mb_per_second
    assert result.output_bytes > 0


def test_brisc_interpretation_kernel(benchmark):
    """In-place interpretation of the compressed wc program."""
    cp = compressed_suite("wc")
    result = benchmark.pedantic(
        lambda: run_image(cp.image.blob, cache_decoded=False),
        rounds=1, iterations=1)
    assert result.exit_code == 0


def test_table2_rows(benchmark):
    """Measure the table's rows and check the paper's shape claims (the
    rendered table is ``python -m repro tables``' output)."""
    rows = benchmark.pedantic(
        lambda: [brisc_row(n) for n in SUITE], rounds=1, iterations=1)

    lcc = next(r for r in rows if r.name == "lcc")
    # Shape claim 1: BRISC is far below native size and in gzip's
    # neighbourhood (the paper: "competitive with gzip in code size").
    assert lcc.brisc_rel < 0.85
    assert lcc.brisc_rel < 3.0 * lcc.gzip_rel
    # Shape claim 2: the JIT is fast in absolute produced-bytes terms and
    # its amortized runtime is close to native (paper: 1.02-1.08x).
    assert lcc.jit_mb_per_s > 0.1
    assert lcc.jit_runtime_ratio < 2.0
    # Shape claim 3: interpretation costs real overhead over direct
    # execution of the uncompressed program (paper: ~12x vs native; here
    # measured against the plain VM interpreter on the same substrate).
    assert lcc.interp_ratio > 1.5


def test_interp_overhead_direction(benchmark):
    """The decode-every-visit interpreter must be slower than the VM."""
    vm_s, brisc_s, ratio = benchmark.pedantic(
        lambda: interp_overhead("wc"), rounds=1, iterations=1)
    assert ratio > 1.0
