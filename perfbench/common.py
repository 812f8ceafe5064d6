"""Helpers shared by the benchmark's entry points: locating the program,
the workloads and their seeded inputs, summary statistics and run
provenance."""

from __future__ import annotations

import gc
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: The op counts below are those of a run of this many ``--seconds``;
#: other run lengths scale them (see :func:`scaled`).
NOMINAL_SECONDS = 24

#: The two input regimes: the low and the high half of the 20-80
#: generated functions per unit that the cold-build loop is specified
#: over.  Every run executes all four phases on units of the regime's
#: band.  Per phase, the fixed op counts of a nominal run: each phase
#: gets about a quarter of it on a 2-core x86 host, and the bigger units
#: of the high band cost more per op, so it runs fewer of them.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "units-20-40": {"functions": (20, 40), "cold_units": 4, "edits": 20},
    "units-40-80": {"functions": (40, 80), "cold_units": 3, "edits": 18},
}

#: Phase order.
PHASES = ("cold-build", "edit-loop", "wire-serve", "run-image")


def scaled(count: int, seconds: float) -> int:
    """``count`` ops of a nominal run, scaled to a run of ``seconds``.

    The amount of work depends on ``--seconds`` and the seed only, never
    on how fast the host is, so two runs of one seed do the same work and
    a faster program simply finishes sooner.
    """
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def require_program() -> None:
    """Exit with status 2, printing no result, when the program's sources
    are not in ``src/`` of this checkout, e.g. in a directory holding
    only the benchmark files."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        sys.exit(2)


def load_repro():
    """Import the program from ``src/`` of this checkout."""
    require_program()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    return repro


#: Mean seconds one :func:`calibration_sample` takes on the reference
#: host (a 2-core x86 VM, Python 3.11, with no neighbour load).
REFERENCE_SAMPLE_S = 0.003


def calibration_sample() -> float:
    """Seconds a fixed pure-Python workload takes.  It touches none of the
    program's code, and runs with the cyclic garbage collector off (it
    makes no cycles), so the size of the process heap cannot move it.

    Half of it allocates (dict updates, tuple and string building, a
    sort), half is small-integer arithmetic.  Against cold compiles, wire
    compiles and VM runs interleaved with it on the reference host, the
    first half alone slowed more than the program in the host's slow
    bursts (1.9x against 1.7-1.8x between the 10th and 90th percentile)
    and the second less (1.4x)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        items = []
        for i in range(3000):
            key = (i * 7919) % 1021
            table[key] = table.get(key, 0) + i
            items.append((key, str(i)))
        items.sort()
        "".join(v for _, v in items[:1000])
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def calibrate(seconds: float) -> List[tuple]:
    """``(start, seconds)`` of calibration samples for ``seconds``, at
    least one."""
    samples = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if samples and start >= end:
            return samples
        samples.append((start, calibration_sample()))


def host_factor(durations: Iterable[float]) -> float:
    """The reference sample time over the mean of calibration sample
    ``durations``: below 1 when the host ran slower than the reference.

    The mean, not the median: an op's time grows in proportion to the
    share of it spent in a slow burst, and so does the mean sample time.
    Times measured between the pauses are reported multiplied by this
    factor and rates divided by it, so they read as if measured on the
    reference host.
    """
    return REFERENCE_SAMPLE_S / statistics.fmean(durations)


def phase_rng(workload: str, phase: str, seed: int, salt: str = "") -> random.Random:
    """The seeded generator behind one phase's inputs."""
    return random.Random(f"{workload}|{phase}|{seed}|{salt}")


def _unit(repro, rng: random.Random, size: int, varied: bool) -> tuple:
    unit_seed = rng.randrange(1, 1_000_000_000)
    arrays, strings = (rng.randint(2, 6), rng.randint(2, 8)) if varied else (4, 5)
    source = repro.corpus.generate_program_source(
        functions=size, seed=unit_seed, arrays=arrays, strings=strings)
    return f"u{unit_seed}_{size}", source


def band_sizes(workload: str, count: int) -> List[int]:
    """``count`` unit sizes spread evenly over the workload's band, ends
    included.  Every seed gets the same sizes, so rates compare across
    seeds; only the units' contents and order vary."""
    lo, hi = WORKLOADS[workload]["functions"]
    if count == 1:
        return [(lo + hi) // 2]
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def draw_units(repro, rng: random.Random, workload: str, count: int,
               size: Optional[int] = None) -> List[tuple]:
    """``count`` seeded generated C units as ``(name, source)``: sized by
    :func:`band_sizes` in a seeded order, with a seeded number of arrays
    and strings; or, given ``size``, all of that size with the middle
    number of each.  Unit seeds start at 1; seed 0 is reserved for the
    warm-up program, which is therefore never measured."""
    sizes = [size] * count if size else band_sizes(workload, count)
    rng.shuffle(sizes)
    return [_unit(repro, rng, n, size is None) for n in sizes]


def iter_units(repro, rng: random.Random, workload: str) -> Iterator[tuple]:
    """Seeded generated units, endlessly, in blocks of five band sizes."""
    while True:
        yield from draw_units(repro, rng, workload, 5)


def warmup_source(repro) -> str:
    """A program outside every measured set (generator seed 0)."""
    return repro.corpus.generate_program_source(functions=3, seed=0)


def clear_builder_caches(repro) -> None:
    """Empty the BRISC builder's process-global size caches.

    They outlive a ``Toolchain`` and are shared by every unit a process
    compiles, so without this each unit after the first would be timed
    on a builder warmed by the units before it.  Raises if the program
    no longer has them, so a rename cannot silently warm the builder.
    """
    import repro.brisc.pattern as pattern

    pattern._ENCODED_SIZE_CACHE.clear()
    pattern._DICT_SIZE_CACHE.clear()


def function_names(source: str) -> List[str]:
    """Names of the functions a generated unit defines, ``main`` included."""
    return re.findall(r"^int (\w+)\(", source, flags=re.M)


#: Expected output of every hand-written sample (the values the corpus
#: tests pin), kept here so the benchmark judges outputs on its own.
GOLDEN = {
    "wc": "4 30 156\n",
    "sort": "-1601061320\n",
    "calc": "7\n21\n16\n20\n182\n",
    "lzss": "120 113\n",
    "hashtab": "235 -1\n",
    "matrix": "12.25\n4.29326\n",
    "life": "8\n",
    "bf": "Hello World!\n\n",
    "queens": "2 10 4 40 92\n",
    "strings": "noisserpmoc edoc\n10\n-1\n16\n",
    "crc32": "738169\n",
    "bst": "1537 11 0\n",
    "rle": "47 14 1\n",
    "stackvm": "120 120\n",
}

#: Numeric literals a same-width edit may change without touching array
#: masks, loop bounds or divisors: switch-arm constants, ``default``
#: assignments and ``if`` comparison constants inside function bodies.
_EDIT_SITES = re.compile(
    r"^(\s*case \d+: \w+ [-+^]= |\s*default: \w+ = |\s*if \(\w+ [<>=!]+ )"
    r"(\d+)", flags=re.M)


def _imm_class(value: int) -> int:
    """The BRISC immediate width class of ``value``; keeping it across an
    edit keeps the edited instruction's operand pattern, so the edit
    usually replays instead of perturbing the dictionary build."""
    if value % 4 == 0 and value < 64:
        return 0
    return 1 if value < 128 else 2


def edit_literal(rng: random.Random, source: str, seen: set) -> str:
    """``source`` with one numeric literal inside a function body replaced
    by another of the same width and immediate class; never a source in
    ``seen``."""
    sites = list(_EDIT_SITES.finditer(source))
    if not sites:
        raise ValueError("unit has no editable literal")
    while True:
        site = rng.choice(sites)
        old = site.group(2)
        width = len(old)
        lo = 1 if width == 1 else 10 ** (width - 1)
        new = str(rng.randint(lo, 10 ** width - 1))
        if new == old or _imm_class(int(new)) != _imm_class(int(old)):
            continue
        start, end = site.span(2)
        edited = source[:start] + new + source[end:]
        if edited not in seen:
            seen.add(edited)
            return edited


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values``."""
    vals = sorted(values)
    if not vals:
        return {"n": 0}
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    vals = sorted(values)
    rank = max(1, -(-len(vals) * pct // 100))
    return vals[int(rank) - 1]


def provenance(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """Where and when a result was measured."""
    sha, dirty = None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            dirty = bool(status.stdout.strip())
            sha = sha.stdout.strip()
        else:
            sha = None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
    }
