"""CLI (`python -m repro`) tests."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import repro.__main__
from repro.__main__ import main

from .test_pipeline import REGISTER_PRESSURE, UNDEFINED_CALLEE

HELLO = """
int sq(int x) { return x * x; }
int main(void) { print_int(sq(7)); putchar('\\n'); return 0; }
"""


@pytest.fixture
def hello_c(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return str(path)


def test_run(hello_c, capsys):
    assert main(["run", hello_c]) == 0
    assert capsys.readouterr().out == "49\n"


def test_dump_ir(hello_c, capsys):
    assert main(["dump-ir", hello_c]) == 0
    out = capsys.readouterr().out
    assert "MULI" in out and "RETI" in out


def test_dump_asm(hello_c, capsys):
    assert main(["dump-asm", hello_c]) == 0
    out = capsys.readouterr().out
    assert "enter sp,sp," in out and "rjr ra" in out


def test_sizes(hello_c, capsys):
    assert main(["sizes", hello_c]) == 0
    out = capsys.readouterr().out
    assert "BRISC code segment" in out
    assert "wire format" in out


def test_sizes_json(hello_c, capsys):
    assert main(["sizes", hello_c, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    sizes = payload["sizes"]
    for key in ("sparc_native", "pentium_native", "vm", "deflate_vm",
                "wire", "wire_code", "brisc", "brisc_code"):
        assert isinstance(sizes[key], int) and sizes[key] > 0
    assert payload["brisc_patterns"] > 0


def test_stats(hello_c, capsys):
    assert main(["stats", hello_c]) == 0
    out = capsys.readouterr().out
    for stage in ("parse", "lower", "codegen", "wire", "brisc", "deflate"):
        assert stage in out
    assert "cache:" in out


def test_stats_json(hello_c, capsys):
    assert main(["stats", hello_c, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["stage"] for row in payload["stages"]] == \
        ["parse", "lower", "codegen", "wire", "brisc", "deflate"]
    assert "toolchain" in payload


def test_disk_cache_across_invocations(hello_c, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--cache-dir", cache_dir, "sizes", hello_c]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "stats", hello_c]) == 0
    out = capsys.readouterr().out
    assert "yes" in out  # stages served from the on-disk cache


def test_wire_output(hello_c, tmp_path, capsys):
    out_path = str(tmp_path / "out.wire")
    assert main(["wire", hello_c, "-o", out_path]) == 0
    blob = open(out_path, "rb").read()
    assert blob[:4] == b"WIR2"


def test_wire_blob_independent_of_directory(tmp_path, capsys):
    """The blob stores the unit's name: the CLI names a unit after the
    file's basename, so the same source gives the same bytes anywhere."""
    blobs = []
    for directory in (tmp_path / "a", tmp_path / "b" / "c"):
        directory.mkdir(parents=True)
        (directory / "hello.c").write_text(HELLO)
        out = directory / "hello.wire"
        assert main(["wire", str(directory / "hello.c"), "-o", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_brisc_roundtrip_via_cli(hello_c, tmp_path, capsys):
    image = str(tmp_path / "out.brisc")
    assert main(["brisc", hello_c, "-o", image]) == 0
    capsys.readouterr()
    assert main(["exec-brisc", image]) == 0
    assert capsys.readouterr().out == "49\n"


#: Sources that fail in the front end, at run time, and in the back end.
FAILING = {
    "undeclared": "int main(void) { return undeclared; }",
    "division-by-zero":
        "int main(void){int a=1; int b=0; print_int(a/b); return 0;}",
    "globals-overflow":
        "int big[1000000]; int y = 5; int main(void) { return y; }",
    "register-pressure": REGISTER_PRESSURE,
}


@pytest.mark.parametrize("source", FAILING.values(), ids=FAILING.keys())
def test_compile_error_reported(tmp_path, capsys, source):
    bad = tmp_path / "bad.c"
    bad.write_text(source)
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["brisc", "sizes", "run"])
def test_undefined_callee_reported(tmp_path, capsys, command):
    bad = tmp_path / "bad.c"
    bad.write_text(UNDEFINED_CALLEE)
    args = [command, str(bad)]
    if command == "brisc":
        args += ["-o", str(tmp_path / "bad.brisc")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: undefined symbol 'helper' in main\n"


def test_corrupt_image_reported(hello_c, tmp_path, capsys):
    image = tmp_path / "hello.brisc"
    assert main(["brisc", hello_c, "-o", str(image)]) == 0
    blob = bytearray(image.read_bytes())
    blob[8] ^= 1  # the first payload bit: the CRC no longer matches
    image.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["exec-brisc", str(image)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_input_reported(capsys):
    assert main(["run", "does-not-exist.c"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_exit_code_propagates(tmp_path):
    src = tmp_path / "exit3.c"
    src.write_text("int main(void) { return 3; }")
    assert main(["run", str(src)]) == 3


def test_tables_refuses_cache_flags(tmp_path, capsys):
    """``tables`` measures through the shared toolchain, which the
    top-level cache flags do not reach: it refuses them rather than
    ignore them."""
    cache, results = tmp_path / "cache", tmp_path / "results"
    for flags in (["--disk-cache"], ["--cache-dir", str(cache)]):
        assert main(flags + ["tables", "--units", "wc", "--skip-interp",
                             "--results-dir", str(results)]) == 2
        err = capsys.readouterr().err
        assert "REPRO_DISK_CACHE=1" in err and "REPRO_CACHE_DIR" in err
    assert not cache.exists() and not results.exists()


def test_tables_units_is_one_comma_separated_list(tmp_path, monkeypatch):
    """``tables --units`` takes its list the way ``fuzz --units`` does."""
    from repro.bench import regen

    asked = []
    monkeypatch.setattr(regen, "regenerate_tables",
                        lambda units, skip_interp: asked.append(units) or {})
    assert main(["tables", "--units", "wc,gcc", "--skip-interp",
                 "--results-dir", str(tmp_path)]) == 0
    assert asked == [["wc", "gcc"]]


# ---------------------------------------------------------------------------
# verify / fuzz
# ---------------------------------------------------------------------------


@pytest.fixture
def wire_blob_path(hello_c, tmp_path, capsys):
    out_path = str(tmp_path / "v.wire")
    assert main(["wire", hello_c, "-o", out_path]) == 0
    capsys.readouterr()
    return out_path


def test_verify_clean_wire(wire_blob_path, capsys):
    assert main(["verify", wire_blob_path]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_clean_brisc(hello_c, tmp_path, capsys):
    image = str(tmp_path / "v.brisc")
    assert main(["brisc", hello_c, "-o", image]) == 0
    capsys.readouterr()
    assert main(["verify", image]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_corrupt_exits_1(wire_blob_path, capsys):
    blob = bytearray(open(wire_blob_path, "rb").read())
    blob[len(blob) // 2] ^= 0x20
    open(wire_blob_path, "wb").write(bytes(blob))
    assert main(["verify", wire_blob_path]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_verify_unknown_magic_exits_2(tmp_path, capsys):
    path = str(tmp_path / "mystery.bin")
    open(path, "wb").write(b"GIF89a" + bytes(64))
    assert main(["verify", path]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_verify_future_version_exits_2(wire_blob_path, capsys):
    blob = open(wire_blob_path, "rb").read()
    open(wire_blob_path, "wb").write(b"WIR9" + blob[4:])
    assert main(["verify", wire_blob_path]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--seed", "5", "--mutations", "20",
                 "--units", "wc", "--formats", "wire"]) == 0
    out = capsys.readouterr().out
    assert "wc.wire" in out and "0 contract violations" in out


def test_fuzz_rejects_unknown_format(capsys):
    assert main(["fuzz", "--formats", "tar"]) == 2
    assert "unknown formats" in capsys.readouterr().err


def test_fuzz_rejects_bad_chunk_bytes(capsys):
    assert main(["fuzz", "--formats", "wire3", "--chunk-bytes", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: --chunk-bytes must be >= 1, got 0\n"


def test_fuzz_chunked_formats(capsys):
    """wire3/brisc3 run both the byte sweep and the isolation harness."""
    assert main(["fuzz", "--seed", "5", "--mutations", "10",
                 "--units", "wc", "--formats", "wire3,brisc3",
                 "--chunk-bytes", "256"]) == 0
    out = capsys.readouterr().out
    assert "wc.wire3" in out and "wc.brisc3" in out
    assert "[chunks]" in out and "0 contract violations" in out


def test_fuzz_flat_and_chunked_formats_together(capsys):
    """A flat format is fuzzed beside its chunked one, not dropped."""
    assert main(["fuzz", "--seed", "5", "--mutations", "5",
                 "--units", "wc", "--formats", "wire,wire3"]) == 0
    out = capsys.readouterr().out
    assert "wc.wire:" in out and "wc.wire3:" in out
    assert "wc.wire3[chunks]:" in out


# ---------------------------------------------------------------------------
# seekable containers: verify --function
# ---------------------------------------------------------------------------


@pytest.fixture
def wire3_blob_path(hello_c, tmp_path, capsys):
    from repro.cfront import compile_to_ast
    from repro.ir import lower_unit
    from repro.wire import encode_module_v3

    module = lower_unit(compile_to_ast(HELLO, "hello"), "hello")
    blob = encode_module_v3(module, chunk_bytes=64)
    path = tmp_path / "v.wir3"
    path.write_bytes(blob)
    return str(path)


def test_verify_function_on_chunked_container(wire3_blob_path, capsys):
    assert main(["verify", wire3_blob_path, "--function", "sq"]) == 0
    assert "wire function 'sq'" in capsys.readouterr().out


def test_verify_function_on_sparse_container(wire3_blob_path, tmp_path,
                                             capsys):
    """A container holding only one function's chunks still verifies."""
    from repro.container import assemble_sparse, container_index

    blob = open(wire3_blob_path, "rb").read()
    ranges = container_index(blob).ranges_for_function("sq")
    sparse = assemble_sparse(len(blob),
                             [(o, blob[o:o + n]) for o, n in ranges])
    path = tmp_path / "sparse.wir3"
    path.write_bytes(sparse)
    assert main(["verify", str(path), "--function", "sq"]) == 0
    capsys.readouterr()
    # The full-module check on the same sparse blob must fail loudly --
    # the unfetched chunks are zero filler.
    assert main(["verify", str(path)]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_verify_function_missing_exits_1(wire3_blob_path, capsys):
    assert main(["verify", wire3_blob_path, "--function", "nope"]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_verify_function_corrupt_chunk_exits_1(wire3_blob_path, capsys):
    from random import Random

    from repro.container import container_index
    from repro.faults import corrupt_chunk

    blob = open(wire3_blob_path, "rb").read()
    index = container_index(blob)
    victim = index.chunk_of("sq")
    open(wire3_blob_path, "wb").write(
        corrupt_chunk(blob, victim.index, Random(1)))
    assert main(["verify", wire3_blob_path, "--function", "sq"]) == 1
    assert "CRC" in capsys.readouterr().err


def test_cache_inspect_and_prune(hello_c, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    # Warm the store through a disk-cached compile.
    assert main(["--cache-dir", cache_dir, "sizes", hello_c]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "cache"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and " 0\n" not in out.split("entries")[1][:12]
    # Prune to zero evicts everything.
    assert main(["--cache-dir", cache_dir, "cache", "--prune",
                 "--max-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "pruned" in out
    assert main(["--cache-dir", cache_dir, "cache"]) == 0
    assert "entries   : 0" in capsys.readouterr().out


def test_cache_prune_requires_max_bytes(tmp_path, capsys):
    assert main(["--cache-dir", str(tmp_path), "cache", "--prune"]) == 2
    assert "--max-bytes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documented invocations
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent

#: Documents whose ``python -m repro`` examples must parse.
DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")

#: ``python -m repro`` and its words, up to the end of the line or code
#: span, a shell comment, or a shell operator.
INVOCATION = re.compile(r"python3? -m repro\b([^\n`#&|;]*)")


def code_snippets(markdown):
    """Lines of fenced code blocks (backslash continuations joined) and
    inline code spans (which may wrap across lines) of a document."""
    fenced, prose = [], []
    in_fence = False
    for line in markdown.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
        else:
            (fenced if in_fence else prose).append(line)
    yield from "\n".join(fenced).replace("\\\n", " ").splitlines()
    for span in re.findall(r"`([^`]+)`", "\n".join(prose)):
        yield span.replace("\n", " ")


def documented_invocations():
    """``(document, words after "python -m repro")`` for every example."""
    sources = [(doc, list(code_snippets((REPO / doc).read_text())))
               for doc in DOCS]
    sources.append(("repro.__main__", repro.__main__.__doc__.splitlines()))
    return [(doc, match.group(1).split())
            for doc, snippets in sources
            for snippet in snippets
            for match in INVOCATION.finditer(snippet)]


def help_text(argv):
    """``main(argv + ["--help"])``'s output, or ``None`` unless it exits 0."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--help"])
    return out.getvalue() if exc_info.value.code == 0 else None


def has_flag(text, flag):
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)


def test_every_documented_invocation_parses():
    invocations = documented_invocations()
    assert {doc for doc, _ in invocations} == {*DOCS, "repro.__main__"}
    top = help_text([])
    # Top-level options that take a value, e.g. "[--cache-dir CACHE_DIR]".
    valued = set(re.findall(r"\[(--[\w-]+) [A-Z_]+\]", top))
    problems = []
    for doc, words in invocations:
        if not words:
            continue  # the CLI named in prose, not an invocation
        example = f"{doc}: python -m repro {' '.join(words)}"
        i = 0
        while i < len(words) and words[i].startswith("-"):
            if not has_flag(top, words[i].split("=")[0]):
                problems.append(f"{example}: no top-level {words[i]}")
            i += 2 if words[i] in valued else 1
        if i == len(words):
            problems.append(f"{example}: names no subcommand")
            continue
        if words[i].startswith("<"):
            continue  # a placeholder such as <cmd>
        for command in words[i].split("/"):  # "sizes/stats" lists two
            text = help_text([command])
            if text is None:
                problems.append(f"{example}: no subcommand {command!r}")
                continue
            problems += [f"{example}: {command} has no {word}"
                         for word in words[i + 1:] if word.startswith("-")
                         and not has_flag(text, word.split("=")[0])]
    assert not problems, "\n".join(problems)

