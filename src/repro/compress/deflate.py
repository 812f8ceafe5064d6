"""A deflate-like compressed container: LZ77 tokens + canonical Huffman.

This is the reproduction's stand-in for gzip (the paper's final pipeline
stage and its "packaged LZ compression" baseline).  The format mirrors
DEFLATE's structure — a literal/length alphabet and a distance alphabet,
each with extra bits, both Huffman-coded — but uses a simpler header (raw
4-bit code lengths) and a single block.

Both directions run over the packed-int token stream from
:mod:`repro.compress.lz77`.  Length/distance symbols come from
direct-index tables (one list lookup instead of a reversed linear scan
per match), the encoder emits one joined bit string per block, and the
decoder drives the table-driven Huffman fast path.  The byte format is
unchanged.

Public API::

    compress(data)   -> bytes
    decompress(blob) -> bytes

Tests cross-check against :mod:`zlib` for ratio sanity, but nothing in the
library depends on zlib.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits, decode_guard,
)
from .bitio import BitReader
from .huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    _bits_to_bytes,
    _code_lengths_bits,
    code_lengths_from_frequencies,
    read_code_lengths,
)
from .lz77 import MAX_MATCH, WINDOW_SIZE, detokenize_packed, tokenize_packed

__all__ = ["MIN_BLOCK_BYTES", "compress", "decompress"]

_END_OF_BLOCK = 256

# DEFLATE length codes: (symbol, extra_bits, base_length).
_LENGTH_CODES: List[Tuple[int, int, int]] = []


def _build_length_codes() -> None:
    bases = [
        (257, 0, 3), (258, 0, 4), (259, 0, 5), (260, 0, 6), (261, 0, 7),
        (262, 0, 8), (263, 0, 9), (264, 0, 10), (265, 1, 11), (266, 1, 13),
        (267, 1, 15), (268, 1, 17), (269, 2, 19), (270, 2, 23), (271, 2, 27),
        (272, 2, 31), (273, 3, 35), (274, 3, 43), (275, 3, 51), (276, 3, 59),
        (277, 4, 67), (278, 4, 83), (279, 4, 99), (280, 4, 115), (281, 5, 131),
        (282, 5, 163), (283, 5, 195), (284, 5, 227), (285, 0, 258),
    ]
    _LENGTH_CODES.extend(bases)


_build_length_codes()

_DIST_CODES: List[Tuple[int, int, int]] = [
    (0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4), (4, 1, 5), (5, 1, 7),
    (6, 2, 9), (7, 2, 13), (8, 3, 17), (9, 3, 25), (10, 4, 33), (11, 4, 49),
    (12, 5, 65), (13, 5, 97), (14, 6, 129), (15, 6, 193), (16, 7, 257),
    (17, 7, 385), (18, 8, 513), (19, 8, 769), (20, 9, 1025), (21, 9, 1537),
    (22, 10, 2049), (23, 10, 3073), (24, 11, 4097), (25, 11, 6145),
    (26, 12, 8193), (27, 12, 12289), (28, 13, 16385), (29, 13, 24577),
]

_LITLEN_ALPHABET = 286
_DIST_ALPHABET = 30

#: Bytes in the smallest block :func:`compress` can write.  Every block
#: starts with the 32-bit input length and two code-length tables, each a
#: 32-bit count plus 4 bits per symbol of its alphabet, and holds at least
#: the end-of-block code (one bit or more).  So a payload this long or
#: shorter never compresses, and callers can skip the attempt.
MIN_BLOCK_BYTES = (32 + (32 + 4 * _LITLEN_ALPHABET)
                   + (32 + 4 * _DIST_ALPHABET) + 1 + 7) // 8

# Direct-index tables.  ``_LEN_SYM_OF[length]`` is the symbol whose base is
# the largest not exceeding ``length`` — the same answer the original
# reversed scan over ``_LENGTH_CODES`` produced, one list index per match.
_LEN_SYM_OF: List[int] = [0] * (MAX_MATCH + 1)
for _i, (_sym, _extra, _base) in enumerate(_LENGTH_CODES):
    _hi = _LENGTH_CODES[_i + 1][2] if _i + 1 < len(_LENGTH_CODES) \
        else MAX_MATCH + 1
    for _L in range(_base, _hi):
        _LEN_SYM_OF[_L] = _sym

_DIST_SYM_OF: List[int] = [0] * (WINDOW_SIZE + 1)
for _i, (_sym, _extra, _base) in enumerate(_DIST_CODES):
    _hi = _DIST_CODES[_i + 1][2] if _i + 1 < len(_DIST_CODES) \
        else WINDOW_SIZE + 1
    for _d in range(_base, _hi):
        _DIST_SYM_OF[_d] = _sym

# Per-symbol extra-bit counts and bases (length symbols offset by 257).
_LEN_EXTRA = [extra for _, extra, _ in _LENGTH_CODES]
_LEN_BASE = [base for _, _, base in _LENGTH_CODES]
_DIST_EXTRA = [extra for _, extra, _ in _DIST_CODES]
_DIST_BASE = [base for _, _, base in _DIST_CODES]

#: extra-bit count -> format spec for the MSB-first extra-value bits.
_EXTRA_FMT = ["0%db" % _n for _n in range(14)]


def compress(data: bytes) -> bytes:
    """Compress ``data`` into a single self-describing block."""
    tokens = tokenize_packed(data)
    litlen_freq = [0] * _LITLEN_ALPHABET
    dist_freq = [0] * _DIST_ALPHABET
    for tok in tokens:
        if tok < 256:
            litlen_freq[tok] += 1
        else:
            litlen_freq[_LEN_SYM_OF[tok >> 16]] += 1
            dist_freq[_DIST_SYM_OF[tok & 0xFFFF]] += 1
    litlen_freq[_END_OF_BLOCK] += 1

    litlen_enc = HuffmanEncoder(code_lengths_from_frequencies(litlen_freq))
    dist_used = any(dist_freq)
    dist_enc = HuffmanEncoder(code_lengths_from_frequencies(dist_freq)) if dist_used else None

    lit_bits = litlen_enc.bit_strings
    dist_bits = dist_enc.bit_strings if dist_enc else None
    fmt = _EXTRA_FMT
    parts: List[str] = [
        format(len(data), "032b"),
        _code_lengths_bits(litlen_enc.lengths),
        _code_lengths_bits(
            dist_enc.lengths if dist_enc else [0] * _DIST_ALPHABET),
    ]
    append = parts.append
    for tok in tokens:
        if tok < 256:
            append(lit_bits[tok])
        else:
            length = tok >> 16
            distance = tok & 0xFFFF
            sym = _LEN_SYM_OF[length]
            i = sym - 257
            bits = lit_bits[sym]
            extra = _LEN_EXTRA[i]
            if extra:
                bits += format(length - _LEN_BASE[i], fmt[extra])
            dsym = _DIST_SYM_OF[distance]
            bits += dist_bits[dsym]
            dextra = _DIST_EXTRA[dsym]
            if dextra:
                bits += format(distance - _DIST_BASE[dsym], fmt[dextra])
            append(bits)
    append(lit_bits[_END_OF_BLOCK])
    return _bits_to_bytes("".join(parts))


def decompress(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> bytes:
    """Invert :func:`compress`.

    The declared output size is validated against ``limits`` before any
    allocation, and the token loop stops the moment it would produce more
    bytes than the header declared — a corrupt stream raises a typed
    :class:`~repro.errors.DecodeError` instead of ballooning memory.
    """
    limits = limits or DEFAULT_LIMITS
    with decode_guard("deflate block"):
        r = BitReader(blob)
        expected = r.read_bits(32)
        limits.check("declared deflate output", expected,
                     limits.max_decoded_bytes)
        litlen_dec = HuffmanDecoder(read_code_lengths(r, limits))
        dist_lengths = read_code_lengths(r, limits)
        dist_dec = HuffmanDecoder(dist_lengths) if any(dist_lengths) else None

        decode_litlen = litlen_dec.decode_symbol
        read_bits = r.read_bits
        tokens: List[int] = []
        append = tokens.append
        produced = 0
        while True:
            sym = decode_litlen(r)
            if sym == _END_OF_BLOCK:
                break
            if sym >= _LITLEN_ALPHABET:
                raise CorruptStreamError(f"literal/length symbol {sym} "
                                         "outside the alphabet")
            if sym < 256:
                append(sym)
                produced += 1
            else:
                i = sym - 257
                extra = _LEN_EXTRA[i]
                length = _LEN_BASE[i] + (read_bits(extra) if extra else 0)
                if dist_dec is None:
                    raise CorruptStreamError(
                        "match token but no distance table")
                dsym = dist_dec.decode_symbol(r)
                if dsym >= _DIST_ALPHABET:
                    raise CorruptStreamError(
                        f"invalid distance symbol {dsym}")
                dextra = _DIST_EXTRA[dsym]
                distance = _DIST_BASE[dsym] + (read_bits(dextra) if dextra else 0)
                append((length << 16) | distance)
                produced += length
            if produced > expected:
                raise CorruptStreamError(
                    f"token stream produces more than the declared "
                    f"{expected} bytes")
        out = detokenize_packed(tokens)
        if len(out) != expected:
            raise CorruptStreamError(
                f"decompressed {len(out)} bytes, header said {expected}")
        return out

