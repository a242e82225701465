"""Raw integer tensor serialization: decimal / hexadecimal / binary text.

HDL memory initialization (``$readmemh`` / ``$readmemb``) expects one
fixed-width two's-complement word per line; decimal is the human-readable
debugging format.  All functions operate on flattened tensors; the writer
records shapes in the manifest.

The codecs are vectorised and strict.  :func:`encode_words` builds one
``uint8`` character matrix (hex/bin: digits looked up from the word's
big-endian bytes; dec: a per-value table when the value range is smaller
than the tensor).  :func:`decode_words` accepts exactly what it emits — one
``-?[0-9]+`` decimal, or one fixed-width hex/bin word, per ``\\n``-terminated
line — and raises ``ValueError`` on anything else: a word of the wrong
width, a sign on a hex/bin word, a blank line, ``+``/``_``/non-ASCII digits.
"""
from __future__ import annotations

import math
from typing import List

import numpy as np

_NL = ord("\n")
_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
#: byte -> digit value; 0xFF marks every byte that is not a hex digit
_HEX_VALUE = np.full(256, 0xFF, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789", np.uint8)] = np.arange(10)
_HEX_VALUE[np.frombuffer(b"abcdef", np.uint8)] = np.arange(10, 16)
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[np.frombuffer(b"0123456789", np.uint8)] = True
_DEC_BYTE = _IS_DIGIT.copy()
_DEC_BYTE[[ord("-"), _NL]] = True


def bits_needed(x: np.ndarray) -> int:
    """Smallest power-of-two word width (>= 4) holding all values signed."""
    lo, hi = float(x.min()), float(x.max())
    need = 1
    for v in (lo, hi):
        if v < 0:
            need = max(need, int(math.ceil(math.log2(-v))) + 1)
        elif v > 0:
            need = max(need, int(math.ceil(math.log2(v + 1))) + 1)
    width = 4
    while width < need:
        width *= 2
    return width


def _range(bits: int):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def to_twos_complement(x: np.ndarray, bits: int) -> np.ndarray:
    """Map signed integers onto their unsigned two's-complement words."""
    x = np.asarray(np.round(x), dtype=np.int64)
    lo, hi = _range(bits)
    if x.size and (x.min() < lo or x.max() > hi):
        raise ValueError(f"values out of range for {bits}-bit two's complement")
    return x.astype(np.uint64) & np.uint64((1 << bits) - 1)


def from_twos_complement(u: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`to_twos_complement` (sign-extends ``bits``-bit
    words to ``int64``)."""
    shift = np.uint64(64 - bits)
    u = np.asarray(u).astype(np.uint64)
    return (u << shift).view(np.int64) >> np.int64(64 - bits)


def _be_bytes(words: np.ndarray, bits: int) -> np.ndarray:
    """``(n, k)`` big-endian bytes of each word, ``k`` in {1, 2, 4, 8}."""
    k = 1 << max(0, (bits - 1).bit_length() - 3)
    return words.astype(f">u{k}").view(np.uint8).reshape(-1, k)


def _word_width(fmt: str, bits: int) -> int:
    return (bits + 3) // 4 if fmt == "hex" else bits


def _encode_fixed(flat: np.ndarray, fmt: str, bits: int) -> bytes:
    raw = _be_bytes(to_twos_complement(flat, bits), bits)
    if fmt == "hex":
        digits = np.empty((raw.shape[0], 2 * raw.shape[1]), dtype=np.uint8)
        digits[:, 0::2] = raw >> 4
        digits[:, 1::2] = raw & 0xF
    else:
        digits = np.unpackbits(raw, axis=1)
    width = _word_width(fmt, bits)
    text = np.empty((raw.shape[0], width + 1), dtype=np.uint8)
    text[:, :width] = _DIGITS[digits[:, digits.shape[1] - width:]]
    text[:, width] = _NL
    return text.tobytes()


def _encode_dec(flat: np.ndarray) -> bytes:
    if not flat.size:
        return b""
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo < flat.size:
        # NUL-padded fixed-width rows, one per distinct value; the padding
        # is stripped in one C-level pass
        table = np.array([b"%d\n" % v for v in range(lo, hi + 1)])
        return table[flat - lo].tobytes().replace(b"\0", b"")
    return ("\n".join(map(str, flat.tolist())) + "\n").encode()


def encode_words(x: np.ndarray, fmt: str, bits: int) -> bytes:
    """One ``\\n``-terminated word per element of ``x`` (row-major)."""
    flat = np.asarray(np.round(x), dtype=np.int64).reshape(-1)
    if fmt == "dec":
        return _encode_dec(flat)
    if fmt in ("hex", "bin"):
        return _encode_fixed(flat, fmt, bits)
    raise ValueError(f"unknown format {fmt!r} (want dec/hex/bin)")


def _line_of(a: np.ndarray, at: int) -> str:
    """``line N`` holding byte ``at``."""
    return f"line {int(np.count_nonzero(a[:at] == _NL)) + 1}"


def _decode_fixed(a: np.ndarray, fmt: str, bits: int) -> np.ndarray:
    width = _word_width(fmt, bits)
    if a.size % (width + 1):
        raise ValueError(f"{fmt} text is not a sequence of {width}-digit "
                         f"words, one per line")
    rows = a.reshape(-1, width + 1)
    digits = _HEX_VALUE[rows[:, :width]]
    bad = (digits >= (16 if fmt == "hex" else 2)).any(axis=1)
    bad |= rows[:, width] != _NL
    if bad.any():
        raise ValueError(f"malformed {width}-digit {fmt} word at "
                         f"{_line_of(a, int(np.argmax(bad)) * (width + 1))}")
    k = 1 << max(0, (bits - 1).bit_length() - 3)
    full = np.zeros((rows.shape[0], (2 if fmt == "hex" else 8) * k),
                    dtype=np.uint8)
    full[:, full.shape[1] - width:] = digits
    if fmt == "hex":
        raw = (full[:, 0::2] << 4) | full[:, 1::2]
    else:
        raw = np.packbits(full, axis=1)
    words = raw.view(f">u{k}").reshape(-1).astype(np.uint64)
    if bits < 64:
        over = (words >> np.uint64(bits)) != 0
        if over.any():
            raise ValueError(f"{fmt} word wider than {bits} bits at "
                             f"{_line_of(a, int(np.argmax(over)) * (width + 1))}")
    return from_twos_complement(words, bits)


def _decode_dec(data: bytes, a: np.ndarray, bits: int) -> np.ndarray:
    if not a.size:
        return np.zeros(0, dtype=np.int64)
    newline = a == _NL
    line_start = np.empty(a.size, dtype=bool)
    line_start[0] = True
    line_start[1:] = newline[:-1]
    minus = a == ord("-")
    # grammar: every line is -?[0-9]+ and ends with a newline
    bad = ~_DEC_BYTE[a] | (line_start & newline) | (minus & ~line_start)
    bad[:-1] |= minus[:-1] & ~_IS_DIGIT[a[1:]]
    bad[-1] |= not newline[-1]
    if bad.any():
        raise ValueError(f"malformed dec word at "
                         f"{_line_of(a, int(np.argmax(bad)))}")
    vals = np.fromstring(data, dtype=np.int64, sep="\n")
    if vals.size != int(np.count_nonzero(newline)):
        raise ValueError("dec text did not parse to one value per line")
    lo, hi = _range(bits)
    if vals.min() < lo or vals.max() > hi:
        raise ValueError(f"dec values span [{int(vals.min())}, "
                         f"{int(vals.max())}], outside the {bits}-bit range")
    return vals


def decode_words(data: bytes, fmt: str, bits: int) -> np.ndarray:
    """Inverse of :func:`encode_words`: flat ``int64`` values.  Raises
    ``ValueError`` on any byte :func:`encode_words` would not have written."""
    a = np.frombuffer(data, dtype=np.uint8)
    if fmt == "dec":
        return _decode_dec(data, a, bits)
    if fmt in ("hex", "bin"):
        return _decode_fixed(a, fmt, bits)
    raise ValueError(f"unknown format {fmt!r} (want dec/hex/bin)")


def _lines_to_bytes(lines: List[str]) -> bytes:
    return "".join(s + "\n" for s in lines).encode()


def format_hex(x: np.ndarray, bits: int) -> List[str]:
    """One fixed-width hex word per element (row-major order)."""
    return encode_words(x, "hex", bits).decode().split("\n")[:-1]


def format_bin(x: np.ndarray, bits: int) -> List[str]:
    """One fixed-width binary word per element (row-major order)."""
    return encode_words(x, "bin", bits).decode().split("\n")[:-1]


def parse_hex(lines: List[str], bits: int) -> np.ndarray:
    return decode_words(_lines_to_bytes(lines), "hex", bits)


def parse_bin(lines: List[str], bits: int) -> np.ndarray:
    return decode_words(_lines_to_bytes(lines), "bin", bits)


def save_tensor(path: str, x: np.ndarray, fmt: str, bits: int) -> None:
    """Write a flattened integer tensor in the requested text format."""
    data = encode_words(x, fmt, bits)
    with open(path, "wb") as f:
        f.write(data)


def load_tensor(path: str, fmt: str, bits: int, shape=None) -> np.ndarray:
    """Read a tensor written by :func:`save_tensor`."""
    with open(path, "rb") as f:
        arr = decode_words(f.read(), fmt, bits)
    return arr.reshape(shape) if shape is not None else arr
