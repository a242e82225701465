"""Text-format export: two's complement, hex/bin/dec round trips."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.export.formats import (
    bits_needed,
    format_bin,
    format_hex,
    from_twos_complement,
    load_tensor,
    parse_bin,
    parse_hex,
    save_tensor,
    to_twos_complement,
)


class TestTwosComplement:
    def test_known_8bit(self):
        vals = np.array([0, 1, -1, 127, -128])
        np.testing.assert_array_equal(to_twos_complement(vals, 8), [0, 1, 255, 127, 128])

    def test_roundtrip(self):
        vals = np.array([-8, -1, 0, 3, 7])
        np.testing.assert_array_equal(from_twos_complement(to_twos_complement(vals, 4), 4), vals)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            to_twos_complement(np.array([200]), 8)


class TestFormatting:
    def test_hex_width(self):
        lines = format_hex(np.array([-1, 15]), 8)
        assert lines == ["ff", "0f"]

    def test_hex_16bit_width(self):
        assert format_hex(np.array([-1]), 16) == ["ffff"]

    def test_bin_width(self):
        assert format_bin(np.array([-2]), 4) == ["1110"]

    def test_parse_inverts_format(self, rng):
        vals = rng.integers(-128, 128, 100)
        np.testing.assert_array_equal(parse_hex(format_hex(vals, 8), 8), vals)
        np.testing.assert_array_equal(parse_bin(format_bin(vals, 8), 8), vals)

    def test_bits_needed(self):
        assert bits_needed(np.array([0, 7])) == 4
        assert bits_needed(np.array([-8, 7])) == 4
        assert bits_needed(np.array([-9])) == 8
        assert bits_needed(np.array([127])) == 8
        assert bits_needed(np.array([128])) == 16


class TestFileIO:
    @pytest.mark.parametrize("fmt", ["dec", "hex", "bin"])
    def test_save_load_roundtrip(self, tmp_path, rng, fmt):
        x = rng.integers(-128, 128, (4, 5)).astype(np.int64)
        path = str(tmp_path / f"w.{fmt}")
        save_tensor(path, x, fmt, 8)
        back = load_tensor(path, fmt, 8, shape=(4, 5))
        np.testing.assert_array_equal(back, x)

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensor(str(tmp_path / "x"), np.zeros(3), "oct", 8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2 ** 15), 2 ** 15 - 1), min_size=1, max_size=64))
def test_hex_bin_roundtrip_property(vals):
    arr = np.array(vals)
    np.testing.assert_array_equal(parse_hex(format_hex(arr, 16), 16), arr)
    np.testing.assert_array_equal(parse_bin(format_bin(arr, 16), 16), arr)


MALFORMED = [
    ("hex", ["1ff"], 8),              # too wide
    ("hex", ["-1"], 8),               # signed hex
    ("hex", ["FF"], 8),               # the encoder writes lower case
    ("bin", ["111111111"], 8),        # too wide
    ("dec", ["1_000"], 16),
    ("dec", ["+5"], 16),
    ("dec", ["1", "", "2"], 16),      # blank line
    ("dec", ["٣"], 16),          # ARABIC-INDIC DIGIT THREE
    ("dec", ["1_000", "+5", "", "٣"], 16),
]


@pytest.mark.parametrize("fmt,words,bits", MALFORMED)
def test_malformed_words_are_rejected(tmp_path, fmt, words, bits):
    """The decoders accept exactly what the encoders write; through the
    artifact audit a malformed word is a header mismatch even when every
    digest was re-signed around it."""
    import hashlib
    import json

    from repro.export import manifest_digest, verify_artifacts
    from repro.export.writer import export_state_dict

    data = "".join(w + "\n" for w in words).encode()
    path = tmp_path / f"w.{fmt}"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        load_tensor(str(path), fmt, bits)
    if fmt != "dec":
        with pytest.raises(ValueError):
            {"hex": parse_hex, "bin": parse_bin}[fmt](words, bits)

    out = tmp_path / "art"
    export_state_dict({"w": np.float32([5] * len(words))}, str(out),
                      formats=(fmt,), bits_map={"w": bits})
    (out / f"tensors.{fmt}").write_bytes(data)
    manifest = json.loads((out / "manifest.json").read_text())
    sha = hashlib.sha256(data).hexdigest()
    manifest["tensors"]["w"]["files"][fmt].update(bytes=len(data), sha256=sha)
    manifest["checksums"][f"tensors.{fmt}"] = {"sha256": sha,
                                               "bytes": len(data)}
    manifest["digest"] = manifest_digest(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert [f.rule for f in verify_artifacts(str(out)).findings] == [
        "integrity.header-mismatch"]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.lists(st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1),
             min_size=1, max_size=64))))
def test_codecs_match_the_per_word_reference(case):
    """The vectorised codecs write what a per-word ``format()`` loop
    writes, and read it back."""
    from repro.export.formats import decode_words, encode_words

    bits, vals = case
    arr = np.array(vals, dtype=np.int64)
    words = [v & ((1 << bits) - 1) for v in vals]
    reference = {
        "dec": "".join(f"{v}\n" for v in vals),
        "hex": "".join(format(w, f"0{(bits + 3) // 4}x") + "\n" for w in words),
        "bin": "".join(format(w, f"0{bits}b") + "\n" for w in words),
    }
    for fmt, text in reference.items():
        assert encode_words(arr, fmt, bits) == text.encode(), fmt
        np.testing.assert_array_equal(decode_words(text.encode(), fmt, bits),
                                      arr)


@pytest.mark.parametrize("bits", [4, 5, 12, 32, 64])
def test_codecs_at_the_range_ends(bits):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    vals = np.array([lo, -1, 0, 1, hi], dtype=np.int64)
    np.testing.assert_array_equal(parse_hex(format_hex(vals, bits), bits), vals)
    np.testing.assert_array_equal(parse_bin(format_bin(vals, bits), bits), vals)
    assert format_hex(vals, bits)[0] == format(1 << (bits - 1),
                                                f"0{(bits + 3) // 4}x")
