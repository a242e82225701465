"""Injector determinism and damage contracts.

The harness's value rests on replayability: the same seed must produce the
same fault, byte for byte, so a missed detection can be re-run and debugged.
"""
import os
import shutil

import numpy as np
import pytest

from repro.chaos import CATALOG
from repro.export.integrity import verify_artifacts

ARTIFACT = sorted(n for n, row in CATALOG.items() if row.kind == "artifact")


def _copy(clean_export, tmp_path, name):
    dst = str(tmp_path / name)
    shutil.copytree(clean_export, dst)
    return dst


def _dir_bytes(d):
    return {n: open(os.path.join(d, n), "rb").read()
            for n in sorted(os.listdir(d))}


@pytest.mark.parametrize("name", ARTIFACT)
class TestArtifactInjectors:
    def test_deterministic_under_fixed_seed(self, clean_export, tmp_path,
                                            name):
        inject = CATALOG[name].inject
        a = _copy(clean_export, tmp_path, "a")
        b = _copy(clean_export, tmp_path, "b")
        da = inject(a, np.random.default_rng([7, 0]))
        db = inject(b, np.random.default_rng([7, 0]))
        assert da == db
        assert _dir_bytes(a) == _dir_bytes(b), \
            "same seed must produce byte-identical damage"

    def test_different_seed_differs(self, clean_export, tmp_path, name):
        inject = CATALOG[name].inject
        damage = set()
        for seed in range(4):
            d = _copy(clean_export, tmp_path, f"s{seed}")
            inject(d, np.random.default_rng([seed, 0]))
            damage.add(tuple(sorted(
                (n, v) for n, v in _dir_bytes(d).items())))
        assert len(damage) > 1, "seeds should explore different faults"

    def test_damage_actually_fails_verification(self, clean_export, tmp_path,
                                                name):
        d = _copy(clean_export, tmp_path, "dmg")
        CATALOG[name].inject(d, np.random.default_rng([1, 0]))
        assert not verify_artifacts(d).ok

    def test_only_target_directory_is_touched(self, clean_export, tmp_path,
                                              name):
        before = _dir_bytes(clean_export)
        d = _copy(clean_export, tmp_path, "x")
        CATALOG[name].inject(d, np.random.default_rng([2, 0]))
        assert _dir_bytes(clean_export) == before


def test_flip_bits_flips_exactly_n(clean_export, tmp_path):
    from repro.chaos import flip_bits

    d = _copy(clean_export, tmp_path, "n")
    details = flip_bits(d, np.random.default_rng([0, 0]), n_bits=3)
    assert len(details["bits_flipped"]) == 3
    orig = open(os.path.join(clean_export, details["file"]), "rb").read()
    new = open(os.path.join(d, details["file"]), "rb").read()
    diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(orig, new))
    assert diff_bits == 3


def test_truncate_respects_fraction(clean_export, tmp_path):
    from repro.chaos import truncate_file

    d = _copy(clean_export, tmp_path, "t")
    details = truncate_file(d, np.random.default_rng([0, 0]),
                            keep_fraction=0.25)
    assert details["bytes_after"] < details["bytes_before"]
    assert os.path.getsize(os.path.join(d, details["file"])) \
        == details["bytes_after"]


def test_corrupt_header_resigns_bookkeeping(clean_export, tmp_path):
    """corrupt_header's whole point: checksums and digest stay consistent, so
    only the semantic header/payload check may fire — never a byte-level one."""
    d = _copy(clean_export, tmp_path, "h")
    from repro.chaos import corrupt_header

    corrupt_header(d, np.random.default_rng([5, 0]))
    rules = {f.rule for f in verify_artifacts(d).findings}
    assert "integrity.checksum-mismatch" not in rules
    assert "integrity.stale-manifest" not in rules
    assert rules & {"integrity.header-mismatch", "integrity.truncated"}


def test_stale_manifest_trips_digest(clean_export, tmp_path):
    from repro.chaos import stale_manifest

    d = _copy(clean_export, tmp_path, "m")
    stale_manifest(d, np.random.default_rng([0, 0]))
    rules = {f.rule for f in verify_artifacts(d).findings}
    assert "integrity.stale-manifest" in rules
