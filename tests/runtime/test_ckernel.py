"""The native kernel library: cache keying and the portable body.

``conv_acc.c`` carries two bodies of one contract — AVX-512 VNNI
intrinsics and plain-C int32 — chosen by the compiler at build time.  A
host with VNNI only ever builds the first, so the portable one is built
here explicitly (no ``-march=native``) and driven through whole registry
plans against the interpreted tree.
"""
from __future__ import annotations

import ctypes
import shutil

import numpy as np
import pytest

from repro.runtime import CompileSpec, Plan, ckernel


def test_cache_key_tracks_host_isa(monkeypatch, tmp_path):
    """A library built with -march=native on one CPU must not be loaded
    on a CPU with other ISA flags: the cache path differs per host ISA."""
    paths = set()
    for flags in ("fpu sse2 avx2 avx512f avx512_vnni", "fpu sse2 avx2"):
        monkeypatch.setattr(ckernel, "_isa_fingerprint", lambda f=flags: f)
        paths.add(ckernel._so_path("cc", True, str(tmp_path)))
    assert len(paths) == 2


@pytest.fixture(scope="module")
def portable_kernel(tmp_path_factory):
    cc = next((c for c in ckernel._compilers() if shutil.which(c)), None)
    if cc is None:
        pytest.skip("no C compiler")
    path = ckernel._try_build(cc, False, str(tmp_path_factory.mktemp("ck")))
    if path is None:
        pytest.skip(f"{cc} cannot build the kernel")
    return ckernel.CKernel(ctypes.CDLL(path), path)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model", ["resnet20", "mobilenet-v1"])
def test_portable_body_is_bit_exact(portable_kernel, deployed_factory,
                                    monkeypatch, model, threads):
    assert portable_kernel.isa == "portable"
    monkeypatch.setattr(ckernel, "_loaded", True)
    monkeypatch.setattr(ckernel, "_kernel", portable_kernel)
    d, x, ref = deployed_factory(model)
    plan = Plan.compile(d.qnn, CompileSpec(threads=threads))
    assert any(getattr(op, "native", False) for op in plan.ops)
    assert np.array_equal(plan(x), ref)
    x64 = np.random.default_rng(threads).standard_normal(
        (64, 3, 32, 32)).astype(np.float32)
    with monkeypatch.context() as m:
        m.setattr(ckernel, "_kernel", None)
        tree = Plan.compile(d.qnn, CompileSpec(threads=threads))
        assert not any(getattr(op, "native", False) for op in tree.ops)
        want = tree(x64)
    assert np.array_equal(plan(x64), want)
