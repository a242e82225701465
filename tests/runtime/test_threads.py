"""Thread/tiling exactness matrix: any partition, bitwise the same program.

The native kernel's thread pool partitions each conv into disjoint
(sample-block × output-channel-chunk) tasks; the sample block is sized by
the runtime's fixed L2 budget and the register blocking is 8 output
channels, clamped at group ends.  Because the kernel sums in exact int32
arithmetic, *every* partition must produce outputs bitwise identical to
the unfused plan — and to the interpreted tree.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import CompileSpec, Plan
from repro.runtime.program import SAMPLE_BLOCK_BYTES
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

SWEEP_MODELS = ("resnet20", "mobilenet-v1", "vgg8")


@pytest.mark.parametrize("model", SWEEP_MODELS)
@pytest.mark.parametrize("threads", [1, 2, 8])
def test_thread_sweep_is_bit_exact(deployed_factory, unfused_plan, model,
                                   threads):
    d, x, ref = deployed_factory(model)
    plan = Plan.compile(d.qnn, CompileSpec(threads=threads))
    out = plan(x)
    assert np.array_equal(out, ref), (
        f"{model}: fused plan at threads={threads} diverges from the tree")
    assert np.array_equal(unfused_plan(d.qnn)(x), out), (
        f"{model}: threads={threads} diverges from the unfused program")


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_block_batch_is_bit_exact(deployed_factory, threads):
    # 64 samples overflow the sample-block budget, so every native conv
    # runs several blocks (split across the pool when threads > 1)
    d, _, _ = deployed_factory("resnet20")
    x = np.random.default_rng(64).standard_normal(
        (64, 3, 32, 32)).astype(np.float32)
    with no_grad():
        ref = d.qnn(Tensor(x)).data
    plan = Plan.compile(d.qnn, CompileSpec(threads=threads))
    assert np.array_equal(plan(x), ref)
    if any(getattr(op, "native", False) for op in plan.ops):
        arena = plan._bindings[x.shape].arena
        blocks = []  # samples per block: the budget over one group's planes
        for op in plan.ops:
            if op.kind.startswith("conv"):
                plane = arena.cm_buffer(op.src[0])[0, 0].size
                blocks.append(SAMPLE_BLOCK_BYTES
                              // (4 * op.weight.shape[1] * plane))
        assert max(blocks) < 64, blocks


def test_threads_apply_to_numpy_bodies(deployed_factory, no_ckernel):
    # the numpy bodies ignore the pool (they run inline) but the spec must
    # still compile and stay exact
    d, x, ref = deployed_factory("resnet20")
    with no_ckernel():
        plan = Plan.compile(d.qnn, CompileSpec(threads=8))
        assert not any(getattr(op, "native", False) for op in plan.ops)
        assert np.array_equal(plan(x), ref)


def test_oversized_thread_count_is_clamped(deployed_factory):
    # the ABI caps workers at 16; a larger spec value must not corrupt
    # results or crash — it clamps
    d, x, ref = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn, CompileSpec(threads=256))
    assert np.array_equal(plan(x), ref)


def test_determinism_across_repeat_calls(deployed_factory):
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn, CompileSpec(threads=8))
    outs = [plan(x) for _ in range(3)]
    assert all(np.array_equal(outs[0], o) for o in outs[1:])
