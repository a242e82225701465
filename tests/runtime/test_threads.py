"""Thread/tiling exactness matrix: any partition, bitwise the same program.

The native kernel's thread pool partitions each conv into disjoint
(sample-block × output-channel-chunk) tasks; the sample block is sized by
the runtime's fixed L2 budget and the register blocking is 8 output
channels, clamped at group ends.  Because the kernel sums in exact int32
arithmetic, *every* partition must produce outputs bitwise identical to
the unfused plan — and to the interpreted tree.

Many Python threads may also call one plan at once: each gets its own
bindings, the integrity sweeps reach all of them, and a fork after a
threaded run leaves the child a working kernel pool.
"""
from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.runtime import CompileSpec, Plan, ckernel
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
        arena = plan._tls.by_shape[x.shape].arena
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


# ------------------------------------------------- many threads, one plan
CONCURRENT_MODELS = ("resnet20", "mobilenet-v1", "vit-7")


@pytest.mark.parametrize("body", ["native", "numpy"])
@pytest.mark.parametrize("model", CONCURRENT_MODELS)
@pytest.mark.parametrize("callers", [2, 4])
def test_concurrent_calls_on_one_plan_are_bit_exact(deployed_factory,
                                                    no_ckernel, model, body,
                                                    callers):
    """Threads calling one plan at once on the same batch shape each get
    their own binding: every answer is bitwise the tree's, as if it ran
    alone.  A shared arena would hand one thread another's registers."""
    d, x, _ = deployed_factory(model)
    batches = [x * np.float32(1 + 0.25 * i) for i in range(callers)]
    with no_grad():
        refs = [d.qnn(Tensor(b)).data for b in batches]
    rounds = 6
    with contextlib.ExitStack() as stack:
        if body == "numpy":
            stack.enter_context(no_ckernel())
        plan = Plan.compile(d.qnn)
        start = threading.Barrier(callers)
        outs = [[] for _ in range(callers)]
        errors = []

        def caller(k):
            try:
                start.wait(timeout=30)
                for r in range(rounds):
                    i = (k + r) % callers   # every batch on every thread
                    outs[k].append((i, plan(batches[i])))
            except Exception as exc:   # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(callers)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the callers' bytecode
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    assert not errors, errors
    for k in range(callers):
        assert len(outs[k]) == rounds
        for i, y in outs[k]:
            assert np.array_equal(y, refs[i]), (
                f"{model} ({body}): thread {k} diverges on batch {i}")
    assert len(plan.live_bindings()) == 0, "dead threads' bindings leaked"
    # op_report counts every execution: no update lost between threads
    assert int(plan._op_calls.min()) == callers * rounds


def test_scrub_and_abft_reach_a_binding_made_on_another_thread(
        deployed_factory):
    """The integrity sweeps see every live binding, not just the calling
    thread's: a guard word flipped in an executor thread's arena fails the
    scrub run from the main thread, and the ABFT checker verifies that
    thread's registers."""
    from repro.integrity import SDCDetected

    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    bound, done = threading.Event(), threading.Event()

    def executor():
        plan(x)
        bound.set()
        done.wait(60)   # keeps the thread, and so its binding, alive

    t = threading.Thread(target=executor)
    t.start()
    try:
        assert bound.wait(60)
        assert not plan._tls.by_shape, "the main thread never ran the plan"
        [binding] = plan.live_bindings()
        assert binding.shape == x.shape
        assert plan.scrub().ok
        arena = binding.arena
        reg = next(r for r in sorted(arena._cm_bufs)
                   if arena.pads.get(r, 0) > 0)
        arena._cm_bufs[reg][0, 0, 0, 0] = 7
        report = plan.scrub()
        assert report.guard_faults == [{"binding": list(x.shape),
                                        "register": reg}]
        arena._cm_bufs[reg][0, 0, 0, 0] = 0
        assert plan.scrub().ok

        checker = plan.enable_abft(sample_every=1)
        for _ in checker._targets:          # clean registers pass
            checker.check(binding)
        conv = next(i for i in checker._targets
                    if plan.ops[i].kind == "conv_mq")
        checker._cursor = checker._targets.index(conv)
        center = arena.cm_center(plan.ops[conv].dst)
        center[0, 0, 0, 0] = center[0, 0, 0, 0] ^ 1   # corrupt one output
        with pytest.raises(SDCDetected):
            checker.check(binding)
    finally:
        done.set()
        t.join(timeout=60)


_FORK_AFTER_THREADED_PLAN = """
import os
import numpy as np
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.runtime import CompileSpec

rng = np.random.default_rng(0)
qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                    QConfig(8, 8))
calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                     for _ in range(2)])
plan = deploy(qm, DeploySpec(compile=CompileSpec(threads=2))).plan
x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
want = plan(x)  # parks a native pool worker in the parent before fork()
pid = os.fork()
if pid == 0:
    ok = all(np.array_equal(plan(x), want) for _ in range(4))
    os._exit(0 if ok else 3)
_, status = os.waitpid(pid, 0)
assert os.WEXITSTATUS(status) == 0, status
print("bit-exact")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_after_threaded_plan_does_not_hang():
    """A program that forks after running a threads=2 plan: the child must
    not inherit the parent's native thread-pool condvars (they still count
    the parent's parked worker, and the child's first broadcast would wait
    for that phantom forever)."""
    if ckernel.load() is None:
        pytest.skip("needs the native kernel")
    proc = subprocess.Popen([sys.executable, "-c", _FORK_AFTER_THREADED_PLAN],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env={**os.environ,
                                 "PYTHONPATH": os.pathsep.join(sys.path)})
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the wedged child too
        proc.communicate()
        pytest.fail("a forked child running a threads=2 plan still blocked "
                    "after 30 s")
    assert proc.returncode == 0 and "bit-exact" in out, err
