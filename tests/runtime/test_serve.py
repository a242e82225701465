"""plan.serve() fallback paths, worker-death hardening, telemetry hygiene.

The offline serving contract: every path — shared-memory pool, inline
(``workers < 2``), no-``fork`` platform, oversized batches that skip the
slots — yields *bit-exact* logits in input order; a crashed worker surfaces
as an error naming the lost batches instead of hanging the parent; and the
parent's telemetry switch is untouched no matter which path ran.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import CompileSpec, Plan, PlanPool, WorkerDied, ckernel
from repro.runtime import serve as serve_mod


@pytest.fixture()
def plan_and_batches(deployed_factory):
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    batches = [x + np.float32(i) for i in range(6)]
    expected = [plan(b) for b in batches]
    return plan, batches, expected


def _assert_stream_exact(outs, expected):
    assert len(outs) == len(expected)
    for i, (got, want) in enumerate(zip(outs, expected)):
        assert np.array_equal(got, want), f"batch {i} diverges"


def test_inline_path_bit_exact(plan_and_batches):
    """workers < 2 runs everything in-process, exact and in order."""
    plan, batches, expected = plan_and_batches
    for workers in (0, 1):
        _assert_stream_exact(list(plan.serve(batches, workers=workers)),
                             expected)


def test_no_fork_platform_falls_back_inline(plan_and_batches, monkeypatch):
    """Platforms without the fork start method degrade to the inline path."""
    plan, batches, expected = plan_and_batches
    monkeypatch.setattr(serve_mod, "_can_fork", lambda: False)
    _assert_stream_exact(list(plan.serve(batches, workers=4)), expected)


def test_oversized_batches_skip_slots(plan_and_batches):
    """Batches larger than the slots (sized from the first batch) run inline
    in the parent; order and exactness still hold for the mixed stream."""
    plan, batches, _ = plan_and_batches
    big = np.concatenate([batches[0], batches[1]])           # 2x the slot
    mixed = [batches[0], big, batches[2], big + np.float32(1), batches[3]]
    expected = [plan(b) for b in mixed]
    _assert_stream_exact(list(plan.serve(mixed, workers=2)), expected)


def test_worker_death_surfaces_not_hangs(plan_and_batches):
    """SIGKILLing a pool worker mid-stream raises (naming lost batches)
    instead of leaving the parent blocked on the done queue forever."""
    plan, batches, _ = plan_and_batches
    seen = {}
    gen = plan.serve(batches * 5, workers=2,
                     pool_hook=lambda p: seen.setdefault("pool", p))
    first = next(gen)
    assert first is not None and "pool" in seen
    os.kill(seen["pool"].procs[0].pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match="worker died"):
        for _ in gen:
            pass


_FORK_AFTER_THREADED_PLAN = """
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
outs = list(plan.serve([x] * 4, workers=2))
assert len(outs) == 4 and all(np.array_equal(o, want) for o in outs)
print("bit-exact")
"""


def test_fork_after_threaded_plan_does_not_hang():
    """A forked serve worker must not inherit the parent's native thread-pool
    condvars: they still count the parent's parked worker, and the child's
    first broadcast would wait for that phantom forever."""
    if not (serve_mod._can_fork() and ckernel.load() is not None):
        pytest.skip("needs os.fork and the native kernel")
    proc = subprocess.Popen([sys.executable, "-c", _FORK_AFTER_THREADED_PLAN],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env={**os.environ,
                                 "PYTHONPATH": os.pathsep.join(sys.path)})
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the wedged pool workers too
        proc.communicate()
        pytest.fail("plan.serve(workers=2) after a threads=2 execution "
                    "still blocked after 30 s")
    assert proc.returncode == 0 and "bit-exact" in out, err


def test_pool_wait_one_reports_in_flight():
    """PlanPool.wait_one names the batches lost to a dead worker."""

    class SlowPlan:
        out_features = 2
        model_name = "slow"

        def __call__(self, x):
            import time

            time.sleep(30)  # the parent must not need this to finish
            return np.zeros((x.shape[0], 2), dtype=np.float32)

    pool = PlanPool(SlowPlan(), (2, 3), workers=2)
    try:
        x = np.zeros((2, 3), dtype=np.float32)
        pool.submit(7, x)
        pool.submit(8, x)
        import time

        time.sleep(0.3)  # let the workers pick the tasks up
        for proc in pool.procs:
            proc.kill()
        with pytest.raises(WorkerDied) as err:
            pool.wait_one(timeout=10)
        assert set(err.value.in_flight) == {7, 8}
    finally:
        pool.close()


def test_pool_respawn_recovers():
    """After respawn the pool serves again; in-flight state was dropped."""

    class Doubler:
        out_features = 3
        model_name = "doubler"

        def __call__(self, x):
            return np.asarray(x, dtype=np.float32)[:, :3] * 2

    pool = PlanPool(Doubler(), (4, 3), workers=2)
    try:
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        pool.submit(0, x)
        seq, y = pool.wait_one(timeout=10)
        assert seq == 0 and np.array_equal(y, x * 2)
        pool.procs[0].kill()
        pool.procs[0].join()
        with pytest.raises(WorkerDied):
            pool.submit(1, x)
            pool.wait_one(timeout=10)
        pool.respawn()
        assert not pool.in_flight and pool.free_slots == pool.nslots
        pool.submit(2, x + 1)
        seq, y = pool.wait_one(timeout=10)
        assert seq == 2 and np.array_equal(y, (x + 1) * 2)
    finally:
        pool.close()


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pool"])
def test_serve_preserves_parent_telemetry(plan_and_batches, workers):
    """The worker-side disable is a context-managed guard: after serve()
    completes (either path), the parent's telemetry switch is untouched."""
    plan, batches, expected = plan_and_batches
    prev = telemetry.set_enabled(True)
    try:
        assert telemetry.enabled()
        _assert_stream_exact(list(plan.serve(batches, workers=workers)),
                             expected)
        assert telemetry.enabled(), "plan.serve leaked a telemetry disable"
    finally:
        telemetry.set_enabled(prev)


def test_suppressed_guard_restores_both_states():
    for initial in (True, False):
        prev = telemetry.set_enabled(initial)
        try:
            with telemetry.suppressed():
                assert not telemetry.enabled()
            assert telemetry.enabled() == initial
        finally:
            telemetry.set_enabled(prev)
