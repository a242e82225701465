"""Plan-verification overhead budget: the full static proof must be cheap
enough to run on every deploy, which proves each compiled plan with no
opt-out (the registry gate then reuses the proof cached on the plan).

The proof covers dataflow liveness, aliasing, interval overflow safety and
shift-exactness over the compiled resnet20 plan.  The acceptance bar is one
full verification (cache-bypassing) in under a second — orders of magnitude
below a single model build.
Results land in ``benchmarks/BENCH_lint.json``.
"""
from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.utils import seed_everything

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_lint.json")

ROUNDS = 5          #: timed full verifications; best-of is recorded
BUDGET_S = 1.0      #: the acceptance bar per full verification


def _deployed():
    seed_everything(0)
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("resnet20", num_classes=10),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(2)])
    return deploy(qm, DeploySpec(runtime="auto"))


def test_full_plan_verification_under_one_second():
    d = _deployed()
    plan = d.plan
    module_bits = d.lint_report.min_accum_bits() if d.lint_report else None

    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        report = plan.verify(input_shape=(3, 32, 32),
                             module_bits=module_bits, refresh=True)
        best = min(best, time.perf_counter() - t0)
        assert report.ok

    t0 = time.perf_counter()
    cached = plan.verify()
    cached_s = time.perf_counter() - t0
    assert cached.ok

    row = {
        "model": "resnet20",
        "ops": report.num_ops,
        "registers": report.num_regs,
        "accumulator_rows": len(report.rows),
        "shift_certificates": len(report.shift_certificates),
        "full_verify_s": round(best, 6),
        "cached_verify_s": round(cached_s, 6),
        "budget_s": BUDGET_S,
    }
    with open(OUT_PATH, "w") as f:
        json.dump(row, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"\nfull plan verification: {best * 1e3:8.2f} ms "
          f"({report.num_ops} ops, {len(report.rows)} accumulator rows)")
    print(f"cached re-check:        {cached_s * 1e6:8.1f} us")
    assert best < BUDGET_S, (
        f"full plan verification took {best:.3f}s (> {BUDGET_S}s budget); "
        f"the deploy/registry/swap gates cannot afford it")
