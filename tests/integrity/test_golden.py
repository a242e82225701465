"""Golden-vector self-tests: deterministic record/replay and the deploy
pipeline + manifest embedding."""
from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.integrity import GoldenSet, SDCDetected
from repro.integrity.golden import DEFAULT_INPUT_SHAPE, DEFAULT_VECTORS


class TestGoldenSet:
    def test_recorded_at_deploy_and_replays_clean(self, sdc_deployed):
        d, _ = sdc_deployed
        golden = d.golden
        assert golden is not None and golden.k == DEFAULT_VECTORS
        assert golden.input_shape == DEFAULT_INPUT_SHAPE == (3, 32, 32)
        assert golden.verify(d.plan) == []
        golden.check(d.plan)  # must not raise

    def test_inputs_are_a_pure_function_of_seed(self, sdc_deployed):
        d, _ = sdc_deployed
        a, b = d.golden.inputs(), d.golden.inputs()
        assert np.array_equal(a, b)
        assert a.shape == (d.golden.k, 3, 32, 32)

    def test_json_roundtrip_is_exact(self, sdc_deployed):
        d, _ = sdc_deployed
        clone = GoldenSet.from_json(d.golden.to_json())
        assert clone.seed == d.golden.seed
        assert clone.input_shape == d.golden.input_shape
        assert np.array_equal(clone.outputs, d.golden.outputs)
        assert clone.verify(d.plan) == []

    def test_divergence_raises_typed_sdc(self, sdc_deployed):
        d, _ = sdc_deployed
        plan = copy.deepcopy(d.plan)
        op = next(o for o in plan.ops
                  if isinstance(getattr(o, "weight", None), np.ndarray))
        op.weight.flat[7] += 8.0
        mismatches = d.golden.verify(plan)
        assert mismatches, "a weight flip must diverge some golden vector"
        with pytest.raises(SDCDetected) as err:
            d.golden.check(plan)
        assert err.value.source == "golden"

    def test_record_against_plain_runner(self):
        runner = lambda b: np.asarray(b, dtype=np.float32).reshape(
            len(b), -1)[:, :3] * 2.0
        g = GoldenSet.record(runner, (2, 4), k=3, seed=11)
        assert g.k == 3 and g.verify(runner) == []
        # a different runner diverges
        assert g.verify(lambda b: runner(b) + 1.0)

    def test_deepcopy_of_executed_plan_stays_bit_exact(self, sdc_deployed):
        """Regression: deepcopying a plan that has already executed must
        reset its cached bindings — the kernel closures capture their arena
        by reference, so a naive copy would serve the original plan's stale
        registers (exactly what fleet replica materialization does after
        deploy-time golden recording)."""
        d, x = sdc_deployed
        assert d.plan._bindings, "golden recording should have bound (1,...)"
        clone = copy.deepcopy(d.plan)
        assert clone._bindings == {}
        assert d.golden.verify(clone) == []
        assert np.array_equal(np.asarray(clone(x)), np.asarray(d.plan(x)))
