"""ABFT column-checksum verification against the live compiled runtime.

The contract: a clean plan passes every sampled check; a live weight flip
breaks the column-checksum equality; a corrupted output register breaks
the output equality — both raise the typed :class:`SDCDetected`.
"""
from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.integrity import (ABFT_KINDS, AbftChecker, EXACT_F64_LIMIT,
                             SDCDetected, attach_checksums,
                             checksum_row_bound)


def _convs(plan):
    return [(i, op) for i, op in enumerate(plan.ops)
            if op.kind in ("conv_mq", "conv_mq_res")]


class TestAttach:
    def test_checksums_attached_at_compile(self, sdc_deployed):
        d, _ = sdc_deployed
        rows = d.plan._abft_rows
        assert rows, "Plan.compile must attach ABFT checksum rows"
        # every conv under the 2^53 bound is covered
        for i, op in _convs(d.plan):
            if checksum_row_bound(op.weight, op.bound) < EXACT_F64_LIMIT:
                assert i in rows, f"op [{i}] {op.name} missing checksum row"

    def test_checksum_row_is_column_sum_per_group(self, sdc_deployed):
        d, _ = sdc_deployed
        i, op = _convs(d.plan)[0]
        o, cg, kh, kw = op.weight.shape
        row = d.plan._abft_rows[i]
        want = (op.weight.reshape(op.groups, o // op.groups, cg * kh * kw)
                .astype(np.float64).sum(axis=1, keepdims=True))
        assert np.array_equal(row, want)

    def test_attach_is_idempotent(self, sdc_deployed):
        d, _ = sdc_deployed
        plan = copy.deepcopy(d.plan)
        first = attach_checksums(plan)
        again = attach_checksums(plan)
        assert first == again

    def test_bound_scales_with_channel_sum_ratio(self):
        w = np.ones((4, 2, 3, 3), dtype=np.float32)
        # equal per-channel sums: checksum bound = per-channel bound * o
        assert checksum_row_bound(w, 100.0) == pytest.approx(400.0)
        assert checksum_row_bound(np.zeros((2, 1, 1, 1)), 5.0) == 0.0


class TestChecker:
    def test_clean_plan_passes_every_sampled_check(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        checker = plan.enable_abft(sample_every=1)
        for _ in range(2 * len(checker._targets) // 2 + 4):
            plan(x)
        assert checker.checks >= 4
        assert checker.failures == 0
        plan.disable_abft()
        assert plan._abft is None

    def test_flipped_live_weight_breaks_column_checksum(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        checker = plan.enable_abft(sample_every=1)
        # corrupt the weight of the eligible conv the cursor will hit first
        target = next(i for i in checker._targets
                      if plan.ops[i].kind in ("conv_mq", "conv_mq_res"))
        checker._cursor = checker._targets.index(target)
        plan.ops[target].weight.flat[5] += 4.0
        with pytest.raises(SDCDetected) as err:
            for _ in range(len(checker._targets) + 1):
                plan(x)
        assert err.value.source == "abft"
        assert err.value.detail["check"] == "column-checksum"
        assert checker.failures == 1

    def test_corrupted_register_breaks_output_equality(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        plan(x)  # bind
        binding = next(iter(plan._tls.by_shape.values()))
        checker = AbftChecker(plan, sample_every=1)
        target = next(i for i in checker._targets
                      if plan.ops[i].kind in ("conv_mq", "conv_mq_res"))
        checker._cursor = checker._targets.index(target)
        op = plan.ops[target]
        from repro.integrity.abft import read_register

        # the arena buffers are live post-batch: poke the served output
        arena = binding.arena
        arena._cm_centers[op.dst][0, 0, 0, 0] += 3
        with pytest.raises(SDCDetected) as err:
            checker.check(binding)
        assert err.value.source == "abft"
        assert err.value.detail["check"] == "output"

    def test_sampling_cadence(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        checker = plan.enable_abft(sample_every=4)
        for _ in range(8):
            plan(x)
        assert checker.checks == 2

    def test_kinds_catalog_is_pinned(self):
        assert set(ABFT_KINDS) == {"conv_mq", "conv_mq_res", "mulquant"}
