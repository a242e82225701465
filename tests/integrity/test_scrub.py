"""Memory scrubbing: CRC constant baselines and arena guard sweeps."""
from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.integrity import (MemoryScrubber, SDCDetected, scrub_plan,
                             snapshot_constants)


class TestScrubPlan:
    def test_baseline_captured_at_compile(self, sdc_deployed):
        d, _ = sdc_deployed
        assert d.plan._scrub_baseline, (
            "Plan.compile must capture the CRC32 constant baseline")
        # the baseline covers every conv weight
        fields = {(e["op_index"], e["field"])
                  for e in d.plan._scrub_baseline}
        for i, op in enumerate(d.plan.ops):
            if isinstance(getattr(op, "weight", None), np.ndarray):
                assert (i, "weight") in fields

    def test_clean_plan_scrubs_clean(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        plan(x)  # bind, so guard borders are swept too
        report = plan.scrub()
        assert report.ok and report.raise_if_failed() is report
        assert report.entries == len(plan._scrub_baseline)
        assert report.bytes_scanned > 0
        assert report.to_json()["ok"] is True

    def test_weight_flip_is_a_crc_mismatch(self, sdc_deployed):
        d, _ = sdc_deployed
        plan = copy.deepcopy(d.plan)
        op = next(o for o in plan.ops
                  if isinstance(getattr(o, "weight", None), np.ndarray))
        op.weight.flat[0] += 1.0
        report = scrub_plan(plan)
        assert not report.ok
        assert any(m["field"] == "weight" and m["reason"] == "crc"
                   for m in report.mismatches)
        with pytest.raises(SDCDetected) as err:
            report.raise_if_failed()
        assert err.value.source == "scrub"

    def test_guard_word_fault_detected(self, sdc_deployed):
        d, x = sdc_deployed
        plan = copy.deepcopy(d.plan)
        plan(x)
        binding = next(iter(plan._tls.by_shape.values()))
        arena = binding.arena
        reg = next(r for r in arena._cm_bufs if arena.pads.get(r, 0) > 0)
        arena._cm_bufs[reg][0, 0, 0, 0] = 9.0
        report = scrub_plan(plan)
        assert not report.ok
        assert any(f["register"] == reg for f in report.guard_faults)

    def test_snapshot_covers_mulquant_params(self, sdc_deployed):
        d, _ = sdc_deployed
        baseline = snapshot_constants(d.plan)
        assert any(e["field"].endswith(".m") for e in baseline)
        assert any(e["field"].endswith(".b") for e in baseline)


class TestMemoryScrubber:
    def test_scan_once_reports_and_counts(self, sdc_deployed):
        d, _ = sdc_deployed
        plan = copy.deepcopy(d.plan)
        faults = []
        scrubber = MemoryScrubber(interval_s=60.0, on_fault=lambda n, r:
                                  faults.append((n, r)))
        scrubber.add("m", plan)
        reports = scrubber.scan_once()
        assert len(reports) == 1 and reports[0].ok
        assert scrubber.scans == 1 and scrubber.faults == 0 and not faults
        op = next(o for o in plan.ops
                  if isinstance(getattr(o, "weight", None), np.ndarray))
        op.weight.flat[0] += 1.0
        reports = scrubber.scan_once()
        assert not reports[0].ok
        assert scrubber.faults == 1
        assert faults and faults[0][0] == "m"

    def test_background_thread_stops_cleanly(self, sdc_deployed):
        d, _ = sdc_deployed
        scrubber = MemoryScrubber(interval_s=0.01)
        scrubber.add("m", d.plan)
        scrubber.start()
        deadline = threading.Event()
        deadline.wait(0.15)
        scrubber.stop(timeout=5.0)
        assert scrubber._thread is None
        assert scrubber.scans >= 1

    def test_remove_drops_target(self, sdc_deployed):
        d, _ = sdc_deployed
        scrubber = MemoryScrubber()
        scrubber.add("m", d.plan)
        scrubber.remove("m")
        assert scrubber.scan_once() == []
