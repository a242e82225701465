"""CLI workflow: train -> qat -> ptq -> export, end to end on tiny settings."""
import json
import os

import numpy as np
import pytest

from repro.cli import MODEL_KWARGS, build_parser, main
from repro.models import MODELS

TINY = ["--train-size", "300", "--test-size", "100", "--noise", "0.35"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["qat"])
        assert args.model == "resnet20" and args.wbit == 8

    def test_subcommand_surface(self):
        import argparse

        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {
            "train", "qat", "ptq", "export", "lint", "inspect", "serve",
            "top", "trace", "verify-artifacts", "chaos"}

    def test_deploy_flags_are_pinned(self):
        # the compiler picks kernels, fusion and tiling, so --threads is the
        # only plan-compile flag the deploy subcommands share
        import argparse

        from repro.cli import _deploy_flags

        p = argparse.ArgumentParser()
        _deploy_flags(p)
        assert {s for a in p._actions for s in a.option_strings} == {
            "-h", "--help", "--calib-batches", "--fusion", "--float-scale",
            "--threads"}
        for gone in ("--fusion-level", "--tile-kc", "--tile-oc",
                     "--no-im2col-cache"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["export", "--ckpt", "c.npz", gone])

    def test_model_kwargs_cover_the_registry(self):
        # benchmarks/e2e imports this table
        assert set(MODEL_KWARGS) == set(MODELS) and len(MODEL_KWARGS) == 6


class TestWorkflow:
    def test_train_and_ptq(self, tmp_path):
        ckpt = str(tmp_path / "fp32.npz")
        rc = main(["train", *TINY, "--epochs", "1", "--out", ckpt])
        assert rc == 0 and os.path.exists(ckpt)
        out = str(tmp_path / "ptq.npz")
        rc = main(["ptq", *TINY, "--ckpt", ckpt, "--calib-batches", "2", "--out", out])
        assert rc == 0 and os.path.exists(out)

    def test_qat_then_export(self, tmp_path):
        ckpt = str(tmp_path / "qat.npz")
        rc = main(["qat", *TINY, "--epochs", "1", "--wbit", "4", "--abit", "4",
                   "--wq", "sawb", "--aq", "pact", "--out", ckpt])
        assert rc == 0
        out_dir = str(tmp_path / "deploy")
        rc = main(["export", *TINY, "--ckpt", ckpt, "--wbit", "4", "--abit", "4",
                   "--wq", "sawb", "--aq", "pact", "--calib-batches", "2",
                   "--formats", "dec", "hex", "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["tensors"]


class TestTelemetryCLI:
    def test_inspect_writes_full_report(self, tmp_path):
        out_dir = str(tmp_path / "tel")
        rc = main(["inspect", *TINY, "--epochs", "1", "--calib-batches", "2",
                   "--telemetry-out", out_dir])
        assert rc == 0
        for fname in ("manifest.json", "trace.json", "trace.txt", "events.jsonl",
                      "metrics.json", "saturation.json", "layer_report.json",
                      "report.txt"):
            assert os.path.exists(os.path.join(out_dir, fname)), fname
        trace = json.load(open(os.path.join(out_dir, "trace.json")))
        span_names = {ev["name"] for ev in trace["traceEvents"]}
        assert {"inspect", "calibrate_model", "T2C.fuse",
                "evaluate_integer"} <= span_names
        kinds = {json.loads(line)["kind"]
                 for line in open(os.path.join(out_dir, "events.jsonl"))}
        assert {"step", "epoch", "calibrate", "fuse", "integer_accuracy"} <= kinds
        report = json.load(open(os.path.join(out_dir, "layer_report.json")))
        assert report["layers"]  # per-layer probe rows
        assert report["saturation"]  # MulQuant clamp sites
        assert any(r["kind"] == "mulquant" for r in report["saturation"])
        assert 0.0 <= report["summary"]["integer_accuracy"] <= 1.0

    def test_inspect_leaves_telemetry_disabled(self, tmp_path):
        from repro import telemetry
        rc = main(["inspect", *TINY, "--epochs", "0", "--calib-batches", "2",
                   "--telemetry-out", str(tmp_path / "t")])
        assert rc == 0
        assert not telemetry.enabled()

    def test_export_with_telemetry_out(self, tmp_path):
        ckpt = str(tmp_path / "qat.npz")
        rc = main(["qat", *TINY, "--epochs", "1", "--out", ckpt])
        assert rc == 0
        out_dir = str(tmp_path / "deploy")
        tel_dir = str(tmp_path / "tel")
        rc = main(["export", *TINY, "--ckpt", ckpt, "--calib-batches", "2",
                   "--out-dir", out_dir, "--telemetry-out", tel_dir])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "manifest.json"))
        trace = json.load(open(os.path.join(tel_dir, "trace.json")))
        span_names = {ev["name"] for ev in trace["traceEvents"]}
        assert "export_model" in span_names
        sat = json.load(open(os.path.join(tel_dir, "saturation.json")))
        assert sat  # deploy-path evaluation recorded clamp sites


class TestServeCLI:
    def test_serve_leaves_obs_files_that_top_and_trace_read(self, tmp_path,
                                                            capsys):
        obs = str(tmp_path / "obs")
        rc = main(["serve", *TINY, "--requests", "32", "--max-batch", "8",
                   "--obs-dir", obs])
        assert rc == 0
        assert "ok 32  shed 0  failed 0  mismatched 0" in capsys.readouterr().out
        for fname in ("status.json", "metrics.prom", "traces.jsonl",
                      "flight_recorder.json", "profile.json"):
            assert os.path.getsize(os.path.join(obs, fname)) > 0, fname
        assert main(["top", obs, "--once"]) == 0
        assert "resnet20" in capsys.readouterr().out
        traces = os.path.join(obs, "traces.jsonl")
        trace_id = json.loads(open(traces).readline())["trace_id"]
        assert main(["trace", str(trace_id), "--traces", traces]) == 0
        assert f"request {trace_id}:" in capsys.readouterr().out


class TestIntegrityCLI:
    def _export_dir(self, tmp_path, formats=("dec", "qint")):
        from repro.export.writer import export_state_dict

        rng = np.random.default_rng(0)
        out = str(tmp_path / "art")
        export_state_dict(
            {"w": rng.integers(-8, 8, (3, 3)).astype(np.float32)},
            out, formats=formats)
        return out

    def test_verify_artifacts_clean_exits_zero(self, tmp_path, capsys):
        out = self._export_dir(tmp_path)
        assert main(["verify-artifacts", out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_artifacts_corrupt_exits_two_with_json(self, tmp_path,
                                                          capsys):
        out = self._export_dir(tmp_path)
        with open(os.path.join(out, "tensors.dec"), "ab") as f:
            f.write(b"junk")
        assert main(["verify-artifacts", out, "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"].startswith("integrity.")

    def test_chaos_on_existing_dir_detects_everything(self, tmp_path,
                                                      capsys):
        out = self._export_dir(tmp_path)
        assert main(["chaos", "--dir", out, "--seed", "11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["injected"] == 4
        assert payload["summary"]["missed"] == 0
        # the attacked directory itself is untouched
        assert main(["verify-artifacts", out]) == 0

    def test_chaos_json_on_dec_only_export_is_pure_json(self, tmp_path,
                                                        capsys):
        out = self._export_dir(tmp_path, formats=("dec",))
        assert main(["chaos", "--dir", out, "--seed", "11", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        injected = [f["injector"] for f in payload["faults"]]
        assert injected == ["flip_bits", "truncate_file", "stale_manifest"]
        assert "skipping corrupt_header" in captured.err

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_chaos_rejects_rounds_below_one(self, tmp_path, rounds):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--dir", str(tmp_path), "--rounds", rounds])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--requests", "--max-batch"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_rejects_counts_below_one(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value])
        assert exc.value.code == 2


class TestCheckpoint:
    def test_roundtrip_with_metadata(self, tmp_path):
        from repro.models import build_model
        from repro.utils.checkpoint import load_checkpoint, save_checkpoint

        m1 = build_model("resnet20", width=8)
        path = str(tmp_path / "m.npz")
        save_checkpoint(m1, path, accuracy=0.93, epoch=5)
        m2 = build_model("resnet20", width=8)
        meta = load_checkpoint(m2, path)
        assert meta["accuracy"] == pytest.approx(0.93)
        assert meta["epoch"] == 5
        np.testing.assert_array_equal(m1.conv1.weight.data, m2.conv1.weight.data)
