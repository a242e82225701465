"""Observability: inspect a compression scheme before committing to silicon.

Runs the compress→fuse→deploy flow inside a TelemetrySession and shows every
piece of the telemetry subsystem:

* per-layer weight SQNR / grid-utilization and calibrated activation ranges
  (``repro.core.analysis``);
* per-layer forward timing + activation statistics via ``telemetry.instrument``;
* nested wall-clock spans (printed as a tree, saved as a Chrome trace);
* the integer-datapath saturation audit — how many elements each MulQuant /
  input quantizer clamps on the deploy path.

Run:  python examples/observability_report.py [--epochs 4] [--out telemetry_out]
"""
import argparse

import numpy as np

from repro import telemetry
from repro.core import T2C
from repro.core.analysis import (
    activation_ranges,
    format_report,
    layer_output_sqnr,
    weight_quant_report,
)
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.data import make_dataset
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.trainer import Trainer, evaluate
from repro.utils import seed_everything


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--out", default="telemetry_out")
    args = ap.parse_args()

    seed_everything(0)
    ds = make_dataset("synthetic-cifar10", noise=0.5)
    train, test = ds.splits(1500, 400)
    model = build_model("resnet20", num_classes=10, width=8)

    with telemetry.TelemetrySession(out_dir=args.out, label="observability"):
        Trainer(model, train, test, epochs=args.epochs, batch_size=64,
                lr=0.1, verbose=True).fit()

        for wbit in (8, 4, 2):
            with telemetry.trace("quantize_and_report", wbit=wbit):
                qm = quantize_model(model, QConfig(wbit, 8, wq="minmax_channel"))
                calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(6)])
                print(f"\n===== W{wbit}/A8 =====")
                print(format_report(weight_quant_report(qm),
                                    columns=["layer", "nbit", "sqnr_db", "grid_utilization"]))
                print(f"\nend-to-end logit SQNR vs fp32: "
                      f"{layer_output_sqnr(qm, model, test.images[:64]):.2f} dB")
                print(f"fake-quant accuracy: {evaluate(qm, test):.4f} "
                      f"(fp32 {evaluate(model, test):.4f})")

        print("\ncalibrated activation quantizers (first 8):")
        print(format_report(activation_ranges(qm)[:8]))

        # per-layer forward timing + activation statistics on one batch
        with telemetry.instrument(qm) as inst:
            with no_grad():
                qm.eval()
                qm(Tensor(np.asarray(test.images[:64], dtype=np.float32)))
        print("\nper-layer forward timing / activation stats (top 8 by time):")
        rows = sorted(inst.report(), key=lambda r: -r["time_ms"])[:8]
        print(format_report(rows, columns=["layer", "type", "time_ms",
                                           "out_min", "out_max", "out_sparsity"]))

        # integer-only deploy of the last (W2/A8) model: saturation audit
        qnn = T2C(qm).nn2chip()
        acc = evaluate(qnn, test)
        print(f"\ninteger-only accuracy: {acc:.4f}")
        sat = telemetry.saturation_report()
        print("\ninteger-datapath saturation audit (top 8 clamp sites):")
        print(format_report(sat[:8]))

    roots, _ = telemetry.build_tree(telemetry.get_tracer().records)
    print(f"\nspan tree:\n{telemetry.format_tree(roots)}")
    print(f"\ntelemetry written to {args.out}/ "
          f"(trace.json is chrome://tracing-loadable)")


if __name__ == "__main__":
    main()
