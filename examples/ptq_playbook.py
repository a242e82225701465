"""PTQ playbook: MinMax vs AdaRound vs QDrop at 8 and 4 bits (paper Table 1).

Trains one full-precision ResNet, then applies three post-training
quantization recipes and reports fake-quant + integer-only accuracy for each,
with both float32 scales (industry baseline) and INT16 fixed-point scales
(Torch2Chip).

Run:  python examples/ptq_playbook.py [--epochs 6]
"""
import argparse

from repro.core import DeploySpec, T2C
from repro.core.qconfig import QConfig
from repro.data import make_dataset
from repro.data.transforms import standard_train_transform
from repro.models import build_model
from repro.trainer import PTQTrainer, Trainer, evaluate
from repro.utils import seed_everything


RECIPES = {
    "minmax 8/8": dict(qcfg=QConfig(8, 8, wq="minmax_channel", aq="minmax"), reconstruct=False),
    "minmax 4/4": dict(qcfg=QConfig(4, 4, wq="minmax_channel", aq="minmax"), reconstruct=False),
    "adaround 4/8": dict(qcfg=QConfig(4, 8, wq="adaround", aq="minmax"), reconstruct=True),
    "qdrop 4/4": dict(qcfg=QConfig(4, 4, wq="adaround", aq="qdrop"), reconstruct=True),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=6)
    args = ap.parse_args()

    seed_everything(0)
    ds = make_dataset("synthetic-cifar10", noise=0.5)
    train, test = ds.splits(2000, 500, transform=standard_train_transform())

    model = build_model("resnet20", num_classes=10, width=8)
    Trainer(model, train, test, epochs=args.epochs, batch_size=64, lr=0.1, verbose=True).fit()
    fp_acc = evaluate(model, test)
    print(f"\nfp32 baseline: {fp_acc:.4f}\n")

    print(f"{'recipe':14s} {'scales':8s} {'fakequant':>10s} {'integer':>9s}")
    for name, cfg in RECIPES.items():
        for float_scale in (True, False):
            trainer = PTQTrainer(model, train, qcfg=cfg["qcfg"], calib_batches=8,
                                 batch_size=64, reconstruct=cfg["reconstruct"],
                                 recon_iters=100)
            qm = trainer.fit()
            fq = evaluate(qm, test)
            T2C(qm, spec=DeploySpec(float_scale=float_scale)).fuse()
            ii = evaluate(qm, test)
            stype = "float32" if float_scale else "INT16"
            print(f"{name:14s} {stype:8s} {fq:10.4f} {ii:9.4f}")


if __name__ == "__main__":
    main()
