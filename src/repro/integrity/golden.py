"""Golden-vector self-test: K seeded input→output pairs per deployment.

The runtime is bit-exact, so a model's response to a fixed stimulus is a
*constant*: :meth:`GoldenSet.record` runs K deterministic inputs (seeded,
regenerated on demand — only the seed, shape and outputs are stored, so the
manifest stays small) through the deployed executor and pins the outputs.
:meth:`GoldenSet.verify` replays them with ``numpy.array_equal`` asserts —
any deviation on any replica, at any time, is silent data corruption.

Three call sites use one mechanism: :func:`repro.core.deploy` records the
set and embeds it in the export manifest; the registry gate that
``Server.swap`` runs replays it against the incoming plan before cutover;
the ``Fleet`` health loop replays it periodically per replica and
quarantines on mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.integrity.errors import SDCDetected

#: default stimulus count / seed / amplitude for recorded sets, and the
#: CIFAR-scale sample shape every bundled model takes
DEFAULT_VECTORS = 4
DEFAULT_INPUT_SHAPE = (3, 32, 32)
DEFAULT_SEED = 20240
DEFAULT_SCALE = 1.0


@dataclass
class GoldenSet:
    """K pinned input→output pairs for one deployed model version."""

    seed: int
    input_shape: Tuple[int, ...]   #: per-sample shape (no batch axis)
    outputs: np.ndarray            #: (K, ...) float32 pinned responses
    scale: float = DEFAULT_SCALE

    @property
    def k(self) -> int:
        return int(self.outputs.shape[0])

    def inputs(self) -> np.ndarray:
        """Regenerate the K stimuli — a pure function of (seed, shape)."""
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((self.k,) + tuple(self.input_shape))
        return (x * self.scale).astype(np.float32)

    @classmethod
    def record(cls, runner, input_shape, k: int = DEFAULT_VECTORS,
               seed: int = DEFAULT_SEED,
               scale: float = DEFAULT_SCALE) -> "GoldenSet":
        """Pin ``runner``'s responses to K seeded single-sample batches."""
        shape = tuple(int(d) for d in input_shape)
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((max(1, int(k)),) + shape)
             * scale).astype(np.float32)
        outs = [np.asarray(runner(x[i:i + 1]), dtype=np.float32)[0]
                for i in range(x.shape[0])]
        return cls(seed=int(seed), input_shape=shape,
                   outputs=np.stack(outs), scale=float(scale))

    # ---------------------------------------------------------- checking
    def verify(self, runner) -> List[Dict]:
        """Replay every vector; list of mismatch records."""
        xs = self.inputs()
        mismatches = []
        for i in range(self.k):
            got = np.asarray(runner(xs[i:i + 1]), dtype=np.float32)[0]
            if got.shape != self.outputs[i].shape \
                    or not np.array_equal(got, self.outputs[i]):
                bad = (int(np.sum(got != self.outputs[i]))
                       if got.shape == self.outputs[i].shape else -1)
                mismatches.append({"vector": i, "mismatched": bad})
        return mismatches

    def check(self, runner) -> None:
        """Replay vectors; raise :class:`SDCDetected` on any mismatch."""
        mismatches = self.verify(runner)
        if mismatches:
            raise SDCDetected(
                "golden", f"{len(mismatches)}/{self.k} golden vector(s) "
                          f"diverged from the recorded bit-exact response",
                {"mismatches": mismatches, "seed": self.seed})

    # ------------------------------------------------------ serialization
    def to_json(self) -> Dict:
        return {"seed": self.seed, "input_shape": list(self.input_shape),
                "scale": self.scale, "outputs": self.outputs.tolist(),
                "output_shape": list(self.outputs.shape)}

    @classmethod
    def from_json(cls, data: Dict) -> "GoldenSet":
        outputs = np.asarray(data["outputs"], dtype=np.float32).reshape(
            data["output_shape"])
        return cls(seed=int(data["seed"]),
                   input_shape=tuple(data["input_shape"]),
                   outputs=outputs, scale=float(data.get("scale", 1.0)))
