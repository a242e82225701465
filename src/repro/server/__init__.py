"""Online serving gateway over the compiled integer runtime.

`plan.serve()` (PR 3) is the *offline* batch API: it shards a pre-formed
batch stream across a worker pool.  This package is the *online* layer the
ROADMAP's "heavy traffic" north star needs — it accepts individual samples
and turns them into well-packed batches without blowing latency:

* :class:`Server` — the gateway: per-model lanes with a work-conserving
  micro-batcher, admission control with typed
  :class:`~repro.server.types.Overloaded` load shedding, worker-pool
  supervision (requeue-once + respawn on worker death), and atomic
  drain-and-cutover hot swap of model versions;
* :class:`ModelRegistry` — ``name@version``-keyed store of
  :func:`repro.core.deploy` bundles, holding the one hand-off gate
  (:meth:`ModelRegistry.check`) that register, activation and swap run;
* :mod:`~repro.server.types` — the typed result records (:class:`Ok`,
  :class:`Overloaded`, :class:`Failed`) behind
  :class:`~repro.server.types.PendingRequest` futures.

``repro.cli serve --obs-dir DIR`` stands a gateway up on a deployed model,
checks every answer bitwise and leaves the live observability files for
``repro.cli top`` / ``trace``; performance questions go to
``python3 -m benchmarks.e2e`` (``benchmarks/e2e/README.md``).

Quickstart::

    from repro.core import deploy
    from repro.server import ModelRegistry, Server

    registry = ModelRegistry()
    registry.register("resnet20", "1", deploy(calibrated_qmodel))
    with Server(registry, max_batch=16) as srv:
        resp = srv.submit("resnet20", sample, deadline_s=0.2).result()
        if resp.ok:
            logits = resp.logits
"""
from repro.server.registry import (
    DuplicateVersionError,
    ModelEntry,
    ModelRegistry,
    split_key,
)
from repro.server.server import Server, ServerConfig
from repro.server.types import (
    Failed,
    Ok,
    Overloaded,
    PendingRequest,
    Response,
)

__all__ = [
    "Server", "ServerConfig",
    "ModelRegistry", "ModelEntry", "split_key", "DuplicateVersionError",
    "Response", "Ok", "Overloaded", "Failed", "PendingRequest",
]
