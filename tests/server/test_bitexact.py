"""Gateway bit-exactness: whatever batches the scheduler forms, each answer
is bitwise identical to single-sample execution on the interpreted tree.

This is the online analogue of ``tests/runtime/test_bitexact.py``: the
integer datapath (exact int32 or float64 conv accumulation) makes row
results independent of batch composition, so the gateway may pack
requests however load dictates without changing a single bit.
"""
from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.models import MODELS
from repro.server import ModelRegistry, Server


def _drive(server, key, samples, refs, n_requests, n_threads=3):
    """Fire ``n_requests`` from ``n_threads`` submitters, check every bit."""
    per = (n_requests + n_threads - 1) // n_threads
    failures = []

    def client(tid):
        pendings = []
        for j in range(per):
            i = (tid * per + j) % len(samples)
            pendings.append((i, server.submit(key, samples[i])))
        for i, p in pendings:
            r = p.result(timeout=60)
            if not r.ok:
                failures.append((i, r))
            elif not np.array_equal(r.logits, refs[i]):
                failures.append((i, "bitwise mismatch"))

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures[:5]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_gateway_matches_single_sample_tree(served_factory, model_name):
    """Every registry model, inline lane: concurrent submitters x mixed
    batch sizes, each response bitwise equal to its single-sample tree run."""
    d, samples, refs = served_factory(model_name)
    reg = ModelRegistry()
    reg.register(model_name, "1", d)
    with Server(reg, max_batch=4, default_deadline_s=30.0) as srv:
        _drive(srv, model_name, samples, refs, n_requests=18)
    stats = srv.stats()[model_name]
    assert stats["ok"] == stats["requests"] and stats["shed"] == 0


def test_gateway_pooled_matches_single_sample_tree(served_factory):
    """Same contract for a lane with a pool of executors: two threads run
    batches concurrently over the one shared plan and every answer carries
    the identical bits the tree produces."""
    d, samples, refs = served_factory("resnet20")
    reg = ModelRegistry()
    reg.register("resnet20", "1", d)
    with Server(reg, max_batch=4, workers=2, default_deadline_s=30.0) as srv:
        _drive(srv, "resnet20", samples, refs, n_requests=24)
    stats = srv.stats()["resnet20"]
    assert stats["ok"] == stats["requests"] and stats["failed"] == 0


def test_mixed_models_one_server(served_factory):
    """Two models behind one gateway keep their lanes (and bits) separate."""
    da, sa, ra = served_factory("resnet20")
    db, sb, rb = served_factory("vgg8")
    reg = ModelRegistry()
    reg.register("resnet20", "1", da)
    reg.register("vgg8", "1", db)
    with Server(reg, max_batch=4, default_deadline_s=30.0) as srv:
        pa = [srv.submit("resnet20", sa[i % len(sa)]) for i in range(8)]
        pb = [srv.submit("vgg8", sb[i % len(sb)]) for i in range(8)]
        for i, p in enumerate(pa):
            r = p.result(timeout=60)
            assert r.ok and np.array_equal(r.logits, ra[i % len(ra)])
            assert r.model == "resnet20@1"
        for i, p in enumerate(pb):
            r = p.result(timeout=60)
            assert r.ok and np.array_equal(r.logits, rb[i % len(rb)])
            assert r.model == "vgg8@1"
