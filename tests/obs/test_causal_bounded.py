"""Bounded causal tracing (``causal_max_events=N``): stride sampling,
the exact e2e latency sketch, and the reap-before-recv grace buffer."""

import pytest

from repro.core.protocol import FCFS
from repro.obs import Recorder
from repro.obs.causal import CausalTracer, StageStats
from repro.patterns import barrier
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

N_MSGS = 200


def sender(env):
    cid = yield from env.open_send("pipe")
    yield from barrier(env, "go", 2)
    for i in range(N_MSGS):
        yield from env.message_send(cid, b"m%d" % i)
    yield from env.message_send(cid, b"")  # stop
    yield from env.close_send(cid)


def receiver(env):
    cid = yield from env.open_receive("pipe", FCFS)
    yield from barrier(env, "go", 2)
    got = 0
    while (yield from env.message_receive(cid)):
        got += 1
    yield from env.close_receive(cid)
    return got


def run_bounded(max_events, runtime="sim"):
    rec = Recorder(causal=True, causal_max_events=max_events)
    rt = SimRuntime(recorder=rec) if runtime == "sim" \
        else ThreadRuntime(recorder=rec)
    result = rt.run([sender, receiver])
    assert result.results["p1"] == N_MSGS
    return rec.causal


def test_stride_doubles_to_respect_the_bound():
    tracer = run_bounded(64)
    assert tracer.stride > 1
    assert len(tracer.events) <= 64
    # The kept subset is exactly the stride-sampled seqnos.
    assert all(e.seqno % tracer.stride == 0 for e in tracer.events)


def test_sampled_lifecycles_stay_complete():
    tracer = run_bounded(64)
    seqnos = {e.seqno for e in tracer.events if e.kind == "send"}
    for ev in tracer.events:
        if ev.kind in ("recv", "free"):
            assert ev.seqno in seqnos  # no torn lifecycles in the sample


def test_e2e_sketch_is_exact_not_sampled():
    tracer = run_bounded(64)
    # Every delivered message contributes one e2e sample, even though
    # the event log keeps only 1-in-stride lifecycles.  The workload
    # delivers N_MSGS + stop + barrier legs.
    assert len(tracer.e2e) >= N_MSGS
    stats = StageStats(list(tracer.e2e))
    assert 0.0 < stats.quantile_fine(0.5) <= stats.p999


def test_unbounded_mode_keeps_every_event():
    tracer = run_bounded(None)
    assert tracer.stride == 1
    sends = sum(1 for e in tracer.events if e.kind == "send")
    assert sends == N_MSGS + 1 + 2 + 1  # payloads, stop, barrier legs


def test_e2e_requires_bounded_mode():
    tracer = CausalTracer()
    with pytest.raises(ValueError):
        tracer.e2e_stats()


def test_grace_buffer_pairs_fused_reaps():
    # message_receive reaps a just-retired message (on_free) before its
    # own on_recv fires; the grace buffer must still pair those
    # deliveries into e2e samples.  Compare against the delivered count
    # rather than an exact event interleaving.
    tracer = run_bounded(32)
    orphans = getattr(tracer, "_orphans", None)
    assert not orphans  # every recv found its send timestamp
    assert len(tracer.e2e) >= N_MSGS


def test_snapshot_roundtrip_preserves_sketch_and_stride():
    tracer = run_bounded(64)
    snap = tracer.snapshot()
    assert snap["max_events"] == 64
    assert snap["stride"] == tracer.stride
    clone = CausalTracer(max_events=64)
    clone.merge(snap)
    assert clone.stride >= tracer.stride
    assert len(clone.e2e) == len(tracer.e2e)


def test_bounded_tracing_on_threads_runtime():
    tracer = run_bounded(64, runtime="threads")
    assert len(tracer.events) <= 64
    assert len(tracer.e2e) >= N_MSGS


def test_quantile_fine_nearest_rank():
    stats = StageStats([float(i) for i in range(1, 1001)])
    assert stats.quantile_fine(0.5) == 500.0
    assert stats.quantile_fine(0.999) == 999.0
    assert stats.p999 == 999.0
    # The coarse archive-facing quantile is untouched by the fine path.
    assert stats.quantile(0.5) == stats.p50


def test_stats_quantiles_empty_and_singleton():
    assert StageStats([]).quantile_fine(0.99) == 0.0
    assert StageStats([3.5]).p999 == 3.5
