"""Tests for the thread and process runtimes, and cross-runtime parity.

Real runtimes give arbitrary interleavings, so these programs use the
loss-free joining discipline of :mod:`repro.patterns` wherever a circuit
must outlive its sender.
"""

import os
import signal
import sys
import time

import pytest

from repro.core.errors import DeadlockSuspectedError
from repro.core.protocol import BROADCAST, FCFS
from repro.patterns import all_to_all, barrier, broadcast, gather
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

THREADS = ThreadRuntime(join_timeout=60)
pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="POSIX runtimes"
)


def pipeline_workers(n_items=6):
    """Producer -> two FCFS consumers, with a join handshake."""

    def producer(env):
        cid = yield from env.open_send("jobs")
        rid = yield from env.open_receive("ready", FCFS)
        for _ in range(2):
            yield from env.message_receive(rid)
        for i in range(n_items):
            yield from env.message_send(cid, bytes([i]))
        yield from env.close_send(cid)
        yield from env.close_receive(rid)
        return "sent"

    def consumer(env):
        cid = yield from env.open_receive("jobs", FCFS)
        rdy = yield from env.open_send("ready")
        yield from env.message_send(rdy, b"up")
        got = []
        for _ in range(n_items // 2):
            got.append((yield from env.message_receive(cid)))
        yield from env.close_send(rdy)
        yield from env.close_receive(cid)
        return got

    return [producer, consumer, consumer]


def check_pipeline(result):
    assert result.results["p0"] == "sent"
    items = sorted(result.results["p1"] + result.results["p2"])
    assert items == [bytes([i]) for i in range(6)]
    assert result.header["live_msgs"] == 0
    assert result.header["live_lnvcs"] == 0


def test_threads_pipeline():
    check_pipeline(THREADS.run(pipeline_workers()))


def test_procs_pipeline():
    check_pipeline(ProcRuntime(join_timeout=60).run(pipeline_workers()))


def test_threads_broadcast_pattern():
    def worker(env):
        data = yield from broadcast(
            env, "bc", 0, 4, b"from-root" if env.rank == 0 else None
        )
        return data

    result = THREADS.run([worker] * 4)
    assert set(result.results.values()) == {b"from-root"}


def test_threads_gather_pattern():
    def worker(env):
        return (yield from gather(env, "g", 0, 5, bytes([env.rank])))

    result = THREADS.run([worker] * 5)
    assert result.results["p0"] == [bytes([i]) for i in range(5)]


def test_threads_all_to_all():
    n = 4

    def worker(env):
        parts = [f"{env.rank}>{j}".encode() for j in range(n)]
        return (yield from all_to_all(env, "x", n, parts))

    result = THREADS.run([worker] * n)
    for j in range(n):
        assert result.results[f"p{j}"] == [f"{i}>{j}".encode() for i in range(n)]


def test_threads_barrier_actually_synchronizes():
    import threading

    arrived = []
    released = []
    gate = threading.Event()

    def worker(env):
        if env.rank == 3:
            gate.wait(10)  # last arrival delayed in real time
        arrived.append(env.rank)
        yield from barrier(env, "b", 4)
        released.append(env.rank)

    def late_release():
        gate.set()

    import threading as _t

    t = _t.Timer(0.2, late_release)
    t.start()
    THREADS.run([worker] * 4)
    t.join()
    assert len(released) == 4
    # Nobody is released before everyone arrived.
    assert set(arrived) == {0, 1, 2, 3}


def test_threads_worker_exception_propagates():
    def bad(env):
        yield from env.compute(instrs=1)
        raise ValueError("thread bug")

    with pytest.raises(ValueError, match="thread bug"):
        THREADS.run([bad])


def test_threads_blocked_worker_times_out():
    def stuck(env):
        rid = yield from env.open_receive("void", FCFS)
        yield from env.message_receive(rid)

    # DeadlockSuspectedError subclasses TimeoutError, so callers that
    # only know about timeouts keep working...
    with pytest.raises(TimeoutError) as excinfo:
        ThreadRuntime(join_timeout=0.5).run([stuck])
    # ...but the richer type carries a per-thread wait-state dump.
    assert isinstance(excinfo.value, DeadlockSuspectedError)
    dump = excinfo.value.threads["p0"]
    assert dump["blocked_on"] == ("chan", 0)
    assert dump["held"] == []
    assert "blocked_on=('chan', 0)" in str(excinfo.value)


def test_procs_worker_failure_reported():
    def bad(env):
        yield from env.compute(instrs=1)
        raise ValueError("proc bug")

    with pytest.raises(RuntimeError, match="proc bug"):
        ProcRuntime(join_timeout=30).run([bad])


def _shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_procs_dead_worker_fails_bounded():
    """A worker killed before it reports fails the run within the join
    timeout, naming the worker and its exit code, and the segment is
    still unlinked."""

    def ok(env):
        yield from env.compute(instrs=1)
        return "fine"

    def die(env):
        yield from env.compute(instrs=1)
        os.kill(os.getpid(), signal.SIGKILL)

    join_timeout = 3.0
    before = _shm_segments()
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"'p1' died .*exit code -9"):
        ProcRuntime(join_timeout=join_timeout).run([ok, die])
    assert time.monotonic() - t0 < join_timeout + 5
    assert _shm_segments() - before == set()


def test_cross_runtime_parity():
    """The same program yields the same logical results on all three
    runtimes — the paper's portability claim, demonstrated."""
    workers = pipeline_workers()
    sim = SimRuntime().run(workers)
    thr = THREADS.run(workers)
    prc = ProcRuntime(join_timeout=60).run(workers)
    for res in (sim, thr, prc):
        check_pipeline(res)
    # Identical aggregate traffic in every world.
    for field in ("total_sends", "total_receives", "total_bytes_sent"):
        assert sim.header[field] == thr.header[field] == prc.header[field]


def test_threads_stress_many_small_messages():
    """Hammer one circuit from several threads to shake out races."""
    n_senders, per = 4, 40

    def sender(env):
        cid = yield from env.open_send("storm")
        rid = yield from env.open_receive("storm.done", BROADCAST)
        for i in range(per):
            yield from env.message_send(cid, bytes([env.rank, i]))
        yield from env.message_receive(rid)
        yield from env.close_send(cid)
        yield from env.close_receive(rid)

    def collector(env):
        cid = yield from env.open_receive("storm", FCFS)
        got = []
        for _ in range(n_senders * per):
            got.append((yield from env.message_receive(cid)))
        did = yield from env.open_send("storm.done")
        yield from env.message_send(did, b"ok")
        yield from env.close_send(did)
        yield from env.close_receive(cid)
        return got

    result = THREADS.run([collector] + [sender] * n_senders)
    got = result.results["p0"]
    assert len(got) == n_senders * per
    # Per-sender order preserved (virtual-circuit time ordering).
    for rank in range(1, n_senders + 1):
        seq = [m[1] for m in got if m[0] == rank]
        assert seq == sorted(seq)
    assert result.header["live_msgs"] == 0
