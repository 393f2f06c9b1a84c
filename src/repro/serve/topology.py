"""Service-tier topology builder: MPF as a production-serving fabric.

A :class:`ServeShape` declares a three-tier service in the style the
paper's §6 sketches for LNVC-structured applications — open-loop
**clients** feeding a row of **frontends**, which fan requests out over
a pool of **workers**, whose results fan back into one **aggregator**::

    clients ──▶ serve.front.{f} ──▶ frontends ──▶ serve.work.{w}
                                                      │
              aggregator ◀── serve.agg ◀── workers ◀──┘

:func:`build_workers` compiles the shape plus per-client arrival
schedules into ordinary MPF worker generators, so the same service runs
unchanged on the simulator, real threads, or forked processes.  Every
tier is an LNVC consumer/producer and nothing more: the builder adds no
new primitives, just an opinionated wiring of the paper's eight.

Capacity anatomy (defaults, simulated Balance):  request batches cost
the client ``send_fixed + nblk·(blk_fill + copy)`` instructions, each
frontend pays a receive and a forward, workers add ``service_instrs``
per request, and every hop round-trips the shared block pool, the
paper's one free list under ``ALLOC_LOCK``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..core.errors import OutOfMessageMemoryError
from ..core.layout import MPFConfig
from ..core.protocol import Protocol
from ..machine.balance import BALANCE_21000, MachineConfig
from ..patterns import tag
from ..runtime.base import Env
from .batching import (
    KIND_DONE,
    batch_bytes,
    decode_batch,
    encode_batch,
    encode_done,
)
from .overload import POLICIES, AdmissionQueue, OverloadStats

__all__ = ["ServeShape", "serve_config", "serve_machine", "build_workers"]


@dataclass(frozen=True)
class ServeShape:
    """Declarative description of one service deployment."""

    #: Open-loop request generators (tier 0).
    clients: int = 4
    #: Request routers (tier 1); clients spread batches round-robin.
    frontends: int = 8
    #: Request processors (tier 2); frontends spread batches round-robin.
    workers: int = 8
    #: Logical request size carried through the request tiers, bytes.
    request_bytes: int = 256
    #: Result record size on the fan-in leg, bytes (small acks).
    reply_bytes: int = 16
    #: Application compute per request at a worker, instructions.
    service_instrs: int = 2000
    #: Logical requests per MPF message (1 = unbatched).
    batch: int = 1
    #: Backpressure policy: ``"shed"`` or ``"stall"``.
    policy: str = "shed"
    #: Admission queue bound, in batches, per client.
    queue_cap: int = 32
    #: Backoff before retrying a refused send, seconds.
    backoff_seconds: float = 0.002
    #: Shared block pool budget, in request batches (sizes the config).
    pool_batches: int = 64

    def __post_init__(self) -> None:
        if min(self.clients, self.frontends, self.workers) < 1:
            raise ValueError("every tier needs at least one process")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        record = 14  # REQUEST_RECORD.size; slots carry one record each
        if self.request_bytes < record or self.reply_bytes < record:
            raise ValueError("request/reply slot bytes must fit the "
                             f"{record}-byte request record")

    @property
    def nprocs(self) -> int:
        return self.clients + self.frontends + self.workers + 1

    @property
    def circuits(self) -> int:
        """Data circuits the topology opens (excluding barrier gates)."""
        return self.frontends + self.workers + 1

    def with_load_features(self, *, batch: int | None = None) -> "ServeShape":
        """Clone with batching toggled (A/B sweeps)."""
        return self if batch is None else replace(self, batch=batch)


def serve_config(shape: ServeShape) -> MPFConfig:
    """Size an :class:`MPFConfig` for ``shape``.

    The block pool is the deliberately bounded resource: it holds
    ``pool_batches`` request batches, enough for smooth flow below the
    knee, small enough that overload surfaces as
    :class:`OutOfMessageMemoryError` backpressure instead of unbounded
    queueing.  Everything else gets headroom.
    """
    req_batch = batch_bytes(shape.batch, shape.request_bytes)
    rep_batch = batch_bytes(shape.batch, shape.reply_bytes)
    # Gate circuits (two barriers can coexist) plus slack.
    max_lnvcs = shape.circuits + 8
    # Request budget plus fan-in headroom: a few replies per worker
    # must always fit even when requests saturate their budget.
    pool_bytes = (shape.pool_batches * (req_batch + 64)
                  + 4 * shape.workers * (rep_batch + 64))
    return MPFConfig(
        max_lnvcs=max_lnvcs,
        max_processes=shape.nprocs,
        # Headers must outnumber the worst case of all-minimal messages,
        # so the *block pool* is always the resource that binds — tiny
        # fan-in replies must hit the same backpressure as requests.
        max_messages=pool_bytes // 10 + 128,
        message_pool_bytes=pool_bytes,
    )


def serve_machine(shape: ServeShape,
                  base: MachineConfig = BALANCE_21000) -> MachineConfig:
    """Machine preset for serving runs: a scaled-out Balance.

    Serving shapes legitimately exceed the 1987 testbed's 20 CPUs, and
    the paper's paging model (30 ms faults against a 24 KB resident
    budget) would drown the synchronization effects this subsystem
    studies — a production box is not thrashing its message pool.  CPUs
    scale to the process count; per-instruction pricing stays the
    Balance's.
    """
    return replace(base, n_cpus=max(base.n_cpus, shape.nprocs),
                   paging_enabled=False, cache_enabled=False)


def _sim_pacer(machine: MachineConfig):
    instr = machine.instr_seconds

    def pace(env: Env, until: float):
        dt = until - env.now()
        if dt > 0:
            yield from env.compute(instrs=max(1, round(dt / instr)))

    return pace


def _wall_pacer():
    import time

    def pace(env: Env, until: float):
        dt = until - env.now()
        if dt > 0:
            time.sleep(dt)
        return
        yield  # pragma: no cover - marks this as a generator

    return pace


def _send_done(env: Env, out: int, pace) -> "object":
    """Send a DONE marker, retrying through backpressure (never shed)."""
    while True:
        try:
            yield from env.message_send(out, encode_done())
            return
        except OutOfMessageMemoryError:
            yield from pace(env, env.now() + 0.002)


def _gate(env: Env, name: str, n: int, pace):
    """:func:`repro.patterns.barrier` with backpressure-tolerant sends.

    Serving runs cross their gates while the block pool may still be
    saturated with queued batches, so the control messages retry through
    :class:`OutOfMessageMemoryError` instead of propagating it.  The
    protocol is otherwise the library barrier's, lost-message rules and
    all.
    """
    out_id = yield from env.open_receive(f"{name}.out", Protocol.BROADCAST)
    in_id = yield from env.open_send(f"{name}.in")
    while True:
        try:
            yield from env.message_send(in_id, tag(env.rank, b""))
            break
        except OutOfMessageMemoryError:
            yield from pace(env, env.now() + 0.002)
    if env.rank == 0:
        arrivals = yield from env.open_receive(f"{name}.in", Protocol.FCFS)
        for _ in range(n):
            yield from env.message_receive(arrivals)
        yield from env.close_receive(arrivals)
        release = yield from env.open_send(f"{name}.out")
        while True:
            try:
                yield from env.message_send(release, b"go")
                break
            except OutOfMessageMemoryError:
                yield from pace(env, env.now() + 0.002)
        yield from env.close_send(release)
    yield from env.message_receive(out_id)
    yield from env.close_send(in_id)
    yield from env.close_receive(out_id)


def build_workers(
    shape: ServeShape,
    schedules: Sequence[Sequence[float]],
    runtime: str = "sim",
    machine: MachineConfig | None = None,
) -> list[Callable]:
    """Compile ``shape`` + per-client ``schedules`` into MPF workers.

    Returns ``shape.nprocs`` generator functions: clients first, then
    frontends, workers, and the aggregator last.  Client ``i`` replays
    ``schedules[i]`` (absolute seconds from the start barrier).  The
    aggregator returns the measurement::

        {"t0", "t_last", "completed", "e2e"}

    and each client returns its :class:`OverloadStats` as a dict.
    """
    if len(schedules) != shape.clients:
        raise ValueError(
            f"need one schedule per client ({shape.clients}), "
            f"got {len(schedules)}")
    if machine is None:
        machine = serve_machine(shape)
    pace = _sim_pacer(machine) if runtime == "sim" else _wall_pacer()

    C, F, W = shape.clients, shape.frontends, shape.workers
    nprocs = shape.nprocs
    stall = shape.policy == "stall"

    def make_client(idx: int, times: Sequence[float]):
        def client(env: Env):
            outs = []
            for f in range(F):
                outs.append((yield from env.open_send(f"serve.front.{f}")))
            yield from _gate(env, "serve.up", nprocs, pace)
            t0 = env.now()
            stats = OverloadStats()
            q = AdmissionQueue(shape.queue_cap, stats)
            pending: list[tuple[int, int, float]] = []
            seq = 0
            rr = idx  # stagger round-robin starts across clients

            def drain():
                nonlocal rr
                retries = 8
                while len(q):
                    payload, n = q.head()  # type: ignore[misc]
                    try:
                        yield from env.message_send(outs[rr % F], payload)
                    except OutOfMessageMemoryError:
                        stats.backpressure_events += 1
                        if not stall:
                            stats.shed_backpressure += n
                            q.pop()
                            continue
                        stats.stalls += 1
                        t_b = env.now()
                        yield from pace(env, t_b + shape.backoff_seconds)
                        stats.stall_seconds += env.now() - t_b
                        retries -= 1
                        if retries <= 0:
                            return  # keep queued; retry at next arrival
                        continue
                    rr += 1
                    q.pop()

            for t in times:
                yield from pace(env, t0 + t)
                pending.append((idx, seq, env.now()))
                seq += 1
                if len(pending) >= shape.batch:
                    q.push(encode_batch(pending, shape.request_bytes),
                           len(pending))
                    pending = []
                    yield from drain()
            if pending:
                q.push(encode_batch(pending, shape.request_bytes),
                       len(pending))
            while len(q):  # final drain (stall keeps every admitted batch)
                before = len(q)
                yield from drain()
                if len(q) == before and not stall:
                    break
            for out in outs:
                yield from _send_done(env, out, pace)
            yield from _gate(env, "serve.down", nprocs, pace)
            for out in outs:
                yield from env.close_send(out)
            return stats.to_dict()

        return client

    def make_frontend(f: int):
        def frontend(env: Env):
            rid = yield from env.open_receive(f"serve.front.{f}",
                                              Protocol.FCFS)
            outs = []
            for w in range(W):
                outs.append((yield from env.open_send(f"serve.work.{w}")))
            yield from _gate(env, "serve.up", nprocs, pace)
            dones = 0
            rr = f
            forwarded = 0
            # A tier that stops receiving while messages queue on its
            # own circuit deadlocks the pool: queued messages hold
            # blocks that only *receiving* returns.  So the frontend
            # always drains its circuit and parks unforwardable batches
            # in a local backlog (bounded by pool capacity), flushing
            # opportunistically — backpressure lands on the clients,
            # the one tier with a shed/stall policy.
            backlog: deque = deque()
            while dones < C:
                payload = yield from env.message_receive(rid)
                if payload[0] == KIND_DONE:
                    dones += 1
                else:
                    backlog.append(payload)
                while backlog:  # one attempt each; never block here
                    try:
                        yield from env.message_send(outs[rr % W],
                                                    backlog[0])
                    except OutOfMessageMemoryError:
                        break
                    backlog.popleft()
                    rr += 1
                    forwarded += 1
                env.gauge("tier:frontends|backlog", len(backlog))
            while backlog:  # input drained: flush with backoff
                try:
                    yield from env.message_send(outs[rr % W], backlog[0])
                except OutOfMessageMemoryError:
                    yield from pace(env, env.now()
                                    + shape.backoff_seconds / 2)
                    yield from env.check_receive(rid)
                    continue
                backlog.popleft()
                rr += 1
                forwarded += 1
            for out in outs:
                yield from _send_done(env, out, pace)
            yield from _gate(env, "serve.down", nprocs, pace)
            for out in outs:
                yield from env.close_send(out)
            yield from env.close_receive(rid)
            return {"forwarded": forwarded}

        return frontend

    def make_worker(w: int):
        def worker(env: Env):
            rid = yield from env.open_receive(f"serve.work.{w}",
                                              Protocol.FCFS)
            out = yield from env.open_send("serve.agg")
            yield from _gate(env, "serve.up", nprocs, pace)
            dones = 0
            served = 0
            # Workers must never block on the fan-in leg while requests
            # queue behind them: at overload the pool is entirely tied
            # up in queued request batches, and those blocks only come
            # back when workers keep *receiving*.  So replies that hit
            # backpressure park in a local backlog (bounded by the
            # offered schedule) and flush opportunistically — the
            # deadlock-free shape of a fan-in under a shared pool.
            backlog: deque = deque()
            while dones < F:
                payload = yield from env.message_receive(rid)
                records = decode_batch(payload, shape.request_bytes)
                if records is None:
                    dones += 1
                else:
                    yield from env.compute(
                        instrs=shape.service_instrs * len(records))
                    backlog.append(encode_batch(records, shape.reply_bytes))
                    served += len(records)
                while backlog:  # one attempt each; never block here
                    try:
                        yield from env.message_send(out, backlog[0])
                        backlog.popleft()
                    except OutOfMessageMemoryError:
                        break
                env.gauge("tier:workers|backlog", len(backlog))
            while backlog:  # drained input: flush with backoff
                try:
                    yield from env.message_send(out, backlog[0])
                    backlog.popleft()
                except OutOfMessageMemoryError:
                    yield from pace(env, env.now()
                                    + shape.backoff_seconds / 2)
                    yield from env.check_receive(rid)
            yield from _send_done(env, out, pace)
            yield from _gate(env, "serve.down", nprocs, pace)
            yield from env.close_send(out)
            yield from env.close_receive(rid)
            return {"served": served}

        return worker

    def aggregator(env: Env):
        rid = yield from env.open_receive("serve.agg", Protocol.FCFS)
        yield from _gate(env, "serve.up", nprocs, pace)
        t0 = env.now()
        t_last = t0
        completed = 0
        e2e: list[float] = []
        dones = 0
        while dones < W:
            payload = yield from env.message_receive(rid)
            records = decode_batch(payload, shape.reply_bytes)
            if records is None:
                dones += 1
                continue
            now = env.now()
            for _, _, t_admit in records:
                e2e.append(now - t_admit if now > t_admit else 0.0)
            completed += len(records)
            t_last = now
        yield from _gate(env, "serve.down", nprocs, pace)
        yield from env.close_receive(rid)
        return {"t0": t0, "t_last": t_last, "completed": completed,
                "e2e": e2e}

    procs: list[Callable] = []
    for i in range(C):
        procs.append(make_client(i, schedules[i]))
    for f in range(F):
        procs.append(make_frontend(f))
    for w in range(W):
        procs.append(make_worker(w))
    procs.append(aggregator)
    return procs
