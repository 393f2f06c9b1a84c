"""The process runtime: MPF over ``multiprocessing.shared_memory``.

This is the closest analogue of the paper's deployment: "parallel
programs consist of a group of Unix processes ... The shared memory used
by MPF is implemented by mapping a region of physical memory into the
virtual address space of each process" (§4).  Here the region is a POSIX
shared-memory segment, locks are ``multiprocessing.Lock`` and wait
channels ``multiprocessing.Condition`` objects, and workers are forked
Unix processes.

Requires the ``fork`` start method (workers may be closures and inherit
the open segment); the runtime raises a clear error on platforms without
it.  Worker return values travel back over a pipe and must be picklable.
A worker that dies without reporting (killed by a signal, ``os._exit``)
fails the run with an error naming it and its exit code.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from typing import Sequence

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from .base import Env, RunResult, Runtime, Worker, snapshot_header
from .threads import RealSync, drive

__all__ = ["ProcRuntime"]


class ProcRuntime(Runtime):
    """Run each worker in its own forked Unix process."""

    kind = "procs"

    def __init__(self, join_timeout: float | None = 120.0, recorder=None) -> None:
        self.join_timeout = join_timeout
        #: Optional :class:`repro.obs.Recorder`.  Each forked worker
        #: records into a private child recorder whose picklable
        #: snapshot rides home on the result queue; the parent merges
        #: the snapshots in rank order after the join.
        self.recorder = recorder

    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
    ) -> RunResult:
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "ProcRuntime requires the 'fork' start method (POSIX only)"
            ) from exc

        nprocs = len(workers)
        cfg = self.default_config(nprocs, cfg)
        names = self.process_names(nprocs, names)

        # Result channel: one pipe shared by every child, writes
        # serialized by a lock (what SimpleQueue does internally).  The
        # raw reader lets the parent wait on it together with the
        # children's exit sentinels.
        reader, writer = ctx.Pipe(duplex=False)
        wlock = ctx.Lock()
        shm = shared_memory.SharedMemory(create=True, size=SegmentLayout(cfg).total_size)
        region = SharedRegion(shm.buf)
        try:
            layout = format_region(region, cfg)
            view = MPFView(region, layout, costs)
            sync = RealSync(cfg, ctx.Lock, ctx.Condition)

            def report(msg) -> None:
                with wlock:
                    writer.send(msg)

            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
            if self.recorder is not None:
                self.recorder.clock = "wall"
            recording = self.recorder is not None

            def body(name: str, rank: int, worker: Worker) -> None:
                env = Env(view, rank, nprocs, clock)
                rec = self.recorder.child() if recording else None
                if rec is not None and rec.causal is not None:
                    # Post-fork the view object is this process's private
                    # copy, so attaching the child's tracer here records
                    # only this worker's lifecycle events; they ride home
                    # inside the child snapshot like every other metric.
                    rec.causal.clock = clock
                    view.causal = rec.causal
                if rec is not None and rec.timeline is not None:
                    # Same post-fork privacy: the child timeline rides
                    # home in the snapshot and the parent merges the
                    # children in rank order — the merge is associative
                    # and commutative, so rank order is a convention,
                    # not a correctness requirement.
                    rec.timeline.clock = clock
                    rec.timeline.clock_kind = "wall"
                    view.timeline = rec.timeline
                try:
                    value = drive(worker(env), sync, recorder=rec,
                                  process=name, clock=clock)
                    report((name, True, value,
                            rec.snapshot() if rec else None))
                except BaseException as exc:
                    report((name, False, repr(exc),
                            rec.snapshot() if rec else None))

            procs = [
                ctx.Process(target=body, args=(n, i, w), name=n, daemon=True)
                for i, (n, w) in enumerate(zip(names, workers))
            ]
            for p in procs:
                p.start()

            results: dict[str, object] = {}
            failures: dict[str, str] = {}
            snapshots: dict[str, dict] = {}
            dead: dict[str, int] = {}
            pending = {p.name: p for p in procs}
            deadline = None if self.join_timeout is None else t0 + self.join_timeout
            while pending and not dead:
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.perf_counter()
                    if timeout <= 0:
                        break
                wait([reader] + [p.sentinel for p in pending.values()], timeout)
                if reader.poll():
                    # Reports are read before exits are judged: a worker
                    # writes its report in full before it exits.
                    name, ok, payload, snap = reader.recv()
                    pending.pop(name, None)
                    if snap is not None:
                        snapshots[name] = snap
                    if ok:
                        results[name] = payload
                    else:
                        failures[name] = payload
                    continue
                for name, p in pending.items():
                    if p.exitcode is not None:
                        dead[name] = p.exitcode
            for p in procs:
                p.join(1.0)
                if p.is_alive():
                    p.terminate()
                    p.join(1.0)
                    if p.name not in results and p.name not in failures:
                        failures[p.name] = "worker did not finish (blocked receive?)"
            if self.recorder is not None:
                for name in names:  # deterministic merge order
                    if name in snapshots:
                        self.recorder.merge(snapshots[name])
            if dead:
                name = sorted(dead)[0]
                raise RuntimeError(
                    f"worker {name!r} died without reporting "
                    f"(exit code {dead[name]})"
                )
            if failures:
                name = sorted(failures)[0]
                raise RuntimeError(f"worker {name!r} failed: {failures[name]}")
            header = snapshot_header(view)
            return RunResult(
                results=results,
                elapsed=time.perf_counter() - t0,
                kind=self.kind,
                header=header,
            )
        finally:
            reader.close()
            writer.close()
            region.release()
            shm.close()
            shm.unlink()
