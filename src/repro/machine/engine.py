"""Deterministic discrete-event engine for the simulated multiprocessor.

Processes are Python generators that yield the effect objects of
:mod:`repro.core.effects` (MPF primitives already speak that vocabulary;
application code adds its own ``Charge`` effects for compute).  The engine
interprets each effect against simulated locks, wait channels and a
pluggable :class:`TimingModel`, advancing a virtual clock.

Determinism: events are ordered by ``(time, sequence)`` with a
monotonically increasing sequence number, and every queue (lock waiters,
channel sleepers) is FIFO.  Two runs of the same program produce identical
traces — the property that makes the reproduced figures exact rather than
sampled.

Deadlock: when no event is pending but processes are still blocked, the
engine raises :class:`DeadlockError` naming the blocked processes and what
they wait on.  The paper discusses exactly this programming hazard (§3.2:
messages lost when senders close before receivers join); the detector
turns it from a hang into a diagnosis.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Protocol as TypingProtocol

_heappush = heapq.heappush
_heappop = heapq.heappop

from ..core.effects import (
    Acquire,
    Charge,
    ChargeMany,
    Release,
    WaitOn,
    Wake,
)
from ..core.work import Work

__all__ = [
    "DeadlockError",
    "SimulationError",
    "TimingModel",
    "ZeroTimingModel",
    "SimProcess",
    "Engine",
    "enable_label_profile",
    "disable_label_profile",
]

ProcGen = Generator[object, object, object]

#: Process-wide per-label charge aggregation, for ``python -m repro.bench
#: profile --top N``: maps effect label -> [count, charged simulated
#: seconds] while enabled, ``None`` (one global load per charge, no
#: other cost) otherwise.  Engine-level rather than Recorder-level so it
#: sees every engine any figure constructs internally.
_LABEL_PROF: dict | None = None


def enable_label_profile() -> dict:
    """Start aggregating charges by label; returns the live dict."""
    global _LABEL_PROF
    _LABEL_PROF = {}
    return _LABEL_PROF


def disable_label_profile() -> None:
    """Stop aggregating (and stop paying the per-charge dict update)."""
    global _LABEL_PROF
    _LABEL_PROF = None


class SimulationError(RuntimeError):
    """Structural error inside the simulation (not the simulated program)."""


class DeadlockError(SimulationError):
    """Every remaining process is blocked and no event can wake it."""


class TimingModel(TypingProtocol):
    """Prices machine activity in simulated seconds."""

    def price(self, work: Work, running: int) -> float:
        """Seconds to perform ``work`` with ``running`` busy processors."""
        ...

    def acquire_cost(self) -> float:
        """Seconds for an (uncontended) lock acquisition."""
        ...

    def release_cost(self) -> float:
        """Seconds for a lock release."""
        ...

    def wake_cost(self, n_waiters: int) -> float:
        """Seconds the waker spends waking ``n_waiters`` sleepers."""
        ...

    def copy_started(self) -> None:
        """A process entered a shared-memory copy phase (bus tracking)."""
        ...

    def copy_finished(self) -> None:
        """A process left a shared-memory copy phase."""
        ...


class ZeroTimingModel:
    """Everything is free.  Used by functional tests of the engine itself."""

    def price(self, work: Work, running: int) -> float:
        return 0.0

    def acquire_cost(self) -> float:
        return 0.0

    def release_cost(self) -> float:
        return 0.0

    def wake_cost(self, n_waiters: int) -> float:
        return 0.0

    def copy_started(self) -> None:
        pass

    def copy_finished(self) -> None:
        pass


_RUNNABLE = "runnable"
_WAIT_LOCK = "wait-lock"
_WAIT_CHAN = "wait-chan"
_DONE = "done"
_FAILED = "failed"


@dataclass
class SimProcess:
    """One simulated process: a generator plus scheduling state."""

    name: str
    gen: ProcGen
    pid: int
    state: str = _RUNNABLE
    #: Value (or exception) to inject at the next resume.
    _inbox: object = None
    _throw: BaseException | None = None
    #: Generator return value once finished.
    result: object = None
    #: Exception that terminated the process, if any.
    error: BaseException | None = None
    #: Lock the process must reacquire when woken from a channel.
    _wait_lock: int | None = None
    #: True while reacquiring a lock on the way out of a WaitOn (the
    #: reacquisition is implicit: it is not an Acquire effect, and the
    #: recorder must not count it as one).
    _implicit_reacquire: bool = False
    #: Simulated time spent blocked on locks (statistics).
    lock_wait_time: float = 0.0
    _blocked_since: float = 0.0
    #: True while the process is inside a Charge with copy_bytes > 0.
    _copying: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess({self.name!r}, pid={self.pid}, state={self.state})"


class _SimLock:
    """A FIFO mutex in simulated time."""

    __slots__ = ("owner", "waiters", "acquired_at")

    def __init__(self) -> None:
        self.owner: SimProcess | None = None
        self.waiters: deque[SimProcess] = deque()
        #: Simulated time of the current owner's grant (hold-time stats).
        self.acquired_at = 0.0


class _WaitChannel:
    """A queue of sleeping processes (condition-variable wait set)."""

    __slots__ = ("sleepers",)

    def __init__(self) -> None:
        self.sleepers: deque[SimProcess] = deque()


@dataclass
class EngineStats:
    """Aggregate counters maintained by the engine."""

    events: int = 0
    charges: int = 0
    charged_seconds: float = 0.0
    lock_acquires: int = 0
    lock_contended: int = 0
    wakes: int = 0
    woken: int = 0
    #: Heap-crossing counters: how many events actually went through the
    #: event heap (push and pop are counted at every heapq call site).
    #: ``events / heap_pops`` is the wall-clock-jitter-proof measure of
    #: how much work the pending-resume slot retires without touching
    #: the heap.
    heap_pushes: int = 0
    heap_pops: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "events": self.events,
            "charges": self.charges,
            "charged_seconds": self.charged_seconds,
            "lock_acquires": self.lock_acquires,
            "lock_contended": self.lock_contended,
            "wakes": self.wakes,
            "woken": self.woken,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
        }


class Engine:
    """The event loop.

    Parameters
    ----------
    n_locks, n_channels:
        Sizes of the lock and wait-channel tables (from
        :class:`~repro.core.layout.MPFConfig`).
    timing:
        The :class:`TimingModel` pricing every activity.
    n_cpus:
        Simulated processors.  When more processes are simultaneously
        runnable than processors exist, charges stretch proportionally
        (coarse processor multiplexing; adequate because the paper never
        ran more processes than the Balance's 20 CPUs).
    trace:
        Optional callable receiving ``(time, process_name, event_str)``.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving structured
        metrics hooks (lock wait/hold times, charge labels) with
        simulated timestamps.  Observational: never changes timing.
    scheduler:
        Optional schedule policy.  When set, the engine runs in
        *controlled* mode: at every point where more than one pending
        event shares the earliest timestamp, the policy's
        ``choose(now, candidates)`` picks which process steps next
        (candidates are :class:`SimProcess`, ordered by sequence number,
        so index 0 is the default FIFO choice).  Under
        :class:`ZeroTimingModel` every pending event is simultaneous,
        which exposes the full interleaving space to the policy — the
        hook :mod:`repro.check` uses for systematic schedule
        exploration.  If the policy has an ``attach(engine)`` method it
        is called once before the first event.
    """

    def __init__(
        self,
        n_locks: int,
        n_channels: int,
        timing: TimingModel | None = None,
        n_cpus: int = 20,
        trace: Callable[[float, str, str], None] | None = None,
        max_events: int = 200_000_000,
        recorder=None,
        scheduler=None,
    ) -> None:
        if n_locks < 1 or n_channels < 0:
            raise SimulationError("engine needs at least one lock")
        self.now = 0.0
        self.timing: TimingModel = timing or ZeroTimingModel()
        self.n_cpus = max(1, n_cpus)
        self.locks = [_SimLock() for _ in range(n_locks)]
        self.channels = [_WaitChannel() for _ in range(n_channels)]
        self.processes: list[SimProcess] = []
        self.stats = EngineStats()
        self._heap: list[tuple[float, int, SimProcess]] = []
        self._seq = 0
        self._trace = trace
        self._recorder = recorder
        self._max_events = max_events
        self._scheduler = scheduler
        #: Processes currently in the ``runnable`` state, maintained
        #: incrementally at every state transition so the per-charge
        #: multiplexing factor costs O(1) instead of a scan of the
        #: process table (the single hottest line of the interpreter).
        self._runnable = 0
        # Lock transfer costs are fixed machine constants (a property of
        # the timing model, not of simulation state); sample them once
        # instead of a method call per acquire/release event.
        self._t_acquire = self.timing.acquire_cost()
        self._t_release = self.timing.release_cost()
        #: Pending self-resume: when a handler merely reschedules the
        #: process that just stepped (charge, uncontended acquire,
        #: release, wake), it parks ``(time, proc)`` here instead of
        #: pushing onto the heap.  The main loop consumes it inline
        #: whenever no other pending event could fire first, turning long
        #: uncontended phases into straight-line execution with zero heap
        #: traffic.
        self._pend_t = -1.0
        self._pend_proc: SimProcess | None = None

    # -- process management --------------------------------------------------

    def spawn(self, name: str, gen: ProcGen) -> SimProcess:
        """Register a process and schedule its first step at the current time."""
        proc = SimProcess(name=name, gen=gen, pid=len(self.processes))
        self.processes.append(proc)
        self._runnable += 1
        self._schedule(proc, 0.0)
        return proc

    def _schedule(self, proc: SimProcess, dt: float) -> None:
        self._seq += 1
        self.stats.heap_pushes += 1
        heapq.heappush(self._heap, (self.now + dt, self._seq, proc))

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run to completion (or to ``until``); returns the final time.

        Raises :class:`DeadlockError` if blocked processes remain with no
        pending event, and re-raises the first process exception (engine
        effects are interpreted strictly: a crashed process crashes the
        simulation, as a crashed Unix process would crash the benchmark).
        """
        if self._scheduler is not None:
            return self._run_controlled(until)
        # Hot loop: localize everything touched per event.
        heap = self._heap
        heappop = heapq.heappop
        stats = self.stats
        step = self._step
        max_events = self._max_events
        while True:
            t = self._pend_t
            if t >= 0.0:
                # Uncontended fast-forward: the process that just stepped
                # is the only thing scheduled before every heap entry, so
                # resume it directly — same event count, same clock, no
                # heap push/pop.  Ties go to the heap (its entries carry
                # smaller sequence numbers than a fresh push would).
                self._pend_t = -1.0
                if (not heap or t < heap[0][0]) and (until is None or t <= until):
                    self.now = t
                    stats.events += 1
                    if stats.events > max_events:
                        raise SimulationError(f"exceeded {max_events} events")
                    step(self._pend_proc)
                    continue
                self._seq += 1
                stats.heap_pushes += 1
                _heappush(heap, (t, self._seq, self._pend_proc))
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                # Stop without consuming the future event: a later run()
                # resumes exactly where this one paused.
                self.now = until
                return self.now
            t, _, proc = heappop(heap)
            stats.heap_pops += 1
            self.now = t
            stats.events += 1
            if stats.events > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            state = proc.state
            if state is _DONE or state is _FAILED:
                continue
            step(proc)
        self._raise_if_stalled()
        return self.now

    def _run_controlled(self, until: float | None) -> float:
        """The schedule-controlled twin of :meth:`run`.

        Kept separate so the uncontrolled hot loop pays nothing for the
        hook.  Semantics differ in exactly one way: among the pending
        events sharing the earliest timestamp, the scheduler policy —
        not heap sequence order — picks which fires.  Everything the
        policy can choose is a legal interleaving: ties in simulated
        time are concurrency, and the default engine merely resolves
        them FIFO.
        """
        sched = self._scheduler
        attach = getattr(sched, "attach", None)
        if attach is not None:
            attach(self)
        heap = self._heap
        heappop = heapq.heappop
        stats = self.stats
        while heap:
            # Drop stale entries for finished processes up front so they
            # never appear as candidates.
            while heap and heap[0][2].state in (_DONE, _FAILED):
                heappop(heap)
                stats.heap_pops += 1
            if not heap:
                break
            t0 = heap[0][0]
            if until is not None and t0 > until:
                self.now = until
                return self.now
            cands = [
                e for e in heap
                if e[0] == t0 and e[2].state not in (_DONE, _FAILED)
            ]
            cands.sort(key=lambda e: e[1])
            if len(cands) == 1:
                entry = cands[0]
            else:
                idx = sched.choose(t0, [e[2] for e in cands])
                entry = cands[idx if 0 <= idx < len(cands) else 0]
            heap.remove(entry)
            heapq.heapify(heap)
            self.now = t0
            stats.heap_pops += 1
            stats.events += 1
            if stats.events > self._max_events:
                raise SimulationError(f"exceeded {self._max_events} events")
            self._step(entry[2])
            t = self._pend_t
            if t >= 0.0:
                # Controlled mode never fast-forwards: every event goes
                # through the heap so the policy sees every choice point.
                self._pend_t = -1.0
                self._seq += 1
                stats.heap_pushes += 1
                _heappush(heap, (t, self._seq, self._pend_proc))
        self._raise_if_stalled()
        return self.now

    def _raise_if_stalled(self) -> None:
        """Raise :class:`DeadlockError` if blocked processes remain."""
        blocked = [p for p in self.processes if p.state in (_WAIT_LOCK, _WAIT_CHAN)]
        if blocked:
            detail = ", ".join(
                f"{p.name}({p.state}"
                + (f" lock={p._wait_lock}" if p._wait_lock is not None else "")
                + ")"
                for p in blocked
            )
            raise DeadlockError(f"no pending events but blocked: {detail}")

    def results(self) -> dict[str, object]:
        """Map process name → generator return value (after :meth:`run`)."""
        return {p.name: p.result for p in self.processes}

    # -- single step ----------------------------------------------------------

    def _step(self, proc: SimProcess) -> None:
        if proc._copying:
            # The charge that just completed was a copy phase.
            proc._copying = False
            self.timing.copy_finished()
        try:
            if proc._throw is not None:
                exc, proc._throw = proc._throw, None
                effect = proc.gen.throw(exc)
            else:
                value, proc._inbox = proc._inbox, None
                effect = proc.gen.send(value)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            self._runnable -= 1
            return
        except BaseException as exc:
            proc.state = _FAILED
            proc.error = exc
            self._runnable -= 1
            raise
        # Type-keyed dispatch, most frequent effect first.  Exact class
        # checks (not isinstance chains) are the common case; effect
        # subclasses fall through to the isinstance path in _dispatch.
        cls = effect.__class__
        if self._trace is not None:
            self._dispatch(proc, effect)
        elif cls is Charge:
            self._do_charge(proc, effect.work)
        elif cls is Acquire:
            self._do_acquire(proc, effect.lock_id)
        elif cls is Release:
            self._do_release(proc, effect.lock_id)
        elif cls is WaitOn:
            self._do_wait(proc, effect.chan, effect.lock_id)
        elif cls is Wake:
            self._do_wake(proc, effect.chan)
        elif cls is ChargeMany:
            self._do_charge_many(proc, effect.works)
        else:
            self._dispatch(proc, effect)

    def _dispatch(self, proc: SimProcess, effect: object) -> None:
        """Traced / subclass dispatch path (the pre-fast-path semantics)."""
        if self._trace is not None and not isinstance(effect, ChargeMany):
            self._trace(self.now, proc.name, repr(effect))
        if isinstance(effect, Charge):
            self._do_charge(proc, effect.work)
        elif isinstance(effect, Acquire):
            self._do_acquire(proc, effect.lock_id)
        elif isinstance(effect, Release):
            self._do_release(proc, effect.lock_id)
        elif isinstance(effect, WaitOn):
            self._do_wait(proc, effect.chan, effect.lock_id)
        elif isinstance(effect, Wake):
            self._do_wake(proc, effect.chan)
        elif isinstance(effect, ChargeMany):
            # Traced per part (as Charge lines) inside the handler, so
            # per-label trace analyses see the same stream as separate
            # Charge effects would produce.
            self._do_charge_many(proc, effect.works)
        else:
            proc.state = _FAILED
            self._runnable -= 1
            err = SimulationError(
                f"process {proc.name!r} yielded non-effect {effect!r}"
            )
            proc.error = err
            raise err

    # -- effect handlers -------------------------------------------------------

    def _do_charge(self, proc: SimProcess, work: Work) -> None:
        dt = self.timing.price(work, self._runnable)
        if work.copy_bytes > 0:
            proc._copying = True
            self.timing.copy_started()
        stats = self.stats
        stats.charges += 1
        stats.charged_seconds += dt
        if _LABEL_PROF is not None:
            e = _LABEL_PROF.get(work.label)
            if e is None:
                _LABEL_PROF[work.label] = [1, dt]
            else:
                e[0] += 1
                e[1] += dt
        if self._recorder is not None:
            # Stamp the charge at its end so exported spans cover
            # [now, now + dt] once the recorder subtracts the duration.
            self._recorder.on_charge(self.now + dt, proc.name, work.label,
                                     dt, work.instrs, work.flops)
        self._pend_t = self.now + dt
        self._pend_proc = proc

    def _do_charge_many(self, proc: SimProcess, works: tuple[Work, ...]) -> None:
        """Price several adjacent charges as one scheduler event.

        Each part is priced separately (in order) and the clock advances
        by ``((now + dt1) + dt2) ...`` — the *same float expression* the
        equivalent back-to-back :class:`Charge` events would evaluate, so
        resume timestamps are bit-identical, not merely close (summing
        the dts first would differ in the last ulp and, across millions
        of events, drift figure values).  Statistics, recorder hooks and
        trace lines are emitted per part with the per-Charge timestamps.
        See :class:`~repro.core.effects.ChargeMany` for the
        (compute-only) restriction that makes this an identity.
        """
        timing = self.timing
        runnable = self._runnable
        stats = self.stats
        recorder = self._recorder
        trace = self._trace
        t = self.now
        for work in works:
            if trace is not None:
                self._trace(t, proc.name, f"Charge(work={work!r})")
            dt = timing.price(work, runnable)
            stats.charges += 1
            stats.charged_seconds += dt
            t = t + dt
            if _LABEL_PROF is not None:
                e = _LABEL_PROF.get(work.label)
                if e is None:
                    _LABEL_PROF[work.label] = [1, dt]
                else:
                    e[0] += 1
                    e[1] += dt
            if recorder is not None:
                recorder.on_charge(t, proc.name, work.label,
                                   dt, work.instrs, work.flops)
        stats.events += len(works) - 1
        # Resume at the absolute accumulated time (not now + total).
        self._pend_t = t
        self._pend_proc = proc

    def _lock(self, lock_id: int) -> _SimLock:
        try:
            return self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None

    def _chan(self, chan: int) -> _WaitChannel:
        try:
            return self.channels[chan]
        except IndexError:
            raise SimulationError(f"wait channel {chan} out of range") from None

    def _do_acquire(self, proc: SimProcess, lock_id: int) -> None:
        try:
            lock = self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None
        self.stats.lock_acquires += 1
        if lock.owner is None:
            lock.owner = proc
            lock.acquired_at = self.now
            if self._recorder is not None:
                self._recorder.on_acquire(self.now, proc.name, lock_id,
                                          0.0, contended=False)
            self._pend_t = self.now + self._t_acquire
            self._pend_proc = proc
        else:
            if lock.owner is proc:
                raise SimulationError(
                    f"process {proc.name!r} re-acquired lock {lock_id} (self-deadlock)"
                )
            self.stats.lock_contended += 1
            proc.state = _WAIT_LOCK
            self._runnable -= 1
            proc._wait_lock = lock_id
            proc._blocked_since = self.now
            lock.waiters.append(proc)

    def _do_release(self, proc: SimProcess, lock_id: int) -> None:
        try:
            lock = self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None
        if lock.owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} released lock {lock_id} it does not own"
            )
        if self._recorder is not None:
            self._recorder.on_release(self.now, proc.name, lock_id,
                                      self.now - lock.acquired_at)
        if lock.waiters:
            self._grant_next(lock_id, lock)
        else:
            lock.owner = None
        self._pend_t = self.now + self._t_release
        self._pend_proc = proc

    def _grant_next(self, lock_id: int, lock: _SimLock) -> None:
        """Hand the lock to its next FIFO waiter (or leave it free)."""
        if lock.waiters:
            nxt = lock.waiters.popleft()
            lock.owner = nxt
            lock.acquired_at = self.now
            nxt.state = _RUNNABLE
            self._runnable += 1
            nxt._wait_lock = None
            nxt.lock_wait_time += self.now - nxt._blocked_since
            if self._recorder is not None:
                self._recorder.on_acquire(
                    self.now, nxt.name, lock_id,
                    self.now - nxt._blocked_since, contended=True,
                    counted=not nxt._implicit_reacquire,
                )
            nxt._implicit_reacquire = False
            self._seq += 1
            self.stats.heap_pushes += 1
            _heappush(self._heap, (self.now + self._t_acquire, self._seq, nxt))
        else:
            lock.owner = None

    def _do_wait(self, proc: SimProcess, chan: int, lock_id: int) -> None:
        lock = self._lock(lock_id)
        if lock.owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} waits on channel {chan} "
                f"without holding lock {lock_id}"
            )
        channel = self._chan(chan)
        if self._recorder is not None:
            # WaitOn releases the circuit lock on the caller's behalf;
            # end the hold span without counting a Release effect.
            self._recorder.on_release(self.now, proc.name, lock_id,
                                      self.now - lock.acquired_at,
                                      counted=False)
        self._grant_next(lock_id, lock)
        proc.state = _WAIT_CHAN
        self._runnable -= 1
        proc._wait_lock = lock_id
        proc._blocked_since = self.now
        channel.sleepers.append(proc)

    def _do_wake(self, proc: SimProcess, chan: int) -> None:
        channel = self._chan(chan)
        n = len(channel.sleepers)
        self.stats.wakes += 1
        self.stats.woken += n
        if self._recorder is not None:
            self._recorder.on_wake(self.now, proc.name, chan, n)
        while channel.sleepers:
            sleeper = channel.sleepers.popleft()
            lock_id = sleeper._wait_lock
            assert lock_id is not None
            lock = self._lock(lock_id)
            # Split the sleeper's blocked interval here: what has elapsed
            # was channel sleep; whatever follows (if the lock is busy)
            # is lock wait.  The lock_wait_time total is unchanged — it
            # still accumulates the whole blocked interval.
            slept = self.now - sleeper._blocked_since
            sleeper.lock_wait_time += slept
            sleeper._blocked_since = self.now
            if self._recorder is not None:
                self._recorder.on_chan_wait(self.now, sleeper.name, chan, slept)
            # The sleeper must reacquire its lock before resuming: enter
            # the lock's FIFO (or take it if free).  Its WaitOn resumes
            # only once the lock is held again.
            if lock.owner is None:
                lock.owner = sleeper
                lock.acquired_at = self.now
                sleeper.state = _RUNNABLE
                self._runnable += 1
                sleeper._wait_lock = None
                if self._recorder is not None:
                    self._recorder.on_acquire(self.now, sleeper.name, lock_id,
                                              0.0, contended=False,
                                              counted=False)
                self._seq += 1
                self.stats.heap_pushes += 1
                _heappush(self._heap,
                          (self.now + self._t_acquire, self._seq, sleeper))
            else:
                sleeper.state = _WAIT_LOCK
                sleeper._implicit_reacquire = True
                lock.waiters.append(sleeper)
        self._pend_t = self.now + self.timing.wake_cost(n)
        self._pend_proc = proc
