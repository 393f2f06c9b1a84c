"""Aggregated machine statistics for a finished simulation.

Benchmarks and tests read one :class:`MachineReport` instead of poking at
engine, bus and VM internals.  Everything here is observational: building
a report does not perturb the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import BalanceTiming
from .engine import Engine

__all__ = [
    "MachineReport",
    "collect_report",
    "enable_report_profile",
    "disable_report_profile",
]

#: When enabled (``python -m repro.bench profile --top N``), every
#: :func:`collect_report` folds its engine's heap-crossing counters into
#: this accumulator, summing across all the simulations a figure runs —
#: the engine-level analog of the effect-label profile.
_REPORT_PROF: dict[str, int] | None = None


def enable_report_profile() -> dict[str, int]:
    """Start accumulating heap-crossing counters across reports."""
    global _REPORT_PROF
    _REPORT_PROF = {
        "runs": 0,
        "events": 0,
        "heap_pushes": 0,
        "heap_pops": 0,
    }
    return _REPORT_PROF


def disable_report_profile() -> None:
    """Stop accumulating (drops the reference; caller keeps the dict)."""
    global _REPORT_PROF
    _REPORT_PROF = None


@dataclass(frozen=True)
class MachineReport:
    """A snapshot of simulator counters after a run."""

    #: Final simulated time, seconds.
    sim_seconds: float
    #: Events the engine dispatched.
    events: int
    #: Total priced work, seconds (sum of all charges before queuing).
    charged_seconds: float
    #: Lock acquisitions / how many found the lock held.
    lock_acquires: int
    lock_contended: int
    #: Total simulated seconds processes spent blocked on locks.
    lock_wait_seconds: float
    #: Wake operations and sleepers woken.
    wakes: int
    woken: int
    #: Copy phases and the peak copy concurrency (bus model).
    copies: int
    peak_copiers: int
    #: Page faults and time lost to them (VM model).
    page_faults: float
    fault_seconds: float
    #: Cache read-miss stalls (block-equivalents) and time lost (cache model).
    cache_stalled_blocks: float
    cache_stall_seconds: float
    #: Event-heap crossings: how many events actually travelled through
    #: the heap (push + pop) versus being retired inline by the
    #: pending-resume slot.  ``events / heap_pops`` is the
    #: events-retired-per-pop ratio — the jitter-proof evidence of how
    #: much scheduler traffic the slot removed (wall clocks drift with
    #: machine load; these counters are deterministic).
    heap_pushes: int = 0
    heap_pops: int = 0

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def collect_report(engine: Engine, timing: BalanceTiming) -> MachineReport:
    """Assemble a :class:`MachineReport` from a finished engine."""
    prof = _REPORT_PROF
    if prof is not None:
        s = engine.stats
        prof["runs"] += 1
        prof["events"] += s.events
        prof["heap_pushes"] += s.heap_pushes
        prof["heap_pops"] += s.heap_pops
    return MachineReport(
        sim_seconds=engine.now,
        events=engine.stats.events,
        charged_seconds=engine.stats.charged_seconds,
        lock_acquires=engine.stats.lock_acquires,
        lock_contended=engine.stats.lock_contended,
        lock_wait_seconds=sum(p.lock_wait_time for p in engine.processes),
        wakes=engine.stats.wakes,
        woken=engine.stats.woken,
        copies=timing.bus.total_copies,
        peak_copiers=timing.bus.peak,
        page_faults=timing.vm.faults,
        fault_seconds=timing.vm.fault_time,
        cache_stalled_blocks=timing.cache.stalled_blocks,
        cache_stall_seconds=timing.cache.stall_time,
        heap_pushes=engine.stats.heap_pushes,
        heap_pops=engine.stats.heap_pops,
    )
