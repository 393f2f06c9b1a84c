"""Effect objects yielded by MPF primitives.

The paper's portability claim — "the only system dependent code involves
shared memory allocation and synchronization" — is realized here as an
*effect protocol*.  MPF primitives are written once, as generators that
mutate the shared region directly but **yield** every system-dependent
action as a small effect object.  Each runtime interprets the effects:

====================  ============================  =========================
effect                simulated machine              real runtimes
====================  ============================  =========================
:class:`Acquire`      queue on a simulated lock,    ``lock.acquire()``
                      advancing the virtual clock
:class:`Release`      hand the lock to the next     ``lock.release()``
                      waiter
:class:`Charge`       price the work and advance    ignored (time passes on
                      the clock                     its own)
:class:`WaitOn`       atomically release the lock,  ``condition.wait()``
                      sleep on a channel, reacquire
                      on wake
:class:`Wake`         wake every channel sleeper    ``condition.notify_all()``
====================  ============================  =========================

``WaitOn`` has condition-variable semantics: the caller must hold
``lock_id``; on resumption the lock is held again.  This closes the lost
wake-up window between "queue is empty" and "go to sleep" on every
runtime, which is the classic hazard of the blocking
``message_receive`` primitive (paper §2: "Message_receive() is blocking;
it returns only after a message has been received").
"""

from __future__ import annotations

from dataclasses import dataclass

from .work import Work

__all__ = [
    "Acquire",
    "Release",
    "Charge",
    "ChargeMany",
    "WaitOn",
    "Wake",
    "Effect",
]


@dataclass(frozen=True, slots=True)
class Acquire:
    """Take exclusive ownership of lock ``lock_id`` (blocking)."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class Release:
    """Give up ownership of lock ``lock_id``."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class Charge:
    """Account for ``work`` units of machine activity."""

    work: Work


@dataclass(frozen=True, slots=True)
class ChargeMany:
    """Account for several adjacent pieces of work in one effect.

    Semantically equivalent to yielding one :class:`Charge` per element
    of ``works`` back to back, but costs a single scheduler round-trip —
    the fast path for hot sections that interleave application compute
    with a primitive's fixed cost (e.g. a poll loop's backoff charge
    followed by ``check_receive``'s entry charge).

    Each part keeps its own :class:`~repro.core.work.Work` label, so
    per-label accounting (Tracer tables, Recorder charge splits) is
    unchanged.  Restriction: parts must be instruction/flop-only work
    (no ``copy_bytes``/``blocks``/``page_bytes``), because those feed
    stateful bus/cache/VM models whose inputs may move between two
    separate charge events; pure compute prices identically either way
    as long as the run is not oversubscribed (more runnable processes
    than simulated CPUs) — which none of the paper's workloads are.
    """

    works: tuple[Work, ...]


@dataclass(frozen=True, slots=True)
class WaitOn:
    """Sleep on wait channel ``chan``; caller holds ``lock_id``.

    The runtime releases ``lock_id``, suspends the process until another
    process executes :class:`Wake` on the same channel, then reacquires
    ``lock_id`` before resuming the caller — exactly a condition variable
    built over the LNVC's lock.
    """

    chan: int
    lock_id: int


@dataclass(frozen=True, slots=True)
class Wake:
    """Wake every process sleeping on wait channel ``chan``.

    Wake-all (rather than wake-one) is deliberate: with several FCFS
    receivers parked on one circuit, all of them race for the message and
    exactly one wins — the same race the paper documents for
    ``check_receive`` (§2) and blames for the small-message throughput
    decline of Figure 4.
    """

    chan: int


Effect = Acquire | Release | Charge | ChargeMany | WaitOn | Wake
