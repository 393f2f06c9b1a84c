"""Intentionally injected bugs, for proving the checker detects them.

A model checker that has never seen a failure proves nothing: the CI
smoke job and the acceptance tests run one *mutated* operation per
scenario and require the checker to flag it.  Two mutants cover the two
failure families a schedule explorer can surface:

* :func:`unlocked_send` — a clone of :func:`repro.core.ops.message_send`
  whose FIFO-link phase skips the circuit lock **and** yields between
  reading the tail and writing the link, opening a torn-update window.
  Two racing sends through the window orphan a message (allocated and
  counted, but unreachable from the FIFO) — exactly the corruption the
  per-circuit lock exists to prevent, caught by the structural
  invariants of :mod:`repro.core.inspect`.
* :func:`drop_wake` — an effect filter that swallows ``Wake`` effects,
  simulating a missed ``notify``.  Receivers already asleep never learn
  a message arrived: a *lost wakeup*, caught by
  :func:`repro.check.deadlock.analyze_stall` as sleepers on a circuit
  with deliverable traffic.

Both are deliberately broken; nothing outside :mod:`repro.check` and its
tests may import them.
"""

from __future__ import annotations

from typing import Generator

from ..core.effects import Acquire, Charge, Release, Wake
from ..core.freelist import fl_alloc
from ..core.ops import (  # noqa: F401  (private ops internals, on purpose)
    _H_FREE_BLK,
    _H_FREE_MSG,
    _H_LIVE_BLOCKS,
    _H_LIVE_BYTES,
    _H_LIVE_MSGS,
    _L_FCFS_HEAD,
    _L_FIFO_HEAD,
    _L_FIFO_TAIL,
    _L_GEN,
    _L_HWM_NMSGS,
    _L_N_BCAST,
    _L_N_FCFS,
    _L_NMSGS,
    _L_SEQ,
    _SLOT_MASK,
    MPFView,
    OpGen,
)
from ..core.ops import (
    _F_FCFS_EXPECTED,
    _F_HAD_RECEIVERS,
    _M_BCAST_PENDING,
    _M_BUSY,
    _M_FIRST_BLK,
    _M_FLAGS,
    _M_LENGTH,
    _M_NBLOCKS,
    _M_NEXT_MSG,
    _M_SENDER,
    _M_SEQNO,
)
from ..core.protocol import ALLOC_LOCK, NIL
from ..core.structs import BLK_NEXT
from ..core.work import Work

__all__ = ["FAULTS", "drop_wake", "unlocked_send"]


def drop_wake(gen: Generator) -> Generator:
    """Forward every effect of ``gen`` except ``Wake`` (swallowed).

    Models a broken implementation that releases the circuit lock but
    forgets to notify the wait channel — the classic lost-wakeup bug.
    """
    value = None
    try:
        while True:
            effect = gen.send(value)
            if isinstance(effect, Wake):
                value = None  # swallowed: the injected bug
            else:
                value = yield effect
    except StopIteration as stop:
        return stop.value


def unlocked_send(view: MPFView, pid: int, lnvc_id: int, data: bytes) -> OpGen:
    """``message_send`` with the circuit lock removed and a torn window.

    Allocation (phase 1) and block fill (phase 2) are kept correct; the
    FIFO-link phase runs with **no** circuit lock and yields to the
    scheduler between reading ``fifo_tail`` and linking.  Two instances
    racing through that window both read the same tail; the second link
    overwrites the first, leaving a message counted in ``live_msgs`` and
    ``nmsgs`` but unreachable from the FIFO.
    """
    data = bytes(data)
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    lay = view.layout
    bs = view.cfg.block_size
    length = len(data)
    nblk = (length + bs - 1) // bs
    # Torn sends still report to the causal tracer: a failure's message
    # history must include the very sends that corrupt the segment.
    causal = view.causal
    t_entry = causal.clock() if causal is not None else 0.0

    # Phase 1: allocation, correctly under the allocator lock.
    yield Acquire(ALLOC_LOCK)
    hdr = fl_alloc(r, _H_FREE_MSG)
    assert hdr != NIL, "fault scenarios must size the pool generously"
    blocks: list[int] = []
    blk = u32(_H_FREE_BLK)
    while len(blocks) < nblk and blk != NIL:
        blocks.append(blk)
        blk = u32(blk + BLK_NEXT)
    assert len(blocks) == nblk, "fault scenarios must size the pool generously"
    set_u32(_H_FREE_BLK, blk)
    r.add_u32(_H_LIVE_MSGS, 1)
    r.add_u32(_H_LIVE_BLOCKS, nblk)
    r.add_u32(_H_LIVE_BYTES, length)
    yield Release(ALLOC_LOCK)

    # Phase 2: fill the private chain (correct: blocks are still private).
    last = nblk - 1
    for i, b in enumerate(blocks):
        set_u32(b + BLK_NEXT, blocks[i + 1] if i < last else NIL)
        r.write(b + 4, data[i * bs : min((i + 1) * bs, length)])

    # Phase 3: link at the FIFO tail -- THE BUG: no circuit lock, and a
    # scheduler yield splits the read-tail / write-link critical section.
    slot = lnvc_id & _SLOT_MASK
    base = lay.lnvc_off(slot)
    n_fcfs = u32(base + _L_N_FCFS)
    n_bcast = u32(base + _L_N_BCAST)
    flags = 0
    if n_fcfs:
        flags |= _F_FCFS_EXPECTED
    if n_fcfs or n_bcast:
        flags |= _F_HAD_RECEIVERS
    seqno = u32(base + _L_SEQ)
    tail = u32(base + _L_FIFO_TAIL)
    yield Charge(Work(instrs=1, label="fault-torn-window"))
    set_u32(base + _L_SEQ, seqno + 1)
    set_u32(hdr + _M_LENGTH, length)
    set_u32(hdr + _M_NBLOCKS, nblk)
    set_u32(hdr + _M_FIRST_BLK, blocks[0] if blocks else NIL)
    set_u32(hdr + _M_NEXT_MSG, NIL)
    set_u32(hdr + _M_BCAST_PENDING, n_bcast)
    set_u32(hdr + _M_BUSY, 0)
    set_u32(hdr + _M_FLAGS, flags)
    set_u32(hdr + _M_SEQNO, seqno)
    set_u32(hdr + _M_SENDER, pid)
    if tail == NIL:
        set_u32(base + _L_FIFO_HEAD, hdr)
    else:
        set_u32(tail + _M_NEXT_MSG, hdr)
    set_u32(base + _L_FIFO_TAIL, hdr)
    depth = r.add_u32(base + _L_NMSGS, 1)
    if depth > u32(base + _L_HWM_NMSGS):
        set_u32(base + _L_HWM_NMSGS, depth)
    if u32(base + _L_FCFS_HEAD) == NIL:
        set_u32(base + _L_FCFS_HEAD, hdr)
    if causal is not None:
        t = causal.clock()
        causal.on_send(pid, slot, u32(base + _L_GEN), seqno, length, nblk,
                       depth, t_entry, t, t)
    yield Wake(slot)
    return seqno


#: Injectable faults by CLI name.  ``torn-send`` reroutes a scenario's
#: sends through :func:`unlocked_send`; ``drop-wake`` wraps its senders'
#: whole generator in :func:`drop_wake`.
FAULTS = ("torn-send", "drop-wake")
