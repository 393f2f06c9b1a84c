"""The transport layer: how message bytes move between processes.

The MPF *protocol* — LNVC naming, FCFS/BROADCAST delivery, the §3.2
retirement rule — is independent of how payload bytes physically travel
through the shared segment.  This module formalizes that split:

* :class:`FreelistTransport` — the paper's 1987 design: variable-length
  messages as chains of 10-byte blocks from one global free list, linked
  into a per-circuit FIFO.  Flexible, but every send crosses the global
  ``ALLOC_LOCK`` and the sender's critical section grows with the
  receiver count — the contention collapse of Figure 4 (§4).
* :class:`RingTransport` — the modern answer, after kzimp's "Memory
  Passing Sockets" (``mpsoc.h``): a per-circuit array of fixed-size
  cache-line-aligned slots, a monotone write index, per-reader cursors
  each on their own cache line, and a per-slot reader bitmap for
  BROADCAST completion.  No allocator, no list walks; a sender's
  critical section is a constant-size index claim.

The transport is chosen per circuit at creation time
(:attr:`~repro.core.layout.MPFConfig.transport` sets the default,
:attr:`~repro.core.layout.MPFConfig.transports` overrides by name) and
recorded in the LNVC's ``transport`` field; :mod:`repro.core.ops`
dispatches each hot primitive on that one u32.  Both transports speak
the same protocol: same primitives, same blocking semantics, same
retirement rule, same observability hooks.

Ring data layout (see also docs/transport.md)::

    RING control    | next_write | fcfs_next | reader_mask |  (1 line)
    RCUR cursor x32 | next_seq | nreads |                     (1 line each)
    slot k          | seq len seqno sender state busy |       (line 0)
                    | pending bitmap |                        (line 1)
                    | payload ... |                           (lines 2..)

A message claims index ``w = next_write++``, fills slot
``w % ring_slots`` and *commits* by storing ``w + 1`` into the slot's
``seq`` word, all in one circuit-lock section — the sender queues
behind its receivers exactly once per message, like the free-list
sender's single link step.  Readers recognise exactly
``seq == index + 1`` as "mine": a stale ``seq`` from an earlier lap can
never alias a fresh message, which is what makes slot reuse safe (the
``ring-wrap`` check scenario exercises this).  The real mpsoc claims
with one fetch-and-add and commits with one atomic store, no lock at
all; this portable reproduction serializes both through the circuit
lock and *models* the coherence cost of the lock-free original
(:attr:`~repro.core.costmodel.Costs.cacheline_xfer`).
"""

from __future__ import annotations

from typing import Generator, Iterable

from .effects import (
    Acquire,
    Charge,
    ChargeMany,
    Effect,
    Release,
    Wake,
)
from .errors import (
    BufferOverflowError,
    NotConnectedError,
    OutOfDescriptorsError,
    OutOfMessageMemoryError,
    UnknownLNVCError,
)
from .freelist import fl_alloc, fl_free
from .layout import HDR
from .protocol import FIRST_LNVC_LOCK, GLOBAL_LOCK, NIL, SLOT_BITS, Protocol
from .structs import (
    CACHE_LINE,
    LNVC,
    RCUR,
    RECV,
    RING,
    RING_READERS,
    RSLOT,
    RSLOT_DATA_OFF,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
    SEND,
)
from .work import Work

__all__ = [
    "FreelistTransport",
    "RingTransport",
    "TRANSPORTS",
    "ring_send",
    "ring_receive",
    "ring_check",
    "ring_attach",
    "ring_release",
    "ring_register_reader",
    "ring_unregister_reader",
]

OpGen = Generator[Effect, None, object]

# Constant-folded field offsets, as in ops.py: the ring primitives run
# once per message in figure sweeps.
_SLOT_MASK = (1 << SLOT_BITS) - 1

_L_IN_USE = LNVC.offsets["in_use"]
_L_GEN = LNVC.offsets["gen"]
_L_NMSGS = LNVC.offsets["nmsgs"]
_L_SEND_LIST = LNVC.offsets["send_list"]
_L_RECV_LIST = LNVC.offsets["recv_list"]
_L_N_FCFS = LNVC.offsets["n_fcfs"]
_L_N_BCAST = LNVC.offsets["n_bcast"]
_L_SEQ = LNVC.offsets["seq"]
_L_HWM_NMSGS = LNVC.offsets["hwm_nmsgs"]
_L_CONN_EPOCH = LNVC.offsets["conn_epoch"]
_L_RING = LNVC.offsets["ring"]

_S_PID = SEND.offsets["pid"]
_S_NEXT = SEND.offsets["next"]
_R_PID = RECV.offsets["pid"]
_R_PROTO = RECV.offsets["proto"]
_R_HEAD = RECV.offsets["head"]
_R_NEXT = RECV.offsets["next"]
_R_NREADS = RECV.offsets["nreads"]

_RG_NEXT_WRITE = RING.offsets["next_write"]
_RG_FCFS_NEXT = RING.offsets["fcfs_next"]
_RG_READER_MASK = RING.offsets["reader_mask"]

_RS_SEQ = RSLOT.offsets["seq"]
_RS_LENGTH = RSLOT.offsets["length"]
_RS_SEQNO = RSLOT.offsets["seqno"]
_RS_SENDER = RSLOT.offsets["sender"]
_RS_STATE = RSLOT.offsets["state"]
_RS_BUSY = RSLOT.offsets["busy"]

_RC_NEXT_SEQ = RCUR.offsets["next_seq"]
_RC_NREADS = RCUR.offsets["nreads"]

_H_FREE_RING = HDR.u32["free_ring"]
_H_TOTAL_SENDS = HDR.u64["total_sends"]
_H_TOTAL_RECEIVES = HDR.u64["total_receives"]
_H_TOTAL_BYTES_SENT = HDR.u64["total_bytes_sent"]
_H_TOTAL_BYTES_RECEIVED = HDR.u64["total_bytes_received"]

_P_FCFS = int(Protocol.FCFS)


class FreelistTransport:
    """The paper's block-chain transport (implemented in ops.py).

    Variable-length payloads, one global block pool, per-circuit linked
    FIFO.  Its contention profile: every send and every reap crosses
    ``ALLOC_LOCK``, and the sender walks the receiver list under the
    circuit lock, so critical sections grow with fan-out.
    """

    kind = "freelist"
    #: LNVC ``transport`` field value.
    tag = 0


class RingTransport:
    """The mpsoc-style fixed-slot ring transport (this module).

    Bounded payloads (``ring_slot_bytes``), no shared allocator,
    constant-size critical sections.  A full ring blocks senders until a
    slot retires — backpressure instead of the free-list transport's
    pool-exhaustion error.
    """

    kind = "ring"
    tag = 1


#: Transport registry, keyed by the config's ``transport`` strings.
TRANSPORTS = {t.kind: t for t in (FreelistTransport, RingTransport)}


# ---------------------------------------------------------------------------
# helpers (mirrors of the ops.py helpers; ops imports this module, so
# these are redeclared here rather than imported)
# ---------------------------------------------------------------------------


def _release_and_raise(locks: Iterable[int], exc: Exception) -> OpGen:
    for lock in locks:
        yield Release(lock)
    raise exc


def _find_send(view, base: int, pid: int) -> tuple[int, int]:
    """Locate ``pid``'s send descriptor: ``(desc_off|NIL, steps)``."""
    u32 = view.region.u32
    off, steps = u32(base + _L_SEND_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _S_PID) == pid:
            return off, steps
        off = u32(off + _S_NEXT)
    return NIL, steps


def _find_recv(view, base: int, pid: int) -> tuple[int, int]:
    """Locate ``pid``'s receive descriptor: ``(desc_off|NIL, steps)``."""
    u32 = view.region.u32
    off, steps = u32(base + _L_RECV_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _R_PID) == pid:
            return off, steps
        off = u32(off + _R_NEXT)
    return NIL, steps


def _lines(length: int) -> int:
    """Cache lines one message touches: header + bitmap + payload."""
    return 2 + (length + CACHE_LINE - 1) // CACHE_LINE


def ring_retire_check(view, base: int, sl: int) -> bool:
    """Apply the retirement rule to the slot at ``sl``; True if it
    retires (now or earlier).

    Mirrors ops._retire_check: a slot retires when its pending reader
    bitmap is empty, nobody is copying out of it, and its FCFS
    obligation is discharged.  ``RS_FCFS_AVAILABLE`` covers both the
    "an FCFS receiver must take this" case and the "no receivers at
    enqueue — hold for a future FCFS joiner" case (paper §3.2).
    Caller holds the circuit lock.
    """
    r = view.region
    st = r.u32(sl + _RS_STATE)
    if st & RS_RETIRED:
        return True
    if r.u32(sl + RSLOT_PENDING_OFF) or r.u32(sl + _RS_BUSY):
        return False
    if (st & RS_FCFS_AVAILABLE) and not (st & RS_FCFS_TAKEN):
        return False
    r.set_u32(sl + _RS_STATE, st | RS_RETIRED)
    r.add_u32(base + _L_NMSGS, -1)
    return True


# ---------------------------------------------------------------------------
# circuit lifecycle hooks (called from ops open/close/delete paths)
# ---------------------------------------------------------------------------


def ring_attach(view, slot: int, base: int) -> OpGen:
    """Bind a freshly created circuit to a ring from the pool.

    Caller holds the global lock (open path).  Allocates the control
    block under ``ALLOC_LOCK``, resets it, and zeroes the slot headers
    and cursors of a possible previous tenant.
    """
    r = view.region
    lay = view.layout
    cfg = view.cfg
    yield view._alloc_acq
    ring = fl_alloc(r, _H_FREE_RING)
    yield view._alloc_rel
    if ring == NIL:
        # Roll the just-created circuit back before raising: no public
        # identifier has escaped yet, so resetting in_use suffices.
        LNVC.set(r, base, "in_use", 0)
        HDR.add(r, "live_lnvcs", -1)
        yield from _release_and_raise(
            [GLOBAL_LOCK], OutOfMessageMemoryError("ring pool exhausted")
        )
    r.fill(ring, RING.size, 0)
    ridx = lay.ring_index(ring)
    r.fill(lay.ring_cur_off(ridx, 0), RING_READERS * RCUR.size, 0)
    for i in range(cfg.ring_slots):
        RSLOT.clear(r, lay.ring_slot_off(ridx, i))
        r.set_u32(lay.ring_slot_off(ridx, i) + RSLOT_PENDING_OFF, 0)
    LNVC.set(r, base, "transport", RingTransport.tag)
    LNVC.set(r, base, "ring", ring)
    HDR.add(r, "live_rings", 1)
    yield Charge(
        Work(
            instrs=view.costs.open_fixed // 2,
            page_bytes=cfg.ring_slots * lay.ring_stride,
            label="ring-setup",
        )
    )
    return ring


def ring_release(view, base: int) -> OpGen:
    """Return a deleted circuit's ring to the pool (caller holds the
    global and circuit locks; called before the LNVC record is cleared)."""
    r = view.region
    ring = r.u32(base + _L_RING)
    yield view._alloc_acq
    fl_free(r, _H_FREE_RING, ring)
    yield view._alloc_rel
    HDR.add(r, "live_rings", -1)
    return None


def ring_register_reader(view, base: int, desc: int) -> None:
    """Assign a BROADCAST reader its bitmap index and tail cursor.

    Caller holds the circuit lock (open_receive path).  The bit index is
    stored in the descriptor's ``head`` field — unused on ring circuits,
    where per-reader progress lives in the RCUR cursor instead.  Raises
    when all :data:`RING_READERS` indexes are taken.
    """
    r = view.region
    ring = r.u32(base + _L_RING)
    mask = r.u32(ring + _RG_READER_MASK)
    bit = 0
    while bit < RING_READERS and mask & (1 << bit):
        bit += 1
    if bit == RING_READERS:
        raise OutOfDescriptorsError(
            f"ring circuit already has {RING_READERS} BROADCAST readers"
        )
    r.set_u32(ring + _RG_READER_MASK, mask | (1 << bit))
    RECV.set(r, desc, "head", bit)
    ridx = view.layout.ring_index(ring)
    cur = view.layout.ring_cur_off(ridx, bit)
    # Join at the tail: hear only messages claimed after this point.
    r.set_u32(cur + _RC_NEXT_SEQ, r.u32(ring + _RG_NEXT_WRITE))
    r.set_u32(cur + _RC_NREADS, 0)


def ring_unregister_reader(view, base: int, desc: int) -> bool:
    """Remove a closing BROADCAST reader: drop its mask bit and shed its
    pending bit from every committed live slot (the ring analogue of the
    free-list close_receive walk).  Returns True if any slot retired —
    the caller must wake the circuit's channel after releasing, since a
    sender blocked on a full ring may now proceed.

    Claimed-but-uncommitted slots cannot exist here: a sender claims,
    fills and commits inside one circuit-lock section, and this runs
    under the same lock.  Caller holds the circuit lock.
    """
    r = view.region
    u32 = r.u32
    lay = view.layout
    nslots = view.cfg.ring_slots
    ring = u32(base + _L_RING)
    bit = RECV.get(r, desc, "head")
    r.set_u32(ring + _RG_READER_MASK, u32(ring + _RG_READER_MASK) & ~(1 << bit))
    retired = False
    w = u32(ring + _RG_NEXT_WRITE)
    idx = w - nslots if w > nslots else 0
    while idx < w:
        sl = lay.ring_slot_off(lay.ring_index(ring), idx % nslots)
        idx += 1
        if u32(sl + _RS_SEQ) != idx:  # uncommitted, or an older lap
            continue
        if u32(sl + _RS_STATE) & RS_RETIRED:
            continue
        pend = u32(sl + RSLOT_PENDING_OFF)
        if pend & (1 << bit):
            r.set_u32(sl + RSLOT_PENDING_OFF, pend & ~(1 << bit))
            if ring_retire_check(view, base, sl):
                retired = True
    return retired


# ---------------------------------------------------------------------------
# hot primitives (dispatched to from ops.message_send / message_receive /
# check_receive when the circuit's transport field says "ring")
# ---------------------------------------------------------------------------


def ring_send(view, pid: int, lnvc_id: int, data: bytes,
              prelude: Work | None = None) -> OpGen:
    """message_send over the ring transport.

    Claim an index, fill the slot and store the commit word in ONE
    circuit-lock section, then wake.  A single section matters: the
    sender queues behind the receiver herd's lock sections once per
    message — exactly as often as the free-list sender queues for its
    link step — so it can run ahead and build a backlog instead of
    lock-stepping with its readers.  (Holding the lock across the fill
    also makes the pending snapshot exact: no reader can register or
    close mid-fill.)  Blocks (WaitOn) when the ring is full —
    backpressure where the free-list transport raises
    ``OutOfMessageMemoryError``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("message payload must be bytes-like")
    data = bytes(data)
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    lay = view.layout
    cfg = view.cfg
    length = len(data)
    if length > cfg.ring_slot_bytes:
        raise BufferOverflowError(
            f"{length}-byte message exceeds ring slot capacity "
            f"of {cfg.ring_slot_bytes} bytes"
        )
    causal = view.causal
    t_entry = causal.clock() if causal is not None else 0.0
    if prelude is None:
        yield view._ring_send_fixed
    else:
        yield ChargeMany((prelude, view._ring_send_fixed_work))

    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK
    yield view._acq[slot] if in_table else Acquire(lock)
    try:
        base = lay.lnvc_off(slot)
        if (
            not in_table
            or not u32(base + _L_IN_USE)
            or u32(base + _L_GEN) != gen
        ):
            view.resolve(lnvc_id)  # raises with the precise message
        epoch = u32(base + _L_CONN_EPOCH)
        hit = view._send_cache.get((slot, pid))
        if hit is not None and hit[2] == gen and hit[3] == epoch:
            steps = hit[1]
        else:
            sd, steps = _find_send(view, base, pid)
            if sd == NIL:
                raise NotConnectedError(
                    f"pid {pid} holds no send connection here"
                )
            view._send_cache[(slot, pid)] = (sd, steps, gen, epoch)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _release_and_raise([lock], exc)

    ring = u32(base + _L_RING)
    ridx = lay.ring_index(ring)
    nslots = cfg.ring_slots
    # Claim: wait until the target slot's previous tenant has retired.
    while True:
        w = u32(ring + _RG_NEXT_WRITE)
        sl = lay.ring_slot_off(ridx, w % nslots)
        if u32(sl + _RS_SEQ) == 0 or u32(sl + _RS_STATE) & RS_RETIRED:
            break
        yield view._waiton[slot]
        yield view._recv_wakeup
    set_u32(ring + _RG_NEXT_WRITE, w + 1)
    pending = u32(ring + _RG_READER_MASK)
    n_fcfs = u32(base + _L_N_FCFS)
    # Receivers-at-enqueue snapshot, as in the free-list transport: an
    # FCFS obligation when FCFS receivers exist, and a hold-for-future-
    # joiner obligation when no receiver of either kind exists.
    if n_fcfs or not (pending or u32(base + _L_N_BCAST)):
        state = RS_FCFS_AVAILABLE
    else:
        state = 0
    seqno = u32(base + _L_SEQ)
    set_u32(base + _L_SEQ, seqno + 1)
    depth = r.add_u32(base + _L_NMSGS, 1)
    if depth > u32(base + _L_HWM_NMSGS):
        set_u32(base + _L_HWM_NMSGS, depth)
    r.add_u64(_H_TOTAL_SENDS, 1)
    r.add_u64(_H_TOTAL_BYTES_SENT, length)
    yield view._ring_claim
    t_claim = causal.clock() if causal is not None else 0.0

    # Fill — still under the lock, so the pending snapshot above stays
    # exact (nobody can open or close a receive connection mid-fill).
    set_u32(sl + _RS_LENGTH, length)
    set_u32(sl + _RS_SEQNO, seqno)
    set_u32(sl + _RS_SENDER, pid)
    set_u32(sl + _RS_STATE, state)
    set_u32(sl + _RS_BUSY, 0)
    set_u32(sl + RSLOT_PENDING_OFF, pending)
    r.write(sl + RSLOT_DATA_OFF, data)
    yield Charge(
        Work(
            instrs=length * c.copy_byte + _lines(length) * c.cacheline_xfer
            + steps * c.list_step,
            copy_bytes=length,
            page_bytes=lay.ring_stride,
            label="ring-fill",
        )
    )
    t_fill = causal.clock() if causal is not None else 0.0

    # Commit: store the commit word, retire degenerate messages whose
    # audience is empty, release the single lock section.
    set_u32(sl + _RS_SEQ, w + 1)
    ring_retire_check(view, base, sl)
    yield view._ring_commit
    yield view._rel[slot] if in_table else Release(lock)
    if causal is not None:
        causal.on_send(pid, slot, gen, seqno, length, _lines(length), depth,
                       t_entry, t_claim, t_fill)
    tl = view.timeline
    if tl is not None:
        tl.tap_send(slot, length, depth)
        tl.tap_ring(slot, depth)
    yield view._wake[slot] if in_table else Wake(slot)
    return seqno


def ring_receive(view, pid: int, lnvc_id: int,
                 max_len: int | None = None) -> OpGen:
    """message_receive over the ring transport.

    A BROADCAST reader takes committed slots on a *lock-free* fast
    path — the mpsoc read side.  Its cursor is private (one cache line,
    written only by this reader), the commit word ``seq == index + 1``
    is self-validating, and its pending bit already pins the slot
    against retirement until the completion section clears it, so
    observing and claiming a committed message needs no lock at all.
    The circuit lock is taken only to park race-free when the cursor
    has caught up with the sender (check-then-WaitOn under the lock, so
    the sender's commit+wake cannot be lost) and for the completion
    section.

    An FCFS reader always goes through the lock: it advances the
    *shared* ``fcfs_next`` cursor over committed slots, skipping those
    with no FCFS obligation, and pins its slot with the ``busy`` count
    while copying (its claim leaves no pending bit to protect it).

    Either way the payload copy runs outside the circuit lock, exactly
    as in the free-list transport.
    """
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    lay = view.layout
    causal = view.causal
    t_entry = causal.clock() if causal is not None else 0.0
    yield view._ring_recv_fixed
    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < view.cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK
    base = lay.lnvc_off(slot)
    nslots = view.cfg.ring_slots

    # -- lock-free BROADCAST fast path -----------------------------------
    # Valid only on a connection-cache hit: our own receive connection
    # being open is what forbids circuit deletion and generation reuse,
    # and the epoch check proves the cached descriptor offset is what a
    # fresh (locked) walk would find.  Reads here follow the seqlock
    # discipline: the sender publishes the commit word *last*, so any
    # slot whose ``seq`` matches our cursor is fully filled.
    is_fcfs = True
    taken = NIL
    hit = view._recv_cache.get((slot, pid)) if in_table else None
    if (
        hit is not None
        and hit[2] == gen
        and u32(base + _L_IN_USE)
        and u32(base + _L_GEN) == gen
        and hit[3] == u32(base + _L_CONN_EPOCH)
    ):
        desc = hit[0]
        if u32(desc + _R_PROTO) != _P_FCFS:
            is_fcfs = False
            ring = u32(base + _L_RING)
            ridx = lay.ring_index(ring)
            bit = u32(desc + _R_HEAD)
            cur = lay.ring_cur_off(ridx, bit)
            cseq = u32(cur + _RC_NEXT_SEQ)
            sl = lay.ring_slot_off(ridx, cseq % nslots)
            if u32(sl + _RS_SEQ) == cseq + 1:
                length = u32(sl + _RS_LENGTH)
                if max_len is not None and length > max_len:
                    raise BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    )
                set_u32(cur + _RC_NEXT_SEQ, cseq + 1)
                r.add_u32(cur + _RC_NREADS, 1)
                r.add_u32(desc + _R_NREADS, 1)
                taken = sl

    if taken != NIL:
        yield view._ring_cursor
        t_claim = causal.clock() if causal is not None else 0.0
    else:
        yield view._acq[slot] if in_table else Acquire(lock)
        if (
            not in_table
            or not u32(base + _L_IN_USE)
            or u32(base + _L_GEN) != gen
        ):
            try:
                view.resolve(lnvc_id)
            except UnknownLNVCError as exc:
                yield from _release_and_raise([lock], exc)
        epoch = u32(base + _L_CONN_EPOCH)
        hit = view._recv_cache.get((slot, pid))
        if hit is not None and hit[2] == gen and hit[3] == epoch:
            desc = hit[0]
            steps = hit[1]
        else:
            desc, steps = _find_recv(view, base, pid)
            if desc == NIL:
                yield from _release_and_raise(
                    [lock],
                    NotConnectedError(
                        f"pid {pid} holds no receive connection here"
                    ),
                )
            view._recv_cache[(slot, pid)] = (desc, steps, gen, epoch)
        is_fcfs = u32(desc + _R_PROTO) == _P_FCFS
        yield view._recv_find[steps] if steps < 8 else Charge(
            Work(instrs=steps * c.list_step, label="recv-find")
        )

        ring = u32(base + _L_RING)
        ridx = lay.ring_index(ring)
        if is_fcfs:
            # Scan the shared cursor forward over committed slots; stop
            # at the first FCFS-available one, park at the first
            # uncommitted index (commits happen in claim order per slot,
            # but a later index may commit before an earlier one — FCFS
            # order waits).
            while True:
                f = u32(ring + _RG_FCFS_NEXT)
                w = u32(ring + _RG_NEXT_WRITE)
                sl = NIL
                while f < w:
                    s = lay.ring_slot_off(ridx, f % nslots)
                    if u32(s + _RS_SEQ) != f + 1:
                        break
                    st = u32(s + _RS_STATE)
                    if st & RS_FCFS_AVAILABLE and not st & (
                        RS_FCFS_TAKEN | RS_RETIRED
                    ):
                        sl = s
                        break
                    f += 1
                set_u32(ring + _RG_FCFS_NEXT, f)
                if sl != NIL:
                    break
                yield view._waiton[slot]
                yield view._recv_wakeup
            length = u32(sl + _RS_LENGTH)
            if max_len is not None and length > max_len:
                yield from _release_and_raise(
                    [lock],
                    BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    ),
                )
            set_u32(sl + _RS_STATE, u32(sl + _RS_STATE) | RS_FCFS_TAKEN)
            set_u32(ring + _RG_FCFS_NEXT, f + 1)
            # Pin against retirement while we copy outside the lock: an
            # FCFS claim clears no pending bit, so ``busy`` is its pin.
            r.add_u32(sl + _RS_BUSY, 1)
            yield view._ring_claim
        else:
            bit = u32(desc + _R_HEAD)
            cur = lay.ring_cur_off(ridx, bit)
            while True:
                cseq = u32(cur + _RC_NEXT_SEQ)
                sl = lay.ring_slot_off(ridx, cseq % nslots)
                if u32(sl + _RS_SEQ) == cseq + 1:
                    break
                yield view._waiton[slot]
                yield view._recv_wakeup
            length = u32(sl + _RS_LENGTH)
            if max_len is not None and length > max_len:
                yield from _release_and_raise(
                    [lock],
                    BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    ),
                )
            set_u32(cur + _RC_NEXT_SEQ, cseq + 1)
            r.add_u32(cur + _RC_NREADS, 1)
            yield view._ring_cursor
        r.add_u32(desc + _R_NREADS, 1)
        t_claim = causal.clock() if causal is not None else 0.0
        yield view._rel[slot] if in_table else Release(lock)
    seqno = u32(sl + _RS_SEQNO)

    # Copy phase — concurrent with other readers of the same slot.
    payload = r.read(sl + RSLOT_DATA_OFF, length)
    yield Charge(
        Work(
            instrs=length * c.copy_byte + _lines(length) * c.cacheline_xfer,
            copy_bytes=length,
            label="ring-copy",
        )
    )
    t_drain = causal.clock() if causal is not None else 0.0

    # Completion: drop the pin (busy for FCFS, our pending bit for
    # BROADCAST), retire.
    yield view._acq[slot] if in_table else Acquire(lock)
    if is_fcfs:
        r.add_u32(sl + _RS_BUSY, -1)
    else:
        pend = u32(sl + RSLOT_PENDING_OFF)
        set_u32(sl + RSLOT_PENDING_OFF, pend & ~(1 << bit))
    retired = ring_retire_check(view, base, sl)
    # A blocked sender always parks on slot ``next_write % nslots`` (it
    # waits *before* claiming), so a retire elsewhere in the ring cannot
    # unblock anyone: waking only on a match spares the receiver herd a
    # futile wakeup per message.
    wake_sender = retired and (
        (u32(sl + _RS_SEQ) - 1) % nslots
        == u32(ring + _RG_NEXT_WRITE) % nslots
    )
    yield view._ring_consume
    r.add_u64(_H_TOTAL_RECEIVES, 1)
    r.add_u64(_H_TOTAL_BYTES_RECEIVED, length)
    yield view._rel[slot] if in_table else Release(lock)
    if wake_sender:
        yield view._wake[slot] if in_table else Wake(slot)
    if causal is not None:
        causal.on_recv(pid, slot, gen, seqno, length, is_fcfs,
                       t_entry, t_claim, t_drain)
    tl = view.timeline
    if tl is not None:
        tl.tap_recv(slot, length)
        tl.tap_ring(slot, u32(base + _L_NMSGS))
    return payload


def _count_ready(view, lay, u32, base: int, desc: int, nslots: int) -> int:
    """Deliverable-message count for ``desc`` on the slot's ring — the
    walk :func:`ring_check` charges for (shared by both step modes)."""
    ring = u32(base + _L_RING)
    ridx = lay.ring_index(ring)
    count = 0
    if u32(desc + _R_PROTO) == _P_FCFS:
        f = u32(ring + _RG_FCFS_NEXT)
        w = u32(ring + _RG_NEXT_WRITE)
        while f < w:
            s = lay.ring_slot_off(ridx, f % nslots)
            if u32(s + _RS_SEQ) != f + 1:
                break
            st = u32(s + _RS_STATE)
            if st & RS_FCFS_AVAILABLE and not st & (RS_FCFS_TAKEN | RS_RETIRED):
                count += 1
            f += 1
    else:
        cseq = u32(desc + _R_HEAD)  # reader bit
        cur = lay.ring_cur_off(ridx, cseq)
        cseq = u32(cur + _RC_NEXT_SEQ)
        while u32(lay.ring_slot_off(ridx, cseq % nslots) + _RS_SEQ) == cseq + 1:
            count += 1
            cseq += 1
    return count


def ring_check(view, pid: int, lnvc_id: int,
               prelude: Work | None = None) -> OpGen:
    """check_receive over the ring transport (advisory, as ever for FCFS)."""
    r = view.region
    u32 = r.u32
    c = view.costs
    lay = view.layout
    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < view.cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK

    if prelude is None:
        yield view._check_fixed
    else:
        yield ChargeMany((prelude, view._check_fixed_work))
    yield view._acq[slot] if in_table else Acquire(lock)
    base = lay.lnvc_off(slot)
    if (
        not in_table
        or not u32(base + _L_IN_USE)
        or u32(base + _L_GEN) != gen
    ):
        try:
            view.resolve(lnvc_id)
        except UnknownLNVCError as exc:
            yield from _release_and_raise([lock], exc)
    epoch = u32(base + _L_CONN_EPOCH)
    hit = view._recv_cache.get((slot, pid))
    if hit is not None and hit[2] == gen and hit[3] == epoch:
        desc = hit[0]
        steps = hit[1]
    else:
        desc, steps = _find_recv(view, base, pid)
        if desc == NIL:
            yield from _release_and_raise(
                [lock],
                NotConnectedError(f"pid {pid} holds no receive connection here"),
            )
        view._recv_cache[(slot, pid)] = (desc, steps, gen, epoch)
    count = _count_ready(view, lay, u32, base, desc, view.cfg.ring_slots)
    walked = steps + count
    yield view._check_walk[walked] if walked < 8 else Charge(
        Work(instrs=walked * c.list_step, label="check-walk")
    )
    yield view._rel[slot] if in_table else Release(lock)
    return count
