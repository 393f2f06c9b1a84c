"""The eight MPF primitives, written once as effect-yielding generators.

This module is the reproduction of the paper's contribution: the LNVC
(logical, named virtual circuit) message-passing primitives of §2,
implemented over the shared-segment data structures of §3.1 with the
close/retirement semantics of §3.2.

Every primitive is a generator over :mod:`repro.core.effects` objects.  A
runtime drives the generator, interpreting each effect (lock, unlock,
charge simulated time, sleep, wake); the generator's return value is the
primitive's result.  Data-structure mutation happens inline — the shared
region is visible to all runtimes identically — so the primitives contain
the *entire* algorithm and the runtimes contain only "shared memory
allocation and synchronization", the paper's definition of the system
dependent part.

Locking discipline (deadlock-free by global order):

1. ``GLOBAL_LOCK`` — only for open/close (name-table structure),
2. the per-circuit lock ``FIRST_LNVC_LOCK + slot``,
3. ``ALLOC_LOCK`` — free lists, always innermost.

Payload copies (block fill on send, block drain on receive) happen
*outside* the circuit lock.  This is the property that lets BROADCAST
receivers copy the same message concurrently and produces Figure 5's
near-linear scaling ("by allowing the receiver processes to copy messages
concurrently, higher throughputs can be achieved").
"""

from __future__ import annotations

from typing import Generator, Iterable

from .costmodel import DEFAULT_COSTS, Costs
from .effects import (
    Acquire,
    Charge,
    ChargeMany,
    Effect,
    Release,
    WaitOn,
    Wake,
)
from .errors import (
    BufferOverflowError,
    DuplicateConnectionError,
    MPFNameError,
    NoFreeLNVCError,
    NotConnectedError,
    OutOfDescriptorsError,
    OutOfMessageMemoryError,
    ProtocolViolationError,
    UnknownLNVCError,
)
from .freelist import BlockChains, fl_alloc, fl_free
from .layout import HDR, MPFConfig, SegmentLayout
from .protocol import (
    ALLOC_LOCK,
    FIRST_LNVC_LOCK,
    GLOBAL_LOCK,
    NAME_MAX,
    NIL,
    SLOT_BITS,
    MsgFlags,
    Protocol,
)
from .region import SharedRegion
from .structs import LNVC, MSG, RECV, SEND
from .transport import (
    ring_attach,
    ring_check,
    ring_receive,
    ring_register_reader,
    ring_release,
    ring_send,
    ring_unregister_reader,
)
from .work import Work

__all__ = [
    "MPFView",
    "open_send",
    "open_receive",
    "close_send",
    "close_receive",
    "message_send",
    "message_receive",
    "check_receive",
    "encode_lnvc_id",
    "decode_lnvc_id",
    "SLOT_BITS",
]

OpGen = Generator[Effect, None, object]

_SLOT_MASK = (1 << SLOT_BITS) - 1

# Field offsets resolved once at import time.  The hot primitives
# (message_send / message_receive / check_receive and their helpers) run
# millions of times per figure sweep; going through ``Record.get``'s dict
# lookup and bound-method call was about a third of interpreter time in
# profiles.  The hot paths below read fields as ``r.u32(base + _L_X)`` —
# the same pointer-plus-field-offset arithmetic, with the offset folded
# to a constant exactly as a C compiler folds ``lnvc->fifo_head``.  Cold
# paths (open/close) keep the self-describing Record accessors.
_L_IN_USE = LNVC.offsets["in_use"]
_L_GEN = LNVC.offsets["gen"]
_L_NMSGS = LNVC.offsets["nmsgs"]
_L_FIFO_HEAD = LNVC.offsets["fifo_head"]
_L_FIFO_TAIL = LNVC.offsets["fifo_tail"]
_L_FCFS_HEAD = LNVC.offsets["fcfs_head"]
_L_SEND_LIST = LNVC.offsets["send_list"]
_L_RECV_LIST = LNVC.offsets["recv_list"]
_L_N_FCFS = LNVC.offsets["n_fcfs"]
_L_N_BCAST = LNVC.offsets["n_bcast"]
_L_SEQ = LNVC.offsets["seq"]
_L_HWM_NMSGS = LNVC.offsets["hwm_nmsgs"]
_L_CONN_EPOCH = LNVC.offsets["conn_epoch"]
_L_TRANSPORT = LNVC.offsets["transport"]

_S_PID = SEND.offsets["pid"]
_S_NEXT = SEND.offsets["next"]

_R_PID = RECV.offsets["pid"]
_R_PROTO = RECV.offsets["proto"]
_R_HEAD = RECV.offsets["head"]
_R_NEXT = RECV.offsets["next"]
_R_NREADS = RECV.offsets["nreads"]

_M_LENGTH = MSG.offsets["length"]
_M_NBLOCKS = MSG.offsets["nblocks"]
_M_FIRST_BLK = MSG.offsets["first_blk"]
_M_NEXT_MSG = MSG.offsets["next_msg"]
_M_BCAST_PENDING = MSG.offsets["bcast_pending"]
_M_BUSY = MSG.offsets["busy"]
_M_FLAGS = MSG.offsets["flags"]
_M_SEQNO = MSG.offsets["seqno"]
_M_SENDER = MSG.offsets["sender"]

_H_FREE_MSG = HDR.u32["free_msg"]
_H_FREE_BLK = HDR.u32["free_blk"]
_H_LIVE_MSGS = HDR.u32["live_msgs"]
_H_LIVE_BLOCKS = HDR.u32["live_blocks"]
_H_LIVE_BYTES = HDR.u32["live_bytes"]
_H_TOTAL_SENDS = HDR.u64["total_sends"]
_H_TOTAL_RECEIVES = HDR.u64["total_receives"]
_H_TOTAL_BYTES_SENT = HDR.u64["total_bytes_sent"]
_H_TOTAL_BYTES_RECEIVED = HDR.u64["total_bytes_received"]
_H_HWM_LIVE_BYTES = HDR.u64["hwm_live_bytes"]
_H_HWM_LIVE_MSGS = HDR.u64["hwm_live_msgs"]

# Enum values as plain ints: constructing MsgFlags/Protocol instances per
# field read is pure overhead when only bit tests are needed.
_P_FCFS = int(Protocol.FCFS)
_F_RETIRED = int(MsgFlags.RETIRED)
_F_FCFS_TAKEN = int(MsgFlags.FCFS_TAKEN)
_F_FCFS_EXPECTED = int(MsgFlags.FCFS_EXPECTED)
_F_HAD_RECEIVERS = int(MsgFlags.HAD_RECEIVERS)


def encode_lnvc_id(slot: int, gen: int) -> int:
    """Pack a table slot and its generation into a public identifier."""
    return (gen << SLOT_BITS) | slot


def decode_lnvc_id(lnvc_id: int) -> tuple[int, int]:
    """Unpack a public identifier into ``(slot, generation)``."""
    return lnvc_id & _SLOT_MASK, lnvc_id >> SLOT_BITS


class MPFView:
    """A formatted segment plus its layout and cost model.

    One view is shared by every process of a program (the paper's mapped
    region); it is immutable and carries no per-process state.

    The view also pre-builds the effect objects the hot primitives yield
    on every call: per-circuit ``Acquire``/``Release``/``Wake``/``WaitOn``
    and the fixed-cost ``Charge`` effects whose work never varies.
    Effects are frozen dataclasses, so one instance per lock/channel can
    be yielded forever instead of allocating a fresh object per call.
    """

    __slots__ = (
        "region",
        "layout",
        "cfg",
        "costs",
        "chains",
        "_acq",
        "_rel",
        "_wake",
        "_waiton",
        "_alloc_acq",
        "_alloc_rel",
        "_send_fixed_work",
        "_send_fixed",
        "_recv_fixed",
        "_check_fixed_work",
        "_check_fixed",
        "_recv_retire",
        "_recv_wakeup",
        "_recv_find",
        "_check_walk",
        "_ring_send_fixed_work",
        "_ring_send_fixed",
        "_ring_recv_fixed",
        "_ring_claim",
        "_ring_cursor",
        "_ring_commit",
        "_ring_consume",
        "_send_cache",
        "_recv_cache",
        "causal",
        "timeline",
    )

    def __init__(
        self,
        region: SharedRegion,
        layout: SegmentLayout,
        costs: Costs = DEFAULT_COSTS,
    ) -> None:
        self.region = region
        self.layout = layout
        self.cfg: MPFConfig = layout.cfg
        self.costs = costs
        self.chains = BlockChains(region, self.cfg.block_size)
        n = self.cfg.max_lnvcs
        self._acq = tuple(Acquire(FIRST_LNVC_LOCK + s) for s in range(n))
        self._rel = tuple(Release(FIRST_LNVC_LOCK + s) for s in range(n))
        self._wake = tuple(Wake(s) for s in range(n))
        self._waiton = tuple(WaitOn(s, FIRST_LNVC_LOCK + s) for s in range(n))
        self._alloc_acq = Acquire(ALLOC_LOCK)
        self._alloc_rel = Release(ALLOC_LOCK)
        self._send_fixed_work = Work(instrs=costs.send_fixed, label="send-fixed")
        self._send_fixed = Charge(self._send_fixed_work)
        self._recv_fixed = Charge(Work(instrs=costs.recv_fixed, label="recv-fixed"))
        self._check_fixed_work = Work(instrs=costs.check_fixed, label="check-fixed")
        self._check_fixed = Charge(self._check_fixed_work)
        self._recv_retire = Charge(Work(instrs=costs.msg_retire, label="recv-retire"))
        self._recv_wakeup = Charge(
            Work(instrs=costs.waiter_wakeup, label="recv-wakeup")
        )
        # Small-step variable charges: descriptor lists are almost always
        # one or two entries deep, so cache the first few step counts.
        self._recv_find = tuple(
            Charge(Work(instrs=k * costs.list_step, label="recv-find"))
            for k in range(8)
        )
        self._check_walk = tuple(
            Charge(Work(instrs=k * costs.list_step, label="check-walk"))
            for k in range(8)
        )
        # Ring transport fixed charges (see repro.core.transport).  The
        # claim/commit/consume charges each include one cacheline_xfer:
        # the shared control or header line is hot in another CPU's
        # cache whenever the circuit is actually contended.
        self._ring_send_fixed_work = Work(
            instrs=costs.ring_send_fixed, label="ring-send-fixed"
        )
        self._ring_send_fixed = Charge(self._ring_send_fixed_work)
        self._ring_recv_fixed = Charge(
            Work(instrs=costs.ring_recv_fixed, label="ring-recv-fixed")
        )
        self._ring_claim = Charge(
            Work(instrs=costs.ring_claim + costs.cacheline_xfer, label="ring-claim")
        )
        self._ring_cursor = Charge(
            Work(instrs=costs.ring_cursor + costs.cacheline_xfer,
                 label="ring-cursor")
        )
        self._ring_commit = Charge(
            Work(instrs=costs.ring_publish + costs.cacheline_xfer, label="ring-commit")
        )
        self._ring_consume = Charge(
            Work(instrs=costs.ring_consume + costs.cacheline_xfer, label="ring-consume")
        )
        # Connection-descriptor lookup caches: (slot, pid) -> (desc_off,
        # steps, gen, conn_epoch).  The circuit's ``conn_epoch`` field is
        # bumped (under the circuit lock) on every send/recv list
        # mutation, and ``gen`` changes when the slot is recycled, so an
        # entry matching both is exactly what walking the list would find
        # — including the walk length that feeds the cost model.  The
        # region fields are shared, so the cache stays correct even when
        # other views (processes) reshape the lists.
        self._send_cache: dict = {}
        self._recv_cache: dict = {}
        #: Optional :class:`repro.obs.causal.CausalTracer` attached by a
        #: runtime.  When set, the hot primitives call its hooks inline —
        #: plain attribute-gated Python calls, never new effects, so the
        #: simulated schedule is untouched by observation.
        self.causal = None
        #: Optional :class:`repro.obs.timeline.Timeline` attached by a
        #: runtime.  Same contract as ``causal``: the hot paths gate on
        #: ``is not None`` and feed windowed counters/gauges with plain
        #: calls — never a new effect — so telemetry cannot perturb a
        #: simulated schedule.
        self.timeline = None

    # -- names -------------------------------------------------------------

    @staticmethod
    def encode_name(name: str) -> bytes:
        """Validate and UTF-8 encode an LNVC name."""
        if not isinstance(name, str) or not name:
            raise MPFNameError("LNVC name must be a non-empty string")
        data = name.encode("utf-8")
        if len(data) > NAME_MAX:
            raise MPFNameError(f"LNVC name exceeds {NAME_MAX} bytes")
        return data

    def read_name(self, slot: int) -> bytes:
        base = self.layout.lnvc_off(slot)
        n = LNVC.get(self.region, base, "name_len")
        return self.region.read(base + LNVC.tail_off, n)

    def write_name(self, slot: int, data: bytes) -> None:
        base = self.layout.lnvc_off(slot)
        LNVC.set(self.region, base, "name_len", len(data))
        self.region.write(base + LNVC.tail_off, data)

    # -- addressing ---------------------------------------------------------

    def lnvc_lock(self, slot: int) -> int:
        """Lock index guarding LNVC table slot ``slot``."""
        return FIRST_LNVC_LOCK + slot

    def resolve(self, lnvc_id: int) -> int:
        """Map a public identifier to a live slot or raise.

        Caller must hold either the global lock or the slot's lock.
        """
        slot = lnvc_id & _SLOT_MASK
        if slot >= self.cfg.max_lnvcs:
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: no such slot")
        base = self.layout.lnvc_off(slot)
        u32 = self.region.u32
        if not u32(base + _L_IN_USE):
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: circuit deleted")
        if u32(base + _L_GEN) != lnvc_id >> SLOT_BITS:
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: stale generation")
        return slot

    # -- table search (caller holds GLOBAL_LOCK) ----------------------------

    def find_by_name(self, data: bytes) -> tuple[int | None, int]:
        """Scan the table for a live circuit named ``data``.

        Returns ``(slot_or_None, slots_examined)``; the examination count
        feeds the cost model.
        """
        r, lay = self.region, self.layout
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            base = lay.lnvc_off(slot)
            if LNVC.get(r, base, "in_use") and self.read_name(slot) == data:
                return slot, steps
        return None, steps

    def find_free_slot(self) -> tuple[int | None, int]:
        """Scan for an unused table slot; returns ``(slot_or_None, steps)``."""
        r, lay = self.region, self.layout
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            if not LNVC.get(r, lay.lnvc_off(slot), "in_use"):
                return slot, steps
        return None, steps


# ---------------------------------------------------------------------------
# internal helpers (all expect the documented locks to be held)
# ---------------------------------------------------------------------------


def _release_and_raise(locks: Iterable[int], exc: Exception) -> OpGen:
    """Release ``locks`` (outermost last) and raise ``exc``."""
    for lock in locks:
        yield Release(lock)
    raise exc


def _find_send(view: MPFView, base: int, pid: int) -> tuple[int, int, int]:
    """Locate ``pid``'s send descriptor: ``(desc_off|NIL, prev_off|NIL, steps)``."""
    u32 = view.region.u32
    prev, off, steps = NIL, u32(base + _L_SEND_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _S_PID) == pid:
            return off, prev, steps
        prev, off = off, u32(off + _S_NEXT)
    return NIL, NIL, steps


def _find_recv(view: MPFView, base: int, pid: int) -> tuple[int, int, int]:
    """Locate ``pid``'s receive descriptor: ``(desc_off|NIL, prev_off|NIL, steps)``."""
    u32 = view.region.u32
    prev, off, steps = NIL, u32(base + _L_RECV_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _R_PID) == pid:
            return off, prev, steps
        prev, off = off, u32(off + _R_NEXT)
    return NIL, NIL, steps


def _conn_count(view: MPFView, base: int) -> int:
    r = view.region
    return (
        LNVC.get(r, base, "n_senders")
        + LNVC.get(r, base, "n_fcfs")
        + LNVC.get(r, base, "n_bcast")
    )


def _retire_check(view: MPFView, msg: int) -> bool:
    """Apply the retirement rule to one message header.

    A message retires (becomes reclaimable) when no broadcast receiver
    still owes it a read, nobody is copying out of it, and its FCFS
    obligation is discharged: either an FCFS receiver took it, or it never
    had an FCFS obligation *and* some receiver existed at enqueue time.
    Messages enqueued into an empty conversation are preserved for a
    future FCFS joiner (paper §3.2).
    """
    r = view.region
    flags = r.u32(msg + _M_FLAGS)
    if flags & _F_RETIRED:
        return True
    if r.u32(msg + _M_BCAST_PENDING) or r.u32(msg + _M_BUSY):
        return False
    if flags & _F_FCFS_TAKEN:
        pass
    elif (flags & _F_HAD_RECEIVERS) and not (flags & _F_FCFS_EXPECTED):
        pass
    else:
        return False
    r.set_u32(msg + _M_FLAGS, flags | _F_RETIRED)
    return True


def _free_chain(view: MPFView, msg: int) -> int:
    """Return a message header and its block chain to the free lists.

    Caller holds ``ALLOC_LOCK``.  Returns the number of blocks freed.
    """
    r = view.region
    chains = view.chains
    blocks = chains.walk(r.u32(msg + _M_FIRST_BLK))
    chains.free(_H_FREE_BLK, blocks)
    nblk = len(blocks)
    length = r.u32(msg + _M_LENGTH)
    fl_free(r, _H_FREE_MSG, msg)
    r.add_u32(_H_LIVE_MSGS, -1)
    r.add_u32(_H_LIVE_BLOCKS, -nblk)
    r.add_u32(_H_LIVE_BYTES, -length)
    return nblk


def _reap_head(view: MPFView, base: int) -> OpGen:
    """Unlink and free retired messages at the FIFO head.

    Retirement marks messages lazily; physical reclamation happens here,
    only from the head, so the singly linked FIFO never needs a backward
    unlink — our answer to the paper's "particularly vexing" problem.
    Caller holds the circuit lock.
    """
    r = view.region
    c = view.costs
    u32 = r.u32
    set_u32 = r.set_u32
    doomed: list[int] = []
    head = u32(base + _L_FIFO_HEAD)
    while head != NIL and (u32(head + _M_FLAGS) & _F_RETIRED):
        doomed.append(head)
        head = u32(head + _M_NEXT_MSG)
    if not doomed:
        return 0
    set_u32(base + _L_FIFO_HEAD, head)
    if head == NIL:
        set_u32(base + _L_FIFO_TAIL, NIL)
    depth_after = r.add_u32(base + _L_NMSGS, -len(doomed))
    if view.timeline is not None:
        view.timeline.tap_depth(view.layout.lnvc_slot(base), depth_after)
    # The shared FCFS head can never point *behind* the new physical head:
    # if it pointed at a reaped message, advance it to the first survivor
    # that is not FCFS-taken.
    fcfs = u32(base + _L_FCFS_HEAD)
    if fcfs in doomed:
        set_u32(base + _L_FCFS_HEAD, _first_untaken(view, head))
    nblk = 0
    yield view._alloc_acq
    causal = view.causal
    if causal is not None:
        # Header fields must be read before _free_chain overwrites the
        # record's first word with the free-list link.
        slot = view.layout.lnvc_slot(base)
        gen = u32(base + _L_GEN)
        depth = depth_after + len(doomed)
        for msg in doomed:
            depth -= 1
            causal.on_free(u32(msg + _M_SENDER), slot, gen,
                           u32(msg + _M_SEQNO), u32(msg + _M_LENGTH), depth)
    for msg in doomed:
        nblk += _free_chain(view, msg)
    yield view._alloc_rel
    yield Charge(
        Work(instrs=len(doomed) * c.msg_discard + nblk * c.blk_free, label="reap")
    )
    return len(doomed)


def _first_untaken(view: MPFView, msg: int) -> int:
    """First message at or after ``msg`` not yet FCFS-taken (or NIL)."""
    u32 = view.region.u32
    while msg != NIL and (u32(msg + _M_FLAGS) & _F_FCFS_TAKEN):
        msg = u32(msg + _M_NEXT_MSG)
    return msg


def _delete_lnvc(view: MPFView, slot: int) -> OpGen:
    """Discard a circuit whose last connection just closed.

    Paper §2: "If this is the last process connected to lnvc_id, the LNVC
    is deleted and all unread messages are discarded."  Caller holds the
    global lock and the circuit lock.
    """
    r = view.region
    c = view.costs
    base = view.layout.lnvc_off(slot)
    msgs: list[int] = []
    msg = LNVC.get(r, base, "fifo_head")
    while msg != NIL:
        msgs.append(msg)
        msg = MSG.get(r, msg, "next_msg")
    nblk = 0
    if msgs:
        yield Acquire(ALLOC_LOCK)
        causal = view.causal
        if causal is not None:
            cur_gen = LNVC.get(r, base, "gen")
            depth = len(msgs)
            for m in msgs:
                depth -= 1
                causal.on_free(MSG.get(r, m, "sender"), slot, cur_gen,
                               MSG.get(r, m, "seqno"),
                               MSG.get(r, m, "length"), depth, discard=1)
        for m in msgs:
            nblk += _free_chain(view, m)
        yield Release(ALLOC_LOCK)
    if LNVC.get(r, base, "transport"):
        # Ring circuits have no FIFO to discard (msgs is empty above);
        # unread slots die with the ring, which returns to the pool.
        yield from ring_release(view, base)
    gen = LNVC.get(r, base, "gen")
    LNVC.clear(r, base)
    LNVC.set(r, base, "gen", (gen + 1) & 0x3FFFFF)
    LNVC.set(r, base, "fifo_head", NIL)
    LNVC.set(r, base, "fifo_tail", NIL)
    LNVC.set(r, base, "fcfs_head", NIL)
    LNVC.set(r, base, "send_list", NIL)
    LNVC.set(r, base, "recv_list", NIL)
    HDR.add(r, "live_lnvcs", -1)
    yield Charge(
        Work(
            instrs=len(msgs) * c.msg_discard + nblk * c.blk_free + c.close_fixed // 2,
            label="lnvc-delete",
        )
    )
    return len(msgs)


def _open_common(view: MPFView, data: bytes) -> OpGen:
    """Find or create the circuit named ``data`` (pre-encoded); returns its slot.

    Caller holds the global lock.  On failure releases it and raises.
    """
    r = view.region
    c = view.costs
    slot, steps = view.find_by_name(data)
    if slot is None:
        slot, steps2 = view.find_free_slot()
        steps += steps2
        if slot is None:
            yield from _release_and_raise(
                [GLOBAL_LOCK],
                NoFreeLNVCError(f"all {view.cfg.max_lnvcs} LNVC slots in use"),
            )
        base = view.layout.lnvc_off(slot)
        gen = LNVC.get(r, base, "gen")
        LNVC.clear(r, base)
        LNVC.set(r, base, "gen", gen)
        LNVC.set(r, base, "in_use", 1)
        LNVC.set(r, base, "fifo_head", NIL)
        LNVC.set(r, base, "fifo_tail", NIL)
        LNVC.set(r, base, "fcfs_head", NIL)
        LNVC.set(r, base, "send_list", NIL)
        LNVC.set(r, base, "recv_list", NIL)
        view.write_name(slot, data)
        HDR.add(r, "live_lnvcs", 1)
        if view.cfg.transport_for(data.decode("utf-8")) == "ring":
            yield from ring_attach(view, slot, base)
    yield Charge(Work(instrs=c.open_fixed + steps * c.list_step, label="open"))
    return slot


# ---------------------------------------------------------------------------
# public primitives
# ---------------------------------------------------------------------------


def open_send(view: MPFView, pid: int, name: str) -> OpGen:
    """Establish a send connection for ``pid`` on the circuit ``name``.

    Creates the circuit if it does not exist.  Returns the circuit's
    public identifier for use with :func:`message_send` and
    :func:`close_send` (paper §2, ``open_send``).
    """
    r = view.region
    c = view.costs
    data = view.encode_name(name)  # validate before touching any lock
    yield Acquire(GLOBAL_LOCK)
    slot = yield from _open_common(view, data)
    if view.timeline is not None:
        view.timeline.name_slot(slot, name)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, _, steps = _find_send(view, base, pid)
    if desc != NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            DuplicateConnectionError(f"pid {pid} already sends on '{name}'"),
        )
    yield Acquire(ALLOC_LOCK)
    desc = fl_alloc(r, HDR.u32["free_send"])
    yield Release(ALLOC_LOCK)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            OutOfDescriptorsError("send descriptor pool exhausted"),
        )
    SEND.set(r, desc, "pid", pid)
    SEND.set(r, desc, "next", LNVC.get(r, base, "send_list"))
    LNVC.set(r, base, "send_list", desc)
    LNVC.add(r, base, "n_senders", 1)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Charge(Work(instrs=steps * c.list_step + 4 * c.list_step, label="open_send"))
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    return encode_lnvc_id(slot, LNVC.get(r, base, "gen"))


def open_receive(view: MPFView, pid: int, name: str, protocol: Protocol) -> OpGen:
    """Establish a receive connection with the given protocol.

    ``protocol`` is :data:`~repro.core.protocol.FCFS` or
    :data:`~repro.core.protocol.BROADCAST`.  A process may not hold both
    kinds on one circuit (paper §1 footnote 3).  A BROADCAST connection
    starts at the current FIFO tail: the receiver hears only messages sent
    after it joined the conversation.  Returns the circuit identifier.
    """
    proto = Protocol(protocol)
    r = view.region
    c = view.costs
    data = view.encode_name(name)  # validate before touching any lock
    yield Acquire(GLOBAL_LOCK)
    slot = yield from _open_common(view, data)
    if view.timeline is not None:
        view.timeline.name_slot(slot, name)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, _, steps = _find_recv(view, base, pid)
    if desc != NIL:
        have = Protocol(RECV.get(r, desc, "proto"))
        exc: Exception
        if have == proto:
            exc = DuplicateConnectionError(
                f"pid {pid} already receives ({have.name}) on '{name}'"
            )
        else:
            exc = ProtocolViolationError(
                f"pid {pid} cannot mix FCFS and BROADCAST on '{name}'"
            )
        yield from _release_and_raise([lock, GLOBAL_LOCK], exc)
    yield Acquire(ALLOC_LOCK)
    desc = fl_alloc(r, HDR.u32["free_recv"])
    yield Release(ALLOC_LOCK)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            OutOfDescriptorsError("receive descriptor pool exhausted"),
        )
    RECV.set(r, desc, "pid", pid)
    RECV.set(r, desc, "proto", proto)
    RECV.set(r, desc, "head", NIL)
    RECV.set(r, desc, "nreads", 0)
    if proto is Protocol.BROADCAST and LNVC.get(r, base, "transport"):
        try:
            # Ring circuits: claim a reader-bitmap index and a tail
            # cursor instead of an individual FIFO head pointer.
            ring_register_reader(view, base, desc)
        except OutOfDescriptorsError as exc:
            yield Acquire(ALLOC_LOCK)
            fl_free(r, HDR.u32["free_recv"], desc)
            yield Release(ALLOC_LOCK)
            yield from _release_and_raise([lock, GLOBAL_LOCK], exc)
    RECV.set(r, desc, "next", LNVC.get(r, base, "recv_list"))
    LNVC.set(r, base, "recv_list", desc)
    LNVC.add(r, base, "n_fcfs" if proto is Protocol.FCFS else "n_bcast", 1)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Charge(
        Work(instrs=steps * c.list_step + 4 * c.list_step, label="open_receive")
    )
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    return encode_lnvc_id(slot, LNVC.get(r, base, "gen"))


def close_send(view: MPFView, pid: int, lnvc_id: int) -> OpGen:
    """Remove ``pid``'s send connection from the circuit.

    If this was the last connection of any kind, the circuit is deleted
    and all unread messages are discarded (paper §2).
    """
    r = view.region
    c = view.costs
    yield Acquire(GLOBAL_LOCK)
    try:
        slot = view.resolve(lnvc_id)
    except UnknownLNVCError as exc:
        yield from _release_and_raise([GLOBAL_LOCK], exc)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, prev, steps = _find_send(view, base, pid)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            NotConnectedError(f"pid {pid} holds no send connection here"),
        )
    nxt = SEND.get(r, desc, "next")
    if prev == NIL:
        LNVC.set(r, base, "send_list", nxt)
    else:
        SEND.set(r, prev, "next", nxt)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Acquire(ALLOC_LOCK)
    fl_free(r, HDR.u32["free_send"], desc)
    yield Release(ALLOC_LOCK)
    LNVC.add(r, base, "n_senders", -1)
    yield Charge(Work(instrs=c.close_fixed + steps * c.list_step, label="close_send"))
    if _conn_count(view, base) == 0:
        yield from _delete_lnvc(view, slot)
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    # A receiver blocked on this circuit cannot be woken by future sends
    # if the circuit was just deleted; it stays blocked, exactly as the C
    # implementation would leave it.  (The simulator's deadlock detector
    # surfaces this programming error; see paper §3.2 on lost messages.)
    return None


def close_receive(view: MPFView, pid: int, lnvc_id: int) -> OpGen:
    """Remove ``pid``'s receive connection from the circuit.

    For a BROADCAST receiver, every message it had not yet read sheds one
    pending reader — the "particularly vexing" bookkeeping of paper §3.2,
    done here with per-message counters instead of head-pointer
    comparisons.  Deletes the circuit if this was the last connection.
    """
    r = view.region
    c = view.costs
    yield Acquire(GLOBAL_LOCK)
    try:
        slot = view.resolve(lnvc_id)
    except UnknownLNVCError as exc:
        yield from _release_and_raise([GLOBAL_LOCK], exc)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, prev, steps = _find_recv(view, base, pid)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            NotConnectedError(f"pid {pid} holds no receive connection here"),
        )
    proto = Protocol(RECV.get(r, desc, "proto"))
    is_ring = bool(LNVC.get(r, base, "transport"))
    walked = 0
    ring_retired = False
    if proto is Protocol.BROADCAST:
        if is_ring:
            ring_retired = ring_unregister_reader(view, base, desc)
            walked = view.cfg.ring_slots
        else:
            msg = RECV.get(r, desc, "head")
            while msg != NIL:
                MSG.add(r, msg, "bcast_pending", -1)
                _retire_check(view, msg)
                msg = MSG.get(r, msg, "next_msg")
                walked += 1
        LNVC.add(r, base, "n_bcast", -1)
    else:
        LNVC.add(r, base, "n_fcfs", -1)
    nxt = RECV.get(r, desc, "next")
    if prev == NIL:
        LNVC.set(r, base, "recv_list", nxt)
    else:
        RECV.set(r, prev, "next", nxt)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Acquire(ALLOC_LOCK)
    fl_free(r, HDR.u32["free_recv"], desc)
    yield Release(ALLOC_LOCK)
    yield Charge(
        Work(
            instrs=c.close_fixed + (steps + walked) * c.list_step,
            label="close_receive",
        )
    )
    if not is_ring:
        yield from _reap_head(view, base)
    if _conn_count(view, base) == 0:
        yield from _delete_lnvc(view, slot)
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    if ring_retired:
        # Shedding this reader's pending bits retired at least one slot:
        # senders blocked on a full ring can now reuse it.
        yield view._wake[slot]
    return None


def message_send(
    view: MPFView,
    pid: int,
    lnvc_id: int,
    data: bytes,
    prelude: Work | None = None,
) -> OpGen:
    """Asynchronously send ``data`` to the circuit.

    The payload is copied into a chain of fixed-size message blocks
    allocated from the shared free list, then the chain is linked at the
    FIFO tail and waiting receivers are woken.  The sender continues as
    soon as the message is queued ("Message sending is asynchronous,
    allowing a process to proceed before the message reaches its
    destination(s)", paper §2).  Returns the message's sequence number on
    the circuit.

    ``prelude`` optionally carries compute-only application work to be
    fused with the primitive's fixed entry charge as one
    :class:`~repro.core.effects.ChargeMany` — semantically identical to
    ``yield Charge(prelude)`` immediately before the call, one scheduler
    round-trip cheaper.

    Raises :class:`OutOfMessageMemoryError` when the header or block pool
    is exhausted — the hard edge of the ``init()`` sizing estimate.
    """
    # Transport dispatch on a plain u32 read: no effect is yielded, so
    # free-list circuits keep a bit-identical simulated schedule.  A
    # stale identifier is caught by the generation check either way.
    slot = lnvc_id & _SLOT_MASK
    if slot < view.cfg.max_lnvcs and view.region.u32(
        view.layout.lnvc_off(slot) + _L_TRANSPORT
    ):
        return (yield from ring_send(view, pid, lnvc_id, data, prelude))
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("message payload must be bytes-like")
    data = bytes(data)
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    lay = view.layout
    bs = view.cfg.block_size
    length = len(data)
    nblk = (length + bs - 1) // bs
    causal = view.causal
    t_entry = causal.clock() if causal is not None else 0.0
    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < view.cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK

    if prelude is None:
        yield view._send_fixed
    else:
        yield ChargeMany((prelude, view._send_fixed_work))

    # Phase 1: allocation.  Blocks are private until linked, so only the
    # free lists need the allocator lock.
    yield view._alloc_acq
    hdr = fl_alloc(r, _H_FREE_MSG,
                   causal.on_pool if causal is not None else None)
    if hdr == NIL:
        yield from _release_and_raise(
            [ALLOC_LOCK], OutOfMessageMemoryError("message header pool exhausted")
        )
    # Pop the whole chain in one walk; on shortfall the list is empty
    # and re-pointing its head at the run undoes the pop.
    blocks = view.chains.pop(_H_FREE_BLK, nblk)
    if len(blocks) < nblk:
        if blocks:
            set_u32(_H_FREE_BLK, blocks[0])
        fl_free(r, _H_FREE_MSG, hdr)
        if causal is not None:
            causal.on_pool(_H_FREE_BLK, NIL)
        yield from _release_and_raise(
            [ALLOC_LOCK],
            OutOfMessageMemoryError(f"block pool exhausted ({nblk}-block message)"),
        )
    if causal is not None:
        causal.on_pool_bulk(_H_FREE_BLK, nblk)
    r.add_u32(_H_LIVE_MSGS, 1)
    live_blk = r.add_u32(_H_LIVE_BLOCKS, nblk)
    if view.timeline is not None:
        view.timeline.tap_pool(live_blk)
    live = r.add_u32(_H_LIVE_BYTES, length)
    if live > r.u64(_H_HWM_LIVE_BYTES):
        r.set_u64(_H_HWM_LIVE_BYTES, live)
    live_msgs = u32(_H_LIVE_MSGS)
    if live_msgs > r.u64(_H_HWM_LIVE_MSGS):
        r.set_u64(_H_HWM_LIVE_MSGS, live_msgs)
    yield Charge(Work(instrs=(nblk + 1) * c.blk_alloc, label="send-alloc"))
    yield view._alloc_rel
    t_alloc = causal.clock() if causal is not None else 0.0

    # Phase 2: fill the private chain — outside every lock.
    view.chains.fill(blocks, data)
    yield Charge(
        Work(
            instrs=nblk * c.blk_fill + length * c.copy_byte,
            copy_bytes=length,
            blocks=nblk,
            page_bytes=nblk * lay.blk_stride + MSG.size,
            label="send-copy",
        )
    )
    t_fill = causal.clock() if causal is not None else 0.0

    # Phase 3: link at the FIFO tail under the circuit lock.
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
            sd, _, steps = _find_send(view, base, pid)
            if sd == NIL:
                raise NotConnectedError(
                    f"pid {pid} holds no send connection here"
                )
            view._send_cache[(slot, pid)] = (sd, steps, gen, epoch)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield Release(lock)
        yield Acquire(ALLOC_LOCK)
        view.chains.free(_H_FREE_BLK, blocks)
        fl_free(r, _H_FREE_MSG, hdr)
        r.add_u32(_H_LIVE_MSGS, -1)
        r.add_u32(_H_LIVE_BLOCKS, -nblk)
        r.add_u32(_H_LIVE_BYTES, -length)
        yield from _release_and_raise([ALLOC_LOCK], exc)

    n_fcfs = u32(base + _L_N_FCFS)
    n_bcast = u32(base + _L_N_BCAST)
    flags = 0
    if n_fcfs:
        flags |= _F_FCFS_EXPECTED
    if n_fcfs or n_bcast:
        flags |= _F_HAD_RECEIVERS
    seqno = u32(base + _L_SEQ)
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
    tail = u32(base + _L_FIFO_TAIL)
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
    # Point every caught-up BROADCAST receiver at the new message.
    rsteps = 0
    desc = u32(base + _L_RECV_LIST)
    while desc != NIL:
        rsteps += 1
        if u32(desc + _R_PROTO) != _P_FCFS and u32(desc + _R_HEAD) == NIL:
            set_u32(desc + _R_HEAD, hdr)
        desc = u32(desc + _R_NEXT)
    r.add_u64(_H_TOTAL_SENDS, 1)
    r.add_u64(_H_TOTAL_BYTES_SENT, length)
    yield Charge(
        Work(
            instrs=c.msg_link + (steps + rsteps) * c.list_step,
            label="send-link",
        )
    )
    if causal is not None:
        causal.on_send(pid, slot, gen, seqno, length, nblk, depth,
                       t_entry, t_alloc, t_fill)
    if view.timeline is not None:
        view.timeline.tap_send(slot, length, depth)
    yield view._rel[slot] if in_table else Release(lock)
    yield view._wake[slot] if in_table else Wake(slot)
    return seqno


def message_receive(
    view: MPFView, pid: int, lnvc_id: int, max_len: int | None = None
) -> OpGen:
    """Receive the next message for ``pid`` from the circuit; blocking.

    FCFS connections consume the oldest message not yet taken by any FCFS
    receiver; BROADCAST connections read the oldest message past their
    individual head pointer.  The payload copy out of the block chain
    happens outside the circuit lock, so concurrent receivers overlap
    (Figure 5).  Returns the payload bytes.

    If ``max_len`` is given and the next message is longer, raises
    :class:`BufferOverflowError` *without* consuming the message — the
    safe analogue of the C interface's caller-supplied buffer.
    """
    slot = lnvc_id & _SLOT_MASK
    if slot < view.cfg.max_lnvcs and view.region.u32(
        view.layout.lnvc_off(slot) + _L_TRANSPORT
    ):
        return (yield from ring_receive(view, pid, lnvc_id, max_len))
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    causal = view.causal
    t_entry = causal.clock() if causal is not None else 0.0
    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < view.cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK
    base = view.layout.lnvc_off(slot)

    yield view._recv_fixed
    yield view._acq[slot] if in_table else Acquire(lock)
    if not in_table:
        try:
            view.resolve(lnvc_id)
        except UnknownLNVCError as exc:
            yield from _release_and_raise([lock], exc)
    if not u32(base + _L_IN_USE) or u32(base + _L_GEN) != gen:
        try:
            view.resolve(lnvc_id)  # raises with the precise message
        except UnknownLNVCError as exc:
            yield from _release_and_raise([lock], exc)
    epoch = u32(base + _L_CONN_EPOCH)
    hit = view._recv_cache.get((slot, pid))
    if hit is not None and hit[2] == gen and hit[3] == epoch:
        desc = hit[0]
        steps = hit[1]
    else:
        desc, _, steps = _find_recv(view, base, pid)
        if desc == NIL:
            yield from _release_and_raise(
                [lock],
                NotConnectedError(f"pid {pid} holds no receive connection here"),
            )
        view._recv_cache[(slot, pid)] = (desc, steps, gen, epoch)
    is_fcfs = u32(desc + _R_PROTO) == _P_FCFS
    yield view._recv_find[steps] if steps < 8 else Charge(
        Work(instrs=steps * c.list_step, label="recv-find")
    )

    while True:
        msg = u32(base + _L_FCFS_HEAD) if is_fcfs else u32(desc + _R_HEAD)
        if msg != NIL:
            break
        # Nothing available: sleep on the circuit's wait channel.  WaitOn
        # atomically releases the lock and reacquires it on wake, closing
        # the lost wake-up window.
        yield view._waiton[slot]
        yield view._recv_wakeup

    length = u32(msg + _M_LENGTH)
    if max_len is not None and length > max_len:
        yield from _release_and_raise(
            [lock],
            BufferOverflowError(
                f"next message is {length} bytes, buffer holds {max_len}"
            ),
        )

    # Claim the message under the lock, then copy outside it.
    r.add_u32(msg + _M_BUSY, 1)
    if is_fcfs:
        set_u32(msg + _M_FLAGS, u32(msg + _M_FLAGS) | _F_FCFS_TAKEN)
        set_u32(
            base + _L_FCFS_HEAD, _first_untaken(view, u32(msg + _M_NEXT_MSG))
        )
    else:
        set_u32(desc + _R_HEAD, u32(msg + _M_NEXT_MSG))
    r.add_u32(desc + _R_NREADS, 1)
    nblk = u32(msg + _M_NBLOCKS)
    first = u32(msg + _M_FIRST_BLK)
    if causal is not None:
        t_claim = causal.clock()
        claimed_seqno = u32(msg + _M_SEQNO)
    yield view._rel[slot] if in_table else Release(lock)

    # Copy phase — concurrent with other receivers of the same message.
    payload = view.chains.drain(first, length)

    yield Charge(Work(
        instrs=nblk * c.blk_drain + length * c.copy_byte,
        copy_bytes=length,
        blocks=nblk,
        label="recv-copy",
    ))
    t_drain = causal.clock() if causal is not None else 0.0

    # Completion: drop the busy pin, account the read, retire and reap.
    yield view._acq[slot] if in_table else Acquire(lock)
    r.add_u32(msg + _M_BUSY, -1)
    if not is_fcfs:
        r.add_u32(msg + _M_BCAST_PENDING, -1)
    _retire_check(view, msg)
    yield view._recv_retire
    yield from _reap_head(view, base)
    r.add_u64(_H_TOTAL_RECEIVES, 1)
    r.add_u64(_H_TOTAL_BYTES_RECEIVED, length)
    yield view._rel[slot] if in_table else Release(lock)
    if causal is not None:
        causal.on_recv(pid, slot, gen, claimed_seqno, length, is_fcfs,
                       t_entry, t_claim, t_drain)
    if view.timeline is not None:
        view.timeline.tap_recv(slot, length)
    return payload


def check_receive(
    view: MPFView, pid: int, lnvc_id: int, prelude: Work | None = None
) -> OpGen:
    """Count the messages currently available to ``pid`` on the circuit.

    Returns 0 when nothing is queued for this receiver.  For an FCFS
    connection the count is advisory only: another FCFS receiver "may
    acquire the message before the checking process can receive the
    message" (paper §2) — the count can be stale the moment the lock is
    released.  For BROADCAST the counted messages are guaranteed to be
    deliverable to this receiver.

    ``prelude`` optionally carries compute-only application work to be
    fused with the primitive's fixed entry charge as one
    :class:`~repro.core.effects.ChargeMany` — the fast path for polling
    loops that back off with compute between rounds (see
    :func:`repro.patterns.select_receive`).
    """
    slot = lnvc_id & _SLOT_MASK
    if slot < view.cfg.max_lnvcs and view.region.u32(
        view.layout.lnvc_off(slot) + _L_TRANSPORT
    ):
        return (yield from ring_check(view, pid, lnvc_id, prelude))
    r = view.region
    u32 = r.u32
    c = view.costs
    slot = lnvc_id & _SLOT_MASK
    gen = lnvc_id >> SLOT_BITS
    in_table = slot < view.cfg.max_lnvcs
    lock = FIRST_LNVC_LOCK + slot if in_table else GLOBAL_LOCK

    if prelude is None:
        yield view._check_fixed
    else:
        yield ChargeMany((prelude, view._check_fixed_work))
    yield view._acq[slot] if in_table else Acquire(lock)
    if not in_table:
        try:
            view.resolve(lnvc_id)
        except UnknownLNVCError as exc:
            yield from _release_and_raise([lock], exc)
    base = view.layout.lnvc_off(slot)
    if not u32(base + _L_IN_USE) or u32(base + _L_GEN) != gen:
        try:
            view.resolve(lnvc_id)  # raises with the precise message
        except UnknownLNVCError as exc:
            yield from _release_and_raise([lock], exc)
    epoch = u32(base + _L_CONN_EPOCH)
    hit = view._recv_cache.get((slot, pid))
    if hit is not None and hit[2] == gen and hit[3] == epoch:
        desc = hit[0]
        steps = hit[1]
    else:
        desc, _, steps = _find_recv(view, base, pid)
        if desc == NIL:
            yield from _release_and_raise(
                [lock],
                NotConnectedError(f"pid {pid} holds no receive connection here"),
            )
        view._recv_cache[(slot, pid)] = (desc, steps, gen, epoch)
    if u32(desc + _R_PROTO) == _P_FCFS:
        msg = u32(base + _L_FCFS_HEAD)
    else:
        msg = u32(desc + _R_HEAD)
    count = 0
    while msg != NIL:
        count += 1
        msg = u32(msg + _M_NEXT_MSG)
    walked = steps + count
    yield view._check_walk[walked] if walked < 8 else Charge(
        Work(instrs=walked * c.list_step, label="check-walk")
    )
    yield view._rel[slot] if in_table else Release(lock)
    return count
