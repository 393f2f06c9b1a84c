"""Intrusive free lists over fixed-size slots in the shared region.

Paper §3.1: "During MPF initialization, a free list of linked message
blocks is created in shared memory. ... Like message blocks, LNVC, send,
and receive descriptors are linked into free lists when not in use."

Each pool is a contiguous run of equally sized records.  While a record is
free, its *first* 32-bit word is reused as the link to the next free record
(records carry no meaning when free, so this aliasing is safe — the same
trick the C implementation plays with its ``next`` pointers).  The head of
each free list is itself a u32 cell inside the segment header, so forked
processes see one shared allocator state.

Free-list operations are **not** internally synchronized; callers hold the
segment's allocation lock (``ALLOC_LOCK``), mirroring the paper's
"synchronization variables are initialized for exclusive access to internal
data structures".
"""

from __future__ import annotations

import struct
from functools import lru_cache

from .protocol import NIL
from .region import SharedRegion

__all__ = ["BlockChains", "init_freelist", "fl_alloc", "fl_free", "fl_count"]

_U32 = struct.Struct("<I")
_BAD_OFFSET = (struct.error, ValueError)


@lru_cache(maxsize=8)
def _pool_image(base: int, stride: int, count: int) -> bytes:
    """The byte image of a freshly threaded pool (memoized).

    Figure sweeps format one region per measured point with a handful of
    distinct geometries, so the image for a given ``(base, stride,
    count)`` is rebuilt constantly; caching it turns re-formatting into a
    single ``memcpy``.
    """
    pack = _U32.pack
    pad = bytes(stride - 4)
    image = [pack(base + i * stride) + pad for i in range(1, count)]
    image.append(pack(NIL) + pad)
    return b"".join(image)


def init_freelist(region: SharedRegion, head_off: int, base: int, stride: int, count: int) -> None:
    """Thread ``count`` records of ``stride`` bytes starting at ``base``.

    Leaves the list head (stored at ``head_off``) pointing at ``base`` and
    links the records in address order; an empty pool (``count == 0``)
    leaves the head ``NIL``.

    The whole pool is written as one contiguous image (link word plus
    zeroed payload per record) instead of one ``set_u32`` per record:
    free records carry no meaning beyond their link, so blanking the
    payload bytes is harmless, and bulk-writing makes segment formatting
    ~10× cheaper — it was a visible share of short simulations' setup.
    """
    if count <= 0:
        region.set_u32(head_off, NIL)
        return
    region.write(base, _pool_image(base, stride, count))
    region.set_u32(head_off, base)


def fl_alloc(region: SharedRegion, head_off: int, watch=None) -> int:
    """Pop one record; returns its byte offset, or ``NIL`` if exhausted.

    ``watch``, when given, is called as ``watch(head_off, result)`` after
    every pop attempt — including exhausted ones, which return ``NIL``.
    This is the observation point the causal tracer
    (:class:`repro.obs.causal.CausalTracer`) uses to spot free-list
    pressure; the default ``None`` keeps the hot path branch-free beyond
    a single falsy test.
    """
    head = region.u32(head_off)
    if head == NIL:
        if watch is not None:
            watch(head_off, NIL)
        return NIL
    region.set_u32(head_off, region.u32(head))
    if watch is not None:
        watch(head_off, head)
    return head


def fl_free(region: SharedRegion, head_off: int, off: int) -> None:
    """Push the record at ``off`` back onto the free list."""
    region.set_u32(off, region.u32(head_off))
    region.set_u32(head_off, off)


def fl_count(region: SharedRegion, head_off: int, limit: int = 1 << 32) -> int:
    """Walk the list and count free records (diagnostics and tests only).

    ``limit`` bounds the walk so a corrupted (cyclic) list raises instead
    of hanging.
    """
    n = 0
    off = region.u32(head_off)
    while off != NIL:
        n += 1
        if n > limit:
            raise RuntimeError("free list cycle detected")
        off = region.u32(off)
    return n


class BlockChains:
    """Whole-block moves of message chains in one region.

    A message block is a u32 ``next`` link followed by ``block_size``
    data bytes (paper §3.1).  Every helper here moves a block with one
    C-level ``struct`` call on the region's memoryview, where copying
    through the region's accessors costs two or three Python calls per
    block; that per-block list and copy work is what the paper's cost
    decomposition charges, and it dominates host time the same way.

    A partial last block is written and read only up to the payload's
    end, so the stale bytes past it stay as the previous owner left them.

    No helper locks: callers hold ``ALLOC_LOCK`` (or a shard lock)
    around :meth:`pop` and :meth:`free`, and :meth:`fill` /
    :meth:`drain` touch only a chain the caller owns.  A link that
    points outside the region raises :class:`IndexError` naming the bad
    block offset, as the region's own accessors do.
    """

    __slots__ = ("_mv", "_size", "_bs", "_blk")

    def __init__(self, region: SharedRegion, block_size: int) -> None:
        self._mv = region._mv
        self._size = region.size
        self._bs = block_size
        self._blk = struct.Struct(f"<I{block_size}s")

    def _bad(self, blk: int) -> IndexError:
        return IndexError(
            f"message block at {blk} outside region of {self._size}")

    def pop(self, head_off: int, n: int) -> list[int]:
        """Pop up to ``n`` blocks off the list headed at ``head_off``.

        Returns them in list order; fewer than ``n`` means the list ran
        dry (it is then empty).  The popped blocks' links are untouched,
        so writing ``blocks[0]`` back to the head undoes the pop.
        """
        mv = self._mv
        unpack_from = _U32.unpack_from
        blocks: list[int] = []
        blk = unpack_from(mv, head_off)[0]
        try:
            while n and blk != NIL:
                blocks.append(blk)
                blk = unpack_from(mv, blk)[0]
                n -= 1
        except _BAD_OFFSET:
            raise self._bad(blk) from None
        _U32.pack_into(mv, head_off, blk)
        return blocks

    def fill(self, blocks: list[int], data: bytes) -> None:
        """Link ``blocks`` into a NIL-terminated chain holding ``data``."""
        if not blocks:
            return
        mv = self._mv
        bs = self._bs
        pack_into = self._blk.pack_into
        try:
            for blk, nxt, off in zip(blocks, blocks[1:], range(0, len(data), bs)):
                pack_into(mv, blk, nxt, data[off : off + bs])
            blk = blocks[-1]
            tail = data[(len(blocks) - 1) * bs :]
            _U32.pack_into(mv, blk, NIL)
            # A slice write: ``pack_into`` would NUL-pad the stale tail.
            mv[blk + 4 : blk + 4 + len(tail)] = tail
        except _BAD_OFFSET:
            raise self._bad(blk) from None

    def drain(self, first: int, length: int) -> bytes:
        """Copy the ``length``-byte payload out of the chain at ``first``."""
        mv = self._mv
        unpack_from = self._blk.unpack_from
        parts: list[bytes] = []
        blk = first
        try:
            for _ in range(-(-length // self._bs)):
                blk, chunk = unpack_from(mv, blk)
                parts.append(chunk)
        except _BAD_OFFSET:
            raise self._bad(blk) from None
        return b"".join(parts)[:length]

    def walk(self, first: int) -> list[int]:
        """The blocks of the chain at ``first``, in chain order."""
        mv = self._mv
        unpack_from = _U32.unpack_from
        blocks: list[int] = []
        blk = first
        try:
            while blk != NIL:
                blocks.append(blk)
                blk = unpack_from(mv, blk)[0]
        except _BAD_OFFSET:
            raise self._bad(blk) from None
        return blocks

    def free(self, head_off: int, blocks: list[int]) -> None:
        """Push ``blocks`` one by one onto the list headed at ``head_off``.

        The last block pushed ends up at the head, so a chain freed in
        chain order comes back reversed.
        """
        mv = self._mv
        pack_into = _U32.pack_into
        head = _U32.unpack_from(mv, head_off)[0]
        for blk in blocks:
            pack_into(mv, blk, head)
            head = blk
        pack_into(mv, head_off, head)
