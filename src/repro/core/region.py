"""Flat shared byte region with typed accessors.

All MPF state — LNVC descriptors, connection descriptors, message headers
and 10-byte message blocks — lives in one contiguous byte region, addressed
by 32-bit byte offsets, exactly as the paper's C implementation lays its
structures out in a mapped shared-memory segment (§3.1, §4: "shared memory
used by MPF is implemented by mapping a region of physical memory into the
virtual address space of each process").

A :class:`SharedRegion` wraps any writable buffer:

* a ``bytearray`` for the thread runtime and the simulated machine,
* the ``buf`` of a ``multiprocessing.shared_memory.SharedMemory`` for the
  process runtime.

Keeping the structures byte-level (rather than Python objects) is what
makes the three runtimes share one implementation: bytes are the only data
model that a forked process, a thread and a simulated processor can all
address identically.
"""

from __future__ import annotations

import struct

__all__ = ["SharedRegion"]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class SharedRegion:
    """A byte-addressable shared segment.

    Parameters
    ----------
    buf:
        Any object satisfying the writable buffer protocol with a stable
        length (``bytearray``, ``memoryview``, ``mmap``, shared memory).
    """

    __slots__ = ("_mv", "size", "u32", "set_u32", "add_u32")

    def __init__(self, buf) -> None:
        mv = memoryview(buf).cast("B")
        if mv.readonly:
            raise ValueError("SharedRegion requires a writable buffer")
        self._mv = mv
        self.size = len(mv)

        # -- 32-bit words -------------------------------------------------
        # ``u32`` / ``set_u32`` / ``add_u32`` run millions of times per
        # figure sweep.  They are bound as per-instance closures over the
        # memoryview rather than methods: a closure call skips the
        # descriptor lookup and the ``self`` rebinding a bound method pays
        # on every call.
        unpack_from = _U32.unpack_from
        pack_into = _U32.pack_into

        def u32(off: int) -> int:
            """Read the little-endian u32 at byte offset ``off``."""
            return unpack_from(mv, off)[0]

        def set_u32(off: int, value: int) -> None:
            """Write ``value`` as a little-endian u32 at byte offset ``off``."""
            pack_into(mv, off, value & 0xFFFFFFFF)

        def add_u32(off: int, delta: int) -> int:
            """Add ``delta`` (may be negative) to the u32 at ``off``.

            Returns the new value.  This is *not* atomic with respect to
            other processes — callers must hold the lock that guards the
            word, just as the C implementation serializes access with its
            synchronization variables.
            """
            value = (unpack_from(mv, off)[0] + delta) & 0xFFFFFFFF
            pack_into(mv, off, value)
            return value

        self.u32 = u32
        self.set_u32 = set_u32
        self.add_u32 = add_u32

    # -- 64-bit words (statistics counters only) --------------------------

    def u64(self, off: int) -> int:
        """Read the little-endian u64 at byte offset ``off``."""
        return _U64.unpack_from(self._mv, off)[0]

    def set_u64(self, off: int, value: int) -> None:
        """Write ``value`` as a little-endian u64 at byte offset ``off``."""
        _U64.pack_into(self._mv, off, value & 0xFFFFFFFFFFFFFFFF)

    def add_u64(self, off: int, delta: int) -> int:
        """Add ``delta`` to the u64 at ``off`` (non-atomic; hold a lock)."""
        value = (_U64.unpack_from(self._mv, off)[0] + delta) & 0xFFFFFFFFFFFFFFFF
        _U64.pack_into(self._mv, off, value)
        return value

    # -- raw bytes ---------------------------------------------------------

    def read(self, off: int, n: int) -> bytes:
        """Copy ``n`` bytes starting at ``off`` out of the region."""
        if off < 0 or off + n > self.size:
            raise IndexError(f"read [{off}, {off + n}) outside region of {self.size}")
        return bytes(self._mv[off : off + n])

    def write(self, off: int, data: bytes) -> None:
        """Copy ``data`` into the region starting at ``off``."""
        end = off + len(data)
        if off < 0 or end > self.size:
            raise IndexError(f"write [{off}, {end}) outside region of {self.size}")
        self._mv[off:end] = data

    def fill(self, off: int, n: int, byte: int = 0) -> None:
        """Set ``n`` bytes starting at ``off`` to ``byte``."""
        if off < 0 or off + n > self.size:
            raise IndexError(f"fill [{off}, {off + n}) outside region of {self.size}")
        self._mv[off : off + n] = bytes([byte]) * n

    def release(self) -> None:
        """Release the underlying memoryview.

        Required before a ``SharedMemory`` segment can be closed; harmless
        for plain ``bytearray`` regions.
        """
        self._mv.release()

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedRegion(size={self.size})"
