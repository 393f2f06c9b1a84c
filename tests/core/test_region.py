"""Unit tests for the shared byte region."""

import pytest

from repro.core.region import SharedRegion


def test_u32_roundtrip():
    r = SharedRegion(bytearray(64))
    r.set_u32(8, 0xDEADBEEF)
    assert r.u32(8) == 0xDEADBEEF


def test_u32_is_little_endian():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0x01020304)
    assert r.read(0, 4) == b"\x04\x03\x02\x01"


def test_u32_masks_to_32_bits():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0x1_0000_0002)
    assert r.u32(0) == 2


def test_add_u32_wraps():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0xFFFFFFFF)
    assert r.add_u32(0, 1) == 0


def test_add_u32_negative_delta():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 10)
    assert r.add_u32(0, -3) == 7
    assert r.u32(0) == 7


def test_u64_roundtrip():
    r = SharedRegion(bytearray(16))
    r.set_u64(8, 1 << 40)
    assert r.u64(8) == 1 << 40


def test_add_u64_accumulates():
    r = SharedRegion(bytearray(8))
    for _ in range(5):
        r.add_u64(0, 1 << 33)
    assert r.u64(0) == 5 << 33


def test_read_write_bytes():
    r = SharedRegion(bytearray(32))
    r.write(5, b"hello")
    assert r.read(5, 5) == b"hello"
    assert r.read(4, 1) == b"\x00"


def test_read_out_of_bounds_raises():
    r = SharedRegion(bytearray(16))
    with pytest.raises(IndexError):
        r.read(10, 10)
    with pytest.raises(IndexError):
        r.read(-1, 4)


def test_write_out_of_bounds_raises():
    r = SharedRegion(bytearray(16))
    with pytest.raises(IndexError):
        r.write(14, b"abcd")


def test_fill():
    r = SharedRegion(bytearray(16))
    r.write(0, b"\xff" * 16)
    r.fill(4, 8)
    assert r.read(0, 16) == b"\xff" * 4 + b"\x00" * 8 + b"\xff" * 4


def test_fill_nonzero_byte():
    r = SharedRegion(bytearray(8))
    r.fill(0, 8, 0xAB)
    assert r.read(0, 8) == b"\xab" * 8


def test_len():
    assert len(SharedRegion(bytearray(100))) == 100


def test_readonly_buffer_rejected():
    with pytest.raises(ValueError):
        SharedRegion(b"immutable bytes!")


def test_memoryview_backing():
    backing = bytearray(32)
    r = SharedRegion(memoryview(backing))
    r.set_u32(0, 42)
    assert backing[0] == 42


def test_writes_visible_through_backing():
    backing = bytearray(8)
    r = SharedRegion(backing)
    r.write(0, b"xy")
    assert bytes(backing[:2]) == b"xy"


@pytest.mark.parametrize("off,n", [(-8, 4), (14, 8)])
def test_fill_out_of_bounds_raises(off, n):
    r = SharedRegion(bytearray(16))
    with pytest.raises(IndexError):
        r.fill(off, n, 0xAB)
    assert r.read(0, 16) == bytes(16)
