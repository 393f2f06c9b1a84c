"""Block-chain copies: exact region bytes and payload round trips.

``message_send`` fills a message's block chain with one struct call per
block, ``message_receive`` drains it the same way, and the reaper pushes
the chain back onto the free list.  These tests pin the bytes those
paths leave in the segment, so the block addresses handed out, the
free-list order and the stale tail bytes of a partial last block cannot
change unnoticed.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ops
from repro.core.layout import HDR
from repro.core.protocol import BROADCAST, FCFS
from repro.core.structs import BLK_NEXT
from repro.testing import DirectRunner, make_view


def _payload(i: int, n: int) -> bytes:
    return bytes((i * 37 + k * 11) & 0xFF for k in range(n))


def _replay(view) -> str:
    """Run the fixed send/receive script; returns the region's sha256.

    One sender, one FCFS and one BROADCAST receiver.  Two rounds send
    lengths 0, 1, bs-1, bs, bs+1, 256, 777 and 2048; after every second
    send each receiver takes one message, and the rest is drained at the
    end.  The second round reuses blocks the first round freed, so the
    digest also covers the stale bytes a partial last block keeps.
    """
    r = DirectRunner(view)
    bs = view.cfg.block_size
    lengths = (0, 1, bs - 1, bs, bs + 1, 256, 777, 2048)
    cid = r.run(ops.open_send(view, 0, "chain"))
    r.run(ops.open_receive(view, 1, "chain", FCFS))
    r.run(ops.open_receive(view, 2, "chain", BROADCAST))
    sent: list[bytes] = []
    got = {1: [], 2: []}

    def take_one():
        for pid in got:
            got[pid].append(r.run(ops.message_receive(view, pid, cid)))

    for rnd in range(2):
        for i, n in enumerate(lengths):
            data = _payload(rnd * len(lengths) + i, n)
            r.run(ops.message_send(view, 0, cid, data))
            sent.append(data)
            if i % 2:
                take_one()
    while len(got[1]) < len(sent):
        take_one()
    assert got[1] == sent and got[2] == sent
    assert HDR.get(view.region, "live_blocks") == 0
    return hashlib.sha256(view.region.read(0, view.region.size)).hexdigest()


SINGLE_LIST = "bfccbe2502f7beb8a6b68bfdcf3eed16fb1fdc5a45dabdbcfe1071eec32c32be"


@pytest.mark.parametrize(
    "overrides,digest", [({}, SINGLE_LIST)], ids=["single-list"],
)
def test_region_bytes_match_per_block_copies(overrides, digest):
    """The region digest equals the one the per-block loops produced.

    The expected values were measured by running ``_replay`` against the
    implementation that copied each block with separate ``set_u32`` /
    ``write`` and ``read`` / ``u32`` calls (one accessor call per link
    and per data slice), before the whole-block struct copies replaced
    it.
    """
    assert _replay(make_view(**overrides)) == digest


@given(
    block_size=st.sampled_from([1, 3, 10, 16]),
    payloads=st.lists(st.binary(max_size=200), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_payload_round_trip(block_size, payloads):
    """Every payload comes back intact and every block is returned."""
    view = make_view(block_size=block_size)
    r = DirectRunner(view)
    cid = r.run(ops.open_send(view, 0, "rt"))
    r.run(ops.open_receive(view, 1, "rt", FCFS))
    for data in payloads:
        r.run(ops.message_send(view, 0, cid, data))
    for data in payloads:
        assert r.run(ops.message_receive(view, 1, cid)) == data
    assert HDR.get(view.region, "live_blocks") == 0


@pytest.mark.parametrize("helper", ["drain", "walk"])
def test_link_past_region_end_names_the_block(helper):
    """Following a corrupt link raises IndexError with the bad offset."""
    view = make_view()
    chains = view.chains
    bad = view.region.size - 2
    blocks = chains.pop(HDR.u32["free_blk"], 3)
    chains.fill(blocks, bytes(25))
    view.region.set_u32(blocks[1] + BLK_NEXT, bad)
    with pytest.raises(IndexError, match=f"block at {bad} "):
        if helper == "drain":
            chains.drain(blocks[0], 25)
        else:
            chains.walk(blocks[0])
