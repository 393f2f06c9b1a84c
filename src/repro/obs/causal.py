"""Per-message causal tracing: lifecycle events, sojourn times, stalls.

The :class:`~repro.obs.recorder.Recorder` aggregates (per-lock waits,
per-``Work`` charges) answer "where did the run spend its time" but not
"where did *this message* spend its time".  The paper's analysis needs
the second question too: "for large messages ... message copying costs
dominate" is a per-message statement, and Figure 4's falling FCFS curve
is per-message queueing delay made visible.

A :class:`CausalTracer` records one :class:`MsgEvent` per lifecycle
transition of every message, keyed by the identity MPF already
maintains — the per-LNVC ``seq`` counter assigned under the circuit
lock in :func:`repro.core.ops.message_send` plus the circuit's
``(slot, generation)`` pair, so events from recycled slots never alias:

* ``send``  — one per :func:`message_send`, carrying four timestamps:
  primitive entry (``t0``), block allocation complete (``t1``), payload
  copy-in complete (``t2``), linked at the FIFO tail (``t3``), plus the
  queue depth the enqueue produced;
* ``recv``  — one per :func:`message_receive`: entry (``t0``), claim —
  the FCFS take or per-receiver BROADCAST visit (``t1``), copy-out
  complete (``t2``), retire/unpin done (``t3``);
* ``free``  — one when the message header returns to the free list,
  from FIFO-head reaping or circuit deletion (``discard=True``).

The hooks are plain attribute-gated calls inside the ops generators —
no new effects are yielded, so attaching a tracer never adds scheduler
round-trips and provably cannot perturb simulated timing (pinned by the
fig3 byte-identity test).  Free-list pressure is watched through
:meth:`CausalTracer.on_pool`, fed by :func:`repro.core.freelist.fl_alloc`.

Everything here is derived from the event list: per-stage sojourn
latency quantiles (:func:`sojourn_stats`), queue-depth timelines
(:func:`queue_depth_timeline`, cross-checkable against the circuit's
``hwm_nmsgs`` high-water mark), and a backpressure/stall detector
(:func:`detect_stalls`).  Flow graphs live in :mod:`repro.obs.flow`,
the Prometheus exposition in :mod:`repro.obs.prom`.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from ..core.protocol import NIL

__all__ = [
    "MsgEvent",
    "CausalTracer",
    "StageStats",
    "sojourn_stats",
    "pair_deliveries",
    "queue_depth_timeline",
    "peak_depth",
    "busiest_lnvc",
    "detect_stalls",
    "format_sojourn",
    "format_causal_tail",
    "causal_async_events",
]

#: Default bound on the stored event list (see ``Recorder.limit``).
DEFAULT_LIMIT = 200_000

#: Lifecycle stages derived from a matched (send, recv) event pair, in
#: causal order.  ``alloc``/``copy_in``/``link`` come from the send
#: timestamps, ``resident`` is time spent queued between the link and
#: the claim, ``copy_out`` is the receiver-side drain, ``e2e`` spans
#: send entry to copy-out completion.
STAGES = ("alloc", "copy_in", "link", "resident", "copy_out", "e2e")


@dataclass(frozen=True)
class MsgEvent:
    """One lifecycle transition of one message.

    ``(slot, gen, seqno)`` is the message's causal identity; the four
    timestamps are in the producing runtime's clock (simulated seconds
    on the simulator, wall seconds elsewhere).  Fields not meaningful
    for a kind stay at their defaults (``free`` events only use ``t0``).
    For ``free`` events ``pid`` is the original *sender* (the header's
    ``sender`` field) — the reaper's identity is incidental.
    """

    kind: str          # "send" | "recv" | "free"
    pid: int
    slot: int
    gen: int
    seqno: int
    length: int
    t0: float
    t1: float = 0.0
    t2: float = 0.0
    t3: float = 0.0
    blocks: int = 0    # send: blocks allocated for the payload chain
    depth: int = 0     # send: queue depth after enqueue; free: after unlink
    fcfs: int = 1      # recv: 1 = FCFS take, 0 = BROADCAST visit
    discard: int = 0   # free: 1 = dropped by circuit deletion, 0 = reaped

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.slot, self.gen, self.seqno)

    @property
    def lnvc(self) -> tuple[int, int]:
        return (self.slot, self.gen)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "pid": self.pid, "slot": self.slot,
            "gen": self.gen, "seqno": self.seqno, "length": self.length,
            "t0": self.t0, "t1": self.t1, "t2": self.t2, "t3": self.t3,
            "blocks": self.blocks, "depth": self.depth,
            "fcfs": self.fcfs, "discard": self.discard,
        }


class CausalTracer:
    """Collects :class:`MsgEvent` records plus free-list pressure counts.

    Runtimes attach a tracer to the shared :class:`~repro.core.ops.MPFView`
    (``view.causal``) and point :attr:`clock` at the run's timebase; the
    ops generators then call the ``on_*`` hooks inline.  Like the
    Recorder, the event list is bounded: :attr:`total` keeps counting
    past :attr:`limit` and :attr:`dropped` says how many events were not
    stored, so a truncated trace is never silently read as complete.

    **Bounded mode** (``max_events=N``): instead of keeping a prefix and
    dropping the rest, the tracer keeps a deterministic *stride sample*
    — events whose ``seqno % stride == 0``, with the stride doubling
    (and the stored list re-pruned) whenever the store would exceed
    ``N``.  Sends and receives of the same message share a seqno, so
    sampled messages keep their complete lifecycle and every derived
    analysis still works, on a 1-in-``stride`` subset.  End-to-end
    latency is **not** sampled: an exact sketch pairs every send with
    its receives as they happen (8 bytes per delivery), so p50/p99/p999
    e2e quantiles over a million-message run stay exact while memory
    stays bounded.  :attr:`stride` is surfaced by the summary tables.
    """

    __slots__ = ("limit", "clock", "events", "total", "dropped",
                 "pool_allocs", "pool_failures",
                 "max_events", "stride", "e2e", "_pending", "_orphans",
                 "_grace", "timeline")

    def __init__(self, limit: int = DEFAULT_LIMIT, clock=None,
                 max_events: int | None = None) -> None:
        self.limit = limit
        #: Zero-argument callable returning "now" in the run's timebase.
        self.clock = clock if clock is not None else time.perf_counter
        self.events: list[MsgEvent] = []
        self.total = 0
        self.dropped = 0
        #: Successful free-list pops, keyed by pool head offset.
        self.pool_allocs: dict[int, int] = {}
        #: Pops that found the pool exhausted (returned NIL).
        self.pool_failures: dict[int, int] = {}
        #: Bounded-mode event cap (``None`` = classic prefix-keep mode).
        self.max_events = max_events
        #: Current sampling stride (1 = every message; bounded mode only).
        self.stride = 1
        if max_events is not None:
            if max_events < 1:
                raise ValueError("max_events must be >= 1")
            #: Exact e2e latency sketch, one float per delivery.
            self.e2e = array("d")
            self._pending: dict = {}   # key -> send t0, popped on free
            self._orphans: dict = {}   # key -> [recv t2], matched on merge
            self._grace: dict = {}     # recently freed key -> t0 (see below)
        else:
            self.e2e = None
            self._pending = None
            self._orphans = None
            self._grace = None
        #: Optional :class:`~repro.obs.timeline.Timeline` fed the exact
        #: e2e deliveries as per-circuit windowed latency digests
        #: (bounded mode only — the sketch is what pairs send to recv).
        self.timeline = None

    # -- hooks called inline by repro.core.ops ------------------------------

    def _emit(self, ev: MsgEvent) -> None:
        self.total += 1
        if self.max_events is None:
            if len(self.events) < self.limit:
                self.events.append(ev)
            else:
                self.dropped += 1
            return
        if ev.seqno % self.stride:
            self.dropped += 1
            return
        events = self.events
        if len(events) >= self.max_events:
            self.stride *= 2
            kept = [e for e in events if e.seqno % self.stride == 0]
            self.dropped += len(events) - len(kept)
            self.events = events = kept
            if ev.seqno % self.stride:
                self.dropped += 1
                return
        events.append(ev)

    def on_send(self, pid: int, slot: int, gen: int, seqno: int,
                length: int, blocks: int, depth: int,
                t0: float, t1: float, t2: float) -> None:
        """Message linked at the FIFO tail; ``t3`` is sampled here."""
        if self._pending is not None:
            self._pending[(slot, gen, seqno)] = t0
        self._emit(MsgEvent("send", pid, slot, gen, seqno, length,
                            t0, t1, t2, self.clock(),
                            blocks=blocks, depth=depth))

    def on_recv(self, pid: int, slot: int, gen: int, seqno: int,
                length: int, fcfs: int, t0: float, t1: float,
                t2: float) -> None:
        """Receive complete (busy pin dropped); ``t3`` is sampled here."""
        if self._pending is not None:
            key = (slot, gen, seqno)
            s0 = self._pending.get(key)
            if s0 is None:
                s0 = self._grace.pop(key, None)
            if s0 is not None:
                self.e2e.append(t2 - s0 if t2 > s0 else 0.0)
                if self.timeline is not None:
                    self.timeline.tap_e2e(
                        t2, slot, t2 - s0 if t2 > s0 else 0.0)
            elif len(self._orphans) < 65536:
                # Cross-process delivery (procs runtime): the send lives
                # in another child's tracer; matched at merge time.
                self._orphans.setdefault(key, []).append(t2)
        self._emit(MsgEvent("recv", pid, slot, gen, seqno, length,
                            t0, t1, t2, self.clock(), fcfs=1 if fcfs else 0))

    def on_free(self, sender: int, slot: int, gen: int, seqno: int,
                length: int, depth: int, discard: int = 0) -> None:
        """Message header returned to the free list."""
        if self._pending is not None:
            # message_receive reaps the retired head (_reap_head) before
            # its own on_recv hook fires, so the last receiver of a
            # message frees it first.  A freed entry therefore lingers
            # briefly in a small grace buffer instead of vanishing, so
            # on_recv still finds the send time and the e2e sketch stays
            # complete.
            t0 = self._pending.pop((slot, gen, seqno), None)
            if t0 is not None:
                g = self._grace
                g[(slot, gen, seqno)] = t0
                while len(g) > 256:
                    del g[next(iter(g))]
        self._emit(MsgEvent("free", sender, slot, gen, seqno, length,
                            self.clock(), depth=depth,
                            discard=1 if discard else 0))

    def on_pool(self, head_off: int, off: int) -> None:
        """:func:`fl_alloc` watch hook: one pop attempt on one pool."""
        table = self.pool_failures if off == NIL else self.pool_allocs
        table[head_off] = table.get(head_off, 0) + 1

    def on_pool_bulk(self, head_off: int, n: int) -> None:
        """``n`` records popped outside :func:`fl_alloc` (block chains)."""
        self.pool_allocs[head_off] = self.pool_allocs.get(head_off, 0) + n

    # -- simple queries ------------------------------------------------------

    def sends(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "send"]

    def recvs(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "recv"]

    def frees(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "free"]

    def lnvc_keys(self) -> list[tuple[int, int]]:
        """Distinct ``(slot, gen)`` pairs seen, sorted."""
        return sorted({e.lnvc for e in self.events})

    def e2e_stats(self) -> "StageStats":
        """Quantiles over the exact e2e sketch (bounded mode only).

        In classic mode the sketch does not exist; callers should derive
        e2e from :func:`sojourn_stats` instead.
        """
        if self.e2e is None:
            raise ValueError(
                "e2e sketch requires bounded mode (max_events=N)")
        return StageStats(list(self.e2e))

    # -- merge across workers / processes ------------------------------------

    def snapshot(self) -> dict:
        """Picklable plain-data form (crosses the fork boundary)."""
        snap = {
            "limit": self.limit,
            "total": self.total,
            "events": [e.as_dict() for e in self.events],
            "pool_allocs": dict(self.pool_allocs),
            "pool_failures": dict(self.pool_failures),
        }
        if self.max_events is not None:
            snap["max_events"] = self.max_events
            snap["stride"] = self.stride
            snap["e2e"] = list(self.e2e)
            snap["pending"] = [list(k) + [t0]
                               for k, t0 in self._pending.items()]
            snap["pending"] += [list(k) + [t0]
                                for k, t0 in self._grace.items()]
            snap["orphans"] = [list(k) + [t2]
                               for k, ts in self._orphans.items()
                               for t2 in ts]
        return snap

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this tracer."""
        self.total += snap["total"]
        events = snap["events"]
        if self.max_events is not None:
            self.stride = max(self.stride, snap.get("stride", 1))
            incoming = [MsgEvent(**d) for d in events]
            merged = [e for e in self.events + incoming
                      if e.seqno % self.stride == 0]
            while len(merged) > self.max_events:
                self.stride *= 2
                merged = [e for e in merged if e.seqno % self.stride == 0]
            self.dropped += (snap["total"] - len(events)) + (
                len(self.events) + len(incoming) - len(merged))
            self.events = merged
            self.e2e.extend(snap.get("e2e", ()))
            # Match cross-process deliveries: a child's unmatched sends
            # against our orphan receives and vice versa.  BROADCAST
            # sends stay pending (later merges may hold more receives).
            for s, g, q, t0 in snap.get("pending", ()):
                key = (s, g, q)
                for t2 in self._orphans.pop(key, ()):
                    self.e2e.append(t2 - t0 if t2 > t0 else 0.0)
                self._pending[key] = t0
            for s, g, q, t2 in snap.get("orphans", ()):
                key = (s, g, q)
                t0 = self._pending.get(key)
                if t0 is not None:
                    self.e2e.append(t2 - t0 if t2 > t0 else 0.0)
                elif len(self._orphans) < 65536:
                    self._orphans.setdefault(key, []).append(t2)
        else:
            room = self.limit - len(self.events)
            fitted = min(len(events), room) if room > 0 else 0
            self.events.extend(MsgEvent(**d) for d in events[:fitted])
            self.dropped += (snap["total"] - len(events)) + (len(events) - fitted)
        for off, n in snap["pool_allocs"].items():
            off = int(off)
            self.pool_allocs[off] = self.pool_allocs.get(off, 0) + n
        for off, n in snap["pool_failures"].items():
            off = int(off)
            self.pool_failures[off] = self.pool_failures.get(off, 0) + n


# ---------------------------------------------------------------------------
# derived analyses
# ---------------------------------------------------------------------------


class StageStats:
    """Quantiles over one latency sample set (nearest-rank method)."""

    __slots__ = ("samples",)

    def __init__(self, samples: list[float]) -> None:
        self.samples = sorted(samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; 0.0 on an empty sample set."""
        if not self.samples:
            return 0.0
        rank = max(1, -(-int(q * 100) * len(self.samples) // 100))
        return self.samples[min(rank, len(self.samples)) - 1]

    def quantile_fine(self, q: float) -> float:
        """Nearest-rank quantile at per-mille resolution.

        :meth:`quantile` truncates ``q`` to centiles (0.999 would
        silently degrade to p99); this variant resolves thousandths.
        Kept separate so the centile quantiles in archived expositions
        stay byte-identical.
        """
        if not self.samples:
            return 0.0
        rank = max(1, -(-round(q * 1000) * len(self.samples) // 1000))
        return self.samples[min(rank, len(self.samples)) - 1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile_fine(0.999)


def pair_deliveries(tracer: CausalTracer) -> list[tuple[MsgEvent, MsgEvent]]:
    """Match each ``recv`` event with its ``send`` by message identity.

    BROADCAST messages are received once per receiver, so one send may
    appear in several pairs.  Receives whose send fell outside the event
    bound are dropped (they cannot be timed end-to-end).
    """
    sends = {e.key: e for e in tracer.events if e.kind == "send"}
    out = []
    for e in tracer.events:
        if e.kind == "recv":
            s = sends.get(e.key)
            if s is not None:
                out.append((s, e))
    return out


def sojourn_stats(
    tracer: CausalTracer,
) -> dict[tuple[int, int], dict[str, StageStats]]:
    """Per-LNVC per-stage latency quantiles (see :data:`STAGES`).

    Stage durations clamp at zero: on real runtimes the claim is
    timestamped by the *receiving* process, so tiny negative residencies
    from cross-thread clock skew are noise, not signal.
    """
    samples: dict[tuple[int, int], dict[str, list[float]]] = {}
    for s, r in pair_deliveries(tracer):
        per = samples.setdefault(s.lnvc, {st: [] for st in STAGES})
        per["alloc"].append(max(0.0, s.t1 - s.t0))
        per["copy_in"].append(max(0.0, s.t2 - s.t1))
        per["link"].append(max(0.0, s.t3 - s.t2))
        per["resident"].append(max(0.0, r.t1 - s.t3))
        per["copy_out"].append(max(0.0, r.t2 - r.t1))
        per["e2e"].append(max(0.0, r.t2 - s.t0))
    return {
        key: {st: StageStats(vals) for st, vals in per.items()}
        for key, per in samples.items()
    }


def queue_depth_timeline(
    tracer: CausalTracer, slot: int, gen: int
) -> list[tuple[float, int]]:
    """``(time, depth)`` steps for one circuit's message queue.

    Depth changes on enqueue (``send`` events, at ``t3``) and on unlink
    (``free`` events); both carry the post-transition depth read under
    the circuit lock, so the timeline is exact, not inferred.  Ties in
    time (common under the model checker's zero-cost timing) keep event
    order.
    """
    steps = [
        (e.t3 if e.kind == "send" else e.t0, i, e.depth)
        for i, e in enumerate(tracer.events)
        if e.kind in ("send", "free") and e.lnvc == (slot, gen)
    ]
    steps.sort()
    return [(t, depth) for t, _, depth in steps]


def peak_depth(tracer: CausalTracer, slot: int, gen: int) -> int:
    """Maximum queue depth observed on one circuit (0 if never traced)."""
    return max(
        (d for _, d in queue_depth_timeline(tracer, slot, gen)), default=0
    )


def busiest_lnvc(tracer: CausalTracer) -> tuple[int, int] | None:
    """The ``(slot, gen)`` with the most send events (``None`` if no sends).

    Benchmarks run control traffic (barriers) over the same segment as
    the measured circuit; the measured circuit is the busiest one.
    """
    counts: dict[tuple[int, int], int] = {}
    for e in tracer.events:
        if e.kind == "send":
            counts[e.lnvc] = counts.get(e.lnvc, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda k: (-counts[k], k))


def detect_stalls(
    tracer: CausalTracer,
    *,
    growth_factor: float = 3.0,
    spike_factor: float = 20.0,
    depth_threshold: int = 4,
    min_samples: int = 8,
) -> list[str]:
    """Backpressure findings, one human-readable string per flagged LNVC.

    Flags, per circuit: queue residency whose second-half median grew
    ``growth_factor``× over the first half (consumers falling behind);
    a final queue depth still at ≥ half the peak with the peak at least
    ``depth_threshold`` (queue not draining); allocation latency whose
    p99 exceeds ``spike_factor``× its p50 (free-list convoy).  Pool
    exhaustion (failed pops) is flagged globally.
    """
    findings: list[str] = []
    stats = sojourn_stats(tracer)
    pairs = pair_deliveries(tracer)
    for key in tracer.lnvc_keys():
        slot, gen = key
        name = f"lnvc{slot}@g{gen}"
        per = stats.get(key)
        if per is not None and per["resident"].count >= min_samples:
            # StageStats sorts its samples; growth detection needs them
            # back in delivery order.
            ordered = [
                max(0.0, r.t1 - s.t3) for s, r in pairs if s.lnvc == key
            ]
            half = len(ordered) // 2
            first = StageStats(ordered[:half]).p50
            second = StageStats(ordered[half:]).p50
            if first > 0 and second > growth_factor * first:
                findings.append(
                    f"{name}: queue residency growing (p50 "
                    f"{first * 1e6:.1f}µs -> {second * 1e6:.1f}µs over the "
                    f"run) — consumers falling behind"
                )
        if per is not None and per["alloc"].count >= min_samples:
            p50, p99 = per["alloc"].p50, per["alloc"].p99
            if p50 > 0 and p99 > spike_factor * p50:
                findings.append(
                    f"{name}: allocation latency spikes (p50 "
                    f"{p50 * 1e6:.1f}µs, p99 {p99 * 1e6:.1f}µs) — free-list "
                    f"convoy under the allocator lock"
                )
        timeline = queue_depth_timeline(tracer, slot, gen)
        if timeline:
            peak = max(d for _, d in timeline)
            final = timeline[-1][1]
            if peak >= depth_threshold and final * 2 >= peak:
                findings.append(
                    f"{name}: queue not draining (peak depth {peak}, "
                    f"final depth {final})"
                )
    failed = sum(tracer.pool_failures.values())
    if failed:
        findings.append(
            f"shared pools exhausted {failed} time(s) — the init() sizing "
            f"estimate is too small for this workload"
        )
    return findings


# ---------------------------------------------------------------------------
# text / export surfaces
# ---------------------------------------------------------------------------


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}"


def format_sojourn(tracer: CausalTracer) -> str:
    """Aligned per-LNVC table of per-stage p50s and end-to-end quantiles."""
    from .export import _table

    stats = sojourn_stats(tracer)
    if not stats:
        return "(no complete deliveries traced)"
    rows = [["lnvc", "deliv", "alloc-p50", "copyin-p50", "link-p50",
             "resid-p50", "copyout-p50", "e2e-p50", "e2e-p95", "e2e-p99"]]
    for key in sorted(stats):
        per = stats[key]
        rows.append([
            f"lnvc{key[0]}@g{key[1]}", str(per["e2e"].count),
            _us(per["alloc"].p50), _us(per["copy_in"].p50),
            _us(per["link"].p50), _us(per["resident"].p50),
            _us(per["copy_out"].p50), _us(per["e2e"].p50),
            _us(per["e2e"].p95), _us(per["e2e"].p99),
        ])
    lines = [_table(rows), "(latencies in µs)"]
    if tracer.max_events is not None:
        if tracer.stride > 1:
            lines.append(
                f"(~) bounded tracing: 1/{tracer.stride} stride sample "
                f"({len(tracer.events)} of {tracer.total} events stored); "
                f"per-stage quantiles cover the sample, e2e sketch stays "
                f"exact ({len(tracer.e2e)} deliveries)"
            )
    elif tracer.dropped:
        lines.append(
            f"(!) {tracer.dropped} of {tracer.total} causal events dropped "
            f"(limit {tracer.limit}); quantiles cover the recorded prefix"
        )
    return "\n".join(lines)


def format_causal_tail(tracer: CausalTracer, n: int = 12) -> str:
    """The last ``n`` lifecycle events, one line each (debugging aid)."""
    lines = []
    for e in tracer.events[-n:]:
        ident = f"lnvc{e.slot}@g{e.gen}#msg{e.seqno}"
        if e.kind == "send":
            detail = f"{e.length}B in {e.blocks} blk(s), depth -> {e.depth}"
        elif e.kind == "recv":
            detail = f"{e.length}B, {'fcfs take' if e.fcfs else 'bcast visit'}"
        else:
            detail = ("discarded (circuit deleted)" if e.discard
                      else f"reaped, depth -> {e.depth}")
        who = f"p{e.pid}" + (" (sender)" if e.kind == "free" else "")
        lines.append(f"  {e.kind:<4} {ident:<18} {who:<12} {detail}")
    if tracer.dropped:
        lines.append(f"  ... ({tracer.dropped} earlier events dropped)")
    return "\n".join(lines) if lines else "  (no causal events recorded)"


def causal_async_events(tracer: CausalTracer) -> list[dict]:
    """Chrome Trace Event Format *async* events for each traced message.

    Each message becomes one async track (``ph`` ``b``/``n``/``e`` with a
    shared ``id``): begin at send entry, instants at enqueue and each
    claim, end at the last observed lifecycle point.  Loaded alongside
    the Recorder's duration slices, Perfetto draws the message's whole
    journey as an arrow-spanning bar above the per-process tracks.
    """
    by_key: dict[tuple[int, int, int], list[MsgEvent]] = {}
    for e in tracer.events:
        by_key.setdefault(e.key, []).append(e)
    events: list[dict] = []
    for key in sorted(by_key):
        slot, gen, seqno = key
        name = f"msg lnvc{slot}#{seqno}"
        mid = f"{slot}.{gen}.{seqno}"
        evs = by_key[key]
        send = next((e for e in evs if e.kind == "send"), None)
        start = send.t0 if send is not None else min(e.t0 for e in evs)
        end = start
        common = {"pid": 0, "tid": 0, "cat": "msg", "id": mid, "name": name}
        events.append({**common, "ph": "b", "ts": round(start * 1e6, 3)})
        for e in evs:
            if e.kind == "send":
                events.append({
                    **common, "ph": "n", "ts": round(e.t3 * 1e6, 3),
                    "args": {"step": "enqueue", "depth": e.depth,
                             "bytes": e.length},
                })
                end = max(end, e.t3)
            elif e.kind == "recv":
                events.append({
                    **common, "ph": "n", "ts": round(e.t1 * 1e6, 3),
                    "args": {"step": "take" if e.fcfs else "visit",
                             "by": f"p{e.pid}"},
                })
                end = max(end, e.t3)
            else:
                events.append({
                    **common, "ph": "n", "ts": round(e.t0 * 1e6, 3),
                    "args": {"step": "discard" if e.discard else "free"},
                })
                end = max(end, e.t0)
        events.append({**common, "ph": "e", "ts": round(end * 1e6, 3)})
    return events
