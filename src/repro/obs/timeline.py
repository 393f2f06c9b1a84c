"""Windowed time-series telemetry: the run's metrics with a time axis.

Every earlier observability surface (Recorder histograms, causal
sojourns, Prometheus exposition) is a *post-hoc snapshot*: one aggregate
at end of run.  A :class:`Timeline` slices the run into fixed-width time
windows — simulated seconds on :class:`~repro.runtime.sim.SimRuntime`,
wall-clock seconds everywhere else — and each window holds, per series
key:

* **counters** (messages sent/received, bytes, lock acquisitions);
* **gauges** (queue depth, free-list level, backlog size, ring
  occupancy) folded as ``(n, sum, min, max)`` so merges stay exact;
* **quantile digests** — log₂-bucketed microsecond histograms (the same
  buckets as :class:`~repro.obs.recorder.Histogram`) that merge by
  bucket addition, so per-window latency quantiles survive rank-order
  child merges unchanged.

Series keys are ``"<series>|<metric>"`` strings: ``circuit:<slot>``,
``lock:<name>``, ``pool``, ``ring:<slot>``, and (after
:meth:`tier_series` aggregation) ``tier:<name>``.  Slot-numbered
circuit series are resolved to circuit names through :attr:`names`,
populated by the ``open_send``/``open_receive`` taps.

Feeding is attribute-gated exactly like causal tracing: the ops hot
paths test ``view.timeline is not None`` and call plain Python methods —
never a new effect — so a timeline-enabled simulation retires the
byte-identical schedule (pinned by tests/obs/test_timeline.py).
Timelines are mergeable across workers and processes the way Recorder
snapshots are: each child snapshots to plain picklable data and the
parent merges in rank order; the merge is associative and commutative,
so child order cannot change the result.
"""

from __future__ import annotations

import math
import threading
import time

from ..core.protocol import ALLOC_LOCK, FIRST_LNVC_LOCK, GLOBAL_LOCK
from .recorder import log2_us_bucket as _bucket

__all__ = ["Timeline", "digest_quantile", "merge_timelines"]


def _lock_series(lock_id: int) -> str:
    if lock_id == GLOBAL_LOCK:
        return "lock:global"
    if lock_id == ALLOC_LOCK:
        return "lock:alloc"
    return f"lock:lnvc{lock_id - FIRST_LNVC_LOCK}"


def digest_quantile(counts: dict[int, int], q: float) -> float:
    """Nearest-rank quantile over a log₂-µs bucket digest, in seconds.

    Returns the bucket's upper bound (``2**b`` µs), i.e. a conservative
    estimate with the histogram's native resolution.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for b in sorted(counts):
        seen += counts[b]
        if seen >= rank:
            return (2 ** b) * 1e-6
    return (2 ** max(counts)) * 1e-6  # pragma: no cover - defensive


def _new_window() -> dict:
    return {"counters": {}, "gauges": {}, "digests": {}}


class Timeline:
    """Fixed-width windowed counters, gauges and quantile digests.

    ``width`` is the window width in the run's timebase (seconds).
    ``clock`` is a zero-argument callable returning "now"; runtimes
    attach the same clock they give the causal tracer (simulated time on
    sim, wall seconds since run start elsewhere).  Without one, the
    timeline self-anchors at the first tap using ``time.perf_counter``
    (the blocking posix client's behaviour).
    """

    def __init__(self, width: float = 0.05, clock=None) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        self.width = float(width)
        #: Timebase tag, mirroring ``Recorder.clock``: ``"sim"`` or
        #: ``"wall"``; runtimes set it when they attach their clock.
        self.clock_kind = "wall"
        self.clock = clock
        self._t0: float | None = None
        #: window index -> {"counters": {key: n}, "gauges":
        #: {key: [n, sum, min, max]}, "digests": {key: {bucket: n}}}
        self.windows: dict[int, dict] = {}
        #: slot -> circuit name, filled by the open_send/open_receive taps.
        self.names: dict[int, str] = {}
        self._ck: dict[int, tuple] = {}
        self._merge_mutex = threading.Lock()

    # -- clocks & windows -----------------------------------------------------

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock()
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return time.perf_counter() - self._t0

    def window(self, t: float) -> dict:
        """The (created-on-demand) window containing time ``t``."""
        idx = int(t // self.width)
        win = self.windows.get(idx)
        if win is None:
            win = self.windows[idx] = _new_window()
        return win

    def window_indices(self) -> list[int]:
        return sorted(self.windows)

    # -- primitive recording --------------------------------------------------

    def count(self, t: float, key: str, n: float = 1.0) -> None:
        c = self.window(t)["counters"]
        c[key] = c.get(key, 0) + n

    def gauge(self, t: float, key: str, value: float) -> None:
        g = self.window(t)["gauges"]
        cell = g.get(key)
        if cell is None:
            g[key] = [1, value, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            if value < cell[2]:
                cell[2] = value
            if value > cell[3]:
                cell[3] = value

    def observe(self, t: float, key: str, seconds: float) -> None:
        d = self.window(t)["digests"]
        dig = d.get(key)
        if dig is None:
            dig = d[key] = {}
        b = _bucket(seconds)
        dig[b] = dig.get(b, 0) + 1

    # -- ops-layer taps (attribute-gated in repro.core.ops/transport) ---------

    def _circuit_keys(self, slot: int) -> tuple:
        keys = self._ck.get(slot)
        if keys is None:
            s = f"circuit:{slot}"
            keys = self._ck[slot] = (
                s + "|sent", s + "|bytes_sent", s + "|depth",
                s + "|recv", s + "|bytes_recv", s + "|chan_wait",
                s + "|e2e",
            )
        return keys

    def name_slot(self, slot: int, name: str) -> None:
        """Remember the circuit name occupying ``slot`` (first name wins)."""
        self.names.setdefault(slot, name)

    def tap_send(self, slot: int, nbytes: int, depth: int) -> None:
        """A message was linked at the FIFO tail at queue depth ``depth``."""
        t = self._now()
        k = self._circuit_keys(slot)
        win = self.window(t)
        c = win["counters"]
        c[k[0]] = c.get(k[0], 0) + 1
        c[k[1]] = c.get(k[1], 0) + nbytes
        g = win["gauges"]
        cell = g.get(k[2])
        if cell is None:
            g[k[2]] = [1, depth, depth, depth]
        else:
            cell[0] += 1
            cell[1] += depth
            if depth < cell[2]:
                cell[2] = depth
            if depth > cell[3]:
                cell[3] = depth

    def tap_recv(self, slot: int, nbytes: int) -> None:
        """A receive completed (payload drained, pin dropped)."""
        t = self._now()
        k = self._circuit_keys(slot)
        c = self.window(t)["counters"]
        c[k[3]] = c.get(k[3], 0) + 1
        c[k[4]] = c.get(k[4], 0) + nbytes

    def tap_depth(self, slot: int, depth: int) -> None:
        """Queue-depth sample after a reap/retire drained messages."""
        self.gauge(self._now(), self._circuit_keys(slot)[2], depth)

    def tap_pool(self, live_blocks: int) -> None:
        """Free-list pressure sample: blocks live after an allocation."""
        self.gauge(self._now(), "pool|live_blocks", live_blocks)

    def tap_ring(self, slot: int, occupancy: int) -> None:
        """Ring-transport occupancy after a commit or consume."""
        self.gauge(self._now(), f"ring:{slot}|occupancy", occupancy)

    # -- recorder-layer taps (called from Recorder hooks with hook time) ------

    def tap_lock(self, t: float, lock_id: int, wait_seconds: float,
                 contended: bool) -> None:
        series = _lock_series(lock_id)
        win = self.window(t)
        c = win["counters"]
        ka = series + "|acquires"
        c[ka] = c.get(ka, 0) + 1
        if contended:
            kc = series + "|contended"
            c[kc] = c.get(kc, 0) + 1
        d = win["digests"]
        kw = series + "|wait"
        dig = d.get(kw)
        if dig is None:
            dig = d[kw] = {}
        b = _bucket(wait_seconds)
        dig[b] = dig.get(b, 0) + 1

    def tap_chan(self, t: float, chan: int, wait_seconds: float) -> None:
        k = self._circuit_keys(chan)[5]
        self.count(t, k)
        self.observe(t, k, wait_seconds)

    def tap_e2e(self, t: float, slot: int, seconds: float) -> None:
        """End-to-end delivery latency (fed by the causal e2e sketch)."""
        self.observe(t, self._circuit_keys(slot)[6], seconds)

    # -- folds ----------------------------------------------------------------

    def totals(self) -> dict:
        """Whole-run fold: ``{"counters", "gauges", "digests"}``."""
        counters: dict[str, float] = {}
        gauges: dict[str, list] = {}
        digests: dict[str, dict[int, int]] = {}
        for win in self.windows.values():
            for k, n in win["counters"].items():
                counters[k] = counters.get(k, 0) + n
            for k, cell in win["gauges"].items():
                agg = gauges.get(k)
                if agg is None:
                    gauges[k] = list(cell)
                else:
                    agg[0] += cell[0]
                    agg[1] += cell[1]
                    agg[2] = min(agg[2], cell[2])
                    agg[3] = max(agg[3], cell[3])
            for k, dig in win["digests"].items():
                out = digests.setdefault(k, {})
                for b, n in dig.items():
                    out[b] = out.get(b, 0) + n
        return {"counters": counters, "gauges": gauges, "digests": digests}

    def series_label(self, series: str) -> str:
        """Resolve ``circuit:<slot>`` to ``circuit:<name>`` when known."""
        if series.startswith("circuit:"):
            try:
                slot = int(series[8:])
            except ValueError:
                return series
            name = self.names.get(slot)
            if name is not None:
                return f"circuit:{name}"
        return series

    def tier_series(self, tier_of) -> dict[str, dict[int, list]]:
        """Per-tier queue-depth matrix: ``{tier: {window: [n,sum,min,max]}}``.

        ``tier_of(name)`` maps a circuit name to its tier (or ``None`` to
        drop it).  Unnamed slots are dropped.  Circuits in the same tier
        have their per-window gauge cells folded, so the tier's ``sum/n``
        is the average sampled depth across its circuits.
        """
        out: dict[str, dict[int, list]] = {}
        for idx, win in self.windows.items():
            for k, cell in win["gauges"].items():
                if not k.startswith("circuit:") or not k.endswith("|depth"):
                    continue
                slot = int(k[8:k.index("|")])
                name = self.names.get(slot)
                if name is None:
                    continue
                tier = tier_of(name)
                if tier is None:
                    continue
                rows = out.setdefault(tier, {})
                agg = rows.get(idx)
                if agg is None:
                    rows[idx] = list(cell)
                else:
                    agg[0] += cell[0]
                    agg[1] += cell[1]
                    agg[2] = min(agg[2], cell[2])
                    agg[3] = max(agg[3], cell[3])
        return out

    # -- merge / snapshot ------------------------------------------------------

    def child(self) -> "Timeline":
        """A fresh same-shape timeline for one worker (merge it back)."""
        tl = Timeline(width=self.width, clock=self.clock)
        tl.clock_kind = self.clock_kind
        return tl

    def snapshot(self) -> dict:
        """Picklable plain-data form (crosses the fork boundary)."""
        return {
            "width": self.width,
            "clock_kind": self.clock_kind,
            "names": dict(self.names),
            "windows": {
                idx: {
                    "counters": dict(win["counters"]),
                    "gauges": {k: list(v) for k, v in win["gauges"].items()},
                    "digests": {k: dict(v) for k, v in win["digests"].items()},
                }
                for idx, win in self.windows.items()
            },
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this timeline (thread-safe).

        Counter addition, gauge ``(n, sum, min, max)`` folds and digest
        bucket addition are all associative and commutative, so merge
        order cannot change the merged timeline — the property the
        rank-order procs merge relies on (and tests pin).
        """
        if abs(snap["width"] - self.width) > 1e-12:
            raise ValueError(
                f"cannot merge timelines of width {snap['width']} "
                f"into width {self.width}")
        with self._merge_mutex:
            for slot, name in snap.get("names", {}).items():
                self.names.setdefault(int(slot), name)
            for idx, win in snap["windows"].items():
                idx = int(idx)
                mine = self.windows.get(idx)
                if mine is None:
                    mine = self.windows[idx] = _new_window()
                c = mine["counters"]
                for k, n in win["counters"].items():
                    c[k] = c.get(k, 0) + n
                g = mine["gauges"]
                for k, cell in win["gauges"].items():
                    agg = g.get(k)
                    if agg is None:
                        g[k] = list(cell)
                    else:
                        agg[0] += cell[0]
                        agg[1] += cell[1]
                        agg[2] = min(agg[2], cell[2])
                        agg[3] = max(agg[3], cell[3])
                d = mine["digests"]
                for k, dig in win["digests"].items():
                    out = d.setdefault(k, {})
                    for b, n in dig.items():
                        out[int(b)] = out.get(int(b), 0) + n

    # -- export ----------------------------------------------------------------

    def to_doc(self) -> dict:
        """JSON-safe document fragment (windows sorted by index)."""
        return {
            "width": self.width,
            "clock": self.clock_kind,
            "names": {str(s): n for s, n in sorted(self.names.items())},
            "windows": [
                {
                    "index": idx,
                    "start": idx * self.width,
                    "counters": {k: win["counters"][k]
                                 for k in sorted(win["counters"])},
                    "gauges": {
                        k: {"n": cell[0], "sum": cell[1],
                            "min": cell[2], "max": cell[3]}
                        for k, cell in sorted(win["gauges"].items())
                    },
                    "digests": {
                        k: {str(b): n for b, n in sorted(dig.items())}
                        for k, dig in sorted(win["digests"].items())
                    },
                }
                for idx, win in sorted(self.windows.items())
            ],
        }


def merge_timelines(snapshots, width: float | None = None) -> Timeline:
    """Fold an iterable of timeline snapshots into one fresh timeline."""
    out: Timeline | None = None
    for snap in snapshots:
        if out is None:
            out = Timeline(width=width if width is not None
                           else snap["width"])
            out.clock_kind = snap.get("clock_kind", "wall")
        out.merge(snap)
    return out if out is not None else Timeline(width=width or 0.05)
