"""Counters, spans and a sampling self-time profile for one pass.

:class:`Probe` wraps ``SimRuntime.run`` for the length of a pass and
sums, over every simulation the pass runs, the MPF header counters, the
:class:`~repro.machine.stats.MachineReport` counters and the attached
recorders' observability counts.  This costs one Python call per
simulation, so untraced passes carry it too.

With ``trace=True`` it also

* records spans unit -> ``SimRuntime.run`` -> ``Engine.run`` with
  their CPU and wall times, so ``runtime.setup`` (``SimRuntime.run``
  minus ``Engine.run``) and ``machine.engine_run`` are measured where
  they happen;
* counts ``check_receive`` attempts and hits at ``Env.check_receive``;
* aggregates simulated charges by effect label through
  ``enable_label_profile``;
* samples the interpreter every millisecond of process CPU
  (``ITIMER_PROF``) and charges the CPU since the previous sample to the
  layer of the executing function.  Frames outside ``repro`` (the
  standard library, NumPy) are charged to their nearest ``repro``
  caller, and C builtins have no frame of their own, so both count
  against the layer that called them.  A sampler perturbs call-dense
  layers far less than a per-call profiling hook would.

All patches are removed when the probe exits.
"""

from __future__ import annotations

import signal
import statistics
import time
import weakref
from contextlib import contextmanager

#: Layers named after the program's modules, in report order.
LAYERS = (
    "machine", "core.ops", "core.region", "core.freelist", "core.transport",
    "core.layout", "core.other", "runtime", "patterns", "apps", "serve",
    "obs", "bench", "other",
)
_TOP = {"machine", "runtime", "patterns", "apps", "serve", "obs", "bench"}

#: Effect labels grouped by the paper's cost decomposition; any label
#: not listed counts as ``other``.
LABEL_GROUPS = {
    "copy": ("send-copy", "recv-copy", "ring-copy", "ring-fill"),
    "list": ("send-alloc", "send-link", "recv-find", "recv-retire",
             "check-walk", "reap", "ring-claim", "ring-commit",
             "ring-consume", "ring-cursor"),
    "fixed": ("send-fixed", "recv-fixed", "check-fixed", "ring-send-fixed",
              "ring-recv-fixed"),
    "wakeup": ("recv-wakeup",),
    "app_compute": ("app-compute",),
}
_GROUP_OF = {lab: g for g, labs in LABEL_GROUPS.items() for lab in labs}

#: Header counters summed over a pass, with the metric name each feeds.
HEADER = (("total_sends", "core.sends"), ("total_receives", "core.receives"),
          ("total_bytes_sent", "core.bytes_sent"))
#: MachineReport fields summed over a pass.
REPORT = (("events", "machine.events"), ("heap_pushes", "machine.heap_pushes"),
          ("heap_pops", "machine.heap_pops"),
          ("lock_acquires", "machine.lock_acquires"),
          ("lock_contended", "machine.lock_contended"),
          ("wakes", "machine.wakes"), ("woken", "machine.woken"),
          ("copies", "machine.copies"), ("page_faults", "machine.page_faults"),
          ("lock_wait_seconds", "sim.lock_wait_s"),
          ("fault_seconds", "sim.paging_s"),
          ("cache_stall_seconds", "sim.cache_stall_s"))


class _Cell:
    __slots__ = ("v",)


def _add(a: int, b: int) -> int:
    return a + b


def calibration_loop() -> int:
    """Fixed pure-Python work (calls, slot and dict stores, ~40 us) whose
    duration tracks how fast the host runs the interpreter right now."""
    cell = _Cell()
    cell.v = 0
    d = {}
    for i in range(300):
        cell.v = _add(cell.v, i & 7)
        d[i & 31] = cell.v
    return cell.v


#: Duration of one calibration loop at the reference host speed.  Host
#: times scaled by :attr:`HostClock.speed` read as seconds on a host
#: that runs :func:`calibration_loop` in exactly this long.
REFERENCE_LOOP_S = 40e-6


class HostClock:
    """Ticks every ``interval`` seconds of process CPU (``ITIMER_PROF``).

    Every ``calibrate_every``-th tick times one warm run of
    :func:`calibration_loop`, so the host's speed is sampled all through
    the measured work.  On a host whose cores are shared, interpreter
    speed can drift by tens of percent within seconds; dividing by the
    sampled speed removes most of that drift from CPU and wall times.
    ``on_tick(frame, cpu_since_last_tick)`` is called on every tick.
    """

    def __init__(self, interval: float = 0.01, calibrate_every: int = 1,
                 on_tick=None) -> None:
        self.interval = interval
        self.calibrate_every = calibrate_every
        self.on_tick = on_tick
        self.loops: list[float] = []
        self._ticks = 0

    def __enter__(self) -> "HostClock":
        self._last_cpu = time.process_time()
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        if self.on_tick is not None:
            self.on_tick(frame, now - self._last_cpu)
        self._ticks += 1
        if self._ticks % self.calibrate_every == 0:
            calibration_loop()  # warm: time the core, not cache refills
            t0 = time.perf_counter()
            calibration_loop()
            self.loops.append(time.perf_counter() - t0)
        self._last_cpu = time.process_time()

    @property
    def speed(self) -> float:
        """Reference loop time over the mean sampled loop time (1.0 if
        the measured work was too short to be sampled).

        Loops longer than four times the median were interrupted (the
        process was descheduled mid-loop) and are left out of the mean.
        """
        if not self.loops:
            return 1.0
        cut = 4 * statistics.median(self.loops)
        kept = [t for t in self.loops if t <= cut]
        return REFERENCE_LOOP_S * len(kept) / sum(kept)

    @property
    def cost_s(self) -> float:
        """Host seconds the calibration loops themselves took."""
        return 2 * sum(self.loops)

    def scale(self, seconds: float) -> float:
        """``seconds`` of measured work, less the loops' own cost, at
        the reference host speed."""
        return (seconds - self.cost_s) * self.speed


def layer_of(module: str) -> str | None:
    """The layer of a module name, or ``None`` outside the program."""
    if not module.startswith("repro."):
        return None
    parts = module.split(".")
    if parts[1] == "core":
        name = "core." + (parts[2] if len(parts) > 2 else "")
        return name if name in LAYERS else "core.other"
    return parts[1] if parts[1] in _TOP else "other"


class Probe:
    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        # Traced passes sample frames every 1 ms of CPU and calibrate on
        # every tenth tick; untraced passes only calibrate, every 10 ms.
        self.clock = HostClock(0.001, 10, self._sample) if trace \
            else HostClock(0.01)
        self.counts: dict[str, float] = dict.fromkeys(
            ["machine.sims", "obs.causal_events", "obs.timeline_windows"]
            + [name for _, name in HEADER + REPORT], 0)
        #: Observability counts already tallied, per live recorder, so a
        #: recorder shared by several simulations is counted once.
        self._seen = weakref.WeakKeyDictionary()
        #: Spans as ``[id, parent, name, cpu0, cpu1, wall0, wall1]``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.self_cpu = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0
        self.check_receives = 0
        self.check_receive_hits = 0
        self.labels: dict | None = None
        self._layer_cache: dict[str, str | None] = {}
        self._undo: list = []

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = owner.__dict__[attr]
        setattr(owner, attr, make(orig))
        self._undo.append(lambda: setattr(owner, attr, orig))

    def __enter__(self) -> "Probe":
        from repro.machine.engine import Engine
        from repro.runtime.base import Env
        from repro.runtime.sim import SimRuntime

        probe = self

        def wrap_sim(orig):
            def run(rt, *args, **kwargs):
                with probe.span("SimRuntime.run"):
                    res = orig(rt, *args, **kwargs)
                probe._tally(res, rt.recorder)
                return res
            return run

        self._patch(SimRuntime, "run", wrap_sim)
        if self.trace:
            def wrap_engine(orig):
                def run(engine, *args, **kwargs):
                    with probe.span("Engine.run"):
                        return orig(engine, *args, **kwargs)
                return run

            def wrap_check(orig):
                def check_receive(env, *args, **kwargs):
                    n = yield from orig(env, *args, **kwargs)
                    probe.check_receives += 1
                    if n:
                        probe.check_receive_hits += 1
                    return n
                return check_receive

            self._patch(Engine, "run", wrap_engine)
            self._patch(Env, "check_receive", wrap_check)
            from repro.machine import engine as engine_mod

            self.labels = engine_mod.enable_label_profile()
            self._undo.append(engine_mod.disable_label_profile)
        self.clock.__enter__()
        self._undo.append(self.clock.__exit__)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- collection -----------------------------------------------------------

    def _tally(self, res, recorder) -> None:
        c = self.counts
        c["machine.sims"] += 1
        for field, name in HEADER:
            c[name] += res.header[field]
        for field, name in REPORT:
            c[name] += getattr(res.report, field)
        if recorder is not None:
            causal, timeline = recorder.causal, recorder.timeline
            now = (causal.total if causal is not None else 0,
                   len(timeline.windows) if timeline is not None else 0)
            before = self._seen.get(recorder, (0, 0))
            self._seen[recorder] = now
            c["obs.causal_events"] += now[0] - before[0]
            c["obs.timeline_windows"] += now[1] - before[1]

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name,
               time.process_time(), None, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.process_time()
            rec[6] = time.perf_counter()

    def _sample(self, frame, dt: float) -> None:
        cache = self._layer_cache
        layer = None
        f = frame
        while f is not None:
            mod = f.f_globals.get("__name__", "")
            layer = cache.get(mod, False)
            if layer is False:
                layer = cache[mod] = layer_of(mod)
            if layer is not None:
                break
            f = f.f_back
        self.self_cpu[layer or "other"] += dt
        self.samples += 1

    # -- results --------------------------------------------------------------

    def span_cpu(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def sim_split(self) -> dict[str, float]:
        """Charged simulated seconds by cost group (traced passes only)."""
        out = dict.fromkeys(list(LABEL_GROUPS) + ["other"], 0.0)
        for label, (_, seconds) in (self.labels or {}).items():
            out[_GROUP_OF.get(label, "other")] += seconds
        return out
