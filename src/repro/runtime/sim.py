"""The simulated-machine runtime: MPF on a modelled Balance 21000.

This is the primary experimental substrate of the reproduction (see
DESIGN.md §2): programs run as coroutines on the deterministic
discrete-event engine, MPF effects are priced by the calibrated
:class:`~repro.machine.cpu.BalanceTiming`, and ``RunResult.elapsed`` is
*simulated* seconds — directly comparable to the paper's measured times.
"""

from __future__ import annotations

from typing import Sequence

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import HDR, MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from ..machine.balance import BALANCE_21000, MachineConfig
from ..machine.cpu import BalanceTiming
from ..machine.engine import Engine
from ..machine.stats import collect_report
from .base import Env, RunResult, Runtime, Worker, snapshot_header

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """Run MPF programs on the simulated Sequent Balance 21000."""

    kind = "sim"

    def __init__(
        self,
        machine: MachineConfig = BALANCE_21000,
        trace=None,
        until: float | None = None,
        recorder=None,
    ) -> None:
        self.machine = machine
        self._trace = trace
        self._until = until
        #: Optional :class:`repro.obs.Recorder` fed simulated-time
        #: metrics (lock wait/hold, per-label charges) during runs.
        self.recorder = recorder
        #: Populated after each :meth:`run` for post-mortem inspection.
        self.last_engine: Engine | None = None
        self.last_view: MPFView | None = None

    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
    ) -> RunResult:
        nprocs = len(workers)
        cfg = self.default_config(nprocs, cfg)
        names = self.process_names(nprocs, names)

        region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
        layout = format_region(region, cfg)
        view = MPFView(region, layout, costs)

        timing = BalanceTiming(self.machine, costs)
        timing.vm.set_demand_source(lambda: HDR.get(region, "live_bytes"))
        stride = layout.blk_stride
        timing.cache.set_demand_source(
            lambda: HDR.get(region, "live_blocks") * stride
        )
        if self.recorder is not None:
            self.recorder.clock = "sim"
        engine = Engine(
            n_locks=cfg.n_locks,
            n_channels=cfg.n_channels,
            timing=timing,
            n_cpus=self.machine.n_cpus,
            trace=self._trace,
            recorder=self.recorder,
        )
        clock = lambda: engine.now  # noqa: E731 - tiny closure
        causal = getattr(self.recorder, "causal", None)
        if causal is not None:
            # Causal hooks are inline calls in the ops generators (no
            # effects), so attaching the tracer reads the simulated clock
            # without ever perturbing the simulated schedule.
            causal.clock = clock
            view.causal = causal
        timeline = getattr(self.recorder, "timeline", None)
        if timeline is not None:
            # Same contract as the causal tracer: plain inline calls, a
            # read-only clock, zero new effects — timeline-enabled runs
            # retire the byte-identical schedule (pinned by tests).
            timeline.clock = clock
            timeline.clock_kind = "sim"
            view.timeline = timeline
        for rank, (name, worker) in enumerate(zip(names, workers)):
            env = Env(view, rank, nprocs, clock)
            engine.spawn(name, worker(env))
        elapsed = engine.run(until=self._until)
        self.last_engine = engine
        self.last_view = view
        report = collect_report(engine, timing)
        if self.recorder is not None:
            # Surface the engine's heap-crossing economics (PR 9) on the
            # recorder so the Prometheus exposition and bench trace can
            # report them without holding the engine itself.
            m = self.recorder.machine
            for k in ("events", "heap_pushes", "heap_pops"):
                m[k] = m.get(k, 0) + getattr(report, k)
        return RunResult(
            results=engine.results(),
            elapsed=elapsed,
            kind=self.kind,
            header=snapshot_header(view),
            report=report,
        )
