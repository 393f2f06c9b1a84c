"""Schedule policies and the controlled-run driver.

The simulated engine resolves ties in simulated time FIFO by sequence
number; under :class:`~repro.machine.engine.ZeroTimingModel` *every*
pending event is a tie, so the set of schedules a policy can induce is
exactly the set of interleavings of the program's effect boundaries.
:func:`run_schedule` executes one scenario under one policy and
classifies the outcome; :func:`explore` and :func:`explore_dfs` drive
many runs (seeded random walks, preemption-bounded walks, exhaustive
DFS) hunting for a failing schedule.

Every run records its **decision trace** — the chosen candidate index at
each >1-candidate scheduling point, plus the candidate-set width — which
makes any outcome replayable and minimizable (:mod:`repro.check.replay`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core.costmodel import DEFAULT_COSTS
from ..core.errors import DeadlockSuspectedError, MPFError
from ..core.layout import SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from ..machine.engine import DeadlockError, Engine, SimulationError, ZeroTimingModel
from ..runtime.base import Env
from .deadlock import StallReport, analyze_stall
from .invariants import (
    InvariantViolation,
    SteadyProbe,
    collect_violations,
)
from .scenarios import Scenario

__all__ = [
    "Outcome",
    "RandomPolicy",
    "BoundedPolicy",
    "PrefixPolicy",
    "ControlledPolicy",
    "run_schedule",
    "explore",
    "explore_dfs",
    "run_threads",
]


class RandomPolicy:
    """Uniform seeded random walk over the interleaving space."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, now: float, procs: Sequence) -> int:
        return self._rng.randrange(len(procs))


class BoundedPolicy:
    """Preemption-bounded random walk.

    Switching away from the last-run process *while it is still
    runnable* is a preemption; classic results show most concurrency
    bugs need only a few.  This policy spends at most ``bound``
    preemptions, then degrades to run-to-completion order — focusing the
    walk on the low-preemption schedules where bugs live.
    """

    def __init__(self, seed: int, bound: int = 2) -> None:
        self.seed = seed
        self.bound = bound
        self._rng = random.Random(seed)
        self._last: int | None = None
        self._left = bound

    def choose(self, now: float, procs: Sequence) -> int:
        pids = [p.pid for p in procs]
        if self._last in pids:
            stay = pids.index(self._last)
            if self._left > 0 and self._rng.random() < 0.5:
                idx = self._rng.randrange(len(procs))
                if idx != stay:
                    self._left -= 1
            else:
                idx = stay
        else:
            idx = self._rng.randrange(len(procs))
        self._last = procs[idx].pid
        return idx


class PrefixPolicy:
    """Follow a fixed decision prefix, then default to FIFO (index 0).

    The workhorse of both replay (prefix = a recorded trace) and DFS
    (prefix = the next branch to force).  Out-of-range decisions clamp
    to the last candidate, keeping stale traces harmless.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = list(prefix)
        self._i = 0

    def choose(self, now: float, procs: Sequence) -> int:
        i = self._i
        self._i += 1
        if i < len(self.prefix):
            return min(self.prefix[i], len(procs) - 1)
        return 0


class ControlledPolicy:
    """Record an inner policy's decisions; optionally probe invariants.

    This is what actually gets installed as ``Engine(scheduler=...)``:
    it forwards ``choose`` to ``inner``, clamps the answer, appends
    ``(decision, width)`` to the trace, and — when a probe is given —
    evaluates it first, so invariant violations surface at the decision
    point that exposed them.
    """

    def __init__(self, inner, probe: Callable | None = None) -> None:
        self.inner = inner
        self.probe = probe
        self.decisions: list[int] = []
        self.widths: list[int] = []
        self.engine = None

    def attach(self, engine) -> None:
        self.engine = engine
        attach = getattr(self.inner, "attach", None)
        if attach is not None:
            attach(engine)

    def choose(self, now: float, procs: Sequence) -> int:
        if self.probe is not None:
            self.probe(self.engine)
        idx = self.inner.choose(now, procs)
        if not 0 <= idx < len(procs):
            idx = 0
        self.decisions.append(idx)
        self.widths.append(len(procs))
        return idx


@dataclass
class Outcome:
    """Everything one controlled run produced."""

    #: ``"ok"`` | ``"invariant"`` | ``"deadlock"`` | ``"crash"`` | ``"livelock"``
    status: str
    detail: str
    #: Decision trace: chosen candidate index per >1-candidate point.
    decisions: list[int]
    #: Candidate-set width at each decision (for DFS/minimization).
    widths: list[int]
    events: int
    results: dict | None = None
    report: StallReport | None = None
    view: MPFView | None = None
    #: Steady-tier invariant evaluations performed during the run.
    steady_checks: int = 0
    #: Causal tracer (``run_schedule(causal=True)``): the per-message
    #: lifecycle record of this run, for printing next to the decision
    #: trace when a schedule fails.
    causal: object | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def run_schedule(
    scenario: Scenario,
    policy,
    fault: str | None = None,
    max_events: int = 50_000,
    check_steady: bool = True,
    causal: bool = False,
) -> Outcome:
    """Run ``scenario`` once under ``policy``; classify what happened.

    Deterministic: the same scenario, fault, and policy decisions always
    produce the same outcome (the engine itself is deterministic; the
    policy is the only source of variation).  ``causal=True`` attaches a
    :class:`repro.obs.CausalTracer` to the run's view — under
    ``ZeroTimingModel`` the timestamps are all zero but the *event
    order* is meaningful, so a failing schedule's message history reads
    next to its decision trace.
    """
    cfg = scenario.cfg
    workers = scenario.build(fault)
    region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
    layout = format_region(region, cfg)
    view = MPFView(region, layout, DEFAULT_COSTS)
    probe = SteadyProbe(view) if check_steady else None
    ctl = ControlledPolicy(policy, probe=probe)
    engine = Engine(
        n_locks=cfg.n_locks,
        n_channels=cfg.n_channels,
        timing=ZeroTimingModel(),
        max_events=max_events,
        scheduler=ctl,
    )
    clock = lambda: engine.now  # noqa: E731
    tracer = None
    if causal:
        from ..obs import CausalTracer

        tracer = CausalTracer(clock=clock)
        view.causal = tracer
    nprocs = len(workers)
    for rank, worker in enumerate(workers):
        engine.spawn(f"p{rank}", worker(Env(view, rank, nprocs, clock)))

    def out(status: str, detail: str, results=None, report=None) -> Outcome:
        return Outcome(
            status=status, detail=detail,
            decisions=list(ctl.decisions), widths=list(ctl.widths),
            events=engine.stats.events, results=results, report=report,
            view=view, steady_checks=probe.checks if probe else 0,
            causal=tracer,
        )

    try:
        engine.run()
    except InvariantViolation as exc:
        return out("invariant", str(exc))
    except DeadlockError as exc:
        report = analyze_stall(engine, view)
        if report.all_wait_chan:
            # Channel sleepers park between operations, so the segment is
            # quiescent: the stall may *be* the symptom of a structural
            # corruption (e.g. a torn link hiding a message).  Check.
            violations = collect_violations(view, level="final")
            if violations:
                return out(
                    "invariant",
                    "stalled with corrupted segment:\n  "
                    + "\n  ".join(violations) + "\n" + report.render(),
                    report=report,
                )
        return out("deadlock", f"{exc}\n{report.render()}", report=report)
    except SimulationError as exc:
        if "exceeded" in str(exc):
            return out("livelock", str(exc))
        return out("crash", f"{type(exc).__name__}: {exc}")
    except MPFError as exc:
        return out("crash", f"{type(exc).__name__}: {exc}")
    except (RuntimeError, AssertionError) as exc:
        return out("crash", f"{type(exc).__name__}: {exc}")

    results = engine.results()
    violations = collect_violations(
        view, level="final", expect_empty=scenario.expect_empty
    )
    violations += scenario.oracle(results)
    if violations:
        return out("invariant", "\n".join(violations), results=results)
    return out("ok", f"clean ({engine.stats.events} events)", results=results)


@dataclass
class ExploreResult:
    """Summary of a multi-run exploration."""

    runs: int
    by_status: dict = field(default_factory=dict)
    #: First failing outcome, with the policy parameters that found it.
    failure: Outcome | None = None
    failure_seed: int | None = None
    #: True when a DFS enumerated every schedule of the scenario, i.e.
    #: the space was exhausted rather than cut off at ``max_runs``.
    exhausted: bool = False

    @property
    def found(self) -> bool:
        return self.failure is not None


def explore(
    scenario: Scenario,
    seeds: Iterable[int],
    fault: str | None = None,
    policy: str = "random",
    bound: int = 2,
    max_events: int = 50_000,
    check_steady: bool = True,
    stop_on_failure: bool = True,
    on_run: Callable[[int, Outcome], None] | None = None,
) -> ExploreResult:
    """Random (or preemption-bounded) walk over many seeds."""
    res = ExploreResult(runs=0)
    for seed in seeds:
        if policy == "bounded":
            pol = BoundedPolicy(seed, bound=bound)
        else:
            pol = RandomPolicy(seed)
        outcome = run_schedule(scenario, pol, fault=fault,
                               max_events=max_events,
                               check_steady=check_steady)
        res.runs += 1
        res.by_status[outcome.status] = res.by_status.get(outcome.status, 0) + 1
        if on_run is not None:
            on_run(seed, outcome)
        if outcome.failed and res.failure is None:
            res.failure = outcome
            res.failure_seed = seed
            if stop_on_failure:
                break
    return res


def explore_dfs(
    scenario: Scenario,
    fault: str | None = None,
    max_runs: int = 2_000,
    max_events: int = 50_000,
    check_steady: bool = True,
    stop_on_failure: bool = True,
    on_run: Callable[[int, Outcome], None] | None = None,
) -> ExploreResult:
    """Exhaustive depth-first enumeration of schedules (small spaces).

    Each completed run's trace yields the next branch: advance the
    deepest decision that still has an unexplored sibling, truncate, and
    re-run.  Exhausts the entire interleaving space of scenarios whose
    traces are short enough; ``max_runs`` bounds the rest.
    """
    res = ExploreResult(runs=0)
    prefix: list[int] = []
    while res.runs < max_runs:
        outcome = run_schedule(scenario, PrefixPolicy(prefix), fault=fault,
                               max_events=max_events,
                               check_steady=check_steady)
        res.runs += 1
        if on_run is not None:
            on_run(res.runs - 1, outcome)
        res.by_status[outcome.status] = res.by_status.get(outcome.status, 0) + 1
        if outcome.failed and res.failure is None:
            res.failure = outcome
            if stop_on_failure:
                return res
        d, w = outcome.decisions, outcome.widths
        i = len(d) - 1
        while i >= 0 and d[i] + 1 >= w[i]:
            i -= 1
        if i < 0:
            res.exhausted = True
            break
        prefix = d[:i] + [d[i] + 1]
    return res


def run_threads(
    scenario: Scenario,
    fault: str | None = None,
    repeats: int = 20,
    join_timeout: float = 10.0,
) -> list[str]:
    """Cross-validate the scenario on the real thread runtime.

    The thread scheduler explores interleavings the controlled engine
    may never pick (real preemption is not aligned to effect
    boundaries), so a clean sim exploration is re-validated here: run
    the same workers ``repeats`` times on
    :class:`~repro.runtime.threads.ThreadRuntime` and apply the same
    final invariants and delivery oracle.  Returns violation strings.
    """
    from ..runtime.threads import ThreadRuntime

    out: list[str] = []
    for rep in range(repeats):
        rt = ThreadRuntime(join_timeout=join_timeout)
        try:
            result = rt.run(scenario.build(fault), cfg=scenario.cfg)
        except DeadlockSuspectedError as exc:
            out.append(f"run {rep}: suspected deadlock: {exc}")
            break
        except MPFError as exc:
            out.append(f"run {rep}: {type(exc).__name__}: {exc}")
            break
        violations = collect_violations(
            rt.last_view, level="final", expect_empty=scenario.expect_empty
        )
        violations += scenario.oracle(result.results)
        if violations:
            out.append(f"run {rep}: " + "; ".join(violations))
            break
    return out
