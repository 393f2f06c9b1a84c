"""The four benchmark workloads and the checks on their outputs.

Each workload is a :class:`Workload`: ``prepare(seed)`` loads the
committed reference archives and generates the workload's inputs (this
is the set-up the benchmark times), and ``units`` lists the pieces of
one pass.  A unit returns the :class:`Check` of every point it ran plus
any simulated end results the report needs.

Only the program's public entry points are driven: the ``FIGURES``
sweeps, ``bench.workloads.*_throughput``, the Gauss-Jordan solver
functions, ``serve.sweep.run_point`` and the observability
``Recorder``.

Seeds.  ``--seed 0`` reproduces the archives' inputs: serve arrivals
use seed 1987 and the Gauss-Jordan systems seed 7.  Seed ``n`` offsets
both by ``n``.  Under seed 0 every point must equal its archived value;
under any other seed those points are checked by the workload's own
invariants instead: ``completed + shed == offered`` for serve and the
solution residual for Gauss-Jordan.  The paper's synthetic sweeps
(including the random benchmark's fixed traffic seed) take no seeded
input and are always checked against the archive.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

ARRIVAL_SEED = 1987
GJ_SEED = 7

#: Paper-quoted values for the model-accuracy record (never gated).
PAPER_FIG5_16x1024 = 687_245.0   # B/s, 16 BROADCAST receivers x 1024 B
PAPER_FIG3_2048 = 22_500.0       # B/s, "about 22-23 KB/s" at 2048 B


@dataclass
class Check:
    """One checked point: ``ok`` is False with a reason when it is wrong."""

    point: str
    ok: bool
    why: str = ""


@dataclass
class UnitResult:
    checks: list[Check] = field(default_factory=list)
    #: Serve SLO rows by config label, with the benchmark's ``late_s``.
    serve: dict[str, dict] = field(default_factory=dict)
    #: Model-accuracy record, name -> (model value, paper value).
    model: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass
class Unit:
    name: str
    run: Callable[[], UnitResult]
    #: Points the unit checks; all of them fail if the unit raises.
    points: int = 1


class Reference:
    """Archived y values of ``figures_full.json``, keyed by
    ``(figure, series label, x)``."""

    def __init__(self, figures: list[dict]) -> None:
        self.y = {
            (fig["figure"], s["label"], p["x"]): p["y"]
            for fig in figures for s in fig["series"] for p in s["points"]
        }

    @classmethod
    def load(cls) -> "Reference":
        return cls(json.loads((ROOT / "figures_full.json").read_text()))

    def points(self, figure: str) -> list[tuple[str, object]]:
        """The archived ``(series label, x)`` pairs of one figure, in order."""
        return [(lab, x) for (fig, lab, x) in self.y if fig == figure]

    def check(self, figure: str, label: str, x, y: float) -> Check:
        name = f"{figure}/{label}@{x}"
        ref = self.y.get((figure, label, x))
        if ref is None:
            return Check(name, False, "no archived value")
        if y != ref:
            return Check(name, False, f"got {y!r}, archive {ref!r}")
        return Check(name, True)


def check_sweep(ref: Reference, result) -> list[Check]:
    """Check every point of a :class:`SweepResult` against the archive,
    and that the sweep covered every archived point of its figure."""
    checks = [ref.check(result.figure, s.label, p.x, p.y)
              for s in result.series for p in s.points]
    seen = {(s.label, p.x) for s in result.series for p in s.points}
    checks += [Check(f"{result.figure}/{lab}@{x}", False, "not produced")
               for lab, x in ref.points(result.figure) if (lab, x) not in seen]
    return checks


class Workload:
    """One workload of ``BENCHMARK.json`` (which records why each exists)."""

    name = ""

    def __init__(self, ref: Reference | None = None) -> None:
        self._ref = ref

    def prepare(self, seed: int) -> None:
        """Load the references and generate the inputs for ``seed``."""
        self.ref = self._ref if self._ref is not None else Reference.load()

    @property
    def units(self) -> list[Unit]:
        raise NotImplementedError


class FiguresProtocol(Workload):
    """Figs 3-6 at full sweep on the free-list transport: 108 short
    simulations, so per-simulation set-up shows beside the protocol ops."""

    name = "figures-protocol"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        from repro.bench.figures import FIGURES

        self.figures = FIGURES

    def _sweep(self, fig: str) -> UnitResult:
        result = self.figures[fig]()
        out = UnitResult(check_sweep(self.ref, result))
        if fig == "fig3":
            y = _series_y(result, "base", 2048)
            out.model["fig3_2048B"] = (y, PAPER_FIG3_2048)
        elif fig == "fig5":
            y = _series_y(result, "1024B", 16)
            out.model["fig5_16x1024B"] = (y, PAPER_FIG5_16x1024)
        return out

    @property
    def units(self) -> list[Unit]:
        return [Unit(f, lambda f=f: self._sweep(f),
                     len(self.ref.points(f"Figure {f[-1]}")))
                for f in ("fig3", "fig4", "fig5", "fig6")]


def _series_y(result, label: str, x) -> float:
    for s in result.series:
        if s.label == label:
            for p in s.points:
                if p.x == x:
                    return p.y
    return float("nan")


class FiguresApps(Workload):
    """Figs 7-8 at full sweep: Gauss-Jordan (seeded systems) and SOR."""

    name = "figures-apps"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        import numpy as np

        from repro.apps import gauss_jordan as gj
        from repro.bench.figures import FIGURES

        self.np = np
        self.gj = gj
        self.fig8 = FIGURES["fig8"]
        self.gj_seed = GJ_SEED + seed
        self.fig7_points = [(lab, p) for lab, p in self.ref.points("Figure 7")]
        sizes = sorted({int(lab.split("x")[0]) for lab, _ in self.fig7_points})
        self.systems = {n: gj.make_system(n, self.gj_seed) for n in sizes}

    def _fig7(self, label: str, p: int) -> UnitResult:
        # gj_speedup's own sequence of calls, kept apart so the solution
        # vector can be checked as well as the speedup.
        gj = self.gj
        n = int(label.split("x")[0])
        a, b = self.systems[n]
        seq = gj.gj_sequential_sim_time(n)
        par = gj.gauss_jordan_parallel(a, b, p)
        speedup = seq / par.elapsed
        name = f"Figure 7/{label}@{p}"
        resid = float(self.np.max(self.np.abs(a @ par.x - b)))
        if not resid <= 1e-9 * n * float(self.np.max(self.np.abs(b))):
            return UnitResult([Check(name, False, f"residual {resid:.3g}")])
        if self.gj_seed == GJ_SEED:
            return UnitResult([self.ref.check("Figure 7", label, p, speedup)])
        ok = speedup > 0
        return UnitResult([Check(name, ok, "" if ok else "speedup <= 0")])

    @property
    def units(self) -> list[Unit]:
        units = [Unit(f"fig7/{lab}@{p}", lambda lab=lab, p=p: self._fig7(lab, p))
                 for lab, p in self.fig7_points]
        units.append(Unit("fig8", lambda: UnitResult(
            check_sweep(self.ref, self.fig8())),
            len(self.ref.points("Figure 8"))))
        return units


#: The serve tiers at each config's knee: (label, rate in requests/s).
SERVE_KNEES = (("baseline", 300.0), ("batched", 900.0))
SERVE_WINDOW_S = 120.0


class ServeKnee(Workload):
    """The open-loop serve tiers at each config's knee, on the archive's
    120 s Poisson schedules (seeded arrivals)."""

    name = "serve-knee"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        from repro.serve.sweep import client_schedules, run_point
        from repro.serve.topology import ServeShape

        self.run_point = run_point
        self.slo = json.loads((ROOT / "serve_slo.json").read_text())
        self.arrival_seed = ARRIVAL_SEED + seed
        base = ServeShape()
        shapes = {"baseline": base, "batched": base.with_load_features(batch=8)}
        self.points = []
        for label, rate in SERVE_KNEES:
            shape = shapes[label]
            n = max(shape.batch, round(rate * SERVE_WINDOW_S))
            schedules, _ = client_schedules(rate, n, self.arrival_seed,
                                            shape.clients)
            self.points.append((label, rate, shape, n, schedules))

    def _archived_row(self, label: str, rate: float):
        cfg = self.slo["configs"][label]
        for row in cfg["points"]:
            if row["offered_rps"] == rate:
                return cfg["shape"], row
        return cfg["shape"], None

    def _point(self, label, rate, shape, n, schedules) -> UnitResult:
        point, _ = self.run_point(shape, rate, n, seed=self.arrival_seed,
                                  schedules=schedules)
        # The serve clients stamp t_admit when they reach a request, not
        # when it was due, so the admit_* latencies leave out how far the
        # client tier fell behind its schedule; late_s measures that from
        # outside: the window run past the last scheduled arrival.
        last_due = max(max(s) for s in schedules if s)
        row = dict(point, late_s=point["window_s"] - last_due)
        name = f"serve/{label}@{rate:g}"
        if point["completed"] + point["shed"] != point["offered"] \
                or point["offered"] != n:
            check = Check(name, False,
                          f"completed {point['completed']} + shed "
                          f"{point['shed']} != offered {point['offered']}")
        elif self.arrival_seed == ARRIVAL_SEED:
            shape_ref, ref = self._archived_row(label, rate)
            if ref is None:
                check = Check(name, False, "no archived row")
            elif asdict(shape) != shape_ref:
                check = Check(name, False, "shape differs from the archive")
            elif point != ref:
                diff = sorted(k for k in ref if point.get(k) != ref[k])
                check = Check(name, False, f"differs from archive in {diff}")
            else:
                check = Check(name, True)
        else:
            check = Check(name, True)
        return UnitResult([check], serve={label: row})

    @property
    def units(self) -> list[Unit]:
        return [Unit(f"serve/{p[0]}", lambda p=p: self._point(*p))
                for p in self.points]


class RingObserved(Workload):
    """The ring-transport series of Ablations F/G/H, every point under a
    causal and timeline :class:`~repro.obs.Recorder`."""

    name = "ring-observed"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        from repro.bench.workloads import (
            broadcast_throughput, fcfs_throughput, random_throughput)
        from repro.obs import Recorder

        self.recorder = lambda: Recorder(causal=True, timeline=True)
        self.plan = []
        for fig, fn in (("Ablation F", fcfs_throughput),
                        ("Ablation G", broadcast_throughput)):
            for label, n in self.ref.points(fig):
                if label.endswith(" ring"):
                    length = int(label.split("B")[0])
                    self.plan.append((fig, label, n, fn, length, 96))
        for label, p in self.ref.points("Ablation H"):
            if label.endswith(" ring"):
                self.plan.append(("Ablation H", label, p, random_throughput,
                                  1024, 40))

    def _point(self, fig, label, n, fn, length, msgs) -> UnitResult:
        m = fn(n, length, messages=msgs, transport="ring",
               recorder=self.recorder())
        return UnitResult([self.ref.check(fig, label, n, m.throughput)])

    @property
    def units(self) -> list[Unit]:
        return [Unit(f"{p[0]}/{p[1]}@{p[2]}", lambda p=p: self._point(*p))
                for p in self.plan]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FiguresProtocol, FiguresApps, ServeKnee, RingObserved)
}
