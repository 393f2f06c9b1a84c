"""Benchmark of the MPF reproduction: host speed and simulated results.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures-protocol --seed 0 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # every metric, every workload

A run sets up (imports the program, loads the reference archives and
generates the workload's inputs), then measures whole passes over the
workload until ``--seconds`` have gone by, always at least one.  Every
pass starts cold (``reset_run_cache``) and every point it runs is
checked (see ``workloads.py``).  All load comes from this one serial
process.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
per-pass medians of host wall and CPU seconds and of simulated MPF
messages (summed header ``total_sends``) per host CPU second, the peak
resident memory after the first pass, and the set-up time (imports,
reference archives and input generation), the median of seven set-ups
in fresh interpreters.

Host times are reported at a reference host speed.  On a host whose
cores are shared, how fast it runs the interpreter can drift by tens of
percent within seconds, which no number of repeats in one run averages
out.  So every pass times a short fixed pure-Python loop about
every 10 ms of its CPU (``probe.HostClock``) and its seconds are scaled
by reference-loop-time / measured-loop-time.  The raw host seconds and
the sampled speed are printed beside the scaled ones.

``--trace 1`` reports the per-layer metrics.  It runs one untraced pass
for the counters and the CPU base, then one traced pass (spans, label
profile, sampled self time by layer; see ``probe.py``) whose counters
must equal the untraced ones; ``trace.overhead`` is the traced pass's
CPU over the untraced pass's.  The untraced pass runs first in the
process and so also carries its warm-up.  Simulated-time metrics
(``sim.*``, the serve SLO rows) are deterministic for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import LABEL_GROUPS, LAYERS, HostClock, Probe  # noqa: E402
from workloads import WORKLOADS, Check, UnitResult  # noqa: E402

SETUP_REPEATS = 7
#: Serve SLO fields reported per config, with the row key each reads.
SERVE_FIELDS = (("goodput_rps", "goodput_rps"), ("admit_p50_ms", "p50_ms"),
                ("admit_p999_ms", "p999_ms"), ("late_s", "late_s"))
SERVE_COUNTS = ("offered", "completed", "shed", "backpressure_events")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- passes ---------------------------------------------------------------------


class Pass:
    """One measured pass: host times, probe counters and point checks."""

    def __init__(self, workload, trace: bool) -> None:
        from repro.bench.figures import reset_run_cache

        reset_run_cache()
        gc.collect()
        self.probe = Probe(trace=trace)
        self.checks: list[Check] = []
        self.serve: dict[str, dict] = {}
        self.model: dict[str, tuple[float, float]] = {}
        w0, c0 = time.perf_counter(), time.process_time()
        with self.probe:
            for unit in workload.units:
                with self.probe.span(unit.name):
                    result = _run_unit(unit)
                self.checks += result.checks
                self.serve.update(result.serve)
                self.model.update(result.model)
        self.cpu = time.process_time() - c0
        self.wall = time.perf_counter() - w0
        self.counts = self.probe.counts
        clock = self.probe.clock
        self.speed = clock.speed
        #: Host times at the reference speed (see probe.HostClock).
        self.ref_cpu = clock.scale(self.cpu)
        self.ref_wall = clock.scale(self.wall)
        #: High-water resident memory after this pass.
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def identity(self) -> tuple:
        """Deterministic work done: a repeated pass must match exactly."""
        c = self.counts
        return c["machine.sims"], c["core.sends"], c["machine.events"]

    def fail_all(self, why: str) -> None:
        self.checks = [Check(c.point, False, why) for c in self.checks]


def _run_unit(unit) -> UnitResult:
    try:
        return unit.run()
    except Exception:  # a failing point is reported, the run goes on
        traceback.print_exc()
        return UnitResult([Check(f"{unit.name}#{i}", False, "raised")
                           for i in range(unit.points)])


def measure(workload, seconds: float) -> list[Pass]:
    """Untraced passes until ``seconds`` are used; at least one."""
    t0 = time.perf_counter()
    passes = [Pass(workload, trace=False)]
    while time.perf_counter() - t0 + passes[-1].wall <= seconds:
        passes.append(Pass(workload, trace=False))
    for p in passes[1:]:
        if p.identity() != passes[0].identity():
            p.fail_all(f"pass did different work: {p.identity()} != "
                       f"{passes[0].identity()}")
    return passes


def tally(passes: list[Pass]) -> tuple[int, int]:
    """Points attempted and points failed over ``passes``."""
    return (sum(len(p.checks) for p in passes),
            sum(not c.ok for p in passes for c in p.checks))


def time_setup(workload: str, seed: int) -> float:
    """Median of :data:`SETUP_REPEATS` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# -- metrics --------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.ref_wall for p in passes),
        "cpu_s": statistics.median(p.ref_cpu for p in passes),
        "msgs_per_cpu_s": statistics.median(
            p.counts["core.sends"] / p.ref_cpu for p in passes),
        "setup_s": setup_s,
        # After the first pass: later passes only re-use freed memory,
        # and how many there are depends on the host's speed.
        "peak_rss_mb": passes[0].rss_mb,
    }


def per_layer(base: Pass, traced: Pass) -> dict[str, float]:
    probe = traced.probe
    speed = traced.speed
    out: dict[str, float] = dict(base.counts)
    for layer in LAYERS:
        out[f"{layer}.self_cpu_s"] = probe.self_cpu[layer] * speed
    engine = probe.span_cpu("Engine.run")
    out["machine.engine_run.cpu_s"] = engine * speed
    out["runtime.setup.cpu_s"] = \
        (probe.span_cpu("SimRuntime.run") - engine) * speed
    out["core.check_receives"] = probe.check_receives
    out["core.check_receive_hits"] = probe.check_receive_hits
    for group, seconds in probe.sim_split().items():
        out[f"sim.{group}_s"] = seconds
    for key in SERVE_COUNTS:
        out[f"serve.{key}"] = sum(row[key] for row in base.serve.values())
    for label in ("baseline", "batched"):
        row = base.serve.get(label, {})
        for name, key in SERVE_FIELDS:
            out[f"{label}.{name}"] = row.get(key, 0.0)
    out["trace.overhead"] = traced.ref_cpu / base.ref_cpu
    out["host.speed"] = base.speed
    return out


def report(name: str, spec: dict, values: dict, section: str) -> dict:
    """Print the metrics of ``section`` by name with unit; return them
    in the result-line form."""
    print(f"{name}: {section} metrics")
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']!r} was not measured")
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    return metrics


def print_points(passes: list[Pass]) -> None:
    for i, p in enumerate(passes):
        bad = [c for c in p.checks if not c.ok]
        print(f"pass {i}: {p.wall:.3f} s wall, {p.cpu:.3f} s cpu, host speed "
              f"{p.speed:.3f} ({p.ref_cpu:.3f} s cpu at reference speed), "
              f"{len(p.checks)} points, {len(bad)} failed, "
              f"{p.counts['machine.sims']} sims, "
              f"{p.counts['core.sends']} sends")
        for c in bad[:10]:
            print(f"  FAILED {c.point}: {c.why}")
    first = passes[0]
    for label, row in first.serve.items():
        print(f"  serve {label}@{row['offered_rps']:g}: goodput "
              f"{row['goodput_rps']:.2f} rps, admit p50 {row['p50_ms']:.1f} ms, "
              f"p999 {row['p999_ms']:.1f} ms ({row['completed'] // 1000} "
              f"beyond it), late {row['late_s']:.2f} s, shed {row['shed']}")
    for key, (model, paper) in first.model.items():
        print(f"  model accuracy {key}: {model:,.0f} B/s vs paper "
              f"{paper:,.0f} B/s ({100 * (model / paper - 1):+.1f}%)")


def write_spans(name: str, seed: int, probe: Probe) -> Path:
    out = HERE / ".out" / f"{name}-seed{seed}-spans.json"
    out.parent.mkdir(exist_ok=True)
    keys = ("id", "parent", "name", "cpu0", "cpu1", "wall0", "wall1")
    out.write_text(json.dumps({
        "spans": [dict(zip(keys, s)) for s in probe.spans],
        "self_cpu_s": probe.self_cpu,
        "samples": probe.samples,
        "labels": probe.labels,
        "label_groups": LABEL_GROUPS,
    }, indent=1))
    return out


# -- entry points -----------------------------------------------------------------


def run(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    setup_s = time_setup(args.workload, args.seed) if not args.trace else None
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed)

    if args.trace:
        base = Pass(workload, trace=False)
        traced = Pass(workload, trace=True)
        passes = [base, traced]
        if traced.identity() != base.identity():
            traced.fail_all(f"traced pass did different work: "
                            f"{traced.identity()} != {base.identity()}")
        print_points(passes)
        print(f"spans: {write_spans(args.workload, args.seed, traced.probe)}")
        values = per_layer(base, traced)
    else:
        passes = measure(workload, args.seconds)
        print_points(passes)
        values = end_to_end(passes, setup_s)

    attempted, failed = tally(passes)
    values["failed_frac"] = failed / attempted if attempted else 1.0
    metrics = report(args.workload, spec,
                     values, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", w["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(out.stderr)
            ok = out.returncode == 0 and lines \
                and json.loads(lines[-1])["correct"]
            print(f"== {w['name']} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'}\n")
            status |= not ok
    return status


def setup_probe(args) -> int:
    clock = HostClock(interval=0.002)  # set-up is short: sample densely
    t0 = time.perf_counter()
    with clock:
        WORKLOADS[args.workload]().prepare(args.seed)
    wall = time.perf_counter() - t0
    print(json.dumps({"setup_s": clock.scale(wall), "wall_s": wall}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the archives' inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
