"""Checks of the benchmark's own correctness gate and tracing.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

from run import Pass, tally
from workloads import FiguresProtocol, Reference, RingObserved


class Fig3Only(FiguresProtocol):
    """The protocol workload cut to Figure 3 (nine short simulations)."""

    @property
    def units(self):
        return super().units[:1]


class OneRingPoint(RingObserved):
    @property
    def units(self):
        return super().units[:1]


def _perturbed(figure: str, label: str) -> Reference:
    ref = Reference.load()
    key = next(k for k in ref.y if k[0] == figure and k[1] == label)
    ref.y[key] *= 1.000001
    return ref


@pytest.mark.parametrize("make,figure,label", [
    (Fig3Only, "Figure 3", "base"),
    (OneRingPoint, "Ablation F", "16B ring"),
])
def test_one_perturbed_reference_value_fails_its_point(make, figure, label):
    clean = make()
    clean.prepare(seed=0)
    attempted, failed = tally([Pass(clean, trace=False)])
    assert attempted > 0 and failed == 0

    bad = make(ref=_perturbed(figure, label))
    bad.prepare(seed=0)
    attempted, failed = tally([Pass(bad, trace=False)])
    assert failed == 1
    assert failed / attempted > 0


def test_traced_pass_does_the_same_work_and_attributes_its_cpu():
    wl = Fig3Only()
    wl.prepare(seed=0)
    base = Pass(wl, trace=False)
    traced = Pass(wl, trace=True)
    assert traced.identity() == base.identity()
    assert traced.counts == base.counts
    probe = traced.probe
    assert probe.samples > 0
    assert probe.self_cpu["machine"] > 0
    assert sum(probe.self_cpu.values()) <= traced.cpu * 1.05
    assert 0 < probe.span_cpu("Engine.run") <= probe.span_cpu("SimRuntime.run")
    assert probe.sim_split()["copy"] > 0


def test_probe_restores_what_it_patches():
    from repro.machine.engine import Engine
    from repro.runtime.base import Env
    from repro.runtime.sim import SimRuntime

    before = (SimRuntime.run, Engine.run, Env.check_receive)
    wl = Fig3Only()
    wl.prepare(seed=0)
    Pass(wl, trace=True)
    assert (SimRuntime.run, Engine.run, Env.check_receive) == before
