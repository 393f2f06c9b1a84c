"""Controlled scheduling: determinism, policies, and clean scenarios."""

from __future__ import annotations

import pytest

from repro.check import (
    SCENARIOS,
    BoundedPolicy,
    PrefixPolicy,
    RandomPolicy,
    Scenario,
    explore,
    explore_dfs,
    run_schedule,
    run_threads,
)
from repro.core.layout import MPFConfig
from repro.core.protocol import Protocol


def test_same_seed_same_schedule():
    sc = SCENARIOS["fcfs-race"]
    a = run_schedule(sc, RandomPolicy(42))
    b = run_schedule(sc, RandomPolicy(42))
    assert a.status == b.status == "ok"
    assert a.decisions == b.decisions
    assert a.widths == b.widths
    assert a.events == b.events


def test_different_seeds_diverge():
    # Not guaranteed for any single pair, but over ten seeds at least
    # two must differ or the "random" policy is not randomizing.
    sc = SCENARIOS["fcfs-race"]
    runs = [tuple(run_schedule(sc, RandomPolicy(s)).decisions)
            for s in range(10)]
    assert len(set(runs)) > 1


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_clean_over_seeds(name):
    result = explore(SCENARIOS[name], seeds=range(15))
    assert result.failure is None, result.failure.detail
    assert result.by_status == {"ok": 15}


def test_steady_probes_actually_ran():
    out = run_schedule(SCENARIOS["fcfs-race"], RandomPolicy(0))
    assert out.status == "ok"
    assert out.steady_checks > 0


def test_decisions_match_widths():
    out = run_schedule(SCENARIOS["connect-churn"], RandomPolicy(1))
    assert out.status == "ok"
    assert len(out.decisions) == len(out.widths)
    assert all(0 <= d < w for d, w in zip(out.decisions, out.widths))
    assert all(w > 1 for w in out.widths)  # only real choices recorded


def test_prefix_policy_is_deterministic_replay():
    sc = SCENARIOS["mixed-protocol"]
    first = run_schedule(sc, RandomPolicy(7))
    again = run_schedule(sc, PrefixPolicy(first.decisions))
    assert again.status == first.status == "ok"
    assert again.decisions == first.decisions


def test_bounded_policy_clean():
    result = explore(SCENARIOS["fcfs-race"], seeds=range(10),
                     policy="bounded", bound=2)
    assert result.failure is None
    assert result.by_status == {"ok": 10}


def test_dfs_explores_distinct_schedules():
    seen = []
    result = explore_dfs(SCENARIOS["fcfs-race"], max_runs=12,
                         on_run=lambda i, out: seen.append(tuple(out.decisions)))
    assert result.failure is None
    assert result.runs == len(seen) == 12
    assert len(set(seen)) == 12  # DFS never repeats a schedule


def _one_message_scenario() -> Scenario:
    """Two workers, one send and one receive: small enough to exhaust.

    Every event both workers could take at the same instant is a DFS
    decision, so a sender and receiver on different workers already span
    more than 10**5 schedules.  Here one worker sends to itself while
    the other does one compute step, which keeps the space near 1,400.
    """

    def echo(env):
        cid = yield from env.open_send("loop")
        rid = yield from env.open_receive("loop", Protocol.FCFS)
        yield from env.message_send(cid, b"x")
        got = yield from env.message_receive(rid)
        yield from env.close_receive(rid)
        yield from env.close_send(cid)
        return bytes(got)

    def idle(env):
        yield from env.compute(instrs=1)
        return "idle"

    return Scenario(
        name="one-message",
        doc="one send and one receive beside an idle worker",
        cfg=MPFConfig(max_lnvcs=2, max_processes=2, max_messages=4,
                      message_pool_bytes=1 << 10),
        build=lambda fault: [echo, idle],
        oracle=lambda res: [] if res["p0"] == b"x" else [f"got {res['p0']!r}"],
    )


def test_dfs_exhausts_small_space():
    result = explore_dfs(_one_message_scenario(), max_runs=5_000)
    assert result.failure is None
    assert result.exhausted
    assert 1 < result.runs < 5_000
    assert result.by_status == {"ok": result.runs}


def test_dfs_bounded_is_not_exhausted():
    result = explore_dfs(SCENARIOS["fcfs-race"], max_runs=12)
    assert result.runs == 12
    assert not result.exhausted


def test_bounded_policy_respects_bound():
    out = run_schedule(SCENARIOS["fcfs-race"], BoundedPolicy(3, bound=0))
    assert out.status == "ok"


def test_threads_cross_validation_clean():
    assert run_threads(SCENARIOS["fcfs-race"], repeats=3,
                       join_timeout=30.0) == []
