"""The ``python -m repro.check`` CLI: subcommands and exit codes."""

from __future__ import annotations

from repro.check.cli import main
from repro.obs import read_decision_trace


def test_list_names_every_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fcfs-race", "connect-churn", "freelist-churn",
                 "mixed-protocol"):
        assert name in out


def test_explore_clean_exits_zero(capsys):
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "20"]) == 0
    assert "ok: 20" in capsys.readouterr().out


def test_explore_dfs_reports_bounded_search(capsys):
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "12",
                 "--policy", "dfs"]) == 0
    out = capsys.readouterr().out
    assert "bounded at 12 schedules" in out
    assert "exhausted" not in out


def test_explore_clean_with_expect_fail_exits_one(capsys):
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "5",
                 "--expect-fail"]) == 1


def test_explore_unknown_fault_exits_two(capsys):
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "5",
                 "--fault", "drop-wake"]) == 2
    assert "does not support" in capsys.readouterr().out


def test_explore_fault_found_exits_one_without_expect_fail(capsys):
    assert main(["explore", "--scenario", "mixed-protocol", "--seeds", "20",
                 "--fault", "drop-wake"]) == 1
    assert "FAILING SCHEDULE" in capsys.readouterr().out


def test_fault_injection_pipeline(tmp_path, capsys):
    """The CI smoke pipeline: explore --expect-fail, replay, minimize."""
    trace = tmp_path / "fail.json"
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "50",
                 "--fault", "torn-send", "--expect-fail",
                 "--trace", str(trace)]) == 0
    assert trace.exists()
    assert read_decision_trace(trace)["status"] == "invariant"

    assert main(["replay", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "invariant" in out

    small = tmp_path / "small.json"
    assert main(["minimize", "--trace", str(trace),
                 "--out", str(small)]) == 0
    assert main(["replay", "--trace", str(small)]) == 0


def test_explore_minimizes_inline(tmp_path, capsys):
    trace = tmp_path / "min.json"
    assert main(["explore", "--scenario", "mixed-protocol", "--seeds", "20",
                 "--fault", "drop-wake", "--expect-fail",
                 "--trace", str(trace), "--minimize"]) == 0
    data = read_decision_trace(trace)
    assert data["status"] == "deadlock"
    assert "minimized_from" in data


def test_replay_detects_status_mismatch(tmp_path, capsys):
    trace = tmp_path / "lie.json"
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "50",
                 "--fault", "torn-send", "--expect-fail",
                 "--trace", str(trace)]) == 0
    data = read_decision_trace(trace)
    data["status"] = "deadlock"  # lie about the verdict
    from repro.obs import write_decision_trace

    write_decision_trace(data, trace)
    assert main(["replay", "--trace", str(trace)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_inspect_cli_replays_a_trace(tmp_path, capsys):
    from repro.inspect_cli import main as inspect_main

    trace = tmp_path / "fail.json"
    assert main(["explore", "--scenario", "fcfs-race", "--seeds", "50",
                 "--fault", "torn-send", "--expect-fail",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert inspect_main(["--replay", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "invariant" in out
    assert "segment:" in out  # the inspector dump of the corrupted state


def test_inspect_cli_replay_missing_file(tmp_path, capsys):
    from repro.inspect_cli import main as inspect_main

    assert inspect_main(["--replay", str(tmp_path / "nope.json")]) == 2


def test_threads_runtime_smoke(capsys):
    assert main(["explore", "--scenario", "fcfs-race",
                 "--runtime", "threads", "--repeats", "2"]) == 0
    assert "clean" in capsys.readouterr().out
