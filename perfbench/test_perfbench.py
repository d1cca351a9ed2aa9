"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run every workload at a tiny size (one round each, traced and
untraced), check that the stub's replies parse, that the output checks catch
a bad log, and that metric names are well formed and match BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

bench.load_program()

import spans  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from gridarena import actions, core, engine, gateway, harness  # noqa: E402
from gridarena.core import GameConfig  # noqa: E402
from gridarena.gateway import GatewayConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LAYER_UNITS = bench.per_layer_units(workloads.SPAN_NAMES)


def test_metric_names_are_well_formed_and_listed_in_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for units in (bench.END_TO_END, LAYER_UNITS):
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_stub_replies_parse(monkeypatch):
    for reply in stub.REPLIES:
        actions.parse_action(reply)
    monkeypatch.setenv(workloads.STUB_KEY_ENV, "test")
    with stub.StubProcess() as server:
        config = GatewayConfig(endpoint_url=server.url, model_name="stub-model",
                               api_key_env_var=workloads.STUB_KEY_ENV,
                               max_concurrency=2)
        prompts = [f"You are Agent {i} in a survival arena." for i in range(8)]
        replies = gateway.batch_complete(prompts, config)
        assert replies == [stub.reply_for(p) for p in prompts]
        for reply in replies:
            actions.parse_action(reply)
        stats = server.stats()
    assert server.proc.returncode is not None
    assert stats["requests"] == 8
    assert 1 <= stats["connections"] <= 8
    assert 1 <= stats["inflight_max"] <= 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(workload, trace, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    run = workloads.Run(workload=workload, seed=3, seconds=0.0, work=work,
                        sizes=workloads.TINY,
                        tracer=spans.Tracer() if trace else None)
    workloads.execute(run)
    assert run.failures == []
    assert run.attempted > 0
    if trace:
        metrics = bench.per_layer(run, workloads)
        assert set(metrics) == set(LAYER_UNITS)
        if workload in ("crowd", "llm"):
            assert metrics["engine.run_game.calls"][0] == 1
            assert metrics["engine.step.calls"][0] > 0
        if workload == "llm":
            assert metrics["gateway.connections_per_request"][0] > 0
            assert metrics["engine.observe.s"][0] > 0
        if workload == "verify":
            assert metrics["gamelog.replay.events"][0] > 0
    else:
        metrics = bench.end_to_end(run, workloads)
        assert set(metrics) == set(bench.END_TO_END)
        assert all(value > 0 for value, _ in metrics.values()), metrics


def test_traced_and_untraced_rounds_play_the_same_seeds(tmp_path):
    seeds = [11, 22, 33]
    run = workloads.Run(workload="crowd", seed=1, seconds=60.0, work=tmp_path,
                        tracer=spans.Tracer())
    played: dict[bool, list[int]] = {True: [], False: []}
    for index, traced in workloads.rounds(run):
        if index == 2 * len(seeds):
            break
        played[traced].append(workloads.round_seed(run, seeds, index))
    assert played[True] == played[False] == seeds
    untraced = workloads.Run(workload="crowd", seed=1, seconds=0.0, work=tmp_path)
    assert [workloads.round_seed(untraced, seeds, i) for i in range(3)] == seeds


def test_checker_flags_nondeterminism_and_corrupt_logs(tmp_path):
    run = workloads.Run(workload="crowd", seed=1, seconds=0.0, work=tmp_path)
    checker = workloads.LogChecker(run, tmp_path / "shas.json")
    config = GameConfig(**workloads.TINY.crowd, seed=5)
    log = engine.run_game(core.new_game(config),
                          harness.build_policy_map("scripted:greedy", config))
    good = tmp_path / "good.log"
    log.write(good)
    checker.check("game", good, log.sha256())
    assert run.failures == []

    other = tmp_path / "other.log"
    engine.run_game(core.new_game(GameConfig(**workloads.TINY.crowd, seed=6)),
                    harness.build_policy_map("scripted:greedy", config)).write(other)
    checker.check("game", other)
    assert len(run.failures) == 1 and "differs" in run.failures[0]

    corrupt = tmp_path / "corrupt.log"
    lines = good.read_text(encoding="utf-8").splitlines(keepends=True)
    corrupt.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    checker.check("corrupt", corrupt, log.sha256())
    assert any("replay failed" in m for m in run.failures)
    assert any("reported" in m for m in run.failures)


def test_self_time_subtracts_union_of_children():
    tracer = spans.Tracer()
    parent = ["p", 0, 100, None]
    tracer.spans = [parent, ["c", 10, 50, parent], ["c", 30, 70, parent]]
    assert tracer.self_seconds() == {"p": 40e-9, "c": 80e-9}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
