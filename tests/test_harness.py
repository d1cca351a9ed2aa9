"""Presets, policy assignment parsing, run artifacts, sweeps, reports, CLI."""

import csv
import json

import pytest

from gridarena.cli import main
from gridarena.core import ConfigError, GameConfig, VARIANT_SEXUAL_SELECTION
from gridarena.harness import (
    PRESETS,
    analyze,
    build_policy_map,
    experiment_id_for,
    resolve_config,
    resolve_preset,
    run_experiment,
    summary_row,
    sweep,
)
from gridarena.metrics import summarize
from gridarena.policy import LLMPolicy

from conftest import gateway_config, small_config


SMALL = {"grid_width": "5", "grid_height": "5", "n_agents": "4",
         "max_turns": "4", "n_food_nodes": "2", "n_token_nodes": "1"}


def run_small(**kwargs):
    return run_experiment("P1", SMALL, ack_overrides=True, **kwargs)


# --------------------------------------------------------------------------
# Presets and config resolution


def test_presets_cover_both_variants():
    assert set(PRESETS) == {"P1", "P2", "P2b", "V7"}
    assert PRESETS["P1"].config.seed == 42
    assert PRESETS["P2"].config.seed == 7
    assert PRESETS["P2"].sweep[0] == "upkeep"
    assert PRESETS["P2b"].sweep == ("upkeep", (2, 4, 5, 6, 7))
    v7 = PRESETS["V7"].config
    assert v7.engine_variant == VARIANT_SEXUAL_SELECTION
    assert (v7.grid_width, v7.grid_height, v7.max_turns) == (7, 7, 40)
    for preset in PRESETS.values():
        preset.config.validate()


def test_resolve_preset_forms():
    assert resolve_preset("P1") is PRESETS["P1"]
    assert resolve_preset(PRESETS["V7"]) is PRESETS["V7"]
    custom = resolve_preset(small_config())
    assert custom.config == small_config()
    with pytest.raises(ConfigError):
        resolve_preset("P9")


def test_resolve_config_overrides_and_seed():
    config = resolve_config(PRESETS["P1"], {"upkeep": "5"}, seed=9)
    assert config.upkeep == 5 and config.seed == 9
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"upkeep": "lots"}, None)
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"turbo": "1"}, None)
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"upkeep": "-3"}, None)


def test_overrides_require_acknowledgement():
    with pytest.raises(ConfigError):
        run_experiment("P1", {"upkeep": 5})
    # dedicated seed/policies knobs need no acknowledgement
    record = run_experiment(small_config(max_turns=2), seed=3,
                            policies="scripted:rest")
    assert record.config.seed == 3


def test_experiment_id_is_content_derived():
    config = small_config()
    assert experiment_id_for(config) == experiment_id_for(GameConfig(
        **{name: getattr(config, name) for name in GameConfig.FIELDS}))
    assert experiment_id_for(config) != experiment_id_for(
        small_config(seed=config.seed + 1))


# --------------------------------------------------------------------------
# Policy assignment strings


def test_assignment_scripted_and_mixed():
    config = small_config(n_agents=4)
    build_policy_map("scripted:greedy", config)
    build_policy_map("mixed:0-1=aggressor,2=walker,*=rest", config)
    byrole_config = small_config(n_agents=4,
                                 engine_variant=VARIANT_SEXUAL_SELECTION)
    build_policy_map("byrole:provider=suitor,chooser=picky", byrole_config)


@pytest.mark.parametrize("assignment", [
    "", "scripted:", "scripted:clever", "mixed:", "mixed:abc=greedy",
    "mixed:0-x=greedy", "mixed:0=nonsense", "byrole:provider=suitor",
    "byrole:dealer=suitor,chooser=picky", "llm", "mixed:0=llm,*=rest",
    "scripted:llm", "what", "byrole:provider=suitor,chooser=picky",
])
def test_assignment_rejects_malformed_or_unsupported(assignment):
    # everything here is invalid for a survival config with no gateway
    with pytest.raises(ConfigError):
        build_policy_map(assignment, small_config())


def test_assignment_llm_shares_one_policy(stub_gateway):
    config = small_config(n_agents=4)
    policy_map = build_policy_map("llm", config, gateway_config(stub_gateway))

    class Stand:
        def __init__(self, agent_id):
            self.id = agent_id
            self.role = "none"

    policies = {policy_map.policy_for(Stand(i)) for i in range(4)}
    assert len(policies) == 1
    assert isinstance(policies.pop(), LLMPolicy)


def test_assignment_mixed_first_match_wins(stub_gateway):
    config = small_config(n_agents=4)
    policy_map = build_policy_map("mixed:0-2=rest,1=walker,*=greedy", config)

    class Stand:
        def __init__(self, agent_id):
            self.id = agent_id
            self.role = "none"

    from gridarena.policy import GreedyGatherer, RestOnly

    assert isinstance(policy_map.policy_for(Stand(1)), RestOnly)
    assert isinstance(policy_map.policy_for(Stand(3)), GreedyGatherer)


# --------------------------------------------------------------------------
# run_experiment artifacts


def test_run_experiment_writes_artifact_bundle(tmp_path):
    record = run_small(out_dir=tmp_path)
    assert record.out_dir is not None and record.out_dir.parent == tmp_path
    names = {path.name for path in record.out_dir.iterdir()}
    assert names == {"game.log", "config.txt", "record.json",
                     "summary.csv", "summary.md"}
    config = GameConfig.read(record.out_dir / "config.txt")
    assert config == record.config
    stored = json.loads((record.out_dir / "record.json").read_text())
    assert stored["experiment_id"] == record.experiment_id
    assert stored["log_sha256"] == record.log_sha256
    assert stored["summary"]["survivors"] == record.summary.survivors
    from gridarena.gamelog import GameLog, replay

    log = GameLog.read(record.out_dir / "game.log")
    assert log.sha256() == record.log_sha256
    replay(log)


def test_run_experiment_echoes_resolved_config():
    lines = []
    run_small(echo=lines.append)
    text = "\n".join(lines)
    assert "resolved configuration:" in text
    for name in GameConfig.FIELDS:
        assert f"{name}=" in text
    assert "policies: scripted:greedy" in text


def test_run_experiment_reruns_are_identical(tmp_path):
    first = run_small(out_dir=tmp_path / "a")
    second = run_small(out_dir=tmp_path / "b")
    assert first.experiment_id == second.experiment_id
    assert first.log_sha256 == second.log_sha256
    assert (first.out_dir / "summary.csv").read_text() == \
           (second.out_dir / "summary.csv").read_text()


# --------------------------------------------------------------------------
# sweep


def test_sweep_uses_preset_defaults_and_continues_on_failure(tmp_path):
    with pytest.warns(UserWarning, match="upkeep=-2"):
        records = sweep(resolve_preset("P1"), "upkeep", [1, -2, 3],
                        policies="scripted:rest", out_dir=tmp_path)
    assert [r.config.upkeep for r in records] == [1, 3]
    failures = (tmp_path / "failures.md").read_text()
    assert "upkeep=-2" in failures
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "curve.csv").exists()


def test_sweep_empty_values_warns_and_runs_nothing(tmp_path):
    with pytest.warns(UserWarning):
        records = sweep("P2b", "upkeep", [], out_dir=tmp_path)
    assert records == []


def test_sweep_parallel_matches_serial():
    serial = sweep(small_config(max_turns=3), "upkeep", [0, 1, 2],
                   policies="scripted:walker")
    parallel = sweep(small_config(max_turns=3), "upkeep", [0, 1, 2],
                     policies="scripted:walker", parallel=3)
    assert [r.log_sha256 for r in serial] == [r.log_sha256 for r in parallel]


def test_sweep_requires_axis_for_presets_without_one():
    with pytest.raises(ConfigError):
        sweep("P1")
    with pytest.raises(ConfigError):
        sweep("P1", "gravity", [1])
    with pytest.raises(ConfigError):
        sweep("P1", "upkeep", None)


# --------------------------------------------------------------------------
# analyze


def sweep_logs(tmp_path, values=(1, 3)):
    records = sweep(small_config(max_turns=4, n_agents=4), "upkeep",
                    list(values), policies="scripted:greedy",
                    out_dir=tmp_path / "runs")
    return [record.log_path for record in records]


def test_analyze_report_bundle(tmp_path):
    logs = sweep_logs(tmp_path)
    report = analyze(logs, tmp_path / "report")

    with open(report.summary_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["upkeep"] for row in rows] == ["1", "3"]
    for row in rows:
        assert set(row) == {"upkeep", "experiment", "trades", "attacks",
                            "survivors", "duration", "social_pct", "entropy",
                            "total_actions", "births", "reproductions",
                            "communications"}
        float(row["entropy"])

    with open(report.distribution_csv, newline="") as fh:
        dist = list(csv.reader(fh))
    assert dist[0][0] == "action" and len(dist[0]) == 3
    assert dist[-1][0] == "total_actions"
    for row in dist[1:-1]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 100.0

    with open(report.curve_csv, newline="") as fh:
        curve = list(csv.reader(fh))
    assert curve[0] == ["upkeep", "trades", "duration"]
    assert len(curve) == 3

    assert len(report.perturn_csvs) == 2
    with open(report.perturn_csvs[0], newline="") as fh:
        perturn = list(csv.reader(fh))
    assert perturn[0] == ["turn", "entropy", "alive"]

    md = report.summary_md.read_text()
    assert md.count("|") > 10


def test_analyze_is_reproducible_and_label_stable(tmp_path):
    logs = sweep_logs(tmp_path)
    first = analyze(logs, tmp_path / "r1")
    second = analyze(list(reversed(logs)), tmp_path / "r2")
    text_one = first.summary_csv.read_text()
    text_two = second.summary_csv.read_text()
    assert text_one != text_two  # row order follows input order
    assert sorted(text_one.splitlines()[1:]) == sorted(text_two.splitlines()[1:])
    again = analyze(logs, tmp_path / "r3")
    assert again.summary_csv.read_text() == text_one


def test_analyze_disambiguates_duplicate_logs(tmp_path):
    logs = sweep_logs(tmp_path, values=(1,))
    report = analyze([logs[0], logs[0]], tmp_path / "report")
    names = [path.name for path in report.perturn_csvs]
    assert len(set(names)) == 2


def test_summary_row_formatting():
    record = run_experiment(small_config(max_turns=3), policies="scripted:rest")
    row = summary_row("x", record.config, record.summary)
    assert row["entropy"].count(".") == 1 and len(row["entropy"].split(".")[1]) == 3
    assert len(row["social_pct"].split(".")[1]) == 1


# --------------------------------------------------------------------------
# CLI


def cli(*args):
    return main(list(args))


def test_cli_run_and_replay_and_validate(tmp_path, capsys):
    out = tmp_path / "runs"
    code = cli("run", "--preset", "P1",
               "--set", "grid_width=5", "--set", "grid_height=5",
               "--set", "n_agents=4", "--set", "max_turns=3",
               "--set", "n_food_nodes=2", "--set", "n_token_nodes=1",
               "--ack-overrides", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "resolved configuration:" in printed
    run_dir = next(out.iterdir())

    assert cli("replay", str(run_dir / "game.log")) == 0
    assert "replay ok" in capsys.readouterr().out

    assert cli("validate-config", str(run_dir / "config.txt")) == 0
    assert "configuration ok" in capsys.readouterr().out

    report = tmp_path / "report"
    assert cli("analyze", str(run_dir / "game.log"), "--out", str(report)) == 0
    assert (report / "summary.md").exists()


def test_cli_exit_code_two_for_config_errors(tmp_path, capsys):
    assert cli("run", "--preset", "P1", "--set", "upkeep=9") == 2
    assert "config error" in capsys.readouterr().err
    assert cli("run", "--preset", "P1", "--set", "upkeep") == 2
    capsys.readouterr()
    assert cli("run", "--preset", "P1", "--policies", "llm") == 2
    assert "gateway" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("upkeep=2\n")
    assert cli("validate-config", str(bad)) == 2


def test_cli_malformed_endpoint_is_a_config_error(capsys):
    assert cli("run", "--preset", "P1", "--policies", "llm",
               "--endpoint", "localhost:8000/v1", "--model", "m") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "endpoint_url" in err


def test_cli_exit_code_three_for_runtime_faults(tmp_path):
    assert cli("replay", str(tmp_path / "missing.log")) == 3


def test_cli_exit_code_four_for_analysis_errors(tmp_path, capsys):
    mangled = tmp_path / "game.log"
    mangled.write_text("this is not a log\n")
    assert cli("replay", str(mangled)) == 4
    assert "analysis error" in capsys.readouterr().err

    record = run_small(out_dir=tmp_path / "runs")
    text = (record.log_path).read_text().splitlines()
    record.log_path.write_text("\n".join(text[:-1]) + "\n")  # drop end record
    assert cli("analyze", str(record.log_path), "--out", str(tmp_path / "r")) == 4


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli("sweep", "--preset", "P1", "--param", "max_turns",
               "--values", "2,3",
               "--set", "grid_width=5", "--set", "grid_height=5",
               "--set", "n_agents=4",
               "--set", "n_food_nodes=2", "--set", "n_token_nodes=1",
               "--ack-overrides", "--policies", "scripted:walker",
               "--parallel", "2", "--out", str(out))
    assert code == 0
    assert (out / "summary.csv").exists()
    assert "| upkeep |" in capsys.readouterr().out
