"""Entropy math and log summarization."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from gridarena import actions, metrics
from gridarena.core import GameConfig, new_game
from gridarena.engine import run_game
from gridarena.gamelog import GameLog, LogError
from gridarena.metrics import (
    ACTION_TYPES,
    MetricsError,
    Summarizer,
    normalized_entropy,
    per_turn_entropy,
    summarize,
)
from gridarena.policy import Policy, PolicyMap, make_scripted

from conftest import crowd_shaped_game, preset_game, small_config


def scripted_log(config=None, name="greedy"):
    config = config or small_config(n_agents=4, max_turns=6)
    return run_game(new_game(config),
                    PolicyMap(lambda a: make_scripted(name, a.id, config)))


# --------------------------------------------------------------------------
# normalized_entropy


def test_entropy_uniform_two_types_is_one():
    assert normalized_entropy({"A": 10, "B": 10}) == pytest.approx(1.0)


def test_entropy_single_type_is_zero():
    assert normalized_entropy({"A": 17}) == 0.0


def test_entropy_known_value():
    # H = -(0.75 ln 0.75 + 0.25 ln 0.25) / ln 2
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
    assert normalized_entropy({"A": 75, "B": 25}) == pytest.approx(expected)


def test_entropy_k_counts_only_nonzero_types():
    assert normalized_entropy({"A": 5, "B": 5, "C": 0}) == pytest.approx(1.0)


def test_entropy_rejects_empty_and_negative():
    with pytest.raises(MetricsError):
        normalized_entropy({})
    with pytest.raises(MetricsError):
        normalized_entropy({"A": 0, "B": 0})
    with pytest.raises(MetricsError):
        normalized_entropy({"A": -1, "B": 2})


def test_entropy_accepts_iterables_of_counts():
    assert normalized_entropy([10, 10]) == pytest.approx(1.0)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8),
       st.integers(min_value=2, max_value=9))
def test_entropy_scale_invariance(counts, factor):
    scaled = [c * factor for c in counts]
    assert normalized_entropy(scaled) == pytest.approx(normalized_entropy(counts))


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_entropy_permutation_invariance(counts, rng):
    shuffled = counts[:]
    rng.shuffle(shuffled)
    assert normalized_entropy(shuffled) == pytest.approx(normalized_entropy(counts))


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8))
def test_entropy_is_normalized(counts):
    value = normalized_entropy(counts)
    assert 0.0 <= value <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# Log summarization


def test_metrics_counts_in_the_action_vocabulary():
    assert metrics.ACTION_TYPES is actions.ACTION_TYPES
    assert set(metrics.SOCIAL_TYPES) <= set(actions.ACTION_TYPES)


def test_action_counts_orders_by_canonical_type_order():
    counts = summarize(scripted_log()).action_counts
    assert list(counts) == [t for t in ACTION_TYPES if t in counts]
    assert sum(counts.values()) > 0


def test_summarize_basic_shape():
    config = small_config(n_agents=4, max_turns=6)
    summary = summarize(scripted_log(config))
    assert summary.duration == 6
    assert summary.survivors == 4
    assert summary.total_actions == sum(summary.action_counts.values())
    assert summary.births == 0
    assert summary.fallbacks == summary.policy_faults == 0
    total_pct = sum(summary.action_distribution.values())
    assert total_pct == pytest.approx(100.0)
    assert summary.entropy_norm == pytest.approx(
        normalized_entropy(summary.action_counts))


def test_summarize_counts_social_attempts():
    # Traders fire TRADE proposals whether or not they complete.
    config = small_config(n_agents=4, max_turns=8, upkeep=0, seed=5)
    summary = summarize(scripted_log(config, name="trader"))
    trade_attempts = summary.action_counts.get("TRADE", 0)
    if trade_attempts:
        expected = 100.0 * trade_attempts / summary.total_actions
        assert summary.social_action_pct == pytest.approx(expected)
        assert summary.trades_completed <= trade_attempts


class RaisesForEvenIds(Policy):
    def __init__(self, config):
        self.config = config

    def decide(self, obs):
        if obs.agent.id % 2 == 0:
            raise RuntimeError("policy crashed")
        return make_scripted("greedy", obs.agent.id, self.config).decide(obs)


def test_summarize_counts_policy_faults_and_their_fallbacks():
    config = small_config(n_agents=4, max_turns=6, upkeep=0)
    policy = RaisesForEvenIds(config)
    log = run_game(new_game(config), PolicyMap(lambda a: policy))
    summary = summarize(log)
    even_actions = [e for e in log if e["type"] == "action" and e["agent_id"] % 2 == 0]
    assert summary.policy_faults == len(even_actions) == 2 * 6
    assert summary.fallbacks == summary.policy_faults  # greedy never falls back


def test_summarize_requires_end_record():
    from gridarena.gamelog import GameLog, LogError

    log = GameLog()
    with pytest.raises(MetricsError):
        summarize(log)


def test_summarize_names_a_missing_end_record_once():
    log = GameLog([scripted_log().header])
    with pytest.raises(MetricsError) as excinfo:
        summarize(log)
    assert str(excinfo.value) == "log has no end record"


def test_an_action_of_no_action_type_is_a_metrics_error_naming_its_line(tmp_path, capsys):
    """The whole-game counts keep the action types only, while the per-turn
    series keeps every first word: such a record would count in one and not
    in the other."""
    from gridarena.cli import main

    lines = scripted_log().to_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if '"action":"GATHER"' in line)
    lines[index] = lines[index].replace('"action":"GATHER"', '"action":"FLY"', 1)
    log = GameLog.from_text("".join(lines))
    message = f"line {index + 1} (action): 'FLY' is not an action type"
    with pytest.raises(MetricsError, match=f"^{re.escape(message)}$"):
        summarize(log)
    path = tmp_path / "fly.log"
    path.write_text("".join(lines))
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert f"analysis error: {path}: {message}" in capsys.readouterr().err
    assert main(["replay", str(path)]) == 4


class CountingLog(GameLog):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_summarize_walks_the_log_once():
    log = CountingLog(scripted_log().events)
    summary = summarize(log)
    assert log.walks == 1
    resolved = [event["action"].split(" ", 1)[0] for event in log.events
                if event["type"] == "action" and event["outcome"] != "cancelled_dead"]
    assert summary.action_counts == {name: resolved.count(name)
                                     for name in ACTION_TYPES if name in resolved}
    assert summary.per_turn == per_turn_entropy(log)


# a twentieth of the profile's examples: 5 in the suite, 100 when searched deep
@settings(max_examples=max(1, settings().max_examples // 20), deadline=None)
@given(st.sampled_from(["crowd-shaped", "V7"]), st.integers(0, 2 ** 32 - 1))
def test_the_summary_counted_as_a_game_plays_equals_summarize_of_its_log(game, seed):
    config, policies = (crowd_shaped_game(seed) if game == "crowd-shaped"
                        else preset_game("V7", seed=seed))
    summarizer = Summarizer()
    log = run_game(new_game(config), policies, sink=summarizer)
    assert summarizer.seen == len(log)  # each record counted once
    summary = summarize(log)
    for field in dataclasses.fields(summary):
        assert getattr(summarizer.summary, field.name) == getattr(summary, field.name), field.name
    assert summarizer.summary == summary


def test_a_summarizer_has_no_summary_before_the_end_record():
    log = scripted_log()
    summarizer = Summarizer()
    summarizer(log.events[:-1])
    assert summarizer.summary is None
    assert summarizer.per_turn == per_turn_entropy(log)
    summarizer(log.events[-1:])
    assert summarizer.summary == summarize(log)


def test_a_summarizer_refuses_a_first_record_that_is_not_a_header():
    log = scripted_log()
    with pytest.raises(LogError, match="^log has no header record$"):
        Summarizer()(log.events[1:])


def test_summary_record_lists_every_count_in_field_order():
    summary = summarize(scripted_log())
    record = summary.as_record()
    names = [f.name for f in dataclasses.fields(summary)]
    assert list(record) == [n for n in names if n not in ("action_distribution", "per_turn")]
    assert all(record[name] == getattr(summary, name) for name in record)


def test_per_turn_entropy_rows():
    config = small_config(n_agents=4, max_turns=6)
    rows = per_turn_entropy(scripted_log(config))
    assert [turn for turn, _, _ in rows] == list(range(6))
    for _, entropy, alive in rows:
        assert 0.0 <= entropy <= 1.0
        assert alive == 4


def test_per_turn_entropy_single_action_is_zero():
    config = small_config(n_agents=1, max_turns=3, upkeep=0)
    rows = per_turn_entropy(scripted_log(config, name="rest"))
    assert all(entropy == 0.0 for _, entropy, _ in rows)


def test_per_turn_alive_tracks_deaths():
    config = small_config(n_agents=2, max_turns=8, upkeep=30, n_food_nodes=0,
                          n_token_nodes=0)
    log = run_game(new_game(config),
                   PolicyMap(lambda a: make_scripted("rest", a.id, config)))
    rows = per_turn_entropy(log)
    assert rows[-1][2] == 0  # everyone starved
    assert rows[0][2] == 2
