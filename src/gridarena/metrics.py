"""Behavioral metrics computed from a GameLog.

The headline number is normalized Shannon entropy of the whole-game
action-type distribution: H_norm = -(1/log k) * sum(p_i log p_i) with k the
number of action types that actually occurred (natural log; a single type is
0 by convention). The per-turn variant exposes how early low-entropy turns
can drag a whole-game figure below what any individual turn shows, which is
why both are reported.

Counting rules: trades count accepted outcomes only and attacks count
successful ones, while social percentage counts TRADE and COMMUNICATE
attempts regardless of outcome. Actions cancelled because the agent died
before resolving are excluded everywhere. ``fallbacks`` counts every action
record whose decision was a fallback (an unparseable reply or a policy
fault, which plays REST), cancelled ones included; ``policy_faults`` counts
``policy_fault`` records. Neither changes how entropy is computed: a game
whose decisions failed shows low entropy, and these two counts say why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping

from .gamelog import GameLog, LogError

ACTION_TYPES = ("GATHER", "MOVE", "ATTACK", "TRADE", "REST", "TRAIN",
                "COMMUNICATE", "REPRODUCE")
SOCIAL_TYPES = ("TRADE", "COMMUNICATE")


class MetricsError(ValueError):
    pass


def normalized_entropy(action_counts: Mapping[str, float] | Iterable[float]) -> float:
    """Normalized Shannon entropy of a count (or percentage) vector.

    Zero-count types are dropped before k is taken, so the result is scale-
    and permutation-invariant. Raises MetricsError when nothing was counted.
    """
    if isinstance(action_counts, Mapping):
        values = list(action_counts.values())
    else:
        values = list(action_counts)
    if any(v < 0 for v in values):
        raise MetricsError("negative action count")
    values = [float(v) for v in values if v > 0]
    if not values:
        raise MetricsError("entropy of zero actions is undefined")
    if len(values) == 1:
        return 0.0
    total = sum(values)
    entropy = -sum((v / total) * math.log(v / total) for v in values)
    return entropy / math.log(len(values))


def _walk(log: GameLog) -> tuple[dict[str, int], dict[str, int], list[tuple[int, float, int]]]:
    """Everything a log's metrics are counted from, in one pass over its
    records: resolved actions per type (ACTION_TYPES order), the other
    counts by name, and the per-turn series. A turn's action records come
    before its ``turn_end``, so its entropy is taken there. An action whose
    first word is not an action type is a MetricsError naming its line."""
    counts: dict[str, int] = {}
    tallies = dict.fromkeys(("trades", "attacks", "births", "fallbacks", "policy_faults"), 0)
    per_turn: dict[int, dict[str, int]] = {}
    alive = sum(1 for snap in log.header["agents"] if snap["alive"])
    series = []
    for index, event in enumerate(log):
        kind = event["type"]
        if kind == "action":
            tallies["fallbacks"] += bool(event["fallback"])
            if event["outcome"] == "cancelled_dead":
                continue
            name = event["action"].split(" ", 1)[0]
            if name not in ACTION_TYPES:
                raise MetricsError(f"line {log.lineno(index)} (action): "
                                   f"{name!r} is not an action type")
            counts[name] = counts.get(name, 0) + 1
            bucket = per_turn.setdefault(event["turn"], {})
            bucket[name] = bucket.get(name, 0) + 1
            tallies["trades"] += name == "TRADE" and event["outcome"] == "accepted"
            tallies["attacks"] += name == "ATTACK" and event["outcome"] == "ok"
        elif kind == "policy_fault":
            tallies["policy_faults"] += 1
        elif kind == "turn_end":
            turn = event["turn"]
            tallies["births"] += len(event["births"])
            alive = alive - len(event["deaths"]) + len(event["births"])
            turn_counts = per_turn.get(turn, {})
            entropy = normalized_entropy(turn_counts) if sum(turn_counts.values()) > 1 else 0.0
            series.append((turn, entropy, alive))
    return {name: counts[name] for name in ACTION_TYPES if name in counts}, tallies, series


def per_turn_entropy(log: GameLog) -> list[tuple[int, float, int]]:
    """Per-turn series of (turn, entropy, alive_count).

    Entropy is the normalized entropy of that turn's action multiset; turns
    with one or zero actions yield 0. alive_count is the population at the
    end of the turn.
    """
    return _walk(log)[2]


@dataclass(frozen=True)
class MetricsSummary:
    """Whole-game metrics in reporting order.

    ``action_distribution`` holds full-precision percentages over the types
    that occurred; table writers round for display. ``per_turn`` is the
    game's ``per_turn_entropy`` series.
    """

    trades_completed: int
    attacks: int
    survivors: int
    duration: int
    social_action_pct: float
    entropy_norm: float
    total_actions: int
    births: int
    fallbacks: int
    policy_faults: int
    action_counts: dict[str, int]
    action_distribution: dict[str, float]
    per_turn: list[tuple[int, float, int]]

    def as_record(self) -> dict[str, Any]:
        """Every field but the distribution and the per-turn series, in
        field order: the ``summary`` of a run's ``record.json``."""
        return {field.name: getattr(self, field.name) for field in fields(self)
                if field.name not in ("action_distribution", "per_turn")}


def summarize(log: GameLog) -> MetricsSummary:
    """Compute the summary for one complete game log."""
    try:
        end = log.end
    except LogError as exc:
        raise MetricsError(str(exc)) from exc

    counts, tallies, per_turn = _walk(log)
    total = sum(counts.values())
    social = sum(counts.get(name, 0) for name in SOCIAL_TYPES)
    distribution = {name: 100.0 * count / total for name, count in counts.items()} if total else {}
    return MetricsSummary(
        trades_completed=tallies["trades"],
        attacks=tallies["attacks"],
        survivors=end["survivors"],
        duration=end["turn"],
        social_action_pct=100.0 * social / total if total else 0.0,
        entropy_norm=normalized_entropy(counts) if total else 0.0,
        total_actions=total,
        births=tallies["births"],
        fallbacks=tallies["fallbacks"],
        policy_faults=tallies["policy_faults"],
        action_counts=counts,
        action_distribution=distribution,
        per_turn=per_turn,
    )
