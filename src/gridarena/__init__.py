"""Deterministic grid-world survival arena with pluggable agent policies.

Typical use::

    from gridarena import run_experiment
    record = run_experiment("P1", out_dir="runs")
"""

from .actions import Action, ActionParseError, parse_action, render
from .core import AgentState, ConfigError, GameConfig, GameState, new_game
from .engine import Observation, run_game, step
from .gamelog import GameLog, LogError, ReplayError, replay
from .gateway import GatewayAuthError, GatewayConfig, GatewayError
from .harness import (
    PRESETS,
    AnalysisReport,
    ExperimentRecord,
    Preset,
    analyze,
    build_policy_map,
    run_experiment,
    sweep,
)
from .mating import ProposalView, ReproductionEvent
from .metrics import MetricsError, MetricsSummary, normalized_entropy, summarize
from .policy import LLMPolicy, Policy, PolicyDecision, PolicyMap, SCRIPTED_POLICIES

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionParseError",
    "AgentState",
    "AnalysisReport",
    "ConfigError",
    "ExperimentRecord",
    "GameConfig",
    "GameLog",
    "GameState",
    "GatewayAuthError",
    "GatewayConfig",
    "GatewayError",
    "LLMPolicy",
    "LogError",
    "MetricsError",
    "MetricsSummary",
    "Observation",
    "Policy",
    "PolicyDecision",
    "PolicyMap",
    "PRESETS",
    "Preset",
    "ProposalView",
    "ReplayError",
    "ReproductionEvent",
    "SCRIPTED_POLICIES",
    "analyze",
    "build_policy_map",
    "new_game",
    "normalized_entropy",
    "parse_action",
    "render",
    "replay",
    "run_experiment",
    "run_game",
    "step",
    "summarize",
    "sweep",
    "__version__",
]
