"""Shared fixtures: an instrumented stub chat-completion server and
micro-game builders used across the suite."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from gridarena.actions import REST, Action
from gridarena.core import Attributes, AgentState, GameConfig, GameState, ResourceNode
from gridarena.gateway import GatewayConfig
from gridarena.harness import PRESETS, build_policy_map
from gridarena.policy import PolicyDecision, ScriptedPolicy

settings.register_profile("suite", deadline=None, max_examples=100)
# A deeper search for the property tests, chosen on the command line with
# ``--hypothesis-profile deep``.
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")

KEY_ENV = "ARENA_TEST_KEY"


# --------------------------------------------------------------------------
# Stub gateway


def _hash_pick(prompt: str, options: list[str]) -> str:
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    return options[int.from_bytes(digest[:4], "big") % len(options)]


SURVIVAL_REPLIES = [
    "GATHER",
    "GATHER",
    "GATHER",
    "MOVE N",
    "MOVE E",
    "MOVE S W",
    "REST",
    "TRAIN STR",
    "TRAIN INT",
    "TRADE 0 2f0t 0f1t",
]

MATING_REPLIES = SURVIVAL_REPLIES + [
    "COMMUNICATE looking to pair up",
    "REPRODUCE 1",
]


def canned_responder(prompt: str) -> str:
    """Deterministic reply chosen by prompt hash; always a parseable line."""
    if "ACCEPT or REJECT" in prompt:
        return _hash_pick(prompt, ["ACCEPT", "REJECT"])
    if "REPRODUCE [target_id]" in prompt:
        return _hash_pick(prompt, MATING_REPLIES)
    return _hash_pick(prompt, SURVIVAL_REPLIES)


def echo_responder(prompt: str) -> str:
    return "echo:" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


class StubGateway(ThreadingHTTPServer):
    """Chat-completion stand-in that records every request.

    ``status_script`` is consumed one status per request (then 200s);
    ``hold_seconds`` delays each response so concurrency becomes observable;
    ``raw_body``, when set, replaces every 200 reply's JSON payload;
    ``location`` is sent as the ``Location`` header of every 3xx reply;
    ``max_in_flight`` records the high-water mark of simultaneous requests.
    """

    daemon_threads = True

    def __init__(self, responder=echo_responder):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.responder = responder
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.request_count = 0
        self.requests: list[dict] = []
        self.auth_headers: list[str | None] = []
        self.content_types: list[str | None] = []
        self.status_script: list[int] = []
        self.hold_seconds = 0.0
        self.raw_body: bytes | None = None
        self.location: str | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def reset(self) -> None:
        with self.lock:
            self.max_in_flight = 0
            self.request_count = 0
            self.requests = []
            self.auth_headers = []
            self.content_types = []
            self.status_script = []
            self.hold_seconds = 0.0
            self.raw_body = None
            self.location = None


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        server: StubGateway = self.server  # type: ignore[assignment]
        with server.lock:
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
            server.request_count += 1
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            with server.lock:
                server.requests.append(body)
                server.auth_headers.append(self.headers.get("Authorization"))
                server.content_types.append(self.headers.get("Content-Type"))
                status = server.status_script.pop(0) if server.status_script else 200
            if server.hold_seconds:
                time.sleep(server.hold_seconds)
            if status != 200:
                payload = json.dumps({"error": {"code": status}}).encode("utf-8")
                self.send_response(status)
            elif server.raw_body is not None:
                payload = server.raw_body
                self.send_response(200)
            else:
                prompt = body["messages"][0]["content"]
                text = server.responder(prompt)
                payload = json.dumps(
                    {"choices": [{"message": {"content": text}}]}).encode("utf-8")
                self.send_response(200)
            if server.location and 300 <= status < 400:
                self.send_header("Location", server.location)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
        finally:
            # lowered before the body goes out: once it arrives, the client
            # may send its next request before this handler returns
            with server.lock:
                server.in_flight -= 1
        self.wfile.write(payload)

    do_GET = do_POST  # records a client that followed a redirect as a GET

    def log_message(self, *args):  # silence per-request stderr noise
        pass


@contextmanager
def running_stub(responder=echo_responder):
    server = StubGateway(responder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_gateway(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "stub-key")
    with running_stub() as server:
        yield server


def gateway_config(server: StubGateway, **overrides) -> GatewayConfig:
    values = dict(endpoint_url=server.url, model_name="stub-model",
                  api_key_env_var=KEY_ENV, backoff_base=0.01, backoff_cap=0.05,
                  request_timeout=10.0)
    values.update(overrides)
    return GatewayConfig(**values)


# --------------------------------------------------------------------------
# Micro-game builders


def small_config(**overrides) -> GameConfig:
    values = dict(grid_width=5, grid_height=5, n_food_nodes=2, n_token_nodes=1,
                  food_regen=2, token_regen=1, upkeep=1, max_turns=5,
                  n_agents=2, cell_capacity=3, seed=11)
    values.update(overrides)
    return GameConfig(**values)


def flat_attrs(value: int = 5) -> Attributes:
    return Attributes(STR=value, SPD=value, INT=value, SOC=value,
                      END=value, CHA=value)


def make_agent(agent_id: int, pos, *, attrs: Attributes | None = None,
               **overrides) -> AgentState:
    return AgentState(id=agent_id, pos=tuple(pos),
                      attrs=attrs or flat_attrs(), **overrides)


def make_state(agents, nodes=(), config: GameConfig | None = None,
               seed: int = 11) -> GameState:
    """Hand-built state for targeted mechanics tests."""
    import random

    config = config or small_config(n_agents=len(agents),
                                    n_food_nodes=0, n_token_nodes=0)
    state = GameState(config=config,
                      agents={agent.id: agent for agent in agents},
                      nodes=list(nodes), rng=random.Random(seed))
    state.next_agent_id = max((agent.id for agent in agents), default=-1) + 1
    return state


def food_node(pos, regen: int = 2, stock: int = -1) -> ResourceNode:
    return ResourceNode(pos=tuple(pos), kind="food", regen=regen, stock=stock)


def token_node(pos, regen: int = 1, stock: int = -1) -> ResourceNode:
    return ResourceNode(pos=tuple(pos), kind="token", regen=regen, stock=stock)


def preset_game(name, **overrides):
    """A preset's config, with ``overrides``, and its policy map."""
    config = replace(PRESETS[name].config, **overrides)
    return config, build_policy_map(PRESETS[name].policy_assignment, config)


CROWD_SHAPED_POLICIES = "mixed:0-5=aggressor,6-11=trader,12-17=walker,*=greedy"


def crowd_shaped_game(seed=11):
    """A smaller game of the ``crowd`` benchmark's shape: stacked cells, a
    vision range smaller than the grid, and the same policy mix."""
    config = GameConfig(grid_width=12, grid_height=12, n_food_nodes=10, n_token_nodes=5,
                        n_agents=24, upkeep=1, max_turns=30, seed=seed)
    return config, build_policy_map(CROWD_SHAPED_POLICIES, config)


class ScriptedSequence(ScriptedPolicy):
    """Plays a fixed list of actions, then RESTs (or loops)."""

    def __init__(self, config: GameConfig, seed: int,
                 sequence: Iterable[Action] = (), loop: bool = False):
        super().__init__(config, seed)
        self.sequence = list(sequence)
        self.loop = loop
        self._cursor = 0

    def decide(self, obs) -> PolicyDecision:
        if not self.sequence:
            return PolicyDecision(REST)
        if self._cursor >= len(self.sequence):
            if not self.loop:
                return PolicyDecision(REST)
            self._cursor = 0
        action = self.sequence[self._cursor]
        self._cursor += 1
        return PolicyDecision(action)


# --------------------------------------------------------------------------
# The collector's generations after a pause


# an interpreter that starts with frozen objects (CPython 3.12.1 does) never
# takes the promotion path; ``frozen_caller`` tests the other one
promotes = pytest.mark.skipif(
    gc.get_freeze_count() > 0,
    reason="the interpreter started with frozen objects, so collector_paused "
           "leaves what a pause builds in the young generations")


def young(obj) -> bool:
    """Whether ``obj`` is in the collector's first or second generation."""
    assert gc.is_tracked(obj)
    return any(o is obj for generation in (0, 1) for o in gc.get_objects(generation))


@pytest.fixture
def frozen_caller():
    """Objects frozen before the test, as a host that forks freezes them
    (an interpreter that starts with some frozen is one already). The
    collector stays disabled through the test, so no collection moves a
    block's objects before the test finds them."""
    thawed = not gc.get_freeze_count()
    if thawed:
        gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        if thawed:
            gc.unfreeze()


# --------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion in the summary


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.getreports(status):
            if "test_acceptance.py" in report.nodeid and report.when == "call":
                name = report.nodeid.split("::")[-1]
                rows.append((name, "PASS" if report.passed else "FAIL"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(set(rows)):
            terminalreporter.write_line(f"{verdict}  {name}")
