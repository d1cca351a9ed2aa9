"""HTTP client behavior: auth, retries, backoff bounds, batching."""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import gridarena
from gridarena import gateway
from gridarena.gateway import (
    GatewayAuthError,
    GatewayConfig,
    GatewayError,
    _backoff_delay,
    batch_complete,
    complete,
)

from conftest import KEY_ENV, gateway_config, running_stub


def test_gateway_config_validation():
    with pytest.raises(ValueError):
        GatewayConfig(endpoint_url="", model_name="m")
    with pytest.raises(ValueError):
        GatewayConfig(endpoint_url="http://x", model_name="")
    with pytest.raises(ValueError):
        GatewayConfig(endpoint_url="http://x", model_name="m", max_concurrency=0)
    with pytest.raises(ValueError):
        GatewayConfig(endpoint_url="http://x", model_name="m", max_retries=-1)


@pytest.mark.parametrize("timeout", [0, -1, 0.0, float("nan")])
def test_gateway_config_rejects_a_non_positive_timeout(timeout):
    with pytest.raises(ValueError, match="request_timeout"):
        GatewayConfig(endpoint_url="http://x", model_name="m", request_timeout=timeout)


@pytest.mark.parametrize("timeout", [float("inf"), 1e12])
def test_gateway_config_rejects_a_timeout_past_timeout_max(timeout):
    # socket.settimeout overflows past threading.TIMEOUT_MAX
    with pytest.raises(ValueError, match="request_timeout"):
        GatewayConfig(endpoint_url="http://x", model_name="m", request_timeout=timeout)


@pytest.mark.parametrize("field, value", [
    ("temperature", float("nan")), ("temperature", float("inf")),
    ("temperature", -0.5), ("max_tokens", 0), ("max_tokens", -5)])
def test_gateway_config_rejects_unsendable_sampling_fields(field, value):
    # NaN and infinities have no JSON form; a completion needs at least one token
    with pytest.raises(ValueError, match=field):
        GatewayConfig(endpoint_url="http://x", model_name="m", **{field: value})


@pytest.mark.parametrize("field, value", [
    # a count must be a true integer: a float breaks the retry loop's range,
    # a bool goes out as JSON true
    ("max_retries", 2.5), ("max_retries", True), ("max_tokens", True),
    ("max_tokens", 128.0), ("max_concurrency", True), ("max_concurrency", 2.0),
    ("max_concurrency", "4"), ("temperature", True),
    # time.sleep refuses a negative or NaN backoff after the first retryable failure
    ("backoff_base", -1.0), ("backoff_base", float("nan")), ("backoff_base", float("inf")),
    ("backoff_cap", float("nan")), ("backoff_cap", -0.5), ("backoff_cap", float("inf")),
    # a bool is no timeout, and text or None is no number
    ("request_timeout", True), ("temperature", "0.5"), ("backoff_base", "1"),
    ("backoff_cap", None), ("request_timeout", "60")])
def test_gateway_config_rejects_counts_and_backoffs_a_batch_cannot_use(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        GatewayConfig(endpoint_url="http://x", model_name="m", **{field: value})


def test_gateway_config_accepts_a_zero_backoff_and_no_retries():
    config = GatewayConfig(endpoint_url="http://x", model_name="m", max_retries=0,
                           backoff_base=0, backoff_cap=0.0)
    assert _backoff_delay(3, config) == 0


def test_a_timeout_max_gateway_timeout_completes(stub_gateway):
    config = gateway_config(stub_gateway, request_timeout=threading.TIMEOUT_MAX)
    assert complete("hello", config).startswith("echo:")


@pytest.mark.parametrize("url", ["localhost:8000/v1", "127.0.0.1:8000/v1",
                                 "ftp://host/v1", "http:///v1", "//host/v1",
                                 "http://host:abc/v1", "http://host:99999/v1",
                                 "http://host/v 1", "http://host/v1\n",
                                 "http://host/v1\x00", "\thttp://host/v1"])
def test_gateway_config_rejects_malformed_endpoint(url):
    with pytest.raises(ValueError, match="endpoint_url"):
        GatewayConfig(endpoint_url=url, model_name="m")


@pytest.mark.parametrize("url", ["https://gateway.example/v1/chat/completions",
                                 "http://[::1]:8000/v1", "HTTP://localhost:8000"])
def test_gateway_config_accepts_http_urls(url):
    assert GatewayConfig(endpoint_url=url, model_name="m").endpoint_url == url


def test_complete_happy_path_sends_expected_body(stub_gateway):
    stub_gateway.responder = lambda prompt: f"saw[{prompt}]"
    config = gateway_config(stub_gateway, temperature=0.5, max_tokens=128)
    assert complete("hello", config) == "saw[hello]"
    (request,) = stub_gateway.requests
    assert request["model"] == "stub-model"
    assert request["temperature"] == 0.5
    assert request["max_tokens"] == 128
    assert request["messages"] == [{"role": "user", "content": "hello"}]
    assert stub_gateway.auth_headers == ["Bearer stub-key"]


def test_missing_api_key_fails_before_any_request(stub_gateway, monkeypatch):
    monkeypatch.delenv(KEY_ENV, raising=False)
    with pytest.raises(GatewayAuthError):
        complete("hello", gateway_config(stub_gateway))
    assert stub_gateway.request_count == 0


def test_unprintable_api_key_fails_before_any_request(stub_gateway, monkeypatch):
    monkeypatch.setenv(KEY_ENV, "stub-key\n")
    with pytest.raises(GatewayAuthError):
        complete("hello", gateway_config(stub_gateway))
    assert stub_gateway.request_count == 0


@pytest.mark.parametrize("status", [401, 403])
def test_auth_failures_never_retry(stub_gateway, status):
    stub_gateway.status_script = [status]
    with pytest.raises(GatewayAuthError):
        complete("hello", gateway_config(stub_gateway))
    assert stub_gateway.request_count == 1


def test_retry_then_succeed_transcript(stub_gateway):
    stub_gateway.responder = lambda prompt: "recovered"
    stub_gateway.status_script = [429, 429, 200]
    assert complete("hello", gateway_config(stub_gateway)) == "recovered"
    assert stub_gateway.request_count == 3


def test_server_errors_exhaust_retries(stub_gateway):
    stub_gateway.status_script = [500] * 10
    config = gateway_config(stub_gateway, max_retries=2)
    with pytest.raises(GatewayError) as excinfo:
        complete("hello", config)
    assert stub_gateway.request_count == 3  # initial try + 2 retries
    assert excinfo.value.attempts == 3
    assert not isinstance(excinfo.value, GatewayAuthError)


def test_client_errors_do_not_retry(stub_gateway):
    stub_gateway.status_script = [404]
    with pytest.raises(GatewayError):
        complete("hello", gateway_config(stub_gateway))
    assert stub_gateway.request_count == 1


def test_malformed_payload_is_an_immediate_error():
    from gridarena.gateway import _extract_text

    with pytest.raises(GatewayError):
        _extract_text({"choices": []})
    with pytest.raises(GatewayError):
        _extract_text({"choices": [{"message": {}}]})
    with pytest.raises(GatewayError):
        _extract_text({})
    for content, kind in ((None, "NoneType"), ([{"type": "text", "text": "GATHER"}], "list")):
        with pytest.raises(GatewayError, match=f"^malformed completion payload: content is {kind}"):
            _extract_text({"choices": [{"message": {"content": content}}]})


def test_backoff_delay_grows_and_caps():
    config = GatewayConfig(endpoint_url="http://x", model_name="m",
                           backoff_base=0.5, backoff_cap=8.0)
    for attempt in range(8):
        ceiling = min(8.0, 0.5 * 2 ** attempt)
        for _ in range(50):
            delay = _backoff_delay(attempt, config)
            assert 0.5 * ceiling <= delay <= ceiling


def test_batch_preserves_order_and_isolates_errors(stub_gateway):
    def responder(prompt):
        return f"reply:{prompt}"

    stub_gateway.responder = responder
    stub_gateway.status_script = [200, 500, 500, 500, 500, 200]
    config = gateway_config(stub_gateway, max_retries=3, max_concurrency=1)
    prompts = ["a", "b", "c"]
    results = batch_complete(prompts, config)
    assert results[0] == "reply:a"
    assert isinstance(results[1], GatewayError)
    assert results[2] == "reply:c"


def test_batch_empty_is_empty(stub_gateway):
    assert batch_complete([], gateway_config(stub_gateway)) == []
    assert stub_gateway.request_count == 0


def test_batch_bounds_in_flight_requests(stub_gateway):
    stub_gateway.responder = lambda prompt: "ok"
    stub_gateway.hold_seconds = 0.05
    config = gateway_config(stub_gateway, max_concurrency=4)
    results = batch_complete([f"p{i}" for i in range(16)], config)
    assert results == ["ok"] * 16
    assert stub_gateway.request_count == 16
    assert stub_gateway.max_in_flight <= 4
    assert stub_gateway.max_in_flight >= 2  # pool actually ran in parallel


# --------------------------------------------------------------------------
# Transport: what the standard-library client must keep doing


def count_backoffs(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = gateway._backoff_delay

    def counting(attempt, config):
        calls.append(attempt)
        return real(attempt, config)

    monkeypatch.setattr(gateway, "_backoff_delay", counting)
    return calls


def test_json_content_type_is_sent(stub_gateway):
    complete("hello", gateway_config(stub_gateway))
    assert stub_gateway.content_types == ["application/json"]


def test_non_json_200_is_an_immediate_error(stub_gateway):
    stub_gateway.raw_body = b"<html>busy</html>"
    with pytest.raises(GatewayError) as excinfo:
        complete("hello", gateway_config(stub_gateway, max_retries=3))
    assert stub_gateway.request_count == 1
    assert excinfo.value.status == 200
    assert excinfo.value.attempts == 1


def test_non_200_success_status_does_not_retry(stub_gateway):
    stub_gateway.status_script = [204]
    with pytest.raises(GatewayError) as excinfo:
        complete("hello", gateway_config(stub_gateway, max_retries=3))
    assert stub_gateway.request_count == 1
    assert excinfo.value.status == 204


def test_connection_refused_is_retried(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "stub-key")
    with socket.socket() as sock:  # a port nobody listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    config = GatewayConfig(endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
                           model_name="m", api_key_env_var=KEY_ENV, max_retries=2,
                           backoff_base=0.01, backoff_cap=0.02)
    backoffs = count_backoffs(monkeypatch)
    with pytest.raises(GatewayError) as excinfo:
        complete("hello", config)
    assert excinfo.value.attempts == config.max_retries + 1
    assert excinfo.value.status is None
    assert "transport error" in str(excinfo.value)
    assert backoffs == [0, 1]


def test_timeout_is_retried(stub_gateway, monkeypatch):
    stub_gateway.hold_seconds = 0.5
    config = gateway_config(stub_gateway, request_timeout=0.1, max_retries=1)
    backoffs = count_backoffs(monkeypatch)
    started = time.monotonic()
    with pytest.raises(GatewayError) as excinfo:
        complete("hello", config)
    assert time.monotonic() - started < 0.5 * 2
    assert excinfo.value.attempts == 2
    assert "transport error" in str(excinfo.value)
    assert stub_gateway.request_count == 2
    assert backoffs == [0]


def test_gateway_works_without_requests_installed(stub_gateway):
    """The package imports and completes with ``requests`` unimportable."""
    stub_gateway.responder = lambda prompt: "stdlib only"
    script = "\n".join([
        "import sys",
        "sys.modules['requests'] = None",
        "import gridarena",
        "from gridarena.gateway import GatewayConfig, complete",
        f"config = GatewayConfig(endpoint_url={stub_gateway.url!r}, model_name='m',",
        f"                       api_key_env_var={KEY_ENV!r})",
        "print(complete('hello', config))",
    ])
    src = Path(gridarena.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stdlib only"
    assert stub_gateway.request_count == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed(stub_gateway, status):
    """A 3xx fails at once, naming its target; the key never reaches it."""
    with running_stub() as elsewhere:
        stub_gateway.status_script = [status]
        stub_gateway.location = elsewhere.url
        with pytest.raises(GatewayError) as excinfo:
            complete("hello", gateway_config(stub_gateway, max_retries=3))
        assert elsewhere.request_count == 0
        assert elsewhere.auth_headers == []
    assert stub_gateway.request_count == 1
    assert excinfo.value.status == status
    assert excinfo.value.attempts == 1
    assert elsewhere.url in str(excinfo.value)
