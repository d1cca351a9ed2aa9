"""HTTP client for chat-completion endpoints with bounded concurrency.

Standard library only (``urllib.request``). One JSON POST per attempt:
``{model, messages, temperature, max_tokens}`` with a Bearer token read from
a named environment variable, each on a fresh connection (no keep-alive).
``HTTP(S)_PROXY``/``NO_PROXY`` are honoured, and HTTPS verifies against the
system CA store through ``ssl``'s default context. Redirects are not
followed: a 3xx fails at once naming its ``Location``, since following it
would drop the POST body (301-303) or carry the key to another host.
Transport errors, 429s, and 5xx responses retry with jittered exponential
backoff; authentication failures never retry; any other status, and a 200
whose body is not JSON, fail at once. ``batch_complete`` fans out over a
thread pool capped at ``max_concurrency`` (default 4) and reports
per-prompt failures in place, so one bad prompt never cancels its siblings.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import random
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import urlsplit

_jitter = random.Random()


class GatewayError(Exception):
    """A completion could not be obtained."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class GatewayAuthError(GatewayError):
    """Credential missing or rejected; not retryable."""


@dataclass(frozen=True)
class GatewayConfig:
    """Endpoint, credential source, sampling, and retry behavior.

    ``api_key_env_var`` names the environment variable holding the key; the
    key itself never lands in configs or logs. The 60 s timeout leaves ample
    headroom over typical long completions.
    """

    endpoint_url: str
    model_name: str
    api_key_env_var: str = "ARENA_API_KEY"
    max_concurrency: int = 4
    request_timeout: float = 60.0
    max_retries: int = 4
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    temperature: float = 1.0
    max_tokens: int = 256

    def __post_init__(self):
        if not self.endpoint_url:
            raise ValueError("endpoint_url must be set")
        url = urlsplit(self.endpoint_url)
        try:
            url.port  # raises ValueError for a non-numeric or out-of-range port
        except ValueError:
            url = None
        if (url is None or url.scheme not in ("http", "https") or not url.hostname
                or not self.endpoint_url.isprintable() or " " in self.endpoint_url):
            raise ValueError("endpoint_url must be an http:// or https:// URL with a "
                             f"host, a valid port and no whitespace, got {self.endpoint_url!r}")
        if not self.model_name:
            raise ValueError("model_name must be set")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def _request_body(prompt: str, config: GatewayConfig) -> dict:
    return {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }


def _extract_text(payload: dict) -> str:
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise GatewayError(f"malformed completion payload: {exc!r}") from exc


def _backoff_delay(attempt: int, config: GatewayConfig) -> float:
    delay = min(config.backoff_cap, config.backoff_base * (2 ** attempt))
    return delay * _jitter.uniform(0.5, 1.0)


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None  # urllib then raises HTTPError with the 3xx status


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    """Built on first use, as ``urlopen``'s is, so the proxy env is read then."""
    return urllib.request.build_opener(_RefuseRedirects)


def complete(prompt: str, config: GatewayConfig) -> str:
    """Return the assistant text for one prompt, retrying retryable failures.

    Raises GatewayAuthError before any request when the credential is
    missing or unusable, and GatewayError once retries are exhausted.
    """
    key = os.environ.get(config.api_key_env_var)
    if not key or not key.isprintable():  # a line break cannot go in a header
        raise GatewayAuthError(f"environment variable {config.api_key_env_var} "
                               "is not set or not one printable line")
    headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
    data = json.dumps(_request_body(prompt, config)).encode("utf-8")

    last_error: GatewayError | None = None
    for attempts in range(1, config.max_retries + 2):
        request = urllib.request.Request(config.endpoint_url, data=data, headers=headers)
        status = None
        try:
            with _opener().open(request, timeout=config.request_timeout) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:  # any non-2xx, 3xx included
            exc.close()
            status, location = exc.code, exc.headers.get("Location")
        except (OSError, http.client.HTTPException) as exc:
            last_error = GatewayError(f"transport error: {exc}", attempts=attempts)
        if status == 200:
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise GatewayError(f"non-JSON completion body: {exc}",
                                   status=200, attempts=attempts) from exc
            return _extract_text(payload)
        if status in (401, 403):
            raise GatewayAuthError(f"authentication rejected (HTTP {status})",
                                   status=status, attempts=attempts)
        if status is not None:
            moved = f" to {location}; set endpoint_url to it" if 300 <= status < 400 else ""
            last_error = GatewayError(f"HTTP {status}{moved}", status=status, attempts=attempts)
            if status != 429 and status < 500:
                raise last_error
        if attempts <= config.max_retries:
            time.sleep(_backoff_delay(attempts - 1, config))

    assert last_error is not None
    raise last_error


def _complete_or_error(prompt: str, config: GatewayConfig) -> str | GatewayError:
    try:
        return complete(prompt, config)
    except GatewayError as exc:
        return exc


def batch_complete(prompts: list[str], config: GatewayConfig) -> list[str | GatewayError]:
    """Complete many prompts with at most ``max_concurrency`` in flight.

    The result list matches the input order; failed prompts hold their
    GatewayError in place of text.
    """
    if not prompts:
        return []
    with ThreadPoolExecutor(max_workers=config.max_concurrency) as pool:
        futures = [pool.submit(_complete_or_error, p, config) for p in prompts]
        return [f.result() for f in futures]
