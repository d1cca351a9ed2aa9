"""Stand-in chat-completion endpoint for the ``llm`` workload.

Run as a child process::

    python3 perfbench/stub.py

It binds 127.0.0.1 on a free port, prints ``port <n>`` on one line, and
serves until terminated. Each ``POST`` is held for ``HOLD_MS`` (standing in
for model latency) and answered with a canned reply picked by the prompt's
sha256, so equal prompts always get equal replies and every reply holds one
parseable action line. ``GET /stats`` returns the counters: completion
requests, TCP connections that carried at least one of them, and the
high-water mark of requests in flight. Connections may be kept alive
(HTTP/1.1), so a client that reuses connections shows fewer connections than
requests.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# How long each completion request is held before its reply is sent.
HOLD_MS = 5.0

# Bare actions and actions after a line of prose, so parsing has to scan.
REPLIES = (
    "GATHER",
    "There is food underfoot.\nGATHER",
    "GATHER",
    "MOVE N",
    "MOVE E",
    "MOVE S W",
    "Heading west to find a node.\nMOVE W",
    "REST",
    "TRAIN STR",
    "TRAIN INT",
    "TRADE 0 2f0t 0f1t",
    "ATTACK 1",
)
PROPOSAL_REPLIES = ("ACCEPT", "REJECT")


def reply_for(prompt: str) -> str:
    """Deterministic canned reply for one prompt."""
    options = PROPOSAL_REPLIES if "ACCEPT or REJECT" in prompt else REPLIES
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    return options[int.from_bytes(digest[:4], "big") % len(options)]


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.inflight_max = 0

    def stats(self) -> dict[str, int]:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections,
                    "inflight_max": self.inflight_max}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.served = 0

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        server = self.server
        with server.lock:
            server.requests += 1
            if self.served == 0:
                server.connections += 1
            server.in_flight += 1
            server.inflight_max = max(server.inflight_max, server.in_flight)
        self.served += 1
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            text = reply_for(body["messages"][0]["content"])
            time.sleep(HOLD_MS / 1000.0)
            self._send(200, {"choices": [{"message": {"role": "assistant",
                                                      "content": text}}]})
        finally:
            with server.lock:
                server.in_flight -= 1

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._send(200, self.server.stats())
        else:
            self._send(404, {"error": "not found"})

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class StubProcess:
    """Parent-side handle: starts the stub as a child process, reads its
    counters, and stops it (waiting until it has exited)."""

    START_TIMEOUT = 30.0

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("port "):
                raise RuntimeError(f"stub did not start (got {line!r})")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats",
                                    timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "StubProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main() -> int:
    server = StubServer()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
