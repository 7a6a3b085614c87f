"""In-process stand-in for an OpenAI-compatible completions endpoint.

Serves canned completions to the tests of `RemoteBackend`: answer
normally, answer with an HTTP error, or stall past the client timeout.
A malformed request (a bad Content-Length, or a body that is not a JSON
object) gets a 400 JSON reply; the payloads of the others are kept for
conformance checks.  It is built on the plant service's `BackgroundServer`
and `JsonHandler`, so those tests also run the handler's header parse and
its one-write reply.
"""

from __future__ import annotations

import json
import threading
import time

from plantagents.service import BackgroundServer, JsonHandler

MODES = ("ok", "error", "stall")


class _StubHandler(JsonHandler):
    server: "StubCompletionsServer"

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        try:
            raw = self._read_body()
            payload = json.loads(raw) if raw else {}
            if not isinstance(payload, dict):
                raise ValueError("request body is not a JSON object")
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            self._reply(400, {"error": {"message": f"malformed request: {exc}"}})
            return
        with self.server.lock:
            self.server.requests.append(
                {"path": self.path, "headers": self.headers, "payload": payload}
            )

        mode = self.server.mode
        if mode == "stall":
            time.sleep(self.server.stall_seconds)
            mode = "ok"
        if mode == "error":
            self._reply(self.server.error_status, {"error": {"message": "stub failure"}})
            return
        self._reply(
            200,
            {
                "id": "stub-completion",
                "object": "text_completion",
                "model": payload.get("model", "stub"),
                "choices": [{"index": 0, "text": self.server.completion_text}],
            },
        )


class StubCompletionsServer(BackgroundServer):
    def __init__(
        self,
        completion_text: str = "",
        mode: str = "ok",
        stall_seconds: float = 5.0,
        error_status: int = 500,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown stub mode {mode!r}")
        super().__init__((host, port), _StubHandler)
        self.completion_text = completion_text
        self.mode = mode
        self.stall_seconds = stall_seconds
        self.error_status = error_status
        self.requests: list[dict] = []
        self.lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"{self.base_url}/v1/completions"
