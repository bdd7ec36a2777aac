"""Text-completion gateway with deterministic record/replay caching.

Modes:
  live    - POST to the configured endpoint, no cache interaction.
  record  - serve from cache when present, otherwise call and store.
  replay  - cache only; a miss is an error carrying the request digest.

The cache key is a SHA-256 digest of the canonicalized request and the
configured model: the prompt is hashed byte-exact, the model name
whitespace-normalized.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .common import CacheMiss, GatewayError, canonical_json

DEFAULT_MODEL = "text-davinci-003"
# Diversity for value generation, fidelity for perturbation.
GEN_TEMPERATURE = 0.7
PERTURB_TEMPERATURE = 0.2

ENV_API_KEY = "LAKEFORGE_API_KEY"
ENV_ENDPOINT = "LAKEFORGE_ENDPOINT"


@dataclass
class CompletionRequest:
    prompt: str
    max_tokens: int = 512
    temperature: float = GEN_TEMPERATURE

    def validate(self) -> None:
        if not self.prompt:
            raise GatewayError("prompt must be non-empty")
        if not (0.0 <= self.temperature <= 2.0):
            raise GatewayError(f"temperature {self.temperature} outside [0, 2]")


def request_digest(req: CompletionRequest, model: str) -> str:
    core = {
        "model": " ".join(model.split()),
        "prompt": req.prompt,
        "max_tokens": int(req.max_tokens),
        "temperature": float(req.temperature),
    }
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


@dataclass
class GatewayConfig:
    mode: str = "replay"  # live | record | replay
    cache_dir: str | Path | None = None
    endpoint: str | None = None  # else $LAKEFORGE_ENDPOINT; $LAKEFORGE_API_KEY is the bearer token
    model: str = DEFAULT_MODEL
    timeout: float = 60.0
    retries: int = 3


class HttpStatusError(GatewayError):
    def __init__(self, status: int, text: str):
        self.status = status
        super().__init__(f"endpoint returned HTTP {status}: {text[:200]}")


def _retryable(exc: Exception) -> bool:
    """Timeouts, connection errors, HTTP 429 and 5xx may pass on another
    attempt; any other failure, a 4xx included, will not."""
    if isinstance(exc, HttpStatusError):
        return exc.status == 429 or exc.status >= 500
    return isinstance(exc, (ConnectionError, TimeoutError))


class LlmGateway:
    """Completion client; cache writes are atomic (write-temp-then-rename)."""

    def __init__(self, config: GatewayConfig | None = None, transport=None):
        self.config = config or GatewayConfig()
        self._transport = transport  # callable(CompletionRequest) -> str, for tests
        self._sleep = time.sleep

    def _cache_path(self, digest: str) -> Path:
        if self.config.cache_dir is None:
            raise GatewayError("cache_dir required for record/replay modes")
        return Path(self.config.cache_dir) / f"{digest}.json"

    def _cache_read(self, digest: str) -> str | None:
        path = self._cache_path(digest)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise GatewayError(f"corrupt cache entry {path}: {exc}") from None
        if not isinstance(entry, dict) or not isinstance(entry.get("response"), str):
            raise GatewayError(f'corrupt cache entry {path}: no "response" string')
        return entry["response"]

    def _cache_write(self, digest: str, req: CompletionRequest, response: str) -> None:
        path = self._cache_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": digest,
            "model": self.config.model,
            "prompt": req.prompt,
            "response": response,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(entry, f, ensure_ascii=False, indent=2)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _call_endpoint(self, req: CompletionRequest) -> str:
        if self._transport is not None:
            return self._transport(req)
        endpoint = self.config.endpoint or os.environ.get(ENV_ENDPOINT)
        if not endpoint:
            raise GatewayError(f"no endpoint configured (flag or {ENV_ENDPOINT})")
        # imported here, as only a live call needs them: at the top, every CLI start would load ssl
        from urllib.error import HTTPError, URLError
        from urllib.request import HTTPRedirectHandler, Request, build_opener
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(ENV_API_KEY)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": self.config.model,
            "prompt": req.prompt,
            "max_tokens": req.max_tokens,
            "temperature": req.temperature,
        }
        post = Request(endpoint, json.dumps(payload).encode(), headers)
        if post.type not in ("http", "https"):  # the opener would also read file: and data: URLs
            raise GatewayError(f"endpoint {endpoint!r} is not an http(s) URL")
        no_redirect = HTTPRedirectHandler()  # following a 3xx would carry the bearer token to its target
        no_redirect.redirect_request = lambda *args: None
        try:
            with build_opener(no_redirect).open(post, timeout=self.config.timeout) as resp:
                status, raw = resp.status, resp.read()
        except HTTPError as exc:  # any status from 300 up
            with exc:
                status, raw = exc.code, exc.read()
        except URLError as exc:  # a refused connection or a timeout stays retryable
            raise (exc.reason if isinstance(exc.reason, OSError) else ConnectionError(exc.reason)) from None
        if status != 200:
            raise HttpStatusError(status, raw.decode("utf-8", "replace"))
        body, text = json.loads(raw), None
        if isinstance(body, dict):
            choices = body.get("choices")
            if isinstance(choices, list) and choices:
                text = choices[0].get("text") if isinstance(choices[0], dict) else None
            else:
                text = body.get("text", body.get("completion"))
        if not isinstance(text, str):
            raise GatewayError("endpoint response carries no completion text")
        return text

    def _call_with_retries(self, req: CompletionRequest) -> str:
        """Call the endpoint up to `retries` times (at least once), backing off
        between attempts; only a retryable failure earns another attempt."""
        attempts = max(1, self.config.retries)
        for attempt in range(1, attempts + 1):
            try:
                return self._call_endpoint(req)
            except Exception as exc:  # noqa: BLE001 - network layer
                if attempt == attempts or not _retryable(exc):
                    noun = "attempt" if attempt == 1 else "attempts"
                    raise GatewayError(f"completion failed after {attempt} {noun}: {exc}") from None
                self._sleep(0.5 * (2 ** (attempt - 1)))

    def complete(self, req: CompletionRequest, mode: str | None = None) -> str:
        req.validate()
        mode = mode or self.config.mode
        if mode == "live":
            return self._call_with_retries(req)
        if mode not in ("record", "replay"):
            raise GatewayError(f"unknown gateway mode {mode!r}")
        digest = request_digest(req, self.config.model)
        cached = self._cache_read(digest)
        if cached is not None:
            return cached
        if mode == "replay":
            raise CacheMiss(digest)
        response = self._call_with_retries(req)
        self._cache_write(digest, req, response)
        return response
