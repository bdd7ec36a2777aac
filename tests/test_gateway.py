import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from lakeforge.common import CacheMiss, GatewayError
from lakeforge.gateway import (
    CompletionRequest,
    GatewayConfig,
    LlmGateway,
    request_digest,
)


def test_empty_prompt_rejected():
    with pytest.raises(GatewayError, match="non-empty"):
        CompletionRequest(prompt="").validate()


def test_temperature_range():
    with pytest.raises(GatewayError, match="temperature"):
        CompletionRequest(prompt="x", temperature=2.5).validate()


def test_digest_sensitive_to_prompt_bytes():
    a = request_digest(CompletionRequest(prompt="hello world"))
    b = request_digest(CompletionRequest(prompt="hello  world"))
    assert a != b


def test_digest_invariant_under_config_whitespace():
    a = request_digest(CompletionRequest(prompt="p", model="text-davinci-003"))
    b = request_digest(CompletionRequest(prompt="p", model="  text-davinci-003 "))
    assert a == b


def test_record_then_replay_byte_identical(tmp_path):
    calls = []

    def transport(req):
        calls.append(req.prompt)
        return "the é response\nlines"

    gw = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path), transport=transport)
    req = CompletionRequest(prompt="give me rows")
    first = gw.complete(req)
    assert first == "the é response\nlines"
    # replay never calls the transport again
    replay = LlmGateway(
        GatewayConfig(mode="replay", cache_dir=tmp_path),
        transport=lambda r: pytest.fail("replay hit the network"),
    )
    assert replay.complete(req) == first
    assert replay.complete(req) == first
    assert calls == ["give me rows"]


def test_record_mode_serves_cache_without_calling(tmp_path):
    gw = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path), transport=lambda r: "one")
    req = CompletionRequest(prompt="q")
    assert gw.complete(req) == "one"
    gw2 = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path), transport=lambda r: "two")
    assert gw2.complete(req) == "one"


def test_replay_miss_reports_digest(tmp_path):
    gw = LlmGateway(GatewayConfig(mode="replay", cache_dir=tmp_path))
    req = CompletionRequest(prompt="never recorded")
    with pytest.raises(CacheMiss) as err:
        gw.complete(req)
    assert err.value.digest == request_digest(req)


def test_retries_with_backoff():
    attempts = []

    def flaky(req):
        attempts.append(1)
        if len(attempts) < 3:
            raise ConnectionError("nope")
        return "ok"

    gw = LlmGateway(GatewayConfig(mode="live", retries=3), transport=flaky)
    gw._sleep = lambda s: None
    assert gw.complete(CompletionRequest(prompt="p")) == "ok"
    assert len(attempts) == 3


def test_exhausted_retries_raise():
    def dead(req):
        raise ConnectionError("still down")

    gw = LlmGateway(GatewayConfig(mode="live", retries=3), transport=dead)
    gw._sleep = lambda s: None
    with pytest.raises(GatewayError, match="after 3 attempts"):
        gw.complete(CompletionRequest(prompt="p"))


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        text = f"echo: {payload['prompt'][:20]}"
        body = json.dumps({"choices": [{"text": text}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/completions"
    server.shutdown()
    server.server_close()


def test_live_mode_against_local_endpoint(stub_endpoint, tmp_path):
    gw = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path, endpoint=stub_endpoint))
    out = gw.complete(CompletionRequest(prompt="hello endpoint"))
    assert out == "echo: hello endpoint"
    # recorded: replay works offline
    replay = LlmGateway(GatewayConfig(mode="replay", cache_dir=tmp_path))
    assert replay.complete(CompletionRequest(prompt="hello endpoint")) == out


def test_live_without_endpoint_errors():
    gw = LlmGateway(GatewayConfig(mode="live", retries=1))
    gw._sleep = lambda s: None
    with pytest.raises(GatewayError):
        gw.complete(CompletionRequest(prompt="p"))


def test_record_then_replay_serves_every_prompt(tmp_path):
    def transport(req):
        return f"resp:{req.prompt}"

    gw = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path), transport=transport)
    prompts = [f"prompt {i}" for i in range(20)]
    results = [gw.complete(CompletionRequest(prompt=p)) for p in prompts]
    assert results == [f"resp:{p}" for p in prompts]
    replay = LlmGateway(GatewayConfig(mode="replay", cache_dir=tmp_path))
    assert [replay.complete(CompletionRequest(prompt=p)) for p in prompts] == results


def test_single_attempt_reported_truthfully():
    attempts = []

    def dead(req):
        attempts.append(1)
        raise ConnectionError("down")

    gw = LlmGateway(GatewayConfig(mode="live", retries=0), transport=dead)
    gw._sleep = lambda s: pytest.fail("slept with no attempt left")
    with pytest.raises(GatewayError, match="after 1 attempt: down"):
        gw.complete(CompletionRequest(prompt="p"))
    assert len(attempts) == 1


@pytest.mark.parametrize(
    "content, reason",
    [(b"{not json", "Expecting"), (b"\xff\xfe", "utf-8"), (b'{"key": "k"}', '"response"'),
     (b'["response"]', '"response"'), (b'{"response": 7}', '"response"')],
)
def test_corrupt_cache_entry_names_file(tmp_path, content, reason):
    req = CompletionRequest(prompt="rows please")
    LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path), transport=lambda r: "ok").complete(req)
    entry = tmp_path / f"{request_digest(req)}.json"
    entry.write_bytes(content)
    for mode in ("replay", "record"):
        gw = LlmGateway(
            GatewayConfig(mode=mode, cache_dir=tmp_path),
            transport=lambda r: pytest.fail("a corrupt entry was re-fetched"),
        )
        with pytest.raises(GatewayError, match="corrupt cache entry") as err:
            gw.complete(req)
        assert str(entry) in str(err.value) and reason in str(err.value)


class _FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self.text = "request denied" if body is None else json.dumps(body)
        self._body = body

    def json(self):
        return self._body


def _patched_post(monkeypatch, outcomes):
    """Replace requests.post with a fake that plays `outcomes` in order (a
    response or an exception to raise), recording each call."""
    import requests

    calls = []

    def post(url, **kwargs):
        outcome = outcomes[min(len(calls), len(outcomes) - 1)]
        calls.append(url)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(requests, "post", post)
    return calls


def _live_gateway(retries=3):
    gw = LlmGateway(GatewayConfig(mode="live", endpoint="http://127.0.0.1:9/v1/completions", retries=retries))
    gw._sleep = lambda s: None
    return gw


@pytest.mark.parametrize("status, attempts", [(400, 1), (401, 1), (404, 1), (429, 3), (500, 3), (503, 3)])
def test_http_status_retry_discipline(monkeypatch, status, attempts):
    calls = _patched_post(monkeypatch, [_FakeResponse(status)])
    noun = "attempt" if attempts == 1 else "attempts"
    with pytest.raises(GatewayError, match=f"after {attempts} {noun}: endpoint returned HTTP {status}"):
        _live_gateway().complete(CompletionRequest(prompt="p"))
    assert len(calls) == attempts


def test_timeouts_and_connection_errors_are_retried(monkeypatch):
    import requests

    calls = _patched_post(
        monkeypatch,
        [requests.Timeout("slow"), requests.ConnectionError("refused"),
         _FakeResponse(200, {"choices": [{"text": "ok"}]})],
    )
    assert _live_gateway().complete(CompletionRequest(prompt="p")) == "ok"
    assert len(calls) == 3


def test_unusable_response_is_not_retried(monkeypatch):
    calls = _patched_post(monkeypatch, [_FakeResponse(200, {"unexpected": 1})])
    with pytest.raises(GatewayError, match="after 1 attempt: .*no completion text"):
        _live_gateway().complete(CompletionRequest(prompt="p"))
    assert len(calls) == 1
