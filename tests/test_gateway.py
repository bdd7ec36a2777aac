import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HANG_UP, STALL, LoopbackEndpoint, refused_url
from lakeforge import gateway
from lakeforge.common import CacheMiss, GatewayError
from lakeforge.gateway import (
    DEFAULT_MODEL,
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
    a = request_digest(CompletionRequest(prompt="hello world"), DEFAULT_MODEL)
    b = request_digest(CompletionRequest(prompt="hello  world"), DEFAULT_MODEL)
    assert a != b


def test_digest_invariant_under_config_whitespace(tmp_path):
    req = CompletionRequest(prompt="p")
    a = request_digest(req, "text-davinci-003")
    b = request_digest(req, "  text-davinci-003 ")
    assert a == b
    # the gateway keys its cache by its config's model
    LlmGateway(
        GatewayConfig(mode="record", cache_dir=tmp_path, model="  text-davinci-003 "),
        transport=lambda r: "ok",
    ).complete(req)
    assert LlmGateway(GatewayConfig(mode="replay", cache_dir=tmp_path)).complete(req) == "ok"


def test_default_model_digest_is_unchanged():
    # pinned: if a default-model key changed, existing replay caches would miss
    assert request_digest(CompletionRequest(prompt="p"), DEFAULT_MODEL) == (
        "8cd0d71cbb00e89902f7939e49cd541ea7b1eecb03d7f2edc4b6d6a6aa1482c2"
    )


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
    assert err.value.digest == request_digest(req, DEFAULT_MODEL)


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


def _echo(payload):
    return 200, {"choices": [{"text": f"echo: {payload['prompt'][:20]}"}]}


def test_live_mode_against_local_endpoint(tmp_path):
    with LoopbackEndpoint(_echo) as endpoint:
        gw = LlmGateway(GatewayConfig(mode="record", cache_dir=tmp_path, endpoint=endpoint.url))
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
    entry = tmp_path / f"{request_digest(req, DEFAULT_MODEL)}.json"
    entry.write_bytes(content)
    for mode in ("replay", "record"):
        gw = LlmGateway(
            GatewayConfig(mode=mode, cache_dir=tmp_path),
            transport=lambda r: pytest.fail("a corrupt entry was re-fetched"),
        )
        with pytest.raises(GatewayError, match="corrupt cache entry") as err:
            gw.complete(req)
        assert str(entry) in str(err.value) and reason in str(err.value)


def _live_gateway(url, **config):
    gw = LlmGateway(GatewayConfig(mode="live", endpoint=url, **config))
    gw._sleep = lambda s: None
    return gw


@pytest.mark.parametrize("status, attempts", [(400, 1), (401, 1), (404, 1), (429, 3), (500, 3), (503, 3)])
def test_http_status_retry_discipline(status, attempts):
    body = "request denied " + "x" * 300
    with LoopbackEndpoint([(status, body)]) as endpoint:
        with pytest.raises(GatewayError) as err:
            _live_gateway(endpoint.url).complete(CompletionRequest(prompt="p"))
    noun = "attempt" if attempts == 1 else "attempts"
    assert str(err.value) == f"completion failed after {attempts} {noun}: endpoint returned HTTP {status}: {body[:200]}"
    assert len(endpoint.received) == attempts


def test_timeouts_and_connection_errors_are_retried():
    # a stalled answer times out, a hung-up one drops the connection
    with LoopbackEndpoint([STALL, HANG_UP, (200, {"choices": [{"text": "ok"}]})]) as endpoint:
        assert _live_gateway(endpoint.url, timeout=0.1).complete(CompletionRequest(prompt="p")) == "ok"
    assert len(endpoint.received) == 3


def test_refused_connection_is_retried_with_backoff():
    gw = _live_gateway(refused_url())
    sleeps = []
    gw._sleep = sleeps.append
    with pytest.raises(GatewayError, match="after 3 attempts: .*Connection refused"):
        gw.complete(CompletionRequest(prompt="p"))
    assert sleeps == [0.5, 1.0]


def test_unusable_response_is_not_retried():
    for body, reason in [({"unexpected": 1}, "no completion text"), (["text"], "no completion text"),
                         ({"choices": [{}]}, "no completion text"), ({"text": None}, "no completion text"),
                         ({"choices": [{"text": 5}]}, "no completion text"), ({"choices": ["x"]}, "no completion text"),
                         ("<html>", "Expecting value")]:
        with LoopbackEndpoint([(200, body)]) as endpoint:
            with pytest.raises(GatewayError, match=f"after 1 attempt: .*{reason}"):
                _live_gateway(endpoint.url).complete(CompletionRequest(prompt="p"))
        assert len(endpoint.received) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed(monkeypatch, status):
    # following it would send the bearer token to wherever the reply points
    monkeypatch.setenv("LAKEFORGE_API_KEY", "k1")
    with LoopbackEndpoint([(200, {"text": "elsewhere"})]) as other:
        with LoopbackEndpoint([(status, "moved", {"Location": other.url})]) as endpoint:
            with pytest.raises(GatewayError, match=f"after 1 attempt: endpoint returned HTTP {status}: moved$"):
                _live_gateway(endpoint.url).complete(CompletionRequest(prompt="p"))
    assert len(endpoint.received) == 1 and other.received == []


def test_non_http_endpoint_is_refused(tmp_path):
    with pytest.raises(GatewayError, match="after 1 attempt: endpoint 'file:.*' is not an http\\(s\\) URL"):
        _live_gateway((tmp_path / "x").as_uri()).complete(CompletionRequest(prompt="p"))


def test_payload_carries_the_configured_model(monkeypatch):
    monkeypatch.setenv("LAKEFORGE_API_KEY", "k1")
    with LoopbackEndpoint([(200, {"text": "ok"})]) as endpoint:
        gw = LlmGateway(GatewayConfig(mode="live", endpoint=endpoint.url, model="m2"))
        assert gw.complete(CompletionRequest(prompt="p", max_tokens=64, temperature=0.3)) == "ok"
    [(headers, payload)] = endpoint.received
    assert payload == {"model": "m2", "prompt": "p", "max_tokens": 64, "temperature": 0.3}
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer k1"


def test_endpoint_and_key_come_from_the_environment(monkeypatch):
    monkeypatch.delenv("LAKEFORGE_API_KEY", raising=False)
    with LoopbackEndpoint([(200, {"completion": "ok"})]) as endpoint:
        monkeypatch.setenv("LAKEFORGE_ENDPOINT", endpoint.url)
        assert LlmGateway(GatewayConfig(mode="live")).complete(CompletionRequest(prompt="p")) == "ok"
    [(headers, payload)] = endpoint.received
    assert "Authorization" not in headers and payload["model"] == DEFAULT_MODEL


@st.composite
def _wire_text(draw):
    """Text holding a non-ASCII, an astral, a quote, a backslash and a
    newline character, in a drawn order among drawn text."""
    any_char = st.characters(blacklist_categories=("Cs",))  # every code point UTF-8 carries
    required = [
        draw(st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, blacklist_categories=("Cs",))),
        draw(st.characters(min_codepoint=0x10000)),
        '"', "\\", "\n",
    ]
    fillers = draw(st.lists(st.text(any_char, max_size=4), min_size=6, max_size=6))
    return "".join(f + r for f, r in zip(fillers, draw(st.permutations(required)) + [""]))


def test_text_crosses_the_wire_unchanged():
    # the endpoint answers in raw UTF-8 JSON with the prompt reversed
    with LoopbackEndpoint(lambda payload: (200, {"choices": [{"text": payload["prompt"][::-1]}]})) as endpoint:
        gw = _live_gateway(endpoint.url, retries=1)

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(_wire_text())
        def check(prompt):
            endpoint.received.clear()
            assert gw.complete(CompletionRequest(prompt=prompt)) == prompt[::-1]
            assert [payload["prompt"] for _, payload in endpoint.received] == [prompt]

        check()


def test_live_check_runs_on_the_standard_library_alone():
    # the script CI runs under every Python version: -S keeps site-packages,
    # and so any third-party HTTP client, off the path
    src = Path(gateway.__file__).parents[1]
    script = Path(__file__).parents[1] / ".github" / "live_check.py"
    result = subprocess.run(
        [sys.executable, "-S", str(script)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"completion": 'HÉLLO 😀 "LIVE"\\\n'}
