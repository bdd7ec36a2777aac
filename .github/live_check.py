"""Complete one `live` request through lakeforge's gateway against a loopback
endpoint, using nothing outside the standard library.

Run from the repository root as `PYTHONPATH=src python -S .github/live_check.py`:
-S keeps site-packages off the path, so the check fails if the gateway needs a
third-party package. It prints one JSON line holding the completion, and
exits 0 only if the endpoint's answer came back unchanged.
"""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from lakeforge.gateway import CompletionRequest, GatewayConfig, LlmGateway

PROMPT = 'héllo 😀 "live"\\\n'


class _Upper(BaseHTTPRequestHandler):
    """Answer a completions POST with its prompt upper-cased, in raw UTF-8 JSON."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"choices": [{"text": payload["prompt"].upper()}]}, ensure_ascii=False).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def main() -> int:
    with HTTPServer(("127.0.0.1", 0), _Upper) as server:
        threading.Thread(target=server.handle_request, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_port}/v1/completions"
        gateway = LlmGateway(GatewayConfig(mode="live", endpoint=url, timeout=10.0, retries=1))
        completion = gateway.complete(CompletionRequest(prompt=PROMPT))
    print(json.dumps({"completion": completion}))
    return 0 if completion == PROMPT.upper() else 1


if __name__ == "__main__":
    sys.exit(main())
