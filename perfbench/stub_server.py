"""A canned-response stand-in for ``repro serve``.

Usage: ``python perfbench/stub_server.py`` prints ``serving on
http://127.0.0.1:PORT`` and answers every request with a fixed job
record until it is terminated.  ``serve-mix`` drives it closed-loop to
measure how fast the load generator itself can go (``gen.ceiling_rps``),
so a slow harness cannot pass for a slow daemon.
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CANNED = json.dumps({
    "id": "j000001", "key": "0" * 24, "state": "done", "source": "cache",
    "latency_s": 0.0001,
    "spec": {"kind": "run", "machine": "paxville", "machine_fingerprint": "0" * 12,
             "problem_class": "S", "scheduler": "linux_default",
             "workload": "CG", "config": "serial"},
}, sort_keys=True).encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def _reply(self, status):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(CANNED)))
        self.end_headers()
        self.wfile.write(CANNED)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self._reply(202)

    def do_GET(self):  # noqa: N802
        self._reply(200)


if __name__ == "__main__":
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    print(f"serving on http://127.0.0.1:{server.server_address[1]}", flush=True)
    server.serve_forever()
