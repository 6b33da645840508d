"""The program process the benchmark launches.

Usage::

    python perfbench/child.py REPORT.json [--trace TRACE.json] -- ARGS...

Imports ``repro.cli``, then calls ``repro.cli.main(ARGS)`` and writes
REPORT.json with ``time.monotonic()`` stamps (``ready_at`` once the
import is done, ``call_start``), the host time of the call
(``wall_s``) and this process's CPU time during it (``cpu_s``).  With
``--trace`` the tracing shim wraps the layer entry points after the
import and writes its span tables to TRACE.json when the call returns.
"""

import json
import sys
import time


def main(argv):
    started = time.monotonic()
    report_path, rest = argv[0], argv[1:]
    trace_path = None
    if rest[0] == "--trace":
        trace_path, rest = rest[1], rest[2:]
    if rest[0] != "--":
        raise SystemExit("usage: child.py REPORT.json [--trace TRACE.json] -- ARGS...")
    args = rest[1:]

    import repro.cli

    ready_at = time.monotonic()
    tracer = None
    if trace_path is not None:
        import trace_shim

        tracer = trace_shim.install(snapshot_path=trace_path)
    call_start = time.monotonic()
    cpu_start = time.process_time()
    if tracer is None:
        code = repro.cli.main(args)
    else:
        code = tracer.root(repro.cli.main, args)
    wall_s = time.monotonic() - call_start
    cpu_s = time.process_time() - cpu_start
    report = {
        "import_s": ready_at - started,
        "ready_at": ready_at,
        "call_start": call_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "code": code,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
