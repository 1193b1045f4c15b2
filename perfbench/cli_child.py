"""Run one CLI task with tracing on, and record where its time went.

Usage: python3 cli_child.py TRACE_OUT [lambdatrees CLI arguments...]

Behaves like ``python -m lambdatrees`` (same stdout, same exit code) and
also writes a trace document to TRACE_OUT: the spans of every library
layer plus the task's phases in milliseconds.  ``interpreter_ms`` runs
from the parent's spawn time, passed in ``PERFBENCH_SPAWN_AT`` as a
``time.perf_counter`` reading (a system-wide monotonic clock on Linux),
to the first line of this script.
"""

import time

STARTED_AT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    spawned_at = float(os.environ["PERFBENCH_SPAWN_AT"])
    before_import = time.perf_counter()
    import lambdatrees.cli as cli

    after_import = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer().install(extra=[(cli, "_emit")])
    tracer.wrap_mapping(cli.COMMANDS, "cli.COMMANDS")
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    doc = tracer.to_json()
    funcs = doc["functions"]
    compute = sum(rec["total_s"] for name, rec in funcs.items()
                  if name.startswith("cli.COMMANDS["))
    emit = funcs.get("cli._emit", {}).get("total_s", 0.0)
    total = funcs["cli.main"]["total_s"]
    doc["phases"] = {
        "interpreter_ms": (STARTED_AT - spawned_at) * 1e3,
        "import_ms": (after_import - before_import) * 1e3,
        "parse_ms": (total - compute - emit) * 1e3,
        "compute_ms": compute * 1e3,
        "emit_ms": emit * 1e3,
    }
    with open(trace_path, "w") as handle:
        json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
