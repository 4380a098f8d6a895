"""Run one tangentkit CLI command with span tracing on.

Usage: ``python perfbench/trace_child.py <cli arguments>``.  Behaves like
``python -m tangentkit.cli`` (same stdout and exit code) and writes its span
statistics as one JSON line at the end of stderr.
"""

import json
import sys

import spans
import tangentkit.cli

if __name__ == "__main__":
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = tangentkit.cli.dispatch(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.dump()) + "\n")
    sys.exit(code)
