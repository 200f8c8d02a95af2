"""Traced counterpart of ``python -m tcla ARGS`` for the cli-cold workload:
runs one command line with every layer wrapped in spans, then saves the
spans and counters as JSON for the runner to merge.

    PYTHONPATH=src python3 perfbench/tracecli.py SPANS.json ARGS...
"""

import json
import sys
import time

import tracer

spans = tracer.Tracer()
start = time.perf_counter()
from tcla import cli  # noqa: E402  (timed as the import span)

spans.spans.append([tracer.IMPORT, start, time.perf_counter(), -1])
with tracer.traced_layers(spans):
    code = cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"spans": spans.spans, "counters": spans.counters}, handle)
sys.exit(code)
