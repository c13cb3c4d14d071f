"""Run one binsys CLI request with the layer tracer installed.

Used by traced cli-requests runs in place of ``python -m binsys``: same
arguments, same stdout and exit code.  The aggregates and the time taken
to import ``binsys.cli`` go to the JSON file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import binsys.cli  # noqa: E402 - timed import

import_s = time.perf_counter() - t0

import layers  # noqa: E402

tracer = layers.Tracer()
layers.install(tracer)
try:
    with tracer.span(f"cli.main.{sys.argv[1]}"):
        code = binsys.cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.dump(), import_s=import_s), fh)
sys.exit(code)
