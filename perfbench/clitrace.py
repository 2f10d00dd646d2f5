"""Run one lusym CLI command with its public functions traced.

    python3 perfbench/clitrace.py OUT.json <lusym cli arguments>

Behaves like `python -m lusym.cli <arguments>` (same output, same exit code)
and writes the import time, the time from script start to exit, and the spans
to OUT.json.
"""

import json
import sys
from time import perf_counter

start = perf_counter()

from tracer import Tracer  # noqa: E402

t0 = perf_counter()
import lusym.cli  # noqa: E402

import_s = perf_counter() - t0

tracer = Tracer()
tracer.op = 0
tracer.install()
try:
    code = lusym.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
with open(sys.argv[1], "w") as f:
    json.dump({"import_s": import_s, "elapsed_s": perf_counter() - start,
               "spans": tracer.spans, "absent": tracer.absent}, f)
sys.exit(code)
