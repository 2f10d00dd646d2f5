"""Regenerate perfbench/canonical.json: the answers for the default seed.

    python3 perfbench/record.py

Runs every input of every workload once at the default seed, checks it the
way the benchmark does, and writes the answers the benchmark compares
against. Run it only on code whose answers are known to be right; a correct
change to lusym never needs it, because the answers do not depend on the
basis chosen or the report bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import CANONICAL, DEFAULT_SEED, WORK, Session
from workloads import WORKLOADS


def main() -> int:
    WORK.mkdir(exist_ok=True)
    canonical = {}
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            session = Session(name, DEFAULT_SEED, None, Path(workdir))
            for i in range(len(session.specs)):
                session.op(i, False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if session.failed:
            print(f"{name}: {session.errors}", file=sys.stderr)
            return 1
        canonical[name] = [session.answers[i] for i in range(len(session.specs))]
        print(f"{name}: {len(session.specs)} inputs recorded")
    lines = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(a, sort_keys=True) for a in answers) + "\n]"
        for name, answers in canonical.items()
    ]
    CANONICAL.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
