"""Refresh the measured module shares in perfbench/workloads.json.

    python3 perfbench/shares.py

Runs `run.py --trace 1` once per workload at the default seed and length,
and records, per op, the share of time that each traced function spends in
its own body (self time) and the share of the subtrees that the workloads
were chosen to stress, with trace.coverage and trace.overhead_frac. The base
is the op's traced time: the root spans for in-process workloads, and the
whole process for cli-cold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RECORD = BENCH / "workloads.json"
SUBTREES = {
    "circuits.enumerate_circuits": "circuits.enumerate_circuits.incl_ms",
    "normalizer.phase_condition_filter": "normalizer.phase_condition_filter.incl_ms",
    "symmetry.group_contains": "symmetry.group_contains.incl_ms",
    "symmetry.solve_symmetry_group": "symmetry.solve_symmetry_group.incl_ms",
    "cli.import": "cli.import_ms",
}


def shares(metrics: dict, cli: bool) -> dict:
    if cli:
        base = metrics["cli.process_ms"]
    else:
        roots = ("analysis.analyze", "serialize.dump_report", "analysis.compare_strata")
        base = sum(metrics[f"{r}.incl_ms"] for r in roots)
    own = {key[: -len(".self_ms")]: value / base
           for key, value in metrics.items() if key.endswith(".self_ms")}
    if cli:
        own["cli.import"] = metrics["cli.import_ms"] / base
        own["cli.interp"] = metrics["cli.interp_ms"] / base
    own["untraced"] = 1.0 - sum(own.values())
    return {
        "base_ms_per_op": round(base, 1),
        "self": {k: round(v, 3) for k, v in sorted(own.items(), key=lambda kv: -kv[1]) if v >= 0.005},
        "subtree": {name: round(metrics[key] / base, 3) for name, key in SUBTREES.items()},
        "trace.coverage": round(metrics["trace.coverage"], 4),
        "trace.overhead_frac": round(metrics["trace.overhead_frac"], 4),
    }


def main() -> int:
    record = json.loads(RECORD.read_text())
    for name, entry in record.items():
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--trace", "1"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        entry["seed_shares"] = shares(metrics, name == "cli-cold")
        print(name, json.dumps(entry["seed_shares"]))
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
