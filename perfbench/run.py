"""lusym benchmark: seeded inputs, closed-loop workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]

Run from the repository root. lusym is imported from ./src, so each checkout
measures its own code. One process, one client: the next op starts when the
previous one returns. With --trace 0 the last line of output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a separate traced run. The lines before it give each metric with its unit and
sample count, and the environment the run had. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dense-circuits", "coset-normalizer", "strata-queries", "cli-cold")
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
TIME_LIMIT_S = 170.0  # a run must end within 180 s



def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(args: list[str], deadline: float, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start worker.py, time it from start to its ``ready`` line, and return
    that set-up time, the host speed factor measured right after it, and the
    worker's result (None for --setup-only)."""
    argv = [sys.executable, str(BENCH / "worker.py"), *args]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    # Its own session, so that the watchdog also stops a CLI child it started.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        speed = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or not speed.startswith("speed ") or code != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code} before finishing")
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return setup_s, float(speed.split()[1]), result


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, speed, _ = spawn_worker(args, deadline, setup_only=True)
            setups.append((setup_s, speed))
    setup_s, speed, result = spawn_worker(args, deadline, setup_only=False)
    setups.append((setup_s, speed))
    result["setups"] = setups
    return result


def end_to_end(result: dict) -> tuple[dict, dict, dict]:
    """Metric values scaled to the reference speed, the raw values, and the
    sample counts."""
    lat = sorted(result["latencies"])
    n = len(lat)
    raw = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[-1],
        "cpu_ms_per_op": 1000.0 * result["cpu_s"] / n,
        "setup_s": statistics.median(s for s, _ in result["setups"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    speed = result["speed"]
    values = dict(raw)
    values["ops_per_s"] /= speed
    for key in ("op_p50_ms", "op_p90_ms", "cpu_ms_per_op"):
        values[key] *= speed
    values["setup_s"] = statistics.median(s * f for s, f in result["setups"])
    samples = dict.fromkeys(values, n)
    samples["setup_s"] = len(result["setups"])
    samples["peak_rss_mb"] = 1
    return values, raw, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lusym" / "__init__.py").is_file():
        print(f"error: no lusym package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + TIME_LIMIT_S * len(names)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        for err in result["errors"]:
            print(f"{name}: failed op: {err}")
        print(f"{name}: fail_frac = {result['failed'] / result['attempted']:.4f} "
              f"({result['failed']} of {result['attempted']} ops)")
        if len(result["latencies"]) < 2:
            print(f"error: {name}: fewer than two ops succeeded", file=sys.stderr)
            return 1
        if args.trace:
            values = result["per_layer"]
            for absent in result["absent"]:
                print(f"{name}: {absent} is absent from this checkout; reported as 0")
            lines = [f"{key} = {value:.6g} {units.get(key)}" for key, value in values.items()]
        else:
            values, raw, samples = end_to_end(result)
            lines = [f"{key} = {value:.6g} {units.get(key)} (n={samples[key]}; unscaled {raw[key]:.6g})"
                     for key, value in values.items()]
        if set(values) != set(units):
            print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
                  file=sys.stderr)
            return 1
        for line in lines:
            print(f"{name}: {line}")
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
