"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1 [--setup-only]

It prints ``ready`` once lusym is imported, the inputs are generated and one
untimed warm-up op has run; run.py times set-up from process start to that
line. With --setup-only it stops there. Otherwise it runs ops one after
another until T seconds have passed and at least COUNT_INPUTS ops ran, checks
every output, and prints one JSON line with the raw measurements. Inputs are
taken in pool order; the pools interleave their input kinds, so the inputs a
run covers are a balanced sample however many it gets through.

With --trace 1 every input runs twice in a row, once untraced and once
traced, alternating which goes first; the traced half gives the per-layer
numbers and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import fmean
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import lusym  # noqa: E402

from tracer import TRACED, Tracer, summarize  # noqa: E402
from workloads import COVERAGE_ROOT, WORKLOADS, CheckFailed, CliWorkload  # noqa: E402

DEFAULT_SEED = 0
# Work counts are averaged over this many leading inputs, which every run
# covers, so that they repeat exactly for a given seed.
COUNT_INPUTS = 24
CANONICAL = BENCH / "canonical.json"
WORK = BENCH / "_work"


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Session:
    """Inputs, checks and measurements of one workload run."""

    def __init__(self, name: str, seed: int, canonical: list | None, workdir: Path):
        self.wl = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.cli = isinstance(self.wl, CliWorkload)
        self.cpu_clock = _children_cpu if self.cli else process_time
        self.specs = self.wl.generate(random.Random(f"{name}:{seed}"))
        self.items = [self.wl.prepare(s, workdir, i) for i, s in enumerate(self.specs)]
        self.canonical = canonical
        self.workdir = workdir
        self.tracer = None
        self.spans: list = []
        self.attempted = self.failed = 0
        self.cpu = 0.0
        self.errors: list[str] = []
        self.answers: dict[int, dict] = {}
        self.counts: dict[int, dict] = {}
        self.cli_times: list[tuple[float, float, float]] = []  # process, import, in-script
        self.calibration: list[float] = []

    def op(self, index: int, traced: bool) -> float | None:
        """Run, time and check one op; return its wall time, or None if it failed."""
        item = self.items[index % len(self.items)]
        spec_index = index % len(self.specs)
        trace_file = self.workdir / "trace.json"
        self.attempted += 1
        in_process_trace = traced and not self.cli
        run = functools.partial(self.wl.run, traced_to=trace_file) if traced and self.cli else self.wl.run
        start_cpu = self.cpu_clock()
        try:
            if in_process_trace:
                self.tracer.op = self.attempted
                self.tracer.install()
            try:
                t0 = perf_counter()
                out = run(item)
                t1 = perf_counter()
            finally:
                if in_process_trace:
                    self.tracer.uninstall()
            self.cpu += self.cpu_clock() - start_cpu
            answers, counts = self.wl.check(self.specs[spec_index], out)
            if self.canonical is not None and answers != self.canonical[spec_index]:
                raise CheckFailed(f"input {spec_index}: {answers} differs from canonical "
                                  f"{self.canonical[spec_index]}")
        except Exception as exc:  # an op that raises is a failed op, never a crash
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"input {spec_index}: {type(exc).__name__}: {exc}")
            return None
        self.answers.setdefault(spec_index, answers)
        self.counts.setdefault(spec_index, counts)
        if traced and self.cli:
            child = json.loads(trace_file.read_text())
            offset = len(self.spans)
            self.spans += [(n, s, e, p + offset if p >= 0 else -1, self.attempted)
                           for n, s, e, p, _ in child["spans"]]
            self.cli_times.append((t1 - t0, child["import_s"], child["elapsed_s"]))
        return t1 - t0

    def loop(self, seconds: float, trace: bool) -> dict:
        self.cpu = 0.0
        if trace and not self.cli:
            self.tracer = Tracer()
        plain, traced = [], []
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline or i < min(COUNT_INPUTS, len(self.items)):
            if not trace:
                plain.append(self.op(i, False))
                if i % self.wl.calibrate_every == 0:
                    self.calibration.append(self.wl.calibrate())
            else:
                order = (False, True) if i % 2 == 0 else (True, False)
                for t in order:
                    (traced if t else plain).append(self.op(i, t))
            i += 1
        pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
        result = {
            "latencies": [x for x in plain if x is not None],
            "cpu_s": self.cpu,
            "speed": self.wl.calibration_ref_s / fmean(self.calibration) if self.calibration else 1.0,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }
        if trace:
            result["per_layer"] = self.per_layer(pairs)
            result["absent"] = (self.tracer or Tracer()).absent
        return result

    def per_layer(self, pairs: list[tuple[float, float]]) -> dict:
        """Per-layer metrics from the traced ops; pairs holds the (untraced,
        traced) wall times of each input run both ways."""
        spans = self.tracer.spans if self.tracer else self.spans
        n_traced = max(len(pairs), 1)
        per_op = 1000.0 / n_traced
        out: dict[str, float] = {}
        table = summarize(spans)
        for name in TRACED:
            row = table[name]
            out[f"{name}.calls"] = row["calls"] / n_traced
            out[f"{name}.incl_ms"] = row["incl"] * per_op
            out[f"{name}.self_ms"] = row["self"] * per_op
        cli = self.cli_times
        k = max(len(cli), 1)
        out["cli.process_ms"] = 1000.0 * sum(p for p, _, _ in cli) / k
        out["cli.import_ms"] = 1000.0 * sum(i for _, i, _ in cli) / k
        out["cli.interp_ms"] = 1000.0 * sum(p - e for p, _, e in cli) / k
        out.update(self.count_metrics())
        root = table[COVERAGE_ROOT[self.name]]
        out["trace.coverage"] = 1.0 - root["self"] / root["incl"] if root["incl"] else 0.0
        plain_s = sum(p for p, _ in pairs)
        out["trace.overhead_frac"] = sum(t for _, t in pairs) / plain_s - 1.0 if plain_s else 0.0
        self.write_spans(spans)
        return out

    def count_metrics(self) -> dict:
        """Work counts per input, averaged over the inputs that report them.
        They come from returned objects and are computed outside timing."""
        totals: dict[str, list[float]] = {}
        for i, counts in self.counts.items():
            if i >= COUNT_INPUTS:
                continue
            merged = dict(counts, **self.wl.solver_counts(self.specs[i]))
            for key, value in merged.items():
                totals.setdefault(key, []).append(value)
        names = ("circuits.found", "normalizer.masks_tested", "normalizer.masks_kept",
                 "symmetry.torus_rank", "symmetry.finite_gens", "exactlinalg.snf_max_bits",
                 "serialize.report_bytes", "analysis.verify_checks")
        out = {n: sum(totals[n]) / len(totals[n]) if n in totals else 0.0 for n in names}
        tested = sum(totals.get("normalizer.masks_tested", []))
        kept = sum(totals.get("normalizer.masks_kept", []))
        out["normalizer.keep_ratio"] = kept / tested if tested else 0.0
        return out

    def write_spans(self, spans) -> None:
        path = WORK / f"spans-{self.name}-seed{self.seed}.jsonl"
        with open(path, "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")


def load_canonical(name: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(CANONICAL.read_text())[name]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(lusym.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lusym imported from {lusym.__file__}, not from this checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        session = Session(args.workload, args.seed, load_canonical(args.workload, args.seed), workdir)
        session.op(0, False)  # warm-up, untimed but checked
        print("ready", flush=True)
        samples = [session.wl.calibrate() for _ in range(12 // session.wl.calibrate_every)]
        print(f"speed {session.wl.calibration_ref_s / fmean(samples)}", flush=True)
        if args.setup_only:
            return 0
        result = session.loop(args.seconds, bool(args.trace))
        who = resource.RUSAGE_CHILDREN if session.cli else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
