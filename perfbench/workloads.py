"""The four benchmark workloads: seeded inputs, the op each input drives, and
the checks every op's output must pass.

Inputs are plain data (labels and amplitudes) drawn from a generator seeded by
the workload name and the seed, so they never depend on the code under test.
lusym receives only the PureState / Support objects, or the state and group
files of the CLI workload. Calls go through module attributes (`analysis.analyze`,
not a copied binding) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from lusym import analysis, exactlinalg, serialize, states, symmetry
from lusym.fixtures import fixture_names, fixture_state

NESTED_VERDICTS = ("equal", "a_closure_contains_b")
ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


# ------------------------------------------------------------ generators

def _label(x: int, n: int) -> str:
    return format(x, f"0{n}b")


def _random_labels(rng, n: int, count: int) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        out.add(_label(rng.getrandbits(n), n))
    return sorted(out)


def _coset_labels(rng, n: int, dim: int) -> list[str]:
    """One coset x ^ F of a random dim-dimensional flip subgroup F of GF(2)^n."""
    while True:
        span = {0}
        for _ in range(dim):
            m = rng.getrandbits(n)
            span |= {s ^ m for s in span}
        if len(span) == 2**dim:
            break
    x = rng.getrandbits(n)
    return sorted(_label(x ^ s, n) for s in span)


def _w_labels(n: int) -> list[str]:
    return [_label(1 << (n - 1 - k), n) for k in range(n)]


def _amplitudes(rng, labels: list[str]) -> dict[str, list[float]]:
    """Random normalized amplitudes, magnitudes in [0.5, 1.5] before scaling."""
    raw = {lab: rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random()) for lab in labels}
    norm = math.sqrt(sum(abs(c) ** 2 for c in raw.values()))
    return {lab: [(c / norm).real, (c / norm).imag] for lab, c in raw.items()}


def _state(amps: dict[str, list[float]]) -> states.PureState:
    return states.PureState.from_amplitudes({lab: complex(*p) for lab, p in amps.items()})


# ------------------------------------------------- independent exact checks

def _signs(label: str) -> list[int]:
    return [1 if ch == "0" else -1 for ch in label]


def _rank(rows: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def stabilizer_masks(labels: list[str]) -> list[str]:
    """All masks t with labels ^ t == labels. Every such mask permutes the sign
    rows, so the solved group passes its phase condition: the normalizer's
    flips are exactly these."""
    n = len(labels[0])
    ints = {int(lab, 2) for lab in labels}
    base = int(labels[0], 2)
    masks = (base ^ y for y in ints)
    return sorted(_label(t, n) for t in masks if all(x ^ t in ints for x in ints))


def strict_loads(text: str):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""

    def reject(token):
        raise CheckFailed(f"non-finite number {token} in JSON output")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_report(text: str, labels: list[str]) -> tuple[dict, dict]:
    """Check one analyze report; return (answers, counts).

    Answers are what must not change for the same input: torus rank,
    invariant factors, circuits with their relations, and flip masks. The
    basis and the report bytes may change and are not compared.
    """
    rep = strict_loads(text)
    if rep["verification"]["passed"] is not True:
        raise CheckFailed("verification did not pass")
    n = len(labels[0])
    circuits = []
    for c in rep["circuits"]:
        members, rel = c["members"], c["relation"]
        vectors = [_signs(lab) for lab in members]
        if any(sum(z * v[k] for z, v in zip(rel, vectors)) for k in range(n)):
            raise CheckFailed(f"relation {rel} does not annihilate {members}")
        lead = next(z for z in rel if z)
        circuits.append([sorted(members), [z if lead > 0 else -z for z in rel]])
    torus_rank = rep["group_flags"]["torus_rank"]
    expected = n + 1 - _rank([_signs(lab) + [1] for lab in labels])
    if torus_rank != expected:
        raise CheckFailed(f"torus rank {torus_rank}, expected {expected}")
    flips = sorted(rep["normalizer"]["flips"]["masks"])
    tested = stabilizer_masks(labels)
    if flips != tested:
        raise CheckFailed(f"flip masks {flips}, expected the stabilizer masks {tested}")
    factors = sorted(f["order"] for f in rep["group"]["finite"])
    circuits.sort()
    answers = {
        "torus_rank": torus_rank,
        "factors": factors,
        "flips": flips,
        "circuits": len(circuits),
        "circuits_sha256": _digest(circuits),
    }
    counts = {
        "circuits.found": len(circuits),
        "normalizer.masks_tested": len(tested),
        "normalizer.masks_kept": len(flips),
        "symmetry.torus_rank": torus_rank,
        "symmetry.finite_gens": len(factors),
        "serialize.report_bytes": len(text.encode()),
        "analysis.verify_checks": len(rep["verification"]["checks"]),
    }
    return answers, counts


def snf_max_bits(labels: list[str]) -> int:
    """Largest bit length in the Smith decomposition of the support's sign matrix."""
    dec = exactlinalg.smith_normal_form(
        exactlinalg.IntMatrix([_signs(lab) + [1] for lab in labels])
    )
    return max(abs(x).bit_length() for m in (dec.u, dec.d, dec.v) for row in m.row_tuples() for x in row)


# ------------------------------------------------------------ calibration
#
# The host's speed drifts by a third within minutes, for reasons outside this
# process. Ops are timed next to fixed work that no change to lusym can alter,
# and times are scaled by calibration_ref_s / mean(calibration times) to read
# as on a host where the calibration takes calibration_ref_s.

def calibrate_python() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic."""
    t0 = perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(10)] for i in range(9)]
    r = 0
    for c in range(10):
        p = next((i for i in range(r, 9) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(9):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    labels = {format(i * 2654435761 % 4096, "012b"): i for i in range(1000)}
    sum(len(k) for k in sorted(labels))
    return perf_counter() - t0


def calibrate_process() -> float:
    """Seconds taken by a fresh interpreter importing a few stdlib modules."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json"], check=True)
    return perf_counter() - t0


# ------------------------------------------------------------ workloads

class AnalyzeWorkload:
    """analyze() + dump_report() on one state per op."""

    calibrate = staticmethod(calibrate_python)
    calibration_ref_s = 0.005
    calibrate_every = 1

    def __init__(self, name: str, schedule):
        self.name = name
        self.schedule = schedule

    def generate(self, rng) -> list[dict]:
        return [{"amps": _amplitudes(rng, labels)} for labels in self.schedule(rng)]

    def prepare(self, spec: dict, workdir: Path, index: int):
        return _state(spec["amps"])

    def run(self, psi):
        return serialize.dump_report(analysis.analyze(psi))

    def check(self, spec: dict, output) -> tuple[dict, dict]:
        return check_report(output, sorted(spec["amps"]))

    def solver_counts(self, spec: dict) -> dict:
        return {"exactlinalg.snf_max_bits": snf_max_bits(sorted(spec["amps"]))}


def _dense_schedule(rng) -> list[list[str]]:
    # Random supports with at least three labels beyond n, where the circuit
    # DFS dominates, and one W_n per round: full rank, no circuits, yet the
    # DFS still visits all 2^n independent subsets. Every round holds each
    # size once, so a run's mix of costs does not depend on the seed.
    sizes = [(6, 12), (6, 13), (6, 14), (7, 12), (7, 13), (7, 14),
             (8, 12), (8, 13), (9, 12), (9, 13), (10, 13)]
    pool = []
    for r in range(10):
        pool += [_random_labels(rng, n, L) for n, L in sizes]
        pool.append(_w_labels(10 + r % 3))
    return pool


def _coset_schedule(rng) -> list[list[str]]:
    # A coset of a 2- or 3-dimensional flip group: 4 or 8 stabilizer masks and
    # a large torus, so the phase filter's exact rank and membership work
    # dominates while there are almost no circuits.
    sizes = [(10, 2), (10, 3), (11, 2), (11, 3), (12, 2), (12, 3), (13, 2), (14, 2)]
    return [_coset_labels(rng, n, dim) for _ in range(15) for n, dim in sizes]


class StrataWorkload:
    """compare_strata(a, b) on one pair of supports per op."""

    name = "strata-queries"
    calibrate = staticmethod(calibrate_python)
    calibration_ref_s = 0.005
    calibrate_every = 1

    def generate(self, rng) -> list[dict]:
        # n=8-14 with L from n/2 to n (n+2 up to n=11). Three in four pairs
        # are nested: b drops one or two labels of a, so every generator is
        # checked. The others are independent draws and mostly exit early as
        # incomparable. Every round holds each size once.
        sizes = [(n, L) for n in range(8, 15) for L in (n // 2, n - 1, n)]
        sizes += [(n, n + 2) for n in range(8, 12)]
        pool = []
        for i in range(13 * len(sizes)):
            n, L = sizes[i % len(sizes)]
            a = _random_labels(rng, n, L)
            nested = i % 4 != 3
            if nested:
                b = sorted(rng.sample(a, L - rng.randint(1, 2)))
            else:
                b = _random_labels(rng, n, L)
            pool.append({"a": a, "b": b, "nested": nested})
        return pool

    def prepare(self, spec: dict, workdir: Path, index: int):
        return states.Support.from_labels(spec["a"]), states.Support.from_labels(spec["b"])

    def run(self, pair):
        return analysis.compare_strata(*pair)

    def check(self, spec: dict, verdict) -> tuple[dict, dict]:
        if spec["nested"] and verdict not in NESTED_VERDICTS:
            raise CheckFailed(f"b is a subset of a, yet the verdict is {verdict!r}")
        return {"verdict": verdict}, {}

    def solver_counts(self, spec: dict) -> dict:
        """Counts of both supports' solved groups, averaged over the pair."""
        groups = [symmetry.solve_symmetry_group(states.Support.from_labels(spec[k])) for k in "ab"]
        return {
            "exactlinalg.snf_max_bits": max(snf_max_bits(spec[k]) for k in "ab"),
            "symmetry.torus_rank": sum(g.torus_rank for g in groups) / 2,
            "symmetry.finite_gens": sum(len(g.finite_factors) for g in groups) / 2,
        }


class CliWorkload:
    """One `python -m lusym.cli` process per op, run one after another."""

    name = "cli-cold"
    # Process start-up, not in-process arithmetic, dominates these ops, so
    # the calibration is a process too; every fourth op, as it costs ~70 ms.
    calibrate = staticmethod(calibrate_process)
    calibration_ref_s = 0.07
    calibrate_every = 4

    def generate(self, rng) -> list[dict]:
        pool = [{"cmd": "analyze", "fixture": name, "labels": sorted(fixture_state(name).amplitudes)}
                for name in fixture_names()]
        for n, L in [(4, 4), (4, 6), (5, 5), (5, 7), (6, 6)]:
            pool.append({"cmd": "analyze", "amps": _amplitudes(rng, _random_labels(rng, n, L))})
        for n, L in [(5, 4), (5, 6), (6, 5), (6, 7)]:
            pool.append({"cmd": "verify", "amps": _amplitudes(rng, _random_labels(rng, n, L))})
        for n, L in [(6, 6), (7, 8), (8, 8), (8, 9)]:
            a = _random_labels(rng, n, L)
            pool.append({"cmd": "compare", "a": a, "b": sorted(rng.sample(a, L - 1))})
        return pool

    def prepare(self, spec: dict, workdir: Path, index: int) -> list[str]:
        """CLI arguments; state and group files are written to workdir."""
        if spec["cmd"] == "compare":
            return ["compare", "--support-a", ",".join(spec["a"]),
                    "--support-b", ",".join(spec["b"]), "--json"]
        if "fixture" in spec:
            return ["analyze", "--fixture", spec["fixture"], "--json"]
        state_file = workdir / f"state{index}.json"
        n = len(next(iter(spec["amps"])))
        state_file.write_text(json.dumps({"n": n, "amplitudes": spec["amps"]}))
        if spec["cmd"] == "analyze":
            return ["analyze", "--input", str(state_file), "--json"]
        group = symmetry.solve_symmetry_group(states.Support.from_labels(sorted(spec["amps"])))
        group_file = workdir / f"group{index}.json"
        group_file.write_text(serialize.dump_group(group))
        return ["verify", "--input", str(state_file), "--group", str(group_file), "--json"]

    def run(self, args, traced_to: Path | None = None):
        if traced_to is None:
            argv = [sys.executable, "-m", "lusym.cli", *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("clitrace.py")), str(traced_to), *args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, spec: dict, output) -> tuple[dict, dict]:
        code, stdout, stderr = output
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()[-200:]}")
        answers: dict = {"exit": code}
        counts: dict = {}
        if spec["cmd"] == "analyze":
            labels = spec.get("labels") or sorted(spec["amps"])
            more, counts = check_report(stdout, labels)
            answers.update(more)
        elif spec["cmd"] == "verify":
            out = strict_loads(stdout)
            if out["passed"] is not True:
                raise CheckFailed("verification did not pass")
            counts["analysis.verify_checks"] = len(out["checks"])
        else:
            verdict = strict_loads(stdout)["verdict"]
            if verdict not in NESTED_VERDICTS:
                raise CheckFailed(f"b is a subset of a, yet the verdict is {verdict!r}")
            answers["verdict"] = verdict
        return answers, counts

    def solver_counts(self, spec: dict) -> dict:
        labels = spec.get("labels") or sorted(spec.get("amps", ()))
        return {"exactlinalg.snf_max_bits": snf_max_bits(labels)} if labels else {}


WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWorkload("dense-circuits", _dense_schedule),
        AnalyzeWorkload("coset-normalizer", _coset_schedule),
        StrataWorkload(),
        CliWorkload(),
    )
}

# The function whose untraced self time measures how much of an op the spans
# miss (trace.coverage).
COVERAGE_ROOT = {
    "dense-circuits": "analysis.analyze",
    "coset-normalizer": "analysis.analyze",
    "strata-queries": "analysis.compare_strata",
    "cli-cold": "analysis.analyze",
}
