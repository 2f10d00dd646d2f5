"""Shared helpers for the test suite: seeded random supports and states,
random group elements, group conjugation by bit flips, a brute-force circuit
oracle, a schema validator wired to docs/schema/, and a time bound on each
test.
"""

import cmath
import faulthandler
import json
import math
import os
import pathlib
import random
import sys
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from lusym import DiagonalSymmetryGroup, PhaseVector, PureState, Support

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


# The longest one test may run, its setup and teardown included; the slowest
# takes about 5 s. Past it every thread's traceback is printed and the process
# exits, so a test that never returns fails the run instead of hanging it.
TEST_TIME_LIMIT_S = 120

# a copy of stderr taken before output capture, so the traceback is not lost
_TIMEOUT_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's sys.path only; the
    # tests that run `python -m lusym.cli` in a subprocess need it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    config.stash[_TIMEOUT_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_TIMEOUT_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_TIMEOUT_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def all_labels(n):
    return [format(x, f"0{n}b") for x in range(2**n)]


def random_support(rng: random.Random, n: int, max_labels: int, min_labels: int = 2) -> Support:
    size = rng.randint(min_labels, min(max_labels, 2**n))
    return Support.from_labels(rng.sample(all_labels(n), size))


def random_coset_support(rng: random.Random, n: int, dim: int) -> Support:
    """One coset x ^ F of a random dim-dimensional flip subgroup F of GF(2)^n:
    2^dim labels with a large torus and 2^dim stabilizer masks."""
    while True:
        span = {0}
        for _ in range(dim):
            m = rng.getrandbits(n)
            span |= {s ^ m for s in span}
        if len(span) == 2**dim:
            break
    x = rng.getrandbits(n)
    return Support.from_labels(format(x ^ s, f"0{n}b") for s in span)


def benchmark_pool_states(seed: int) -> list:
    """The 240 states of the dense-circuits and coset-normalizer benchmark
    pools of one seed, drawn by their recipe. The dense pool holds ten rounds
    of eleven random label sets, each with three or more labels beyond n, and
    one W_n; the coset pool holds cosets of 2- and 3-dimensional flip groups.
    Each pool draws all its label sets first, then the amplitudes of each:
    moduli in [0.5, 1.5] and uniform phases, normalized."""
    rng = random.Random(f"dense-circuits:{seed}")
    sizes = [(6, 12), (6, 13), (6, 14), (7, 12), (7, 13), (7, 14), (8, 12), (8, 13), (9, 12), (9, 13), (10, 13)]
    dense = []
    for r in range(10):
        for n, count in sizes:
            labels: set = set()
            while len(labels) < count:
                labels.add(format(rng.getrandbits(n), f"0{n}b"))
            dense.append(sorted(labels))
        n = 10 + r % 3
        dense.append([format(1 << (n - 1 - k), f"0{n}b") for k in range(n)])
    pools = [(rng, dense)]
    rng = random.Random(f"coset-normalizer:{seed}")
    sizes = [(10, 2), (10, 3), (11, 2), (11, 3), (12, 2), (12, 3), (13, 2), (14, 2)]
    pools.append((rng, [random_coset_support(rng, n, dim).labels for _ in range(15) for n, dim in sizes]))
    states = []
    for rng, pool in pools:
        for labels in pool:
            raw = {lab: rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random()) for lab in labels}
            norm = math.sqrt(sum(abs(c) ** 2 for c in raw.values()))
            states.append(PureState.from_amplitudes({lab: c / norm for lab, c in raw.items()}))
    return states


def complement_rich_support(rng: random.Random, n: int, L: int, pairs: int) -> Support:
    """L labels on n qubits holding at least `pairs` complement pairs {s, s XOR 1^n},
    whose sign vectors are opposite."""
    full = (1 << n) - 1
    chosen: set = set()
    while len(chosen) < 2 * pairs:
        x = rng.getrandbits(n)
        chosen |= {x, x ^ full}
    while len(chosen) < L:
        chosen.add(rng.getrandbits(n))
    return Support.from_labels(format(x, f"0{n}b") for x in chosen)


def random_state_on(rng: random.Random, support: Support) -> PureState:
    """Generic complex amplitudes on the given support, normalized, with every
    modulus bounded away from zero so genericity assumptions hold."""
    amps = {}
    for lab in support.labels:
        while True:
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(c) > 0.1:
                break
        amps[lab] = c
    norm = sum(abs(c) ** 2 for c in amps.values()) ** 0.5
    return PureState.from_amplitudes({k: v / norm for k, v in amps.items()})


def torus_point(group: DiagonalSymmetryGroup, rng: random.Random, denominator: int) -> PhaseVector:
    """A random rational point of the torus part: each basis direction times
    its own draw k/denominator, in basis order, reduced to [0, 1) turns.

    The sum is taken over integers, as numerators of the shared denominator."""
    total = [0] * (group.n + 1)
    for vec in group.torus_basis:
        k = rng.randrange(denominator)
        for i, x in enumerate(vec):
            total[i] += k * x
    return PhaseVector.from_numerators(total, denominator)


def random_element(
    group: DiagonalSymmetryGroup, rng: random.Random, denominator: int = 2**16
) -> PhaseVector:
    """A random exact-rational element: random integer powers of the finite
    generators plus a random rational point of the torus part.

    The numerators are summed over the common denominator of all the parts."""
    point = torus_point(group, rng, denominator)
    powers = [(rng.randrange(gen.den), gen) for gen in group.finite_generators]
    den = math.lcm(point.den, *(gen.den for _, gen in powers))
    total = [x * (den // point.den) for x in point.nums]
    for a, gen in powers:
        total = [t + a * (den // gen.den) * x for t, x in zip(total, gen.nums)]
    return PhaseVector.from_numerators(total, den)


def conjugate(group: DiagonalSymmetryGroup, mask: str) -> DiagonalSymmetryGroup:
    """The group conjugated by bit flips at the masked qubits: the masked phis
    of every torus direction and finite generator change sign."""
    flip = [ch == "1" for ch in mask] + [False]

    def negated(vec):
        return tuple(-x if f else x for x, f in zip(vec, flip))

    return DiagonalSymmetryGroup.from_presentation(
        n=group.n,
        torus_basis=tuple(negated(vec) for vec in group.torus_basis),
        finite_generators=tuple(
            PhaseVector.from_numerators(negated(gen.nums), gen.den) for gen in group.finite_generators
        ),
    )


def sign_vector(label: str) -> tuple:
    return tuple(1 if ch == "0" else -1 for ch in label)


@lru_cache(maxsize=200_000)
def _rank_of(vectors: frozenset) -> int:
    return int(np.linalg.matrix_rank(np.array(sorted(vectors))))


def brute_force_circuit_members(support: Support) -> set:
    """Minimal dependent subsets of the sign vectors, by exhaustive search.

    Slow but obviously correct; used as the oracle for the enumerator.
    Label <-> sign vector is a bijection, so ranks memoize on vector sets.
    """
    labels = support.labels
    vecs = {lab: sign_vector(lab) for lab in labels}
    found: list[frozenset] = []
    for r in range(2, len(labels) + 1):
        for combo in combinations(labels, r):
            cs = frozenset(combo)
            if any(prev <= cs for prev in found):
                continue
            if _rank_of(frozenset(vecs[lab] for lab in combo)) < r:
                found.append(cs)
    return set(found)


@pytest.fixture(scope="session")
def schema_validator():
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    docs = {}
    resources = []
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(path.read_text())
        Draft202012Validator.check_schema(doc)
        docs[path.name] = doc
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)

    def validate(schema_name: str, payload):
        Draft202012Validator(docs[schema_name], registry=registry).validate(payload)

    return validate
