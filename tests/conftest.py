"""Shared helpers for the test suite: seeded random supports and states,
random group elements, group conjugation by bit flips, a brute-force circuit
oracle, and a schema validator wired to docs/schema/.
"""

import json
import math
import os
import pathlib
import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from lusym import DiagonalSymmetryGroup, PhaseVector, PureState, Support

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's sys.path only; the
    # tests that run `python -m lusym.cli` in a subprocess need it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))


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
