import hashlib
import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import lusym.circuits
from lusym import (
    InternalError,
    LimitError,
    Support,
    enumerate_circuits,
    group_contains,
    solve_symmetry_group,
)
from lusym.circuits import _systematic_kernel
from lusym.serialize import canonical_dumps, catalog_to_dict
from lusym.states import weight_vector

from conftest import (
    all_labels,
    brute_force_circuit_members,
    complement_rich_support,
    random_coset_support,
    random_support,
)
from oracles import _systematic_kernel as gauss_jordan_070
from oracles import circuits_070


def test_kernel_matches_the_070_gauss_jordan():
    # the reduced row echelon form read off the Hermite normal form has the
    # 0.7.0 Gauss-Jordan's rows up to sign once each is primitive, so P, F, D
    # and Q agree; a Hermite row left imprimitive changes D and Q, and so
    # would a coordinate row dropped that is not a copy of another up to sign
    rng = random.Random(1237)
    supports = [random_support(rng, rng.randint(1, 10), 22, min_labels=1) for _ in range(1000)]
    supports += [Support.from_labels(format(1 << i, f"0{n}b") for i in range(n)) for n in (10, 11, 12)]
    supports += [Support.from_labels(all_labels(n)) for n in (5, 6)]
    supports += [complement_rich_support(rng, n, 14, rng.randint(3, 6)) for n in (6, 7, 8)]
    # cosets x ^ F repeat their coordinate rows up to sign: qubits whose bits
    # agree, or disagree, on every label
    supports += [random_coset_support(rng, rng.randint(10, 14), rng.randint(2, 3)) for _ in range(60)]
    # qubit 2 is the negation of qubit 1 and qubit 4 a copy of it
    supports.append(Support.from_labels(f"{a}{1 - a}{b}{a}{c}" for a, b, c in itertools.product((0, 1), repeat=3)))
    for sup in supports:
        vectors = [weight_vector(label) for label in sup.labels]
        assert _systematic_kernel(vectors) == gauss_jordan_070(vectors), sup.labels


def test_a_circuit_past_n_plus_1_members_is_an_internal_error():
    # the even-weight labels on 3 qubits are one circuit of 4 = n+1 members;
    # claimed on 2 qubits, it breaks the bound |C| <= r+1 <= n+1 checked last
    labels = Support.from_labels(["000", "011", "101", "110"]).labels
    assert [c.relation for c in enumerate_circuits(Support(3, labels)).circuits] == [(1, 1, 1, 1)]
    with pytest.raises(InternalError, match="n\\+1 members"):
        enumerate_circuits(SimpleNamespace(n=2, labels=labels))


def test_bell_circuit():
    cat = enumerate_circuits(Support.from_labels(["00", "11"]))
    assert len(cat.circuits) == 1
    c = cat.circuits[0]
    assert c.member_labels == ("00", "11")
    assert c.relation == (1, 1)
    assert c.positive
    assert c.d_order == 2
    assert cat.semistable


def test_cluster_like_circuit():
    cat = enumerate_circuits(Support.from_labels(["1111", "1100", "0010", "0001"]))
    assert len(cat.circuits) == 1
    c = cat.circuits[0]
    assert c.relation == (1, 1, 1, 1)
    assert c.d_order == 4
    assert c.positive


def test_five_member_circuit_with_coefficient_two():
    labels = ["1111", "1000", "0100", "0010", "0001"]
    cat = enumerate_circuits(Support.from_labels(labels))
    assert len(cat.circuits) == 1
    c = cat.circuits[0]
    assert c.member_labels == ("0001", "0010", "0100", "1000", "1111")
    assert c.relation == (1, 1, 1, 1, 2)
    assert c.d_order == 6
    assert c.positive


def test_w_support_has_no_circuits():
    # full rank: the kernel is zero, so there is nothing to search
    for n in (3, 12, 16):
        cat = enumerate_circuits(Support.from_labels(format(1 << i, f"0{n}b") for i in range(n)))
        assert cat.circuits == ()
        assert not cat.semistable


def test_mixed_sign_circuit():
    cat = enumerate_circuits(Support.from_labels(["000", "001", "010", "011"]))
    assert len(cat.circuits) == 1
    c = cat.circuits[0]
    assert c.member_labels == ("000", "001", "010", "011")
    assert c.relation == (1, -1, -1, 1)
    assert c.d_order == 0
    assert not c.positive
    assert not cat.semistable


def test_two_antipodal_circuits():
    cat = enumerate_circuits(Support.from_labels(["0000", "1111", "0011", "1100"]))
    assert len(cat.circuits) == 2
    members = {c.member_labels for c in cat.circuits}
    assert members == {("0000", "1111"), ("0011", "1100")}
    for c in cat.circuits:
        assert c.relation == (1, 1)
        assert c.d_order == 2


def coset_support(rng: random.Random, n: int, dim: int) -> Support:
    """A coset x ^ F of a random dim-dimensional flip subgroup F of GF(2)^n."""
    span = {0}
    while len(span) < 2**dim:
        m = rng.getrandbits(n)
        span |= {s ^ m for s in span}
    x = rng.getrandbits(n)
    return Support.from_labels(format(x ^ s, f"0{n}b") for s in span)


def test_matches_brute_force_oracle():
    rng = random.Random(61)
    supports = [random_support(rng, rng.randint(1, 4), 8) for _ in range(200)]
    # cosets carry many antipodal and parallel sign vectors; all of n=3 does too
    supports += [coset_support(rng, rng.randint(dim, 6), dim) for dim in (1, 2, 3) for _ in range(15)]
    supports.append(Support.from_labels(all_labels(3)))
    for sup in supports:
        got = {frozenset(c.member_labels) for c in enumerate_circuits(sup).circuits}
        assert got == brute_force_circuit_members(sup), sup.labels


def test_relations_are_exact_and_normalized():
    rng = random.Random(67)
    supports = [random_support(rng, rng.randint(2, 5), 8) for _ in range(100)]
    # benchmark-sized shapes, where at least three coordinates of the kernel
    # are free, so circuits come from both zeroed free coordinates and pivot rows
    sizes = [(6, 12), (7, 13), (8, 14), (9, 12), (9, 14)]
    supports += [random_support(rng, n, L, min_labels=L) for n, L in sizes]
    for sup in supports:
        for c in enumerate_circuits(sup).circuits:
            assert 2 <= len(c.member_labels) <= sup.n + 1
            assert len(c.relation) == len(c.member_labels)
            assert all(z != 0 for z in c.relation)
            total = [0] * sup.n
            for lab, z in zip(c.member_labels, c.relation):
                for i, w in enumerate(weight_vector(lab)):
                    total[i] += z * w
            assert total == [0] * sup.n
            assert math.gcd(*c.relation) == 1
            assert c.relation[0] > 0
            if c.positive:
                assert c.d_order >= 2


def test_semistable_matches_linear_program():
    # origin lies in the convex hull of the sign vectors iff some circuit
    # carries a strictly positive relation; cross-check with an LP
    from scipy.optimize import linprog

    rng = random.Random(71)
    for _ in range(80):
        sup = random_support(rng, rng.randint(1, 4), 8)
        vecs = np.array([weight_vector(l) for l in sup.labels], dtype=float)
        L = len(sup.labels)
        res = linprog(
            c=np.zeros(L),
            A_eq=np.vstack([vecs.T, np.ones(L)]),
            b_eq=np.append(np.zeros(sup.n), 1.0),
            bounds=[(0, None)] * L,
            method="highs",
        )
        assert enumerate_circuits(sup).semistable == res.success, sup.labels


def test_semistable_monotone_under_support_growth():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(2, 4)
        small = random_support(rng, n, 5)
        extra = [l for l in random_support(rng, n, 4).labels if l not in small.labels]
        big = Support.from_labels(list(small.labels) + extra)
        if enumerate_circuits(small).semistable:
            assert enumerate_circuits(big).semistable


def test_circuit_groups_contain_support_group():
    rng = random.Random(79)
    checked = 0
    while checked < 25:
        sup = random_support(rng, rng.randint(2, 4), 8, min_labels=3)
        # the group solved from a circuit's own members, for circuits with
        # nonzero d_order, contains the full support's group
        circuits = [c for c in enumerate_circuits(sup).circuits if c.d_order != 0]
        if not circuits:
            continue
        checked += 1
        g_full = solve_symmetry_group(sup)
        for circuit in circuits:
            g_circ = solve_symmetry_group(Support.from_labels(circuit.member_labels))
            assert group_contains(g_circ, g_full)


def _workload_sized_supports():
    # shapes like the dense-circuits benchmark's, where |T| >= 4 search levels
    # and their dead branches occur; the brute-force oracle stops at n <= 6
    rng = random.Random(1213)
    for n, L in [(6, 14), (7, 14), (8, 13), (9, 13), (10, 13)]:
        for _ in range(12):
            yield random_support(rng, n, L, min_labels=L)


# sha256 over repr(enumerate_circuits(s).circuits) on the supports above, as
# found by the search of lusym 0.4.0: members, relations and their order
CATALOG_SHA256 = "3ebc24c315b64038035a76c06f0c64223bc4a5aebf2d1f8ff43c8df425c06a47"


def test_workload_sized_catalogs_are_pinned():
    h = hashlib.sha256()
    for sup in _workload_sized_supports():
        h.update(repr(enumerate_circuits(sup).circuits).encode())
    assert h.hexdigest() == CATALOG_SHA256


def _complement_closed(rng: random.Random, n: int, size: int) -> Support:
    full = (1 << n) - 1
    base = rng.sample(range(1 << n), size)
    return Support.from_labels(format(x, f"0{n}b") for x in {y ^ m for y in base for m in (0, full)})


def _coset_through_all_ones(rng: random.Random, n: int, dim: int) -> Support:
    """A coset x ^ F of a flip subgroup F that contains 1^n: every label's
    complement is in the support."""
    span = {0, (1 << n) - 1}
    while len(span) < 2**dim:
        m = rng.getrandbits(n)
        span |= {s ^ m for s in span}
    x = rng.getrandbits(n)
    return Support.from_labels(format(x ^ s, f"0{n}b") for s in span)


def test_matches_the_070_search_on_complement_pairs():
    # the search leaves the later label of each complement pair out and lifts
    # its circuits back; the 0.7.0 search took every label, pairs included
    rng = random.Random(1229)
    supports = [_complement_closed(rng, n, rng.randint(1, min(7, 2 ** (n - 1)))) for n in range(2, 9) for _ in range(6)]
    supports += [_coset_through_all_ones(rng, n, dim) for n in range(3, 11) for dim in (1, 2, 3) if dim <= n - 1]
    supports += [Support.from_labels([s, s.translate(str.maketrans("01", "10"))]) for s in ("0", "01", "0110", "10100")]
    supports += [Support.from_labels([s]) for s in ("0", "1", "101", "0000")]
    supports += [Support.from_labels(format(1 << i, f"0{n}b") for i in range(n)) for n in (2, 3, 8)]
    for n in (6, 7):
        supports += [complement_rich_support(rng, n, 14, rng.randint(3, 6)) for _ in range(8)]
    for sup in supports:
        assert enumerate_circuits(sup).circuits == circuits_070(sup), sup.labels


def _complement_rich_workload_supports():
    # dense-circuits shapes with 3 to 6 complement pairs each
    rng = random.Random(1223)
    for n, L in [(6, 14), (7, 14), (8, 13), (9, 13), (10, 13)]:
        for _ in range(8):
            yield complement_rich_support(rng, n, L, rng.randint(3, 6))


# sha256 over repr(enumerate_circuits(s).circuits) on the supports above, as
# found by the search of lusym 0.7.0, which searched both labels of each pair
COMPLEMENT_RICH_SHA256 = "4ec34deab310abbbcfe51b82959a517198c6d656f4974ed4e9a34c83c5f9fd27"


def test_complement_rich_catalogs_are_pinned():
    h = hashlib.sha256()
    for sup in _complement_rich_workload_supports():
        h.update(repr(enumerate_circuits(sup).circuits).encode())
    assert h.hexdigest() == COMPLEMENT_RICH_SHA256


# 28 of the 64 labels of 6 qubits, with 8 complement pairs: 99,087 circuits,
# of which the lift to the later label of each pair makes most
_LIFT_HEAVY_LABELS = [format(x, "06b") for x in random.Random(5).sample(range(64), 28)]

# sha256 of canonical_dumps(catalog_to_dict(...)) on that support, as lusym
# 0.7.0 wrote it before the lift placed each twin by one insertion
LIFT_HEAVY_CATALOG_SHA256 = "ac346256394f1240bc6e7f63732c3cf5b008d5b6e93ceec706d5a34bb3c776c3"


def test_a_lift_heavy_catalog_is_pinned_and_capped_inside_a_lifted_batch(monkeypatch):
    support = Support.from_labels(_LIFT_HEAVY_LABELS)
    catalog = enumerate_circuits(support)
    text = canonical_dumps(catalog_to_dict(catalog))
    assert hashlib.sha256(text.encode()).hexdigest() == LIFT_HEAVY_CATALOG_SHA256
    count = len(catalog.circuits)
    assert count == 99_087
    # the search alone, without the later label of any pair, stays under the
    # cap below, so the count crosses it inside a lifted batch
    twins = {s: s.translate(str.maketrans("01", "10")) for s in support.labels}
    later = {s for s, t in twins.items() if t in twins and s > t}
    assert len(later) == 8
    assert sum(not later.intersection(c.member_labels) for c in catalog.circuits) < count - 1
    monkeypatch.setattr(lusym.circuits, "MAX_CIRCUITS", count - 1)
    message = f"circuit search: the support of 28 labels on 6 qubits has more than {count - 1} circuits, the cap"
    with pytest.raises(LimitError, match=f"^{message}$"):
        enumerate_circuits(support)


def test_every_search_level_matches_the_070_search(monkeypatch):
    # supports whose top level has t >= 6 coordinates, so the search runs the
    # list level over five or more coordinates, then the scalar levels over
    # four and three; and complement-rich supports and cosets, whose dual rows
    # often have a single live entry, so the pivot's unit falls into the span
    rng = random.Random(1231)
    supports = [random_support(rng, n, L, min_labels=L) for n, L in [(5, 14), (6, 16), (7, 16)] for _ in range(2)]
    supports += [complement_rich_support(rng, n, 16, rng.randint(3, 6)) for n in (6, 6, 7, 7)]
    supports += [random_coset_support(rng, n, 4) for n in (6, 7, 8)]
    # dense-pool shapes, whose kernels often have D > 1 and whose relations
    # have entries past +-1, so a leaf's entries are scaled by D and its
    # relation divided by a gcd greater than 1
    supports += [random_support(rng, n, 13, min_labels=13) for n in (7, 9, 10) for _ in range(3)]
    # the marks, units included, make each greedy basis unique: a mark lost
    # would reach a circuit at two leaves, which the catalog cannot show
    leaves = []
    search = lusym.circuits._search
    scales = set()
    kernel = lusym.circuits._systematic_kernel

    def counted(rest, marks, still, echelon, out):
        search(rest, marks, still, echelon, out)
        if not echelon:
            leaves.append(len(out))

    def scaled(vectors):
        pivots, free, D, Q = kernel(vectors)
        scales.add(D)
        return pivots, free, D, Q

    monkeypatch.setattr(lusym.circuits, "_search", counted)
    monkeypatch.setattr(lusym.circuits, "_systematic_kernel", scaled)
    entries = set()
    for sup in supports:
        leaves.clear()
        circuits = enumerate_circuits(sup).circuits
        assert circuits == circuits_070(sup), sup.labels
        entries.update(abs(z) for c in circuits for z in c.relation)
        # the search runs without the later label of each complement pair
        left_out = {s for i, s in enumerate(sup.labels) if s.translate(str.maketrans("01", "10")) in sup.labels[:i]}
        assert sum(leaves) == sum(left_out.isdisjoint(c.member_labels) for c in circuits), sup.labels
    assert max(scales) > 1 and max(entries) > 1, (scales, max(entries))

