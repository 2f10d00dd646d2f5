import math
import pickle
import random
import sys
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import lusym.symmetry
from lusym import (
    DiagonalSymmetryGroup,
    DimensionError,
    InputError,
    InternalError,
    PhaseVector,
    Support,
    group_contains,
    group_member,
    qubit_action_profile,
    smith_normal_form,
    solve_symmetry_group,
    weight_vector,
)
from lusym.exactlinalg import SmithDecomposition
from lusym.fixtures import fixture_names, fixture_state
from lusym.serialize import dump_group, load_group
from lusym.symmetry import _check_solution, sign_rows

from conftest import random_coset_support, random_element, random_state_on, random_support
from oracles import apply_phase_element

F = Fraction


def test_weight_matrix_bell():
    assert sign_rows(Support.from_labels(["00", "11"])) == ((1, 1, 1), (-1, -1, 1))


def test_bell_group_frozen():
    g = solve_symmetry_group(Support.from_labels(["00", "11"]))
    assert g.torus_rank == 1
    assert g.torus_basis == ((1, -1, 0),)
    assert g.finite_factors == (2,)
    assert g.finite_generators[0].as_tuple() == (F(1, 2), F(0), F(1, 2))
    assert not g.theta_continuous
    assert g.finite_order == 2


def test_w3_group_frozen():
    g = solve_symmetry_group(Support.from_labels(["100", "010", "001"]))
    assert g.torus_rank == 1
    assert g.torus_basis == ((1, 1, 1, -1),)
    assert g.theta_continuous
    assert g.finite_factors == (2, 2)


def test_ghz3_group_frozen():
    g = solve_symmetry_group(Support.from_labels(["000", "111"]))
    assert g.torus_rank == 2
    assert g.finite_factors == (2,)
    assert not g.theta_continuous


def test_full_support_three_qubits():
    labels = [format(x, "03b") for x in range(8)]
    g = solve_symmetry_group(Support.from_labels(labels))
    assert g.torus_rank == 0
    assert g.finite_factors == (2, 2, 2)
    assert g.finite_order == 8
    profile = qubit_action_profile(Support.from_labels(labels), g)
    assert profile.trivial == (True, True, True)
    assert all(w is not None for w in profile.witnesses)


def test_solution_is_exact_on_random_supports():
    rng = random.Random(41)
    for _ in range(40):
        sup = random_support(rng, rng.randint(1, 5), 8)
        g = solve_symmetry_group(sup)
        rows = sign_rows(sup)
        assert g.torus_rank + np.linalg.matrix_rank(np.array(rows)) == sup.n + 1
        for vec in g.torus_basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
            nz = [x for x in vec if x]
            assert nz and nz[0] > 0
        for gen in g.finite_generators:
            for row in rows:
                assert sum(map(mul, row, gen.nums)) % gen.den == 0
        # the defining property, numerically, on a generic state
        psi = random_state_on(rng, sup)
        elt = random_element(g, rng)
        moved = apply_phase_element(elt, psi)
        assert max(abs(moved.amplitude(l) - psi.amplitude(l)) for l in sup.labels) < 1e-9


def test_check_solution_rejects_tampered_group():
    sup = Support.from_labels(["000", "110", "100", "010"])
    rows = sign_rows(sup)
    g = solve_symmetry_group(sup)
    _check_solution(rows, g)
    # phi_1 = 1/3 turn moves label 000 by 1/3: not a symmetry
    bad_gen = PhaseVector.make([F(1, 3), 0, 0], 0)
    tampered = DiagonalSymmetryGroup.from_presentation(g.n, g.torus_basis, (bad_gen,) + g.finite_generators[1:])
    with pytest.raises(InternalError):
        _check_solution(rows, tampered)
    with pytest.raises(InternalError):
        _check_solution(rows, DiagonalSymmetryGroup.from_presentation(g.n, ((1, 0, 0, 0),), g.finite_generators))


def test_solver_builds_no_transform_matrix(monkeypatch):
    # solving and containment read v's columns and the invariant factors only:
    # neither replays u nor wraps u, d or v as an IntMatrix
    def refuse(self):
        raise AssertionError("a transform matrix was built")

    for name in ("u", "d", "v"):
        monkeypatch.setattr(SmithDecomposition, name, property(refuse))
    rng = random.Random(5)
    for _ in range(20):
        g = solve_symmetry_group(random_support(rng, 6, 9))
        assert group_contains(g, g)


def test_group_member_agrees_with_phase_turns():
    # membership decided two ways: from the group description alone (also after
    # a JSON round trip), and by checking that x moves no label of the support
    rng = random.Random(59)
    verdicts = []
    for _ in range(60):
        sup = random_support(rng, rng.randint(1, 6), 8)
        g = solve_symmetry_group(sup)
        reloaded = load_group(dump_group(g))
        for _ in range(6):
            if rng.random() < 0.5:
                x = random_element(g, rng)
            else:
                den = rng.choice([2, 3, 4, 6, 8])
                x = PhaseVector.make(
                    [F(rng.randrange(den), den) for _ in range(sup.n)], F(rng.randrange(den), den)
                )
            expected = all(sum(map(mul, row, x.nums)) % x.den == 0 for row in sign_rows(sup))
            assert group_member(g, x) == expected, (sup.labels, x)
            assert group_member(reloaded, x) == expected, (sup.labels, x)
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_group_member_bell_frozen():
    g = solve_symmetry_group(Support.from_labels(["00", "11"]))
    assert group_member(g, PhaseVector.make([F(1, 2), 0], F(1, 2)))
    assert group_member(g, PhaseVector.make([F(1, 4), F(-1, 4)], 0))
    assert group_member(g, PhaseVector.make([F(3, 4), F(3, 4)], F(1, 2)))
    assert not group_member(g, PhaseVector.make([F(1, 4), F(1, 4)], 0))
    assert not group_member(g, PhaseVector.make([F(1, 2), 0], 0))
    assert group_member(g, PhaseVector.make([0, 0], 0))


def test_group_member_degenerate_groups():
    triv = DiagonalSymmetryGroup.from_presentation(2, (), ())
    assert group_member(triv, PhaseVector.make([0, 0], 0))
    assert group_member(triv, PhaseVector.make([1, 2], 3))
    assert not group_member(triv, PhaseVector.make([F(1, 2), 0], 0))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    full = DiagonalSymmetryGroup.from_presentation(2, identity, ())
    assert full.torus_rank == 3
    assert group_member(full, PhaseVector.make([F(1, 7), F(3, 5)], F(1, 9)))


def test_group_member_random_elements():
    rng = random.Random(43)
    for _ in range(30):
        sup = random_support(rng, rng.randint(1, 4), 6)
        g = solve_symmetry_group(sup)
        for _ in range(5):
            assert group_member(g, random_element(g, rng))


def test_group_contains_monotone_under_support_growth():
    rng = random.Random(47)
    for _ in range(50):
        n = rng.randint(2, 5)
        small = random_support(rng, n, 5)
        extra = [l for l in random_support(rng, n, 4).labels if l not in small.labels]
        big = Support.from_labels(list(small.labels) + extra)
        g_small = solve_symmetry_group(small)
        g_big = solve_symmetry_group(big)
        # more labels, more constraints: the big support's group embeds in the small's
        assert group_contains(g_small, g_big)
        if g_small == g_big:
            assert group_contains(g_big, g_small)


def test_group_contains_incomparable_pair():
    ga = solve_symmetry_group(Support.from_labels(["0000", "1100"]))
    gb = solve_symmetry_group(Support.from_labels(["0000", "0011"]))
    assert not group_contains(ga, gb)
    assert not group_contains(gb, ga)


def test_is_maximal_and_dropped_generator():
    sup = Support.from_labels(["000", "110", "100", "010"])
    g = solve_symmetry_group(sup)
    assert g == solve_symmetry_group(sup)
    assert len(g.finite_factors) == 2
    smaller = DiagonalSymmetryGroup.from_presentation(g.n, g.torus_basis, g.finite_generators[:1])
    assert smaller != solve_symmetry_group(sup)
    assert group_contains(g, smaller)
    assert not group_contains(smaller, g)


def test_qubit_action_profile_frozen():
    sup = Support.from_labels(["000", "110", "100", "010"])
    g = solve_symmetry_group(sup)
    assert g.torus_basis == ((0, 0, 1, -1),)
    profile = qubit_action_profile(sup, g)
    assert profile.trivial == (True, True, False)
    assert profile.witnesses[0] == ("000", "100")
    assert profile.witnesses[1] == ("000", "010")
    assert profile.witnesses[2] is None


def test_qubit_action_profile_bell():
    sup = Support.from_labels(["00", "11"])
    profile = qubit_action_profile(sup, solve_symmetry_group(sup))
    assert profile.trivial == (False, False)
    assert profile.witnesses == (None, None)


def test_witness_forces_triviality_randomly():
    rng = random.Random(53)
    for _ in range(40):
        sup = random_support(rng, rng.randint(2, 5), 8)
        profile = qubit_action_profile(sup, solve_symmetry_group(sup))
        for k, witness in enumerate(profile.witnesses):
            if witness is not None:
                assert profile.trivial[k]
                a, b = witness
                assert sum(x != y for x, y in zip(a, b)) == 1


def test_qubit_action_profile_witness_brute_force():
    # the witness at qubit k is the first label, in value order, whose flip at
    # k lies in the support, paired with that flip and sorted
    rng = random.Random(151)
    for _ in range(80):
        n = rng.randint(1, 6)
        sup = random_support(rng, n, 2**n)
        labels = set(sup.labels)
        expected = []
        for k in range(n):
            witness = None
            for lab in sorted(labels, key=lambda lab: int(lab, 2)):
                flipped = lab[:k] + "10"[int(lab[k])] + lab[k + 1 :]
                if flipped in labels:
                    witness = tuple(sorted((lab, flipped)))
                    break
            expected.append(witness)
        assert qubit_action_profile(sup, solve_symmetry_group(sup)).witnesses == tuple(expected)


def _fixes(labels, group: DiagonalSymmetryGroup) -> bool:
    """Brute force: each torus direction leaves every label's turn at zero and
    each finite generator turns every label by a whole number of turns."""
    rows = [weight_vector(lab) + (1,) for lab in labels]
    return all(sum(map(mul, row, vec)) == 0 for row in rows for vec in group.torus_basis) and all(
        sum(map(mul, row, gen.nums)) % gen.den == 0 for row in rows for gen in group.finite_generators
    )


def _group_pairs(rng: random.Random, count: int) -> list[tuple[Support, Support]]:
    """Supports on n <= 6 qubits paired with a subset, a superset, an
    independent draw, and an extension by x ^ y ^ z whose sign row is
    r_x - r_y + r_z, which leaves the group as it is."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 6)
        sa = random_support(rng, n, 2**n)
        x, y = rng.sample(sa.labels, 2)
        z = "".join(b if a != b else rng.choice("01") for a, b in zip(x, y))
        w = "".join(str(int(a) ^ int(b) ^ int(c)) for a, b, c in zip(x, y, z))
        sub = Support.from_labels(rng.sample(sa.labels, rng.randint(1, len(sa.labels))))
        other = random_support(rng, n, 2**n)
        pairs += [
            (sa, Support.from_labels(set(sa.labels) | {z, w})),
            (Support.from_labels(set(sa.labels) | {z}), Support.from_labels(set(sa.labels) | {z, w})),
            (sa, sub),
            (sub, sa),
            (sa, other),
        ]
    return pairs[:count]


def test_containment_and_equality_agree_with_brute_force():
    rng = random.Random(2029)
    outcomes = set()
    for sa, sb in _group_pairs(rng, 300):
        ga, gb = solve_symmetry_group(sa), solve_symmetry_group(sb)
        b_in_a, a_in_b = _fixes(sa.labels, gb), _fixes(sb.labels, ga)
        assert group_contains(ga, gb) == b_in_a, (sa.labels, sb.labels)
        assert group_contains(gb, ga) == a_in_b, (sa.labels, sb.labels)
        assert (ga == gb) == (b_in_a and a_in_b), (sa.labels, sb.labels)
        assert (hash(ga) == hash(gb)) or ga != gb
        outcomes.add((b_in_a, a_in_b))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _power(gen: PhaseVector, k: int) -> PhaseVector:
    return PhaseVector.from_numerators((k * x for x in gen.nums), gen.den)


def test_presentations_of_one_group_are_equal_and_dump_the_same_bytes():
    rng = random.Random(2039)
    supports = [fixture_state(name).support() for name in fixture_names()]
    supports += [random_support(rng, rng.randint(2, 6), 12) for _ in range(40)]
    supports += [random_coset_support(rng, rng.randint(3, 8), rng.randint(1, 2)) for _ in range(10)]
    powered = 0
    for sup in supports:
        g = solve_symmetry_group(sup)
        n, basis, gens = g.n, list(g.torus_basis), list(g.finite_generators)
        # a generator replaced by a power coprime to its order
        coprime = list(gens)
        if gens:
            i = rng.randrange(len(gens))
            k = next(k for k in range(2, gens[i].den + 2) if math.gcd(k, gens[i].den) == 1)
            coprime[i] = _power(gens[i], k)
            powered += coprime[i] != gens[i]
        # a unimodular change of the torus basis: negate one direction, add
        # a multiple of it to another
        changed = [list(vec) for vec in basis]
        if changed:
            changed[0] = [-x for x in changed[0]]
            for vec in changed[1:]:
                vec[:] = [a + 3 * b for a, b in zip(vec, changed[0])]
        extra = gens + [random_element(g, rng)]
        presentations = [
            (basis, gens[::-1]),
            (basis, coprime),
            (changed, gens),
            (basis, extra),
            (changed[::-1], coprime[::-1] + extra),
        ]
        for torus_basis, generators in presentations:
            h = DiagonalSymmetryGroup.from_presentation(n, torus_basis, generators)
            assert h == g and hash(h) == hash(g), sup.labels
            assert dump_group(h) == dump_group(g), sup.labels
            assert dump_group(load_group(dump_group(h))) == dump_group(g)
    assert powered > 0


def test_predicates_run_no_smith_form(monkeypatch):
    # membership, containment and equality read the stored Hermite forms only
    rng = random.Random(2053)
    supports = [random_support(rng, 4, rng.choice([2, 4, 8])) for _ in range(30)]
    groups = [solve_symmetry_group(sup) for sup in supports]
    reloaded = [load_group(dump_group(g)) for g in groups]
    elements = [random_element(g, rng) for g in groups]
    contains = [[_fixes(sa.labels, gb) for gb in groups] for sa in supports]

    def refuse(*args, **kwargs):
        raise AssertionError("a Smith normal form was computed")

    for name, module in list(sys.modules.items()):
        if name == "lusym" or name.startswith("lusym."):
            for attr, value in list(vars(module).items()):
                if value is smith_normal_form:
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="Smith"):
        solve_symmetry_group(supports[0])
    for i, (g, back, x) in enumerate(zip(groups, reloaded, elements)):
        assert back == g and hash(back) == hash(g)
        assert group_member(g, x) and group_member(back, x)
        assert [group_contains(g, h) for h in groups] == contains[i]
        assert [g == h for h in groups] == [contains[i][j] and contains[j][i] for j in range(len(groups))]
    assert any(g != h and group_contains(g, h) for g in groups for h in groups)


def test_non_int_characters_are_refused_before_the_form(monkeypatch):
    # a bool or a float entry is refused by the constructor itself, before any
    # Hermite form runs on it, as a group file's entries are
    def refuse(rows):
        raise AssertionError("the Hermite form ran on the rows")

    monkeypatch.setattr(lusym.symmetry, "hermite_normal_form", refuse)
    for rows in ([[True, 1]], [[1, 0], [1.0, 1]]):
        with pytest.raises(InputError, match="must be int"):
            DiagonalSymmetryGroup(1, rows)
    monkeypatch.undo()
    assert DiagonalSymmetryGroup(1, [[1, 1]]).characters == ((1, 1),)


def test_non_int_torus_directions_are_refused_by_name():
    # the message names the argument, not the matrix built from it
    with pytest.raises(InputError, match="^torus directions must be int, got bool$"):
        DiagonalSymmetryGroup.from_presentation(2, [[True, -1, 0]], [])


def test_wrongly_sized_presentations_are_refused():
    gen = PhaseVector((1, 0, 0, 1), 2)  # three qubits, not two
    with pytest.raises(DimensionError):
        DiagonalSymmetryGroup.from_presentation(2, (), (gen,))
    with pytest.raises(DimensionError):
        DiagonalSymmetryGroup.from_presentation(2, ((1, -1, 0, 0),), ())
    with pytest.raises(DimensionError):
        DiagonalSymmetryGroup.from_presentation(2, ((1, -1),), ())
    with pytest.raises(DimensionError):
        DiagonalSymmetryGroup(2, ((1, 1, 1), (1, -1)))
    bell = DiagonalSymmetryGroup.from_presentation(2, ((1, -1, 0),), (PhaseVector((1, 0, 1), 2),))
    with pytest.raises(DimensionError):
        group_member(bell, gen)


def _benchmark_shaped_supports(seed):
    """The supports of the dense-circuits and coset-normalizer pools of one
    seed, drawn by the same recipe: random label sets with three or more
    labels beyond n plus one W_n per round, and cosets of 2- and 3-dimensional
    flip groups."""
    rng = random.Random(f"dense-circuits:{seed}")
    sizes = [(6, 12), (6, 13), (6, 14), (7, 12), (7, 13), (7, 14), (8, 12), (8, 13), (9, 12), (9, 13), (10, 13)]
    for r in range(10):
        for n, count in sizes:
            labels: set = set()
            while len(labels) < count:
                labels.add(format(rng.getrandbits(n), f"0{n}b"))
            yield Support.from_labels(labels)
        n = 10 + r % 3
        yield Support.from_labels(format(1 << k, f"0{n}b") for k in range(n))
    rng = random.Random(f"coset-normalizer:{seed}")
    for _ in range(15):
        for n, dim in [(10, 2), (10, 3), (11, 2), (11, 3), (12, 2), (12, 3), (13, 2), (14, 2)]:
            yield random_coset_support(rng, n, dim)


def test_finite_generators_pass_the_checked_constructor():
    # the solver builds its generators without PhaseVector's checks, since a
    # primitive column of v reduced mod d meets them; the checked constructor
    # must accept each one as the same value, with the same repr, and a pickle
    # round trip, which goes through that constructor, must give it back
    supports = [fixture_state(name).support() for name in fixture_names()]
    for seed in (0, 1, 2):
        supports += _benchmark_shaped_supports(seed)
    assert len(supports) == 13 + 3 * 240
    count = 0
    for support in supports:
        for g in solve_symmetry_group(support).finite_generators:
            checked = PhaseVector(g.nums, g.den)
            assert checked == g and hash(checked) == hash(g)
            assert repr(checked) == repr(g)
            assert pickle.loads(pickle.dumps(g)) == g
            count += 1
    assert count > 3 * 240
