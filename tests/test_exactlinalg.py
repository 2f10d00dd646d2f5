import hashlib
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np
import pytest

from lusym import (
    DiagonalSymmetryGroup,
    InputError,
    IntMatrix,
    Support,
    smith_normal_form,
)
from lusym.exactlinalg import (
    hermite_normal_form,
    lattice_member,
)
from lusym.symmetry import sign_rows

from conftest import random_coset_support
from oracles import int_product, normalize_int_vector


def test_intmatrix_rejects_bad_input():
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix([])
    with pytest.raises(InputError):
        IntMatrix([[1.5, 2]])
    with pytest.raises(InputError):
        IntMatrix([[Fraction(1, 2)]])


def test_intmatrix_refuses_int_like_entries():
    # entries are exactly int, as everywhere in lusym: a bool or an int
    # subclass is refused, not converted
    class Count(int):
        pass

    for rows in ([[True, 3], [0, -2]], [[1, Count(3)], [0, -2]]):
        with pytest.raises(InputError, match="must be int"):
            IntMatrix(rows)


def test_intmatrix_basic_ops():
    a = IntMatrix([[1, 2], [3, 4]])
    assert len(a) == 2 and len(a[0]) == 2
    assert IntMatrix(((1, 0), (0, 1))).row_tuples() == ((1, 0), (0, 1))
    assert type(a.row_tuples()) is tuple
    # an IntMatrix is the tuple of its rows: it equals and hashes as that tuple
    assert a == ((1, 2), (3, 4)) and hash(a) == hash(((1, 2), (3, 4)))
    assert a == IntMatrix([(1, 2), (3, 4)]) and hash(a) == hash(IntMatrix([(1, 2), (3, 4)]))
    assert IntMatrix([[1, 2]]) != IntMatrix([[1, 3]])
    assert a != IntMatrix([[1, 2, 3, 4]])


def test_smith_1x1():
    d = smith_normal_form(IntMatrix([[2]]))
    assert d.invariant_factors == (2,)


def test_smith_2x2_frozen():
    a = IntMatrix([[2, 4], [6, 8]])
    d = smith_normal_form(a)
    assert d.invariant_factors == (2, 4)
    # exact decomposition identity
    assert int_product(d.u, a, d.v) == d.d.row_tuples()


def test_smith_with_unit_factor():
    d = smith_normal_form(IntMatrix([[1, 2], [3, 4]]))
    assert d.invariant_factors == (1, 2)


def test_smith_zero_matrix():
    d = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert d.invariant_factors == ()
    assert d.d.row_tuples() == ((0, 0), (0, 0)) and d.u.row_tuples() == ((1, 0), (0, 1))


def test_smith_rectangular():
    # weight-matrix shape: more rows than columns and vice versa
    d = smith_normal_form(IntMatrix([[1, -1, 1], [1, 1, 1]]))
    assert len(d.invariant_factors) == 2
    d = smith_normal_form(IntMatrix([[3], [6], [9]]))
    assert d.invariant_factors == (3,)


def test_smith_random_properties():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = smith_normal_form(a)
        assert int_product(dec.u, a, dec.v) == dec.d.row_tuples()
        fac = dec.invariant_factors
        assert all(x > 0 for x in fac)
        for i in range(len(fac) - 1):
            assert fac[i + 1] % fac[i] == 0
        # a square integer matrix is unimodular exactly when its rows span Z^k
        assert hermite_normal_form(dec.u.row_tuples()) == tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        assert hermite_normal_form(dec.v.row_tuples()) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert len(fac) == np.linalg.matrix_rank(np.array(a.row_tuples()))
        # off-diagonal of D vanishes
        for i, row in enumerate(dec.d.row_tuples()):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def _criterion_8_matrices():
    # the inputs of test_acceptance::test_criterion_8_smith_normal_form_exact
    rng = random.Random(808)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        yield IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def _strata_sign_matrices():
    # sign matrices of supports shaped like the strata-queries benchmark's
    rng = random.Random(914)
    for _ in range(50):
        n = rng.randint(8, 14)
        size = rng.randint(n // 2, n + 2)
        labels = [format(x, f"0{n}b") for x in rng.sample(range(2**n), size)]
        yield IntMatrix(sign_rows(Support.from_labels(labels)))


def _coset_forms():
    # the solver's Smith inputs on coset supports x ^ F: Hermite forms of their
    # sign rows, wide and of low rank, with repeated columns
    rng = random.Random(1510)
    for _ in range(60):
        support = random_coset_support(rng, rng.randint(10, 14), rng.randint(2, 3))
        yield IntMatrix(hermite_normal_form(sign_rows(support)))


def _transforms_digest(matrices) -> str:
    h = hashlib.sha256()
    for a in matrices:
        dec = smith_normal_form(a)
        h.update(repr((dec.u.row_tuples(), dec.d.row_tuples(), dec.v.row_tuples())).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "matrices, digest",
    [
        (_criterion_8_matrices, "ef95493b6e0c5782945b0fa133fb1255cd3f9718b92b539470d9ebdabc888185"),
        (_strata_sign_matrices, "e0035480f01b1bce344d3211533a3d63c9e0ece55b74911fcb87aa6878e23ab6"),
        (_coset_forms, "c94a3d0604e36317667056bd413c3b1bdab7448071789adfb1bda68f1a754d14"),
    ],
    ids=["criterion-8", "strata-shapes", "coset-forms"],
)
def test_smith_transforms_are_pinned(matrices, digest):
    # u, d and v entry for entry as computed when u was carried through the
    # elimination and v held as rows: the replayed u and the column-held v
    # reproduce them. The coset forms' digest was recorded while every column
    # step still ran over all rows; a step that skips zero entries keeps it
    assert _transforms_digest(matrices()) == digest


def test_v_columns_are_primitive_and_give_the_torus_basis():
    # v is unimodular, so each of its columns has gcd 1 and normalizing one
    # only fixes its sign: the solved torus basis is v's trailing columns,
    # normalized, on the solver's coset forms and on any character rows
    for a in chain(_coset_forms(), _criterion_8_matrices()):
        dec = smith_normal_form(a)
        assert all(gcd(*col) == 1 for col in dec.v_columns), a
        if len(a[0]) > 1:
            group = DiagonalSymmetryGroup(len(a[0]) - 1, a)
            dec = smith_normal_form(IntMatrix(group.characters or [[0] * len(a[0])]))
            trailing = dec.v_columns[len(dec.invariant_factors) :]
            assert group.torus_basis == tuple(map(normalize_int_vector, trailing)), a


def test_smith_views_are_equal_on_every_read():
    # u, d and v are built anew on each read, from the same fields
    dec = smith_normal_form(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    for name in ("u", "d", "v"):
        first, second = getattr(dec, name), getattr(dec, name)
        assert type(first) is IntMatrix and first == second
    assert dec.invariant_factors == (2, 2, 156)
    assert dec.v_columns == tuple(zip(*dec.v.row_tuples()))


def _pivot(row) -> int:
    return next(j for j, x in enumerate(row) if x)


def test_hermite_normal_form_shape_and_lattice():
    # on the criterion-8 matrices: the echelon shape with positive pivots and
    # reduced entries above them, a basis of the same lattice (every input
    # row a member, the same invariant factors) and one form per lattice
    # (rows reordered or already in form give it back)
    for a in _criterion_8_matrices():
        rows = a.row_tuples()
        hnf = hermite_normal_form(rows)
        pivots = [_pivot(h) for h in hnf]
        assert pivots == sorted(set(pivots))
        for i, (h, c) in enumerate(zip(hnf, pivots)):
            assert h[c] > 0
            assert all(0 <= above[c] < h[c] for above in hnf[:i])
        assert all(lattice_member(hnf, row) for row in rows)
        factors = smith_normal_form(IntMatrix(hnf)).invariant_factors if hnf else ()
        assert factors == smith_normal_form(a).invariant_factors
        assert hermite_normal_form(rows[::-1]) == hnf
        assert hermite_normal_form(hnf) == hnf


def _member_by_smith(a: IntMatrix, row) -> bool:
    # with u a v = d, row = x a for an integer x exactly when (row v)_i is a
    # multiple of d_i for i < rank and zero beyond
    dec = smith_normal_form(a)
    image = [sum(x * y for x, y in zip(row, col)) for col in dec.v_columns]
    factors = dec.invariant_factors
    return all(image[i] % d == 0 for i, d in enumerate(factors)) and not any(image[len(factors) :])


def test_lattice_member_agrees_with_smith_route():
    # membership decided two ways: reduction against the Hermite form, and
    # divisibility of the row's image under the Smith column transform
    rng = random.Random(809)
    verdicts = []
    for a in _criterion_8_matrices():
        rows = a.row_tuples()
        hnf = hermite_normal_form(rows)
        coefficients = [rng.randint(-3, 3) for _ in rows]
        combo = [sum(k * r[j] for k, r in zip(coefficients, rows)) for j in range(len(a[0]))]
        nudged = list(combo)
        nudged[rng.randrange(len(a[0]))] += rng.choice([-1, 1])
        for row in (combo, nudged, [rng.randint(-9, 9) for _ in range(len(a[0]))]):
            verdict = lattice_member(hnf, row)
            assert verdict == _member_by_smith(a, row)
            verdicts.append(verdict)
        assert lattice_member(hnf, combo)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 500


def test_hermite_normal_form_small_cases():
    assert hermite_normal_form([[0, 0], [0, 0]]) == ()
    assert hermite_normal_form([]) == ()
    assert hermite_normal_form([[4, 6], [6, 9]]) == ((2, 3),)
    assert hermite_normal_form([[-2, 3], [0, -5]]) == ((2, 2), (0, 5))
    assert hermite_normal_form([[-2, 3], [0, -5], [4, 1]]) == ((2, 0), (0, 1))
    # the lattice 2Z x Z: (1, 0) is out, (2, 7) is in
    hnf = hermite_normal_form([[2, 1], [0, 1]])
    assert hnf == ((2, 0), (0, 1))
    assert not lattice_member(hnf, (1, 0)) and lattice_member(hnf, (2, 7))
    # a row off the rational span is out, whatever its leading entries
    assert not lattice_member(((1, 0, 0),), (2, 0, 1))


def test_hermite_normal_form_length_is_the_rank():
    # the Hermite form drops zero rows and keeps a basis, so it has one row per
    # unit of rank: the replacement for a rational rank
    for rows in ([[1, 2], [2, 4]], [[0]], [[1, 0], [0, 1], [1, 1]]):
        assert len(hermite_normal_form(rows)) == np.linalg.matrix_rank(np.array(rows))
    for a in _criterion_8_matrices():
        rows = a.row_tuples()
        assert len(hermite_normal_form(rows)) == np.linalg.matrix_rank(np.array(rows))


def test_normalize_int_vector():
    assert normalize_int_vector([-4, 6]) == (2, -3)
    assert normalize_int_vector([-2, 4]) == (1, -2)
    assert normalize_int_vector([0, -3, 6]) == (0, 1, -2)
    assert normalize_int_vector([6, 4]) == (3, 2)
    with pytest.raises(InputError):
        normalize_int_vector([0, 0])
