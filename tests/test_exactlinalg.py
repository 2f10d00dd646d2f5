import random
from fractions import Fraction

import pytest

from lusym import (
    InputError,
    IntMatrix,
    rational_rank,
    smith_normal_form,
)
from lusym.exactlinalg import determinant, normalize_int_vector


def test_intmatrix_rejects_bad_input():
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix([])
    with pytest.raises(InputError):
        IntMatrix([[1.5, 2]])
    with pytest.raises(InputError):
        IntMatrix([[Fraction(1, 2)]])


def test_intmatrix_basic_ops():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.rows == 2 and a.cols == 2
    assert a.transpose().row_tuples() == ((1, 3), (2, 4))
    assert (a @ IntMatrix.identity(2)).row_tuples() == a.row_tuples()
    assert IntMatrix.from_columns([(1, 2), (3, 4)]).row_tuples() == ((1, 3), (2, 4))


def test_smith_1x1():
    d = smith_normal_form(IntMatrix([[2]]))
    assert d.invariant_factors == (2,)
    assert d.rank == 1


def test_smith_2x2_frozen():
    a = IntMatrix([[2, 4], [6, 8]])
    d = smith_normal_form(a)
    assert d.invariant_factors == (2, 4)
    # exact decomposition identity
    assert (d.u @ a @ d.v).row_tuples() == d.d.row_tuples()


def test_smith_with_unit_factor():
    d = smith_normal_form(IntMatrix([[1, 2], [3, 4]]))
    assert d.invariant_factors == (1, 2)


def test_smith_zero_matrix():
    d = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert d.invariant_factors == ()
    assert d.rank == 0


def test_smith_rectangular():
    # weight-matrix shape: more rows than columns and vice versa
    d = smith_normal_form(IntMatrix([[1, -1, 1], [1, 1, 1]]))
    assert d.rank == 2
    d = smith_normal_form(IntMatrix([[3], [6], [9]]))
    assert d.invariant_factors == (3,)


def test_smith_random_properties():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = smith_normal_form(a)
        assert (dec.u @ a @ dec.v).row_tuples() == dec.d.row_tuples()
        fac = dec.invariant_factors
        assert all(x > 0 for x in fac)
        for i in range(len(fac) - 1):
            assert fac[i + 1] % fac[i] == 0
        assert abs(determinant(dec.u)) == 1
        assert abs(determinant(dec.v)) == 1
        assert dec.rank == rational_rank(a)
        # off-diagonal of D vanishes
        for i, row in enumerate(dec.d.row_tuples()):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_determinant_frozen():
    assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    with pytest.raises(InputError):
        determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_rational_rank():
    assert rational_rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rational_rank(IntMatrix([[0]])) == 0
    assert rational_rank(IntMatrix([[1, 0], [0, 1], [1, 1]])) == 2


def test_normalize_int_vector():
    assert normalize_int_vector([-4, 6]) == (2, -3)
    assert normalize_int_vector([-2, 4]) == (1, -2)
    assert normalize_int_vector([0, -3, 6]) == (0, 1, -2)
    assert normalize_int_vector([6, 4]) == (3, 2)
    with pytest.raises(InputError):
        normalize_int_vector([0, 0])
