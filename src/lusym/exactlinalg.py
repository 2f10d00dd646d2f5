"""Exact integer linear algebra.

Smith normal form with both transformation matrices, the row Hermite normal
form with lattice membership, bit masks over GF(2): reduction by a basis
keyed by each mask's leading bit, and the masks of a list that generate its
span; and vectors over GF(3), each packed as the masks of its +1 and -1
entries, added and reduced bitsliced. An IntMatrix is a tuple of
equal-length rows of int, and require_ints is the one check of int entries
across the package: a bool or another int subclass is refused. The Smith
elimination carries only the column transform v, and its column steps touch
only nonzero entries; a SmithDecomposition keeps the invariant factors, v's
columns and the input, and builds u, d and v from them on each read, u by
running the same elimination on [a | I]. Python ints only: no floating point
enters any routine here, so results are decidable and reproducible bit for
bit.
"""

from __future__ import annotations

from collections import abc
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError


def require_ints(values: Iterable, what: str) -> None:
    """Refuse with InputError any value whose type is not exactly int: True is
    no integer entry, and an int subclass may print or compute unlike an int."""
    types = {*map(type, values)}
    if not types <= {int}:
        got = ", ".join(sorted(t.__name__ for t in types - {int}))
        raise InputError(f"{what} must be int, got {got}")


def as_tuple(values: Iterable, what: str) -> tuple:
    """values as a tuple, refused with InputError unless they are iterable."""
    if not isinstance(values, abc.Iterable):
        raise InputError(f"{what} must be iterable, got {type(values).__name__}")
    return tuple(values)


class IntMatrix(tuple):
    """Immutable dense integer matrix: a nonempty tuple of equal-length,
    nonempty rows of int. Equality and hashing are those of the tuple of rows."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = tuple(as_tuple(row, "matrix rows") for row in as_tuple(rows, "matrix"))
        if not rows or not rows[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("matrix rows must all have the same length")
        require_ints(chain.from_iterable(rows), "matrix entries")
        return super().__new__(cls, rows)

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self)


class SmithDecomposition(NamedTuple):
    """Unimodular u, v and diagonal d with u a v = d, for the input matrix a.

    invariant_factors are the nonzero diagonal entries of d, in order, and
    v_columns the columns of v; the solver reads only these two. u, d and v
    are built anew on each read. u is what the elimination's row operations
    make of the identity, so it reruns the same elimination on the rows of
    [a | I] and keeps the trailing columns.
    """

    invariant_factors: tuple[int, ...]
    v_columns: tuple[tuple[int, ...], ...]
    a: Sequence[Sequence[int]]

    @property
    def u(self) -> IntMatrix:
        m, n = len(self.a), len(self.v_columns)
        rows = [[*row, *(int(i == k) for k in range(m))] for i, row in enumerate(self.a)]
        _eliminate(rows, n)
        return IntMatrix(row[n:] for row in rows)

    @property
    def d(self) -> IntMatrix:
        rows = [[0] * len(self.v_columns) for _ in self.a]
        for i, x in enumerate(self.invariant_factors):
            rows[i][i] = x
        return IntMatrix(rows)

    @property
    def v(self) -> IntMatrix:
        return IntMatrix(zip(*self.v_columns))


def _smallest_nonzero(a: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(t, m):
        for j in range(t, n):
            x = a[i][j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def _eliminate(A: list[list[int]], n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Diagonalize the first n columns of the rows A in place.

    Pivot search, column operations and the divisibility test read and write
    only those n columns; row swaps, row subtractions and the sign flip act on
    whole rows, so any columns past n record what the row operations make of
    them. A column step col_j -= q * col_t leaves column t as it is, so each
    pass reads its nonzero entries, in A and V, once, and steps only beside
    them. Returns the invariant factors and the columns of v.
    """
    m = len(A)
    V = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # V[j] is column j

    def swap_cols(j: int, k: int) -> None:
        # rows above t are zero in every column >= t
        if j != k:
            for i in range(t, m):
                row = A[i]
                row[j], row[k] = row[k], row[j]
            V[j], V[k] = V[k], V[j]

    def row_sub(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
        A[i] = [x - q * y for x, y in zip(A[i], A[k])]

    t = 0
    while t < min(m, n):
        pos = _smallest_nonzero(A, t, m, n)
        if pos is None:
            break
        A[t], A[pos[0]] = A[pos[0]], A[t]
        swap_cols(t, pos[1])
        while True:
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    row_sub(i, t, A[i][t] // p)
                    if A[i][t]:
                        dirty = True
            at = [(row, row[t]) for row in A[t:] if row[t]]
            vt = [(i, x) for i, x in enumerate(V[t]) if x]
            row_t = A[t]
            for j in range(t + 1, n):
                q = row_t[j] // p
                if q:
                    for row, x in at:
                        row[j] -= q * x
                    vj = V[j]
                    for i, x in vt:
                        vj[i] -= q * x
                if row_t[j]:
                    dirty = True
            if dirty:
                pos = _smallest_nonzero(A, t, m, n)
                A[t], A[pos[0]] = A[pos[0]], A[t]
                swap_cols(t, pos[1])
                continue
            # column and row t are clear; enforce divisibility of the trailing
            # block, which a unit pivot divides already
            offender = None
            if p not in (1, -1):
                for i in range(t + 1, m):
                    if any(x % p for x in A[i][t + 1 : n]):
                        offender = i
                        break
            if offender is None:
                break
            row_sub(t, offender, -1)  # row_t += row_offender, reintroduces entries to grind down
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    return tuple(A[i][i] for i in range(t)), tuple(map(tuple, V))


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Compute the Smith normal form of an integer matrix, given as rows of int
    of one length that are not checked again, such as an IntMatrix or a Hermite form.

    Returns u, d, v with u a v = d, u and v unimodular, d diagonal with
    non-negative entries satisfying d[i] | d[i+1]. Pivots are chosen as the
    smallest nonzero entry in absolute value, which keeps intermediate growth
    modest on the small matrices this package produces. Only v is carried.
    """
    return SmithDecomposition(*_eliminate([list(row) for row in a], len(a[0])), a)


def hermite_normal_form(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    The result is the lattice's unique echelon basis: each row's first nonzero
    entry, its pivot, is positive and lies right of the pivot above it, and
    every entry above a pivot is reduced into [0, pivot). Zero rows are
    dropped. Each column is cleared by gcd elimination, subtracting multiples
    of the row with the smallest entry there; no transform is built.
    """
    pending = [list(r) for r in rows if any(r)]
    hnf: list[list[int]] = []
    for c in range(len(pending[0]) if pending else 0):
        live = [r for r in pending if r[c]]
        if not live:
            continue
        pending = [r for r in pending if not r[c]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            rest = []
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r = [x - q * y for x, y in zip(r, p)]
                    if r[c]:
                        rest.append(r)
                    elif any(r):
                        pending.append(r)
            live = rest + [p]
        p = live[0] if live[0][c] > 0 else [-x for x in live[0]]
        for i, h in enumerate(hnf):
            q = h[c] // p[c]
            if q:
                hnf[i] = [x - q * y for x, y in zip(h, p)]
        hnf.append(p)
    return tuple(map(tuple, hnf))


def lattice_member(hnf: Sequence[Sequence[int]], row: Sequence[int]) -> bool:
    """Is the integer row in the lattice whose Hermite normal form is hnf?

    The row is reduced against the echelon rows in turn; it is a member
    exactly when each pivot divides the entry left in its column and nothing
    remains at the end. No form row has an entry left of its pivot, so an
    entry of the row in a column with no pivot, left of a later pivot, is
    final: the row is refused there. A step writes only the entries right of
    the pivot, and none when the form row has nothing there.
    """
    r = list(row)
    c = 0  # the first column right of the last pivot
    for h in hnf:
        p = c
        while not h[p]:  # the pivot: right of the one above, first nonzero of h
            p += 1
        if p > c and any(r[c:p]):
            return False
        q, rem = divmod(r[p], h[p])
        if rem:
            return False
        c = p + 1
        if q and any(tail := h[c:]):
            r[c:] = [x - q * y for x, y in zip(r[c:], tail)]
    return not any(r[c:])


def gf2_reduced(y: int, basis: dict[int, int]) -> int:
    """The bit mask y reduced by GF(2) basis masks with distinct leading bits,
    keyed by their bit_length(): y is XORed with the mask that leads at y's
    leading bit until no mask leads there. 0 exactly when y lies in their
    span; otherwise a mask whose leading bit no basis mask has."""
    while b := basis.get(y.bit_length()):
        y ^= b
    return y


def gf2_generators(values: list[int]) -> list[int]:
    """The masks, in the given order, that are independent of those before them."""
    basis: dict[int, int] = {}
    gens: list[int] = []
    for x in values:
        if y := gf2_reduced(x, basis):
            basis[y.bit_length()] = y
            gens.append(x)
    return gens


def gf3_add(p: int, m: int, yp: int, ym: int) -> tuple[int, int]:
    """Sum of two GF(3) vectors, each packed as the masks of its +1 and -1
    entries; a vector's negation swaps its masks. Every bit is added at once
    (bitslicing)."""
    return (
        (p & ~(yp | ym)) | (yp & ~(p | m)) | (m & ym),
        (m & ~(yp | ym)) | (ym & ~(p | m)) | (p & yp),
    )


def gf3_reduced(p: int, m: int, basis: list[tuple[int, int, int]]) -> tuple[int, int]:
    """The packed GF(3) vector (p, m) reduced by basis entries (lead, bp, bm)
    with distinct leading bits, each +1 at its lead and 0 at the leads before
    it: (0, 0) exactly when the vector lies in their span."""
    for lead, bp, bm in basis:
        if p & lead:
            p, m = gf3_add(p, m, bm, bp)
        elif m & lead:
            p, m = gf3_add(p, m, bp, bm)
    return p, m

