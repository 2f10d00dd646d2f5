"""Minimal balanced subsets (matroid circuits) of a support's sign vectors.

Each support label contributes the sign vector ((-1)^{s_1}, ..., (-1)^{s_n}).
A circuit is a minimal linearly dependent subset of those vectors; it carries
a unique integer relation z with sum_j z_j v_j = 0. Circuits whose relation
can be chosen strictly positive put the origin inside the convex hull of
their members and generate scaling-invariant monomials of pure degree.

Circuits are found as the minimal supports of kernel vectors of the n x L
sign matrix A (columns in support order), written in the systematic
coordinates of A's reduced row echelon form. With pivot columns P (r of them)
and free columns F (k = L - r), ker A = {y : y_F = D*c, y_P = Q*c, c in Z^k},
where D is the lcm of the pivots and Q = -D*R for the echelon block R. The
rows of this kernel basis form the dual configuration, and duality turns
circuits into complements of its hyperplanes. If S is a set of k-1 labels
whose dual rows are independent, the complement of S has r+1 members and
rank r, so it holds exactly one circuit; the kernel vectors vanishing on S
form one line, and that line's support is the circuit. Every circuit C
arises so, with S any basis of the dual rows outside C; hence |C| <= r+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import InternalError
from .exactlinalg import normalize_int_vector
from .states import Support, weight_vector


@dataclass(frozen=True)
class BalancedCircuit:
    """A circuit of the support's sign-vector configuration.

    member_labels follow support order; relation is the unique integer
    dependency (gcd 1, first entry positive) aligned with member_labels.
    """

    member_labels: tuple[str, ...]
    relation: tuple[int, ...]

    @property
    def positive(self) -> bool:
        """Every entry of the relation is positive, so the origin is a convex
        combination of the members."""
        return all(z > 0 for z in self.relation)

    @property
    def d_order(self) -> int:
        """The plain signed sum of the relation."""
        return sum(self.relation)


@dataclass(frozen=True)
class CircuitCatalog:
    support: Support
    circuits: tuple[BalancedCircuit, ...]

    @property
    def semistable(self) -> bool:
        """Some circuit is positive, so the origin lies in the convex hull of
        the support's sign vectors."""
        return any(c.positive for c in self.circuits)


def _eliminate(x: list[int], v: list[int], p: int) -> list[int]:
    """x with entry p cleared by a fraction-free step against v (v[p] != 0),
    divided by the gcd of its entries so they stay small."""
    a, b = v[p], x[p]
    out = [a * s - b * t for s, t in zip(x, v)]
    g = gcd(*out)
    return [s // g for s in out] if g > 1 else out


def _systematic_kernel(
    vectors: list[tuple[int, ...]],
) -> tuple[list[int], list[int], int, list[list[int]]]:
    """Pivot columns P, free columns F, D and Q with ker A = {y : y_F = D*c, y_P = Q*c}.

    A has the given vectors as its columns; its fraction-free reduced row
    echelon form has pivot d_i in column P[i] and R[i][m] = a[i][F[m]] / d_i.
    """
    n, L = len(vectors[0]), len(vectors)
    a = [[vectors[j][i] for j in range(L)] for i in range(n)]
    pivots: list[int] = []
    for col in range(L):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(n):
            if i != r and a[i][col]:
                a[i] = _eliminate(a[i], a[r], col)
        pivots.append(col)
    is_pivot = set(pivots)
    free = [j for j in range(L) if j not in is_pivot]
    D = lcm(*(a[i][col] for i, col in enumerate(pivots)))
    Q = [[-a[i][f] * (D // a[i][col]) for f in free] for i, col in enumerate(pivots)]
    return pivots, free, D, Q


def _greedy_bases(
    rest: list[list[int]], echelon: list, marks: list[list[int]], still: int, out: list
) -> None:
    """Append to `out` every echelon [(row, pivot), ...] that completes `echelon`
    by `still` rows of `rest` taken in order as the greedy basis of the
    hyperplane they span.

    Rows of `rest` and `marks` are reduced against `echelon`; zero rows are
    dropped from `rest` (they lie in every completion). A row of `rest` that is
    independent but skipped joins `marks`, and every mark must stay outside the
    final span; that makes the greedy basis, and so each hyperplane, unique.
    `marks` belongs to the call, which extends it.
    """
    if not still:
        out.append(echelon)
        return
    if still == 1:
        # The echelon has t-2 rows and reduced rows are zero at its pivots, so
        # they live on the two other coordinates. There a row completes the
        # hyperplane unless a mark or an earlier row is parallel to it, which
        # primitive directions decide with no further reduction.
        pivots = {p for _, p in echelon}
        i, j = (m for m in range(len(echelon) + 2) if m not in pivots)
        seen = {_direction(w[i], w[j]) for w in marks}
        for v in rest:
            d = _direction(v[i], v[j])
            if d not in seen:
                seen.add(d)
                out.append(echelon + [(v, i if v[i] else j)])
        return
    for q in range(len(rest) - still + 1):
        v = rest[q]
        p = 0
        while not v[p]:
            p += 1
        a = v[p]
        # Reduce the marks, then the later rows, by v: _eliminate inlined, as
        # the innermost loop of the search. A mark is only tested for zero and
        # reduced further, so it keeps its common factor; its entries grow
        # additively in bit length over at most t levels.
        reduced = []
        for w in marks:
            b = w[p]
            if b:
                w = [a * s - b * t for s, t in zip(w, v)]
                if not any(w):
                    break  # a mark fell into the span
            reduced.append(w)
        else:
            later = []
            for w in rest[q + 1 :]:
                b = w[p]
                if b:
                    w = [a * s - b * t for s, t in zip(w, v)]
                    g = gcd(*w)
                    if not g:
                        continue
                    if g > 1:
                        w = [s // g for s in w]
                later.append(w)
            _greedy_bases(later, echelon + [(v, p)], reduced, still - 1, out)
        marks.append(v)


def _direction(x: int, y: int) -> tuple[int, int]:
    """The primitive integer pair on the line through (x, y) != (0, 0), first
    nonzero entry positive."""
    g = gcd(x, y)
    if x < 0 or not x and y < 0:
        g = -g
    return x // g, y // g


def _null_vector(echelon: list, t: int) -> list[int]:
    """Integer spanning vector of the common kernel of t-1 independent echelon rows in Z^t."""
    pivots = {p for _, p in echelon}
    c = [0] * t
    c[next(i for i in range(t) if i not in pivots)] = 1
    for v, p in reversed(echelon):
        s = sum(map(mul, v, c))
        if s % v[p]:
            c = [x * v[p] for x in c]
            s *= v[p]
        c[p] = -s // v[p]
    return c


def enumerate_circuits(support: Support) -> CircuitCatalog:
    """All circuits of the support's sign vectors, in lexicographic member order.

    Each circuit C is found from one set S of k-1 labels outside it: the
    greedy basis of the dual rows outside C, taking free columns first and
    then pivot columns. A free label in S only sets its coordinate of c to
    zero, so the search picks the live free coordinates T = C & F
    (1 <= |T| <= r+1) outright and searches only the pivot rows Q[p, T],
    depth first, for the rest of S. A row skipped while independent must stay
    outside the final span, which makes S unique: every circuit is reached
    at exactly one leaf. A full-rank support (k = 0, such as W_n) has no free
    coordinate and so no circuits. All arithmetic is exact fraction-free
    integer elimination.
    """
    pivots, free, D, Q = _systematic_kernel([weight_vector(label) for label in support.labels])
    r, k = len(pivots), len(free)
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t in range(1, min(k, r + 1) + 1):
        # the live labels' own dual rows, unit vectors in c[T]: they start as
        # marks, so every c_m with m in T stays nonzero
        units = [[int(m == i) for i in range(t)] for m in range(t)]
        for live in combinations(range(k), t):
            QT = [[row[m] for m in live] for row in Q]
            echelons: list = []
            _greedy_bases([row for row in QT if any(row)], [], list(units), t - 1, echelons)
            for echelon in echelons:
                c = _null_vector(echelon, t)
                y = {free[m]: D * x for m, x in zip(live, c)}
                for i, row in enumerate(QT):
                    yp = sum(map(mul, row, c))
                    if yp:
                        y[pivots[i]] = yp
                members = tuple(sorted(y))
                found[members] = normalize_int_vector([y[j] for j in members])

    circuits = tuple(
        BalancedCircuit(tuple(support.labels[i] for i in members), found[members])
        for members in sorted(found)
    )
    for c in circuits:
        if len(c.member_labels) > support.n + 1:
            raise InternalError("circuit larger than n+1 members")
    return CircuitCatalog(support=support, circuits=circuits)

