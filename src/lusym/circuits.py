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

A label s and its complement s XOR 1^n have opposite sign vectors, so they
are parallel elements of the matroid: {s, s XOR 1^n} is a circuit with
relation (1, 1), no other circuit holds both, and either can replace the
other in any circuit with its relation entry negated. The later label of each
pair is left out of the search and its circuits are lifted afterwards. The
search works in compressed coordinates: a row chosen at pivot p has cleared p
from every mark and later row, so p is dropped and each level works on one
coordinate fewer; the last two levels need only two entries per row.
"""

from __future__ import annotations

from itertools import combinations, compress
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import InternalError
from .exactlinalg import normalize_int_vector
from .states import Support, weight_vector

_COMPLEMENT = str.maketrans("01", "10")


class BalancedCircuit(NamedTuple):
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


class CircuitCatalog(NamedTuple):
    support: Support
    circuits: tuple[BalancedCircuit, ...]

    @property
    def semistable(self) -> bool:
        """Some circuit is positive, so the origin lies in the convex hull of
        the support's sign vectors."""
        return any(c.positive for c in self.circuits)


class SlGeneratorReport(NamedTuple):
    """Outcome of the single-circuit hypothesis check on a catalog."""

    holds: bool
    degree: int | None
    reason: str


def single_sl_generator_check(catalog: CircuitCatalog) -> SlGeneratorReport:
    """When the support has exactly one circuit, positive and SL-type, the
    scaling-invariant bidegrees on the support are exhausted by (r*d, 0).

    A positive relation has no negative entry, so its monomial has bidegree
    (d_order, 0) and is SL-type: positivity is the whole test."""
    circuits = catalog.circuits
    if len(circuits) != 1:
        return SlGeneratorReport(
            holds=False,
            degree=None,
            reason=f"support has {len(circuits)} circuits, need exactly 1",
        )
    only = circuits[0]
    if not only.positive:
        return SlGeneratorReport(
            holds=False, degree=None, reason="the single circuit is not positive"
        )
    return SlGeneratorReport(
        holds=True,
        degree=only.d_order,
        reason=(
            f"single positive circuit of degree {only.d_order}; SL-type bidegrees "
            f"on this support are (r*{only.d_order}, 0)"
        ),
    )

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


def _search(rest: list[list[int]], marks: list[list[int]], still: int, echelon: list, out: list) -> None:
    """Append to `out` a leaf (echelon, c) for every echelon [(row, pivot), ...]
    that completes `echelon` by `still` rows of `rest` taken in order as the
    greedy basis of the hyperplane they span; c = [-y, x] spans the kernel of
    the last row (x, y), which lives on two coordinates, or is [1] when there
    is no row to add.

    Rows of `rest` and `marks` are reduced against `echelon` and kept on the
    still+1 coordinates it has not pivoted on; zero rows are dropped from
    `rest` (they lie in every completion). A row of `rest` that is independent
    but skipped joins `marks`, and every mark must stay outside the final
    span; that makes the greedy basis, and so each hyperplane, unique.
    `marks` belongs to the call, which extends it.
    """
    if still == 0:
        out.append((echelon, [1]))
        return
    if still == 1:
        # a row completes the hyperplane unless a mark or an earlier row is parallel to it
        for x, y in rest:
            for x2, y2 in marks:
                if x * y2 == y * x2:
                    break
            else:
                marks.append((x, y))
                out.append((echelon, [-y, x]))
        return
    for q in range(len(rest) - still + 1):
        v = rest[q]
        p = 0
        while not v[p]:
            p += 1
        a = v[p]
        if still == 2:
            # the last two levels inline: marks and later rows reduce to their two
            # entries off the pivot, then face the parallel test of still == 1
            i, j = (1, 2) if p == 0 else (0, 2) if p == 1 else (0, 1)
            vi, vj = v[i], v[j]
            seen = []
            for w in marks:
                b = w[p]
                x, y = a * w[i] - b * vi, a * w[j] - b * vj
                if not (x or y):
                    break  # a mark fell into the span
                seen.append((x, y))
            else:
                chain = echelon + [(v, p)]
                for w in rest[q + 1 :]:
                    b = w[p]
                    x, y = a * w[i] - b * vi, a * w[j] - b * vj
                    if not (x or y):
                        continue
                    for x2, y2 in seen:
                        if x * y2 == y * x2:
                            break
                    else:
                        seen.append((x, y))
                        out.append((chain, [-y, x]))
            marks.append(v)
            continue
        # Reduce the marks, then the later rows, by v, and drop coordinate p,
        # where all of them are now zero. A mark is only tested for zero and
        # reduced further, so it keeps its common factor; its entries grow
        # additively in bit length over at most t levels.
        reduced = []
        for w in marks:
            b = w[p]
            if b:
                w = [a * s - b * t for s, t in zip(w, v)]
                del w[p]
                if not any(w):
                    break  # a mark fell into the span
            else:
                w = w[:p] + w[p + 1 :]
            reduced.append(w)
        else:
            later = []
            for w in rest[q + 1 :]:
                b = w[p]
                if b:
                    w = [a * s - b * t for s, t in zip(w, v)]
                    del w[p]
                    g = gcd(*w)
                    if not g:
                        continue
                    if g > 1:
                        w = [s // g for s in w]
                else:
                    w = w[:p] + w[p + 1 :]
                later.append(w)
            _search(later, reduced, still - 1, echelon + [(v, p)], out)
        marks.append(v)


def enumerate_circuits(support: Support) -> CircuitCatalog:
    """All circuits of the support's sign vectors, in lexicographic member order.

    The later label of each complement pair is left out of the search, whose
    circuits are then lifted to the full support. Each circuit C of the rest
    is found from one set S of k-1 labels outside it: the greedy basis of the
    dual rows outside C, taking free columns first and then pivot columns. A
    free label in S only sets its coordinate of c to zero, so the search picks
    the live free coordinates T = C & F (1 <= |T| <= r+1) outright and
    searches only the pivot rows Q[p, T], depth first, for the rest of S. A
    row skipped while independent must stay outside the final span, which
    makes S unique: every circuit is reached at exactly one leaf. A full-rank
    support (k = 0, such as W_n) has no free coordinate and so no circuits.
    All arithmetic is exact fraction-free integer elimination.
    """
    labels = support.labels
    index = {label: i for i, label in enumerate(labels)}
    # the earlier label of each complement pair -> the later one
    twin = {i: j for i, label in enumerate(labels) if (j := index.get(label.translate(_COMPLEMENT), -1)) > i}
    kept = [i for i in range(len(labels)) if i not in twin.values()]
    pivots, free, D, Q = _systematic_kernel([weight_vector(labels[i]) for i in kept])
    r, k = len(pivots), len(free)
    # kernel coordinates as indices into the whole support
    pivots, free = [kept[j] for j in pivots], [kept[j] for j in free]
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t in range(1, min(k, r + 1) + 1):
        # the live labels' own dual rows, unit vectors in c[T]: they start as
        # marks, so every c_m with m in T stays nonzero
        units = [[int(m == i) for i in range(t)] for m in range(t)]
        for live in combinations(range(k), t):
            rows = [(pivots[i], z) for i, row in enumerate(Q) if any(z := [row[m] for m in live])]
            leaves: list = []
            _search([z for _, z in rows], list(units), t - 1, [], leaves)
            for echelon, c in leaves:
                # back-substitution: each echelon row fixes the entry of c at
                # its pivot, and its entries before the pivot are zero
                for v, p in reversed(echelon):
                    a = v[p]
                    s = sum(map(mul, v[p + 1 :], c[p:]))
                    if s % a:
                        c = [x * a for x in c]
                        s *= a
                    c.insert(p, -s // a)
                y = [0] * len(labels)
                for m, x in zip(live, c):
                    y[free[m]] = D * x
                for j, z in rows:
                    y[j] = sum(map(mul, z, c))
                found[tuple(compress(range(len(y)), y))] = normalize_int_vector(list(compress(y, y)))

    # lift the circuits to the left-out twins, one complement pair at a time
    for i, j in twin.items():
        for members, z in list(found.items()):
            if i in members:
                entries = sorted((j, -x) if m == i else (m, x) for m, x in zip(members, z))
                sign = 1 if entries[0][1] > 0 else -1
                found[tuple(m for m, _ in entries)] = tuple(sign * x for _, x in entries)
        found[i, j] = (1, 1)

    circuits = tuple(
        BalancedCircuit(tuple(labels[i] for i in members), found[members]) for members in sorted(found)
    )
    for c in circuits:
        if len(c.member_labels) > support.n + 1:
            raise InternalError("circuit larger than n+1 members")
    return CircuitCatalog(support=support, circuits=circuits)
