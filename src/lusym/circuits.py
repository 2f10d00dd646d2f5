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
form one line, whose nonzero entries, read in label order off F and P and
divided by their gcd, first one positive, are the circuit and its relation.
Each circuit C arises from any basis S of the dual rows outside C: |C| <= r+1.
When at most n sign vectors are searched and they are independent mod 3, k = 0
is known before any kernel is built, and the search is skipped.

A label s and its complement s XOR 1^n have opposite sign vectors, so they
are parallel elements of the matroid: {s, s XOR 1^n} is a circuit with
relation (1, 1), no other circuit holds both, and either can replace the
other in any circuit with its relation entry negated. The later label of each
pair is left out of the search and its circuits are lifted afterwards, each by
one insertion: the later label takes the earlier one's place at its own
position in label order, and the first entry fixes the relation's sign. The
search works in compressed coordinates: a row chosen at pivot p has cleared p
from every mark and later row, so p is dropped and each level works on one
coordinate fewer. The unit vectors it starts from as marks are never stored:
every coordinate left keeps its own, and the pivot's becomes the pivot row.
The levels with four and three coordinates left run on unpacked scalars,
reducing marks and rows to triples and then to pairs for the last level's
parallel test; only searches over five or more coordinates build lists.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul, neg
from typing import NamedTuple

from .errors import InternalError, LimitError
from .exactlinalg import gf3_reduced, hermite_normal_form
from .states import Support, _signs

_COMPLEMENT = str.maketrans("01", "10")

# The most circuits one search records, lifted twins included. Their number
# grows combinatorially with the support, and the search stops after the live
# set or lifted batch that crosses the cap: the 64 labels of 6 qubits reach it
# in under 3 s with 39 MB resident.
MAX_CIRCUITS = 100_000


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
        return min(self.relation) > 0

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


def _systematic_kernel(
    vectors: list[tuple[int, ...]],
) -> tuple[list[int], list[int], int, list[list[int]]]:
    """Pivot columns P, free columns F, D and Q with ker A = {y : y_F = D*c, y_P = Q*c}.

    A has the given vectors as its columns. Its Hermite normal form, with the
    entries above each pivot cleared bottom up by fraction-free steps and each
    row divided by the gcd of its entries, is the primitive integer reduced
    row echelon form: pivot d_i in column P[i] and R[i][m] = a[i][F[m]] / d_i.
    The form is built from A's distinct rows up to sign, each reduced once: a
    row equal to +-another adds nothing to the row lattice, whose form is unique.
    """
    rows = dict.fromkeys(row if row[0] > 0 else tuple(map(neg, row)) for row in zip(*vectors))
    a = list(hermite_normal_form(rows))
    pivots = [next(j for j, x in enumerate(h) if x) for h in a]
    for i in reversed(range(len(a))):
        v, p = a[i], pivots[i]
        g = gcd(*v)
        if g > 1:
            v = a[i] = [x // g for x in v]
        for k in range(i):
            b = a[k][p]
            if b:
                a[k] = [v[p] * s - b * t for s, t in zip(a[k], v)]
    is_pivot = set(pivots)
    free = [j for j in range(len(vectors)) if j not in is_pivot]
    D = lcm(*(a[i][col] for i, col in enumerate(pivots)))
    Q = [[-a[i][f] * (D // a[i][col]) for f in free] for i, col in enumerate(pivots)]
    return pivots, free, D, Q


# the coordinates left beside each pivot of a four-coordinate row
_OTHERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


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

    Besides `marks`, the unit vector of every coordinate left is a mark: the
    search starts from the live labels' own dual rows, a pivot p leaves each
    other unit a unit, and turns e_p into the mark -v with p dropped (kept as
    +v, since only a mark's direction counts), which is zero when v has no
    other entry. So the units are carried implicitly, not as rows; on two
    coordinates they bar exactly the rows with a zero entry, the rows
    parallel to one of them.

    With four coordinates left, the marks and later rows are reduced to
    triples on unpacked scalars and `_three_coordinates` ends the search on
    them; only five or more coordinates go through lists and recursion.
    """
    if still == 0:
        out.append((echelon, [1]))
        return
    if still == 1:
        # a row completes the hyperplane unless a unit, a mark or an earlier row is parallel to it
        for x, y in rest:
            if not (x and y):
                continue
            for x2, y2 in marks:
                if x * y2 == y * x2:
                    break
            else:
                marks.append((x, y))
                out.append((echelon, [-y, x]))
        return
    if still == 2:
        _three_coordinates(rest, marks, echelon, out)
        return
    for q in range(len(rest) - still + 1):
        v = rest[q]
        p = 0
        while not v[p]:
            p += 1
        a = v[p]
        if still == 3:
            # four coordinates on scalars: marks and later rows reduce to the
            # triples off the pivot, and the last two levels take those
            i, j, k = _OTHERS[p]
            vi, vj, vk = v[i], v[j], v[k]
            if not (vi or vj or vk):
                marks.append(v)
                continue  # e_p fell into the span
            reduced = [(vi, vj, vk)]
            for w in marks:
                b = w[p]
                x, y, z = a * w[i] - b * vi, a * w[j] - b * vj, a * w[k] - b * vk
                if not (x or y or z):
                    break  # a mark fell into the span
                reduced.append((x, y, z))
            else:
                later = []
                for w in rest[q + 1 :]:
                    b = w[p]
                    x, y, z = a * w[i] - b * vi, a * w[j] - b * vj, a * w[k] - b * vk
                    g = gcd(x, y, z)
                    if g == 1:
                        later.append((x, y, z))
                    elif g:
                        later.append((x // g, y // g, z // g))
                _three_coordinates(later, reduced, echelon + [(v, p)], out)
            marks.append(v)
            continue
        # Reduce the marks, then the later rows, by v, and drop coordinate p,
        # where all of them are now zero. A mark is only tested for zero and
        # reduced further, so it keeps its common factor; its entries grow
        # additively in bit length over at most t levels.
        reduced = [v[:p] + v[p + 1 :]]
        if not any(reduced[0]):
            marks.append(v)
            continue  # e_p fell into the span
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


def _three_coordinates(rest: list, marks: list, echelon: list, out: list) -> None:
    """_search with still == 2, on scalars: marks and later rows reduce to
    their two entries off the pivot, then face the parallel test of still == 1."""
    for q in range(len(rest) - 1):
        v = rest[q]
        p = 0
        while not v[p]:
            p += 1
        a = v[p]
        i, j = (1, 2) if p == 0 else (0, 2) if p == 1 else (0, 1)
        vi, vj = v[i], v[j]
        if not (vi or vj):
            marks.append(v)
            continue  # e_p fell into the span
        seen = [(vi, vj)]
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
                if not (x and y):
                    continue  # zero, or parallel to a unit
                for x2, y2 in seen:
                    if x * y2 == y * x2:
                        break
                else:
                    seen.append((x, y))
                    out.append((chain, [-y, x]))
        marks.append(v)


def _independent_mod_3(values: list[int], n: int) -> bool:
    """Are the sign vectors of the n-bit labels with these values independent
    over GF(3)? A sign vector is packed as its +1 and -1 masks, ~s and s."""
    full, basis = (1 << n) - 1, []
    for s in values:
        p, m = gf3_reduced(~s & full, s, basis)
        if not p | m:
            return False
        lead = 1 << ((p | m).bit_length() - 1)
        basis.append((lead, p, m) if p & lead else (lead, m, p))
    return True


def enumerate_circuits(support: Support) -> CircuitCatalog:
    """All circuits of the support's sign vectors, in lexicographic member order.

    The later label of each complement pair is left out of the search, whose
    circuits are then lifted to the full support. Each circuit C of the rest is
    found from one set S of k-1 labels outside it: the greedy basis of the dual
    rows outside C, taking free columns first and then pivot columns. A free
    label in S only sets its coordinate of c to zero, so the search picks the
    live free coordinates T = C & F (1 <= |T| <= r+1) outright and searches
    only the pivot rows Q[p, T], depth first, for the rest of S. A row skipped
    while independent must stay outside the final span, which makes S unique:
    every circuit is reached at exactly one leaf. A leaf's c, back-substituted
    on T, gives the circuit in one pass: members are read in label order off T
    (entry D*c) and the pivot rows z (entry z.c, kept when nonzero), and the
    relation is divided by its gcd, first entry positive. All arithmetic is
    exact fraction-free integer elimination.

    Before the kernel is built, k = 0 is decided mod 3: when the labels left
    in the search number at most n and their sign vectors are independent
    over GF(3), they are independent over Z too (a minor nonzero mod 3 is
    nonzero), so the search has no free coordinate and no circuit, and
    neither the kernel nor the search runs. The complement pairs are then the
    whole catalog. A support independent over Q but not mod 3, such as W_n
    for n = 2 mod 3, builds the kernel and finds k = 0 there.

    Each circuit holding the earlier label i of a complement pair is lifted by
    putting the later label j in i's place, at the one position in label order
    that bisect gives, with the entry negated; if i led, the relation's new
    first entry fixes its sign. Past MAX_CIRCUITS circuits, lifted twins
    included, it raises LimitError. The cap is checked once per live set T and
    once per lifted pair, so memory stays bounded by the cap plus one live
    set's leaves or one lifted batch.
    """
    labels = support.labels
    index = {label: i for i, label in enumerate(labels)}
    # the earlier label of each complement pair -> the later one
    twin = {i: j for i, label in enumerate(labels) if (j := index.get(label.translate(_COMPLEMENT), -1)) > i}
    kept = [i for i in range(len(labels)) if i not in twin.values()]
    # independent mod 3: no free coordinate, so the live-set loop below has no pass
    r = k = 0
    if len(kept) > support.n or not _independent_mod_3([int(labels[i], 2) for i in kept], support.n):
        pivots, free, D, Q = _systematic_kernel([_signs(labels[i]) for i in kept])
        r, k = len(pivots), len(free)
        # kernel coordinates as indices into the whole support, and Q's columns
        pivots, free, columns = [kept[j] for j in pivots], [kept[j] for j in free], list(zip(*Q))
    found: dict[tuple[int, ...], tuple[int, ...]] = {}

    def check_cap() -> None:
        if len(found) > MAX_CIRCUITS:
            raise LimitError(
                f"circuit search: the support of {len(labels)} labels on {support.n} qubits "
                f"has more than {MAX_CIRCUITS} circuits, the cap"
            )

    for t in range(1, min(k, r + 1) + 1):
        for live in combinations(range(k), t):
            rows = [(j, z) for j, z in zip(pivots, zip(*[columns[m] for m in live])) if any(z)]
            leaves: list = []
            # the live labels' own dual rows, the unit vectors in c[T], are the
            # search's implicit marks, so every c_m with m in T stays nonzero
            _search([z for _, z in rows], [], t - 1, [], leaves)
            if not leaves:
                continue
            slots = sorted([(free[m], pos, None) for pos, m in enumerate(live)] + [(j, 0, z) for j, z in rows])
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
                members, z = [], []
                for j, pos, row in slots:
                    if x := sum(map(mul, row, c)) if row else D * c[pos]:
                        members.append(j)
                        z.append(x)
                g = gcd(*z) if z[0] > 0 else -gcd(*z)
                found[tuple(members)] = tuple([x // g for x in z])
            check_cap()

    # lift the circuits to the left-out twins, one complement pair at a time:
    # j takes i's place, at its own position in label order, with the entry negated
    for i, j in twin.items():
        lifted = {}
        for members, z in found.items():
            if i in members:
                p, q = members.index(i), bisect(members, j)
                z = (*z[:p], *z[p + 1 : q], -z[p], *z[q:])
                lifted[(*members[:p], *members[p + 1 : q], j, *members[q:])] = z if z[0] > 0 else tuple(map(neg, z))
        found.update(lifted)
        found[i, j] = (1, 1)
        check_cap()

    if max(map(len, found), default=0) > support.n + 1:
        raise InternalError("circuit larger than n+1 members")
    circuits = tuple(BalancedCircuit(itemgetter(*members)(labels), found[members]) for members in sorted(found))
    return CircuitCatalog(support=support, circuits=circuits)
