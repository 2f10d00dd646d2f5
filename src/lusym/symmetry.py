"""Locally diagonal symmetry groups of a support, solved exactly.

The group of diagonal elements diag(phi_1..phi_n, theta) fixing every basis
label of a support is the set of x with M x integral, where M holds the sign
rows (w_s, 1) of the labels. It is fixed by one lattice: Lambda, the integer
row lattice of M, its character lattice (Pontryagin duality). A group is
stored as the Hermite normal form of Lambda, so equal groups are equal
objects, and its torus basis and finite generators are derived from that form
once, by Smith normal form. Membership and containment read the form alone.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionError, InputError, InternalError
from .exactlinalg import as_tuple, hermite_normal_form, lattice_member, require_ints, smith_normal_form
from .states import PhaseVector, Support, Value, _signs, check_qubit_count


def sign_rows(labels: Iterable[str]) -> tuple[tuple[int, ...], ...]:
    """Sign matrix of checked labels, such as a support's: one row
    ((-1)^{s_1}, ..., (-1)^{s_n}, 1) per label, in iteration order."""
    return tuple(_signs(label) + (1,) for label in labels)


class DiagonalSymmetryGroup(Value):
    """Closed subgroup {x : c . x integral for every c in Lambda} of the
    diagonal torus in (phi_1..phi_n, theta) coordinates.

    Built from any integer rows of length n+1 spanning Lambda, it stores their
    row Hermite normal form as characters; equality and hashing read n and
    characters only. From the Smith form u C v = d of that form it derives the
    group as (torus part) x (finite part): real multiples of the torus_basis
    directions, the kernel columns of v with their signs fixed, plus the
    cyclic factors generated by (column i of v) / d_i for each d_i > 1, taken
    modulo whole turns; of a generator and its inverse, both reduced to [0, 1)
    turns, the lexicographically smaller is kept. The unimodular v has
    primitive columns, so a torus direction only has its sign fixed, first
    nonzero entry positive, and d_i is the order.
    """

    __slots__ = ("n", "characters", "torus_basis", "finite_generators")
    _key = ("n", "characters")

    def __init__(self, n: int, characters: Iterable[Sequence[int]]) -> None:
        check_qubit_count(n)
        rows = as_tuple(characters, "character rows")
        if not all(isinstance(row, Sequence) and len(row) == n + 1 for row in rows):
            raise DimensionError("character rows must be sequences of n+1 entries")
        require_ints(chain.from_iterable(rows), "character entries")
        self._derive(n, rows)

    @classmethod
    def _trusted(cls, n: int, characters: Sequence[Sequence[int]]) -> "DiagonalSymmetryGroup":
        """The group of these rows, built without the constructor's checks:
        only for rows of n+1 ints on a checked n, such as a support's sign rows."""
        self = object.__new__(cls)
        self._derive(n, characters)
        return self

    def _derive(self, n: int, rows: Sequence[Sequence[int]]) -> None:
        """Store the rows' Hermite form and the torus basis and finite
        generators read off its Smith form."""
        characters = hermite_normal_form(rows)
        # Lambda = {0} is the zero row's lattice, whose v is the identity: the full torus
        factors, v_columns, _ = smith_normal_form(characters or ((0,) * (n + 1),))
        torus_basis = tuple(
            col if next(filter(None, col)) > 0 else tuple(-x for x in col) for col in v_columns[len(factors) :]
        )
        # the numerators of a primitive column reduced mod d are ints in
        # [0, d) with gcd(d, *nums) = 1, so PhaseVector's checks hold already
        finite_generators = tuple(
            PhaseVector._trusted(min(tuple(x % d for x in col), tuple(-x % d for x in col)), d)
            for d, col in zip(factors, v_columns)
            if d > 1
        )
        self._set(n=n, characters=characters, torus_basis=torus_basis, finite_generators=finite_generators)

    @classmethod
    def from_presentation(
        cls,
        n: int,
        torus_basis: Sequence[Sequence[int]],
        finite_generators: Sequence[PhaseVector],
    ) -> "DiagonalSymmetryGroup":
        """The group generated by the torus directions and the finite generators.

        Lambda is the set of c with c . t = 0 for each direction t and c . g
        integral for each generator g: the first n+1 coordinates of the integer
        left kernel of [[T, N], [0, diag(den)]], where T holds the directions as
        columns and N the generators' numerators over their denominators den.
        That left kernel is the right kernel of the transpose, whose rows are
        those columns: the trailing columns of v in its Smith decomposition.
        """
        check_qubit_count(n)
        n1 = n + 1
        torus_basis = as_tuple(torus_basis, "torus directions")
        finite_generators = as_tuple(finite_generators, "finite generators")
        if not all(isinstance(g, PhaseVector) for g in finite_generators):
            raise InputError("finite generators must be PhaseVectors")
        vectors = (*torus_basis, *(g.nums for g in finite_generators))
        if not all(isinstance(v, Sequence) and len(v) == n1 for v in vectors):
            raise DimensionError("torus directions and finite generators must have n+1 entries")
        require_ints(chain.from_iterable(torus_basis), "torus directions")
        k = len(finite_generators)
        columns = [list(vec) + [0] * k for vec in torus_basis]
        columns += [
            list(gen.nums) + [gen.den if i == j else 0 for i in range(k)]
            for j, gen in enumerate(finite_generators)
        ]
        # with no columns every c qualifies: the zero row's v is the identity, the trivial group
        dec = smith_normal_form(columns or [[0] * n1])
        return cls(n, tuple(col[:n1] for col in dec.v_columns[len(dec.invariant_factors) :]))

    @property
    def torus_rank(self) -> int:
        return self.n + 1 - len(self.characters)

    @property
    def theta_continuous(self) -> bool:
        return any(vec[-1] != 0 for vec in self.torus_basis)

    @property
    def finite_factors(self) -> tuple[int, ...]:
        return tuple(gen.den for gen in self.finite_generators)

    @property
    def finite_order(self) -> int:
        return math.prod(self.finite_factors)


def solve_symmetry_group(support: Support) -> DiagonalSymmetryGroup:
    """The group of a support: the one whose character lattice is spanned by
    the support's sign rows, checked against those rows."""
    rows = sign_rows(support)
    # rows of n+1 ints from a checked support: the constructor's checks hold
    group = DiagonalSymmetryGroup._trusted(support.n, rows)
    _check_solution(rows, group)
    return group


def _integral(rows: Sequence[Sequence[int]], g: PhaseVector) -> bool:
    """Does every integer row send the phase element to a whole number of turns?

    Over the element's numerators that is row . nums = 0 mod den.
    """
    return all(sum(map(mul, row, g.nums)) % g.den == 0 for row in rows)


def _annihilated_by(rows: Sequence[Sequence[int]], group: DiagonalSymmetryGroup) -> bool:
    """Does every integer row send the whole group to integers?

    Each row must map every torus direction to 0 and every finite generator to
    a whole number of turns.
    """
    return all(
        sum(map(mul, row, vec)) == 0 for row in rows for vec in group.torus_basis
    ) and all(_integral(rows, gen) for gen in group.finite_generators)


def _check_solution(rows: Sequence[Sequence[int]], group: DiagonalSymmetryGroup) -> None:
    # the derived group must fix every label: each sign row sends it to integers
    if not _annihilated_by(rows, group):
        raise InternalError("solved group fails the phase condition")


def group_member(group: DiagonalSymmetryGroup, element: PhaseVector) -> bool:
    """Exact membership of a rational phase element in the group."""
    if element.n != group.n:
        raise DimensionError(f"element on {element.n} qubits, group on {group.n}")
    return _integral(group.characters, element)


def group_contains(h1: DiagonalSymmetryGroup, h2: DiagonalSymmetryGroup) -> bool:
    """Is h2 a subgroup of h1? By duality, exactly when Lambda_1 lies in Lambda_2."""
    if h1.n != h2.n:
        raise DimensionError(f"groups on different qubit counts: {h1.n} vs {h2.n}")
    return all(lattice_member(h2.characters, row) for row in h1.characters)


class QubitActionProfile(NamedTuple):
    """Which qubits the whole group acts on only by +-1.

    trivial[k-1] is True when every generator keeps phi_k in {0, 1/2} turns.
    witnesses[k-1] holds a pair of support labels differing only at position k
    when one exists; such a pair forces triviality at k.
    """

    trivial: tuple[bool, ...]
    witnesses: tuple[tuple[str, str] | None, ...]


def qubit_action_profile(support: Support, group: DiagonalSymmetryGroup) -> QubitActionProfile:
    if group.n != support.n:
        raise DimensionError("support and group qubit counts differ")
    n, basis = support.n, group.torus_basis
    # by columns: a qubit no torus direction moves, and every generator by a half turn at most
    trivial = [not any(col) for col in zip(*basis)][:n] if basis else [True] * n
    for gen in group.finite_generators:
        trivial = [t and 2 * x % gen.den == 0 for t, x in zip(trivial, gen.nums)]
    witnesses: list[tuple[str, str] | None] = []
    values = [int(label, 2) for label in support.labels]
    value_set = set(values)
    for k, is_trivial in enumerate(trivial):
        witness = None
        bit = 1 << (n - 1 - k)
        for v in values:
            if v ^ bit in value_set:
                # the first such label in value order has bit k clear
                witness = (f"{v & ~bit:0{n}b}", f"{v | bit:0{n}b}")
                break
        if witness is not None and not is_trivial:
            raise InternalError(
                f"labels {witness} differ only at qubit {k + 1} yet the solved group "
                "moves that qubit by more than a sign"
            )
        witnesses.append(witness)
    return QubitActionProfile(trivial=tuple(trivial), witnesses=tuple(witnesses))

