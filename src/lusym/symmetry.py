"""Locally diagonal symmetry groups of a support, solved exactly.

The group of diagonal elements diag(phi_1..phi_n, theta) fixing every basis
label of a support is the solution set of an integer linear system modulo full
turns. Solving the system by Smith normal form yields the continuous torus
part, the finite invariant factors, and exact rational generators.
"""

from __future__ import annotations

import math
import random
from operator import mul
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, InternalError
from .exactlinalg import IntMatrix, normalize_int_vector, smith_normal_form
from .states import PhaseVector, Support, label_int, weight_vector


def sign_rows(labels: Iterable[str]) -> tuple[tuple[int, ...], ...]:
    """Sign matrix of a support or any labels: one row ((-1)^{s_1}, ..., (-1)^{s_n}, 1)
    per label, in iteration order."""
    return tuple(weight_vector(label) + (1,) for label in labels)


@dataclass(frozen=True)
class DiagonalSymmetryGroup:
    """Closed subgroup of the diagonal torus in (phi_1..phi_n, theta) coordinates.

    The group is (torus part) x (finite part): real multiples of the integer
    torus_basis directions, plus the finite cyclic factors generated by the
    rational finite_generators, all taken modulo whole turns. The torus_basis
    directions are linearly independent, so the torus rank is their count, and
    each generator's order is its denominator.
    """

    n: int
    torus_basis: tuple[tuple[int, ...], ...]
    finite_generators: tuple[PhaseVector, ...]

    def __post_init__(self) -> None:
        for vec in self.torus_basis:
            if len(vec) != self.n + 1:
                raise DimensionError("torus basis vectors must have n+1 entries")

    @property
    def torus_rank(self) -> int:
        return len(self.torus_basis)

    @property
    def theta_continuous(self) -> bool:
        return any(vec[-1] != 0 for vec in self.torus_basis)

    @property
    def finite_factors(self) -> tuple[int, ...]:
        return tuple(gen.den for gen in self.finite_generators)

    @property
    def finite_order(self) -> int:
        return math.prod(self.finite_factors)

    @classmethod
    def trivial(cls, n: int) -> "DiagonalSymmetryGroup":
        return cls(n=n, torus_basis=(), finite_generators=())


def solve_symmetry_group(support: Support) -> DiagonalSymmetryGroup:
    """Solve the phase-fixing system of a support.

    With M the (n+1)-column sign matrix, the group is {x : M x = 0 mod 1}.
    Writing u M v = d in Smith form, the kernel columns of v span the torus
    part and each invariant factor d_i > 1 contributes a finite cyclic factor
    generated by (column i of v) / d_i. Of that generator and its inverse,
    both reduced to [0, 1) turns, the lexicographically smaller is kept, so
    the output is deterministic; over the shared denominator d_i that is the
    smaller tuple of numerators. Column i of the unimodular v is primitive, so
    d_i is the generator's lowest-terms denominator.
    """
    rows = sign_rows(support)
    dec = smith_normal_form(IntMatrix(rows))
    factors = dec.invariant_factors
    v_columns = dec.v_columns

    torus_basis = tuple(normalize_int_vector(col) for col in v_columns[len(factors) :])
    finite_generators = []
    for d, col in zip(factors, v_columns):
        if d <= 1:
            continue
        nums = min(tuple(x % d for x in col), tuple(-x % d for x in col))
        finite_generators.append(PhaseVector(nums, d))

    group = DiagonalSymmetryGroup(
        n=support.n, torus_basis=torus_basis, finite_generators=tuple(finite_generators)
    )
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
    # the solved group must fix every label: each sign row sends it to integers
    if not _annihilated_by(rows, group):
        raise InternalError("solved group fails the phase condition")


def character_rows(group: DiagonalSymmetryGroup) -> tuple[tuple[int, ...], ...]:
    """Integer rows spanning the lattice of all c with c . x integral on the group.

    The group is the set of x that every such row sends to an integer. The rows
    are the first n+1 coordinates of the integer left kernel of
    [[T, N], [0, diag(den)]], where T holds the torus directions as columns and
    N the finite generators' numerators over their denominators den. That left
    kernel is the right kernel of the transpose, whose rows are those columns:
    the trailing columns of v in its Smith decomposition.
    """
    n1 = group.n + 1
    gens = group.finite_generators
    columns = [list(vec) + [0] * len(gens) for vec in group.torus_basis]
    columns += [
        list(gen.nums) + [gen.den if i == j else 0 for i in range(len(gens))]
        for j, gen in enumerate(gens)
    ]
    if not columns:
        return IntMatrix.identity(n1).row_tuples()
    dec = smith_normal_form(IntMatrix(columns))
    return tuple(col[:n1] for col in dec.v_columns[dec.rank :])


def group_member(group: DiagonalSymmetryGroup, element: PhaseVector) -> bool:
    """Exact membership of a rational phase element in the group."""
    if element.n != group.n:
        raise DimensionError(f"element on {element.n} qubits, group on {group.n}")
    return _integral(character_rows(group), element)


def group_contains(h1: DiagonalSymmetryGroup, h2: DiagonalSymmetryGroup) -> bool:
    """Is h2 a subgroup of h1? Decided from the group descriptions alone."""
    if h1.n != h2.n:
        raise DimensionError(f"groups on different qubit counts: {h1.n} vs {h2.n}")
    return _annihilated_by(character_rows(h1), h2)


def groups_equal(h1: DiagonalSymmetryGroup, h2: DiagonalSymmetryGroup) -> bool:
    return group_contains(h1, h2) and group_contains(h2, h1)


@dataclass(frozen=True)
class QubitActionProfile:
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
    n = support.n
    trivial = []
    witnesses: list[tuple[str, str] | None] = []
    values = [label_int(label) for label in support.labels]
    value_set = set(values)
    for k in range(n):
        torus_fixed = all(vec[k] == 0 for vec in group.torus_basis)
        gens_half = all(2 * gen.nums[k] % gen.den == 0 for gen in group.finite_generators)
        is_trivial = torus_fixed and gens_half
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
        trivial.append(is_trivial)
        witnesses.append(witness)
    return QubitActionProfile(trivial=tuple(trivial), witnesses=tuple(witnesses))


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
    generators plus a random rational point of the torus part."""
    element = torus_point(group, rng, denominator)
    for gen in group.finite_generators:
        a = rng.randrange(gen.den)
        element = element.compose(PhaseVector.from_numerators((a * x for x in gen.nums), gen.den))
    return element
