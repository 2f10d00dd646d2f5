"""Invariant monomials of the local diagonal torus and their bidegrees.

An integer vector z on the support labels gives the monomial
prod_j c_j^{max(z_j,0)} * conj(c_j)^{max(-z_j,0)} with bidegree (sum of
positive z, sum of |negative z|). It is invariant under the local diagonal
phases exactly when z lies in ker_Z(A), A the n x L matrix of the labels'
sign vectors. The invariant ring is generated by the modulus squares |c_j|^2
and one monomial per element of the Graver basis of ker_Z(A), its conformally
minimal vectors. This module builds the monomials of the circuit relations
only. Circuits are Graver elements, but in general a proper subset of them
(Sturmfels, Groebner Bases and Convex Polytopes, 1996, ch. 4), so the circuit
monomials and the |c_j|^2 need not generate the ring. Spin-flip
symmetrization lifts monomials to invariants of the larger normalizer when an
admissibility condition on the bidegree holds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Union

from .circuits import BalancedCircuit
from .errors import DimensionError, InputError
from .exactlinalg import gf2_generators, require_ints
from .states import PureState, Support, Value, _label_tuple


class Bidegree(NamedTuple):
    a: int
    b: int


class InvariantMonomial(Value):
    """Product of amplitudes and conjugated amplitudes over distinct labels.

    terms are (label, plain_exponent, conj_exponent), sorted by label value,
    with no term entirely zero.
    """

    __slots__ = _key = ("terms",)

    def __init__(self, terms: Iterable[tuple[str, int, int]]) -> None:
        try:
            terms = tuple((label, p, q) for label, p, q in terms)
        except (TypeError, ValueError):  # a term that does not unpack into three
            raise InputError("monomial terms must be (label, p, q) triples") from None
        if not terms:
            raise InputError("monomial needs at least one term")
        require_ints([x for _, p, q in terms for x in (p, q)], "monomial exponents")
        labels = tuple(t[0] for t in terms)
        if Support.from_labels(labels).labels != labels:
            raise InputError("monomial terms must be sorted by label value")
        for label, p, q in terms:
            if p < 0 or q < 0 or (p == 0 and q == 0):
                raise InputError(f"bad exponents ({p},{q}) for label {label!r}")
        self._set(terms=terms)

    @property
    def bidegree(self) -> Bidegree:
        return Bidegree(sum(t[1] for t in self.terms), sum(t[2] for t in self.terms))

    @property
    def n(self) -> int:
        return len(self.terms[0][0])


class FlipRejection(NamedTuple):
    """Typed refusal to symmetrize: the named mask breaks admissibility."""

    mask: str
    bidegree: Bidegree
    reason: str


class InvariantSum(NamedTuple):
    """Sum of spin-flipped copies of a monomial, one term per mask."""

    monomials: tuple[InvariantMonomial, ...]
    flip_group: tuple[str, ...]

    @property
    def bidegree(self) -> Bidegree:
        return self.monomials[0].bidegree


def monomial_from_circuit(circuit: BalancedCircuit) -> InvariantMonomial:
    return InvariantMonomial(
        (label, max(z, 0), max(-z, 0)) for label, z in zip(circuit.member_labels, circuit.relation)
    )


def abs_square_generators(support: Support) -> list[InvariantMonomial]:
    """The |c_j|^2 generators, one per support label, bidegree (1,1) each."""
    return [InvariantMonomial(((label, 1, 1),)) for label in support.labels]


def is_sl_type(m: InvariantMonomial) -> bool:
    """Holomorphic or antiholomorphic: one side of the bidegree is zero."""
    a, b = m.bidegree
    return a == 0 or b == 0


def _valued_terms(m: InvariantMonomial) -> list[tuple[int, int, int]]:
    return [(int(label, 2), p, q) for label, p, q in m.terms]


def _flipped(terms: list[tuple[int, int, int]], mask: int, n: int) -> InvariantMonomial:
    """The monomial of n-bit terms (label value, p, q) relabelled by XOR with
    an n-bit mask value. XOR by a mask permutes the n-bit labels, so the
    flipped terms are valid and distinct and need only sorting by value."""
    return InvariantMonomial._trusted(
        tuple([(f"{v:0{n}b}", p, q) for v, p, q in sorted([(v ^ mask, p, q) for v, p, q in terms])])
    )


def symmetrize_over_flips(
    m: InvariantMonomial, flip_group: Sequence[str]
) -> Union[InvariantSum, FlipRejection]:
    """Sum the monomial over a spin-flip group, or explain why that is not
    an invariant of the larger group.

    The masks must be labels of one width closed under xor; a repeated mask
    counts once. The sum is admitted when every mask moves an even number of
    qubits, or when the bidegree difference a-b is divisible by four;
    otherwise the first offending mask is reported. Rejection is an outcome,
    not an error.
    """
    masks = dict.fromkeys(_label_tuple(flip_group))
    if not masks:
        raise InputError("flip group must contain at least the zero mask")
    masks = Support.from_labels(masks).labels
    rank = len(gf2_generators([int(mask, 2) for mask in masks]))
    if len(masks) != 1 << rank:  # a group, zero mask included, is all 2^rank masks of its span
        raise InputError(f"flip group not closed under xor: {len(masks)} masks of GF(2) rank {rank}")
    return _symmetrized(m, masks)


def _symmetrized(m: InvariantMonomial, masks: tuple[str, ...]) -> Union[InvariantSum, FlipRejection]:
    """symmetrize_over_flips over distinct masks in value order that are known
    to form a flip group, such as a FlipGroup's."""
    if m.n != len(masks[0]):
        raise DimensionError("monomial and flip group qubit counts differ")

    a, b = m.bidegree
    if (a - b) % 4 != 0:
        for mask in masks:
            if mask.count("1") % 2 == 1:
                return FlipRejection(
                    mask=mask,
                    bidegree=m.bidegree,
                    reason=(
                        f"mask {mask} flips an odd number of qubits and the bidegree "
                        f"difference {a - b} is not divisible by 4"
                    ),
                )
    terms = _valued_terms(m)
    return InvariantSum(monomials=tuple(_flipped(terms, int(x, 2), m.n) for x in masks), flip_group=masks)


def evaluate(obj: Union[InvariantMonomial, InvariantSum], psi: PureState) -> complex:
    """Numeric value of a monomial or symmetrized sum on a state."""
    if isinstance(obj, InvariantSum):
        return sum((evaluate(mono, psi) for mono in obj.monomials), 0j)
    if obj.n != psi.n:
        raise DimensionError("monomial and state qubit counts differ")
    value = 1 + 0j
    for label, p, q in obj.terms:
        c = psi.amplitude(label)
        value *= c**p * c.conjugate() ** q
    return value
