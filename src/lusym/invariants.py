"""Invariant monomials of the diagonal symmetry group and their bidegrees.

A circuit relation z turns into the monomial prod_j c_j^{max(z_j,0)} *
conj(c_j)^{max(-z_j,0)} with bidegree (sum of positive z, sum of |negative z|).
Together with the modulus squares |c_j|^2 these generate the invariant ring of
the maximal diagonal group on the support. Spin-flip symmetrization lifts
monomials to invariants of the larger normalizer when an admissibility
condition on the bidegree holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .circuits import BalancedCircuit, CircuitCatalog
from .errors import DimensionError, InputError
from .states import PureState, Support, label_int, validate_label, xor_labels


class Bidegree(NamedTuple):
    a: int
    b: int


@dataclass(frozen=True)
class InvariantMonomial:
    """Product of amplitudes and conjugated amplitudes over distinct labels.

    terms are (label, plain_exponent, conj_exponent), sorted by label value,
    with no term entirely zero.
    """

    terms: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InputError("monomial needs at least one term")
        width = len(self.terms[0][0])
        for label, p, q in self.terms:
            validate_label(label, width)
            if p < 0 or q < 0 or (p == 0 and q == 0):
                raise InputError(f"bad exponents ({p},{q}) for label {label!r}")
        labels = [t[0] for t in self.terms]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate label in monomial")
        if labels != sorted(labels, key=label_int):
            raise InputError("monomial terms must be sorted by label value")

    @property
    def bidegree(self) -> Bidegree:
        return Bidegree(sum(t[1] for t in self.terms), sum(t[2] for t in self.terms))

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[str, int, int]]) -> "InvariantMonomial":
        return cls(tuple(sorted(terms, key=lambda t: label_int(t[0]))))


@dataclass(frozen=True)
class FlipRejection:
    """Typed refusal to symmetrize: the named mask breaks admissibility."""

    mask: str
    bidegree: Bidegree
    reason: str


@dataclass(frozen=True)
class InvariantSum:
    """Sum of spin-flipped copies of a monomial, one term per mask."""

    monomials: tuple[InvariantMonomial, ...]
    flip_group: tuple[str, ...]

    @property
    def bidegree(self) -> Bidegree:
        return self.monomials[0].bidegree


def monomial_from_circuit(circuit: BalancedCircuit) -> InvariantMonomial:
    terms = []
    for label, z in zip(circuit.member_labels, circuit.relation):
        terms.append((label, max(z, 0), max(-z, 0)))
    return InvariantMonomial.from_terms(terms)


def abs_square_generators(support: Support) -> list[InvariantMonomial]:
    """The |c_j|^2 generators, one per support label, bidegree (1,1) each."""
    return [InvariantMonomial(((label, 1, 1),)) for label in support.labels]


def is_sl_type(m: InvariantMonomial) -> bool:
    """Holomorphic or antiholomorphic: one side of the bidegree is zero."""
    a, b = m.bidegree
    return a == 0 or b == 0


def flip_monomial(m: InvariantMonomial, mask: str) -> InvariantMonomial:
    """Relabel every term by XOR with the mask; exponents and bidegree carry over."""
    validate_label(mask, m.n)
    return InvariantMonomial.from_terms(
        (xor_labels(label, mask), p, q) for label, p, q in m.terms
    )


def symmetrize_over_flips(
    m: InvariantMonomial, flip_group: Sequence[str]
) -> Union[InvariantSum, FlipRejection]:
    """Sum the monomial over a spin-flip group, or explain why that is not
    an invariant of the larger group.

    The sum is admitted when every mask moves an even number of qubits, or
    when the bidegree difference a-b is divisible by four; otherwise the first
    offending mask is reported. Rejection is an outcome, not an error.
    """
    masks = sorted(set(flip_group), key=label_int)
    if not masks:
        raise InputError("flip group must contain at least the zero mask")
    n = len(masks[0])
    for mask in masks:
        validate_label(mask, n)
    if "0" * n not in masks:
        raise InputError("flip group must contain the zero mask")
    mask_set = set(masks)
    for x in masks:
        for y in masks:
            if xor_labels(x, y) not in mask_set:
                raise InputError(f"flip group not closed under xor: {x} ^ {y}")
    if m.n != n:
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
    return InvariantSum(
        monomials=tuple(flip_monomial(m, mask) for mask in masks),
        flip_group=tuple(masks),
    )


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


ExactComplex = tuple[Fraction, Fraction]


def _cmul(x: ExactComplex, y: ExactComplex) -> ExactComplex:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cpow(x: ExactComplex, k: int) -> ExactComplex:
    out: ExactComplex = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _cmul(out, x)
    return out


def evaluate_exact(
    obj: Union[InvariantMonomial, InvariantSum],
    amplitudes: Mapping[str, ExactComplex],
) -> ExactComplex:
    """Exact rational value when every amplitude is given as a pair of Fractions."""
    if isinstance(obj, InvariantSum):
        total: ExactComplex = (Fraction(0), Fraction(0))
        for mono in obj.monomials:
            re, im = evaluate_exact(mono, amplitudes)
            total = (total[0] + re, total[1] + im)
        return total
    value: ExactComplex = (Fraction(1), Fraction(0))
    for label, p, q in obj.terms:
        c = amplitudes.get(label)
        if c is None:
            return (Fraction(0), Fraction(0))
        c = (Fraction(c[0]), Fraction(c[1]))
        value = _cmul(value, _cpow(c, p))
        value = _cmul(value, _cpow((c[0], -c[1]), q))
    return value


def bidegree_scaling_check(
    m: Union[InvariantMonomial, InvariantSum],
    psi: PureState,
    factor: complex,
    tol: float = 1e-10,
) -> bool:
    """Does evaluate on factor*psi equal factor^a conj(factor)^b times evaluate on psi?"""
    a, b = m.bidegree
    direct = evaluate(m, psi.scaled(factor))
    predicted = (factor**a) * (factor.conjugate() ** b) * evaluate(m, psi)
    scale = max(abs(direct), abs(predicted), 1e-300)
    return abs(direct - predicted) / scale <= tol


@dataclass(frozen=True)
class SlGeneratorReport:
    """Outcome of the single-circuit hypothesis check on a catalog."""

    holds: bool
    degree: int | None
    reason: str


def single_sl_generator_check(catalog: CircuitCatalog) -> SlGeneratorReport:
    """When the support has exactly one circuit, positive and SL-type, the
    scaling-invariant bidegrees on the support are exhausted by (r*d, 0)."""
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
    mono = monomial_from_circuit(only)
    if not is_sl_type(mono):
        return SlGeneratorReport(
            holds=False, degree=None, reason="the single circuit monomial is not SL-type"
        )
    return SlGeneratorReport(
        holds=True,
        degree=only.d_order,
        reason=(
            f"single positive circuit of degree {only.d_order}; SL-type bidegrees "
            f"on this support are (r*{only.d_order}, 0)"
        ),
    )
