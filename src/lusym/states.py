"""Sparse n-qubit pure states in the computational basis.

Basis labels are bit strings whose leftmost character is qubit 1. Phases are
exact rationals measured in turns (one turn = 2*pi radians), so phase-fixing
conditions and group membership stay decidable; floating point appears only
when amplitudes are actually multiplied out.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import DimensionError, InputError, LimitError
from .exactlinalg import require_ints

# fractions is imported only where a Fraction is built, so that `analyze --json`,
# `verify` and `compare` never load it
if TYPE_CHECKING:
    from fractions import Fraction

# Amplitudes smaller than this are rejected outright: a label either belongs to
# the support or it does not, and silently dropping near-zeros would change the
# combinatorics behind the caller's back.
AMPLITUDE_FLOOR = 1e-12

DEFAULT_TOL = 1e-9

# The most qubits any constructor accepts. A group on n qubits is solved
# through an (n+1) x (n+1) transform: the trivial group of a file with
# n = 2,048 takes 1.2 to 1.3 s and 176 to 185 MB (Python 3.11, one core of a
# shared 2-core host), and memory grows as the square of n.
MAX_QUBITS = 2048


def check_qubit_count(n: int) -> None:
    require_ints((n,), "qubit count n")
    if 1 <= n <= MAX_QUBITS:
        return
    # past 4,300 digits Python refuses to print an int
    got = n if n.bit_length() <= 4096 else f"an int of {n.bit_length()} bits"
    if n < 1:
        raise InputError(f"qubit count n must be at least 1, got {got}")
    raise LimitError(f"qubit count n must be at most MAX_QUBITS = {MAX_QUBITS}, got {got}")


def require_tol(tol: float) -> None:
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and > 0, got {tol}")
    if tol >= 1:  # a deviation is at most 2|c| <= 2, and a norm error is of the same order
        raise InputError(f"tol must be < 1, got {tol}: from 1 up a check passes moved and unnormalized states")


def validate_label(label: str, n: int | None = None) -> str:
    if not isinstance(label, str) or not label:
        raise InputError(f"basis label must be a nonempty bit string, got {label!r}")
    if label.strip("01"):  # a character other than 0 and 1 survives the strip
        raise InputError(f"basis label may contain only 0 and 1, got {label!r}")
    if n is not None and len(label) != n:
        raise DimensionError(f"label {label!r} has {len(label)} bits, expected {n}")
    return label


def _signs(label: str) -> tuple[int, ...]:
    """Signs ((-1)^{s_1}, ..., (-1)^{s_n}) of a basis label s that a Support
    or PureState has already checked."""
    return tuple(1 if ch == "0" else -1 for ch in label)


class Value:
    """Base of the immutable value types. A subclass names its attributes in
    __slots__, in repr order, and its constructor arguments in _key: they alone
    decide equality and hashing, and pickling and copying call the constructor
    with them again."""

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """The instance with these _key values, built without the constructor's
        checks: only for a caller whose construction already guarantees them."""
        self = object.__new__(cls)
        for name, value in zip(cls._key, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _ReadOnlyDict(dict):
    """A dict whose mutators raise, so a state's amplitudes stay the ones its
    constructor checked. Pickling rebuilds it from a plain dict, since
    unpickling a dict subclass would otherwise fill it by __setitem__."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a state's amplitudes are read-only; build a new PureState instead")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _label_tuple(labels: Iterable[str]) -> tuple[str, ...]:
    """labels as a tuple. A str is refused: iterating it would read each of
    its characters as a label of its own."""
    if isinstance(labels, str):
        raise InputError(f"expected a collection of bit strings, got the str {labels!r}")
    return tuple(labels)


def _width(labels: Iterable[str]) -> int:
    """The bit count of the first label, which the others must share; 0 when
    there is none, which the constructors refuse."""
    for lab in labels:
        return len(validate_label(lab))
    return 0


class Support(Value):
    """A nonempty set of distinct n-bit basis labels, n >= 1, stored sorted by
    value: the one check of a set of labels, run for states, monomials and flip groups."""

    __slots__ = _key = ("n", "labels")

    def __init__(self, n: int, labels: Iterable[str]) -> None:
        labels = _label_tuple(labels)
        if not labels:
            raise InputError("support must contain at least one label")
        check_qubit_count(n)
        for lab in labels:
            validate_label(lab, n)
        if len(set(labels)) != len(labels):
            raise InputError("support labels must be distinct")
        self._set(n=n, labels=tuple(sorted(labels, key=lambda lab: int(lab, 2))))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Support":
        """The support of these labels, on as many qubits as the first has bits."""
        labels = _label_tuple(labels)
        return cls(_width(labels), labels)

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class PureState(Value):
    """Sparse pure state: a nonempty mapping from distinct n-bit basis labels
    to int, float or complex amplitudes, each finite and of magnitude at
    least AMPLITUDE_FLOOR, stored as complex in label-value order in a
    read-only dict. The labels are therefore exactly the support, and every
    stage reads the amplitudes in support order."""

    __slots__ = _key = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes: Mapping[str, complex]) -> None:
        if not isinstance(amplitudes, Mapping):
            raise InputError(f"amplitudes must be a mapping from labels to numbers, got {type(amplitudes).__name__}")
        clean: dict[str, complex] = {}
        for lab in Support(n, amplitudes).labels:
            a = amplitudes[lab]
            if isinstance(a, bool) or not isinstance(a, (int, float, complex)):
                raise InputError(f"amplitude for {lab!r} must be an int, float or complex, got {type(a).__name__}")
            try:
                c = complex(a)
            except OverflowError:
                raise InputError(f"amplitude for {lab!r} is an int past the float range, not a finite number") from None
            if not cmath.isfinite(c):
                raise InputError(f"amplitude for {lab!r} is {c}, not a finite number")
            if abs(c) < AMPLITUDE_FLOOR:
                raise InputError(
                    f"amplitude for {lab!r} has magnitude {abs(c):.3e}, below the "
                    f"{AMPLITUDE_FLOOR:.0e} floor; drop the label explicitly instead"
                )
            clean[lab] = c
        self._set(n=n, amplitudes=_ReadOnlyDict(clean))

    @classmethod
    def from_amplitudes(cls, amps: Mapping[str, complex]) -> "PureState":
        """The state with these amplitudes, on as many qubits as its first label has bits."""
        return cls(_width(amps), amps)

    def support(self) -> Support:
        """The state's labels, unchecked: the constructor took them from a Support."""
        return Support._trusted(self.n, tuple(self.amplitudes))

    def amplitude(self, label: str) -> complex:
        return self.amplitudes.get(label, 0j)

    def norm(self) -> float:
        try:
            return math.sqrt(sum(abs(c) ** 2 for c in self.amplitudes.values()))
        except OverflowError:
            # A square beyond the float maximum raises; hypot scales instead and
            # returns inf only when the norm itself overflows. It is not used
            # throughout because it can differ in the last bit, and the norm
            # is written into every report.
            return math.hypot(*(x for c in self.amplitudes.values() for x in (c.real, c.imag)))

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol


def require_normalized(psi: PureState, tol: float) -> None:
    """Raise InputError unless 0 < tol < 1 and the norm is 1 within tol."""
    require_tol(tol)
    if not psi.is_normalized(tol):
        raise InputError(
            f"state norm is {psi.norm():.12f}, not 1 within {tol:.0e}; normalize it first"
        )


def _checked(nums: Iterable[int], den: int) -> tuple[int, ...]:
    """nums as a tuple, once every entry and den are int (bool is not), den >= 1
    and there are phis for at least one qubit besides theta."""
    nums = tuple(nums)
    require_ints((*nums, den), "phase numerators and den")
    check_qubit_count(len(nums) - 1)
    if den < 1:
        raise InputError(f"phase denominator den must be >= 1, got {den}")
    return nums


class PhaseVector(Value):
    """A diagonal phase element: per-qubit turns phi_1..phi_n plus a global turn theta.

    The unitary it denotes multiplies the amplitude of label s by
    exp(2*pi*i * (sum_k phi_k * (-1)^{s_k} + theta)). The turns are stored
    exactly, as integer numerators nums = (phi_1..phi_n, theta) in [0, den)
    over one denominator den >= 1 with gcd(den, *nums) = 1, so equal elements
    are equal objects and den is the element's order in the torus.
    """

    __slots__ = _key = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int) -> None:
        nums = _checked(nums, den)
        if math.gcd(den, *nums) != 1:
            raise InputError(f"phase numerators {nums} over {den} are not in lowest terms")
        if not all(0 <= x < den for x in nums):
            raise InputError(f"phase numerators {nums} must lie in [0, {den})")
        self._set(nums=nums, den=den)

    @property
    def n(self) -> int:
        return len(self.nums) - 1

    @property
    def phis(self) -> tuple[Fraction, ...]:
        return self.as_tuple()[:-1]

    @property
    def theta(self) -> Fraction:
        return self.as_tuple()[-1]

    @classmethod
    def from_numerators(cls, nums: Iterable[int], den: int) -> "PhaseVector":
        """The element with turns nums[i] / den, each reduced to [0, 1)."""
        reduced = [x % den for x in _checked(nums, den)]
        common = math.gcd(den, *reduced)
        return cls(tuple(x // common for x in reduced), den // common)

    def as_tuple(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple(Fraction(x, self.den) for x in self.nums)
