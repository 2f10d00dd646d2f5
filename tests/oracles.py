"""Reference implementations kept in the test suite.

`circuits_070(support)` is the circuit search of lusym 0.7.0, copied whole:
a fraction-free systematic kernel of the sign matrix, then, for every set of
live free coordinates, a depth-first search for greedy bases of the dual rows
over all t coordinates, with gcd-normalized directions at the last level and
a null vector by back-substitution. It searches complement pairs s, s XOR 1^n
like any other labels. The package's search must return the same catalog.
Its kernel, `_systematic_kernel(vectors)`, a fraction-free Gauss-Jordan
elimination, is the reference for the package's kernel, which reads the
Hermite normal form instead: both must return the same P, F, D and Q.

`apply_phase_element(g, psi)` moves a state by a phase element in floating
point, the reference for `verify_symmetry`'s finite checks. `evaluate_exact`
evaluates a monomial or flip sum on amplitudes given as pairs of Fractions,
the exact reference for `evaluate`. `bidegree_scaling_check` is the
acceptance predicate for bidegrees. `int_product` multiplies integer matrices
as numpy object arrays, exactly, for the Smith identity u a v = d.
`normalize_int_vector` divides by the gcd and fixes the sign, the reference
for the circuit relations and the torus directions. `xor_closed` decides by
trying every pair whether a set of bit masks is closed under xor, the
reference for the flip-group checks, which count a GF(2) rank instead.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import matmul, mul
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from lusym.circuits import BalancedCircuit
from lusym.errors import DimensionError, InputError
from lusym.exactlinalg import IntMatrix
from lusym.invariants import InvariantMonomial, InvariantSum, evaluate
from lusym.states import PhaseVector, PureState, Support, validate_label, weight_vector


def normalize_int_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, making the leading entry positive."""
    g = gcd(*v)
    if not g:
        raise InputError("cannot normalize the zero vector")
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def xor_closed(masks: Iterable[int]) -> bool:
    """Does the xor of every pair of the masks lie among them?"""
    mask_set = set(masks)
    return all(x ^ y in mask_set for x in mask_set for y in mask_set)


def _eliminate(x, v, p):
    a, b = v[p], x[p]
    out = [a * s - b * t for s, t in zip(x, v)]
    g = gcd(*out)
    return [s // g for s in out] if g > 1 else out


def _systematic_kernel(vectors):
    n, L = len(vectors[0]), len(vectors)
    a = [[vectors[j][i] for j in range(L)] for i in range(n)]
    pivots = []
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


def _direction(x, y):
    g = gcd(x, y)
    if x < 0 or not x and y < 0:
        g = -g
    return x // g, y // g


def _greedy_bases(rest, echelon, marks, still, out):
    if not still:
        out.append(echelon)
        return
    if still == 1:
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
        reduced = []
        for w in marks:
            b = w[p]
            if b:
                w = [a * s - b * t for s, t in zip(w, v)]
                if not any(w):
                    break
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


def _null_vector(echelon, t):
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


def circuits_070(support: Support) -> tuple[BalancedCircuit, ...]:
    pivots, free, D, Q = _systematic_kernel([weight_vector(label) for label in support.labels])
    r, k = len(pivots), len(free)
    found = {}
    for t in range(1, min(k, r + 1) + 1):
        units = [[int(m == i) for i in range(t)] for m in range(t)]
        for live in combinations(range(k), t):
            QT = [[row[m] for m in live] for row in Q]
            echelons = []
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
    return tuple(
        BalancedCircuit(tuple(support.labels[i] for i in members), found[members])
        for members in sorted(found)
    )


def apply_phase_element(g: PhaseVector, psi: PureState) -> PureState:
    """Apply a diagonal phase element to a state; norm-preserving by construction.

    The turn of each label is summed exactly as an integer t over the element's
    common denominator d. The float (t % d) / d is the correctly rounded value
    of the reduced turn, so the result equals evaluating the exact turn.
    """
    if g.n != psi.n:
        raise DimensionError(f"phase element is on {g.n} qubits, state on {psi.n}")
    nums, d = g.nums, g.den
    phis = nums[:-1]
    # sum_k phi_k (-1)^{s_k} + theta = (sum_k phi_k + theta) - 2 sum_{k: s_k = 1} phi_k
    base = sum(nums)
    out = {}
    for label, c in psi.amplitudes.items():
        validate_label(label, g.n)
        t = base - 2 * sum(p for p, ch in zip(phis, label) if ch == "1")
        out[label] = c * cmath.exp(2j * math.pi * ((t % d) / d))
    return PureState(psi.n, out)


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


def int_product(*matrices: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The exact product of integer matrices, as rows of Python ints."""
    out = reduce(matmul, (np.array(m.row_tuples(), dtype=object) for m in matrices))
    return tuple(tuple(map(int, row)) for row in out)
