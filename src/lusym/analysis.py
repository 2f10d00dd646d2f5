"""End-to-end analysis: verification of a group against a state, the full
per-state report, and stratum comparison between supports.
"""

from __future__ import annotations

import cmath
import math
from operator import mul, sub
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DimensionError, InternalError
from .exactlinalg import gf2_reduced, gf3_reduced, hermite_normal_form, lattice_member
from .states import DEFAULT_TOL, PhaseVector, PureState, Support, require_normalized, require_tol
from .symmetry import DiagonalSymmetryGroup, sign_rows, solve_symmetry_group

if TYPE_CHECKING:
    from .circuits import BalancedCircuit, CircuitCatalog, SlGeneratorReport
    from .normalizer import NormalizerDescription

# Thresholds for the genericity flag: a support amplitude or a balance defect
# below this is treated as vanishing.
GENERIC_FLOOR = 1e-9

STRATA_EQUAL = "equal"
STRATA_A_CLOSURE_CONTAINS_B = "a_closure_contains_b"
STRATA_B_CLOSURE_CONTAINS_A = "b_closure_contains_a"
STRATA_INCOMPARABLE = "incomparable"


class GeneratorCheck(NamedTuple):
    kind: str  # "finite" or "torus"
    index: int  # into group.finite_generators or group.torus_basis
    deviation: float


class SymmetryVerification(NamedTuple):
    passed: bool
    max_deviation: float
    tol: float
    checks: tuple[GeneratorCheck, ...]


def _deviation(psi: PureState, rows: Sequence[Sequence[int]], g: PhaseVector) -> float:
    """Largest |c - g.c| over psi's labels, whose sign rows are rows. A label's
    turn t/d is exact, and a whole turn leaves c as it is: abs(c - c) is 0.0."""
    deviations = []
    for row, c in zip(rows, psi.amplitudes.values()):
        t = sum(map(mul, row, g.nums)) % g.den
        deviations.append(0.0 if t == 0 else abs(c - c * cmath.exp(2j * math.pi * (t / g.den))))
    return max(deviations)


def _torus_deviation(psi: PureState, rows: Sequence[Sequence[int]], direction: Sequence[int]) -> float:
    """Largest |c - g.c| over psi's labels and every g = s.direction, s real.
    A label with m = row . direction = 0 is fixed by all of them; any other
    is sent to -c by s = 1/(2m), the farthest it can move."""
    return max(
        0.0 if sum(map(mul, row, direction)) == 0 else abs(2 * c)
        for row, c in zip(rows, psi.amplitudes.values())
    )


def verify_symmetry(
    psi: PureState, group: DiagonalSymmetryGroup, tol: float = DEFAULT_TOL
) -> SymmetryVerification:
    """Decide whether the group fixes the state, with one check per finite
    generator and one per torus direction, each the largest deviation over
    the labels. Each label's turn is read exactly from its sign row; floats
    run only for labels a finite generator moves by a turn that is not whole.
    """
    if group.n != psi.n:
        raise DimensionError(f"group on {group.n} qubits, state on {psi.n}")
    require_tol(tol)
    rows = sign_rows(psi.amplitudes)
    checks = [
        GeneratorCheck("finite", i, _deviation(psi, rows, gen)) for i, gen in enumerate(group.finite_generators)
    ]
    checks += [
        GeneratorCheck("torus", i, _torus_deviation(psi, rows, vec)) for i, vec in enumerate(group.torus_basis)
    ]
    max_dev = max((c.deviation for c in checks), default=0.0)
    return SymmetryVerification(passed=max_dev <= tol, max_deviation=max_dev, tol=tol, checks=tuple(checks))


class AnalysisReport(NamedTuple):
    """Everything the package can say about one state.

    Each fact is stored once: the support is catalog.support, and
    monomial_values[i] is the value of monomial_from_circuit(catalog.circuits[i]).
    """

    state: PureState
    group: DiagonalSymmetryGroup
    catalog: CircuitCatalog
    monomial_values: tuple[complex, ...]
    sl_report: SlGeneratorReport
    normalizer: NormalizerDescription
    defect_values: tuple[float, ...]
    verification: SymmetryVerification
    generic: bool
    larger_symmetry_possible: bool


def _monomial_values(circuits: Iterable[BalancedCircuit], psi: PureState) -> tuple[complex, ...]:
    """evaluate(monomial_from_circuit(c), psi) for each circuit c, by the same
    float operations in the same order: a circuit's members follow label-value
    order, as the monomial's terms do. The factor of one (label, exponent) pair
    is computed once and shared by every circuit that has it."""
    factors: dict[tuple[str, int], complex] = {}
    values = []
    for circuit in circuits:
        value = 1 + 0j
        for term in zip(circuit.member_labels, circuit.relation):
            f = factors.get(term)
            if f is None:
                label, z = term
                a = psi.amplitudes[label]
                f = factors[term] = a ** max(z, 0) * a.conjugate() ** max(-z, 0)
            value *= f
        values.append(value)
    return tuple(values)


def analyze(psi: PureState, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Full deterministic analysis of a normalized sparse state. Its verification block is read off the
    solve's exact self-check (exit 3 if that fails); verify_symmetry evaluates each check on the amplitudes."""
    # imported here, so that verify_symmetry and compare_strata load none of them
    from .circuits import enumerate_circuits, single_sl_generator_check
    from .normalizer import balance_defects, compute_normalizer

    require_normalized(psi, tol)
    support = psi.support()
    group = solve_symmetry_group(support)
    catalog = enumerate_circuits(support)

    # a circuit monomial's bidegree (a, b) has a - b = d_order
    if group.theta_continuous and any(c.d_order for c in catalog.circuits):
        raise InternalError("continuous global phase must force balanced bidegrees")
    values = _monomial_values(catalog.circuits, psi)
    sl_report = single_sl_generator_check(catalog)
    norm_desc = compute_normalizer(support, group)
    defect_values = balance_defects(psi)
    shape = (("finite", len(group.finite_generators)), ("torus", len(group.torus_basis)))
    checks = tuple(GeneratorCheck(kind, i, 0.0) for kind, count in shape for i in range(count))

    generic = all(abs(c) >= GENERIC_FLOOR for c in psi.amplitudes.values()) and all(
        abs(v) >= GENERIC_FLOOR for v in defect_values
    )
    return AnalysisReport(
        state=psi,
        group=group,
        catalog=catalog,
        monomial_values=values,
        sl_report=sl_report,
        normalizer=norm_desc,
        defect_values=defect_values,
        verification=SymmetryVerification(passed=True, max_deviation=0.0, tol=tol, checks=checks),
        generic=generic,
        larger_symmetry_possible=any(abs(v) < GENERIC_FLOOR for v in defect_values),
    )


def _gf3_refutes(s0: int, rest: list[int], outside: list[str]) -> bool:
    """Does some outside label t have t - s0 outside the GF(3) span of the
    s - s0? A difference of labels has entries in {-1, 0, 1}: its +1 mask is
    s & ~s0 and its -1 mask s0 & ~s."""
    basis: list[tuple[int, int, int]] = []
    for x in rest:
        p, m = gf3_reduced(x & ~s0, s0 & ~x, basis)
        if p | m:
            lead = 1 << ((p | m).bit_length() - 1)
            basis.append((lead, p, m) if p & lead else (lead, m, p))
    for lab in outside:
        t = int(lab, 2)
        if gf3_reduced(t & ~s0, s0 & ~t, basis) != (0, 0):
            return True
    return False


def _differences(labels: Iterable[str], s0: str) -> list[tuple[int, ...]]:
    """The integer rows s - s0, entries in {-1, 0, 1}, read from the labels'
    ASCII bytes: ord('1') - ord('0') is 1."""
    s0 = s0.encode()
    return [tuple(map(sub, lab.encode(), s0)) for lab in labels]


def _in_sign_lattice(support: Support, labels: Iterable[str]) -> bool:
    """Do the sign rows of the labels lie in Λ, the row lattice of the support's
    sign rows? Only labels outside the support are tested, each on Δ, the
    integer span of the differences s - s0: (w_t, 1) lies in Λ exactly when
    t - s0 lies in Δ. A label whose t - s0 leaves Δ's span mod 2 or mod 3 is
    refuted there, with no form built. Only when every outside label passes
    both is Δ, on its L-1 difference rows, brought to Hermite normal form."""
    own = set(support.labels)
    outside = [lab for lab in labels if lab not in own]
    if not outside:
        return True
    s0, *rest = (int(lab, 2) for lab in support.labels)
    basis: dict[int, int] = {}
    for x in rest:
        if y := gf2_reduced(x ^ s0, basis):
            basis[y.bit_length()] = y
    if any(gf2_reduced(int(lab, 2) ^ s0, basis) for lab in outside) or _gf3_refutes(s0, rest, outside):
        return False
    first, *others = support.labels
    rows = _differences(others, first)
    hnf = hermite_normal_form(rows)
    if not all(lattice_member(hnf, row) for row in rows):
        raise InternalError("a label difference falls outside its own support's Hermite normal form")
    return all(lattice_member(hnf, row) for row in _differences(outside, first))


def compare_strata(support_a: Support, support_b: Support) -> str:
    """Closure order between the symmetry strata of two supports.

    A smaller symmetry group means a more generic stratum whose closure
    contains the strata of larger groups. A support's group is the annihilator
    of Λ, the integer row lattice of its sign rows (w_s, 1), so by Pontryagin
    duality G_a ⊆ G_b exactly when Λ_b ⊆ Λ_a: when every sign row of b lies
    in Λ_a. The verdict is decided on the lattices alone and no group is
    solved. Since w = 1 - 2s, Σ μ_s (w_s, 1) = (w_t, 1) exactly when Σ μ_s = 1
    and Σ μ_s s = t, so a sign row lies in Λ_S exactly when t - s0 lies in
    Δ_S, the integer span of the differences s - s0 (s0 any label of S).
    Each direction is tested on Δ_S mod 2 (t ^ s0 in the GF(2) span of the
    s ^ s0) and then mod 3 (the differences, entries in {-1, 0, 1}, packed as
    two bit masks). A label outside either span refutes the direction with no
    form built; only a direction whose outside labels pass both brings Δ_a or
    Δ_b to Hermite normal form. A nested pair b ⊂ a needs at most Δ_b's form
    and the differences of a's extra labels reduced against it.
    """
    if support_a.n != support_b.n:
        raise DimensionError("supports live on different qubit counts")
    a_in_b = _in_sign_lattice(support_a, support_b)
    b_in_a = _in_sign_lattice(support_b, support_a)
    if a_in_b and b_in_a:
        return STRATA_EQUAL
    if a_in_b:
        return STRATA_A_CLOSURE_CONTAINS_B
    if b_in_a:
        return STRATA_B_CLOSURE_CONTAINS_A
    return STRATA_INCOMPARABLE
