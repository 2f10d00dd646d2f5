import cmath
import itertools
import math
import pathlib
import random
import re
import sys
from typing import Sequence

import pytest

import lusym.analysis
import lusym.circuits
from lusym import (
    DiagonalSymmetryGroup,
    DimensionError,
    InputError,
    InternalError,
    InvariantMonomial,
    PureState,
    Support,
    analyze,
    compare_strata,
    evaluate,
    fixture_names,
    fixture_state,
    monomial_from_circuit,
    smith_normal_form,
    solve_symmetry_group,
    symmetrize_over_flips,
    verify_symmetry,
)
from lusym.analysis import (
    GENERIC_FLOOR,
    STRATA_A_CLOSURE_CONTAINS_B,
    STRATA_B_CLOSURE_CONTAINS_A,
    STRATA_EQUAL,
    STRATA_INCOMPARABLE,
    GeneratorCheck,
)
from lusym.exactlinalg import gf3_add, hermite_normal_form, lattice_member
from lusym.serialize import dump_report
from lusym.states import PhaseVector
from lusym.symmetry import _annihilated_by, group_contains, qubit_action_profile, sign_rows

from conftest import all_labels, random_coset_support, random_state_on, random_support, torus_point
from oracles import apply_phase_element


def test_verify_bell_exact():
    psi = fixture_state("bell")
    group = solve_symmetry_group(psi.support())
    v = verify_symmetry(psi, group)
    assert v.passed
    assert v.max_deviation < 1e-12
    kinds = [c.kind for c in v.checks]
    assert kinds.count("finite") == 1
    assert kinds.count("torus") == 1


def test_verify_no_torus_part():
    labels = [format(x, "03b") for x in range(8)]
    psi = PureState.from_amplitudes({lab: math.sqrt(1 / 8) for lab in labels})
    group = solve_symmetry_group(psi.support())
    assert group.torus_rank == 0
    v = verify_symmetry(psi, group)
    assert v.passed
    assert all(c.kind == "finite" for c in v.checks)
    assert len(v.checks) == len(group.finite_generators)


def test_verify_detects_broken_symmetry():
    eps = 1e-3
    norm = math.sqrt(1 + eps**2)
    psi = PureState.from_amplitudes(
        {
            "00": 1 / math.sqrt(2) / norm,
            "11": 1 / math.sqrt(2) / norm,
            "01": eps / norm,
        }
    )
    group = solve_symmetry_group(Support.from_labels(["00", "11"]))
    v = verify_symmetry(psi, group, tol=1e-6)
    assert not v.passed
    assert v.max_deviation > 1e-4


def test_deviation_propagates_nan():
    # a NaN amplitude once reached the deviations, where max() over labels in
    # set order dropped it unless it came first. Now no state holds one: both
    # ways of building a state refuse it, whichever label has it, in any order
    labels = [format(x, "03b") for x in range(8)]
    for bad in labels:
        for order in (labels, labels[::-1]):
            amps = {lab: complex(math.nan) if lab == bad else complex(1 / math.sqrt(8)) for lab in order}
            with pytest.raises(InputError, match=f"^amplitude for '{bad}' is \\(nan\\+0j\\), not a finite number$"):
                PureState(3, amps)
            with pytest.raises(InputError, match="not a finite number"):
                PureState.from_amplitudes(amps)


def test_verify_refuses_a_vacuous_tolerance():
    # the full torus does not fix Bell; with tol=inf it used to pass anyway
    psi = fixture_state("bell")
    full = DiagonalSymmetryGroup.from_presentation(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ())
    v = verify_symmetry(psi, full)
    assert not v.passed
    assert v.max_deviation == pytest.approx(math.sqrt(2))
    for tol in (math.inf, math.nan, 0.0, -1e-9, True, "1e-9", 1.0, 1.5, 2.0):
        with pytest.raises(InputError, match="tol"):
            verify_symmetry(psi, full, tol=tol)
    # every deviation is at most 2|c| <= 2: at tol 1.5 the group of the torus
    # direction (1, 0, 0, 0, 0) would pass on GHZ_4, which it moves by 1.41
    ghz4 = fixture_state("ghz4")
    moving = DiagonalSymmetryGroup.from_presentation(4, [(1, 0, 0, 0, 0)], ())
    assert verify_symmetry(ghz4, moving, tol=0.5).max_deviation == pytest.approx(math.sqrt(2))
    with pytest.raises(InputError, match=r"^tol must be < 1, got 1\.5: "):
        verify_symmetry(ghz4, moving, tol=1.5)


def _float_deviation(psi, moved):
    """Largest |c - moved c| over the labels, label by label in floats, as
    verification worked before turns were read exactly."""
    return max(abs(c - moved.amplitudes[lab]) for lab, c in psi.amplitudes.items())


def _tampered_groups(group):
    """The group, one with its first generator off by 1/den, and one with an
    extra torus direction, e_1, that no sign row annihilates."""
    n, torus, gens = group.n, group.torus_basis, group.finite_generators
    if gens:
        g = gens[0]
        shifted = PhaseVector.from_numerators((g.nums[0] + 1, *g.nums[1:]), g.den)
        off = DiagonalSymmetryGroup.from_presentation(n, torus, (shifted, *gens[1:]))
    else:
        off = DiagonalSymmetryGroup.from_presentation(n, torus, [PhaseVector.from_numerators([1] + [0] * n, 3)])
    e1 = (1,) + (0,) * n
    return [group, off, DiagonalSymmetryGroup.from_presentation(n, (*torus, e1), gens)]


def test_exact_turns_match_numeric_verification():
    rng = random.Random(1601)
    states = [fixture_state(name) for name in fixture_names()]
    for _ in range(12):
        states.append(random_state_on(rng, random_support(rng, rng.randint(2, 7), 10)))
    for n, dim in [(8, 2), (10, 2), (10, 3), (12, 3)]:
        states.append(random_state_on(rng, random_coset_support(rng, n, dim)))
    cases = failed = 0
    for psi in states:
        groups = _tampered_groups(solve_symmetry_group(psi.support()))
        bad = rng.choice(list(psi.amplitudes))
        variants = [psi, PureState(psi.n, {**psi.amplitudes, bad: complex(-0.0, -0.5)})]
        for group in groups:
            for state in variants:
                v = verify_symmetry(state, group)
                # finite checks: bit for bit the float loop over moved states
                finite = tuple(
                    GeneratorCheck("finite", i, _float_deviation(state, apply_phase_element(gen, state)))
                    for i, gen in enumerate(group.finite_generators)
                )
                assert repr(v.checks[: len(finite)]) == repr(finite)
                torus = v.checks[len(finite) :]
                assert [(c.kind, c.index) for c in torus] == [("torus", i) for i in range(group.torus_rank)]
                # every |c| is far above tol, so a label that moves at all fails
                assert v.passed == _annihilated_by(sign_rows(state.amplitudes), group)
                # each torus check is the supremum over its whole subgroup
                worst = max((c.deviation for c in torus), default=0.0)
                for _ in range(8):
                    moved = apply_phase_element(torus_point(group, rng, 2**20), state)
                    assert _float_deviation(state, moved) <= worst
                cases += 1
                failed += not v.passed
    # the tampered groups and the moved amplitude do make checks fail
    assert failed > cases // 2


def test_analyze_runs_no_float_phase_on_whole_turns(monkeypatch):
    states = {name: fixture_state(name) for name in fixture_names()}
    expected = {name: dump_report(analyze(psi)) for name, psi in states.items()}

    def no_exp(z):
        raise AssertionError(f"cmath.exp({z!r}) on a solved group")

    monkeypatch.setattr(cmath, "exp", no_exp)
    for name, psi in states.items():
        assert dump_report(analyze(psi)) == expected[name], name


def test_verify_deterministic_across_runs():
    # a state that is not symmetric gives nonzero deviations, which is where
    # determinism is actually observable
    eps = 1e-3
    norm = math.sqrt(1 + eps**2)
    psi = PureState.from_amplitudes(
        {
            "00": 1 / math.sqrt(2) / norm,
            "11": 1 / math.sqrt(2) / norm,
            "01": eps / norm,
        }
    )
    # the constructor stores amplitudes in label-value order, whatever the dict order
    reordered = PureState(psi.n, dict(reversed(psi.amplitudes.items())))
    assert reordered == psi and repr(reordered) == repr(psi)
    group = solve_symmetry_group(Support.from_labels(["00", "11"]))
    v1 = verify_symmetry(psi, group, tol=1e-6)
    assert not v1.passed and v1.max_deviation > 0
    assert verify_symmetry(psi, group, tol=1e-6) == v1
    assert verify_symmetry(reordered, group, tol=1e-6) == v1


def test_analyze_bell_report():
    rep = analyze(fixture_state("bell"))
    assert rep.group.torus_rank == 1
    assert rep.catalog.semistable
    assert not rep.group.theta_continuous
    assert len(rep.catalog.circuits) == 1
    assert monomial_from_circuit(rep.catalog.circuits[0]).terms == (("00", 1, 0), ("11", 1, 0))
    assert abs(rep.monomial_values[0] - 0.5) < 1e-12
    assert rep.defect_values == (0.0, 0.0)
    assert not rep.generic
    assert rep.larger_symmetry_possible
    assert rep.verification.passed
    assert rep.sl_report.holds


def test_analyze_generic_state():
    psi = PureState.from_amplitudes({"00": 0.6, "11": 0.8})
    rep = analyze(psi)
    assert rep.generic
    assert not rep.larger_symmetry_possible
    assert abs(rep.defect_values[0] - (0.36 - 0.64)) < 1e-12


def test_an_amplitude_exactly_at_the_generic_floor_is_generic():
    # |1e-9| is exactly GENERIC_FLOOR, and the one defect is about -1
    rep = analyze(PureState.from_amplitudes({"0": GENERIC_FLOOR, "1": 1.0}))
    assert abs(rep.state.amplitudes["0"]) == GENERIC_FLOOR
    assert rep.generic
    assert not rep.larger_symmetry_possible


def test_verify_passes_at_a_deviation_exactly_equal_to_tol():
    # the direction (1, 1) moves only label 0, whose row (1, 1) it meets in 2:
    # the deviation is |2 * 0.3|, and a tolerance one float below it fails
    psi = PureState.from_amplitudes({"0": 0.3, "1": math.sqrt(1 - 0.09)})
    group = DiagonalSymmetryGroup.from_presentation(1, [(1, 1)], ())
    deviation = verify_symmetry(psi, group, tol=0.9).max_deviation
    assert deviation == abs(2 * psi.amplitudes["0"])
    at = verify_symmetry(psi, group, tol=deviation)
    assert at.passed and at.max_deviation == at.tol
    assert not verify_symmetry(psi, group, tol=math.nextafter(deviation, 0)).passed


def test_analyze_rejects_unnormalized():
    with pytest.raises(InputError, match="^state norm is 1.414213562373, not 1 within 1e-09; normalize it first$"):
        analyze(PureState.from_amplitudes({"00": 1.0, "11": 1.0}))


def test_analyze_refuses_a_vacuous_tolerance_before_any_stage(monkeypatch):
    # a bad tol used to be reported as an unnormalized state (NaN, -1.0), or
    # refused only after circuits, invariants and normalizer had run (inf)
    def no_stage(*args):
        raise AssertionError("a stage ran before the tolerance was checked")

    monkeypatch.setattr(lusym.circuits, "enumerate_circuits", no_stage)
    monkeypatch.setattr(lusym.analysis, "solve_symmetry_group", no_stage)
    psi = fixture_state("bell")
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1e-9"):
        with pytest.raises(InputError, match=f"^tol must be finite and > 0, got {tol}$"):
            analyze(psi, tol=tol)
    # from 1 up a tolerance lets every check through: a deviation is at most
    # 2|c| <= 2, and a one-label state of norm 1.9 would count as normalized
    for tol in (1.0, 1.5, 2.0):
        with pytest.raises(InputError, match=f"^tol must be < 1, got {tol}: "):
            analyze(psi, tol=tol)
    with pytest.raises(InputError, match="^tol must be < 1, got 1: "):
        analyze(PureState(2, {"00": 1.9}), tol=1)


def test_analyze_refuses_labels_off_the_qubit_count_before_any_stage(monkeypatch):
    # no stage may solve a group on another qubit count than the state's
    def no_stage(*args):
        raise AssertionError("a stage ran before the labels were checked")

    monkeypatch.setattr(lusym.analysis, "solve_symmetry_group", no_stage)
    with pytest.raises(DimensionError, match="^label '0' has 1 bits, expected 2$"):
        analyze(PureState(2, {"0": 1}))


def _solved_as_the_full_torus(monkeypatch):
    """Make analyze's solve return the full diagonal torus, whose global phase
    is continuous and which moves every qubit by more than a sign."""
    monkeypatch.setattr(lusym.analysis, "solve_symmetry_group", lambda support: DiagonalSymmetryGroup(support.n, ()))


def test_a_continuous_global_phase_with_an_unbalanced_circuit_is_an_internal_error(monkeypatch):
    # Bell's one circuit has bidegree (2, 0), which no group with a continuous theta fixes
    _solved_as_the_full_torus(monkeypatch)
    with pytest.raises(InternalError, match="^continuous global phase must force balanced bidegrees$"):
        analyze(fixture_state("bell"))


def test_a_witness_pair_on_a_moved_qubit_is_an_internal_error(monkeypatch):
    # 00 and 01 differ only at qubit 2 and have no circuit, so the theta check passes
    _solved_as_the_full_torus(monkeypatch)
    psi = PureState(2, {"00": 0.6, "01": 0.8})
    with pytest.raises(
        InternalError, match=r"^labels \('00', '01'\) differ only at qubit 2 yet the solved group moves that qubit"
    ):
        analyze(psi)


_BELL, _GHZ3 = fixture_state("bell"), fixture_state("ghz3")
_MONO2 = InvariantMonomial([("00", 1, 0), ("11", 1, 0)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: verify_symmetry(_GHZ3, solve_symmetry_group(_BELL.support())), DimensionError,
         "^group on 2 qubits, state on 3$"),
        (lambda: compare_strata(_BELL.support(), _GHZ3.support()), DimensionError,
         "^supports live on different qubit counts$"),
        (lambda: group_contains(solve_symmetry_group(_BELL.support()), solve_symmetry_group(_GHZ3.support())),
         DimensionError, "^groups on different qubit counts: 2 vs 3$"),
        (lambda: qubit_action_profile(_GHZ3.support(), solve_symmetry_group(_BELL.support())), DimensionError,
         "^support and group qubit counts differ$"),
        (lambda: evaluate(_MONO2, _GHZ3), DimensionError, "^monomial and state qubit counts differ$"),
        (lambda: symmetrize_over_flips(_MONO2, []), InputError, "^flip group must contain at least the zero mask$"),
    ],
    ids=["verify_symmetry", "compare_strata", "group_contains", "qubit_action_profile", "evaluate",
         "symmetrize-no-masks"],
)
def test_qubit_count_mismatches_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_analyze_theta_continuous_state():
    rep = analyze(fixture_state("w3"))
    assert rep.group.theta_continuous
    assert rep.catalog.circuits == ()
    assert not rep.catalog.semistable
    assert all(abs(v - 1 / 3) < 1e-12 for v in rep.defect_values)
    assert rep.generic


def test_analyze_random_states_verify_clean():
    rng = random.Random(113)
    for _ in range(15):
        sup = random_support(rng, rng.randint(1, 4), 6)
        rep = analyze(random_state_on(rng, sup))
        assert rep.verification.passed
        assert rep.verification.max_deviation < 1e-9


def _axis_state_on(rng: random.Random, support: Support) -> PureState:
    """Purely real or purely imaginary amplitudes, their zero parts 0.0 or -0.0,
    normalized part by part so that no zero changes sign."""
    parts = []
    for _ in support.labels:
        x = rng.choice([-1, 1]) * rng.uniform(0.2, 1.0)
        zero = rng.choice([0.0, -0.0])
        parts.append((x, zero) if rng.random() < 0.5 else (zero, x))
    norm = math.sqrt(sum(x * x + y * y for x, y in parts))
    return PureState.from_amplitudes(
        {lab: complex(x / norm, y / norm) for lab, (x, y) in zip(support.labels, parts)}
    )


def _bits(v: complex) -> tuple:
    # (re, im) with the sign of each part, so that 0.0 and -0.0 differ
    return v.real, v.imag, math.copysign(1.0, v.real), math.copysign(1.0, v.imag)


def test_monomial_values_are_evaluate_bit_for_bit():
    # analyze computes the values straight from the relations; they must be the
    # floats evaluate(monomial_from_circuit(c), psi) gives, signs of zero included
    rng = random.Random(1201)
    states = [fixture_state(name) for name in fixture_names()]
    for n, size in [(6, 12), (7, 14), (8, 13), (10, 13)]:
        support = random_support(rng, n, size, min_labels=size)
        states += [random_state_on(rng, support), _axis_state_on(rng, support)]
    for n, dim in [(10, 2), (11, 3), (12, 3)]:
        support = random_coset_support(rng, n, dim)
        states += [random_state_on(rng, support), _axis_state_on(rng, support)]
    negative_zeros = 0
    for psi in states:
        report = analyze(psi)
        assert len(report.monomial_values) == len(report.catalog.circuits)
        for c, value in zip(report.catalog.circuits, report.monomial_values):
            assert _bits(value) == _bits(evaluate(monomial_from_circuit(c), psi)), c
            negative_zeros += sum(x == 0 and math.copysign(1.0, x) < 0 for x in (value.real, value.imag))
    # the axis states reach signed zeros, so the sign check is not vacuous
    assert negative_zeros > 0


def test_compare_strata_equal():
    a = Support.from_labels(["00", "11"])
    assert compare_strata(a, a) == STRATA_EQUAL


def test_compare_strata_closure_order():
    ghz = Support.from_labels(["0000", "1111"])
    full = Support.from_labels([format(x, "04b") for x in range(16)])
    # the full support has the smallest group: its stratum is the most
    # generic and its closure reaches the GHZ stratum
    assert compare_strata(ghz, full) == STRATA_B_CLOSURE_CONTAINS_A
    assert compare_strata(full, ghz) == STRATA_A_CLOSURE_CONTAINS_B


def test_compare_strata_incomparable():
    a = Support.from_labels(["0000", "1100"])
    b = Support.from_labels(["0000", "0011"])
    assert compare_strata(a, b) == STRATA_INCOMPARABLE


def _verdict_from_groups(sa: Support, sb: Support) -> str:
    # containment decided by testing each solved group's Smith-derived torus
    # directions and generators against the other support's sign rows
    ga_in_gb = _annihilated_by(sign_rows(sb), solve_symmetry_group(sa))
    gb_in_ga = _annihilated_by(sign_rows(sa), solve_symmetry_group(sb))
    return {
        (True, True): STRATA_EQUAL,
        (True, False): STRATA_A_CLOSURE_CONTAINS_B,
        (False, True): STRATA_B_CLOSURE_CONTAINS_A,
        (False, False): STRATA_INCOMPARABLE,
    }[(ga_in_gb, gb_in_ga)]


ALL_VERDICTS = {
    STRATA_EQUAL, STRATA_A_CLOSURE_CONTAINS_B, STRATA_B_CLOSURE_CONTAINS_A, STRATA_INCOMPARABLE
}


def test_compare_strata_consistent_with_groups():
    rng = random.Random(127)
    pairs = []
    for _ in range(40):
        n = rng.randint(2, 4)
        sa, sb = random_support(rng, n, 6), random_support(rng, n, 6)
        nested = Support.from_labels(set(sa.labels) | set(sb.labels))
        pairs += [(sa, sb), (sa, nested), (nested, sb), (sa, sa)]
    kinds = set()
    for sa, sb in pairs:
        verdict = compare_strata(sa, sb)
        kinds.add(verdict)
        assert verdict == _verdict_from_groups(sa, sb)
    assert kinds == ALL_VERDICTS


def _support_of_ints(xs, n: int) -> Support:
    return Support.from_labels(format(x, f"0{n}b") for x in xs)


def _strata_pairs(rng: random.Random, n: int, size: int) -> list[tuple[Support, Support]]:
    """Four pairs on n qubits around one random support sa of about size
    labels: sa with an equal-stratum extension, with a subset of it both ways
    round, and with an independent draw."""
    # x, y, z with z = y wherever x != y: the sign row of w = x ^ y ^ z is
    # r_x - r_y + r_z, so adding w leaves the group as it is
    while True:
        x, y, z = (rng.getrandbits(n) for _ in range(3))
        diff = x ^ y
        z = (y & diff) | (z & ~diff)
        w = x ^ y ^ z
        if len({x, y, z, w}) == 4:
            break
    rest = set(rng.sample(range(2**n), size)) - {x, y, z, w}
    sa = _support_of_ints(rest | {x, y, z}, n)
    equal = _support_of_ints(rest | {x, y, z, w}, n)
    shrunk = Support.from_labels(rng.sample(sa.labels, len(sa.labels) - rng.randint(1, 2)))
    independent = _support_of_ints(rng.sample(range(2**n), size), n)
    return [(sa, equal), (sa, shrunk), (shrunk, sa), (sa, independent)]


def _workload_size_pairs() -> list[tuple[Support, Support]]:
    # n = 8-14 and 4 to n+2 labels, the strata-queries benchmark's shapes
    rng = random.Random(1409)
    pairs = []
    for _ in range(20):
        n = rng.randint(8, 14)
        pairs += _strata_pairs(rng, n, rng.randint(n // 2, n + 2))
    return pairs


def test_compare_strata_consistent_with_groups_at_workload_sizes():
    # compare_strata decides lattice inclusion on the sign rows through their
    # Hermite forms; the other route tests each solved group's Smith-derived
    # presentation against the other support's sign rows
    pairs = _workload_size_pairs()
    assert all(compare_strata(a, b) == STRATA_EQUAL for a, b in pairs[::4])
    kinds = set()
    for a, b in pairs:
        verdict = compare_strata(a, b)
        kinds.add(verdict)
        assert verdict == _verdict_from_groups(a, b)
    assert kinds == ALL_VERDICTS


def test_compare_strata_solves_no_group(monkeypatch):
    # the verdict needs no Smith form and no solved group: with both refusing
    # to run it is still the groups' verdict
    pairs = _workload_size_pairs()
    expected = [_verdict_from_groups(a, b) for a, b in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("compare_strata solved a group")

    banned = (smith_normal_form, solve_symmetry_group)
    for name, module in list(sys.modules.items()):
        if name == "lusym" or name.startswith("lusym."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in banned):
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="solved a group"):
        lusym.analysis.solve_symmetry_group(pairs[0][0])
    assert [compare_strata(a, b) for a, b in pairs] == expected


# 011 = 001 + 010 - 000 is a member: a = b + {011} passes the mod-2 and mod-3
# tests, so Λ_b's Hermite form is built, checked against b's own differences
# and then reduces 011's difference
MEMBER_B = Support.from_labels(["000", "001", "010"])
MEMBER_A = Support.from_labels(["000", "001", "010", "011"])

# 00010 lies in b's GF(2) and GF(3) affine spans but its sign row is not in
# Λ_b: G_b has a Z8 factor where G_a has Z4, so only the form can refute it
SPAN_PASSING_B = Support.from_labels(["00000", "01010", "01111", "10011", "10100", "11001"])
SPAN_PASSING_A = Support.from_labels([*SPAN_PASSING_B.labels, "00010"])


def test_compare_strata_self_check_trips_on_a_broken_form(monkeypatch):
    # with the last basis row of each Hermite form dropped, the lattice is too
    # small to hold every difference row of its own support: exit 3, not a
    # verdict. The pair passes both span tests, so the form is built and checked
    real = lusym.analysis.hermite_normal_form
    monkeypatch.setattr(lusym.analysis, "hermite_normal_form", lambda rows: real(rows)[:-1])
    with pytest.raises(InternalError, match="Hermite normal form"):
        compare_strata(MEMBER_A, MEMBER_B)


def _counting_forms(monkeypatch) -> list:
    """Patch analysis's Hermite form to record the rows of each form it builds."""
    built = []

    def counted(rows):
        built.append(rows)
        return hermite_normal_form(rows)

    monkeypatch.setattr(lusym.analysis, "hermite_normal_form", counted)
    return built


def _gf2_affine_span(values: list[int]) -> set[int]:
    # every s0 ^ (xor of a subset of the differences s ^ s0), by closure
    s0 = values[0]
    span = {s0}
    for v in values[1:]:
        span |= {x ^ v ^ s0 for x in span}
    return span


def _gf3_affine_span(labels: Sequence[str]) -> set[tuple[int, ...]]:
    # every s0 + (a GF(3) combination of the differences s - s0), by closure
    s0, *rest = [tuple(map(int, lab)) for lab in labels]
    span = {s0}
    for s in rest:
        d = [a - b for a, b in zip(s, s0)]
        span |= {tuple((x + k * y) % 3 for x, y in zip(v, d)) for v in span for k in (1, 2)}
    return span


def _span_cases():
    # every support of n <= 3 against every label, seeded supports of n = 4-8
    # against up to 16 labels, and the span-passing b against every label
    yield SPAN_PASSING_B, all_labels(5)
    for n in range(1, 4):
        labels = all_labels(n)
        for pick in range(1, 2 ** len(labels)):
            support = Support.from_labels(lab for i, lab in enumerate(labels) if pick >> i & 1)
            yield support, labels
    rng = random.Random(2311)
    for _ in range(80):
        n = rng.randint(4, 8)
        yield random_support(rng, n, n + 2), rng.sample(all_labels(n), min(2**n, 16))


def test_parity_test_never_refutes_a_lattice_member(monkeypatch):
    # oracle: membership of t's sign row in the support's sign-row Hermite
    # form; a form is built exactly for an outside label in both the GF(2)
    # and the GF(3) affine span
    built = _counting_forms(monkeypatch)
    seen = set()
    for support, labels in _span_cases():
        hnf = hermite_normal_form(sign_rows(support))
        span2 = _gf2_affine_span([int(s, 2) for s in support.labels])
        span3 = _gf3_affine_span(support.labels)
        for t in labels:
            member = lattice_member(hnf, sign_rows([t])[0])
            in2, in3 = int(t, 2) in span2, tuple(map(int, t)) in span3
            assert not member or (in2 and in3)
            built.clear()
            assert lusym.analysis._in_sign_lattice(support, [t]) == member
            outside = t not in support.labels
            assert bool(built) == (outside and in2 and in3)
            seen.add((outside, member, in2, in3))
    # inside labels, outside members, passes of both tests that are not
    # members, refutations mod 3 only, mod 2 only and by both
    assert seen == {
        (False, True, True, True),
        (True, True, True, True),
        (True, False, True, True),
        (True, False, True, False),
        (True, False, False, True),
        (True, False, False, False),
    }


def _gf3_packed(v: Sequence[int]) -> tuple[int, int]:
    # the masks of v's entries that are 1 and 2 mod 3, first entry highest
    n = len(v)
    return tuple(sum(1 << (n - 1 - i) for i, x in enumerate(v) if x % 3 == r) for r in (1, 2))


def test_gf3_packed_sum_matches_integers_mod_3():
    # every pair of vectors of length <= 4: x + y and x - y (y's masks swapped)
    for n in range(1, 5):
        vectors = list(itertools.product(range(3), repeat=n))
        for x in vectors:
            px, mx = _gf3_packed(x)
            for y in vectors:
                py, my = _gf3_packed(y)
                assert gf3_add(px, mx, py, my) == _gf3_packed([a + b for a, b in zip(x, y)])
                assert gf3_add(px, mx, my, py) == _gf3_packed([a - b for a, b in zip(x, y)])


def test_gf3_test_never_refutes_a_lattice_member():
    # the mod-3 test on its own, without the mod-2 test in front: oracle is
    # membership of t's sign row in the support's sign-row Hermite form, and
    # it refutes exactly the labels outside the GF(3) affine span
    refuted = 0
    for support, labels in _span_cases():
        hnf = hermite_normal_form(sign_rows(support))
        span3 = _gf3_affine_span(support.labels)
        s0, *rest = (int(s, 2) for s in support.labels)
        for t in labels:
            refutes = lusym.analysis._gf3_refutes(s0, rest, [t])
            assert not (refutes and lattice_member(hnf, sign_rows([t])[0]))
            assert refutes == (tuple(map(int, t)) not in span3)
            refuted += refutes
    assert refuted > 100


def test_compare_strata_parity_refutes_without_a_form(monkeypatch):
    # pairs whose every direction is settled by inclusion or by the span
    # tests still get the groups' verdict with no Hermite form allowed
    ghz = Support.from_labels(["0000", "1111"])
    full = Support.from_labels(all_labels(4))
    w = Support.from_labels(["0001", "0010", "0100", "1000"])
    built = _counting_forms(monkeypatch)
    pairs = [(full, ghz), (ghz, full), (ghz, w), (w, full)]
    for a, b in _workload_size_pairs():
        built.clear()
        compare_strata(a, b)
        if not built:
            pairs.append((a, b))
    assert len(pairs) > 30
    expected = [_verdict_from_groups(a, b) for a, b in pairs]
    assert set(expected) == {STRATA_A_CLOSURE_CONTAINS_B, STRATA_B_CLOSURE_CONTAINS_A, STRATA_INCOMPARABLE}

    def refuse(rows):
        raise AssertionError("compare_strata built a Hermite form")

    monkeypatch.setattr(lusym.analysis, "hermite_normal_form", refuse)
    assert [compare_strata(a, b) for a, b in pairs] == expected


def test_compare_strata_parity_pass_still_reaches_the_form(monkeypatch):
    # 00010 passes the mod-2 and mod-3 tests but lies outside Λ_b: the form,
    # built on b's difference rows s - 00000, decides
    built = _counting_forms(monkeypatch)
    a, b = SPAN_PASSING_A, SPAN_PASSING_B
    differences = [tuple(map(int, s)) for s in b.labels[1:]]
    assert compare_strata(a, b) == _verdict_from_groups(a, b) == STRATA_A_CLOSURE_CONTAINS_B
    assert built == [differences]
    built.clear()
    assert compare_strata(b, a) == _verdict_from_groups(b, a) == STRATA_B_CLOSURE_CONTAINS_A
    assert built == [differences]
    assert (solve_symmetry_group(b).finite_factors, solve_symmetry_group(a).finite_factors) == (
        (2, 2, 2, 2, 8),
        (2, 2, 2, 2, 4),
    )


def _moved_label(label: str, perm: list[int], mask: int) -> str:
    # qubit k of the image is qubit perm[k] of the label, then flipped where mask is 1
    return format(int("".join(label[p] for p in perm), 2) ^ mask, f"0{len(label)}b")


def _moved(support: Support, perm: list[int], mask: int) -> Support:
    return Support.from_labels(_moved_label(lab, perm, mask) for lab in support.labels)


def _moved_group(group: DiagonalSymmetryGroup, perm: list[int], mask: int) -> DiagonalSymmetryGroup:
    """The group of the moved support, built from the moved presentation: phi_k
    of the image is phi_perm[k], negated where the mask flips qubit k, and
    theta is kept, so each label's turn is unchanged."""
    n = group.n
    signs = [-1 if mask >> (n - 1 - k) & 1 else 1 for k in range(n)] + [1]
    order = perm + [n]

    def move(vec):
        return [s * vec[j] for s, j in zip(signs, order)]

    return DiagonalSymmetryGroup.from_presentation(
        n,
        [move(vec) for vec in group.torus_basis],
        [PhaseVector.from_numerators(move(gen.nums), gen.den) for gen in group.finite_generators],
    )


def test_compare_strata_invariant_under_permutation_and_flips():
    # a qubit permutation and a flip X^m send every sign row through one
    # unimodular map (columns permuted, some negated), so lattice inclusion,
    # and with it the verdict, is unchanged
    rng = random.Random(1011)
    kinds = set()
    for _ in range(40):
        n = rng.randint(3, 10)
        perm = rng.sample(range(n), n)
        mask = rng.getrandbits(n)
        for a, b in _strata_pairs(rng, n, rng.randint(2, n + 2)):
            verdict = compare_strata(a, b)
            kinds.add(verdict)
            assert compare_strata(_moved(a, perm, mask), _moved(b, perm, mask)) == verdict
    assert kinds == ALL_VERDICTS


@pytest.mark.parametrize("kind", ["random", "coset"])
def test_analysis_is_equivariant_under_permutation_and_flips(kind):
    # A qubit permutation and a flip X^m are local unitaries: they permute the
    # coordinates of every sign vector and negate some, so the relations of the
    # image support are the same per label, each up to the sign its first
    # member fixes, and each monomial value keeps its modulus.
    rng = random.Random(f"equivariance:{kind}")
    for _ in range(40):
        n = rng.randint(3, 10)
        if kind == "random":
            support = random_support(rng, n, n + 6, min_labels=n + 1)
        else:
            support = random_coset_support(rng, n, rng.randint(1, min(3, n - 1)))
        psi = random_state_on(rng, support)
        perm, mask = rng.sample(range(n), n), rng.getrandbits(n)
        image = PureState.from_amplitudes(
            {_moved_label(lab, perm, mask): c for lab, c in psi.amplitudes.items()}
        )
        before, after = analyze(psi), analyze(image)

        moved_circuits = {}
        for c in before.catalog.circuits:
            relation = {_moved_label(lab, perm, mask): z for lab, z in zip(c.member_labels, c.relation)}
            moved_circuits[frozenset(relation)] = relation
        assert len(moved_circuits) == len(after.catalog.circuits)
        for c in after.catalog.circuits:
            relation = dict(zip(c.member_labels, c.relation))
            expected = moved_circuits[frozenset(relation)]
            assert relation in (expected, {lab: -z for lab, z in expected.items()})

        moduli = [sorted(abs(v) for v in r.monomial_values) for r in (before, after)]
        assert all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(*moduli))
        assert before.group.torus_rank == after.group.torus_rank
        assert sorted(before.group.finite_factors) == sorted(after.group.finite_factors)
        assert before.verification.passed and after.verification.passed

        # the flips are the support's stabilizer masks, permuted by the qubit
        # permutation; defect k of the image is defect perm[k], its sign
        # flipped where the mask flips qubit k
        assert sorted(after.normalizer.flips.masks) == sorted(
            _moved_label(t, perm, 0) for t in before.normalizer.flips.masks
        )
        for k, value in enumerate(after.defect_values):
            expected = before.defect_values[perm[k]] * (-1 if mask >> (n - 1 - k) & 1 else 1)
            assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)
        # groups are canonical: the image's group is the moved group itself
        assert after.group == _moved_group(before.group, perm, mask)


def test_readme_examples_run():
    # README.md's python blocks, in order and in one namespace: the second
    # reads the first's `report`
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verification.passed
