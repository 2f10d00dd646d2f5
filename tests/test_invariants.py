import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from lusym import (
    DimensionError,
    InputError,
    PureState,
    Support,
    enumerate_circuits,
    evaluate,
    fixture_state,
    solve_symmetry_group,
    symmetrize_over_flips,
)
from lusym.circuits import single_sl_generator_check
from lusym.invariants import (
    FlipRejection,
    InvariantMonomial,
    InvariantSum,
    abs_square_generators,
    is_sl_type,
    monomial_from_circuit,
)
from conftest import random_element, random_state_on, random_support
from oracles import apply_phase_element, bidegree_scaling_check, evaluate_exact, phase_element, scaled

F = Fraction


def _single_circuit(labels):
    cat = enumerate_circuits(Support.from_labels(labels))
    assert len(cat.circuits) == 1
    return cat.circuits[0]


def test_monomial_from_bell_circuit():
    m = monomial_from_circuit(_single_circuit(["00", "11"]))
    assert m.terms == (("00", 1, 0), ("11", 1, 0))
    assert tuple(m.bidegree) == (2, 0)
    assert is_sl_type(m)
    psi = fixture_state("bell")
    assert cmath.isclose(evaluate(m, psi), 0.5, abs_tol=1e-12)


def test_monomial_with_conjugate_part():
    m = monomial_from_circuit(_single_circuit(["000", "001", "010", "011"]))
    assert m.terms == (("000", 1, 0), ("001", 0, 1), ("010", 0, 1), ("011", 1, 0))
    assert tuple(m.bidegree) == (2, 2)
    assert not is_sl_type(m)


def test_monomial_degree_six():
    m = monomial_from_circuit(
        _single_circuit(["1111", "1000", "0100", "0010", "0001"])
    )
    assert tuple(m.bidegree) == (6, 0)
    assert dict(
        (lab, (p, q)) for lab, p, q in m.terms
    ) == {
        "0001": (1, 0),
        "0010": (1, 0),
        "0100": (1, 0),
        "1000": (1, 0),
        "1111": (2, 0),
    }
    assert cmath.isclose(evaluate(m, fixture_state("xstate")), 2 / 216, abs_tol=1e-12)


def test_circuit_monomials_miss_a_graver_generator():
    # z = (-1, 1, 1, 1, 1, 1) on these labels is a conformally minimal kernel
    # vector that is no circuit, so its monomial is an invariant outside the
    # ring generated by the circuit monomials and the |c_j|^2
    labels = ["0000", "0001", "0010", "0100", "1000", "1111"]
    cat = enumerate_circuits(Support.from_labels(labels))
    relations = {
        frozenset(zip(c.member_labels, c.relation)) for c in cat.circuits
    }
    assert relations == {
        frozenset({("0000", 1), ("1111", 1)}),
        frozenset({("0000", 2), ("0001", -1), ("0010", -1), ("0100", -1), ("1000", -1)}),
        frozenset({("0001", 1), ("0010", 1), ("0100", 1), ("1000", 1), ("1111", 2)}),
    }
    z = dict.fromkeys(labels, 1)
    z["0000"] = -1

    def in_kernel(y):
        return all(sum(x if lab[k] == "0" else -x for lab, x in y.items()) == 0 for k in range(4))

    # with every |z_j| = 1, the vectors conformal to z are its restrictions
    conformal = [{lab: z[lab] for lab, keep in zip(labels, bits) if keep}
                 for bits in itertools.product((0, 1), repeat=len(labels))]
    assert [y for y in conformal if y and in_kernel(y)] == [z]
    assert set(labels) not in [set(c.member_labels) for c in cat.circuits]

    mono = InvariantMonomial(
        sorted(((lab, max(x, 0), max(-x, 0)) for lab, x in z.items()), key=lambda t: int(t[0], 2))
    )
    assert tuple(mono.bidegree) == (5, 1)
    rng = random.Random(151)
    psi = random_state_on(rng, Support.from_labels(labels))
    value = evaluate(mono, psi)
    for _ in range(10):
        phases = phase_element([F(rng.randrange(360), 360) for _ in range(4)], 0)
        assert cmath.isclose(evaluate(mono, apply_phase_element(phases, psi)), value, abs_tol=1e-12)
    # 2z = (0, 1, 1, 1, 1, 2) - (2, -1, -1, -1, -1, 0): its square is a product of
    # the five-member circuit monomials, one of them conjugated
    with_0000, with_1111 = sorted(
        (monomial_from_circuit(c) for c in cat.circuits if len(c.member_labels) == 5),
        key=lambda m: m.terms[0][0],
    )
    square = evaluate(with_0000, psi).conjugate() * evaluate(with_1111, psi)
    assert cmath.isclose(value**2, square, abs_tol=1e-12)


def test_monomial_validation():
    with pytest.raises(InputError):
        InvariantMonomial([("00", 0, 0)])
    with pytest.raises(InputError):
        InvariantMonomial([("00", 1, 0), ("000", 1, 0)])
    with pytest.raises(InputError):
        InvariantMonomial([])


def test_abs_square_generators():
    gens = abs_square_generators(Support.from_labels(["00", "11"]))
    assert [g.terms for g in gens] == [(("00", 1, 1),), (("11", 1, 1),)]
    assert all(tuple(g.bidegree) == (1, 1) for g in gens)
    psi = fixture_state("bell")
    assert cmath.isclose(sum(evaluate(g, psi) for g in gens), 1.0, abs_tol=1e-12)


def test_flip_monomial():
    # each flipped copy relabels every term by xor with its mask and re-sorts
    # by label value; each label keeps its own exponents
    m = InvariantMonomial([("000", 1, 0), ("111", 0, 1)])
    out = symmetrize_over_flips(m, ["000", "110", "011", "101"])
    assert out.flip_group == ("000", "011", "101", "110")
    assert [c.terms for c in out.monomials] == [
        (("000", 1, 0), ("111", 0, 1)),
        (("011", 1, 0), ("100", 0, 1)),
        (("010", 0, 1), ("101", 1, 0)),
        (("001", 0, 1), ("110", 1, 0)),
    ]
    assert all(c.bidegree == m.bidegree for c in out.monomials)


def test_symmetrize_admitted_even_masks():
    m = monomial_from_circuit(_single_circuit(["0000", "1111"]))
    out = symmetrize_over_flips(m, ["0000", "1111"])
    assert isinstance(out, InvariantSum)
    assert len(out.monomials) == 2
    assert tuple(out.bidegree) == (2, 0)
    psi = fixture_state("ghz4")
    # both terms evaluate to 1/2 on the uniform two-label state
    assert cmath.isclose(evaluate(out, psi), 1.0, abs_tol=1e-12)


def test_symmetrize_rejected_odd_mask():
    m = monomial_from_circuit(_single_circuit(["000", "111"]))
    out = symmetrize_over_flips(m, ["000", "111"])
    assert isinstance(out, FlipRejection)
    assert out.mask == "111"
    assert tuple(out.bidegree) == (2, 0)
    assert "odd" in out.reason


def test_symmetrize_admitted_when_bidegree_difference_divisible_by_four():
    # bidegree (4, 0): odd masks are fine since a-b = 4
    m = InvariantMonomial([("00", 2, 0), ("11", 2, 0)])
    out = symmetrize_over_flips(m, ["00", "01", "10", "11"])
    assert isinstance(out, InvariantSum)
    assert len(out.monomials) == 4


def test_symmetrize_validates_flip_group():
    m = monomial_from_circuit(_single_circuit(["00", "11"]))
    with pytest.raises(InputError):
        symmetrize_over_flips(m, ["11"])  # missing zero mask
    with pytest.raises(InputError):
        symmetrize_over_flips(m, ["00", "01", "10"])  # not closed
    with pytest.raises(DimensionError):
        symmetrize_over_flips(m, ["000", "111"])
    # every mask is a label, checked before the masks are sorted by value
    for masks in (["0x", "00"], [None]):
        with pytest.raises(InputError):
            symmetrize_over_flips(m, masks)
    # a bare str is not read as the masks "0" and "1"
    with pytest.raises(InputError, match="^expected a collection of bit strings, got the str '01'$"):
        symmetrize_over_flips(monomial_from_circuit(_single_circuit(["0", "1"])), "01")


def test_evaluate_exact_cluster():
    m = monomial_from_circuit(_single_circuit(["1111", "1100", "0010", "0001"]))
    amps = {
        lab: (F(1, 2), F(0)) for lab in ["1111", "1100", "0010", "0001"]
    }
    assert evaluate_exact(m, amps) == (F(1, 16), F(0))


def test_evaluate_exact_matches_float():
    rng = random.Random(83)
    for _ in range(20):
        sup = random_support(rng, rng.randint(2, 4), 8, min_labels=3)
        cat = enumerate_circuits(sup)
        if not cat.circuits:
            continue
        amps = {
            lab: (F(rng.randint(-8, 8), 16), F(rng.randint(-8, 8), 16))
            for lab in sup.labels
        }
        if any(re == 0 and im == 0 for re, im in amps.values()):
            continue
        psi = PureState.from_amplitudes(
            {lab: complex(re, im) for lab, (re, im) in amps.items()}
        )
        for c in cat.circuits:
            m = monomial_from_circuit(c)
            ex = evaluate_exact(m, amps)
            fl = evaluate(m, psi)
            assert cmath.isclose(complex(ex[0], ex[1]), fl, rel_tol=1e-10, abs_tol=1e-12)


def test_invariance_under_group_elements():
    rng = random.Random(89)
    checked = 0
    while checked < 25:
        sup = random_support(rng, rng.randint(2, 4), 8, min_labels=3)
        cat = enumerate_circuits(sup)
        if not cat.circuits:
            continue
        checked += 1
        group = solve_symmetry_group(sup)
        psi = random_state_on(rng, sup)
        monos = [monomial_from_circuit(c) for c in cat.circuits]
        for _ in range(5):
            moved = apply_phase_element(random_element(group, rng), psi)
            for m in monos:
                before = evaluate(m, psi)
                after = evaluate(m, moved)
                scale = max(abs(before), abs(after), 1e-300)
                assert abs(before - after) / scale < 1e-9


def test_bidegree_scaling():
    rng = random.Random(97)
    psi = fixture_state("xstate")
    m = monomial_from_circuit(
        _single_circuit(["1111", "1000", "0100", "0010", "0001"])
    )
    for _ in range(10):
        factor = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(factor) < 0.1:
            continue
        assert bidegree_scaling_check(m, psi, factor)
    # a wrong bidegree would fail the same check
    wrong = InvariantMonomial([("1111", 1, 0)])
    direct = evaluate(wrong, scaled(psi, 2.0))
    assert not cmath.isclose(direct, 4 * evaluate(wrong, psi))


def test_single_sl_generator_reports():
    bell = single_sl_generator_check(enumerate_circuits(Support.from_labels(["00", "11"])))
    assert bell.holds and bell.degree == 2

    none = single_sl_generator_check(
        enumerate_circuits(Support.from_labels(["100", "010", "001"]))
    )
    assert not none.holds and none.degree is None

    mixed = single_sl_generator_check(
        enumerate_circuits(Support.from_labels(["000", "001", "010", "011"]))
    )
    assert not mixed.holds
    assert "not positive" in mixed.reason

    two = single_sl_generator_check(
        enumerate_circuits(Support.from_labels(["0000", "1111", "0011", "1100"]))
    )
    assert not two.holds
    assert "2 circuits" in two.reason


def test_positive_circuit_monomials_are_sl_type():
    # single_sl_generator_check tests positivity alone: a positive circuit's
    # monomial has bidegree (d_order, 0), so it is SL-type, and a mixed one's is not
    rng = random.Random(1207)
    seen = set()
    for _ in range(60):
        for c in enumerate_circuits(random_support(rng, rng.randint(2, 6), 10)).circuits:
            mono = monomial_from_circuit(c)
            assert is_sl_type(mono) == c.positive
            if c.positive:
                assert mono.bidegree == (c.d_order, 0)
            seen.add(c.positive)
    assert seen == {True, False}
