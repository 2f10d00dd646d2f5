import cmath
import math
import pickle
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from lusym import (
    DimensionError,
    InputError,
    InvariantMonomial,
    PhaseVector,
    PureState,
    Support,
    fixture_names,
    fixture_state,
    reduced_density_matrix,
    solve_symmetry_group,
    symmetrize_over_flips,
)
from lusym.normalizer import balance_defects
from lusym.states import label_int, validate_label, weight_vector, xor_labels

from conftest import benchmark_pool_states, random_coset_support, random_element, random_state_on, random_support, torus_point
from oracles import apply_phase_element


def test_label_helpers():
    assert validate_label("0110") == "0110"
    assert label_int("0110") == 6
    assert xor_labels("0110", "1010") == "1100"
    assert weight_vector("011") == (1, -1, -1)
    assert weight_vector("0") == (1,)
    with pytest.raises(InputError):
        validate_label("21")
    with pytest.raises(InputError):
        validate_label("")
    with pytest.raises(InputError):
        validate_label("01", n=3)


def test_support_ordering_and_index():
    sup = Support.from_labels(["11", "00", "01"])
    assert sup.labels == ("00", "01", "11")
    with pytest.raises(InputError):
        Support.from_labels(["0", "00"])
    with pytest.raises(InputError):
        Support.from_labels([])


def test_pure_state_validation():
    psi = PureState.from_amplitudes({"00": 0.6, "11": 0.8j})
    assert psi.n == 2
    assert psi.is_normalized()
    assert psi.amplitude("11") == 0.8j
    with pytest.raises(InputError):
        PureState.from_amplitudes({"00": 1e-13})
    with pytest.raises(InputError):
        PureState.from_amplitudes({})
    with pytest.raises(InputError):
        PureState.from_amplitudes({"0x": 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 1)])
def test_pure_state_rejects_non_finite(bad):
    with pytest.raises(InputError, match="finite"):
        PureState.from_amplitudes({"00": 0.6, "11": bad})


@pytest.mark.parametrize(
    "factor, match",
    [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"), (1e-300, "floor"), (0.0, "floor")],
)
def test_scaled_state_passes_the_amplitude_checks(factor, match):
    psi = fixture_state("bell")
    with pytest.raises(InputError, match=match):
        psi.scaled(factor)
    doubled = psi.scaled(2.0)
    assert doubled == PureState.from_amplitudes({lab: 2.0 * c for lab, c in psi.amplitudes.items()})
    assert math.isclose(doubled.norm(), 2.0)


def _turn(g, label):
    """A label's exact turn: its sign row (w_s, 1) against the numerators, over den."""
    return Fraction(sum(map(mul, weight_vector(label) + (1,), g.nums)), g.den)


def test_phase_vector_turns():
    g = PhaseVector.make([Fraction(1, 2), 0], Fraction(1, 2))
    assert (g.nums, g.den) == ((1, 0, 1), 2)
    # label 00: both signs +1, so 1/2 + 0 + 1/2 = 1 full turn
    assert _turn(g, "00") == 1
    assert _turn(g, "10") == 0
    g2 = PhaseVector.make([Fraction(1, 4), Fraction(1, 3)], 0)
    assert _turn(g2, "01") == Fraction(1, 4) - Fraction(1, 3)


def test_apply_phase_element_exact_values():
    psi = PureState.from_amplitudes({"00": 1 / math.sqrt(2), "11": 1 / math.sqrt(2)})
    g = PhaseVector.make([Fraction(1, 4), 0], 0)
    out = apply_phase_element(g, psi)
    # on 00 the first qubit contributes +1/4 turn -> phase i
    assert cmath.isclose(out.amplitude("00"), psi.amplitude("00") * 1j)
    # on 11 it contributes -1/4 turn -> phase -i
    assert cmath.isclose(out.amplitude("11"), psi.amplitude("11") * -1j)


def test_apply_phase_element_properties():
    rng = random.Random(5)
    for _ in range(30):
        sup = random_support(rng, rng.randint(1, 4), 6)
        psi = random_state_on(rng, sup)
        x = [rng.randrange(24) for _ in range(sup.n + 1)]
        y = [rng.randrange(24) for _ in range(sup.n + 1)]
        g, h = PhaseVector.from_numerators(x, 24), PhaseVector.from_numerators(y, 24)
        out = apply_phase_element(g, psi)
        assert abs(out.norm() - psi.norm()) < 1e-12
        lhs = apply_phase_element(h, out)
        rhs = apply_phase_element(PhaseVector.from_numerators(map(sum, zip(x, y)), 24), psi)
        for lab in sup.labels:
            assert cmath.isclose(lhs.amplitude(lab), rhs.amplitude(lab), abs_tol=1e-12)


def _applied_by_phase_turn(g, psi):
    """The reference: each label's exact turn, reduced to [0, 1), then exp."""
    return {
        lab: c * cmath.exp(2j * math.pi * float(_turn(g, lab) % 1))
        for lab, c in psi.amplitudes.items()
    }


# 2**20 is the tests' torus_point denominator; the last two exceed 2**64, where a
# float of the numerator alone no longer holds it exactly
DENOMINATORS = (1, 2, 3, 7, 24, 2**20, 3 * 2**20, 2**64 + 13, 2**70 - 1)


def _mixed_turns(rng, n):
    """n + 1 turns in [-3, 3), each over its own denominator."""

    def turn():
        den = rng.choice(DENOMINATORS)
        return Fraction(rng.randrange(-3 * den, 3 * den), den)

    return [turn() for _ in range(n + 1)]


def _mixed_element(rng, n):
    *phis, theta = _mixed_turns(rng, n)
    return PhaseVector.make(phis, theta)


def test_apply_phase_element_is_bit_exact():
    rng = random.Random(71)
    elements = []
    finite = 0
    for _ in range(40):
        sup = random_support(rng, rng.randint(1, 6), 10)
        elements.append((_mixed_element(rng, sup.n), random_state_on(rng, sup)))
    for _ in range(20):
        if rng.random() < 0.5:
            sup = random_coset_support(rng, rng.randint(4, 9), rng.randint(1, 3))
        else:
            sup = random_support(rng, rng.randint(2, 8), 12, min_labels=4)
        g = solve_symmetry_group(sup)
        psi = random_state_on(rng, sup)
        elements += [(gen, psi) for gen in g.finite_generators]
        finite += len(g.finite_generators)
        elements += [(torus_point(g, rng, 2**20), psi), (random_element(g, rng), psi)]
    # every element is stored in [0, 1) turns, but a label's turn leaves that range
    turns = [_turn(g, label) for g, psi in elements for label in psi.amplitudes]
    assert any(t < 0 for t in turns) and any(t >= 1 for t in turns)
    assert any(x.denominator > 2**64 for g, _ in elements for x in g.as_tuple())
    assert finite > 0
    for g, psi in elements:
        assert apply_phase_element(g, psi).amplitudes == _applied_by_phase_turn(g, psi)


def test_integer_form_matches_fraction_arithmetic():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 5)
        x, y = _mixed_turns(rng, n), _mixed_turns(rng, n)
        g, h = PhaseVector.make(x[:-1], x[-1]), PhaseVector.make(y[:-1], y[-1])
        # make reduces each turn to [0, 1)
        assert g.as_tuple() == tuple(a % 1 for a in x)
        assert (g.phis, g.theta) == (tuple(a % 1 for a in x[:-1]), x[-1] % 1)
        # from_numerators reduces integer sums, negations and flips of the
        # numerators as Fraction arithmetic reduces the turns
        mask = "".join(rng.choice("01") for _ in range(n))
        den = math.lcm(g.den, h.den)
        summed = (a * (den // g.den) + b * (den // h.den) for a, b in zip(g.nums, h.nums))
        assert PhaseVector.from_numerators(summed, den).as_tuple() == tuple((a + b) % 1 for a, b in zip(x, y))
        assert PhaseVector.from_numerators((-a for a in g.nums), g.den).as_tuple() == tuple(-a % 1 for a in x)
        flipped = (-a if m == "1" else a for a, m in zip(g.nums, mask + "0"))
        assert PhaseVector.from_numerators(flipped, g.den).as_tuple() == tuple(
            -a % 1 if m == "1" else a % 1 for a, m in zip(x, mask + "0")
        )
        label = "".join(rng.choice("01") for _ in range(n))
        signs = [1 if ch == "0" else -1 for ch in label] + [1]
        assert _turn(g, label) == sum(a % 1 * s for a, s in zip(x, signs))
        assert g.den == math.lcm(*(a.denominator for a in x))


def test_phase_vector_equality_is_equality_of_values():
    a = PhaseVector.make([Fraction(2, 4), 0], 0)
    b = PhaseVector.make([Fraction(1, 2), 0], 0)
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ((1, 0, 0), 2)
    assert PhaseVector.make([0, 0], 0) == PhaseVector((0, 0, 0), 1)
    # turns off [0, 1) are reduced, so one torus element has one representation
    c = PhaseVector.make([Fraction(3, 2), 0], 0)
    assert c == b and hash(c) == hash(b)
    assert PhaseVector.make([Fraction(-1, 4), 1], Fraction(7, 3)) == PhaseVector((9, 0, 4), 12)
    for nums, den, message in [
        ((2, 0, 0), 4, "lowest terms"),
        ((0, 0, 0), 2, "lowest terms"),
        ((1, 0, 0), 0, "den must be >= 1, got 0"),
        ((1, 0, 0), -2, "den must be >= 1, got -2"),
        ((3, 0, 1), 2, r"\[0, 2\)"),
        ((-1, 0, 0), 2, r"\[0, 2\)"),
    ]:
        with pytest.raises(InputError, match=message):
            PhaseVector(nums, den)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PhaseVector((), 1),
        lambda: PhaseVector((0,), 1),
        lambda: PhaseVector.from_numerators((3,), 2),
        lambda: PhaseVector.make([], 0),
    ],
    ids=["no-theta", "theta-only", "from_numerators", "make"],
)
def test_a_phase_element_needs_at_least_one_qubit(build):
    # every other value refuses n < 1; these built with n == -1 or n == 0
    with pytest.raises(InputError, match="^qubit count n must be at least 1, got (0|-1)$"):
        build()


def test_from_numerators_refuses_a_denominator_below_one():
    for den in (0, -2):
        with pytest.raises(InputError, match=f"den must be >= 1, got {den}"):
            PhaseVector.from_numerators((1, 0, 0), den)


def _torus_point_by_fractions(group, rng, denominator):
    """torus_point as Fraction arithmetic on the same draws."""
    total = [Fraction(0)] * (group.n + 1)
    for vec in group.torus_basis:
        s = Fraction(rng.randrange(denominator), denominator)
        total = [t + s * x for t, x in zip(total, vec)]
    return PhaseVector.make([x % 1 for x in total[:-1]], total[-1] % 1)


def test_torus_point_matches_fraction_accumulation():
    rng = random.Random(73)
    for s in range(40):
        if s % 2:
            sup = random_coset_support(rng, rng.randint(4, 12), rng.randint(1, 3))
        else:
            sup = random_support(rng, rng.randint(1, 8), 8)
        g = solve_symmetry_group(sup)
        point = torus_point(g, random.Random(s), 2**20)
        assert point == _torus_point_by_fractions(g, random.Random(s), 2**20)
        assert all(0 <= x < 1 for x in point.as_tuple())


def test_apply_phase_element_checks_labels():
    g = PhaseVector.make([Fraction(1, 4), 0], 0)
    # such states are refused where they are built, before the element sees them
    with pytest.raises(DimensionError):
        apply_phase_element(g, PureState(2, {"0": 1.0}))
    with pytest.raises(InputError) as excinfo:
        apply_phase_element(g, PureState(2, {"0a": 1.0}))
    assert excinfo.type is InputError


def test_rdm_product_state():
    psi = PureState.from_amplitudes({"0": 1.0})
    rho = reduced_density_matrix(psi, 1)
    assert np.allclose(rho, [[1, 0], [0, 0]])


def test_rdm_bell():
    a = 1 / math.sqrt(2)
    psi = PureState.from_amplitudes({"00": a, "11": a})
    for k in (1, 2):
        rho = reduced_density_matrix(psi, k)
        assert np.allclose(rho, [[0.5, 0], [0, 0.5]])


def test_rdm_w_state():
    a = 1 / math.sqrt(3)
    psi = PureState.from_amplitudes({"100": a, "010": a, "001": a})
    rho = reduced_density_matrix(psi, 1)
    assert np.allclose(rho, [[2 / 3, 0], [0, 1 / 3]])


def test_rdm_off_diagonal():
    # |0>(|0>+|1>)/sqrt 2 traced to qubit 2 keeps coherence
    a = 1 / math.sqrt(2)
    psi = PureState.from_amplitudes({"00": a, "01": a})
    rho = reduced_density_matrix(psi, 2)
    assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]])
    # a balanced diagonal, not a maximally mixed state, is what zeroes a defect
    assert balance_defects(psi)[1] == 0.0


def test_rdm_random_properties():
    rng = random.Random(17)
    for _ in range(25):
        sup = random_support(rng, rng.randint(1, 4), 6)
        psi = random_state_on(rng, sup)
        for k in range(1, sup.n + 1):
            rho = np.array(reduced_density_matrix(psi, k))
            assert abs(np.trace(rho) - 1) < 1e-9
            assert np.allclose(rho, rho.conj().T)
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > -1e-12


def _rdm_numpy_reference(psi, k):
    """The reduced density matrix accumulated into a numpy array, product by
    product in the same order as the library."""
    rho = np.zeros((2, 2), dtype=complex)
    groups = {}
    for label, c in psi.amplitudes.items():
        groups.setdefault(label[: k - 1] + label[k:], {})[int(label[k - 1])] = c
    for part in groups.values():
        for b1, c1 in part.items():
            for b2, c2 in part.items():
                rho[b1, b2] += c1 * c2.conjugate()
    return rho


def test_rdm_matches_numpy_reference_bit_for_bit():
    rng = random.Random(29)
    for _ in range(40):
        sup = random_support(rng, rng.randint(1, 5), 12)
        psi = random_state_on(rng, sup)
        for k in range(1, sup.n + 1):
            rho = reduced_density_matrix(psi, k)
            ref = _rdm_numpy_reference(psi, k)
            assert type(rho) is tuple and len(rho) == 2
            for b1 in (0, 1):
                assert type(rho[b1]) is tuple and len(rho[b1]) == 2
                for b2 in (0, 1):
                    entry = rho[b1][b2]
                    assert type(entry) is complex
                    assert (entry.real.hex(), entry.imag.hex()) == (
                        float(ref[b1, b2].real).hex(),
                        float(ref[b1, b2].imag).hex(),
                    )


def test_rdm_rejects_bad_input():
    psi = PureState.from_amplitudes({"00": 1.0, "11": 1.0})
    with pytest.raises(InputError):
        reduced_density_matrix(psi, 1)  # unnormalized
    good = PureState.from_amplitudes({"00": 1.0})
    with pytest.raises(InputError):
        reduced_density_matrix(good, 0)
    with pytest.raises(InputError):
        reduced_density_matrix(good, 3)
    with pytest.raises(InputError):
        reduced_density_matrix(good, True)  # not read as qubit 1


def test_a_state_support_is_the_support_its_labels_build():
    # psi.support() skips Support's checks, which the state's constructor ran
    states = [fixture_state(name) for name in fixture_names()]
    for seed in (0, 1, 2):
        states += benchmark_pool_states(seed)
    assert len(states) == 13 + 3 * 240
    for psi in states:
        got, checked = psi.support(), Support.from_labels(psi.amplitudes)
        assert got == checked and hash(got) == hash(checked) and repr(got) == repr(checked)
        assert pickle.loads(pickle.dumps(got)) == checked


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PureState(2, {}), InputError, "^support must contain at least one label$"),
        (lambda: PureState.from_amplitudes({}), InputError, "^support must contain at least one label$"),
        (lambda: Support.from_labels([]), InputError, "^support must contain at least one label$"),
        (lambda: Support(0, ["0"]), InputError, "^qubit count n must be at least 1, got 0$"),
        (lambda: Support(-1, ["0"]), InputError, "^qubit count n must be at least 1, got -1$"),
        (lambda: PureState(0, {"0": 1.0}), InputError, "^qubit count n must be at least 1, got 0$"),
        (lambda: PureState(-2, {"0": 1.0}), InputError, "^qubit count n must be at least 1, got -2$"),
        (lambda: InvariantMonomial([("00", 1, 0), ("00", 0, 1)]), InputError, "^support labels must be distinct$"),
        (lambda: reduced_density_matrix(PureState(2, {"00": 1.0, "11": 1.0}), 1), InputError,
         "^state norm is 1.414213562373, not 1 within 1e-09; normalize it first$"),
        (lambda: symmetrize_over_flips(InvariantMonomial([("00", 1, 0)]), ["00", "111"]), DimensionError,
         "^label '111' has 3 bits, expected 2$"),
    ],
    ids=["empty-state", "empty-amplitudes", "empty-support", "support-n0", "support-n-1", "state-n0", "state-n-2",
         "repeated-monomial-label", "rdm-unnormalized", "flip-masks-mixed-width"],
)
def test_refusals_checked_by_support_and_states(build, error, message):
    with pytest.raises(error, match=message):
        build()
