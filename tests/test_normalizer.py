import random
from itertools import combinations

import pytest

from lusym import (
    InputError,
    InternalError,
    PureState,
    Support,
    compute_normalizer,
    fixture_names,
    fixture_state,
    solve_symmetry_group,
)
from lusym.invariants import InvariantMonomial, InvariantSum, symmetrize_over_flips
from lusym.normalizer import _as_flip_group, balance_defects, support_stabilizer_masks

from conftest import conjugate, random_state_on, random_support
from oracles import reduced_density_matrix, xor_closed, xor_labels


def normalizer_of(sup):
    return compute_normalizer(sup, solve_symmetry_group(sup))


def test_stabilizer_masks_ghz_family():
    for n in range(2, 7):
        sup = Support.from_labels(["0" * n, "1" * n])
        fg = support_stabilizer_masks(sup)
        assert fg.masks == ("0" * n, "1" * n)
        assert fg.generators == ("1" * n,)


def test_stabilizer_masks_w_and_xstate():
    assert support_stabilizer_masks(
        Support.from_labels(["100", "010", "001"])
    ).masks == ("000",)
    assert support_stabilizer_masks(
        Support.from_labels(["1111", "1000", "0100", "0010", "0001"])
    ).masks == ("0000",)


def test_stabilizer_masks_full_support():
    labels = [format(x, "03b") for x in range(8)]
    fg = support_stabilizer_masks(Support.from_labels(labels))
    assert len(fg.masks) == 8
    assert len(fg.generators) == 3


def test_stabilizer_masks_xor_closure_random():
    rng = random.Random(101)
    for _ in range(60):
        sup = random_support(rng, rng.randint(1, 5), 8)
        fg = support_stabilizer_masks(sup)
        mask_set = set(fg.masks)
        assert "0" * sup.n in mask_set
        for x in fg.masks:
            for y in fg.masks:
                assert xor_labels(x, y) in mask_set
        # every mask permutes the support
        labels = set(sup.labels)
        for m in fg.masks:
            assert {xor_labels(lab, m) for lab in labels} == labels
        assert len(fg.masks) == 2 ** len(fg.generators)


def test_stabilizer_masks_brute_force():
    # every t in [0, 2^n) with S ^ t = S, in value order; the generators are the
    # masks, in value order, outside the span of the generators before them
    rng = random.Random(149)
    for _ in range(80):
        n = rng.randint(1, 6)
        sup = random_support(rng, n, 2**n)
        values = {int(lab, 2) for lab in sup.labels}
        masks = [t for t in range(2**n) if {v ^ t for v in values} == values]
        span, gens = {0}, []
        for t in masks:
            if t not in span:
                gens.append(t)
                span |= {x ^ t for x in span}
        fg = support_stabilizer_masks(sup)
        assert fg.masks == tuple(format(t, f"0{n}b") for t in masks)
        assert fg.generators == tuple(format(t, f"0{n}b") for t in gens)


@pytest.mark.parametrize(
    "values, n",
    [([0b00, 0b01, 0b10], 2), ([0b11], 2), ([0b000, 0b011, 0b101], 3)],
    ids=["no-sum", "no-zero", "no-sum-3"],
)
def test_flip_group_self_check_rejects_unclosed_masks(values, n):
    with pytest.raises(InternalError, match="not closed under xor"):
        _as_flip_group(values, n)


def _mask_sets():
    # every nonempty set of the 8 masks on 3 qubits, then seeded sets on 4-6
    # qubits built near subgroups, so that both verdicts occur often: a
    # subgroup, one with a mask dropped or added, a coset, or any masks
    for size in range(1, 9):
        for masks in combinations(range(8), size):
            yield 3, list(masks)
    rng = random.Random(4099)
    seeded = 0
    while seeded < 300:
        n = rng.randint(4, 6)
        span = [0]
        for _ in range(rng.randint(0, 3)):
            m = rng.getrandbits(n)
            span += [s ^ m for s in span]
        masks = set(span)
        kind = rng.randrange(5)
        if kind == 1:
            masks.discard(rng.choice(sorted(masks)))
        elif kind == 2:
            masks.add(rng.getrandbits(n))
        elif kind == 3:
            x = rng.getrandbits(n)
            masks = {x ^ s for s in masks}
        elif kind == 4:
            masks = set(rng.sample(range(1 << n), rng.randint(1, 12)))
        if masks:
            masks = sorted(masks)
            rng.shuffle(masks)
            seeded += 1
            yield n, masks


def test_flip_group_checks_agree_with_pairwise_closure():
    # both checks count a GF(2) rank; the oracle tries every pair, and a set
    # without the zero mask is unclosed too
    verdicts = set()
    for n, values in _mask_sets():
        closed = xor_closed(values)
        verdicts.add((closed, 0 in values))
        labels = [f"{x:0{n}b}" for x in values]
        mono = InvariantMonomial((("0" * n, 1, 1),))
        if closed:
            assert _as_flip_group(values, n).masks == tuple(sorted(labels))
            assert isinstance(symmetrize_over_flips(mono, labels), InvariantSum)
        else:
            with pytest.raises(InternalError, match=r"^flip masks not closed under xor: \d+ masks of GF\(2\) rank \d+$"):
                _as_flip_group(values, n)
            with pytest.raises(InputError, match=r"^flip group not closed under xor: \d+ masks of GF\(2\) rank \d+$"):
                symmetrize_over_flips(mono, labels)
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_phase_condition_keeps_ghz_flip():
    sup = Support.from_labels(["0000", "1111"])
    group = solve_symmetry_group(sup)
    assert group == conjugate(group, "1111")
    assert compute_normalizer(sup, group).flips.masks == ("0000", "1111")


def test_phase_condition_filters_cluster_like_support():
    sup = Support.from_labels(["1111", "1100", "0010", "0001"])
    fg = normalizer_of(sup).flips
    assert fg.masks == ("0000", "0011", "1101", "1110")


def test_normalizer_ghz_family():
    for n in range(2, 7):
        sup = Support.from_labels(["0" * n, "1" * n])
        desc = normalizer_of(sup)
        assert desc.flips.masks == ("0" * n, "1" * n)
        assert desc.assumption_ok


def test_normalizer_xstate_trivial_flips():
    desc = normalizer_of(Support.from_labels(["1111", "1000", "0100", "0010", "0001"]))
    assert desc.flips.masks == ("0000",)
    assert desc.assumption_ok


def test_normalizer_assumption_flag():
    desc = normalizer_of(Support.from_labels(["000", "110", "100", "010"]))
    assert not desc.assumption_ok
    assert desc.profile.trivial == (True, True, False)


def test_normalizer_full_support():
    labels = [format(x, "03b") for x in range(8)]
    desc = normalizer_of(Support.from_labels(labels))
    assert len(desc.flips.masks) == 8
    assert not desc.assumption_ok  # every qubit acts by signs only


def test_kept_masks_conjugate_group_into_itself():
    rng = random.Random(103)
    for _ in range(40):
        sup = random_support(rng, rng.randint(2, 4), 8)
        group = solve_symmetry_group(sup)
        for mask in compute_normalizer(sup, group).flips.masks:
            assert group == conjugate(group, mask), (sup.labels, mask)


def test_solved_group_passes_all_stabilizer_masks():
    # a support-stabilizing flip permutes the defining congruences among
    # themselves, so the full solution group is always conjugated onto itself
    rng = random.Random(107)
    for _ in range(80):
        sup = random_support(rng, rng.randint(2, 4), 8)
        group = solve_symmetry_group(sup)
        for mask in support_stabilizer_masks(sup).masks:
            assert group == conjugate(group, mask), (sup.labels, mask)


def test_phase_condition_rejects_on_proper_subgroup():
    # conjugation does move a group that is smaller than the full solution
    # group of the support being stabilized
    bell = solve_symmetry_group(Support.from_labels(["00", "11"]))
    full = Support.from_labels(["00", "01", "10", "11"])
    masks = support_stabilizer_masks(full).masks
    assert masks == ("00", "01", "10", "11")
    kept = [m for m in masks if bell == conjugate(bell, m)]
    # flipping one qubit sends the torus direction (1,-1,0) to (1,1,0)
    assert kept == ["00", "11"]


def test_defect_polynomials_bell_and_w():
    bell = fixture_state("bell")
    assert len(balance_defects(bell)) == 2
    for value in balance_defects(bell):
        assert abs(value) < 1e-12

    w3 = fixture_state("w3")
    assert len(balance_defects(w3)) == 3
    for value in balance_defects(w3):
        assert abs(value - 1 / 3) < 1e-12


def _reference_defects(psi):
    """Qubit k's sum of |c|^2 over the bit-0 labels minus the sum over the
    bit-1 labels, each summed separately in support order."""
    labels = psi.support().labels
    return tuple(
        sum(abs(psi.amplitude(lab)) ** 2 for lab in labels if lab[k] == "0")
        - sum(abs(psi.amplitude(lab)) ** 2 for lab in labels if lab[k] == "1")
        for k in range(psi.n)
    )


def test_defects_equal_the_two_sums_bit_for_bit():
    rng = random.Random(2024)
    states = [fixture_state(name) for name in fixture_names()]
    for _ in range(100):
        states.append(random_state_on(rng, random_support(rng, rng.randint(1, 8), 12)))
    # qubit 3 is 0 on every label, so its bit-1 sum is empty
    states.append(random_state_on(rng, Support.from_labels(["000", "110", "100", "010"])))
    # a state built from a reversed dict is stored, and summed, in support order too
    forward = random_state_on(rng, random_support(rng, 5, 12, min_labels=6))
    states.append(PureState(forward.n, dict(reversed(list(forward.amplitudes.items())))))
    for psi in states:
        assert [repr(v) for v in balance_defects(psi)] == [repr(v) for v in _reference_defects(psi)]


def test_defect_matches_reduced_density_matrix():
    rng = random.Random(109)
    for _ in range(40):
        sup = random_support(rng, rng.randint(1, 4), 8)
        psi = random_state_on(rng, sup)
        for k, value in enumerate(balance_defects(psi), 1):
            rho = reduced_density_matrix(psi, k)
            assert abs(value - (rho[0][0].real - rho[1][1].real)) < 1e-10
