"""Acceptance suite: nine criteria, one test and one printed pass line each.

Every test is independent, seeded, and finishes well under ten seconds.
Tolerances are written out at the assertion sites.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations

from lusym import (
    IntMatrix,
    PureState,
    Support,
    analyze,
    enumerate_circuits,
    evaluate,
    fixture_names,
    fixture_state,
    smith_normal_form,
    solve_symmetry_group,
    symmetrize_over_flips,
    verify_symmetry,
)
from lusym.invariants import InvariantSum, monomial_from_circuit
from lusym.normalizer import balance_defects, compute_normalizer
from lusym.serialize import dump_report

from conftest import (
    all_labels,
    brute_force_circuit_members,
    conjugate,
    random_element,
    random_state_on,
    random_support,
)
from oracles import apply_phase_element, bidegree_scaling_check, int_product, reduced_density_matrix, xor_labels


def test_criterion_1_known_state_catalog():
    # Bell: one circuit, relation (1,1), invariant bidegree (2,0)
    cat = enumerate_circuits(Support.from_labels(["00", "11"]))
    assert [c.relation for c in cat.circuits] == [(1, 1)]
    assert tuple(monomial_from_circuit(cat.circuits[0]).bidegree) == (2, 0)

    # GHZ_4: same pattern on four qubits
    cat = enumerate_circuits(Support.from_labels(["0000", "1111"]))
    assert [c.relation for c in cat.circuits] == [(1, 1)]
    assert tuple(monomial_from_circuit(cat.circuits[0]).bidegree) == (2, 0)

    # cluster-like support: single circuit of all four labels
    cat = enumerate_circuits(Support.from_labels(["1111", "1100", "0010", "0001"]))
    assert [c.relation for c in cat.circuits] == [(1, 1, 1, 1)]
    assert tuple(monomial_from_circuit(cat.circuits[0]).bidegree) == (4, 0)

    # five-label support with a doubled coefficient
    cat = enumerate_circuits(
        Support.from_labels(["1111", "1000", "0100", "0010", "0001"])
    )
    assert len(cat.circuits) == 1
    assert cat.circuits[0].member_labels == ("0001", "0010", "0100", "1000", "1111")
    assert cat.circuits[0].relation == (1, 1, 1, 1, 2)
    assert cat.circuits[0].d_order == 6
    assert tuple(monomial_from_circuit(cat.circuits[0]).bidegree) == (6, 0)

    # W_3: independent sign vectors, no circuits, continuous global phase
    w_sup = Support.from_labels(["100", "010", "001"])
    assert enumerate_circuits(w_sup).circuits == ()
    assert solve_symmetry_group(w_sup).theta_continuous

    print("criterion 1: PASS")


def test_criterion_2_circuit_enumeration_matches_oracle():
    # exhaustive: every support on up to 4 qubits with at most 5 labels
    count = 0
    for n in range(1, 5):
        labels = all_labels(n)
        for size in range(2, min(5, 2**n) + 1):
            for combo in combinations(labels, size):
                sup = Support.from_labels(list(combo))
                got = {
                    frozenset(c.member_labels)
                    for c in enumerate_circuits(sup).circuits
                }
                assert got == brute_force_circuit_members(sup), combo
                count += 1
    assert count > 6000

    # random: larger supports, still against the oracle
    rng = random.Random(2025)
    for _ in range(500):
        sup = random_support(rng, rng.randint(1, 4), 8)
        got = {frozenset(c.member_labels) for c in enumerate_circuits(sup).circuits}
        assert got == brute_force_circuit_members(sup), sup.labels

    print("criterion 2: PASS")


def test_criterion_3_solved_groups_fix_random_states():
    rng = random.Random(303)
    for _ in range(200):
        sup = random_support(rng, rng.randint(1, 6), 8)
        psi = random_state_on(rng, sup)
        group = solve_symmetry_group(sup)
        rng.randrange(10**6)  # once the torus-sample seed; still drawn, so the supports stay the same
        v = verify_symmetry(psi, group, tol=1e-9)
        assert v.passed, (sup.labels, v.max_deviation)
        assert v.max_deviation <= 1e-9

    print("criterion 3: PASS")


def test_criterion_4_invariance_of_monomials_and_flip_sums():
    rng = random.Random(404)
    checked_monos = 0
    checked_sums = 0
    while checked_monos < 40:
        sup = random_support(rng, rng.randint(2, 5), 8, min_labels=3)
        cat = enumerate_circuits(sup)
        if not cat.circuits:
            continue
        group = solve_symmetry_group(sup)
        psi = random_state_on(rng, sup)
        monos = [monomial_from_circuit(c) for c in cat.circuits]
        for _ in range(20):
            moved = apply_phase_element(random_element(group, rng), psi)
            for m in monos:
                before = evaluate(m, psi)
                after = evaluate(m, moved)
                scale = max(abs(before), abs(after), 1e-300)
                assert abs(before - after) / scale <= 1e-10
        checked_monos += len(monos)

        # admitted flip sums are unchanged when the state itself is flipped
        flips = compute_normalizer(sup, group).flips
        for m in monos:
            out = symmetrize_over_flips(m, flips.masks)
            if not isinstance(out, InvariantSum):
                continue
            base = evaluate(out, psi)
            for mask in flips.masks:
                flipped = PureState.from_amplitudes(
                    {xor_labels(lab, mask): c for lab, c in psi.amplitudes.items()}
                )
                moved_val = evaluate(out, flipped)
                scale = max(abs(base), abs(moved_val), 1e-300)
                assert abs(base - moved_val) / scale <= 1e-10
                checked_sums += 1
    assert checked_sums > 0

    print("criterion 4: PASS")


def test_criterion_5_bidegree_scaling():
    rng = random.Random(505)
    checked = 0
    while checked < 30:
        sup = random_support(rng, rng.randint(2, 4), 8, min_labels=3)
        cat = enumerate_circuits(sup)
        if not cat.circuits:
            continue
        psi = random_state_on(rng, sup)
        for c in cat.circuits:
            m = monomial_from_circuit(c)
            for _ in range(5):
                factor = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(factor) < 0.2:
                    continue
                assert bidegree_scaling_check(m, psi, factor, tol=1e-10)
                checked += 1

    print("criterion 5: PASS")


def test_criterion_6_normalizer_flips_exact():
    def flips_of(labels):
        sup = Support.from_labels(labels)
        return compute_normalizer(sup, solve_symmetry_group(sup)).flips.masks

    # frozen flip groups
    for n in range(2, 7):
        assert flips_of(["0" * n, "1" * n]) == ("0" * n, "1" * n)
    assert flips_of(["1111", "1000", "0100", "0010", "0001"]) == ("0000",)
    assert flips_of(["1111", "1100", "0010", "0001"]) == ("0000", "0011", "1101", "1110")

    # every kept mask conjugates the solved group onto itself, decided exactly
    rng = random.Random(606)
    for _ in range(40):
        sup = random_support(rng, rng.randint(2, 5), 8)
        group = solve_symmetry_group(sup)
        for mask in compute_normalizer(sup, group).flips.masks:
            assert group == conjugate(group, mask)

    print("criterion 6: PASS")


def test_criterion_7_defects_agree_with_reduced_states():
    rng = random.Random(707)
    states = []
    # generic states, resampled until every defect is far from the threshold
    while len(states) < 150:
        sup = random_support(rng, rng.randint(1, 5), 8)
        psi = random_state_on(rng, sup)
        if all(abs(v) > 1e-6 for v in balance_defects(psi)):
            states.append(psi)
    # complement-closed supports with uniform moduli: every defect vanishes
    for _ in range(50):
        n = rng.randint(2, 5)
        seed_labels = random_support(rng, n, 4).labels
        closed = sorted(
            {lab for lab in seed_labels}
            | {xor_labels(lab, "1" * n) for lab in seed_labels}
        )
        amp = 1 / math.sqrt(len(closed))
        states.append(
            PureState.from_amplitudes(
                {
                    lab: amp * cmath.exp(2j * math.pi * rng.random())
                    for lab in closed
                }
            )
        )
    assert len(states) == 200
    for psi in states:
        for k, defect in enumerate(balance_defects(psi), 1):
            rho = reduced_density_matrix(psi, k)
            balanced = max(abs(rho[0][0] - 0.5), abs(rho[1][1] - 0.5)) <= 5e-11
            assert (abs(defect) <= 1e-10) == balanced, (psi.support().labels, k)

    print("criterion 7: PASS")


def test_criterion_8_smith_normal_form_exact():
    rng = random.Random(808)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = smith_normal_form(a)
        assert int_product(dec.u, a, dec.v) == dec.d.row_tuples()
        fac = dec.invariant_factors
        assert all(x > 0 for x in fac)
        for i in range(len(fac) - 1):
            assert fac[i + 1] % fac[i] == 0

    print("criterion 8: PASS")


def test_criterion_9_reports_are_deterministic(tmp_path):
    for name in fixture_names():
        psi = fixture_state(name)
        first = dump_report(analyze(psi, tol=1e-9))
        second = dump_report(analyze(psi, tol=1e-9))
        assert first == second, name
        json.loads(first)  # well-formed

    # byte-identical across separate processes under two fixed hash seeds; on
    # the coset support the flip masks pass through sets on their way out, and
    # circuits are lifted through dicts to the complements left out of the search
    coset = "01010,10010,01101,10101"
    closed = "0000,1111,0001,1110,0010,1101,0100,1011,0111,1000,0011,1100"
    paired = ["00000", "11111", "00110", "11001", "01011", "10100", "01110", "00011", "11000"]
    amps = {lab: complex(1 + k, 2 - k % 3) for k, lab in enumerate(paired)}
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    state_file = tmp_path / "paired.json"
    state_file.write_text(json.dumps({"n": 5, "amplitudes": {k: [c.real / norm, c.imag / norm] for k, c in amps.items()}}))
    for argv in (
        ["analyze", "--fixture", "bell", "--json"],
        ["analyze", "--fixture", "xstate", "--json"],
        ["normalizer", "--support", coset, "--json"],
        ["invariants", "--support", coset, "--json"],
        ["circuits", "--support", closed, "--json"],
        ["analyze", "--input", str(state_file), "--json"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "lusym.cli", *argv],
                capture_output=True,
                text=True,
                timeout=60,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            for seed in ("1", "2")
        ]
        assert all(r.returncode == 0 for r in runs), argv
        assert runs[0].stdout == runs[1].stdout, argv

    print("criterion 9: PASS")
