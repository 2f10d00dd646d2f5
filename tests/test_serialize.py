import hashlib
import json
import random
from fractions import Fraction

import pytest

from lusym import (
    InputError,
    PhaseVector,
    PureState,
    Support,
    analyze,
    fixture_names,
    fixture_state,
    groups_equal,
    solve_symmetry_group,
)
from lusym.serialize import (
    canonical_dumps,
    dump_group,
    dump_report,
    dump_state,
    fraction_from_dict,
    fraction_to_dict,
    group_from_dict,
    group_to_dict,
    load_group,
    load_state,
    phase_vector_from_dict,
    phase_vector_to_dict,
    state_from_dict,
    state_hash,
    state_to_dict,
)

from conftest import random_coset_support, random_state_on, random_support

F = Fraction


def test_canonical_dumps_shape():
    text = canonical_dumps({"b": 1, "a": [1.5, None]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}


def test_state_round_trip():
    psi = fixture_state("xstate")
    text = dump_state(psi)
    back = load_state(text)
    assert back.n == psi.n
    assert back.amplitudes == psi.amplitudes
    # canonical text is a fixed point of parse + serialize
    assert dump_state(back) == text


def test_state_hash_stable():
    a = PureState.from_amplitudes({"00": 0.6, "11": 0.8})
    b = PureState.from_amplitudes({"11": 0.8, "00": 0.6})
    assert state_hash(a) == state_hash(b)
    assert state_hash(a).startswith("sha256:")
    c = PureState.from_amplitudes({"00": 0.6, "11": 0.8j})
    assert state_hash(a) != state_hash(c)


def test_load_state_diagnostics():
    with pytest.raises(InputError) as err:
        load_state("{not json")
    assert "line" in str(err.value)
    with pytest.raises(InputError):
        load_state('{"n": 2}')
    with pytest.raises(InputError):
        load_state('{"n": 2, "amplitudes": {"0x": [1, 0]}}')
    with pytest.raises(InputError):
        load_state('{"n": 0, "amplitudes": {"0": [1, 0]}}')
    with pytest.raises(InputError):
        load_state('{"n": 2, "amplitudes": {"00": [1]}}')


@pytest.mark.parametrize(
    "bad",
    ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
)
def test_load_state_rejects_non_finite(bad):
    with pytest.raises(InputError, match="finite"):
        load_state('{"n": 2, "amplitudes": {"00": [0.6, 0], "11": [0, %s]}}' % bad)


# bool is a subclass of int, so JSON true and false must be refused explicitly
@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": true, "amplitudes": {"0": [1.0, 0.0]}}', "'n'"),
        ('{"n": 1, "amplitudes": {"0": [true, false]}}', "'0'"),
        ('{"n": 2, "amplitudes": {"00": [0.6, 0], "11": [0, true]}}', "'11'"),
    ],
    ids=["n", "re-im", "im"],
)
def test_state_from_dict_rejects_bool(text, field):
    with pytest.raises(InputError, match=field):
        state_from_dict(json.loads(text))


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"n": True, "torus_basis": [[1, -1]], "finite": []}, "'n'"),
        ({"torus_basis": [[True, -1, 0]]}, "'torus_basis'"),
        ({"finite": [{"order": 2, "generator": {
            "phis": [{"num": True, "den": 2}, {"num": 0, "den": 1}], "theta": {"num": 1, "den": 2}}}]},
         "'num'"),
    ],
    ids=["n", "torus_basis", "num"],
)
def test_group_from_dict_rejects_bool(patch, field):
    data = dict(group_to_dict(solve_symmetry_group(Support.from_labels(["00", "11"]))), **patch)
    with pytest.raises(InputError, match=field):
        group_from_dict(data)


# the torus rank is the number of basis directions, so each must count
@pytest.mark.parametrize(
    "basis",
    [[[1, -1, 0], [2, -2, 0], [0, 0, 0]], [[0, 0, 0]], [[1, -1, 0], [-1, 1, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]],
    ids=["dependent-and-zero", "zero", "opposite", "sum"],
)
def test_group_from_dict_rejects_dependent_torus_basis(basis):
    with pytest.raises(InputError, match="'torus_basis'"):
        group_from_dict({"n": 2, "torus_basis": basis, "finite": []})


@pytest.mark.parametrize("data", [{"num": True, "den": 2}, {"num": 1, "den": True}], ids=["num", "den"])
def test_fraction_from_dict_rejects_bool(data):
    with pytest.raises(InputError, match="'num' and 'den'"):
        fraction_from_dict(data)


def test_canonical_dumps_is_strict_json():
    with pytest.raises(ValueError):
        canonical_dumps({"value": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps([float("inf")])


def test_fraction_round_trip():
    for f in [F(0), F(1, 2), F(-3, 4), F(22, 7)]:
        assert fraction_from_dict(fraction_to_dict(f)) == f
    assert fraction_to_dict(F(-1, 2)) == {"num": -1, "den": 2}
    with pytest.raises(InputError):
        fraction_from_dict({"num": 1})
    with pytest.raises(InputError):
        fraction_from_dict({"num": 1, "den": 0})


def test_phase_vector_round_trip():
    g = PhaseVector.make([F(3, 2), F(-1, 4)], F(7, 3))
    back = phase_vector_from_dict(phase_vector_to_dict(g))
    # serialization stores the reduced representative
    assert back == g.reduced()


def test_group_round_trip_exact():
    rng = random.Random(131)
    for _ in range(25):
        sup = random_support(rng, rng.randint(1, 5), 8)
        g = solve_symmetry_group(sup)
        back = group_from_dict(group_to_dict(g))
        assert back == g
        assert groups_equal(back, g)
        assert dump_group(back) == dump_group(g)


def test_load_group_validation():
    g = solve_symmetry_group(Support.from_labels(["00", "11"]))
    data = group_to_dict(g)
    bad = dict(data)
    bad["finite"] = [{"order": 1, "generator": data["finite"][0]["generator"]}]
    with pytest.raises(InputError):
        group_from_dict(bad)
    half_turn = data["finite"][0]["generator"]
    zero = {"phis": [{"num": 0, "den": 1}] * 2, "theta": {"num": 0, "den": 1}}
    # the order must be the generator's exact order: 2 for the half turn, 1 for zero
    for order, gen in [(3, half_turn), (4, half_turn), (2, zero)]:
        bad = dict(data)
        bad["finite"] = [{"order": order, "generator": gen}]
        with pytest.raises(InputError, match="'order'"):
            group_from_dict(bad)
    with pytest.raises(InputError):
        load_group("[]")


def test_report_dump_deterministic():
    psi = fixture_state("cluster4a")
    r1 = dump_report(analyze(psi))
    r2 = dump_report(analyze(psi))
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["tool"]["name"] == "lusym"
    assert payload["input"]["hash"] == state_hash(psi)


def test_state_dict_matches_schema(schema_validator):
    rng = random.Random(137)
    for _ in range(10):
        sup = random_support(rng, rng.randint(1, 4), 6)
        schema_validator("state.schema.json", state_to_dict(random_state_on(rng, sup)))


def test_group_dict_matches_schema(schema_validator):
    rng = random.Random(139)
    for _ in range(10):
        sup = random_support(rng, rng.randint(1, 5), 8)
        schema_validator("group.schema.json", group_to_dict(solve_symmetry_group(sup)))


def test_report_dict_matches_schema(schema_validator):
    for name in fixture_names():
        payload = json.loads(dump_report(analyze(fixture_state(name))))
        schema_validator("report.schema.json", payload)


# sha256 of dump_report(analyze(fixture_state(name))) as written by lusym 0.3.0;
# any change to the report bytes must come with a version bump and new hashes
REPORT_SHA256 = {
    "bell": "86012397e1e546d57201edf8b825c0875688686869aa3dff1b1dc4164de14c75",
    "cluster4a": "2d1be2292401f1e7fdcb1cfa1ef66edcf8104d68fc72a8aa959029a61ba82d3c",
    "cluster4b": "9dd065b3bc25da056615544be46506dc367e1711c1e436ac83d3361919143cc6",
    "ghz2": "86012397e1e546d57201edf8b825c0875688686869aa3dff1b1dc4164de14c75",
    "ghz3": "18a54dab4c2e0f4969f68817636588ed18a1cefbac2811c7d9baafe1223c66cd",
    "ghz4": "5dbd40d9f134c05fae7278f1e63507d02cf8cf9a74328b47c6d793556fe53b39",
    "ghz5": "30d6a86e5c1ef3b57c51e5f1e04b3872f74da60d45e3c4f54f9fbb6cde1cd625",
    "ghz6": "6184679d9bbe9478472bc23579607b139a85208f4d8c0bc3ee6a5996654fd3a6",
    "w3": "1b8b9cfde33fbcce0b5707ce7d0c55d939412f486ade05ea03cacbe368e1b80d",
    "w4": "1f997544373063cc4f123002a1c1a99fb6cc621f03cfd9cee6685bad3cf3802f",
    "w5": "acf3fe1c5d29f8e5d97efae439fa8da35888ba0cdedf64d5d21cb3084934bb3e",
    "w6": "fb574a53d17fd66b9e16101e9e1b77953487b0c07406d6e9581585972bb27392",
    "xstate": "26e26fa1df9aa1a13933e97dc1785e1107ba0be80feb90e4cb2b72981034bd01",
}


def test_report_bytes_are_pinned():
    assert sorted(REPORT_SHA256) == sorted(fixture_names())
    for name, digest in REPORT_SHA256.items():
        text = dump_report(analyze(fixture_state(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# sha256 of dump_report for seeded states beyond the fixtures, written by lusym
# 0.3.0: cosets with a torus of rank 7 and 8, and random supports whose groups
# have eight and nine finite factors. Built with the conftest helpers, so a
# change to those helpers changes the inputs and fails this test too.
SEEDED_REPORT_SHA256 = {
    ("coset", 1, 10, 2): "5ef66a5be62957ae827da7163aa22125869e35973592a9a4e393432c58e1b932",
    ("coset", 2, 12, 3): "51f348999071f4f4333e95a1e546373c81d732542b335b1a74e08d7f2b5580b7",
    ("random", 5, 8, 12): "283a441960798d98f34413cedb9b2722e1018f1c3775b746b8f82c68c06156b7",
    ("random", 6, 9, 13): "001ccd72fa59483ade0c07b8540508bd646aa10214eb8c6fd64e02785388e1ea",
}


@pytest.mark.parametrize("kind, seed, n, size", sorted(SEEDED_REPORT_SHA256))
def test_seeded_report_bytes_are_pinned(kind, seed, n, size):
    rng = random.Random(seed)
    if kind == "coset":
        support = random_coset_support(rng, n, size)
    else:
        support = random_support(rng, n, size, min_labels=size)
    text = dump_report(analyze(random_state_on(rng, support)))
    digest = SEEDED_REPORT_SHA256[kind, seed, n, size]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
