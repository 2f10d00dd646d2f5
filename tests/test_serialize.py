import hashlib
import json
import random
from fractions import Fraction

import pytest

from lusym import (
    DiagonalSymmetryGroup,
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
    group_from_dict,
    group_to_dict,
    load_group,
    load_state,
    state_from_dict,
    state_hash,
    state_to_dict,
)

from conftest import random_coset_support, random_state_on, random_support


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


# a field of the wrong JSON type, a bool or a non-list included, is refused by name
@pytest.mark.parametrize(
    "patch, field",
    [
        ({"n": True, "torus_basis": [[1, -1]], "finite": []}, "'n'"),
        ({"torus_basis": [[True, -1, 0]]}, "'torus_basis'"),
        ({"finite": [{"order": 2, "nums": [True, 0, 1]}]}, "'nums'"),
        ({"finite": [{"order": 2, "nums": [1, 0, False]}]}, "'nums'"),
        ({"finite": [{"order": True, "nums": [1, 0, 1]}]}, "'order'"),
        ({"torus_basis": 5}, "'torus_basis'"),
        ({"finite": 5}, "'finite'"),
    ],
    ids=["n", "torus_basis", "num", "num-false", "order", "torus_basis-not-list", "finite-not-list"],
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


def test_canonical_dumps_is_strict_json():
    with pytest.raises(ValueError):
        canonical_dumps({"value": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps([float("inf")])


def test_group_round_trip_exact():
    rng = random.Random(131)
    for _ in range(25):
        sup = random_support(rng, rng.randint(1, 5), 8)
        g = solve_symmetry_group(sup)
        back = group_from_dict(group_to_dict(g))
        assert back == g
        assert groups_equal(back, g)
        assert dump_group(back) == dump_group(g)
    # a generator made from turns off [0, 1) is stored, written and read back
    # as its reduced representative
    gen = PhaseVector.make([Fraction(3, 2), Fraction(-1, 4)], Fraction(7, 3))
    assert gen == PhaseVector.make([Fraction(1, 2), Fraction(3, 4)], Fraction(1, 3))
    group = DiagonalSymmetryGroup(n=2, torus_basis=(), finite_generators=(gen,))
    assert group_to_dict(group)["finite"] == [{"order": 12, "nums": [6, 9, 4]}]
    assert group_from_dict(group_to_dict(group)).finite_generators == (gen,)


def test_load_group_validation():
    g = solve_symmetry_group(Support.from_labels(["00", "11"]))
    data = group_to_dict(g)
    half_turn = data["finite"][0]["nums"]
    assert data["finite"] == [{"order": 2, "nums": [1, 0, 1]}]
    for item, message in [
        ({"order": 1, "nums": half_turn}, "'order'"),
        ({"order": 2, "nums": half_turn[:2]}, "'nums'"),
        # order is the generator's exact order: nums sharing a factor with it,
        # such as the half turn written over 4 or the zero element, are refused
        ({"order": 4, "nums": [2 * x for x in half_turn]}, "lowest terms"),
        ({"order": 2, "nums": [0, 0, 0]}, "lowest terms"),
        # nums are the numerators in [0, order): the half turn written as 3/2 is refused
        ({"order": 2, "nums": [3, 0, 1]}, r"\[0, 2\)"),
    ]:
        with pytest.raises(InputError, match=message):
            group_from_dict(dict(data, finite=[item]))
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


# sha256 of dump_report(analyze(fixture_state(name))) as written by lusym 0.4.0;
# any change to the report bytes must come with a version bump and new hashes
REPORT_SHA256 = {
    "bell": "bed7d7eb7de25d448709648ac9c321ebe3f3dd20823d8df5028df19eef697536",
    "cluster4a": "526366900af4c9ad8296058a0257e76a8ccc813135846b8bc4e067190901214f",
    "cluster4b": "ff021db498be2073228cd86b2e840b113836e00135e00ff6c984457cd9ab5380",
    "ghz2": "bed7d7eb7de25d448709648ac9c321ebe3f3dd20823d8df5028df19eef697536",
    "ghz3": "2f39c624931039f4bde376e049c1f877f58a7ff2add3f62f60bfda6de952fd8c",
    "ghz4": "dd5f48bf8a2cecff4616a1255df892441a74b129172cf23c6e784b3f4d6e361b",
    "ghz5": "7fcdbf901cd6c0c85b03dfeadb9e996332bec6cde1bf04f53277756a30ab675d",
    "ghz6": "69e49938a069b358c295247fd5c2baba3ea9adb9430c6b7d595d177c2cb4c2eb",
    "w3": "21bccce7beef4bba3f29ef325ee3df20704c3e10ee3fe623b1525a7916d1e5b4",
    "w4": "d16b9cdb01a1e56761dfa7b078bf0a27c4239737d8c66f12d8cb4f1faf8584d9",
    "w5": "ef955b204713239dc71c414f66b5c518a8c2346ea6919b6c14c29b3cb6d8604e",
    "w6": "1fde32fefc5550970d16f2faf99ea86d512941008a58221badcdd98674a84e83",
    "xstate": "80af492e30ffacc793d82d7b66cfef6a3e59c6065ae801c049ae347fe2136e94",
}


def test_report_bytes_are_pinned():
    assert sorted(REPORT_SHA256) == sorted(fixture_names())
    for name, digest in REPORT_SHA256.items():
        text = dump_report(analyze(fixture_state(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# sha256 of dump_report for seeded states beyond the fixtures, written by lusym
# 0.4.0: cosets with a torus of rank 7 and 8, and random supports whose groups
# have eight and nine finite factors. Built with the conftest helpers, so a
# change to those helpers changes the inputs and fails this test too.
SEEDED_REPORT_SHA256 = {
    ("coset", 1, 10, 2): "47559f487c378f3a667d50aba1709af54e70739e7ba32a4e7ecae6881543eed6",
    ("coset", 2, 12, 3): "d3ca38fb6183a423bc5e862d1515fcf65d085066de9258e99594334895d0e388",
    ("random", 5, 8, 12): "7a9283d8ee2225682298aff279c987f06e62d1e7374d7bbd43c2b709a0b8a711",
    ("random", 6, 9, 13): "6bbc21cd4c001f6dd67ecf0158cf73f57caaf22575bc7de554cf10d990774193",
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
