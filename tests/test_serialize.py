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
    assert canonical_dumps({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}\n'


def test_written_files_are_fixed_points():
    report = dump_report(analyze(fixture_state("cluster4a")))
    group = dump_group(solve_symmetry_group(fixture_state("ghz4").support()))
    for text in (report, group):
        assert canonical_dumps(json.loads(text)) == text
        assert text.count("\n") == 1


def test_indented_files_of_0_4_0_load():
    # lusym 0.4.0 wrote sorted keys with indent=2; such files still load and
    # are written back in the compact form
    psi = fixture_state("xstate")
    group = solve_symmetry_group(psi.support())
    old_state = json.dumps(state_to_dict(psi), sort_keys=True, indent=2) + "\n"
    old_group = json.dumps(group_to_dict(group), sort_keys=True, indent=2) + "\n"
    assert old_state != dump_state(psi) and old_group != dump_group(group)
    assert dump_state(load_state(old_state)) == dump_state(psi)
    assert dump_group(load_group(old_group)) == dump_group(group)


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
    assert state_hash(psi) == "sha256:" + hashlib.sha256(dump_state(psi).encode()).hexdigest()


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


# sha256 of dump_report(analyze(fixture_state(name))) as written by lusym 0.5.0;
# any change to the report bytes must come with a version bump and new hashes
REPORT_SHA256 = {
    "bell": "6be8132fd1e7bc3dc7e3851e9e0fc7e36e74abfedce22cff76c1fd6fdc7545a9",
    "cluster4a": "00a6d594f84f0aa48201f88c73b92c94b399f8cc001fe5124afd8ef30c4abbaa",
    "cluster4b": "20bac10548f5b7e2d4b4c43c01d0fe4e1017a9287136c074b99ecee3f7125e21",
    "ghz2": "6be8132fd1e7bc3dc7e3851e9e0fc7e36e74abfedce22cff76c1fd6fdc7545a9",
    "ghz3": "e6d265f09014117d373e92138cbe4c290825a1602b12da10e8ca0a6e86bdea83",
    "ghz4": "7d4654e6725ced30b7891fdc51a0795f8e582364b30e80621df44e1442a358f8",
    "ghz5": "60992e9bb809487af362970a924346785b01018d933e275b7f7185c46d52f2f0",
    "ghz6": "badd2a731123f25242a03a53bd0272d2756abbcb2b75182144f5d48e85a5beec",
    "w3": "c9c911e9d3c7aeaace9b4260821d6a27c1a7d2c109ff60d60cd1800ab8c5a90d",
    "w4": "85a4b94fd37180cb12e7981495adb38be0486689f3dcf893d85e973a254662e0",
    "w5": "8b3eb0c85dd1c7effbcbb6ee6d751a46ad25690cd950835442b9de6e94821b83",
    "w6": "f024df495325634bc9e85f19a4330df3d6508fb0cc9b1d897082c346eacd0977",
    "xstate": "69cbb5dde4bf4cceeb52a1a71bf50ee5a5c5d6da1dacc03bd9396448820e4137",
}


def test_report_bytes_are_pinned():
    assert sorted(REPORT_SHA256) == sorted(fixture_names())
    for name, digest in REPORT_SHA256.items():
        text = dump_report(analyze(fixture_state(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# sha256 of dump_report for seeded states beyond the fixtures, written by lusym
# 0.5.0: cosets with a torus of rank 7 and 8, and random supports whose groups
# have eight and nine finite factors. Built with the conftest helpers, so a
# change to those helpers changes the inputs and fails this test too.
SEEDED_REPORT_SHA256 = {
    ("coset", 1, 10, 2): "735e202649816f984edf96ece8963fbdbce88b96d46396e57aacec2cdd04f577",
    ("coset", 2, 12, 3): "80c4425f473500cd8d21e89f67851f703c31dcbd362bd3c5b49c49d12f81cfa5",
    ("random", 5, 8, 12): "e422ba963fae9ca2b5f6897fd928bf5990d6a565bf007dd978085c5f67fdc806",
    ("random", 6, 9, 13): "634a5a7ee925ade0a51b4828b5fd5b4ed17b1b85e6f77481b141947ac84cef28",
}


def _seeded_report(kind, seed, n, size):
    rng = random.Random(seed)
    if kind == "coset":
        support = random_coset_support(rng, n, size)
    else:
        support = random_support(rng, n, size, min_labels=size)
    return dump_report(analyze(random_state_on(rng, support)))


@pytest.mark.parametrize("kind, seed, n, size", sorted(SEEDED_REPORT_SHA256))
def test_seeded_report_bytes_are_pinned(kind, seed, n, size):
    text = _seeded_report(kind, seed, n, size)
    digest = SEEDED_REPORT_SHA256[kind, seed, n, size]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _content_sha256(text):
    """sha256 of a report's values and keys, whatever its whitespace, with the
    two fields a format change may move (tool.version, input.hash) removed."""
    data = json.loads(text)
    del data["tool"]["version"], data["input"]["hash"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# content digests of the reports pinned above, recorded from lusym 0.4.0: a
# format change that moves only whitespace, the version and the state hash
# leaves every one of them unchanged
REPORT_CONTENT_SHA256 = {
    "bell": "662a7e63fc4916d4f949772cba45eb5d64ee7567514bde195009476ba3e4a385",
    "cluster4a": "464757b0e1ddfca94a006dcda2efd85708d5cbc1a20a48f2b7f14b4151ebe578",
    "cluster4b": "77ef2e46866532d36b0ab01c7ed2b9fa436c3b52ab1a4a76f25171ee3b9e5139",
    "ghz2": "662a7e63fc4916d4f949772cba45eb5d64ee7567514bde195009476ba3e4a385",
    "ghz3": "c35b4cc326cff26daa7d1a783d7e51038d5165819b333f9c65bad2b31dae8ac9",
    "ghz4": "d9ac78502c3e38c2f0833f24e9fa274344ee2fad28d6a61bd2a301b119fa4a7c",
    "ghz5": "8644263101a89607eae6016ac926c60075380d5f45896dfabf18f21e42eebaec",
    "ghz6": "613f20e051d782dd19156ea840933cd5e8ab4e7469b9ee04173655e98ebceb43",
    "w3": "d2e13c209a45bf3ae35155206680eeb2d5390f08a2aed32e6bce3762f4651085",
    "w4": "0ca86cdc400199eed53c187068e72c69dd91c58c8760117e3b3ca7fdad7a2645",
    "w5": "ab36bdf0c417047b26c369ca9fbcd058311a0c85b69c170f0e153899db770088",
    "w6": "e05bdee0e775244c7cc9cb72f7eb306111826ee1f40acb8a56076d33b3909049",
    "xstate": "40c2df504fe82163db0244e58d406afcfe2d615da72e14227ff8500ca9001ca2",
}
SEEDED_REPORT_CONTENT_SHA256 = {
    ("coset", 1, 10, 2): "c6e9cd2a6441f8c8fb1829d2be291c7558345b93b15b07b76dedb1d9070a69a6",
    ("coset", 2, 12, 3): "2144031f9c7af4c4d24e9f845b1d7a4980a001e2fd9f7b9f3d2ae983551dec82",
    ("random", 5, 8, 12): "0c41f18f8cbbd2fdf7a06a78f78dd5147de4cd5611711eec342de5f96d138c1f",
    ("random", 6, 9, 13): "6531fc612bfaf13d7bbe2bf91626ac9fa4b0459d39b99af41bd8691ecef1f560",
}


def test_report_content_is_pinned():
    assert sorted(REPORT_CONTENT_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_CONTENT_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_CONTENT_SHA256.items():
        assert _content_sha256(dump_report(analyze(fixture_state(name)))) == digest, name
    for case, digest in SEEDED_REPORT_CONTENT_SHA256.items():
        assert _content_sha256(_seeded_report(*case)) == digest, case
