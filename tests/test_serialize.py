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
        assert dump_group(back) == dump_group(g)
    # a generator made from turns off [0, 1) is reduced; the cyclic group it
    # generates is written with the lexicographically smaller of the generator
    # and its inverse, and read back as the same group
    gen = PhaseVector.make([Fraction(3, 2), Fraction(-1, 4)], Fraction(7, 3))
    assert gen == PhaseVector.make([Fraction(1, 2), Fraction(3, 4)], Fraction(1, 3))
    group = DiagonalSymmetryGroup.from_presentation(2, (), (gen,))
    assert group_to_dict(group)["finite"] == [{"order": 12, "nums": [6, 3, 8]}]
    assert group.finite_generators == (gen.inverse(),)
    assert group_from_dict(group_to_dict(group)) == group


def test_hand_written_presentation_loads_as_the_canonical_group():
    # the Bell group with its torus direction negated and its generator
    # composed with the half turn of that direction
    text = '{"n":2,"torus_basis":[[-1,1,0]],"finite":[{"order":2,"nums":[0,1,1]}]}'
    bell = solve_symmetry_group(Support.from_labels(["00", "11"]))
    assert load_group(text) == bell
    assert dump_group(load_group(text)) == dump_group(bell) != canonical_dumps(json.loads(text))


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


# sha256 of dump_report(analyze(fixture_state(name))) as written by lusym 0.6.0;
# any change to the report bytes must come with a version bump and new hashes
REPORT_SHA256 = {
    "bell": "91ff325046a4e86836d5d14c6d1605c0747ee3a4798d3df7ef7847d547797239",
    "cluster4a": "9c49280a1c7984cb871010e09d3916a86cd050bde8fafa52e6e0b7511ef14830",
    "cluster4b": "98291e200148d397cc796025b4ca48df89b0083c9a8aec70b10c6eca15317648",
    "ghz2": "91ff325046a4e86836d5d14c6d1605c0747ee3a4798d3df7ef7847d547797239",
    "ghz3": "fe3947c5347eee0163df7bd5f944437612828b000530bcc63230370ea2a00c5d",
    "ghz4": "872932769893c7d118322047abec30521837f1fdef5005a0076ece6228be8d17",
    "ghz5": "fa2bbc4c0a3e83c6af3224c024a54e35d514c8ca3a0a4f6a64b88f9be5312821",
    "ghz6": "a1617d31e0bd313b95e48856c97523c94a9e3f80e6e769a0017f9274e9adadd1",
    "w3": "ce3f55a7175378ef841ee9294701006b9b81c085c3de228a2fe2be91f996a3c4",
    "w4": "bae1a45dad7edd3255f9984ff59d2635ac27cac1b321419110cdef061b1c206a",
    "w5": "2b9ec0ac9452e79d9f47088f96c57fc539de8ed1d138327fb0e5c0d4d073684d",
    "w6": "d628bc198edfb041742f743af38c95ae9f4a2a4f73d13ff9a64359e345a0dbb2",
    "xstate": "07951df88cfdb5d4cf3bc1ec6d8d6b8fc9330124577bace0c2dbfbddb9ce5495",
}


def test_report_bytes_are_pinned():
    assert sorted(REPORT_SHA256) == sorted(fixture_names())
    for name, digest in REPORT_SHA256.items():
        text = dump_report(analyze(fixture_state(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# sha256 of dump_report for seeded states beyond the fixtures, written by lusym
# 0.6.0: cosets with a torus of rank 7 and 8, and random supports whose groups
# have eight and nine finite factors. Built with the conftest helpers, so a
# change to those helpers changes the inputs and fails this test too.
SEEDED_REPORT_SHA256 = {
    ("coset", 1, 10, 2): "2f23be74e15531c0f0a33ab63915f453a033b30af20db34fe4a55b110744de6f",
    ("coset", 2, 12, 3): "bfbe176fb328df7f5b24a877802e1aed0411e948a1e4c29056a2f15c3092d5f2",
    ("random", 5, 8, 12): "ab8c31fda37275b03f2c9064a385f4592682cbafa0e8816dbdfc9a698d772299",
    ("random", 6, 9, 13): "2ab1e273742705a6147e596b4a49811b8b103a6755cfd9cf91372c5fc0e1adb0",
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


# content digests of the reports pinned above, recorded from lusym 0.6.0: a
# format change that moves only whitespace, the version and the state hash
# leaves every one of them unchanged
REPORT_CONTENT_SHA256 = {
    "bell": "662a7e63fc4916d4f949772cba45eb5d64ee7567514bde195009476ba3e4a385",
    "cluster4a": "28a7c899cc98e2241e8ad9bd809a85f86e5938bd1b43e8f37ae90e65e28e3359",
    "cluster4b": "52aa274c712c0f44df710318c6b7f6d0a958a3b4b455a560913f348cd2a6404f",
    "ghz2": "662a7e63fc4916d4f949772cba45eb5d64ee7567514bde195009476ba3e4a385",
    "ghz3": "c35b4cc326cff26daa7d1a783d7e51038d5165819b333f9c65bad2b31dae8ac9",
    "ghz4": "d9ac78502c3e38c2f0833f24e9fa274344ee2fad28d6a61bd2a301b119fa4a7c",
    "ghz5": "8644263101a89607eae6016ac926c60075380d5f45896dfabf18f21e42eebaec",
    "ghz6": "613f20e051d782dd19156ea840933cd5e8ab4e7469b9ee04173655e98ebceb43",
    "w3": "5401b26131937adf1830b008e430363e08f05cdf5f48e8148762de8eb16273f4",
    "w4": "b819bca676cef8a8fbc827b613762697ce5de57b28dece438c24e6bd43eacfbb",
    "w5": "4155f3f57536531545ecb21763ce5a8affac2c583fdb54526f85979d7f3b6eeb",
    "w6": "8dac33c1e9e3bc4acc119766097c6587d936ff23e8a89f9192c3b87d893d6c1c",
    "xstate": "7334577cd32de28cae1a77f4571e8b6c5ff1d399e22bde4db4c1bbbbb885cc3e",
}
SEEDED_REPORT_CONTENT_SHA256 = {
    ("coset", 1, 10, 2): "d887bc9252cf29c56372e949fbca0013f32102b2aa111d5e77ed0e6f53d922c3",
    ("coset", 2, 12, 3): "c3eb87c78a055e4c2edddce69d150eea61d83efa5b8d8820bcbcdbef3bba5b34",
    ("random", 5, 8, 12): "9110e06db43dd45615ec452031d7ee3f327a1d7252efd73c3b3959321dafde06",
    ("random", 6, 9, 13): "9cd18393757168b61f220c8a03ffade627c856217a49051d8506afd8e5b88be1",
}


def test_report_content_is_pinned():
    assert sorted(REPORT_CONTENT_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_CONTENT_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_CONTENT_SHA256.items():
        assert _content_sha256(dump_report(analyze(fixture_state(name)))) == digest, name
    for case, digest in SEEDED_REPORT_CONTENT_SHA256.items():
        assert _content_sha256(_seeded_report(*case)) == digest, case


def _sans_group_sha256(text):
    """sha256 of a report's values and keys with the group block and
    tool.version removed."""
    data = json.loads(text)
    del data["tool"]["version"], data["group"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# digests of the same reports without their group block, recorded from lusym
# 0.5.0: the 0.6.0 canonical group form changed the torus basis and generators
# written, and nothing else in any report but the version
REPORT_SANS_GROUP_SHA256 = {
    "bell": "fc3925ab167184a5f5e30602886c71251ce56654aed42119fbcad8edb69c6896",
    "cluster4a": "426cd65c99890c128642185ff1c0fa49565c8f1d0977c4e20e6d8ce301285226",
    "cluster4b": "966c94bff5264c1099357b56749f8c17f1c4c64b10165d019ba62ea2b4b97e2f",
    "ghz2": "fc3925ab167184a5f5e30602886c71251ce56654aed42119fbcad8edb69c6896",
    "ghz3": "2ab34f7418196101b1479571ffb862e6a381face254fcbc3d276153000019c87",
    "ghz4": "12f33ca01d9135b49a8eab4e4f552a1f89eac47a6f8f6a3e1a6754f3e81a4e97",
    "ghz5": "ff4d53bb57d6e5880dd2c0ca67e032af3fb566033b92d85e9071206f61b0a96c",
    "ghz6": "1a83579b1f7e5316bbcc681f4d35f940cd0b0c7c6b77c53ed03f4b47a65446f6",
    "w3": "a7ec9344990ba1425a9678df14d3b0dbbf004c85a6fde90a8af53ca5d1b965ea",
    "w4": "6440be6acaf15a4b076006a38dfcf36c2e22ea9342b836daaead119d65999134",
    "w5": "d14fac3c16633fa150782bf42ea118518b0e6dfeb57543e190bc25a43f53c208",
    "w6": "fd5b2e7589c95695e7fbd004ca9fa653c02df6c8230163a4c3db7eb18eafa81b",
    "xstate": "09987c7a38b4d012fa5cad78bf2114ee4b67b3ed3b189303fa95ea70e835a8dd",
}
SEEDED_REPORT_SANS_GROUP_SHA256 = {
    ("coset", 1, 10, 2): "2af364b1f76b82b45983ff13216b0d7cba628bec39d72959874a99cf24643ca5",
    ("coset", 2, 12, 3): "10dc14704f952f99d418fe158bb096b2ccf776be308e277078af6f8d186364e4",
    ("random", 5, 8, 12): "3d7687c29c99ef3c010f1090929b48d6d4c3b1d7ad4cebd7ce41c4bdc8d27ac3",
    ("random", 6, 9, 13): "f0a8390b48517e04259ee81e087b2f1cd8cad7d68c21e4d916cc4a22d06bd899",
}


def test_report_outside_the_group_block_is_pinned():
    assert sorted(REPORT_SANS_GROUP_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_SANS_GROUP_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_SANS_GROUP_SHA256.items():
        assert _sans_group_sha256(dump_report(analyze(fixture_state(name)))) == digest, name
    for case, digest in SEEDED_REPORT_SANS_GROUP_SHA256.items():
        assert _sans_group_sha256(_seeded_report(*case)) == digest, case
