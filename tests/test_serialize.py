import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

import lusym.analysis
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
    verify_symmetry,
)
from lusym.analysis import DEFAULT_TOL
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


# bool is a subclass of int, so JSON true and false must be refused explicitly:
# n by the qubit-count rule of the constructor, an amplitude by the reader
@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": true, "amplitudes": {"0": [1.0, 0.0]}}', "qubit count n must be int, got bool"),
        ('{"n": 1, "amplitudes": {"0": [true, false]}}', "'0'"),
        ('{"n": 2, "amplitudes": {"00": [0.6, 0], "11": [0, true]}}', "'11'"),
    ],
    ids=["n", "re-im", "im"],
)
def test_state_from_dict_rejects_bool(text, field):
    with pytest.raises(InputError, match=field):
        state_from_dict(json.loads(text))


# a field that is not a list is refused by the reader, by name; a bool by the
# constructor whose value it is, naming that value
@pytest.mark.parametrize(
    "patch, field",
    [
        ({"n": True, "torus_basis": [[1, -1]], "finite": []}, "qubit count n must be int, got bool"),
        ({"torus_basis": [[True, -1, 0]]}, "torus directions must be int, got bool"),
        ({"finite": [{"order": 2, "nums": [True, 0, 1]}]}, "phase numerators and den must be int, got bool"),
        ({"finite": [{"order": 2, "nums": [1, 0, False]}]}, "phase numerators and den must be int, got bool"),
        ({"finite": [{"order": True, "nums": [1, 0, 1]}]}, "phase numerators and den must be int, got bool"),
        ({"torus_basis": 5}, "'torus_basis'"),
        ({"finite": 5}, "'finite'"),
    ],
    ids=["n", "torus_basis", "num", "num-false", "order", "torus_basis-not-list", "finite-not-list"],
)
def test_group_from_dict_rejects_bool(patch, field):
    data = dict(group_to_dict(solve_symmetry_group(Support.from_labels(["00", "11"]))), **patch)
    with pytest.raises(InputError, match=field):
        group_from_dict(data)


def test_file_values_meet_the_constructors_rules():
    # the readers check a file's layout; n and an empty support are the constructors'
    with pytest.raises(InputError, match="qubit count n must be at least 1, got 0"):
        load_state('{"n": 0, "amplitudes": {"0": [1, 0]}}')
    with pytest.raises(InputError, match="support must contain at least one label"):
        load_state('{"n": 1, "amplitudes": {}}')
    # n is checked before it is compared with the state's qubit count
    with pytest.raises(InputError, match="qubit count n must be int, got str"):
        load_group('{"n": "2", "torus_basis": [], "finite": []}', 2)


_POOL = (0, -1, True, None, "2", 2.0, [], {}, [1], 10**30)


def _sites(node):
    """(container, key) of every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _sites(child)


def _mutations(base, rng, count):
    """count copies of base, each with one to three values replaced by a pool
    value or, in one case in ten for an object's field, removed."""
    for _ in range(count):
        data = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            sites = list(_sites(data))
            if not sites:
                break
            container, key = rng.choice(sites)
            if isinstance(container, dict) and rng.random() < 0.1:
                del container[key]
            else:
                container[key] = copy.deepcopy(rng.choice(_POOL))
        yield data


def test_mutated_files_raise_only_input_error():
    # a malformed file must exit 2, never 1: whichever of reader and constructor
    # refuses a value, it raises InputError
    rng = random.Random(0)
    group = {"n": 2, "torus_basis": [[1, -1, 0]], "finite": [{"order": 2, "nums": [1, 0, 1]}]}
    state = {"n": 2, "amplitudes": {"00": [0.6, 0], "11": [0, 0.8]}}
    refused = 0
    for data in _mutations(group, rng, 2000):
        for qubits in (None, 2):
            try:
                group_from_dict(data, qubits)
            except InputError:
                refused += 1
    for data in _mutations(state, rng, 2000):
        try:
            state_from_dict(data)
        except InputError:
            refused += 1
    assert refused > 5000  # most mutations break the file


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
    assert group.finite_generators == (PhaseVector((6, 3, 8), 12),)
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
        # the schema's order >= 2 is the reader's; nums off [0, 1) are PhaseVector's
        ({"order": 1, "nums": [0, 0, 0]}, "'order'"),
        ({"order": 1, "nums": half_turn}, r"\[0, 1\)"),
        ({"order": 2, "nums": half_turn[:2]}, r"n\+1 entries"),
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


# sha256 of dump_report(analyze(fixture_state(name))) as written by lusym 0.7.0;
# any change to the report bytes must come with a version bump and new hashes
REPORT_SHA256 = {
    "bell": "716b02d36fa4dada5eae1495f8a018e42276eb97839b43899d506317e6323c2d",
    "cluster4a": "1eb8a30a31e634af478a19399283877924aa5fd84fb140afcd0e466ff29f9b6d",
    "cluster4b": "1506eeb6f237d24858ff735b80ba9b0f940b15f38bc3b0cc4877544e6dcdd938",
    "ghz2": "716b02d36fa4dada5eae1495f8a018e42276eb97839b43899d506317e6323c2d",
    "ghz3": "daf8f45023b8417729a064e3517a40eb617e995b9398a65e53b4763fa1e4b264",
    "ghz4": "9b2959ea099eac057897c5103e8231cd61488c9d58baf444e23ca338976eb5e7",
    "ghz5": "0f58a65164db550dffc1c56107cd05ac3894783c67800b4d1901750e20e5c7b2",
    "ghz6": "1f290e4757cf91ae21e9358e10eb750477343baaa031e3af1bc1650e5dfa069c",
    "w3": "76d4852df39010015ef326b5e9f223686afd795894e65979c2a530510023dc90",
    "w4": "ec41cafbe909f662f58cc4c23080a09af95998ec4073d7353802de6883a44120",
    "w5": "7e18a67ca37ed69de6d9e0f0a1ba0e7f30c12f5fa40ff39039896a614301c91e",
    "w6": "fcef5034830cd16bc300b242161ff374f8c629213f1d45c1b1994e4c43bccab0",
    "xstate": "a111be625a87eeffdb33d9e890df06b3f893603958496ed4cb596f231372f280",
}


def test_report_bytes_are_pinned(monkeypatch):
    # the verification block comes from the solve, not from the amplitudes
    def refuse(*args, **kwargs):
        raise AssertionError("analyze called verify_symmetry")

    monkeypatch.setattr(lusym.analysis, "verify_symmetry", refuse)
    assert sorted(REPORT_SHA256) == sorted(fixture_names())
    for name, digest in REPORT_SHA256.items():
        text = dump_report(analyze(fixture_state(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# sha256 of dump_report for seeded states beyond the fixtures, written by lusym
# 0.7.0: cosets with a torus of rank 7 and 8, two 8-label cosets on 11 and 14
# qubits with a torus of rank 7 and 9, and random supports whose groups have
# eight and nine finite factors. Built with the conftest helpers, so a
# change to those helpers changes the inputs and fails this test too.
SEEDED_REPORT_SHA256 = {
    ("coset", 1, 10, 2): "0a3196551e51b5a79c845e953513b470c2c622ae4f833402afad1f60eaf56b7e",
    ("coset", 2, 12, 3): "281520d17a2fab34688a3cb5f79bd1ddc7c79dfdcf0c5f393fe74b33bfeb28ce",
    ("coset", 3, 11, 3): "a4f5a9f4a31257e49f5153b1ecfb1429691e162efec0d7c1757707d8b569aade",
    ("coset", 3, 14, 3): "1744650b646eba9c937041326b9b3d4e095346097234fbd12c46a364c8061989",
    ("random", 5, 8, 12): "7435e5fe728a3085cdf999d402f148dca51403393e8b9cda7f5737fe3850c989",
    ("random", 6, 9, 13): "34786a78e7ea063a16afaf8acf2198901ad2a78f1c22d5df1b2f6e10e8afdec0",
}


def _seeded_state(kind, seed, n, size):
    rng = random.Random(seed)
    if kind == "coset":
        support = random_coset_support(rng, n, size)
    else:
        support = random_support(rng, n, size, min_labels=size)
    return random_state_on(rng, support)


def _seeded_report(kind, seed, n, size):
    return dump_report(analyze(_seeded_state(kind, seed, n, size)))


@pytest.mark.parametrize("kind, seed, n, size", sorted(SEEDED_REPORT_SHA256))
def test_seeded_report_bytes_are_pinned(kind, seed, n, size):
    text = _seeded_report(kind, seed, n, size)
    digest = SEEDED_REPORT_SHA256[kind, seed, n, size]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-6])
def test_report_verification_is_what_verify_symmetry_decides(tol):
    # analyze reads the block off the solve's exact self-check; the oracle
    # evaluates every check against the amplitudes
    states = [fixture_state(name) for name in sorted(REPORT_SHA256)]
    states += [_seeded_state(*case) for case in sorted(SEEDED_REPORT_SHA256)]
    for psi in states:
        report = analyze(psi, tol)
        assert report.verification == verify_symmetry(psi, report.group, tol), psi


def _content_sha256(text):
    """sha256 of a report's values and keys, whatever its whitespace, with the
    two fields a format change may move (tool.version, input.hash) removed."""
    data = json.loads(text)
    del data["tool"]["version"], data["input"]["hash"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# content digests of the reports pinned above, recorded from lusym 0.7.0: a
# format change that moves only whitespace, the version and the state hash
# leaves every one of them unchanged
REPORT_CONTENT_SHA256 = {
    "bell": "309dcb4e17544acfa60033d00399eb2143778f34145e06942c517e8b8f288621",
    "cluster4a": "91475b45f86aed0fd8844610e6a74b1599d67b50a797affb68e1da4878090e6a",
    "cluster4b": "6a2b14f86c9f36dcabfb70ff48428908792614c89b9f26f35d355d0e704d091d",
    "ghz2": "309dcb4e17544acfa60033d00399eb2143778f34145e06942c517e8b8f288621",
    "ghz3": "c70f1b5c24bc5a6539f36d573eceae0a3d22f1c42bfd0525dec8c5fab8731560",
    "ghz4": "1fdcb932824c953e627280be5d72d6269f8542af2065938fbc0774d01d32503b",
    "ghz5": "5a4fbe098b500650343aa866bd3267373efc9efebd3cf3d1e554564cca8f340f",
    "ghz6": "e02002d7297c012a206b4801fd3e795815ac532b4b687b377b48195aa4147c87",
    "w3": "ba6a934e28df5c111bf977d5578d058cc91003325a9103e86ae747cff0a655a0",
    "w4": "3f5eeb710de2a39ca63c1694e0762d2b7ba8d8370294ea5cee2e9c9effc55791",
    "w5": "0e90888cbe78ee029b2a339931889e52ae99fbb7f6d4012f95eef1bb03118bd8",
    "w6": "f01598c93cd3e5288e333f3a95395700520a3f0a53a41139515088366d2b05da",
    "xstate": "405dd16e7e9dbe22b5c3e0b71f2cc260f3e70afc2c31ad4584b27f07434596ef",
}
SEEDED_REPORT_CONTENT_SHA256 = {
    ("coset", 1, 10, 2): "5dd5d0ee0d49f327908fe44a828e5ddcde2375ec1a7856fb9d9b4a44901afd19",
    ("coset", 2, 12, 3): "7f8d21b6851749967911e5cb6ad357b68e30908ba26a58493fc14a8bdcb70c54",
    ("coset", 3, 11, 3): "dd2cffe1c051a53cbc71efdca51deaf557c80918c264b0febf044166221070a1",
    ("coset", 3, 14, 3): "acaa919e2f02561bd2aaaba911efda02091c540be86f322341150f1a9d43e87b",
    ("random", 5, 8, 12): "8d38abb2f4c8eb315729077ab0f4aa8eb0058612944fa661325318c5b66ce01d",
    ("random", 6, 9, 13): "cf6e7e7acf1c19d183aec7d17b0e1cafc5d02d479a0d04ac2d0348c245a6d580",
}


def test_report_content_is_pinned():
    assert sorted(REPORT_CONTENT_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_CONTENT_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_CONTENT_SHA256.items():
        assert _content_sha256(dump_report(analyze(fixture_state(name)))) == digest, name
    for case, digest in SEEDED_REPORT_CONTENT_SHA256.items():
        assert _content_sha256(_seeded_report(*case)) == digest, case


def _sans_sha256(text, *blocks):
    """sha256 of a report's values and keys with tool.version and the named
    top-level blocks removed."""
    data = json.loads(text)
    del data["tool"]["version"]
    for block in blocks:
        del data[block]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# digests of the same reports without their verification block, recorded from
# lusym 0.6.0: the 0.7.0 exact verification changed that block, with one torus
# check per direction and no samples or seed, and nothing else in any report
# but the version
REPORT_SANS_VERIFICATION_SHA256 = {
    "bell": "8b2bcc9445d8a4f8cf2d62a5fb57fef50b41f514c6a8f32d90600960d2d240ed",
    "cluster4a": "83caef96113819819fbadf8ff386cd35642d0fa4a22857982f7f7b728ba42970",
    "cluster4b": "fc4bec88bf6d31f911def9ae591bea994ae33628748de78a1e68001871b5ceed",
    "ghz2": "8b2bcc9445d8a4f8cf2d62a5fb57fef50b41f514c6a8f32d90600960d2d240ed",
    "ghz3": "131acbf48b699277463c4073eb2c2770e84132a9ea27ff8f66c760a0949c45ff",
    "ghz4": "ef9056d2c418c83056c8ba6abbd3bdc84a0e2171a1d520f50fefa462254c78b6",
    "ghz5": "cd7f6042f737aa5bddcdeb3a3729f4ffdc761d453092b0f4308fd60131de372c",
    "ghz6": "20a71da00a312fdc3ac90d9775c8e0be9f450bf00d90af9e5678fbe292a9372f",
    "w3": "5455be7be58818503b95a6216d49cf0b70da767c5e980bcc06d60004a31027aa",
    "w4": "6deb58c65395fd268dc20f7933d7021ae34feadc5c36c69d88a023c4bbe34893",
    "w5": "f91ccfdf1cb6afbbe529ea97b70969e3658fdf2d75abb4922d78e375715188b7",
    "w6": "3ddc2b57e4fd2d37724d0bc3b08db9c5dcf18ff1a13eb74734d40f397a806f41",
    "xstate": "4bb1b94b81ba1c3aad30bb129511e12e6fe75df917aa5f1ed6e92519f43900e7",
}
SEEDED_REPORT_SANS_VERIFICATION_SHA256 = {
    ("coset", 1, 10, 2): "ff3b787a55f2bea017e28d984d4ff8cb9c5e58386f8af0a2c7303886a7f751a1",
    ("coset", 2, 12, 3): "a700562e192bf818d332ec60708c73900ccb74afe5406411c968e917cd1829e2",
    ("coset", 3, 11, 3): "613c820130749f0c052e66fe7c5399b8a62ca4470d5533dd7e024d665e18bfea",
    ("coset", 3, 14, 3): "ec34fb02ec27ffbeef914fc8364b2117b0548192cff33636de2baa1df70eda4d",
    ("random", 5, 8, 12): "b95c6842e5b9a1d65b99029380da392ed3a60235e08e676369ddcfeba5ae1a6d",
    ("random", 6, 9, 13): "08d8aacc588618eebf21eaa0524e1575d3ce90efd510a5d3887e24ed50ce27c8",
}


def test_report_outside_the_verification_block_is_pinned():
    assert sorted(REPORT_SANS_VERIFICATION_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_SANS_VERIFICATION_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_SANS_VERIFICATION_SHA256.items():
        assert _sans_sha256(dump_report(analyze(fixture_state(name))), "verification") == digest, name
    for case, digest in SEEDED_REPORT_SANS_VERIFICATION_SHA256.items():
        assert _sans_sha256(_seeded_report(*case), "verification") == digest, case


# digests of the same reports without their group and verification blocks,
# recorded from lusym 0.5.0: beside the version, the 0.6.0 canonical group form
# changed only the group block, and the 0.7.0 exact verification only the
# verification block
REPORT_SANS_GROUP_SHA256 = {
    "bell": "6a5489844d6cc5dd66c17542827de3ef01c696380a43b7c0dee85d9aa30b5657",
    "cluster4a": "d86acf7a663b660ee2176aca1a6ba3bc34fcba4230089f23fe0d096f7a12a2be",
    "cluster4b": "03048a57dca71a3bfb3c286806459ecfea683b474b26a407f0f081da97fe4ae3",
    "ghz2": "6a5489844d6cc5dd66c17542827de3ef01c696380a43b7c0dee85d9aa30b5657",
    "ghz3": "d25ee2ff3f847389af482ad8f3bcadbcdb32771f7043fa050d448bd687b7a235",
    "ghz4": "4fc95a660e26e6c27ae9f4e0ead1069a09a324be91e0e2e55834d65223eaff05",
    "ghz5": "ff439a6221a2a5356a8cfd1c9efd58a4701552658e84b2f43e93c275c2644ecd",
    "ghz6": "4387f2f67de3108dfbb68e99191ae2f66f433d42919f1333de295dd76c484c06",
    "w3": "8638e5212a88866792ffce3d09bea80fe8cb9b775f4b30ec500f872927ee031c",
    "w4": "05c9384d72d7bca2698797d918cbacbf9db65181f998e67a2b62de5997e52672",
    "w5": "9cc1a90d79d3c6e90c092612daba90b5cf8b526a86b161eaf64664be7e9b386b",
    "w6": "46313c7aaa783ce875455ab85ad300b055295bba95cb51d236672d6c002bacf4",
    "xstate": "33d96ad3677f0efdb1d3d5202465845eb0edcdf203181e786569efa1812af54e",
}
SEEDED_REPORT_SANS_GROUP_SHA256 = {
    ("coset", 1, 10, 2): "6595c6ab0ca5003b9c7974f2e628d3efca776152f01808ca22532701653b2f50",
    ("coset", 2, 12, 3): "5ee0d26d263df1d66b24d765253827e1a422f4cdef8ab5179a03a43858557ff9",
    ("coset", 3, 11, 3): "e61cf3d6aa4726b0105e132bb812e6005f2ab059756769428b94f0444870ce38",
    ("coset", 3, 14, 3): "9e9c3b4c0d5dae68b7fe24a7fc837e3ab188ed8e0f14f3400870cbdeced2f0f4",
    ("random", 5, 8, 12): "d8e9cfa84f50cff0557a6683a208cc5e6d72f91928acfa89d0fb83612e2df6b5",
    ("random", 6, 9, 13): "d07ef1874e471a9af13c53906a67bc6afa996d3114a1cce6eee1cc66b9c4b540",
}


def test_report_outside_the_group_block_is_pinned():
    assert sorted(REPORT_SANS_GROUP_SHA256) == sorted(REPORT_SHA256)
    assert sorted(SEEDED_REPORT_SANS_GROUP_SHA256) == sorted(SEEDED_REPORT_SHA256)
    for name, digest in REPORT_SANS_GROUP_SHA256.items():
        assert _sans_sha256(dump_report(analyze(fixture_state(name))), "group", "verification") == digest, name
    for case, digest in SEEDED_REPORT_SANS_GROUP_SHA256.items():
        assert _sans_sha256(_seeded_report(*case), "group", "verification") == digest, case
