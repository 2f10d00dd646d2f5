"""Value semantics of the library's types: records are NamedTuples, and the
value types that validate or derive at construction are slotted classes. Both
are immutable, compare and hash by value, and survive pickle and deepcopy.
"""

import ast
import copy
import math
import pathlib
import pickle

import pytest

from lusym import (
    DiagonalSymmetryGroup,
    InputError,
    IntMatrix,
    InvariantMonomial,
    PhaseVector,
    PureState,
    Support,
    analyze,
    enumerate_circuits,
    fixture_state,
    solve_symmetry_group,
    symmetrize_over_flips,
)
from lusym.analysis import GeneratorCheck
from lusym.invariants import monomial_from_circuit

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "lusym"


def _one_of_each():
    """One object of every record and value type, from real analyses: the
    ghz4 report (group, catalog, normalizer, verification) and a circuit
    monomial of a non-Bell support, flip-summed and flip-refused."""
    report = analyze(fixture_state("ghz4"))
    circuit = enumerate_circuits(Support.from_labels(["000", "011", "101", "110"])).circuits[0]
    mono = monomial_from_circuit(circuit)
    refused = symmetrize_over_flips(InvariantMonomial((("001", 1, 0),)), ["000", "100"])
    return {
        "AnalysisReport": report,
        "PureState": report.state,
        "DiagonalSymmetryGroup": report.group,
        "PhaseVector": report.group.finite_generators[0],
        "CircuitCatalog": report.catalog,
        "Support": report.catalog.support,
        "BalancedCircuit": circuit,
        "SlGeneratorReport": report.sl_report,
        "NormalizerDescription": report.normalizer,
        "FlipGroup": report.normalizer.flips,
        "QubitActionProfile": report.normalizer.profile,
        "SymmetryVerification": report.verification,
        "GeneratorCheck": report.verification.checks[0],
        "InvariantMonomial": mono,
        "InvariantSum": symmetrize_over_flips(mono, ["000", "111"]),
        "FlipRejection": refused,
    }


VALUES = _one_of_each()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_immutable_and_round_trip(name):
    obj = VALUES[name]
    assert type(obj).__name__ == name
    field = obj._fields[0] if hasattr(obj, "_fields") else type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj
        assert repr(clone) == repr(obj)
    if name not in ("AnalysisReport", "PureState"):  # these hold the amplitude dict
        assert hash(pickle.loads(pickle.dumps(obj))) == hash(obj)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_refuse_deletion(name):
    obj = VALUES[name]
    field = obj._fields[0] if hasattr(obj, "_fields") else type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_state_amplitudes_are_read_only():
    # a write would skip the constructor's checks: GHZ_3 rewritten to |000>
    # kept its norm and was analyzed with GHZ_3's torus rank, 2 instead of 3
    psi = fixture_state("ghz3")
    amps = psi.amplitudes
    writes = [
        lambda: amps.__setitem__("111", 0j),
        lambda: amps.__delitem__("111"),
        amps.clear,
        lambda: amps.pop("111"),
        amps.popitem,
        lambda: amps.setdefault("010", 1j),
        lambda: amps.update({"111": 0j}),
        lambda: amps.__ior__({"111": 0j}),
    ]
    for write in writes:
        with pytest.raises(TypeError):
            write()
    assert psi == fixture_state("ghz3")


def test_equal_groups_from_different_rows_are_equal_and_hash_alike():
    ghz = solve_symmetry_group(Support.from_labels(["0000", "1111"]))
    # the same character lattice, spanned by other rows
    other = type(ghz)(4, [(1, 1, 1, 1, 1), (-1, -1, -1, -1, 1), (2, 2, 2, 2, 2)])
    assert other.characters == ghz.characters
    assert other == ghz and hash(other) == hash(ghz)
    assert other.torus_basis == ghz.torus_basis
    assert len({ghz, other}) == 1
    assert ghz != solve_symmetry_group(Support.from_labels(["0000", "0011", "1111"]))
    assert ghz != (ghz.n, ghz.characters)


def test_support_iterates_measures_and_contains_its_labels():
    sup = Support.from_labels(["11", "00", "01"])
    assert list(sup) == ["00", "01", "11"]
    assert len(sup) == 3
    assert "01" in sup and "10" not in sup
    assert sup == Support(2, ("00", "01", "11")) and hash(sup) == hash(Support(n=2, labels=("00", "01", "11")))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PhaseVector((1, 0, 1), 0),
        lambda: PhaseVector((2, 0, 2), 4),
        lambda: PhaseVector((1, 0, 3), 2),
        lambda: PhaseVector((-1, 0, 1), 2),
        lambda: InvariantMonomial(()),
        lambda: InvariantMonomial((("00", 0, 0),)),
        lambda: InvariantMonomial((("00", -1, 1),)),
        lambda: InvariantMonomial((("00", 1, 0), ("00", 0, 1))),
        lambda: InvariantMonomial((("11", 1, 0), ("00", 0, 1))),
        lambda: InvariantMonomial((("00", 1, 0), ("111", 0, 1))),
        lambda: PhaseVector((True, 0, 1), 2),
        lambda: PhaseVector((0.5, 0, 1), 2),
        lambda: PhaseVector((1, 0, 1), 2.0),
        lambda: PhaseVector.from_numerators((True, 0, 1), 2),
        lambda: PhaseVector.from_numerators((1.0, 0, 1), 2),
        lambda: PhaseVector.from_numerators((1, 0, 1), 2.0),
        lambda: PureState(2, {"00": 1, "11": 0}),
        lambda: PureState(2, {"00": math.nan, "11": 1}),
        lambda: PureState(2, {"00": complex(0, math.inf)}),
        lambda: PureState(2, {"00": 1, "1": 1}),
        lambda: PureState(2, {"00": 1, "2x": 1}),
        lambda: PureState(2, {}),
        lambda: Support(2, []),
        lambda: Support(2, ["00", "11", "00"]),
        lambda: Support(2, ["00", "1"]),
        lambda: Support(2, ["00", "2x"]),
        lambda: PureState(2.0, {"00": 0.6, "11": 0.8}),
        lambda: Support(True, ["0", "1"]),
        lambda: InvariantMonomial([("00", True, 0)]),
        lambda: InvariantMonomial([("00", 1.5, 0)]),
        lambda: DiagonalSymmetryGroup.from_presentation(2, [[True, -1, 0]], []),
        lambda: IntMatrix([[True, 1]]),
        lambda: InvariantMonomial([(None, 1, 0)]),
        lambda: DiagonalSymmetryGroup(2.0, [[1, 1, 1]]),
        lambda: DiagonalSymmetryGroup(0, [[1]]),
        lambda: DiagonalSymmetryGroup.from_presentation(True, [], []),
        # a bare str is not a collection of labels: it used to be read as
        # the labels "0" and "1", or to raise TypeError in a state
        lambda: Support(1, "01"),
        lambda: Support.from_labels("01"),
        lambda: PureState(1, "01"),
        lambda: PureState.from_amplitudes("01"),
        # a malformed container is refused where the value is built, not left
        # to raise TypeError, ValueError or AttributeError further in
        lambda: PureState(1, ["0"]),
        lambda: InvariantMonomial([("0", 1)]),
        lambda: InvariantMonomial([5]),
        lambda: DiagonalSymmetryGroup(2, [[1, 2, 3], 5]),
        lambda: DiagonalSymmetryGroup.from_presentation(2, [], [5]),
        lambda: DiagonalSymmetryGroup.from_presentation(2, [5], []),
    ],
)
def test_value_constructors_refuse_bad_input(build):
    with pytest.raises(InputError):
        build()


# only an int, float or complex is an amplitude: a str or bool is not read as a
# number, and an int past the float range is refused like inf
@pytest.mark.parametrize(
    "amplitude, message",
    [
        ("1+1j", "must be an int, float or complex, got str"),
        (True, "must be an int, float or complex, got bool"),
        (None, "must be an int, float or complex, got NoneType"),
        (10**400, "past the float range, not a finite number"),
        (-(10**400), "past the float range, not a finite number"),
    ],
    ids=["str", "bool", "none", "huge-int", "huge-negative-int"],
)
def test_state_amplitudes_are_finite_numbers(amplitude, message):
    with pytest.raises(InputError, match=message):
        PureState(1, {"0": amplitude})
    for ok in (1, 1.0, 1j):
        assert PureState(1, {"0": ok}).amplitudes == {"0": complex(ok)}


@pytest.mark.parametrize(
    "built, expected",
    [
        (PhaseVector([1, 0, 1], 2), PhaseVector((1, 0, 1), 2)),
        (Support(2, ["11", "00"]), Support.from_labels(["00", "11"])),
        (InvariantMonomial([("00", 1, 1)]), InvariantMonomial((("00", 1, 1),))),
        (InvariantMonomial([["00", 1, 0], ["11", 0, 1]]), InvariantMonomial((("00", 1, 0), ("11", 0, 1)))),
        (PureState(2, {"11": 0.6, "00": 0.8}), PureState.from_amplitudes({"00": 0.8, "11": 0.6})),
    ],
    ids=["PhaseVector", "Support", "InvariantMonomial", "InvariantMonomial-list-terms", "PureState-reversed"],
)
def test_list_arguments_build_the_tuple_built_value(built, expected):
    # the constructors store tuples, a Support sorts its labels by value and a
    # PureState its amplitudes; a PureState holds a dict, so it has no hash
    for value in (built, pickle.loads(pickle.dumps(built))):
        assert value == expected and repr(value) == repr(expected)
        if not isinstance(value, PureState):
            assert hash(value) == hash(expected)


# recorded before the records and value types stopped being dataclasses, and
# PureState's before it stopped being a NamedTuple
PINNED_REPRS = {
    "GeneratorCheck": "GeneratorCheck(kind='finite', index=0, deviation=0.0)",
    "BalancedCircuit": "BalancedCircuit(member_labels=('0000', '1111'), relation=(1, 1))",
    "PhaseVector": "PhaseVector(nums=(1, 0, 1), den=2)",
    "PureState": "PureState(n=2, amplitudes={'00': (0.7071067811865475+0j), '11': (0.7071067811865475+0j)})",
    "DiagonalSymmetryGroup": (
        "DiagonalSymmetryGroup(n=4, characters=((1, 1, 1, 1, 1), (0, 0, 0, 0, 2)), "
        "torus_basis=((1, 0, -1, 0, 0), (1, 0, 0, -1, 0), (1, -1, 0, 0, 0)), "
        "finite_generators=(PhaseVector(nums=(1, 0, 0, 0, 1), den=2),))"
    ),
}


def test_reprs_are_unchanged():
    ghz4 = fixture_state("ghz4").support()
    got = {
        "GeneratorCheck": GeneratorCheck("finite", 0, 0.0),
        "BalancedCircuit": enumerate_circuits(ghz4).circuits[0],
        "PhaseVector": PhaseVector((1, 0, 1), 2),
        "PureState": fixture_state("bell"),
        "DiagonalSymmetryGroup": solve_symmetry_group(ghz4),
    }
    assert {name: repr(obj) for name, obj in got.items()} == PINNED_REPRS


def test_no_module_imports_dataclasses():
    # a frozen dataclass compiles its methods when its class is created, and
    # dataclasses itself loads inspect: together over half of lusym's own
    # start-up in a cold CLI process
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name} imports dataclasses"
