import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import lusym.circuits
import lusym.cli
from lusym.cli import main
from lusym.serialize import dump_group, dump_state
from lusym import DiagonalSymmetryGroup, InternalError, PureState, Support, fixture_names, fixture_state, solve_symmetry_group

from conftest import random_coset_support


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_schema(capsys, schema_validator):
    code, out, err = run_cli(capsys, "analyze", "--fixture", "bell", "--json")
    assert code == 0
    schema_validator("report.schema.json", json.loads(out))


def test_analyze_text_mode(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--fixture", "ghz3")
    assert code == 0
    assert "torus rank 2" in out
    assert "semistable: True" in out


def test_circuits_json_schema(capsys, schema_validator):
    code, out, _ = run_cli(
        capsys, "circuits", "--support", "1111,1000,0100,0010,0001", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    schema_validator("circuits.schema.json", payload)
    assert payload["circuits"][0]["relation"] == [1, 1, 1, 1, 2]


def test_invariants_json_schema(capsys, schema_validator):
    code, out, _ = run_cli(capsys, "invariants", "--fixture", "ghz4", "--json")
    assert code == 0
    payload = json.loads(out)
    schema_validator("invariants.schema.json", payload)
    assert payload["flip_masks"] == ["0000", "1111"]
    assert payload["circuit_monomials"][0]["flip_sum"]["admitted"] is True


def test_invariants_reports_rejection(capsys, schema_validator):
    code, out, _ = run_cli(capsys, "invariants", "--fixture", "ghz3", "--json")
    assert code == 0
    payload = json.loads(out)
    schema_validator("invariants.schema.json", payload)
    block = payload["circuit_monomials"][0]["flip_sum"]
    assert block["admitted"] is False
    assert block["rejection"]["mask"] == "111"


def test_normalizer_json_schema(capsys, schema_validator):
    code, out, _ = run_cli(capsys, "normalizer", "--support", "0000,1111", "--json")
    assert code == 0
    payload = json.loads(out)
    schema_validator("normalizer.schema.json", payload)
    assert payload["flips"]["masks"] == ["0000", "1111"]
    # the torus part is always the full diagonal group, so it is not written
    assert "torus" not in payload
    assert "torus_group" not in payload


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["circuits", "--support", "000,111,011,100"],
            "support: 000, 011, 100, 111 (n=3)\n"
            "  ['000', '111'] relation [1, 1] (positive, d=2)\n"
            "  ['011', '100'] relation [1, 1] (positive, d=2)\n"
            "semistable: True\n",
        ),
        (["circuits", "--support", "00,01"], "support: 00, 01 (n=2)\nno circuits\nsemistable: False\n"),
        (
            ["invariants", "--fixture", "ghz3"],
            "support: 000, 111 (n=3)\n"
            "|c|^2 generators: 2 (bidegree (1,1) each)\n"
            "  bidegree (2, 0) terms [['000', 1, 0], ['111', 1, 0]] value 0.5+0j\n"
            "    flip sum rejected: mask 111 flips an odd number of qubits and the bidegree "
            "difference 2 is not divisible by 4\n",
        ),
        (
            ["invariants", "--support", "0000,1111"],
            "support: 0000, 1111 (n=4)\n"
            "|c|^2 generators: 2 (bidegree (1,1) each)\n"
            "  bidegree (2, 0) terms [['0000', 1, 0], ['1111', 1, 0]]\n"
            "    flip sum over 2 masks: admitted\n",
        ),
        (
            ["normalizer", "--support", "00,01"],
            "support: 00, 01 (n=2)\n"
            "torus: full diagonal group (all phis and theta free)\n"
            "flip masks: 00, 01\n"
            "flip generators: 01\n"
            "warning: group acts only by signs on qubit(s) 2; the true normalizer may be larger\n",
        ),
        (["compare", "--support-a", "00,11", "--support-b", "00"], "a_closure_contains_b\n"),
    ],
    ids=["circuits", "circuits-none", "invariants-rejected", "invariants-admitted", "normalizer-signs", "compare"],
)
def test_text_mode_output(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken_solve(support):
        raise InternalError("solved group fails the phase condition")

    monkeypatch.setattr(lusym.cli, "solve_symmetry_group", broken_solve)
    code, out, err = run_cli(capsys, "normalizer", "--support", "00,11")
    assert (code, out) == (3, "")
    assert err == "internal error: solved group fails the phase condition\n"


def test_a_failed_self_check_in_analyze_exits_3(capsys, monkeypatch):
    # a solve that returns the full torus breaks the bidegree check on Bell's circuit
    monkeypatch.setattr(lusym.analysis, "solve_symmetry_group", lambda support: DiagonalSymmetryGroup(support.n, ()))
    code, out, err = run_cli(capsys, "analyze", "--fixture", "bell", "--json")
    assert (code, out) == (3, "")
    assert err == "internal error: continuous global phase must force balanced bidegrees\n"


def test_verify_from_support(capsys, tmp_path, schema_validator):
    # the group solved from the state's own support, handed over as a file
    group_file = tmp_path / "group.json"
    group_file.write_text(dump_group(solve_symmetry_group(fixture_state("w5").support())))
    code, out, _ = run_cli(
        capsys, "verify", "--fixture", "w5", "--group", str(group_file), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    schema_validator("verify.schema.json", payload)
    assert payload["passed"] is True


def test_verify_group_file_failure(capsys, tmp_path):
    group = solve_symmetry_group(Support.from_labels(["00", "11"]))
    group_file = tmp_path / "group.json"
    group_file.write_text(dump_group(group))
    eps = 1e-3
    norm = math.sqrt(1 + eps**2)
    psi = PureState.from_amplitudes(
        {
            "00": 1 / math.sqrt(2) / norm,
            "11": 1 / math.sqrt(2) / norm,
            "01": eps / norm,
        }
    )
    state_file = tmp_path / "state.json"
    state_file.write_text(dump_state(psi))
    code, out, err = run_cli(
        capsys,
        "verify",
        "--input", str(state_file),
        "--group", str(group_file),
        "--tolerance", "1e-6",
    )
    assert code == 2
    assert "exceeds tolerance" in err


def test_verify_refuses_dependent_torus_basis(capsys, tmp_path):
    group_file = tmp_path / "group.json"
    group_file.write_text('{"n": 2, "torus_basis": [[1, -1, 0], [2, -2, 0], [0, 0, 0]], "finite": []}')
    code, _, err = run_cli(capsys, "verify", "--fixture", "bell", "--group", str(group_file))
    assert code == 2
    assert "'torus_basis'" in err


def test_verify_refuses_wrong_finite_order(capsys, tmp_path):
    group = json.loads(dump_group(solve_symmetry_group(Support.from_labels(["00", "11"]))))
    # the half turn written over 4: the nums share the factor 2 with the order
    group["finite"][0] = {"order": 4, "nums": [2 * x for x in group["finite"][0]["nums"]]}
    group_file = tmp_path / "group.json"
    group_file.write_text(json.dumps(group))
    code, _, err = run_cli(capsys, "verify", "--fixture", "bell", "--group", str(group_file))
    assert code == 2
    assert "lowest terms" in err


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"torus_basis": 5}, "'torus_basis' must be a list"),
        ({"finite": 5}, "'finite' must be a list"),
        # a group file written by lusym 0.3.0
        ({"finite": [{"order": 2, "generator": {"phis": [{"num": 1, "den": 2}, {"num": 0, "den": 1}],
                                                "theta": {"num": 1, "den": 2}}}], "torus_basis": [[1, -1, 0]]},
         "'order' and 'nums'"),
        # the half turn written as 3/2: numerators lie in [0, order)
        ({"finite": [{"order": 2, "nums": [3, 0, 1]}]}, "must lie in [0, 2)"),
        ({"torus_basis": [5]}, "'torus_basis' vectors must be lists, got 5"),
        ({"finite": [{"order": 2, "nums": 5}]}, "finite 'nums' must be a list, got 5"),
        # n is checked before it is compared with the state's 2 qubits
        ({"n": "2"}, "qubit count n must be int, got str"),
        ({"finite": [{"order": 1, "nums": [0, 0, 0]}]}, "finite 'order' must be an integer >= 2, got 1"),
        ({"finite": [{"order": 2, "nums": [1, 0]}]}, "must have n+1 entries"),
    ],
    ids=[
        "torus_basis-not-list", "finite-not-list", "0.3.0-generator", "nums-off-range",
        "torus-vector-number", "nums-number", "n-string", "order-1", "nums-length-n",
    ],
)
def test_verify_refuses_malformed_group_file(capsys, tmp_path, patch, message):
    group_file = tmp_path / "group.json"
    group_file.write_text(json.dumps({"n": 2, "torus_basis": [], "finite": [], **patch}))
    code, _, err = run_cli(capsys, "verify", "--fixture", "bell", "--group", str(group_file))
    assert code == 2
    assert message in err


def test_verify_refuses_a_group_on_another_qubit_count_before_building_it(capsys, tmp_path, monkeypatch):
    # the trivial group on 2000 qubits is a 2001 x 2001 lattice; it must not be built
    def refuse(*args, **kwargs):
        raise AssertionError("the group was built")

    monkeypatch.setattr(DiagonalSymmetryGroup, "from_presentation", refuse)
    group_file = tmp_path / "group.json"
    group_file.write_text('{"n":2000,"torus_basis":[],"finite":[]}')
    code, _, err = run_cli(capsys, "verify", "--fixture", "bell", "--group", str(group_file))
    assert code == 2
    assert "group on 2000 qubits, state on 2" in err


_HUGE = "1" * 4301


@pytest.mark.parametrize(
    "command, text",
    [
        ("analyze", '{"n":2,"amplitudes":{"00":[' + _HUGE + ',0],"11":[1,0]}}'),
        ("verify", '{"n":2,"torus_basis":[],"finite":[{"order":' + _HUGE + ',"nums":[0,1,1]}]}'),
        ("analyze", "[" * 100_000),
        ("analyze", '{"n":2,"amplitudes":{"00":[1,0],"00":[0.7071067811865476,0],"11":[0.7071067811865476,0]}}'),
        ("verify", '{"n":2,"torus_basis":[[1,-1,0]],"torus_basis":[],"finite":[{"order":2,"nums":[0,1,1]}]}'),
    ],
    ids=["huge-amplitude", "huge-order", "deep-nesting", "repeated-label", "repeated-group-key"],
)
def test_malformed_json_files_exit_2(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["--input", str(path)] if command == "analyze" else ["--fixture", "bell", "--group", str(path)]
    result = subprocess.run(
        [sys.executable, "-m", "lusym.cli", command, *argv], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_verify_needs_a_group_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixture", "bell"])
    assert exc.value.code == 2
    assert "required: --group" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["analyze", "--input", "s.json", "--fixture", "ghz3"], ("--input", "--fixture")),
        (["circuits", "--support", "000,111", "--fixture", "bell"], ("--support", "--fixture")),
        (["normalizer", "--input", "s.json", "--support", "00,11"], ("--input", "--support")),
        (["verify", "--input", "s.json", "--fixture", "bell", "--group", "g.json"], ("--input", "--fixture")),
    ],
    ids=["analyze-input-fixture", "circuits-support-fixture", "normalizer-input-support", "verify-input-fixture"],
)
def test_conflicting_sources_are_refused(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with" in err
    assert all(name in err for name in names)


def test_compare_json(capsys, schema_validator):
    code, out, _ = run_cli(
        capsys, "compare", "--support-a", "0000,1111", "--support-b",
        ",".join(format(x, "04b") for x in range(16)), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    schema_validator("compare.schema.json", payload)
    assert payload["verdict"] == "b_closure_contains_a"


@pytest.mark.parametrize("labels", [" , ", "00,1", "00,00", "00,2x"], ids=["empty", "ragged", "repeated", "non-binary"])
@pytest.mark.parametrize(
    "template",
    [
        ["circuits", "--support", "LABELS"],
        ["compare", "--support-a", "LABELS", "--support-b", "00"],
        ["compare", "--support-a", "00", "--support-b", "LABELS"],
    ],
    ids=["circuits", "compare-a", "compare-b"],
)
def test_bad_label_lists_exit_2(capsys, template, labels):
    code, out, err = run_cli(capsys, *[labels if a == "LABELS" else a for a in template])
    assert code == 2 and not out and err


def test_label_lists_drop_blanks(capsys):
    code, out, _ = run_cli(capsys, "compare", "--support-a", " 00 , 11,", "--support-b", "11,,00", "--json")
    assert code == 0
    assert json.loads(out)["support_a"] == json.loads(out)["support_b"] == ["00", "11"]


def test_analyze_accepts_state_file(capsys, tmp_path):
    psi = fixture_state("cluster4b")
    state_file = tmp_path / "state.json"
    state_file.write_text(dump_state(psi))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(state_file), "--json")
    assert code == 0
    assert json.loads(out)["input"]["n"] == 4


def test_malformed_state_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "analyze", "--input", str(bad), "--json")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_input_directory_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path), "--json")
    assert code == 2
    assert err.startswith("error: cannot read") and str(tmp_path) in err
    code, _, err = run_cli(capsys, "verify", "--fixture", "bell", "--group", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot read") and str(tmp_path) in err


def test_input_file_not_utf8_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": 1, "amplitudes": {"0": [1.0, 0.0]}, "note": "\xe9"}')
    code, _, err = run_cli(capsys, "analyze", "--input", str(bad), "--json")
    assert code == 2
    assert err.startswith(f"error: {bad} is not UTF-8 text")


def test_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "analyze", "--fixture", "nope")
    assert code == 2
    assert "bell" in err  # the message lists what is available


def test_verify_rejects_nan_state_under_any_hash_seed(tmp_path):
    # set iteration order once decided whether a NaN amplitude was noticed:
    # this file passed verification under hash seed 2 and failed under 1
    state_file = tmp_path / "nan.json"
    state_file.write_text('{"n": 2, "amplitudes": {"00": [NaN, 0.0], "11": [0.7071067811865476, 0.0]}}')
    group_file = tmp_path / "group.json"
    group_file.write_text(dump_group(solve_symmetry_group(Support.from_labels(["00", "11"]))))
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "lusym.cli", "verify", "--input", str(state_file), "--group", str(group_file)],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert result.returncode == 2, (seed, result.stdout)
        assert "finite" in result.stderr


@pytest.mark.parametrize(
    "flag, value, command",
    [
        ("--tolerance", "-1", "analyze"),
        ("--tolerance", "nan", "analyze"),
        ("--tolerance", "1", "analyze"),
        ("--tolerance", "-1", "verify"),
        ("--tolerance", "nan", "verify"),
        ("--tolerance", "1", "verify"),
    ],
)
def test_check_options_refuse_vacuous_values(capsys, flag, value, command):
    argv = [command, "--fixture", "bell", flag, value]
    if command == "verify":
        argv += ["--group", "g.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--samples", "3"), ("--seed", "1")])
def test_analyze_refuses_removed_options(capsys, flag, value):
    # analyze verifies the group it has just solved, where every deviation is
    # 0.0; these options only sized that check, so analyze no longer takes them
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fixture", "bell", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--samples", "3"), ("--seed", "1"), pytest.param("--from-support", None, id="--from-support")]
)
def test_verify_refuses_removed_options(capsys, flag, value):
    # verify decides exactly, one check per generator and torus direction;
    # --samples and --seed only sized and seeded a random torus sample, and
    # --from-support checked the group whose exact self-check the solve had
    # just passed, so its every deviation was 0.0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixture", "bell", "--group", "g.json", flag] + ([value] if value else []))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_check_options_by_command(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    analyze_help = capsys.readouterr().out
    assert "--tolerance" in analyze_help
    assert "--samples" not in analyze_help and "--seed" not in analyze_help
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    verify_help = capsys.readouterr().out
    assert "--tolerance" in verify_help
    assert "--samples" not in verify_help and "--seed" not in verify_help


def test_unnormalized_state_rejected(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text('{"amplitudes": {"00": [1.0, 0.0], "11": [1.0, 0.0]}, "n": 2}\n')
    code, _, err = run_cli(capsys, "analyze", "--input", str(state_file))
    assert code == 2
    assert "norm" in err


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--group", "g.json"]])
def test_labels_off_the_qubit_count_exit_2(capsys, monkeypatch, argv):
    # the library refuses this state where it is built, inside the command
    monkeypatch.setattr(lusym.cli, "_state_from_args", lambda args: PureState(2, {"0": 1}))
    code, _, err = run_cli(capsys, *argv, "--fixture", "bell")
    assert code == 2
    assert "expected 2" in err


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PureState(2, {}), "support must contain at least one label"),
        (lambda: PureState(0, {"0": 1.0}), "qubit count n must be at least 1, got 0"),
    ],
    ids=["empty", "n0"],
)
@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--group", "g.json"]])
def test_states_refused_where_they_are_built_exit_2(capsys, monkeypatch, argv, build, message):
    monkeypatch.setattr(lusym.cli, "_state_from_args", lambda args: build())
    code, out, err = run_cli(capsys, *argv, "--fixture", "bell")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text", ['{"n": 0, "amplitudes": {"0": [1.0, 0.0]}}', '{"n": 2, "amplitudes": {}}'], ids=["n0", "empty"]
)
def test_state_files_off_the_state_rules_exit_2(capsys, tmp_path, text):
    state_file = tmp_path / "state.json"
    state_file.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--input", str(state_file))
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_a_support_on_no_qubits_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(lusym.cli, "_parse_support", lambda text: Support(0, text.split(",")))
    code, out, err = run_cli(capsys, "compare", "--support-a", "0", "--support-b", "1")
    assert (code, out, err) == (2, "", "error: qubit count n must be at least 1, got 0\n")


def test_huge_amplitudes_fail_the_norm_check(capsys, tmp_path):
    # squaring these amplitudes overflows a float; both commands must still
    # report the norm as an input error instead of crashing
    state_file = tmp_path / "huge.json"
    state_file.write_text('{"amplitudes": {"000": [1.5e308, 0.0], "111": [-1.5e308, 0.0]}, "n": 3}\n')
    group_file = tmp_path / "group.json"
    group_file.write_text(dump_group(solve_symmetry_group(Support.from_labels(["000", "011"]))))
    for argv in (["analyze"], ["verify", "--group", str(group_file)]):
        code, _, err = run_cli(capsys, *argv, "--input", str(state_file))
        assert code == 2, argv
        assert "norm is inf" in err, argv


# sha256 of `lusym invariants --fixture NAME --json` as written by lusym 0.6.0;
# the defect values in it must not move by a bit
INVARIANTS_JSON_SHA256 = {
    "bell": "2c07901b3dc0099e25beec4105bededb9d1ecec3aab97583c756a2e7c24317d8",
    "cluster4a": "dab06f6382d29a4da5306a04280c23e88fec4d35d2720f06483fc3e87739f02e",
    "cluster4b": "3b301174c5e2abfd24060cdc00181452f6d5cfe1b3e29b4b78618bb4ad3cb8f2",
    "ghz2": "2c07901b3dc0099e25beec4105bededb9d1ecec3aab97583c756a2e7c24317d8",
    "ghz3": "9cf45eb19488384481ad5ccbbccc4a6331834e68df67b07cb692b152e7550dd2",
    "ghz4": "34cf198dc55c4f4d20e5f5a505f73599a203ef682f42e3e6a3421e79a6441915",
    "ghz5": "2fb783388c05232f5038b79ed88eb8e9289a2cd7c283f3904129cca505fc6869",
    "ghz6": "55a0e858b4e65459e8838d76a38e3ffe1317bf768afb1962a040aff991c93967",
    "w3": "0cf1d56836bd594fa0417861b4bbd470c8940747314b163f120fde1736986725",
    "w4": "3cf4a5fad0e2c7e30ecc30a2a1c6e7fbaa64ffbba6a258ab013a544d01c27d57",
    "w5": "b0974af91bce5b0b8e8508d795342f2504460cc9cb5e6f36a620b2ddfa5b9474",
    "w6": "0c404a54e194d7665fa662b75f0436145ea2f063df8aae45bfd612a6311e11b5",
    "xstate": "d72ff734d8b1d59fe19b91f579c8b6be9aa51e3f8672a9ec9337b80af35d4d3e",
}


def test_invariants_json_bytes_are_pinned(capsys):
    assert sorted(INVARIANTS_JSON_SHA256) == sorted(fixture_names())
    for name, digest in INVARIANTS_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, "invariants", "--fixture", name, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# sha256 of `lusym invariants --support ... --json` on 40 seeded flip cosets,
# written one after another, as lusym 0.7.0 wrote them: n = 5-10 and flip
# dimension 1-4, so flip sums run over up to 16 masks, where the fixtures
# reach only 4
FLIP_COSET_INVARIANTS_SHA256 = "baccd9d4304610930b3149aa9df6485ada4480fc6e8529e77182950ebef0affd"


def test_invariants_json_bytes_on_flip_cosets_are_pinned(capsys):
    rng = random.Random("flip-coset-invariants")
    digest = hashlib.sha256()
    for k in range(40):
        support = random_coset_support(rng, 5 + k % 6, 1 + (k // 6) % 4)
        code, out, _ = run_cli(capsys, "invariants", "--support", ",".join(support.labels), "--json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == FLIP_COSET_INVARIANTS_SHA256


def test_json_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--fixture", "xstate", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "--fixture", "xstate", "--json")
    assert out1 == out2


def test_entry_point_subprocess(capsys):
    result = subprocess.run(
        [sys.executable, "-m", "lusym.cli", "analyze", "--fixture", "bell", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    _, inproc, _ = run_cli(capsys, "analyze", "--fixture", "bell", "--json")
    assert result.stdout == inproc


def test_cli_import_leaves_numpy_out():
    # numpy is installed for the tests, so only this catches a top-level import
    result = subprocess.run(
        [sys.executable, "-c", "import lusym.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


LOADED_MODULES = (
    "import sys; from lusym.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(sys.modules), file=sys.stderr); sys.exit(code)"
)

# dataclasses (with the inspect it loads) and fractions cost a cold process
# more than the work of a small analysis; only text analyze, which prints
# Fraction turns, loads fractions
UNNEEDED_AT_START_UP = {"dataclasses", "inspect", "fractions"}


def _loaded_modules(argv: list[str]) -> set[str]:
    # a fresh process, so modules that other tests imported do not count
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--support-a", "00,11", "--support-b", "00"],
        ["verify", "--input", "STATE", "--group", "GROUP", "--json"],
        ["verify", "--fixture", "ghz4", "--group", "GROUP"],
    ],
    ids=["compare", "verify-input-json", "verify-group-file"],
)
def test_compare_and_verify_load_no_circuit_code(tmp_path, argv):
    psi = fixture_state("ghz4")
    files = {"STATE": tmp_path / "s.json", "GROUP": tmp_path / "g.json"}
    files["STATE"].write_text(dump_state(psi))
    files["GROUP"].write_text(dump_group(solve_symmetry_group(psi.support())))
    loaded = _loaded_modules([str(files[a]) if a in files else a for a in argv])
    assert "lusym.analysis" in loaded
    assert not loaded & {"lusym.circuits", "lusym.invariants", "lusym.normalizer"}
    assert not loaded & UNNEEDED_AT_START_UP


def test_json_analyze_loads_no_invariants_dataclasses_or_fractions():
    # analyze needs only the single-circuit check from the invariant layer,
    # and that lives with the circuits
    loaded = _loaded_modules(["analyze", "--fixture", "bell", "--json"])
    assert {"lusym.analysis", "lusym.circuits", "lusym.normalizer"} <= loaded
    assert not loaded & UNNEEDED_AT_START_UP
    assert "lusym.invariants" not in loaded


def test_json_invariants_loads_no_fractions():
    # the exact Fraction evaluation of monomials is a test oracle, not a
    # runtime path, so the invariants layer builds no Fraction
    loaded = _loaded_modules(["invariants", "--fixture", "ghz4", "--json"])
    assert {"lusym.invariants", "lusym.circuits"} <= loaded
    assert not loaded & UNNEEDED_AT_START_UP


def test_lazy_package_exports_every_public_name():
    import importlib

    import lusym

    namespace: dict = {}
    exec("from lusym import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == lusym.__all__
    for name in lusym.__all__:
        module = importlib.import_module(f"lusym.{lusym._SUBMODULE[name]}")
        assert getattr(lusym, name) is getattr(module, name) is namespace[name]
    assert set(lusym.__all__) <= set(dir(lusym))
    with pytest.raises(AttributeError, match="no_such_name"):
        lusym.no_such_name


def test_the_full_six_qubit_support_exits_2_at_the_circuit_cap(capsys, tmp_path):
    # the search stops at 10^5 circuits, in about 4 s under Python 3.11, and
    # nothing reaches stdout
    labels = [format(x, "06b") for x in range(64)]
    state = tmp_path / "all6.json"
    state.write_text(dump_state(PureState.from_amplitudes({s: 0.125 for s in labels})))
    for argv in (["circuits", "--support", ",".join(labels)], ["analyze", "--input", str(state), "--json"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 60
        assert (code, out) == (2, "")
        assert err == "error: circuit search: the support of 64 labels on 6 qubits has more than 100000 circuits, the cap\n"


@pytest.mark.parametrize(
    "labels, count",
    [
        # 14 circuits: the search finds 4, and the lift to complement twins adds 10
        ("0000,0110,0111,1000,1001,1010,1011,1100", 14),
        # 15 circuits, all found by the search: no label's complement is there
        ("00000,00011,00101,01001,10001,00110,01010,10010", 15),
    ],
    ids=["lifted", "searched"],
)
def test_a_support_past_a_small_circuit_cap_exits_2(capsys, monkeypatch, labels, count):
    code, whole, _ = run_cli(capsys, "circuits", "--support", labels, "--json")
    assert code == 0 and len(json.loads(whole)["circuits"]) == count
    monkeypatch.setattr(lusym.circuits, "MAX_CIRCUITS", count)
    assert run_cli(capsys, "circuits", "--support", labels, "--json") == (0, whole, "")
    monkeypatch.setattr(lusym.circuits, "MAX_CIRCUITS", count - 1)
    code, out, err = run_cli(capsys, "circuits", "--support", labels, "--json")
    assert (code, out) == (2, "")
    n = len(labels.split(",")[0])
    assert err == f"error: circuit search: the support of 8 labels on {n} qubits has more than {count - 1} circuits, the cap\n"
