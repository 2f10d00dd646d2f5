"""Canonical JSON serialization for states, groups, and analysis reports.

All writers go through canonical_dumps (sorted keys, compact separators), so
a given object always produces byte-identical output. Floats use Python repr,
the shortest representation that round-trips exactly. Readers accept any JSON
layout, indented files of earlier versions included.

Readers check a file's layout alone: objects with their named fields, lists
where they iterate, [re, im] pairs of finite JSON numbers, the schema's order
>= 2, and as many torus directions as the torus rank. Constructors check values.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Mapping

from . import __version__
from .analysis import GENERIC_FLOOR
from .errors import DimensionError, InputError
from .states import PhaseVector, PureState, check_qubit_count
from .symmetry import DiagonalSymmetryGroup

if TYPE_CHECKING:
    from .analysis import AnalysisReport, SymmetryVerification
    from .circuits import BalancedCircuit, CircuitCatalog
    from .invariants import FlipRejection, InvariantMonomial, InvariantSum
    from .normalizer import FlipGroup, NormalizerDescription
    from .symmetry import QubitActionProfile

TOOL_NAME = "lusym"


def canonical_dumps(obj: Any) -> str:
    # no indent: any indent makes json fall back to its pure-Python encoder.
    # Every caller passes a tree the *_to_dict writers have just built from
    # immutable values, which cannot hold a cycle, so the encoder skips its
    # per-container cycle bookkeeping.
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False, check_circular=False)
        + "\n"
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _unique_names(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"repeated name {key!r} in a JSON object")
        obj[key] = value
    return obj


def _read_json(text: str) -> Any:
    """Parse an input file. Malformed JSON, an integer too long to convert,
    nesting too deep to parse and a name repeated in one object all raise
    InputError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_names)
    except InputError:  # a repeated name, raised by the hook
        raise
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # int() refuses a literal beyond the digit limit
        raise InputError(f"unreadable JSON number: {str(exc).split(';')[0]}") from None
    except RecursionError:
        raise InputError("JSON nested too deeply to read") from None


# ---------------------------------------------------------------- states

def _finite(x: Any) -> bool:
    # JSON true and false are not numbers
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def state_to_dict(psi: PureState) -> dict:
    return {
        "n": psi.n,
        "amplitudes": {
            lab: [c.real, c.imag] for lab, c in psi.amplitudes.items()
        },
    }


def state_from_dict(data: Mapping) -> PureState:
    _require(isinstance(data, Mapping), "state must be a JSON object")
    _require("n" in data, "state is missing field 'n'")
    _require("amplitudes" in data, "state is missing field 'amplitudes'")
    amps = data["amplitudes"]
    _require(isinstance(amps, Mapping), "field 'amplitudes' must be an object")
    out = {}
    for lab, pair in amps.items():
        _require(isinstance(pair, (list, tuple)) and len(pair) == 2, f"amplitude for {lab!r} must be a [re, im] pair")
        _require(all(map(_finite, pair)), f"amplitude for {lab!r} must hold finite numbers")
        out[lab] = complex(*pair)
    return PureState(data["n"], out)


def state_hash(psi: PureState) -> str:
    import hashlib  # here, so that `compare` and `verify` never load it

    digest = hashlib.sha256(canonical_dumps(state_to_dict(psi)).encode()).hexdigest()
    return f"sha256:{digest}"


def dump_state(psi: PureState) -> str:
    return canonical_dumps(state_to_dict(psi))


def load_state(text: str) -> PureState:
    return state_from_dict(_read_json(text))


# ---------------------------------------------------------------- groups

def group_to_dict(group: DiagonalSymmetryGroup) -> dict:
    """A finite generator is written as its numerators (phi_1..phi_n, theta),
    each in [0, order), over its order."""
    return {
        "n": group.n,
        "torus_basis": [list(vec) for vec in group.torus_basis],
        "finite": [{"order": g.den, "nums": list(g.nums)} for g in group.finite_generators],
    }


def group_from_dict(data: Mapping, qubits: int | None = None) -> DiagonalSymmetryGroup:
    """The group a group file presents. Given `qubits`, the qubit count of the
    state it is for, a group on another count is refused before it is built."""
    _require(isinstance(data, Mapping), "group must be a JSON object")
    for field in ("n", "torus_basis", "finite"):
        _require(field in data, f"group is missing field {field!r}")
    n = data["n"]
    check_qubit_count(n)
    if qubits is not None and n != qubits:
        raise DimensionError(f"group on {n} qubits, state on {qubits}")
    for field in ("torus_basis", "finite"):
        _require(isinstance(data[field], list), f"group field {field!r} must be a list")
    basis = data["torus_basis"]
    for vec in basis:
        _require(isinstance(vec, list), f"'torus_basis' vectors must be lists, got {vec!r}")
    gens = []
    for item in data["finite"]:
        _require(isinstance(item, Mapping) and "order" in item and "nums" in item, "finite entries need 'order' and 'nums'")
        _require(isinstance(item["nums"], list), f"finite 'nums' must be a list, got {item['nums']!r}")
        # PhaseVector refuses nums off [0, order), and its lowest-terms rule makes
        # order the generator's exact order
        gen = PhaseVector(item["nums"], item["order"])
        _require(gen.den >= 2, f"finite 'order' must be an integer >= 2, got {gen.den}")
        gens.append(gen)
    group = DiagonalSymmetryGroup.from_presentation(n, basis, gens)
    _require(group.torus_rank == len(basis), "'torus_basis' vectors must be nonzero and linearly independent")
    return group


def dump_group(group: DiagonalSymmetryGroup) -> str:
    return canonical_dumps(group_to_dict(group))


def load_group(text: str, qubits: int | None = None) -> DiagonalSymmetryGroup:
    return group_from_dict(_read_json(text), qubits)


# ---------------------------------------------------------------- report pieces

def circuit_to_dict(c: BalancedCircuit) -> dict:
    # json writes a tuple as an array, so the circuit's own tuples go in uncopied
    return {"members": c.member_labels, "relation": c.relation}


def catalog_to_dict(catalog: CircuitCatalog) -> dict:
    return {
        "support": list(catalog.support.labels),
        "n": catalog.support.n,
        "circuits": [circuit_to_dict(c) for c in catalog.circuits],
        "semistable": catalog.semistable,
    }


def monomial_to_dict(m: InvariantMonomial) -> dict:
    return {
        "terms": [[label, p, q] for label, p, q in m.terms],
        "bidegree": [m.bidegree.a, m.bidegree.b],
    }


def invariant_sum_to_dict(s: InvariantSum) -> dict:
    return {
        "monomials": [monomial_to_dict(m) for m in s.monomials],
        "flip_group": list(s.flip_group),
        "bidegree": [s.bidegree.a, s.bidegree.b],
    }


def flip_rejection_to_dict(r: FlipRejection) -> dict:
    return {
        "mask": r.mask,
        "bidegree": [r.bidegree.a, r.bidegree.b],
        "reason": r.reason,
    }


def flip_group_to_dict(fg: FlipGroup) -> dict:
    return {"masks": list(fg.masks), "generators": list(fg.generators)}


def profile_to_dict(profile: QubitActionProfile) -> dict:
    return {
        "trivial": list(profile.trivial),
        "witnesses": [list(w) if w else None for w in profile.witnesses],
    }


def normalizer_to_dict(desc: NormalizerDescription) -> dict:
    return {
        "flips": flip_group_to_dict(desc.flips),
        "assumption_ok": desc.assumption_ok,
    }


def verification_to_dict(v: SymmetryVerification) -> dict:
    return {
        "passed": v.passed,
        "max_deviation": v.max_deviation,
        "tol": v.tol,
        "checks": [
            {"kind": c.kind, "index": c.index, "deviation": c.deviation} for c in v.checks
        ],
    }


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "input": {
            "n": report.state.n,
            "hash": state_hash(report.state),
            "norm": report.state.norm(),
        },
        "support": list(report.catalog.support.labels),
        "group": group_to_dict(report.group),
        "group_flags": {
            "torus_rank": report.group.torus_rank,
            "theta_continuous": report.group.theta_continuous,
            "finite_order": report.group.finite_order,
        },
        "qubit_profile": profile_to_dict(report.normalizer.profile),
        "circuits": [circuit_to_dict(c) for c in report.catalog.circuits],
        "semistable": report.catalog.semistable,
        "monomial_values": [[v.real, v.imag] for v in report.monomial_values],
        "sl_generator": {
            "holds": report.sl_report.holds,
            "degree": report.sl_report.degree,
            "reason": report.sl_report.reason,
        },
        "normalizer": normalizer_to_dict(report.normalizer),
        "defects": [
            {"qubit": k, "value": v, "vanishes": abs(v) < GENERIC_FLOOR}
            for k, v in enumerate(report.defect_values, 1)
        ],
        "flags": {
            "generic": report.generic,
            "larger_symmetry_possible": report.larger_symmetry_possible,
        },
        "verification": verification_to_dict(report.verification),
    }


def dump_report(report: AnalysisReport) -> str:
    return canonical_dumps(report_to_dict(report))
