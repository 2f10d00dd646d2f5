"""Command-line interface.

Exit codes: 0 success, 2 input or validation error (including a failed
verification), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import analyze, compare_strata, verify_symmetry
from .errors import InputError, InternalError
from .fixtures import fixture_names, fixture_state
from .serialize import (
    canonical_dumps,
    catalog_to_dict,
    dump_report,
    flip_rejection_to_dict,
    invariant_sum_to_dict,
    load_group,
    load_state,
    monomial_to_dict,
    normalizer_to_dict,
    state_hash,
    verification_to_dict,
)
from .states import DEFAULT_TOL, PureState, Support, require_normalized, require_tol
from .symmetry import solve_symmetry_group

# The circuit search, the invariants and the normalizer are imported by the
# subcommands that use them, so `compare` and `verify` never load them.


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _state_from_args(args: argparse.Namespace) -> PureState:
    if args.input is not None:
        return load_state(_read_text(args.input))
    return fixture_state(args.fixture)


def _parse_support(text: str) -> Support:
    """A support from comma-separated labels; blanks around and between them are dropped."""
    return Support.from_labels([part.strip() for part in text.split(",") if part.strip()])


def _support_from_args(args: argparse.Namespace) -> tuple[Support, PureState | None]:
    if args.support is not None:
        return _parse_support(args.support), None
    psi = _state_from_args(args)
    return psi.support(), psi


def _add_source_options(parser: argparse.ArgumentParser, with_support: bool) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE", help="state JSON file")
    source.add_argument(
        "--fixture", metavar="NAME", help=f"named fixture ({', '.join(fixture_names())})"
    )
    if with_support:
        source.add_argument(
            "--support", metavar="LABELS", help="comma-separated basis labels, e.g. 00,11"
        )


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        require_tol(value)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output (default: text)")


def cmd_analyze(args: argparse.Namespace) -> int:
    psi = _state_from_args(args)
    report = analyze(psi, tol=args.tolerance)
    if args.json:
        sys.stdout.write(dump_report(report))
        return 0
    support = report.catalog.support
    print(f"state: n={psi.n}, support size {len(support)}, {state_hash(psi)}")
    print(f"support: {', '.join(support.labels)}")
    g = report.group
    print(f"group: torus rank {g.torus_rank}, finite order {g.finite_order}, "
          f"theta {'continuous' if g.theta_continuous else 'discrete'}")
    for vec in g.torus_basis:
        print(f"  torus direction {list(vec)}")
    for gen in g.finite_generators:
        print(f"  finite generator of order {gen.den}: phis {[str(p) for p in gen.phis]}, theta {gen.theta}")
    trivial = [str(k + 1) for k, t in enumerate(report.normalizer.profile.trivial) if t]
    print(f"qubits acted on only by signs: {', '.join(trivial) if trivial else 'none'}")
    print(f"circuits ({len(report.catalog.circuits)}), semistable: {report.catalog.semistable}")
    for c, val in zip(report.catalog.circuits, report.monomial_values):
        kind = "positive" if c.positive else "mixed"
        print(f"  members {list(c.member_labels)} relation {list(c.relation)} "
              f"({kind}, d={c.d_order}) value {val:.6g}")
    print(f"single SL generator: {report.sl_report.holds} ({report.sl_report.reason})")
    print(f"normalizer flips: {', '.join(report.normalizer.flips.masks)} "
          f"(assumption_ok={report.normalizer.assumption_ok})")
    for k, v in enumerate(report.defect_values, 1):
        print(f"  defect qubit {k}: {v:.6g}")
    print(f"flags: generic={report.generic}, larger_symmetry_possible={report.larger_symmetry_possible}")
    v = report.verification
    print(f"verification: passed={v.passed}, max deviation {v.max_deviation:.3g} (tol {v.tol:g})")
    return 0


def cmd_circuits(args: argparse.Namespace) -> int:
    from .circuits import enumerate_circuits

    support, _ = _support_from_args(args)
    catalog = enumerate_circuits(support)
    if args.json:
        sys.stdout.write(canonical_dumps(catalog_to_dict(catalog)))
        return 0
    print(f"support: {', '.join(support.labels)} (n={support.n})")
    if not catalog.circuits:
        print("no circuits")
    for c in catalog.circuits:
        kind = "positive" if c.positive else "mixed"
        print(f"  {list(c.member_labels)} relation {list(c.relation)} ({kind}, d={c.d_order})")
    print(f"semistable: {catalog.semistable}")
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    from .circuits import enumerate_circuits
    from .invariants import (
        FlipRejection,
        _symmetrized,
        abs_square_generators,
        evaluate,
        is_sl_type,
        monomial_from_circuit,
    )
    from .normalizer import balance_defects, support_stabilizer_masks

    support, psi = _support_from_args(args)
    catalog = enumerate_circuits(support)
    # a FlipGroup is closed under xor by construction, so each circuit sums over it unchecked
    flip_masks = support_stabilizer_masks(support).masks
    blocks = []
    for circuit in catalog.circuits:
        mono = monomial_from_circuit(circuit)
        block = {
            "monomial": monomial_to_dict(mono),
            "sl_type": is_sl_type(mono),
            "circuit_members": list(circuit.member_labels),
        }
        if psi is not None:
            val = evaluate(mono, psi)
            block["value"] = [val.real, val.imag]
        lifted = _symmetrized(mono, flip_masks)
        if isinstance(lifted, FlipRejection):
            block["flip_sum"] = {"admitted": False, "rejection": flip_rejection_to_dict(lifted)}
        else:
            entry = {"admitted": True, "sum": invariant_sum_to_dict(lifted)}
            if psi is not None:
                sval = evaluate(lifted, psi)
                entry["value"] = [sval.real, sval.imag]
            block["flip_sum"] = entry
        blocks.append(block)
    payload = {
        "support": list(support.labels),
        "n": support.n,
        "abs_square_generators": [
            monomial_to_dict(m) for m in abs_square_generators(support)
        ],
        "circuit_monomials": blocks,
        "flip_masks": list(flip_masks),
    }
    if psi is not None:
        payload["defects"] = [{"qubit": k, "value": v} for k, v in enumerate(balance_defects(psi), 1)]
    if args.json:
        sys.stdout.write(canonical_dumps(payload))
        return 0
    print(f"support: {', '.join(support.labels)} (n={support.n})")
    print(f"|c|^2 generators: {len(support.labels)} (bidegree (1,1) each)")
    for block in blocks:
        m = block["monomial"]
        line = f"  bidegree {tuple(m['bidegree'])} terms {m['terms']}"
        if "value" in block:
            line += f" value {complex(*block['value']):.6g}"
        print(line)
        fs = block["flip_sum"]
        if fs["admitted"]:
            print(f"    flip sum over {len(fs['sum']['flip_group'])} masks: admitted")
        else:
            print(f"    flip sum rejected: {fs['rejection']['reason']}")
    return 0


def cmd_normalizer(args: argparse.Namespace) -> int:
    from .normalizer import compute_normalizer

    support, _ = _support_from_args(args)
    desc = compute_normalizer(support, solve_symmetry_group(support))
    if args.json:
        payload = dict(normalizer_to_dict(desc), support=list(support.labels), n=support.n)
        sys.stdout.write(canonical_dumps(payload))
        return 0
    print(f"support: {', '.join(support.labels)} (n={support.n})")
    print("torus: full diagonal group (all phis and theta free)")
    print(f"flip masks: {', '.join(desc.flips.masks)}")
    print(f"flip generators: {', '.join(desc.flips.generators) if desc.flips.generators else 'none'}")
    if not desc.assumption_ok:
        trivial = [str(k + 1) for k, t in enumerate(desc.profile.trivial) if t]
        print(f"warning: group acts only by signs on qubit(s) {', '.join(trivial)}; "
              "the true normalizer may be larger")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    psi = _state_from_args(args)
    require_normalized(psi, args.tolerance)
    group = load_group(_read_text(args.group), psi.n)
    result = verify_symmetry(psi, group, tol=args.tolerance)
    if args.json:
        sys.stdout.write(canonical_dumps(verification_to_dict(result)))
    else:
        print(f"checked {len(result.checks)} generators and torus directions; "
              f"max deviation {result.max_deviation:.3g} (tol {result.tol:g})")
        print("PASS" if result.passed else "FAIL")
    if not result.passed:
        print(
            f"verification failed: deviation {result.max_deviation:.3g} "
            f"exceeds tolerance {result.tol:g}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    sup_a, sup_b = _parse_support(args.support_a), _parse_support(args.support_b)
    verdict = compare_strata(sup_a, sup_b)
    if args.json:
        sys.stdout.write(canonical_dumps({
            "support_a": list(sup_a.labels),
            "support_b": list(sup_b.labels),
            "verdict": verdict,
        }))
    else:
        print(verdict)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lusym",
        description="Diagonal local-unitary symmetry groups and invariants of sparse qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a state")
    _add_source_options(p, with_support=False)
    _add_format_options(p)
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("circuits", help="balanced circuits of a support")
    _add_source_options(p, with_support=True)
    _add_format_options(p)
    p.set_defaults(func=cmd_circuits)

    p = sub.add_parser("invariants", help="invariant monomials and flip sums")
    _add_source_options(p, with_support=True)
    _add_format_options(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("normalizer", help="normalizer flips and torus")
    _add_source_options(p, with_support=True)
    _add_format_options(p)
    p.set_defaults(func=cmd_normalizer)

    p = sub.add_parser("verify", help="check that a group fixes a state")
    _add_source_options(p, with_support=False)
    _add_format_options(p)
    p.add_argument("--group", required=True, metavar="FILE", help="group JSON file")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="closure order of two supports' strata")
    p.add_argument("--support-a", required=True, metavar="LABELS")
    p.add_argument("--support-b", required=True, metavar="LABELS")
    _add_format_options(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
