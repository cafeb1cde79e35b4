"""Command-line interface.

Every subcommand reads UTF-8 JSON documents (a path, or `-` for stdin),
writes one canonical JSON document to stdout, and reports problems on
stderr.  Exit codes: 0 success, 1 invalid input (usage errors included),
2 compared objects are unequal (or a certification leg failed), 3 a size
bound was exceeded, 4 internal inconsistency (an oracle cross-check
failed).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cone import VariantKind, free_m_cone, higgs_lift, variant
from .documents import (
    canonical_json,
    catenary_to_document,
    characteristic_to_document,
    configuration_from_document,
    configuration_to_document,
    g_to_document,
    matroid_from_document,
    matroid_to_document,
    parse_json,
    report_to_document,
    src_to_document,
    tutte_to_document,
)
from .errors import AxiomViolation, GroundSetTooLarge, MatroidError, NotABasisSystem, ParseError
from .invariants import (
    catenary_data,
    characteristic,
    g_invariant,
    src_data,
    tutte,
)
from .transfer import (
    catenary_of_cone,
    certify_pair,
    reconstruct_from_cone_config,
    tutte_of_cone_from_src,
)
from .zlattice import ValidationReport, configuration

__all__ = ["main", "entry"]


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: byte offset {exc.start}: {exc.reason}") from None


def _load_matroid(path: str):
    return matroid_from_document(parse_json(_read_text(path)))


def _emit(doc) -> None:
    sys.stdout.write(canonical_json(doc))


def _kind(args) -> VariantKind:
    return VariantKind.coerce(args.variant)


def _cone_matroid(args):
    return variant(free_m_cone(_load_matroid(args.file), args.m), _kind(args))


def cmd_validate(args) -> int:
    doc = parse_json(_read_text(args.file))
    names = None
    try:
        matroid_from_document(doc)
        report = ValidationReport(ok=True)
    except NotABasisSystem as exc:
        report = ValidationReport(ok=False, axiom="basis-exchange", message=str(exc))
    except AxiomViolation as exc:
        report = ValidationReport(
            ok=False, axiom=exc.axiom, witness=exc.witness, message=str(exc)
        )
        names = doc["ground_set"]
    _emit(report_to_document(report, names=names))
    return 0 if report.ok else 1


def cmd_cone(args) -> int:
    _emit(matroid_to_document(_cone_matroid(args)))
    return 0


def _invariant_document(M, kind: str):
    if kind == "g":
        return g_to_document(g_invariant(M))
    if kind == "catenary":
        return catenary_to_document(catenary_data(M))
    if kind == "tutte":
        return tutte_to_document(tutte(M))
    if kind == "characteristic":
        return characteristic_to_document(characteristic(M))
    if kind == "src":
        return src_to_document(src_data(M))
    if kind == "config":
        return configuration_to_document(configuration(M))
    raise AssertionError(kind)


def cmd_invariant(args) -> int:
    _emit(_invariant_document(_load_matroid(args.file), args.kind))
    return 0


def cmd_transfer(args) -> int:
    M = _load_matroid(args.file)
    kind = _kind(args)
    if args.what == "catenary":
        out = catenary_of_cone(catenary_data(M), args.m, kind)
        _emit(catenary_to_document(out))
    else:
        out = tutte_of_cone_from_src(src_data(M), args.m, kind)
        _emit(tutte_to_document(out))
    return 0


def cmd_reconstruct(args) -> int:
    cfg = configuration_from_document(parse_json(_read_text(args.file)))
    M = reconstruct_from_cone_config(cfg, _kind(args), args.m)
    _emit(matroid_to_document(M))
    return 0


def cmd_compare(args) -> int:
    A = _load_matroid(args.file_a)
    B = _load_matroid(args.file_b)
    if args.kind == "config":
        ca, cb = configuration(A), configuration(B)
        equal = ca == cb
        first = None
        if not equal:
            first = "node-count" if len(ca) != len(cb) else "certificate"
    else:
        da = _invariant_document(A, args.kind)
        db = _invariant_document(B, args.kind)
        equal = da == db
        first = None
        if not equal:
            if args.kind == "tutte":
                ta, tb = da["coeffs"], db["coeffs"]
                pairs = [
                    (i, j)
                    for i in range(max(len(ta), len(tb)))
                    for j in range(max(len(ta[0]) if ta else 0, len(tb[0]) if tb else 0))
                ]
                for i, j in sorted(pairs):
                    va = ta[i][j] if i < len(ta) and j < len(ta[i]) else 0
                    vb = tb[i][j] if i < len(tb) and j < len(tb[i]) else 0
                    if va != vb:
                        first = f"{i},{j}"
                        break
            else:
                ka, kb = da.get("counts", {}), db.get("counts", {})
                for key in sorted(set(ka) | set(kb)):
                    if ka.get(key, 0) != kb.get(key, 0):
                        first = key
                        break
                if first is None:
                    first = next(
                        (k for k in sorted(set(da) | set(db)) if da.get(k) != db.get(k)),
                        "document",
                    )
    out = {"kind": args.kind, "equal": equal}
    if first is not None:
        out["first_difference"] = first
    _emit(out)
    return 0 if equal else 2


def cmd_certify_pair(args) -> int:
    M = _load_matroid(args.file_a)
    N = _load_matroid(args.file_b)
    report = certify_pair(M, N, args.m)
    _emit(
        {
            "m": report.m,
            "legs": report.legs,
            "oracle_ok": report.oracle_ok,
            "all_passed": report.all_passed,
        }
    )
    if not report.oracle_ok:
        return 4
    return 0 if report.all_passed else 2


def cmd_higgs(args) -> int:
    M = _load_matroid(args.file)
    _emit(matroid_to_document(higgs_lift(M)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, invalid input; argparse's own 2 is the code
    this command uses for unequal objects and failed legs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freecone",
        description="Exact matroid computations around the free multiple cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [k.value for k in VariantKind]

    p = sub.add_parser("validate", help="check the lattice axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cone", help="build a free multiple cone")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--variant", choices=variants, default="full")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("invariant", help="compute an invariant")
    p.add_argument(
        "--kind",
        required=True,
        choices=["g", "catenary", "tutte", "characteristic", "src", "config"],
    )
    p.add_argument("file")
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser(
        "transfer",
        help="cone invariant from source data alone, no cone built",
    )
    p.add_argument("--what", required=True, choices=["catenary", "tutte"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--variant", choices=variants, default="full")
    p.add_argument("file")
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser(
        "reconstruct",
        help="recover the source matroid from a cone configuration",
    )
    p.add_argument("--variant", choices=variants, default="full")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("compare", help="compare an invariant of two matroids")
    p.add_argument(
        "--kind", required=True, choices=["g", "catenary", "tutte", "src", "config"]
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "certify-pair",
        help="certify equal invariants and different cone configurations",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_certify_pair)

    p = sub.add_parser("higgs", help="free one-step rank lift")
    p.add_argument("file")
    p.set_defaults(fn=cmd_higgs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of `main`: a
    parse leaves no state in it, and building it costs as much as a small job."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        where = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"freecone: parse error{where}: {exc}", file=sys.stderr)
        return 1
    except GroundSetTooLarge as exc:
        print(f"freecone: size bound exceeded: {exc}", file=sys.stderr)
        return 3
    except MatroidError as exc:
        print(f"freecone: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
