"""JSON document formats.

Matroids travel as {"ground_set": [names], "cyclic_flats": [{"set": [...],
"rank": r}, ...]} or with "bases" instead of "cyclic_flats"; configurations
as {"nodes": [{"id", "size", "rank"}], "covers": [[lo, hi]]} with nodes in
canonical certificate order, so byte equality of serialized configurations
coincides with configuration equality.  Invariants get one document kind
each.  Serialization is canonical: sorted keys, compact separators, list
contents in a deterministic order, a single trailing newline, and integers
outside the signed 64-bit range rendered as decimal strings (the parsers
accept either form).
"""

from __future__ import annotations

import json

from .core import Matroid, bit_members, from_bases, from_cyclic_flats
from .errors import ParseError, ValidationError
from .invariants import CatenaryData, GInvariant, SrcData, TuttePolynomial
from .zlattice import Configuration, ValidationReport

__all__ = [
    "canonical_json",
    "parse_json",
    "matroid_to_document",
    "matroid_from_document",
    "configuration_to_document",
    "configuration_from_document",
    "report_to_document",
    "g_to_document",
    "g_from_document",
    "catenary_to_document",
    "catenary_from_document",
    "tutte_to_document",
    "tutte_from_document",
    "characteristic_to_document",
    "src_to_document",
    "src_from_document",
]

_I64 = 1 << 63


def _encode(obj):
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _I64 else obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(_encode(obj), sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("arrays and objects are nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"unreadable number: {exc}") from None


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"{what} is not a decimal integer: {value!r}") from None
    raise ParseError(f"{what} must be an integer, got {type(value).__name__}")


def _need(doc: dict, key: str, what: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    if key not in doc:
        raise ParseError(f"{what} is missing {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# matroids


def matroid_to_document(M: Matroid, name: str | None = None) -> dict:
    doc: dict = {
        "ground_set": list(M.names),
        "cyclic_flats": [
            {"set": [M.names[e] for e in bit_members(mask)], "rank": r}
            for mask, r in M.zf
        ],
    }
    if name is not None:
        doc["name"] = name
    return doc


def _name_map(doc) -> tuple[list[str], dict]:
    ground = _need(doc, "ground_set", "a matroid document")
    if not isinstance(ground, list) or any(not isinstance(g, str) for g in ground):
        raise ParseError("ground_set must be a list of strings")
    if len(set(ground)) != len(ground):
        raise ParseError("ground_set contains duplicate names")
    return ground, {g: i for i, g in enumerate(ground)}


def _mask_of(names, ids: dict, what: str) -> int:
    if not isinstance(names, list):
        raise ParseError(f"{what} must be a list of element names")
    mask = 0
    for nm in names:
        if not isinstance(nm, str) or nm not in ids:
            raise ParseError(f"{what} mentions unknown element {nm!r}")
        bit = 1 << ids[nm]
        if mask & bit:
            raise ParseError(f"{what} repeats element {nm!r}")
        mask |= bit
    return mask


def matroid_from_document(doc) -> Matroid:
    ground, ids = _name_map(doc)
    n = len(ground)
    has_zf = "cyclic_flats" in doc
    has_bases = "bases" in doc
    if has_zf == has_bases:
        raise ParseError(
            "a matroid document carries exactly one of cyclic_flats or bases"
        )
    if has_zf:
        raw = doc["cyclic_flats"]
        if not isinstance(raw, list):
            raise ParseError("cyclic_flats must be a list")
        entries = []
        for i, item in enumerate(raw):
            members = _need(item, "set", f"cyclic_flats[{i}]")
            rank = _as_int(_need(item, "rank", f"cyclic_flats[{i}]"), "rank")
            if rank < 0:
                raise ValidationError(f"cyclic_flats[{i}] has negative rank")
            entries.append((_mask_of(members, ids, f"cyclic_flats[{i}].set"), rank))
        return from_cyclic_flats(entries, n, names=ground)
    raw = doc["bases"]
    if not isinstance(raw, list):
        raise ParseError("bases must be a list")
    masks = [_mask_of(b, ids, f"bases[{i}]") for i, b in enumerate(raw)]
    return from_bases(masks, n, names=ground)


def report_to_document(report: ValidationReport, names=None) -> dict:
    def show(members: frozenset) -> list:
        if names is None:
            return sorted(members)
        return [names[e] for e in sorted(members)]

    doc: dict = {"ok": report.ok}
    if not report.ok:
        doc["axiom"] = report.axiom
        doc["witness"] = [show(w) for w in report.witness]
        doc["message"] = report.message
    return doc


# ---------------------------------------------------------------------------
# configurations


def configuration_to_document(cfg: Configuration) -> dict:
    order = cfg.canonical_order()
    pos = {node: p for p, node in enumerate(order)}
    nodes = [
        {"id": p, "size": cfg.size(node), "rank": cfg.rho(node)}
        for p, node in enumerate(order)
    ]
    covers = sorted([pos[lo], pos[hi]] for lo, hi in cfg.covers)
    return {"nodes": nodes, "covers": covers}


def configuration_from_document(doc) -> Configuration:
    raw_nodes = _need(doc, "nodes", "a configuration document")
    raw_covers = _need(doc, "covers", "a configuration document")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ParseError("nodes must be a nonempty list")
    if not isinstance(raw_covers, list):
        raise ParseError("covers must be a list")
    index: dict = {}
    labels = []
    for i, item in enumerate(raw_nodes):
        nid = _as_int(_need(item, "id", f"nodes[{i}]"), "node id")
        if nid in index:
            raise ParseError(f"duplicate node id {nid}")
        index[nid] = i
        labels.append(
            (
                _as_int(_need(item, "size", f"nodes[{i}]"), "node size"),
                _as_int(_need(item, "rank", f"nodes[{i}]"), "node rank"),
            )
        )
    covers = []
    for i, pair in enumerate(raw_covers):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"covers[{i}] must be a [lower, upper] pair")
        lo, hi = (_as_int(v, f"covers[{i}]") for v in pair)
        if lo not in index or hi not in index:
            raise ParseError(f"covers[{i}] names an unknown node id")
        covers.append((index[lo], index[hi]))
    return Configuration(labels, covers)


# ---------------------------------------------------------------------------
# invariants


def g_to_document(g: GInvariant) -> dict:
    return {
        "kind": "g-invariant",
        "n": g.n,
        "k": g.k,
        "counts": {key: c for key, c in sorted(g.counts.items()) if c},
    }


def g_from_document(doc) -> GInvariant:
    _expect_kind(doc, "g-invariant")
    n = _as_int(_need(doc, "n", "a g-invariant document"), "n")
    k = _as_int(_need(doc, "k", "a g-invariant document"), "k")
    counts = _need(doc, "counts", "a g-invariant document")
    if not isinstance(counts, dict):
        raise ParseError("counts must be an object")
    return GInvariant(n, k, {key: _as_int(c, "count") for key, c in counts.items()})


def catenary_to_document(cat: CatenaryData) -> dict:
    return {
        "kind": "catenary",
        "n": cat.n,
        "k": cat.k,
        "counts": {
            ",".join(map(str, key)): c for key, c in sorted(cat.counts.items()) if c
        },
    }


def _key_ints(key: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part, 10) for part in key.split(","))
    except ValueError:
        raise ParseError(f"{what} key is not comma-separated integers: {key!r}") from None


def catenary_from_document(doc) -> CatenaryData:
    _expect_kind(doc, "catenary")
    n = _as_int(_need(doc, "n", "a catenary document"), "n")
    k = _as_int(_need(doc, "k", "a catenary document"), "k")
    counts = _need(doc, "counts", "a catenary document")
    if not isinstance(counts, dict):
        raise ParseError("counts must be an object")
    return CatenaryData(
        n, k, {_key_ints(key, "catenary"): _as_int(c, "count") for key, c in counts.items()}
    )


def tutte_to_document(t: TuttePolynomial) -> dict:
    return {"kind": "tutte", "coeffs": t.as_table()}


def tutte_from_document(doc) -> TuttePolynomial:
    _expect_kind(doc, "tutte")
    table = _need(doc, "coeffs", "a tutte document")
    if not isinstance(table, list) or any(not isinstance(row, list) for row in table):
        raise ParseError("coeffs must be a list of rows")
    coeffs = {}
    for i, row in enumerate(table):
        for j, c in enumerate(row):
            c = _as_int(c, "coefficient")
            if c:
                coeffs[(i, j)] = c
    return TuttePolynomial(coeffs)


def characteristic_to_document(coeffs) -> dict:
    return {"kind": "characteristic", "coeffs": list(coeffs)}


def src_to_document(src: SrcData) -> dict:
    return {
        "kind": "src",
        "n": src.n,
        "counts": {
            ",".join(map(str, key)): c for key, c in sorted(src.counts.items()) if c
        },
    }


def src_from_document(doc) -> SrcData:
    _expect_kind(doc, "src")
    n = _as_int(_need(doc, "n", "an src document"), "n")
    counts = _need(doc, "counts", "an src document")
    if not isinstance(counts, dict):
        raise ParseError("counts must be an object")
    return SrcData(
        n, {_key_ints(key, "src"): _as_int(c, "count") for key, c in counts.items()}
    )


def _expect_kind(doc, kind: str) -> None:
    got = _need(doc, "kind", f"a {kind} document")
    if got != kind:
        raise ParseError(f"expected a {kind} document, got kind {got!r}")
