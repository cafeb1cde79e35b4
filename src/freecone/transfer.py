"""Maps between source-matroid data and cone data, and back.

Three pipelines live here: the catenary transfer formulas, which count
the flags of a cone or variant from the catenary data of the source;
reconstruction of the Tutte polynomial of a cone or variant from
size-rank-coloop data of the source; and reconstruction of the source
matroid from the configuration of a cone or variant.  Each pipeline is
held equal to the direct computation in the test suite.  A variant is
known by whether it keeps the tip and the base E (`VariantKind.tip`,
`VariantKind.base`); every formula reads only those.  Reconstruction reads
the flats of M off the nodes above the cone points and keeps the flats F
with no flat F - e as its cyclic flats, so it has no element bound; a
rank-2 source is read from its parallel classes.  The explicit
bijection between decorated flags of M and flags of the cone, from which
the catenary formulas are derived, is the test oracle
`tests/oracles.py::flag_bijection`.  Recovery of size-rank-coloop data
from the G-invariant (src_from_g) lives in the invariants module and is
exported here too; `certify_pair` holds it equal to `src_data`, which
counts over the intervals of the cyclic-flat lattice and shares no code
with the flag counts that G comes from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .catalog import rank_two
from .cone import VariantKind, free_m_cone, variant
from .core import Matroid, from_cyclic_flats, is_isomorphic
from .errors import (
    InconsistentSystem,
    MalformedCatenary,
    MalformedSrc,
    MatroidError,
    NotAConeConfiguration,
    ValidationError,
)
from .invariants import (
    CatenaryData,
    GInvariant,
    SrcData,
    TuttePolynomial,
    catenary_data,
    g_invariant,
    src_data,
    src_from_g,
    tutte_from_size_rank,
)
from .zlattice import Configuration, configuration

__all__ = [
    "VariantKind",
    "catenary_of_cone",
    "tutte_of_cone_from_src",
    "src_from_g",
    "reconstruct_from_cone_config",
    "certify_pair",
    "CertificateReport",
]

# ---------------------------------------------------------------------------
# catenary transfer


def catenary_of_cone(catM: CatenaryData, m: int, kind) -> CatenaryData:
    """Catenary data of the m-cone (or a variant) from that of the source.

    Every output composition (b_i) arises from a source composition
    (a_i), a tip-free step count h, and a fiber-position set C: positions
    in C contribute a part 1, the remaining positions consume the parts
    a_1..a_{h-|C|} in order, part h+1 absorbs the tip (when present) and
    all elements not yet counted below q(X_h), and higher parts scale by
    the per-element multiplier.  The weight of a decorated composition is
    the number of fiber choices, m * a_{h-|C|+j} for each position.
    """
    kind = VariantKind.coerce(kind)
    if not isinstance(m, int) or m < 1:
        raise ValidationError("m must be a positive integer")
    # each source element has m fibers, plus itself when the base is kept;
    # without the tip the step count h starts at 1, and without the base
    # every position up to h is a fiber position
    mult = m + kind.base
    tip = int(kind.tip)
    k = catM.k
    out: dict = {}
    for a, cnt in catM.counts.items():
        if not cnt:
            continue
        if a[0] != 0:
            raise MalformedCatenary(
                "first part must be 0: the source must be loopless"
            )
        for h in range(1 - tip, k + 1):
            if kind.base:
                csets = [
                    tuple(i + 1 for i in range(h) if bits >> i & 1)
                    for bits in range(1 << h)
                ]
            else:
                csets = [tuple(range(1, h + 1))]
            for C in csets:
                c = len(C)
                w = cnt
                for j in range(1, c + 1):
                    w *= m * a[h - c + j]
                b = [0] * (k + 2)
                cset = set(C)
                dj = 0
                for i in range(1, h + 1):
                    if i in cset:
                        b[i] = 1
                    else:
                        dj += 1
                        b[i] = a[dj]
                b[h + 1] = tip + sum(mult * a[j] - b[j] for j in range(1, h + 1))
                if b[h + 1] < 1:
                    continue
                for i in range(h + 2, k + 2):
                    b[i] = mult * a[i - 1]
                key = tuple(b)
                out[key] = out.get(key, 0) + w
    if not out:
        # deleting the tip from the cone of a free matroid (and the empty
        # case) collapses every flag; there the variant is the source
        return CatenaryData(catM.n, catM.k, dict(catM.counts))
    return CatenaryData(mult * catM.n + tip, k + 1, out)


# ---------------------------------------------------------------------------
# Tutte from size-rank-coloop data


@lru_cache(maxsize=None)
def _column_power(mult: int, s: int) -> tuple:
    """Coefficients of ((1+x)^mult - 1)^s by exponent."""
    base = [0] + [math.comb(mult, i) for i in range(1, mult + 1)]
    poly = [1]
    for _ in range(s):
        nxt = [0] * (len(poly) + mult)
        for i, pi in enumerate(poly):
            if not pi:
                continue
            for j, bj in enumerate(base):
                if bj:
                    nxt[i + j] += pi * bj
        poly = nxt
    return tuple(poly)


def tutte_of_cone_from_src(src: SrcData, m: int, kind) -> TuttePolynomial:
    """Tutte polynomial of the m-cone (or a variant) from source src data.

    For a source subset S of size s, rank t, with c coloops in M|S,
    the tip-free cone subsets projecting onto S pick a nonempty part of
    each column; all have rank t+1 except those that pick exactly one
    item per column and touch fibers only over coloops, which keep rank
    t.  Adjoining the tip always gives rank t+1.  Baseless kinds restrict
    the columns to fibers; tipless kinds drop the tip part.
    """
    kind = VariantKind.coerce(kind)
    if not isinstance(m, int) or m < 1:
        raise ValidationError("m must be a positive integer")
    n = src.n
    if sum(src.counts.values()) != 1 << n:
        raise MalformedSrc(f"counts must cover all 2^{n} subsets")
    if any(s == 1 and t == 0 for (s, t, c), v in src.counts.items() if v):
        raise MalformedSrc("source has a loop")
    mult = m + kind.base
    mu: dict = {}

    def add(size, rank, v):
        if v:
            key = (size, rank)
            mu[key] = mu.get(key, 0) + v

    for (s, t, c), v in src.counts.items():
        if not v:
            continue
        poly = _column_power(mult, s)
        for size, ways in enumerate(poly):
            if not ways:
                continue
            add(size, t + 1, v * ways)
            if kind.tip:
                add(size + 1, t + 1, v * ways)
        keep = (m + 1) ** c if kind.base else (m**s if c == s else 0)
        if keep:
            add(s, t + 1, -v * keep)
            add(s, t, v * keep)
    mu = {key: v for key, v in mu.items() if v}
    if any(v < 0 for v in mu.values()):
        raise MalformedSrc("coloop counts are inconsistent with sizes")
    n_out = mult * n + kind.tip
    if sum(mu.values()) != 1 << n_out:
        raise MalformedSrc("subset totals do not match the cone ground set")
    K = max((r for (_, r) in mu), default=0)
    return tutte_from_size_rank(mu, K)


# ---------------------------------------------------------------------------
# reconstruction from cone configurations

def _find_line_family(cfg: Configuration) -> list[int]:
    """The unique maximum family of rank-2 nodes with at most one node
    below each member, pairwise joins of rank 3, and overall join the top."""
    bot = cfg.bottom
    cand = [
        i
        for i in cfg.nodes_of_rho(2)
        if len(cfg.strictly_between(bot, i)) <= 1
    ]
    compat = {
        (i, j): (lambda jj: jj is not None and cfg.rho(jj) == 3)(cfg.join(i, j))
        for i, j in itertools.combinations(cand, 2)
    }
    best: list[list[int]] = []

    def extend(clique: list[int], rest: list[int]):
        nonlocal best
        if not rest:
            if clique and cfg.join(*clique) == cfg.top:
                if not best or len(clique) > len(best[0]):
                    best = [clique[:]]
                elif len(clique) == len(best[0]):
                    best.append(clique[:])
            return
        if best and len(clique) + len(rest) < len(best[0]):
            return
        v = rest[0]
        extend(
            clique + [v],
            [u for u in rest[1:] if compat[(min(v, u), max(v, u))]],
        )
        extend(clique, rest[1:])

    extend([], cand)
    del extend  # a recursive closure is a cycle that would keep cfg alive
    if not best:
        raise NotAConeConfiguration(
            "no family of rank-2 nodes has rank-3 pairwise joins meeting the top"
        )
    if len(best) > 1:
        raise NotAConeConfiguration(
            "the maximum family of point-like rank-2 nodes is not unique"
        )
    return best[0]


def _restored_sizes(cfg: Configuration, kind: VariantKind, m: int, lines) -> list[int]:
    """Node sizes in the full cone: the tip lies in every node above a
    line, and a line with s fibers lost its s/m base elements."""
    sizes = [cfg.size(i) for i in range(len(cfg))]
    if not kind.tip:
        for i in range(len(cfg)):
            if any(cfg.leq(l, i) for l in lines):
                sizes[i] += 1
    if not kind.base:
        add = [0] * len(cfg)
        for l in lines:
            fibers = sizes[l] - 1
            if fibers <= 0 or fibers % m:
                raise NotAConeConfiguration(
                    f"node size {cfg.size(l)} is not 1 plus a multiple of m={m}"
                )
            for i in range(len(cfg)):
                if cfg.leq(l, i):
                    add[i] += fibers // m
        sizes = [s + a for s, a in zip(sizes, add)]
    return sizes


def _candidates_main(cfg: Configuration, kind: VariantKind, m: int):
    lines = _find_line_family(cfg)
    sizes = _restored_sizes(cfg, kind, m, lines)
    bot = cfg.bottom
    masks: dict[int, int] = {}  # each line's parallel class, as elements
    n = 0
    for l in sorted(lines):
        stot = sizes[l] - 1
        if stot <= 0 or stot % (m + 1):
            raise NotAConeConfiguration(
                f"restored node size {sizes[l]} is not 1 plus a multiple of m+1"
            )
        pl = stot // (m + 1)
        if kind.base:
            between = cfg.strictly_between(bot, l)
            if between:
                y = between[0]
                if cfg.rho(y) != 1 or cfg.size(y) != pl:
                    raise NotAConeConfiguration(
                        "the node under a point-like node must be its parallel class"
                    )
            elif pl != 1:
                raise NotAConeConfiguration(
                    "a multi-point class must appear as a node under its cone"
                )
        masks[l] = ((1 << pl) - 1) << n
        n += pl
    # the nodes above the lines are the nonempty flats of the source; the
    # empty flat has no line below it, as the source is loopless
    flats = {0: 0}
    for i in range(len(cfg)):
        u = sum(mask for l, mask in masks.items() if cfg.leq(l, i))  # disjoint
        if u:
            flats[u] = cfg.rho(i) - 1
    # e is a coloop of M|F iff r(F - e) < r(F), iff F - e is a flat
    cyclic = [
        (f, r)
        for f, r in flats.items()
        if not any(f & ~(1 << e) in flats for e in range(n) if f >> e & 1)
    ]
    yield from_cyclic_flats(cyclic, n)


def _candidates_rank2(cfg: Configuration, kind: VariantKind, m: int):
    """A rank-2 source is its parallel classes; each is a rank-2 node of
    the cone, and with the base kept one rank-2 node may be E instead."""
    nodes2 = cfg.nodes_of_rho(2)
    for enode in [None, *nodes2] if kind.base else [None]:
        ps = []
        for l in nodes2:
            if l == enode:
                continue
            s = cfg.size(l) - kind.tip
            if s <= 0 or s % (m + kind.base):
                break
            ps.append(s // (m + kind.base))
        else:
            if len(ps) >= 2:
                yield rank_two(ps)


def reconstruct_from_cone_config(cfg: Configuration, kind, m: int) -> Matroid:
    """Recover the source matroid from the configuration of its cone
    (or of a variant).  The result is unique up to isomorphism; every
    candidate is verified by rebuilding the cone and comparing
    configurations, so a non-cone input always raises.

    m must be at least 3 - tip - base: 1 for the full cone, 2 for one
    part deleted, 3 for both.  There is no bound on the element count.
    The cost is mostly the certificate search of the rebuilt
    configuration, which jumps back over symmetric subtrees: the 213-node
    1-cone of U(3,20) comes back in about 0.25 s (Python 3.11, one core
    of a shared 2-core host)."""
    kind = VariantKind.coerce(kind)
    min_m = 3 - kind.tip - kind.base
    if not isinstance(m, int) or m < min_m:
        raise ValidationError(f"kind {kind.value} needs m >= {min_m}")
    if not isinstance(cfg, Configuration):
        raise ValidationError("cfg must be a Configuration")
    candidates: list[Matroid] = []
    if cfg.size(cfg.bottom) == 0:
        if len(cfg) == 1:
            candidates.append(from_cyclic_flats([(0, 0)], 0))
        else:
            r_source = cfg.rho(cfg.top) - 1
            try:
                if r_source == 2:
                    candidates.extend(_candidates_rank2(cfg, kind, m))
                elif r_source >= 1:
                    candidates.extend(_candidates_main(cfg, kind, m))
            except NotAConeConfiguration:
                raise
            except MatroidError:
                candidates = []
    for cand in candidates:
        rebuilt = configuration(variant(free_m_cone(cand, m), kind))
        if rebuilt == cfg:
            return cand
    raise NotAConeConfiguration(
        f"no source matroid has this as its {kind.value} cone configuration for m={m}"
    )


# ---------------------------------------------------------------------------
# pair certification


@dataclass
class CertificateReport:
    """Four-leg certificate that a pair (M, N) separates configurations
    of cones while matching on the G-invariant."""

    m: int
    legs: list = field(default_factory=list)
    oracle_ok: bool = True

    @property
    def all_passed(self) -> bool:
        return all(leg["passed"] for leg in self.legs)


def _first_difference(da: dict, db: dict):
    keys = sorted(set(da) | set(db), key=repr)
    for key in keys:
        if da.get(key, 0) != db.get(key, 0):
            return key, da.get(key, 0), db.get(key, 0)
    return None


def _g_agrees_with_intervals(g: GInvariant, M: Matroid) -> bool:
    """Whether the src data that g determines equals the src data counted
    over the intervals of M's cyclic-flat lattice."""
    try:
        return src_from_g(g) == src_data(M)
    except InconsistentSystem:
        return False


def certify_pair(M: Matroid, N: Matroid, m: int) -> CertificateReport:
    report = CertificateReport(m=m)

    perm = is_isomorphic(M, N)
    report.legs.append(
        {
            "claim": "the two matroids are not isomorphic",
            "method": "canonical certificates of the element/cyclic-flat incidence posets",
            "passed": perm is None,
            "witness": None if perm is None else {"isomorphism": list(perm)},
        }
    )

    gm, gn = g_invariant(M), g_invariant(N)
    cm, cn = catenary_data(M), catenary_data(N)
    # G is derived from the flag counts; the independent check holds the src
    # data that G determines equal to the src data counted over the
    # intervals of the source's cyclic-flat lattice, which shares no code
    if not all(_g_agrees_with_intervals(g, S) for g, S in ((gm, M), (gn, N))):
        report.oracle_ok = False
    gdiff = None if gm == gn else _first_difference(gm.counts, gn.counts)
    cdiff = None if cm == cn else _first_difference(cm.counts, cn.counts)
    report.legs.append(
        {
            "claim": "equal G-invariants and equal catenary data",
            "method": "flag counting; G derived from the flag counts "
            "(Bonin-Kung), not enumerated, cross-checked against the src data "
            "counted over the cyclic-flat intervals",
            "passed": gdiff is None and cdiff is None,
            "witness": None
            if gdiff is None and cdiff is None
            else {
                "g_difference": _diff_json(gdiff),
                "catenary_difference": _diff_json(cdiff),
            },
        }
    )

    QM, QN = free_m_cone(M, m), free_m_cone(N, m)
    direct_m, direct_n = catenary_data(QM), catenary_data(QN)
    trans_m = catenary_of_cone(cm, m, VariantKind.FULL)
    trans_n = catenary_of_cone(cn, m, VariantKind.FULL)
    if trans_m != direct_m or trans_n != direct_n:
        report.oracle_ok = False
    direct_eq = direct_m == direct_n
    trans_eq = trans_m == trans_n
    report.legs.append(
        {
            "claim": f"equal catenary data of the {m}-cones",
            "method": "direct flag counting on both cones, cross-checked "
            "against the transfer formula",
            "passed": direct_eq and trans_eq,
            "witness": None
            if direct_eq
            else {"difference": _diff_json(_first_difference(direct_m.counts, direct_n.counts))},
        }
    )

    cfg_m, cfg_n = configuration(QM), configuration(QN)
    report.legs.append(
        {
            "claim": f"different configurations of the {m}-cones",
            "method": "canonical certificates of the labeled lattices",
            "passed": cfg_m != cfg_n,
            "witness": None,
        }
    )
    return report


def _diff_json(diff):
    if diff is None:
        return None
    key, va, vb = diff
    return {"key": repr(key), "left": va, "right": vb}
